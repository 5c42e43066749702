"""Unit tests for Resource."""

import pytest

from repro.simkernel import Engine, Resource


def test_resource_grant_immediate_when_available():
    eng = Engine()
    res = Resource(eng, capacity=4)
    ev = res.request(3)
    assert ev.triggered and ev.ok
    assert res.in_use == 3
    assert res.available == 1


def test_resource_blocks_then_grants_fifo():
    eng = Engine()
    res = Resource(eng, capacity=2)
    order = []

    def worker(name, hold):
        grant = res.request(1)
        yield grant
        order.append((name, "start", eng.now))
        yield eng.timeout(hold)
        res.release(1)
        order.append((name, "end", eng.now))

    eng.process(worker("a", 5.0))
    eng.process(worker("b", 5.0))
    eng.process(worker("c", 1.0))
    eng.run()
    starts = [(n, t) for n, what, t in order if what == "start"]
    assert starts == [("a", 0.0), ("b", 0.0), ("c", 5.0)]


def test_resource_large_request_blocks_later_small_ones():
    eng = Engine()
    res = Resource(eng, capacity=4)
    res.request(3)
    big = res.request(4)     # cannot fit: head of queue
    small = res.request(1)   # could fit, but FIFO forbids jumping
    assert not big.triggered
    assert not small.triggered
    res.release(3)
    eng.run()
    assert big.triggered
    assert not small.triggered


def test_resource_validation():
    eng = Engine()
    with pytest.raises(ValueError):
        Resource(eng, capacity=0)
    res = Resource(eng, capacity=2)
    with pytest.raises(ValueError):
        res.request(0)
    with pytest.raises(ValueError):
        res.request(3)
    with pytest.raises(ValueError):
        res.release(1)  # nothing in use
