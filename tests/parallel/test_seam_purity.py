"""Shard-seam purity: what crosses the coordinator->worker pipe is data.

A task pickled to a spawn worker must hold only plain data. An engine,
tracer, live generator, open handle or callable inside it ships
process-local state into the worker, so results silently stop being a
function of ``(task, seed)``. The check pickles the real tasks with a
pickler that refuses such objects, so it walks exactly what the pipe
walks -- nested dataclasses and inherited fields included.
"""

import functools
import io
import pickle
import socket
import threading
import types
from dataclasses import dataclass, field
from multiprocessing.connection import Connection

import numpy as np
import pytest

from repro.chaos import ShardChaosCampaign
from repro.core import ShardedFabricScenario
from repro.obs import MetricsRegistry, Tracer
from repro.parallel import CellFault, LinkFault, ShardedScaleScenario
from repro.radio.population import UEPopulation
from repro.simkernel import Engine, RngRegistry

#: Process-local machinery that must never cross the seam.
AMBIENT_TYPES = (
    Engine,
    RngRegistry,
    Tracer,
    MetricsRegistry,
    np.random.Generator,
    np.random.RandomState,
    np.random.BitGenerator,
    io.IOBase,
    socket.socket,
    Connection,
    threading.Thread,
    type(threading.Lock()),
    type(threading.RLock()),
    threading.Event,
    threading.Condition,
    types.FunctionType,
    types.MethodType,
    functools.partial,
)


class SeamPickler(pickle.Pickler):
    """Pickles like the worker pipe, but refuses ambient state."""

    def reducer_override(self, obj):
        # Module-level C functions pass: pickle itself names them to
        # rebuild plain data (numpy's array and scalar reconstructors).
        # Bound ones carry their object's state.
        bound_builtin = isinstance(obj, types.BuiltinMethodType) and not (
            isinstance(obj.__self__, types.ModuleType)
        )
        if bound_builtin or isinstance(obj, AMBIENT_TYPES):
            raise pickle.PicklingError(
                f"{type(obj).__qualname__} would cross the shard seam: {obj!r}"
            )
        return NotImplemented


def seam_dumps(obj) -> bytes:
    buffer = io.BytesIO()
    SeamPickler(buffer).dump(obj)
    return buffer.getvalue()


@dataclass
class Carrier:
    payload: object


@dataclass
class TaskBase:
    rng: object = field(default_factory=lambda: np.random.default_rng(0))


@dataclass
class DerivedTask(TaskBase):
    seed: int = 0


def test_real_tasks_are_pure_data():
    scale = ShardedScaleScenario(
        population=UEPopulation(n_cells=4),
        workers=2,
        faults=(
            CellFault(cell_index=1, window=0, derate=0.25),
            CellFault(cell_index=3, window=2, derate=0.5),
        ),
    )._tasks()
    fabric = ShardedFabricScenario(
        n_sites=4,
        workers=2,
        campaign=ShardChaosCampaign(
            faults=(CellFault(cell_index=2, window=1, derate=0.25),),
            link_faults=(LinkFault(cell_index=3, start_window=0, end_window=1),),
        ),
    )._tasks()
    # Routed faults ride inside the tasks, so they cross the seam too.
    assert any(t.faults for t in scale) and any(t.link_faults for t in fabric)
    for task in scale + fabric:
        assert pickle.loads(seam_dumps(task)) == task


class TestSeamPickler:
    @pytest.mark.parametrize(
        "make",
        [
            Engine,
            lambda: RngRegistry(0),
            Tracer,
            MetricsRegistry,
            lambda: np.random.default_rng(0),
            lambda: np.random.RandomState(0),
            lambda: np.random.PCG64(0),
            io.BytesIO,
            threading.Lock,
            threading.Thread,
            lambda: (lambda: 0),
            lambda: Engine().run,
            lambda: [].append,
            lambda: functools.partial(print),
        ],
        ids=[
            "engine", "rng-registry", "tracer", "metrics", "generator",
            "random-state", "bit-generator", "io", "lock", "thread",
            "function", "method", "bound-builtin", "partial",
        ],
    )
    def test_ambient_state_rejected(self, make):
        with pytest.raises(pickle.PicklingError, match="shard seam"):
            seam_dumps(Carrier(make()))

    def test_inherited_ambient_field_rejected(self):
        with pytest.raises(pickle.PicklingError, match="Generator"):
            seam_dumps(DerivedTask(seed=1))

    @pytest.mark.parametrize(
        "payload",
        [np.arange(3), np.float64(1.5), (1, "a", None), CellFault(0, 0)],
        ids=["array", "scalar", "tuple", "dataclass"],
    )
    def test_plain_data_accepted(self, payload):
        assert seam_dumps(Carrier(payload))
