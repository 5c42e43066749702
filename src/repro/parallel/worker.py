"""The spawned worker process: a pipe-driven loop around a shard runner.

Protocol (coordinator -> worker, worker -> coordinator), three messages
pickled over a ``multiprocessing`` duplex pipe:

=====================  ==================================================
the task               build the runner
``("advance", t)``     drain the shard to barrier ``t``, then reply
                       ``("done", t, events_processed, outbound)`` with
                       the envelopes exported during the window
``("finish",)``        reply ``("results", [result, ...], timings)`` and
                       exit the loop
=====================  ==================================================

``outbound`` is the tuple the runner's
:meth:`~repro.parallel.shard.ShardRunner.collect_outbound` returns: the
fabric's farm shards send :class:`~repro.cspot.boundary.FabricEnvelope`
records bound for the hub, which runs in the coordinator, and radio
scale shards send empty tuples. The worker passes them on unread, so the
two scenario families share one protocol.
Nothing flows back to a worker but the next ``advance``: a worker may be
a whole window ahead of the hub. The task arrives first and builds its
runner (:meth:`~repro.parallel.shard.ShardTask.build_runner`), so the
spawned interpreter only needs the module import path -- the **spawn**
start method is the whole point: a fresh interpreter with no inherited
RNG state, no copy-on-write heap, and the same behaviour on every
platform. (The ``repro.lint`` REPRO404 rule bans fork-context
multiprocessing precisely because a forked child inherits the parent's
RNG registry state mid-run.)

Seam purity: a task must be pure data -- no engine, tracer, live
generator, open handle or callable -- or worker results stop being a
function of ``(task, seed)``. ``tests/parallel/test_seam_purity.py``
pickles the real tasks and rejects any such object.

Failure surface: an exception inside the loop is shipped as an
``("error", repr)`` message before the worker dies, so the coordinator
can re-raise with context instead of timing out. A worker that dies
*without* a reply (e.g. ``SystemExit``, which is not an ``Exception``)
closes the pipe, or resets it if the coordinator's next message is still
unread, and the coordinator's timed receive turns either into a clear
error naming the worker -- never a hang.

Wall-clock note: this module is one of the deliberate REPRO101 allowlist
seams (like the CFD solver's perf probe). The worker measures its own
compute wall time so the benchmark harness can model parallel efficiency
on machines with fewer cores than workers; the timings travel in a
separate side channel and are excluded from every canonical report.
"""

from __future__ import annotations

import time
from multiprocessing.connection import Connection
from typing import Any

from repro.parallel.shard import ShardTask


def worker_main(conn: Connection) -> None:
    """Run one shard behind a pipe; the spawn entry point."""
    try:
        task: ShardTask = conn.recv()
        runner = task.build_runner()
        compute_wall = 0.0
        while True:
            message: tuple[Any, ...] = conn.recv()
            if message[0] == "advance":
                barrier_t = float(message[1])
                t0 = time.perf_counter()
                events = runner.advance(barrier_t)
                outbound = runner.collect_outbound()
                compute_wall += time.perf_counter() - t0
                conn.send(("done", barrier_t, events, outbound))
            elif message[0] == "finish":
                results = runner.finish()
                timings = {
                    "compute_wall_s": compute_wall,
                    "cells": len(task.cells),
                }
                conn.send(("results", results, timings))
                return
            else:
                raise ValueError(f"unknown command: {message[0]!r}")
    except EOFError:
        # The coordinator closed its end mid-run (it aborted because some
        # *other* worker failed). Nothing to report and nobody listening:
        # exit quietly instead of tracebacking into a broken pipe.
        return
    except Exception as error:  # ship the failure instead of hanging the pipe
        try:
            conn.send(("error", repr(error)))
        except OSError:
            pass  # coordinator already gone; the EOF on its side suffices
        raise
    finally:
        conn.close()
