"""repro.parallel: sharded multi-process simulation with deterministic merge.

The one sanctioned home for process-level parallelism in this repo
(REPRO404 bans ad-hoc ``multiprocessing`` elsewhere). A scenario is
partitioned by cell into shards, each shard advances on its own
deterministic engine from window barrier to window barrier, and the
per-shard results merge exactly -- so the report is byte-identical for
any worker count. Two scenario families share one skeleton
(:class:`ShardedScenario`, :class:`ShardTask`, :class:`ShardRunner`) and
the executors: the radio scale workload (:class:`ShardedScaleScenario`,
no cross-shard traffic) and the farm fabric (:class:`repro.core
.fabric_sharded.ShardedFabricScenario`, whose shard tasks and runners
live beside it in ``repro.core``), whose farms send CSPOT transfers one
way, to a :class:`HubRunner` in the coordinator that runs one window
behind them and ingests each transfer at its exact arrival time. This
package imports none of the fabric stack (sensors, CSPOT, Laminar, CFD):
every spawned worker imports it, and it passes what a shard sends to
the hub without reading it. See ``docs/parallel.md``.
"""

from repro.parallel.coordinator import (
    DEFAULT_WORKER_TIMEOUT_S,
    EXECUTORS,
    HubRunner,
    ShardedScaleScenario,
    ShardedScenario,
    run_shards_serial,
    run_shards_spawn,
)
from repro.parallel.merge import (
    STREAM_KEY_FIELDS,
    canonical_json,
    canonical_jsonl,
    merge_sketches,
    merge_streams,
    stream_key,
)
from repro.parallel.plan import (
    CellFault,
    LinkFault,
    ShardPlan,
    shard_stream,
)
from repro.parallel.report import FabricParallelReport, ParallelReport
from repro.parallel.shard import (
    CellShardResult,
    ScaleShardRunner,
    ScaleShardTask,
    ShardRunner,
    ShardTask,
    WorkerCrash,
)
from repro.parallel.worker import worker_main

__all__ = [
    "CellFault",
    "CellShardResult",
    "DEFAULT_WORKER_TIMEOUT_S",
    "EXECUTORS",
    "FabricParallelReport",
    "HubRunner",
    "LinkFault",
    "ParallelReport",
    "STREAM_KEY_FIELDS",
    "ScaleShardRunner",
    "ScaleShardTask",
    "ShardPlan",
    "ShardRunner",
    "ShardTask",
    "ShardedScaleScenario",
    "ShardedScenario",
    "WorkerCrash",
    "canonical_json",
    "canonical_jsonl",
    "merge_sketches",
    "merge_streams",
    "run_shards_serial",
    "run_shards_spawn",
    "shard_stream",
    "stream_key",
    "worker_main",
]
