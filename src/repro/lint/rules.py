"""The rule catalog: each rule encodes one determinism/safety invariant.

Rules are AST visitors over a shared :class:`~repro.lint.context.FileContext`.
Each has a stable code (``REPROnnn``), a scope set (library code vs. test
harness code), and an allowlist of path suffixes where the invariant is
deliberately relaxed (the dual-clock seams in ``repro.obs`` and the CFD
wall-time measurement).

Codes group by family:

* ``REPRO1xx`` -- clock discipline (simulated time vs. wall time)
* ``REPRO2xx`` -- randomness discipline (named registry streams)
* ``REPRO3xx`` -- numeric discipline (float comparisons)
* ``REPRO4xx`` -- general simulation safety (mutable defaults, bare except,
  blocking I/O in engine callbacks)
* ``REPRO5xx`` -- determinism dataflow: REPRO521 (wall-clock taint).
  The retired REPRO501-504 and REPRO511 facts (stream provenance,
  shard-seam purity) are checked where they happen; see
  ``docs/static-analysis.md``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from repro.lint.context import FileContext
from repro.lint.violations import Violation

#: Wall-clock reads. Simulation code must use ``engine.now``; these leak
#: host time into traces and break same-seed bit-identity.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Constructors of independent RNG state. Library code must draw from a
#: named :class:`repro.simkernel.rng.RngRegistry` stream instead.
RNG_CONSTRUCTOR_CALLS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.Generator",
        "numpy.random.PCG64",
        "numpy.random.PCG64DXSM",
        "numpy.random.Philox",
        "numpy.random.SFC64",
        "numpy.random.MT19937",
        "numpy.random.SeedSequence",
    }
)

#: Functions operating on *global* (hidden, shared) RNG state -- the
#: numpy legacy module-level API and the stdlib ``random`` module.
GLOBAL_RNG_CALLS = frozenset(
    {f"numpy.random.{name}" for name in (
        "seed", "rand", "randn", "randint", "random", "random_sample",
        "ranf", "sample", "normal", "uniform", "choice", "shuffle",
        "permutation", "poisson", "exponential", "binomial", "lognormal",
        "standard_normal", "standard_cauchy", "gamma", "beta", "bytes",
    )}
    | {f"random.{name}" for name in (
        "seed", "random", "randint", "randrange", "uniform", "gauss",
        "normalvariate", "lognormvariate", "expovariate", "betavariate",
        "choice", "choices", "shuffle", "sample", "getrandbits",
        "triangular", "vonmisesvariate", "paretovariate", "weibullvariate",
    )}
)

#: Calls that block on the host (I/O, sleeps, subprocesses). Inside an
#: engine callback these stall the *event loop*, not simulated time.
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "input",
        "open",
        "os.system",
        "socket.socket",
        "socket.create_connection",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "urllib.request.urlopen",
        "requests.get",
        "requests.post",
        "requests.put",
        "requests.request",
        "http.client.HTTPConnection",
    }
)

#: Method names through which callables are registered on the simkernel
#: engine / event layer (see ``Engine.add_trace_hook``,
#: ``Event.add_callback``).
HANDLER_REGISTRATION_METHODS = frozenset({"add_callback", "add_trace_hook"})


class Rule:
    """Base class: one invariant, one stable code."""

    code: str = ""
    name: str = ""
    rationale: str = ""
    #: Scopes the rule applies to (subset of ``context.SCOPES``).
    scopes: frozenset[str] = frozenset({"src"})
    #: Path suffixes (posix) where the invariant is deliberately relaxed.
    allow_suffixes: tuple[str, ...] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.scope not in self.scopes:
            return False
        norm = ctx.path.replace("\\", "/")
        return not any(norm.endswith(suffix) for suffix in self.allow_suffixes)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Violation:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Violation(
            path=ctx.path,
            line=line,
            col=col,
            code=self.code,
            message=message,
            line_text=ctx.line_text(line),
        )


def _call_targets(ctx: FileContext) -> Iterator[tuple[ast.Call, str]]:
    """Yield every call in the module with its resolved dotted target."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            qualified = ctx.imports.resolve(node.func)
            if qualified is not None:
                yield node, qualified


class WallClockRule(Rule):
    """REPRO101: no wall-clock reads in simulation code."""

    code = "REPRO101"
    name = "wall-clock-in-sim"
    rationale = (
        "Simulation code must read time from `engine.now` (virtual time); "
        "host-clock reads make traces run-dependent and break same-seed "
        "bit-identity. The obs tracer and the CFD solver's wall-time probe "
        "are the two deliberate dual-clock seams and are allowlisted."
    )
    scopes = frozenset({"src"})
    allow_suffixes = (
        "repro/obs/trace.py",  # dual-clock spans: wall time is the point
        "repro/cfd/solver.py",  # solver wall-time measurement (perf probe)
        "repro/parallel/worker.py",  # shard compute-wall probe (side channel)
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node, target in _call_targets(ctx):
            if target in WALL_CLOCK_CALLS:
                yield self.violation(
                    ctx,
                    node,
                    f"wall-clock call `{target}()` in simulation code; "
                    "use the engine's virtual clock (`engine.now`)",
                )


class RngConstructionRule(Rule):
    """REPRO201: RNG state is constructed only inside the registry."""

    code = "REPRO201"
    name = "rng-construction-outside-registry"
    rationale = (
        "Library code constructing its own generator forks RNG state that "
        "the master seed does not control. All streams must come from "
        "`repro.simkernel.rng.RngRegistry` (usually via `engine.rng(name)`) "
        "or be accepted as a `numpy.random.Generator` parameter."
    )
    scopes = frozenset({"src"})
    allow_suffixes = ("repro/simkernel/rng.py",)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node, target in _call_targets(ctx):
            if target in RNG_CONSTRUCTOR_CALLS:
                yield self.violation(
                    ctx,
                    node,
                    f"`{target}()` constructs RNG state outside the registry; "
                    "draw a named stream via `engine.rng(name)` / "
                    "`RngRegistry.get(name)` or accept a Generator parameter",
                )


class GlobalRandomRule(Rule):
    """REPRO202: no hidden global RNG state, anywhere."""

    code = "REPRO202"
    name = "global-rng-state"
    rationale = (
        "`np.random.<fn>` module calls and the stdlib `random` module share "
        "hidden global state: any other consumer perturbs the sequence, so "
        "results depend on import/execution order. Banned in library *and* "
        "test code -- tests seed explicit generators instead."
    )
    scopes = frozenset({"src", "tests", "benchmarks", "examples"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node, target in _call_targets(ctx):
            if target in GLOBAL_RNG_CALLS:
                yield self.violation(
                    ctx,
                    node,
                    f"`{target}()` mutates/draws hidden global RNG state; "
                    "use an explicit seeded `numpy.random.Generator`",
                )


class UnseededRngRule(Rule):
    """REPRO203: every constructed generator names its seed."""

    code = "REPRO203"
    name = "unseeded-rng"
    rationale = (
        "`default_rng()` with no seed pulls OS entropy: the run is "
        "unreproducible by construction. Even in tests, generators must "
        "be seeded so failures replay."
    )
    scopes = frozenset({"src", "tests", "benchmarks", "examples"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node, target in _call_targets(ctx):
            if target not in RNG_CONSTRUCTOR_CALLS:
                continue
            if target.endswith(".SeedSequence"):
                continue  # SeedSequence() spawning is a seeding mechanism
            seeded = bool(node.args) or bool(node.keywords)
            if node.args and _is_none(node.args[0]):
                seeded = False
            for kw in node.keywords:
                if kw.arg == "seed" and _is_none(kw.value):
                    seeded = False
            if not seeded:
                yield self.violation(
                    ctx,
                    node,
                    f"`{target}()` without a seed draws OS entropy; pass an "
                    "explicit seed (derive via `RngRegistry`/`derive_seed`)",
                )


class RngDefaultArgRule(Rule):
    """REPRO204: no RNG constructed in a default argument."""

    code = "REPRO204"
    name = "rng-default-argument"
    rationale = (
        "A default like `rng=np.random.default_rng(0)` is evaluated once at "
        "import and silently shared by every call -- and its fixed seed "
        "ignores the registry's master seed (the `cspot.faults` bug). "
        "Require the caller to pass a registry-derived generator."
    )
    scopes = frozenset({"src", "tests", "benchmarks", "examples"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults: list[ast.expr] = list(node.args.defaults)
            defaults.extend(d for d in node.args.kw_defaults if d is not None)
            for default in defaults:
                for sub in ast.walk(default):
                    if not isinstance(sub, ast.Call):
                        continue
                    target = ctx.imports.resolve(sub.func)
                    if target in RNG_CONSTRUCTOR_CALLS:
                        yield self.violation(
                            ctx,
                            sub,
                            f"RNG constructed in default argument of "
                            f"`{node.name}()`: evaluated once at import with "
                            "a seed outside registry control; require an "
                            "explicit generator instead",
                        )


class HashSeedRule(Rule):
    """REPRO205: no builtin ``hash()`` for seed derivation."""

    code = "REPRO205"
    name = "hash-based-seed"
    rationale = (
        "Builtin `hash()` of a str/bytes is salted per-process "
        "(PYTHONHASHSEED), so hash-derived seeds differ across runs and "
        "platforms. Use `repro.simkernel.rng.derive_seed` (SHA-256)."
    )
    scopes = frozenset({"src"})
    allow_suffixes = ("repro/simkernel/rng.py",)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node, target in _call_targets(ctx):
            if target == "hash":
                yield self.violation(
                    ctx,
                    node,
                    "builtin `hash()` is salted per-process; derive seeds "
                    "with `repro.simkernel.rng.derive_seed` (stable SHA-256)",
                )


class FloatEqualityRule(Rule):
    """REPRO301: no exact equality against float literals."""

    code = "REPRO301"
    name = "float-literal-equality"
    rationale = (
        "`x == 0.35` on field data silently depends on rounding of the "
        "producing expression; compare with a tolerance "
        "(`math.isclose`, `numpy.isclose`) or against exact sentinels. "
        "Comparisons with 0.0 are allowed: zero is the exact "
        "cleared/sentinel value throughout the solvers."
    )
    scopes = frozenset({"src"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands: list[ast.expr] = [node.left, *node.comparators]
            for op, (left, right) in zip(
                node.ops, zip(operands[:-1], operands[1:])
            ):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for side in (left, right):
                    if (
                        isinstance(side, ast.Constant)
                        and isinstance(side.value, float)
                        and side.value != 0.0
                    ):
                        yield self.violation(
                            ctx,
                            node,
                            f"exact {'==' if isinstance(op, ast.Eq) else '!='} "
                            f"against float literal {side.value!r}; use "
                            "`math.isclose`/`numpy.isclose` or an exact "
                            "integer/zero sentinel",
                        )
                        break


class MutableDefaultRule(Rule):
    """REPRO401: no mutable default arguments."""

    code = "REPRO401"
    name = "mutable-default-argument"
    rationale = (
        "A `[]`/`{}`/`set()` default is one shared object across every "
        "call: state leaks between invocations (and between test cases), "
        "which shows up as order-dependent, unreproducible behaviour."
    )
    scopes = frozenset({"src", "tests", "benchmarks", "examples"})

    _mutable_ctors = frozenset({"list", "dict", "set", "collections.deque"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults: list[ast.expr] = list(node.args.defaults)
            defaults.extend(d for d in node.args.kw_defaults if d is not None)
            for default in defaults:
                if self._is_mutable(ctx, default):
                    yield self.violation(
                        ctx,
                        default,
                        f"mutable default argument in `{node.name}()`; "
                        "default to None (or a tuple/frozenset) and build "
                        "the container inside the body",
                    )

    def _is_mutable(self, ctx: FileContext, default: ast.expr) -> bool:
        if isinstance(
            default,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return True
        if isinstance(default, ast.Call):
            target = ctx.imports.resolve(default.func)
            return target in self._mutable_ctors
        return False


class BareExceptRule(Rule):
    """REPRO402: no bare ``except:`` clauses."""

    code = "REPRO402"
    name = "bare-except"
    rationale = (
        "`except:` swallows SystemExit/KeyboardInterrupt and, worse here, "
        "the simkernel's Interrupt delivery -- a process that catches its "
        "own interrupt deadlocks the campaign. Catch concrete exceptions."
    )
    scopes = frozenset({"src", "tests", "benchmarks", "examples"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.violation(
                    ctx,
                    node,
                    "bare `except:` swallows KeyboardInterrupt and simkernel "
                    "Interrupt delivery; catch `Exception` or narrower",
                )


class BlockingHandlerRule(Rule):
    """REPRO403: engine callbacks must not perform blocking I/O."""

    code = "REPRO403"
    name = "blocking-io-in-handler"
    rationale = (
        "Callables registered via `add_callback`/`add_trace_hook` run "
        "synchronously inside `Engine.step()`: a `time.sleep` or file/"
        "network call there stalls the whole event loop in *wall* time "
        "while the virtual clock stands still, destroying the sim/real "
        "timing fidelity the traces claim."
    )
    scopes = frozenset({"src"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        handler_names: set[str] = set()
        inline_handlers: list[ast.expr] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                not isinstance(func, ast.Attribute)
                or func.attr not in HANDLER_REGISTRATION_METHODS
            ):
                continue
            for arg in node.args:
                if isinstance(arg, ast.Name):
                    handler_names.add(arg.id)
                elif isinstance(arg, ast.Attribute):
                    handler_names.add(arg.attr)
                elif isinstance(arg, ast.Lambda):
                    inline_handlers.append(arg.body)

        bodies: list[Sequence[ast.AST]] = [inline_handlers]
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in handler_names
            ):
                bodies.append(node.body)

        for body in bodies:
            for stmt in body:
                for sub in ast.walk(stmt):
                    if not isinstance(sub, ast.Call):
                        continue
                    target = ctx.imports.resolve(sub.func)
                    if target in BLOCKING_CALLS:
                        yield self.violation(
                            ctx,
                            sub,
                            f"blocking call `{target}()` inside an engine "
                            "event handler stalls the run loop in wall time; "
                            "schedule work as a process/timeout instead",
                        )


#: Entry points into process-level parallelism. Sanctioned only inside
#: ``repro.parallel`` (and its tests), which owns the spawn-context
#: sharding protocol.
PROCESS_PARALLELISM_CALLS = frozenset(
    {
        "multiprocessing.Pool",
        "multiprocessing.Process",
        "multiprocessing.get_context",
        "multiprocessing.set_start_method",
        "multiprocessing.pool.Pool",
        "concurrent.futures.ProcessPoolExecutor",
    }
)

#: Raw fork primitives: banned everywhere, no allowlist.
FORK_CALLS = frozenset({"os.fork", "os.forkpty", "pty.fork"})

#: ``get_context``/``set_start_method`` arguments that fork the parent.
FORK_START_METHODS = frozenset({"fork", "forkserver"})


class ProcessParallelismRule(Rule):
    """REPRO404: process parallelism only via ``repro.parallel``, never fork."""

    code = "REPRO404"
    name = "ad-hoc-process-parallelism"
    rationale = (
        "A forked child inherits the parent's RNG registry and engine state "
        "mid-run, so results depend on *when* the fork happened -- fork and "
        "fork-context multiprocessing are banned outright. Spawn-context "
        "process parallelism is sanctioned only inside `repro.parallel`, "
        "which shards by cell and merges deterministically; ad-hoc "
        "Pool/Process elsewhere bypasses the window-barrier protocol and "
        "the per-shard stream naming that make runs worker-count-invariant."
    )
    scopes = frozenset({"src", "tests", "benchmarks", "examples"})

    #: Path fragments where spawn-context multiprocessing is the point.
    _sanctioned_fragments = ("repro/parallel/", "tests/parallel/")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        norm = ctx.path.replace("\\", "/")
        sanctioned = any(f in norm for f in self._sanctioned_fragments)
        for node, target in _call_targets(ctx):
            if target in FORK_CALLS:
                yield self.violation(
                    ctx,
                    node,
                    f"`{target}()` forks the interpreter, inheriting RNG "
                    "registry state mid-run; use spawn-context workers via "
                    "`repro.parallel`",
                )
                continue
            if target not in PROCESS_PARALLELISM_CALLS:
                continue
            method = self._start_method_literal(node)
            if method in FORK_START_METHODS:
                yield self.violation(
                    ctx,
                    node,
                    f"`{target}({method!r})` selects a fork-based start "
                    "method; forked children inherit parent RNG state -- "
                    "only `\"spawn\"` is deterministic across platforms",
                )
            elif not sanctioned:
                yield self.violation(
                    ctx,
                    node,
                    f"ad-hoc process parallelism `{target}()` outside "
                    "`repro.parallel`; shard through "
                    "`repro.parallel.ShardedScaleScenario` so results stay "
                    "worker-count-invariant",
                )

    @staticmethod
    def _start_method_literal(node: ast.Call) -> str | None:
        candidates: list[ast.expr] = list(node.args[:1])
        candidates.extend(
            kw.value for kw in node.keywords if kw.arg == "method"
        )
        for expr in candidates:
            if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
                return expr.value
        return None


#: Methods that consume *simulated* durations/instants on the engine or
#: its events: feeding a wall-clock-derived value into any of these
#: couples the virtual timeline to the host machine.
SIM_SCHEDULE_METHODS = frozenset(
    {"schedule_at", "timeout", "drain_window", "schedule"}
)


class WallClockTaintRule(Rule):
    """REPRO521: wall-clock values must not reach sim-time arithmetic."""

    code = "REPRO521"
    name = "wall-clock-taint"
    rationale = (
        "A wall-clock reading that flows into `engine.timeout(...)`/"
        "`schedule_at(...)` or is mixed with `engine.now` couples the "
        "virtual timeline to the host machine -- the run is no longer a "
        "function of (scenario, seed). Unlike REPRO101 (which bans the "
        "*read* in library code), this intraprocedural dataflow check "
        "follows the value, so it also guards the dual-clock seams and "
        "the test/benchmark harnesses where wall-clock reads are legal "
        "but must stay on the wall side of the ledger."
    )
    scopes = frozenset({"src", "tests", "benchmarks", "examples"})
    allow_suffixes = (
        "repro/obs/trace.py",  # dual-clock spans keep the two ledgers apart
        "repro/cfd/solver.py",  # wall-time perf probe (separate channel)
        "repro/parallel/worker.py",  # shard compute-wall side channel
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(ctx, node)

    def _check_function(
        self, ctx: FileContext, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Violation]:
        tainted: set[str] = set()
        reported: set[tuple[int, int]] = set()

        def is_wall_call(node: ast.AST) -> bool:
            return (
                isinstance(node, ast.Call)
                and ctx.imports.resolve(node.func) in WALL_CLOCK_CALLS
            )

        def expr_tainted(expr: ast.expr) -> bool:
            for sub in ast.walk(expr):
                if isinstance(sub, ast.Name) and sub.id in tainted:
                    return True
                if is_wall_call(sub):
                    return True
            return False

        def now_reads(expr: ast.expr) -> bool:
            """Does ``expr`` read the sim clock (a bare ``.now`` access)?"""
            call_funcs = {
                id(sub.func) for sub in ast.walk(expr)
                if isinstance(sub, ast.Call)
            }
            return any(
                isinstance(sub, ast.Attribute)
                and sub.attr == "now"
                and id(sub) not in call_funcs
                for sub in ast.walk(expr)
            )

        def emit(node: ast.AST, message: str) -> Iterator[Violation]:
            key = (getattr(node, "lineno", 1), getattr(node, "col_offset", 0))
            if key not in reported:
                reported.add(key)
                yield self.violation(ctx, node, message)

        def scan_expr(expr: ast.expr) -> Iterator[Violation]:
            for sub in ast.walk(expr):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in SIM_SCHEDULE_METHODS
                ):
                    args = [*sub.args, *(kw.value for kw in sub.keywords)]
                    if any(expr_tainted(a) for a in args):
                        yield from emit(
                            sub,
                            "wall-clock-derived value flows into "
                            f"`.{sub.func.attr}(...)`: simulated time would "
                            "depend on the host machine; keep wall readings "
                            "on the wall side of the dual-clock ledger",
                        )
                elif isinstance(sub, (ast.BinOp, ast.Compare)):
                    if isinstance(sub, ast.BinOp):
                        sides = [sub.left, sub.right]
                    else:
                        sides = [sub.left, *sub.comparators]
                    if any(expr_tainted(s) for s in sides) and any(
                        now_reads(s) for s in sides
                    ):
                        yield from emit(
                            sub,
                            "wall-clock-derived value mixed with the sim "
                            "clock (`.now`) in one expression; the two "
                            "timelines must never meet in arithmetic",
                        )

        def handle(stmts: Sequence[ast.stmt]) -> Iterator[Violation]:
            for stmt in stmts:
                if isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue  # nested defs get their own fresh walk
                for expr in ast.iter_child_nodes(stmt):
                    if isinstance(expr, ast.expr):
                        yield from scan_expr(expr)
                if isinstance(stmt, ast.Assign):
                    if expr_tainted(stmt.value):
                        for target in stmt.targets:
                            for sub in ast.walk(target):
                                if isinstance(sub, ast.Name):
                                    tainted.add(sub.id)
                    else:
                        for target in stmt.targets:
                            if isinstance(target, ast.Name):
                                tainted.discard(target.id)
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    if isinstance(stmt.target, ast.Name):
                        if expr_tainted(stmt.value):
                            tainted.add(stmt.target.id)
                        else:
                            tainted.discard(stmt.target.id)
                elif isinstance(stmt, ast.AugAssign):
                    if expr_tainted(stmt.value) and isinstance(
                        stmt.target, ast.Name
                    ):
                        tainted.add(stmt.target.id)
                # Recurse into compound statements; loop bodies run twice
                # so loop-carried taint propagates to the first pass's
                # expressions on the second.
                if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                    yield from handle(stmt.body)
                    yield from handle(stmt.body)
                    yield from handle(stmt.orelse)
                elif isinstance(stmt, ast.If):
                    yield from handle(stmt.body)
                    yield from handle(stmt.orelse)
                elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                    yield from handle(stmt.body)
                elif isinstance(stmt, ast.Try):
                    yield from handle(stmt.body)
                    for handler in stmt.handlers:
                        yield from handle(handler.body)
                    yield from handle(stmt.orelse)
                    yield from handle(stmt.finalbody)

        yield from handle(func.body)


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


#: The registry, in catalog order. Codes must be unique.
ALL_RULES: tuple[Rule, ...] = (
    WallClockRule(),
    RngConstructionRule(),
    GlobalRandomRule(),
    UnseededRngRule(),
    RngDefaultArgRule(),
    HashSeedRule(),
    FloatEqualityRule(),
    MutableDefaultRule(),
    BareExceptRule(),
    BlockingHandlerRule(),
    ProcessParallelismRule(),
    WallClockTaintRule(),
)

RULES_BY_CODE: dict[str, Rule] = {rule.code: rule for rule in ALL_RULES}
if len(RULES_BY_CODE) != len(ALL_RULES):  # pragma: no cover - registry bug
    raise RuntimeError("duplicate rule codes in ALL_RULES")
