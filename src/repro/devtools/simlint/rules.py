"""Built-in simlint rules: the codebase's invariants, statically checked.

Every rule here guards something the test suite only catches *dynamically*
(bit-identical fingerprint diffs, hours later) or not at all.  Rules are
deliberately narrow: each one encodes a concrete invariant of this
reproduction — where randomness may come from, what the hot paths may
allocate, how schemes reach the registry — not generic style.  See
``--explain CODE`` or ``docs/ARCHITECTURE.md`` ("Static analysis layer")
for the rationale behind each.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional

from repro.devtools.simlint.engine import FileContext, Rule, Violation
from repro.devtools.simlint.registry import register_rule

__all__ = [
    "WallClockRule",
    "SetIterationRule",
    "FloatTimeEqualityRule",
    "ConcreteImportRule",
    "RegisterSchemeConfigRule",
    "ConfigMutationRule",
    "HotPathRule",
    "PrintRule",
    "ProfilerImportRule",
    "TelemetryGuardRule",
    "CalendarInternalsRule",
]

#: The deterministic simulation core: everything here must be a pure
#: function of the scenario spec + seed.
_SIM_CORE = ("repro.sim", "repro.cache", "repro.schemes", "repro.workloads")

#: Modules that handle simulated-time floats (µs).
_TIME_SCOPE = _SIM_CORE + ("repro.core", "repro.devices", "repro.io")


def _terminal_name(node: ast.expr) -> Optional[str]:
    """The last identifier of a ``Name`` / dotted ``Attribute`` chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


@register_rule
class WallClockRule(Rule):
    code = "SL001"
    title = "no wall-clock or ambient RNG in the simulation core"
    explanation = (
        "Modules under repro.sim / repro.cache / repro.schemes /\n"
        "repro.workloads must not import random, uuid, secrets, time, or\n"
        "datetime.  The simulation is a pure function of (scenario spec,\n"
        "seed): randomness flows through the per-tenant\n"
        "numpy.random.Generator streams handed out by repro.sim.rng, and\n"
        "the only clock is Simulator.now.  A single time.time() or\n"
        "random.random() in this core silently breaks the bit-identical\n"
        "fingerprints the golden suite diffs against."
    )

    _FORBIDDEN = {"random", "uuid", "secrets", "time", "datetime"}

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.module_in(_SIM_CORE) or ctx.module == "repro.sim.rng":
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [(node.module or "").split(".")[0]]
            else:
                continue
            for name in names:
                if name in self._FORBIDDEN:
                    yield self.violation(
                        ctx,
                        node,
                        f"{name!r} imported in the simulation core; use "
                        "repro.sim.rng streams and Simulator.now instead",
                    )


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _is_set_annotation(node: ast.expr) -> bool:
    base = node.value if isinstance(node, ast.Subscript) else node
    name = _terminal_name(base)
    return name in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet")


@register_rule
class SetIterationRule(Rule):
    code = "SL002"
    title = "no iteration over bare sets in the simulation core"
    explanation = (
        "Iterating a set yields hash order, which varies across Python\n"
        "builds and with PYTHONHASHSEED for str/object elements.  Where\n"
        "the loop body schedules events or accumulates stats, that order\n"
        "leaks into results and breaks determinism (the reason\n"
        "CacheController._flushing is membership-tested, never iterated).\n"
        "Iterate sorted(the_set) — or keep a list alongside the set when\n"
        "insertion order is the meaningful one."
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.module_in(_TIME_SCOPE):
            return
        set_names: set[tuple[str, str]] = set()
        for node in ast.walk(ctx.tree):
            value: Optional[ast.expr] = None
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, node.targets
            elif isinstance(node, ast.AnnAssign):
                if _is_set_annotation(node.annotation):
                    targets = [node.target]
                    set_names.update(self._keys(targets))
                    continue
                value, targets = node.value, [node.target]
            if value is not None and _is_set_expr(value):
                set_names.update(self._keys(targets))
        for node in ast.walk(ctx.tree):
            iters: list[ast.expr] = []
            if isinstance(node, ast.For):
                iters = [node.iter]
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
                iters = [gen.iter for gen in node.generators]
            for it in iters:
                if _is_set_expr(it) or self._key(it) in set_names:
                    yield self.violation(
                        ctx,
                        it,
                        "iteration over a bare set yields nondeterministic "
                        "order; iterate sorted(...) instead",
                    )

    @staticmethod
    def _key(node: ast.expr) -> Optional[tuple[str, str]]:
        if isinstance(node, ast.Name):
            return ("name", node.id)
        if isinstance(node, ast.Attribute):
            return ("attr", node.attr)
        return None

    @classmethod
    def _keys(cls, targets: Iterable[ast.expr]) -> Iterator[tuple[str, str]]:
        for target in targets:
            key = cls._key(target)
            if key is not None:
                yield key


@register_rule
class FloatTimeEqualityRule(Rule):
    code = "SL003"
    title = "no float == / != on simulated-time values"
    explanation = (
        "Simulated timestamps are float µs accumulated through repeated\n"
        "addition; two logically simultaneous events can differ in the\n"
        "last ulp, so exact equality on them is a latent determinism bug.\n"
        "Compare with <, <=, or an explicit tolerance — and where exact\n"
        "tie-breaking is genuinely intended (Event.__lt__ defers equal\n"
        "times to the scheduling sequence number), say so with a\n"
        "justified pragma."
    )

    _EXACT = {"time", "now"}
    _SUFFIXES = ("_time", "_us")

    def _time_like(self, node: ast.expr) -> bool:
        name = _terminal_name(node)
        if name is None:
            return False
        return name in self._EXACT or name.endswith(self._SUFFIXES)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.module_in(_TIME_SCOPE):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[i], operands[i + 1]
                # A string constant on either side rules out a float.
                if any(
                    isinstance(o, ast.Constant) and isinstance(o.value, str)
                    for o in (left, right)
                ):
                    continue
                if self._time_like(left) or self._time_like(right):
                    yield self.violation(
                        ctx,
                        node,
                        "exact float equality on a simulated-time value; "
                        "use ordering or an explicit tolerance",
                    )
                    break


@register_rule
class ConcreteImportRule(Rule):
    code = "SL004"
    title = "concrete scheme/workload classes resolve through registries"
    explanation = (
        "Scheme and workload implementations are reached by *name*\n"
        "through repro.schemes.registry and the workload table — that is\n"
        "what keeps the axis pluggable (PR 5).  Importing WbBaseline,\n"
        "SibController, LbicaController, the capacity schemes, or\n"
        "MultiTenantWorkload directly re-hardcodes the very if/elif\n"
        "chains the registries removed.  Dispatch on scheme.name (every\n"
        "Scheme declares one) or go through build_scheme(); only each\n"
        "class's own package surface re-exports it."
    )

    #: concrete class -> (defining module, extra modules allowed to import it)
    _CONCRETE: dict[str, tuple[str, tuple[str, ...]]] = {
        "WbBaseline": ("repro.baselines.wb", ("repro.baselines",)),
        "SibController": ("repro.baselines.sib", ("repro.baselines",)),
        "LbicaController": ("repro.core.lbica", ("repro.core",)),
        "StaticPartitionScheme": ("repro.schemes.partition", ("repro.schemes",)),
        "DynamicShareScheme": ("repro.schemes.dynshare", ("repro.schemes",)),
        "MultiTenantWorkload": (
            "repro.workloads.multi_tenant",
            # spec.py builds workloads from scenario specs and system.py
            # hosts the WORKLOADS table — the two registry surfaces.
            ("repro.workloads", "repro.workloads.spec", "repro.experiments.system"),
        ),
    }

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.module.startswith("repro.") or ctx.module.startswith(
            "repro.devtools"
        ):
            return
        if ctx.module == "repro.schemes.registry":
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            for alias in node.names:
                entry = self._CONCRETE.get(alias.name)
                if entry is None:
                    continue
                defining, extra = entry
                if ctx.module == defining or ctx.module in extra:
                    continue
                yield self.violation(
                    ctx,
                    node,
                    f"concrete class {alias.name!r} imported outside its "
                    f"registry surface; resolve through the registry or "
                    f"dispatch on .name",
                )


@register_rule
class RegisterSchemeConfigRule(Rule):
    code = "SL005"
    title = "every register_scheme call site declares config_cls"
    explanation = (
        "build_scheme() wires a scheme's config from\n"
        "SystemConfig.<config_field> based on the class's config_cls\n"
        "declaration; a registration without one is ambiguous — did the\n"
        "author forget the config plumbing, or is the scheme genuinely\n"
        "config-less?  Make it explicit: declare config_cls = None for\n"
        "config-less schemes, or the dataclass the scheme consumes."
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        classes: dict[str, ast.ClassDef] = {
            node.name: node
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ClassDef)
        }
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    if _terminal_name(target) == "register_scheme":
                        yield from self._check_class(ctx, node, node)
            elif (
                isinstance(node, ast.Call)
                and _terminal_name(node.func) == "register_scheme"
                and node.args
                and isinstance(node.args[0], ast.Name)
            ):
                cls = classes.get(node.args[0].id)
                if cls is not None:
                    yield from self._check_class(ctx, cls, node)

    def _check_class(
        self, ctx: FileContext, cls: ast.ClassDef, site: ast.AST
    ) -> Iterator[Violation]:
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "config_cls"
                for t in stmt.targets
            ):
                return
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == "config_cls"
            ):
                return
        yield self.violation(
            ctx,
            site,
            f"scheme {cls.name!r} registered without declaring config_cls "
            "(use config_cls = None for config-less schemes)",
        )


@register_rule
class ConfigMutationRule(Rule):
    code = "SL006"
    title = "no SystemConfig attribute mutation after construction"
    explanation = (
        "A SystemConfig digest is part of every RunKey: the store and\n"
        "campaign layer assume the config an artifact was stamped with is\n"
        "the config the run actually used.  Mutating config attributes\n"
        "after system construction silently invalidates that digest (and\n"
        "any cached store hit).  Build a new config with\n"
        "dataclasses.replace() instead; only SystemConfig.__post_init__\n"
        "(repro.config itself) normalizes in place."
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.module.startswith("repro.") or ctx.module == "repro.config":
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                targets: list[ast.expr] = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if not isinstance(target, ast.Attribute):
                    continue
                base = target.value
                if (isinstance(base, ast.Name) and base.id == "config") or (
                    isinstance(base, ast.Attribute) and base.attr == "config"
                ):
                    yield self.violation(
                        ctx,
                        node,
                        f"mutation of config attribute {target.attr!r} after "
                        "construction; use dataclasses.replace() to derive "
                        "a new config",
                    )


@register_rule
class HotPathRule(Rule):
    code = "SL007"
    title = "hot-path functions stay allocation-lean"
    explanation = (
        "The per-event dispatch chain (Simulator.run/step/schedule_call,\n"
        "CacheStore.lookup, DeviceQueue.push/pop_next/complete,\n"
        "CacheController._do_read/_do_write/_sync_done, Workload._arrive)\n"
        "runs millions of times per scenario; PR 3's profiling showed\n"
        "closure allocation and Event-object churn dominate it.  Inside\n"
        "these functions: no lambdas, no nested defs, and no bare\n"
        "self-discarding .schedule(...) calls — schedule_call() is the\n"
        "no-Event fast path when the handle is never used."
    )

    _HOT: frozenset[tuple[str, str]] = frozenset(
        {
            ("repro.sim.engine", "Simulator.run"),
            ("repro.sim.engine", "Simulator.step"),
            ("repro.sim.engine", "Simulator.schedule_call"),
            ("repro.cache.store", "CacheStore.lookup"),
            ("repro.io.device_queue", "DeviceQueue.push"),
            ("repro.io.device_queue", "DeviceQueue.pop_next"),
            ("repro.io.device_queue", "DeviceQueue.complete"),
            ("repro.cache.controller", "CacheController._do_read"),
            ("repro.cache.controller", "CacheController._do_write"),
            ("repro.cache.controller", "CacheController._sync_done"),
            ("repro.workloads.base", "Workload._arrive"),
        }
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        hot_names = {
            qual for mod, qual in self._HOT if mod == ctx.module
        }
        if not hot_names:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if f"{node.name}.{item.name}" in hot_names:
                    yield from self._check_body(ctx, item)

    def _check_body(
        self, ctx: FileContext, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Violation]:
        for stmt in fn.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Lambda):
                    yield self.violation(
                        ctx, node, "lambda allocated in a hot-path function"
                    )
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield self.violation(
                        ctx,
                        node,
                        "nested function defined in a hot-path function",
                    )
                elif (
                    isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr == "schedule"
                ):
                    yield self.violation(
                        ctx,
                        node,
                        ".schedule(...) with the Event handle discarded in a "
                        "hot-path function; use schedule_call()",
                    )


@register_rule
class PrintRule(Rule):
    code = "SL008"
    title = "no stdout prints outside CLI modules"
    explanation = (
        "Library modules under repro.* are imported by the campaign\n"
        "runner, the benchmark suite, and tests that parse captured\n"
        "stdout (the CLI contract tests diff it).  A stray print() in a\n"
        "library module corrupts --json output and progress displays.\n"
        "Print only from CLI modules (*.cli, repro.__main__), from\n"
        "__main__ guard blocks, or with an explicit file= destination;\n"
        "gate verbose progress output behind a pragma-justified flag."
    )

    _ALLOWED_MODULES = ("repro.__main__", "repro.scenario.smoke")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.module.startswith("repro."):
            return
        if ctx.module in self._ALLOWED_MODULES or ctx.module.endswith(".cli"):
            return
        yield from self._walk(ctx, ctx.tree.body)

    def _walk(self, ctx: FileContext, body: list[ast.stmt]) -> Iterator[Violation]:
        for stmt in body:
            if isinstance(stmt, ast.If) and self._is_main_guard(stmt.test):
                yield from self._walk(ctx, stmt.orelse)
                continue
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "print"
                    and not any(kw.arg == "file" for kw in node.keywords)
                ):
                    yield self.violation(
                        ctx,
                        node,
                        "print() to stdout in a library module; print only "
                        "from CLI modules or pass an explicit file=",
                    )

    @staticmethod
    def _is_main_guard(test: ast.expr) -> bool:
        return (
            isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name)
            and test.left.id == "__name__"
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Eq)
            and len(test.comparators) == 1
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value == "__main__"
        )


@register_rule
class ProfilerImportRule(Rule):
    code = "SL009"
    title = "cProfile/pstats import only in the profiling harness"
    explanation = (
        "benchmarks/profile.py is the one sanctioned import site for\n"
        "cProfile and pstats.  A profiler import anywhere else means\n"
        "instrumentation is creeping into library or benchmark code: the\n"
        "hot paths must stay hook-free (cProfile's tracing slows this\n"
        "simulator's run loop ~4x, so any always-on profiling silently\n"
        "poisons BENCH numbers), and ad-hoc profiling scripts rot where\n"
        "the harness stays tested.  Profile through\n"
        "benchmarks/profile.py (or suite.py --profile DIR) instead."
    )

    _FORBIDDEN = {"cProfile", "pstats"}
    _SANCTIONED = "benchmarks.profile"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.module == self._SANCTIONED:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [(node.module or "").split(".")[0]]
            else:
                continue
            for name in names:
                if name in self._FORBIDDEN:
                    yield self.violation(
                        ctx,
                        node,
                        f"{name!r} imported outside the profiling harness; "
                        "profile through benchmarks/profile.py",
                    )


@register_rule
class TelemetryGuardRule(Rule):
    code = "SL010"
    title = "telemetry emits in hot-path modules need an enabled-guard"
    explanation = (
        "The obs layer's contract is zero overhead when disabled: its\n"
        "hooks ride existing observer lists and interval ticks, never the\n"
        "per-event dispatch chain.  If a telemetry emit (a method call on\n"
        "a telemetry/hub/spans/metrics receiver) does land in one of\n"
        "SL007's hot-path modules, it must sit inside an if-guard that\n"
        "tests the telemetry object or an enabled flag — an unguarded\n"
        "emit charges every run, telemetry on or off, and silently taxes\n"
        "the 130k+ events/s budget the BENCH suite gates."
    )

    #: Receiver identifiers that mark a call as a telemetry emit.
    _RECEIVERS = frozenset({"telemetry", "hub", "spans", "metrics_hub", "obs"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        hot_modules = {mod for mod, _ in HotPathRule._HOT}
        if ctx.module not in hot_modules:
            return
        yield from self._scan(ctx, ctx.tree.body, guarded=False)

    def _scan(
        self, ctx: FileContext, body: list[ast.stmt], guarded: bool
    ) -> Iterator[Violation]:
        for stmt in body:
            if isinstance(stmt, ast.If):
                inner = guarded or self._is_guard(stmt.test)
                yield from self._check_stmt_exprs(ctx, stmt.test, guarded)
                yield from self._scan(ctx, stmt.body, inner)
                yield from self._scan(ctx, stmt.orelse, guarded)
                continue
            if isinstance(stmt, ast.Try):
                for block in (stmt.body, stmt.orelse, stmt.finalbody):
                    yield from self._scan(ctx, block, guarded)
                for handler in stmt.handlers:
                    yield from self._scan(ctx, handler.body, guarded)
                continue
            if isinstance(
                stmt,
                (
                    ast.For,
                    ast.AsyncFor,
                    ast.While,
                    ast.With,
                    ast.AsyncWith,
                    ast.FunctionDef,
                    ast.AsyncFunctionDef,
                    ast.ClassDef,
                ),
            ):
                yield from self._scan(ctx, stmt.body, guarded)
                orelse = getattr(stmt, "orelse", None)
                if orelse:
                    yield from self._scan(ctx, orelse, guarded)
                continue
            if not guarded:
                yield from self._check_stmt_exprs(ctx, stmt, guarded=False)

    def _check_stmt_exprs(
        self, ctx: FileContext, node: ast.AST, guarded: bool
    ) -> Iterator[Violation]:
        if guarded:
            return
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and self._is_telemetry_receiver(sub.func.value)
            ):
                yield self.violation(
                    ctx,
                    sub,
                    f"unguarded telemetry emit "
                    f"'.{sub.func.attr}(...)' in a hot-path module; wrap it "
                    "in an enabled-guard (e.g. `if telemetry is not None:`)",
                )

    def _is_telemetry_receiver(self, node: ast.expr) -> bool:
        """Whether any identifier in the receiver chain is telemetry-ish."""
        current: Optional[ast.expr] = node
        while current is not None:
            if isinstance(current, ast.Name):
                return current.id in self._RECEIVERS
            if isinstance(current, ast.Attribute):
                if current.attr in self._RECEIVERS:
                    return True
                current = current.value
                continue
            return False
        return False

    def _is_guard(self, test: ast.expr) -> bool:
        """Whether an ``if`` test mentions a telemetry object or enabled flag."""
        for node in ast.walk(test):
            name = _terminal_name(node) if isinstance(node, ast.expr) else None
            if name is None:
                continue
            if name in self._RECEIVERS or "enabled" in name:
                return True
        return False


@register_rule
class CalendarInternalsRule(Rule):
    code = "SL011"
    title = "the event calendar's internals stay inside repro.sim"
    explanation = (
        "Simulator._heap, Simulator._seq and repro.sim.engine._NO_EVENT\n"
        "are the calendar's internals: the heap entry layout\n"
        "(time, seq, fn, args, event), the sequence counter that breaks\n"
        "time ties, and the shared never-cancelled sentinel.  Event order\n"
        "-- and with it every golden fingerprint -- depends on all three\n"
        "staying consistent, so only repro.sim may touch them.  Schedule\n"
        "through the Simulator API instead (schedule_call, schedule_calls,\n"
        "reserve_seqs + schedule_reserved).  An inlined fast path that\n"
        "measurably pays off may keep a justified pragma on each line."
    )

    _ATTRS = frozenset({"_heap", "_seq", "_NO_EVENT"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.module_in(("repro.sim",)):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "repro.sim.engine":
                if any(alias.name == "_NO_EVENT" for alias in node.names):
                    yield self.violation(
                        ctx, node, "_NO_EVENT imported outside repro.sim"
                    )
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in self._ATTRS
                # an object's own private attributes are its own business
                and not (
                    isinstance(node.value, ast.Name)
                    and node.value.id in ("self", "cls")
                )
            ):
                yield self.violation(
                    ctx,
                    node,
                    f"calendar internal '.{node.attr}' used outside "
                    "repro.sim; schedule through the Simulator API",
                )
