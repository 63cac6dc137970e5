"""Determinism rules (RL1xx).

The simulator's crash-recovery layer replays runs **bit-identically**
from the state journal, and every experiment is reproducible from one
root seed.  Both properties die the moment any code path draws entropy
outside :class:`repro.sim.random.RandomSource` or observes the host's
wall clock, so these rules ban the APIs that smuggle either in.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.reprolint.checkers.base import Checker
from tools.reprolint.diagnostics import Diagnostic, Rule, Severity
from tools.reprolint.source import ParsedModule, dotted_name

#: Modules allowed to touch numpy's seeding machinery: the one place
#: substreams are derived from the root seed.
_RNG_EXEMPT_MODULES = ("repro.sim.random",)

#: Qualified callables that create or draw from ambient RNG state.
_UNSEEDED_RNG = {
    "numpy.random.default_rng",
    "numpy.random.seed",
    "numpy.random.RandomState",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.rand",
    "numpy.random.randn",
    "numpy.random.random",
    "numpy.random.random_sample",
    "numpy.random.randint",
    "numpy.random.choice",
    "numpy.random.permutation",
    "numpy.random.shuffle",
    "numpy.random.uniform",
    "numpy.random.normal",
    "numpy.random.exponential",
    "numpy.random.poisson",
}

#: The stdlib ``random`` module: every public callable is ambient state.
_STDLIB_RANDOM_PREFIX = "random."

#: Wall-clock reads; simulated time comes from the engine, never the host.
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.localtime",
    "time.gmtime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: OS / hardware entropy sources.
_OS_ENTROPY_PREFIXES = ("os.urandom", "secrets.", "uuid.uuid1", "uuid.uuid4")

#: Host parallelism topology reads.  Worker count may only ever affect
#: *scheduling*; the moment it reaches a value (grid shape, batch size,
#: seed, anything merged into a result) the same command produces
#: different output on different machines — the exact property the
#: sweep runner's bit-identical-merge contract forbids.
_CPU_TOPOLOGY = {
    "os.cpu_count",
    "os.process_cpu_count",
    "os.sched_getaffinity",
    "multiprocessing.cpu_count",
    "psutil.cpu_count",
}

#: Callables whose first argument is consumed in iteration order.
_ORDER_SENSITIVE_WRAPPERS = {"list", "tuple", "enumerate", "iter"}

#: Set-producing calls whose iteration order is hash-dependent.
_SET_PRODUCERS = {"set", "frozenset"}
_SET_METHODS = {"union", "intersection", "difference", "symmetric_difference"}

#: Marker declaring a module part of the vectorised per-cycle hot path.
#: It must appear in the module *docstring* (a declaration about the
#: whole module, not a line-level pragma).  Marked modules must not loop
#: over nodes in Python (RL106) — that's exactly the scaling hazard the
#: vector engine exists to remove.
_HOT_PATH_MARKER = "# reprolint: hot-path"

#: Identifier tokens that signal per-node iteration.
_NODE_TOKENS = {"node", "nodes"}

#: ``numpy.random.Generator`` methods that consume the stream (RL108).
_GENERATOR_DRAWS = frozenset(
    {
        "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
        "exponential", "f", "gamma", "geometric", "gumbel",
        "hypergeometric", "integers", "laplace", "logistic", "lognormal",
        "logseries", "multinomial", "multivariate_hypergeometric",
        "multivariate_normal", "negative_binomial", "noncentral_chisquare",
        "noncentral_f", "normal", "pareto", "permutation", "permuted",
        "poisson", "power", "random", "rayleigh", "shuffle",
        "standard_cauchy", "standard_exponential", "standard_gamma",
        "standard_normal", "standard_t", "triangular", "uniform",
        "vonmises", "wald", "weibull", "zipf",
    }
)

#: Identifier tokens naming a Generator (``rng``, ``self._rng``, ``gen``).
_RNG_TOKENS = {"rng", "gen", "generator"}


def _is_generator(expr: ast.expr) -> bool:
    """Whether ``expr`` reads as a Generator: an rng-named value or a
    ``RandomSource.stream(...)`` call."""
    if isinstance(expr, ast.Call):
        return isinstance(expr.func, ast.Attribute) and expr.func.attr == "stream"
    if isinstance(expr, ast.Name):
        ident = expr.id
    elif isinstance(expr, ast.Attribute):
        ident = expr.attr
    else:
        return False
    return bool(_RNG_TOKENS & set(ident.lower().split("_")))


#: Statement loops and comprehensions: what RL108 looks inside.
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
_LOOPS = (ast.For, ast.AsyncFor, ast.While, *_COMPREHENSIONS)


def _repeated_parts(loop: ast.AST) -> list[ast.AST]:
    """The parts of a loop or comprehension evaluated once per iteration."""
    if isinstance(loop, (ast.For, ast.AsyncFor)):
        return [*loop.body, *loop.orelse]
    if isinstance(loop, ast.While):
        return [loop.test, *loop.body]
    assert isinstance(loop, _COMPREHENSIONS)
    elts = [loop.key, loop.value] if isinstance(loop, ast.DictComp) else [loop.elt]
    parts: list[ast.AST] = list(elts)
    for k, gen in enumerate(loop.generators):
        parts.extend(gen.ifs)
        if k:  # only the first generator's iterable is evaluated once
            parts.append(gen.iter)
    return parts


def _calls_within(parts: list[ast.AST]) -> Iterator[ast.Call]:
    """Calls under ``parts``, not descending into nested definitions."""
    stack = list(parts)
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _mentions_node(expr: ast.AST) -> bool:
    """Whether any identifier in ``expr`` names a node or node container."""
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Name):
            ident = sub.id
        elif isinstance(sub, ast.Attribute):
            ident = sub.attr
        else:
            continue
        if _NODE_TOKENS & set(ident.lower().split("_")):
            return True
    return False


class DeterminismChecker(Checker):
    """RL101 unseeded RNG, RL102 wall clock, RL103 OS entropy,
    RL104 hash-ordered set iteration, RL106 per-node loops on the
    hot path, RL107 host CPU-topology reads, RL108 RNG draws inside
    loops on the hot path."""

    rules = (
        Rule(
            "RL101",
            "unseeded-rng",
            Severity.ERROR,
            "RNG created or drawn outside repro.sim.random",
            "Every stochastic draw must flow from a named RandomSource "
            "substream, or crash replay stops being bit-identical.",
        ),
        Rule(
            "RL102",
            "wall-clock",
            Severity.ERROR,
            "host wall-clock read in simulator code",
            "Simulated time comes from the engine; host time differs "
            "between a run and its journal replay.",
        ),
        Rule(
            "RL103",
            "os-entropy",
            Severity.ERROR,
            "OS entropy source (os.urandom / uuid / secrets)",
            "Hardware entropy cannot be reproduced from the root seed.",
        ),
        Rule(
            "RL104",
            "unordered-iteration",
            Severity.ERROR,
            "iteration over a set in an order-sensitive position",
            "Set iteration order depends on insertion/hash history; when "
            "it reaches results, two identical runs can diverge.  Wrap "
            "the set in sorted().",
        ),
        Rule(
            "RL106",
            "per-node-loop-on-hot-path",
            Severity.ERROR,
            "per-node Python loop in a hot-path-marked module",
            "Modules carrying the '# reprolint: hot-path' marker promise "
            "O(1) Python overhead per cycle regardless of cluster size; "
            "a Python loop over nodes breaks that promise at scale.  "
            "Batch the work through the vector engine, or move the loop "
            "to the object reference engine.",
        ),
        Rule(
            "RL107",
            "cpu-topology-read",
            Severity.ERROR,
            "host CPU topology read (os.cpu_count and friends)",
            "Deterministic code paths must not read the host's CPU "
            "count or affinity: results become machine-dependent and "
            "the sweep runner's parallel-equals-serial contract breaks. "
            "Take an explicit worker count from configuration; worker "
            "count may only affect scheduling, never results.",
        ),
        Rule(
            "RL108",
            "rng-draw-in-loop-on-hot-path",
            Severity.ERROR,
            "Generator draw inside a loop or comprehension in a "
            "hot-path-marked module",
            "A draw per iteration is one Python-to-C round trip per job "
            "or node, so the hot path's cost grows with the loop.  Draw "
            "the whole batch at once (one standard_normal(n), sliced per "
            "item): a Generator yields the same stream either way.",
        ),
    )

    def check(self, module: ParsedModule) -> Iterator[Diagnostic]:
        rng_exempt = module.in_package(*_RNG_EXEMPT_MODULES)
        docstring = ast.get_docstring(module.tree, clean=False) or ""
        hot_path = _HOT_PATH_MARKER in docstring
        if hot_path:
            yield from self._check_draws_in_loops(module)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node, rng_exempt)
            if isinstance(node, ast.For):
                yield from self._check_iteration(module, node.iter)
                if hot_path:
                    yield from self._check_node_loop(module, node.target, node.iter)
            if isinstance(node, ast.comprehension):
                yield from self._check_iteration(module, node.iter)
                if hot_path:
                    yield from self._check_node_loop(module, node.target, node.iter)

    # -- RL101/RL102/RL103 --------------------------------------------
    def _check_call(
        self, module: ParsedModule, node: ast.Call, rng_exempt: bool
    ) -> Iterator[Diagnostic]:
        raw = dotted_name(node.func)
        if raw is None:
            return
        qualified = module.imports.qualify(raw)
        # ``np.random`` is the conventional alias for ``numpy.random``.
        qualified = qualified.replace("np.random.", "numpy.random.", 1)
        if not rng_exempt:
            if qualified in _UNSEEDED_RNG or qualified.startswith(
                _STDLIB_RANDOM_PREFIX
            ):
                yield self.emit(
                    module,
                    node,
                    "RL101",
                    f"call to {qualified}(); draw from a "
                    "repro.sim.random.RandomSource substream instead",
                )
                return
        if qualified in _WALL_CLOCK:
            yield self.emit(
                module,
                node,
                "RL102",
                f"call to {qualified}(); use simulated time from the "
                "engine (time.perf_counter is allowed for benchmarks)",
            )
            return
        if qualified.startswith(_OS_ENTROPY_PREFIXES):
            yield self.emit(
                module,
                node,
                "RL103",
                f"call to {qualified}(); OS entropy is not reproducible "
                "from the root seed",
            )
            return
        if qualified in _CPU_TOPOLOGY:
            yield self.emit(
                module,
                node,
                "RL107",
                f"call to {qualified}(); take an explicit worker count "
                "from configuration — host CPU topology must never "
                "influence results",
            )
            return
        # RL104: list(set(...)) and friends materialise hash order.
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id in _ORDER_SENSITIVE_WRAPPERS
            and node.args
        ):
            yield from self._check_iteration(module, node.args[0])

    # -- RL104 ---------------------------------------------------------
    def _check_iteration(
        self, module: ParsedModule, iterable: ast.expr
    ) -> Iterator[Diagnostic]:
        if self._is_set_expression(iterable):
            yield self.emit(
                module,
                iterable,
                "RL104",
                "iterating a set in an order-sensitive position; "
                "wrap it in sorted() so the order is deterministic",
            )

    # -- RL106 ---------------------------------------------------------
    def _check_node_loop(
        self, module: ParsedModule, target: ast.expr, iterable: ast.expr
    ) -> Iterator[Diagnostic]:
        if _mentions_node(iterable) or _mentions_node(target):
            yield self.emit(
                module,
                iterable,
                "RL106",
                "per-node Python loop in a hot-path module; batch this "
                "through the vector engine (or move it to the object "
                "reference engine)",
            )

    # -- RL108 ---------------------------------------------------------
    def _check_draws_in_loops(self, module: ParsedModule) -> Iterator[Diagnostic]:
        seen: set[int] = set()  # a draw under nested loops reports once
        for loop in ast.walk(module.tree):
            if not isinstance(loop, _LOOPS):
                continue
            for call in _calls_within(_repeated_parts(loop)):
                func = call.func
                if (
                    id(call) in seen
                    or not isinstance(func, ast.Attribute)
                    or func.attr not in _GENERATOR_DRAWS
                    or not _is_generator(func.value)
                ):
                    continue
                seen.add(id(call))
                yield self.emit(
                    module,
                    call,
                    "RL108",
                    f"Generator.{func.attr}() inside a loop in a hot-path "
                    "module; draw the whole batch once and slice it",
                )

    @staticmethod
    def _is_set_expression(node: ast.expr) -> bool:
        if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _SET_PRODUCERS:
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_METHODS
                and DeterminismChecker._is_set_expression(func.value)
            ):
                return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return DeterminismChecker._is_set_expression(
                node.left
            ) or DeterminismChecker._is_set_expression(node.right)
        return False
