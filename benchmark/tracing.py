"""Per-layer tracing for the benchmark's traced runs.

The program carries no instrumentation. ``Tracer.install(lib)`` replaces the
library's public functions, on every abscompat module that holds them (for
example ``relations.abs_value`` as well as ``linalg.abs_value``), and the
methods callers reach through its classes, with wrappers that record spans
and counts. ``uninstall`` puts the originals back.

A span's ``time_s`` is its duration; its ``self_s`` is that minus the time its
direct child spans cover. A call made while a span of the same name is open
belongs to that span and opens none (a builder calling a builder is one
build). numpy.linalg decompositions count only while a program span is open,
so the benchmark's own checks never count.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from typing import Any, Callable

import numpy.linalg

STRATEGIES = ("orthogonal", "commuting_diagonal", "conjugated_positive_pair",
              "direct_sum_mix", "random_contraction")
SUITES = ("suite_linalg_invariants", "suite_algebra_products",
          "suite_relation_invariants", "suite_orth_characterization",
          "suite_p00_equivalences", "suite_tripotent_characterization",
          "suite_commutative_crosscheck", "suite_preservers",
          "suite_fuzz_regressions", "suite_classification", "suite_determinism",
          "suite_triplehom_calibration")
TRIPLE_HOM_DIMS = (2, 3, 4, 5, 6)

SPANS = (
    "linalg.abs_value", "linalg.op_norm",
    "relations.compat_defect", "relations.characterizations",
    "relations.commutative_compat_check",
    "sampling.generate_compat_pair",
    "preservers.build", "preservers.apply", "preservers.is_triple_hom",
    "preservers.classify_triple_hom", "preservers.fuzz_counterexample",
    "preservers.preserves_compat_sampled",
    *(f"suites.{name}" for name in SUITES),
    "serialize.load_map", "cli.main",
)
COUNTS = (
    "linalg.as_square_matrix.calls", "linalg.eigh.calls", "linalg.svd.calls",
    "algebra.element_validations.calls",
    *(f"relations.compat_defect.{kind}.calls" for kind in ("domain", "range", "full")),
    "sampling.draws", "sampling.accepts", "sampling.exhaustions",
    *(f"sampling.{s}.{what}" for s in STRATEGIES for what in ("draws", "accepts")),
    "preservers.fuzz.evaluated",
)
PER_LAYER = (
    *(f"{span}.{what}" for span in SPANS for what in ("calls", "time_s", "self_s")),
    *COUNTS,
    "sampling.accept_ratio",
    *(f"preservers.is_triple_hom.M{d}.time_s" for d in TRIPLE_HOM_DIMS),
    "trace.overhead_s",
)


def unit_of(name: str) -> str:
    if name.endswith(("time_s", "self_s", "overhead_s")):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.time_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._stack: list[list] = []  # [name, child seconds, span id]
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def span(self, name: str, fn: Callable, on_exit: Callable | None = None) -> Callable:
        """Wrap ``fn`` in a span; ``on_exit(args, kwargs, result, exc, seconds)``
        may add counts or per-argument times."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._open(name):
                return fn(*args, **kwargs)
            stack = self._stack
            parent = stack[-1][2] if stack else None
            frame = [name, 0.0, len(self.spans)]
            # spans are kept to depth 3; deeper calls still count and time
            keep = len(stack) < 3
            if keep:
                self.spans.append(None)
            stack.append(frame)
            result, exc = None, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                seconds = end - start
                self.calls[name] += 1
                self.time_s[name] += seconds
                self.self_s[name] += seconds - frame[1]
                if stack:
                    stack[-1][1] += seconds
                if keep:
                    self.spans[frame[2]] = (frame[2], parent, name, start, end)
                if on_exit is not None:
                    on_exit(args, kwargs, result, exc, seconds)

        return wrapper

    def counter(self, key: Callable[..., str | None], fn: Callable,
                in_program: bool = False) -> Callable:
        """Wrap ``fn`` to add one to the count ``key(*args, **kwargs)`` names."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not in_program or self._stack:
                name = key(*args, **kwargs)
                if name:
                    self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing --------------------------------------------------------

    def _replace(self, modules, original: Callable, wrapped: Callable) -> None:
        """Point every module attribute that holds ``original`` at ``wrapped``."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapped)

    def _method(self, cls, attr: str, wrapped: Callable) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapped)

    def install(self, lib) -> None:
        modules = [getattr(lib, name) for name in vars(lib)]
        linalg, relations, sampling, preservers = (
            lib.linalg, lib.relations, lib.sampling, lib.preservers)

        def span(name, fn, on_exit=None):
            self._replace(modules, fn, self.span(name, fn, on_exit))

        span("linalg.abs_value", linalg.abs_value)
        span("linalg.op_norm", linalg.op_norm)
        self._replace(modules, linalg.as_square_matrix, self.counter(
            lambda *a, **k: "linalg.as_square_matrix.calls", linalg.as_square_matrix))

        np_linalg = numpy.linalg
        for attr in ("eigh", "eigvalsh", "svd", "norm"):
            original = getattr(np_linalg, attr)
            key = _decomposition_key(attr)
            self._restore.append((np_linalg, attr, original))
            setattr(np_linalg, attr, self.counter(key, original, in_program=True))

        self._method(lib.algebra.AlgebraElement, "__init__", self.counter(
            lambda *a, **k: "algebra.element_validations.calls",
            lib.algebra.AlgebraElement.__init__))

        default_kind = inspect.signature(relations.compat_defect).parameters["kind"].default

        def count_kind(args, kwargs, result, exc, seconds):
            kind = args[2] if len(args) > 2 else kwargs.get("kind", default_kind)
            self.counts[f"relations.compat_defect.{kind.value}.calls"] += 1

        span("relations.compat_defect", relations.compat_defect, count_kind)
        for fn in (relations.check_orth_characterization,
                   relations.check_p00_equivalences,
                   relations.check_tripotent_characterization):
            span("relations.characterizations", fn)
        span("relations.commutative_compat_check", relations.commutative_compat_check)

        self._method(sampling.PairGenerator, "draw", self.counter(
            lambda gen, *a, **k: f"sampling.{gen.strategy.value}.draws",
            sampling.PairGenerator.draw))
        exhausted = lib.errors.GeneratorExhausted

        def count_accept(args, kwargs, result, exc, seconds):
            gen = args[0] if args else kwargs["gen"]
            if exc is None:
                self.counts[f"sampling.{gen.strategy.value}.accepts"] += 1
            elif isinstance(exc, exhausted):
                self.counts["sampling.exhaustions"] += 1

        span("sampling.generate_compat_pair", sampling.generate_compat_pair, count_accept)

        builders = (preservers.build_block_map, preservers.build_star_hom,
                    preservers.build_star_anti_hom, preservers.build_sandwich,
                    preservers.transpose_map, preservers.identity_map,
                    preservers.scale_map, preservers.range_version_adapter)
        for fn in builders:
            span("preservers.build", fn)
        linear_map = preservers.LinearMap
        self._method(linear_map, "__init__", self.span("preservers.build", linear_map.__init__))

        def count_fuzz_images(*args, **kwargs):
            # fuzz_counterexample applies the map to both members of each pair it evaluates
            return "preservers.fuzz.images" if self._open("preservers.fuzz_counterexample") else None

        apply = self.span("preservers.apply", self.counter(count_fuzz_images, linear_map.apply))
        self._method(linear_map, "apply", apply)
        self._method(linear_map, "__call__", apply)

        def time_by_dim(args, kwargs, result, exc, seconds):
            dims = (args[0] if args else kwargs["T"]).domain_shape.block_dims
            if len(dims) == 1:
                self.time_s[f"preservers.is_triple_hom.M{dims[0]}"] += seconds

        span("preservers.is_triple_hom", preservers.is_triple_hom, time_by_dim)
        span("preservers.classify_triple_hom", preservers.classify_triple_hom)
        span("preservers.fuzz_counterexample", preservers.fuzz_counterexample)
        span("preservers.preserves_compat_sampled", preservers.preserves_compat_sampled)

        for name in SUITES:
            if hasattr(lib.suites, name):
                span(f"suites.{name}", getattr(lib.suites, name))
        span("serialize.load_map", lib.serialize.load_map)
        span("cli.main", lib.cli.main)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- reporting ---------------------------------------------------------

    def per_layer(self, overhead_s: float) -> dict[str, float]:
        values: dict[str, float] = {}
        for span in SPANS:
            values[f"{span}.calls"] = self.calls[span]
            values[f"{span}.time_s"] = self.time_s[span]
            values[f"{span}.self_s"] = self.self_s[span]
        counts = Counter(self.counts)
        counts["sampling.draws"] = sum(counts[f"sampling.{s}.draws"] for s in STRATEGIES)
        counts["sampling.accepts"] = sum(counts[f"sampling.{s}.accepts"] for s in STRATEGIES)
        counts["preservers.fuzz.evaluated"] = counts["preservers.fuzz.images"] // 2
        for name in COUNTS:
            values[name] = counts[name]
        draws = counts["sampling.draws"]
        values["sampling.accept_ratio"] = counts["sampling.accepts"] / draws if draws else 0.0
        for d in TRIPLE_HOM_DIMS:
            values[f"preservers.is_triple_hom.M{d}.time_s"] = self.time_s[f"preservers.is_triple_hom.M{d}"]
        values["trace.overhead_s"] = overhead_s
        return {name: values[name] for name in PER_LAYER}


def _decomposition_key(attr: str) -> Callable[..., str | None]:
    if attr in ("eigh", "eigvalsh"):
        return lambda *a, **k: "linalg.eigh.calls"
    if attr == "svd":
        return lambda *a, **k: "linalg.svd.calls"

    def norm_key(x, ord=None, *a, **k):
        # the operator 2-norm of a matrix is one SVD inside numpy
        return "linalg.svd.calls" if ord == 2 and getattr(x, "ndim", 0) >= 2 else None

    return norm_key
