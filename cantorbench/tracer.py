"""In-process tracer for the benchmark's traced run.

The tracer wraps the public functions of the ``cantorsim`` modules from the
outside: it rebinds every ``cantorsim.*`` module attribute that refers to a
wrapped function (so ``from .x import f`` copies are covered too) and the
loader classmethods of the input types.  Nothing under ``src/`` changes.

Three kinds of wrapper:

* span: records (name, start, end, parent) in memory and counts calls;
* count: counts calls only, for leaf helpers called up to millions of times,
  whose time then stays in the caller's self time;
* yields: for generator functions, counts the items yielded.

Self time of a span is its duration minus the durations of its direct child
spans; single-threaded calls nest, so children never overlap.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

COUNT_ONLY = frozenset({
    "dyadic.lex_compare_padded",
    "dyadic.rational_of_string",
    "dyadic.string_of_rational",
    "streams.approx_string",
    "streams.truncate_pad",
    "streams.parity_projection",
    "complexity.compute_padding",
    "complexity.satisfies_constant",
})

CLASSMETHODS = {
    "complexity": {"PrefixMachine": ("parse", "load")},
    "streams": {"EnumerationScript": ("parse", "load", "from_events")},
    "classes": {"Tree": ("parse", "load")},
}

PICKER_FACTORIES = frozenset({"recipes.odd_ones_picker", "recipes.odd_covering_picker"})

FAMILY_SPANS = frozenset({"coverings.odd_covering_family", "coverings.even_covering_family"})


def _package_modules() -> dict[str, object]:
    return {
        name: mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == "cantorsim" or name.startswith("cantorsim."))
    }


def _targets(modules: dict[str, object]) -> dict[str, object]:
    """Qualified name -> function for every public function to wrap."""
    out: dict[str, object] = {}
    for full, mod in modules.items():
        short = full.rpartition(".")[2]
        if full == "cantorsim" or short in ("scenarios", "errors", "__main__"):
            continue
        if short == "checks":
            names: tuple[str, ...] = ("run_suite",)  # suites are reached through it
        elif short == "cli":
            names = ("main",)
        else:
            names = tuple(getattr(mod, "__all__", ()))
        for name in names:
            fn = getattr(mod, name, None)
            if inspect.isfunction(fn) and fn.__module__ == full:
                out[f"{short}.{name}"] = fn
    return out


class Tracer:
    """Spans and counters for one traced run; ``install`` and ``uninstall``
    bracket the traced region (use ``with tracer:``)."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._names: list[str] = []  # name of each span, readable while it runs
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _current(self) -> str | None:
        top = self._stack[-1]
        return None if top < 0 else self._names[top]

    def _span(self, name: str, fn, after=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        names = self._names
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            sid = len(spans)
            spans.append(None)
            names.append(name)
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent)
            if after is not None:
                result = after(args, kwargs, result)
            return result

        return wrapper

    def _count(self, name: str, fn, after=None):
        counts = self.counts
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _yields(self, name: str, fn):
        counts = self.counts
        key = name + ".yields"
        family_key = "coverings.family.yields"

        def wrapper(*args, **kwargs):
            in_family = self._current() in FAMILY_SPANS

            def gen():
                n = 0
                try:
                    for item in fn(*args, **kwargs):
                        n += 1
                        yield item
                finally:
                    counts[key] += n
                    if in_family:
                        counts[family_key] += n

            return gen()

        return wrapper

    def _after(self, name: str):
        """Extra counters taken from a call's arguments and result."""
        counts = self.counts
        if name == "complexity.k_approx":
            def after(args, kwargs, result):
                counts["complexity.k_approx.programs_scanned"] += len(args[0].programs)
                counts["complexity.k_approx.finite"] += result != math.inf
                return result
            return after
        if name == "streams.lower_cut":
            def after(args, kwargs, result):
                max_len = args[1] if len(args) > 1 else kwargs["max_len"]
                counts["streams.lower_cut.candidates"] += (1 << (max_len + 1)) - 1
                counts["streams.lower_cut.members"] += len(result)
                return result
            return after
        if name in PICKER_FACTORIES:
            def after(args, kwargs, picker):
                def counted(content, attempt):
                    counts["constructions.friedberg_merge.picker_calls"] += 1
                    # every pick starts at attempt 0 and ends at the one value accepted
                    counts["constructions.friedberg_merge.picker_accepted"] += attempt == 0
                    return picker(content, attempt)
                return counted
            return after
        return None

    def _suite_span(self, fn):
        """``run_suite`` recorded as one span per suite, with its case count."""
        wrappers: dict[str, object] = {}
        counts = self.counts

        def wrapper(name, **kwargs):
            if name not in wrappers:
                wrappers[name] = self._span(f"checks.{name}", fn)
            report = wrappers[name](name, **kwargs)
            counts[f"checks.{name}.cases"] += report.cases
            return report

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = _package_modules()
        wrapped: dict[int, object] = {}
        for name, fn in _targets(modules).items():
            if name == "checks.run_suite":
                w = self._suite_span(fn)
            elif inspect.isgeneratorfunction(fn):
                w = self._yields(name, fn)
            elif name in COUNT_ONLY:
                w = self._count(name, fn, self._after(name))
            else:
                w = self._span(name, fn, self._after(name))
            wrapped[id(fn)] = (fn, w)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for short, classes in CLASSMETHODS.items():
            mod = modules[f"cantorsim.{short}"]
            for cls_name, methods in classes.items():
                cls = getattr(mod, cls_name)
                for method in methods:
                    original = cls.__dict__[method]
                    span = self._span(f"{short}.{cls_name}.{method}", original.__func__)
                    self._saved.append((cls, method, original))
                    setattr(cls, method, classmethod(span))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def span_self_times(spans) -> list[float]:
    """Self seconds of each span, in span order."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def self_times(spans) -> dict[str, float]:
    """Self seconds per span name."""
    out: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, span_self_times(spans)):
        out[span[0]] += own
    return dict(out)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counts) -> dict[str, float]:
    """Every per-layer metric the traced run yields, by name."""
    out: dict[str, float] = dict(counts)
    selfs = self_times(spans)
    for name, secs in selfs.items():
        out[f"{name}.self_s"] = secs
    out["oracles.self_s"] = sum(v for k, v in selfs.items() if k.startswith("oracles."))
    out["complexity.k_approx.finite_ratio"] = _ratio(
        counts.get("complexity.k_approx.finite", 0), counts.get("complexity.k_approx.calls", 0))
    out["coverings.family.useful_ratio"] = _ratio(
        counts.get("coverings.odd_covering_family.calls", 0)
        + counts.get("coverings.even_covering_family.calls", 0),
        counts.get("coverings.family.yields", 0))
    out["streams.lower_cut.member_ratio"] = _ratio(
        counts.get("streams.lower_cut.members", 0), counts.get("streams.lower_cut.candidates", 0))
    out["constructions.friedberg_merge.fresh_ratio"] = _ratio(
        counts.get("constructions.friedberg_merge.picker_accepted", 0),
        counts.get("constructions.friedberg_merge.picker_calls", 0))
    return out
