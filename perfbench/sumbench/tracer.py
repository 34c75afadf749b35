"""Outside-in tracer: wraps sumkit's public functions from the benchmark.

Each wrapped call records a span ``(name, start, end, parent)``.  Spans of
one operation are kept in memory and folded into per-name totals when the
operation ends: a span's *self time* is its duration minus the part of its
interval that its child spans cover.  Wrappers are installed by patching
each name where the engine looks it up (a module global, a class attribute,
or a re-export in another module) and every original is put back by
:meth:`Tracer.restore`.  Nothing in ``sumkit`` itself is edited.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import defaultdict
from typing import Callable, Iterable

Span = tuple[str, float, float, int]  # name, start, end, parent index (-1 = root)

# name of the span that covers the tracer's own counting work
COUNTING = "_tracer.counting"


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per span name: duration minus the union of child intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[name] += (end - start) - covered
    return dict(out)


class Tracer:
    """Span recorder plus the patch table that installs its wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[list] = []  # stack of [name, start, parent, index]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> None:
        parent = self._open[-1][3] if self._open else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))  # filled in by end()
        self._open.append([name, self.clock(), parent, index])
        self.calls[name] += 1

    def end(self) -> None:
        name, start, parent, index = self._open.pop()
        self.spans[index] = (name, start, self.clock(), parent)

    def fold(self) -> None:
        """Add the closed spans' self times to the totals and drop them."""
        if self._open:
            raise RuntimeError("fold() with open spans")
        for name, value in self_times(self.spans).items():
            self.self_s[name] += value
        self.spans.clear()

    def wrap(self, fn: Callable, name: str,
             measure: Callable[["Tracer", tuple, object], None] | None = None
             ) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    tracer.begin(COUNTING)
                    try:
                        measure(tracer, args, result)
                    finally:
                        tracer.end()
                return result
            finally:
                tracer.end()

        return traced

    # -- patching ------------------------------------------------------------

    def patch(self, owner: object, attr: str, wrapper: object) -> None:
        original = _own_attr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def patch_everywhere(self, original: Callable, name: str, measure=None,
                         skip: Iterable[tuple[str, str]] = ()) -> None:
        """Patch every ``sumkit`` module global bound to ``original``.

        ``skip`` lists ``(module, attribute)`` sites patched separately
        under another span name.
        """
        wrapper = self.wrap(original, name, measure)
        skipped = set(skip)
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (mod_name == "sumkit"
                                      or mod_name.startswith("sumkit.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original and (mod_name, attr) not in skipped:
                    self.patch(module, attr, wrapper)

    def restore(self) -> None:
        """Put back every original, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patched_sites(self) -> list[tuple[object, str, object]]:
        return list(self._patches)


def _own_attr(owner: object, attr: str) -> object:
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


# -- the sumkit targets ---------------------------------------------------------

def _bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def _measure_mul(tracer: Tracer, args: tuple, result) -> None:
    terms = result.terms
    tracer.counters["series.mul.terms_out"] += len(terms)
    if terms:
        bits = max(_bits(c) for c in terms.values())
        if bits > tracer.maxima["series.max_coeff_bits"]:
            tracer.maxima["series.max_coeff_bits"] = bits


def _measure_gluing(tracer: Tracer, args: tuple, result) -> None:
    if len(result.terms) > tracer.maxima["gluing.max_terms_out"]:
        tracer.maxima["gluing.max_terms_out"] = len(result.terms)


def _measure_convolve(tracer: Tracer, args: tuple, result) -> None:
    x, y = args[0], args[1]
    tracer.counters["gluing.convolve.terms_out"] += len(result.terms)
    tracer.counters["gluing.convolve.pairs"] += len(x.terms) * len(y.terms)
    _measure_gluing(tracer, args, result)


def install_sumkit(tracer: Tracer) -> None:
    """Wrap the public functions of every sumkit layer."""
    from sumkit import (catalog, cli, contacts, elliptic, gluing, hurwitz,
                        oracles, series, severi)

    mul = series.Series.__dict__["__mul__"]
    traced_mul = tracer.wrap(mul, "series.mul", _measure_mul)
    tracer.patch(series.Series, "__mul__", traced_mul)
    if series.Series.__dict__.get("__rmul__") is mul:
        tracer.patch(series.Series, "__rmul__", traced_mul)
    tracer.patch(series.Series, "differentiate",
                 tracer.wrap(series.Series.differentiate,
                             "series.differentiate"))

    tracer.patch_everywhere(contacts.enumerate_multisets,
                            "contacts.enumerate_multisets")
    tracer.patch_everywhere(contacts.dual_multiset, "contacts.dual_multiset")

    tracer.patch_everywhere(gluing.convolve, "gluing.convolve",
                            _measure_convolve)
    for fn in ("s_matrix", "neck_identity", "tw_from_gw", "gw_from_tw",
               "identity_element"):
        tracer.patch_everywhere(getattr(gluing, fn), f"gluing.{fn}",
                                _measure_gluing)
    rel = gluing.RelSeries
    tracer.patch(rel, "__init__",
                 tracer.wrap(rel.__init__, "gluing.relseries_init"))
    tracer.patch(rel, "disjoint_mul",
                 tracer.wrap(rel.disjoint_mul, "gluing.disjoint_mul"))

    for fn in ("severi_number", "severi_table"):
        tracer.patch_everywhere(getattr(severi, fn), f"severi.{fn}")

    entries = catalog.catalog_entries

    def traced_entries():
        return {key: dataclasses.replace(
                    entry, producer=tracer.wrap(entry.producer,
                                                "catalog.producer"))
                for key, entry in entries().items()}

    tracer.patch(catalog, "catalog_entries", traced_entries)

    for fn in ("f0_product", "f0_via_ode", "lsplit_suite", "fg"):
        tracer.patch_everywhere(getattr(elliptic, fn), f"elliptic.{fn}")
    for fn in ("genus1_via_fiber_recursion", "genus1_via_fiber_sum"):
        tracer.patch_everywhere(getattr(elliptic, fn), "elliptic.genus1")

    cut_join = hurwitz.CutJoinTable
    tracer.patch(cut_join, "__init__",
                 tracer.wrap(cut_join.__init__, "hurwitz.table_build"))
    tracer.patch_everywhere(hurwitz.hurwitz_number, "hurwitz.hurwitz_number")

    # engine-path lookups into oracles get their own span names; a site
    # the engine no longer has is skipped and counts zero calls
    engine_sites = [(elliptic, "divisor_sum", "oracles.divisor_sum@engine"),
                    (hurwitz, "branch_count_rh",
                     "oracles.branch_count_rh@engine")]
    for module, attr, name in engine_sites:
        if hasattr(module, attr):
            tracer.patch(module, attr,
                         tracer.wrap(getattr(module, attr), name))
    skip = [(m.__name__, a) for m, a, _ in engine_sites]
    for fn in ("hurwitz_oracle", "kontsevich_oracle", "divisor_sum"):
        tracer.patch_everywhere(getattr(oracles, fn), f"oracles.{fn}",
                                skip=skip)

    cache = cli.ValueCache
    tracer.patch(cache, "load", tracer.wrap(cache.load, "cli.cache_load"))
    tracer.patch(cache, "store", tracer.wrap(cache.store, "cli.cache_store"))


def memo_sizes() -> dict[str, int]:
    """Entry counts of the contacts memos that expose ``cache_info()``."""
    from sumkit import contacts
    out = {}
    for metric, attr in (("contacts.enumerate_multisets.memo_size",
                          "enumerate_multisets"),
                         ("contacts.dual_multiset.memo_size",
                          "_dual_multiset_cached")):
        info = getattr(getattr(contacts, attr, None), "cache_info", None)
        out[metric] = info().currsize if info else 0
    return out
