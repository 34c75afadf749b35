"""Per-layer metrics: the names reported by a traced run and how to fill them."""

from __future__ import annotations

from collections import defaultdict

from sumbench.tracer import Tracer

# (metric name, unit); the same list, in the same order, is in BENCHMARK.json
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("series.mul.calls", "count"),
    ("series.mul.self_s", "s"),
    ("series.mul.terms_out", "count"),
    ("series.differentiate.self_s", "s"),
    ("series.max_coeff_bits", "bits"),
    ("contacts.enumerate_multisets.calls", "count"),
    ("contacts.enumerate_multisets.self_s", "s"),
    ("contacts.enumerate_multisets.memo_size", "count"),
    ("contacts.dual_multiset.calls", "count"),
    ("contacts.dual_multiset.self_s", "s"),
    ("contacts.dual_multiset.memo_size", "count"),
    ("gluing.convolve.calls", "count"),
    ("gluing.convolve.self_s", "s"),
    ("gluing.convolve.terms_out", "count"),
    ("gluing.convolve.yield", "ratio"),
    ("gluing.relseries_init.calls", "count"),
    ("gluing.relseries_init.self_s", "s"),
    ("gluing.s_matrix.self_s", "s"),
    ("gluing.neck_identity.self_s", "s"),
    ("gluing.disjoint_mul.self_s", "s"),
    ("gluing.tw_from_gw.self_s", "s"),
    ("gluing.gw_from_tw.self_s", "s"),
    ("gluing.identity_element.self_s", "s"),
    ("gluing.max_terms_out", "count"),
    ("severi.severi_number.calls", "count"),
    ("severi.severi_number.self_s", "s"),
    ("severi.severi_table.calls", "count"),
    ("severi.severi_table.self_s", "s"),
    ("catalog.producer.self_s", "s"),
    ("elliptic.f0_product.self_s", "s"),
    ("elliptic.f0_via_ode.self_s", "s"),
    ("elliptic.genus1.self_s", "s"),
    ("elliptic.lsplit_suite.self_s", "s"),
    ("elliptic.fg.self_s", "s"),
    ("hurwitz.table_build.calls", "count"),
    ("hurwitz.table_build.self_s", "s"),
    ("hurwitz.hurwitz_number.self_s", "s"),
    ("oracles.hurwitz_oracle.self_s", "s"),
    ("oracles.kontsevich_oracle.self_s", "s"),
    ("oracles.divisor_sum.calls", "count"),
    ("oracles.divisor_sum.engine_calls", "count"),
    ("oracles.branch_count_rh.engine_calls", "count"),
    ("cli.import_s", "s"),
    ("cli.startup_s", "s"),
    ("cli.cache_load.calls", "count"),
    ("cli.cache_load.self_s", "s"),
    ("cli.cache_store.calls", "count"),
    ("cli.cache_store.self_s", "s"),
    ("cli.cache_bytes", "bytes"),
    ("cli.cache_hit_ratio", "ratio"),
    ("trace.ops_per_s", "1/s"),
    ("trace.self_share", "ratio"),
)


class LayerTotals:
    """Sums of span calls, self times and counters, mergeable across processes."""

    def __init__(self):
        self.calls: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)

    def add_tracer(self, tracer: Tracer) -> None:
        self.merge({"calls": tracer.calls, "self_s": tracer.self_s,
                    "counters": tracer.counters, "maxima": tracer.maxima})

    def merge(self, data: dict) -> None:
        for table in ("calls", "self_s", "counters"):
            target = getattr(self, table)
            for key, value in data.get(table, {}).items():
                target[key] += value
        for key, value in data.get("maxima", {}).items():
            self.maxima[key] = max(self.maxima[key], value)

    def layer_self_sum(self) -> float:
        """Summed self time of every span, the tracer's own counting excluded."""
        return sum(v for k, v in self.self_s.items()
                   if not k.startswith("_tracer."))

    def metrics(self, extra: dict[str, float]) -> dict[str, float]:
        """Every per-layer metric; ``extra`` supplies those not from spans."""
        calls, self_s = self.calls, self.self_s
        out: dict[str, float] = {}
        for name, _unit in PER_LAYER:
            if name in extra:
                out[name] = extra[name]
                continue
            layer, _, stat = name.rpartition(".")
            if stat == "calls":
                out[name] = calls.get(layer, 0) \
                    + calls.get(layer + "@engine", 0)
            elif stat == "engine_calls":
                out[name] = calls.get(layer + "@engine", 0)
            elif stat == "self_s":
                out[name] = self_s.get(layer, 0.0)
            elif stat == "yield":
                pairs = self.counters.get(layer + ".pairs", 0)
                out[name] = (self.counters.get(layer + ".terms_out", 0)
                             / pairs) if pairs else 0.0
            elif name in self.counters:
                out[name] = self.counters[name]
            else:
                out[name] = self.maxima.get(name, 0)
        return out
