import json
import statistics
from pathlib import Path

import pytest

from sumbench import cli_mix, hostspeed, layers, scatter, workloads

ROOT = Path(__file__).resolve().parents[2]

# each per-layer metric and the workload on which it must be nonzero
MAPPED = {
    "series.mul.calls": "cli-cold",
    "series.mul.self_s": "cli-cold",
    "series.mul.terms_out": "cli-cold",
    "series.differentiate.self_s": "cli-cold",
    "series.max_coeff_bits": "cli-cold",
    "contacts.enumerate_multisets.calls": "scatter",
    "contacts.enumerate_multisets.self_s": "scatter",
    "contacts.enumerate_multisets.memo_size": "scatter",
    "contacts.dual_multiset.calls": "scatter",
    "contacts.dual_multiset.self_s": "scatter",
    "contacts.dual_multiset.memo_size": "scatter",
    "gluing.convolve.calls": "scatter",
    "gluing.convolve.self_s": "scatter",
    "gluing.convolve.terms_out": "scatter",
    "gluing.convolve.yield": "scatter",
    "gluing.relseries_init.calls": "scatter",
    "gluing.relseries_init.self_s": "scatter",
    "gluing.s_matrix.self_s": "scatter",
    "gluing.neck_identity.self_s": "scatter",
    "gluing.disjoint_mul.self_s": "scatter",
    "gluing.tw_from_gw.self_s": "scatter",
    "gluing.gw_from_tw.self_s": "scatter",
    "gluing.identity_element.self_s": "scatter",
    "gluing.max_terms_out": "scatter",
    "severi.severi_number.calls": "cli-cold",
    "severi.severi_number.self_s": "cli-cold",
    "severi.severi_table.calls": "cli-cold",
    "severi.severi_table.self_s": "cli-cold",
    "catalog.producer.self_s": "cli-cold",
    "elliptic.f0_product.self_s": "cli-cold",
    "elliptic.f0_via_ode.self_s": "cli-cold",
    "elliptic.genus1.self_s": "cli-cold",
    "elliptic.lsplit_suite.self_s": "cli-cold",
    "elliptic.fg.self_s": "cli-cold",
    "hurwitz.table_build.calls": "cli-cold",
    "hurwitz.table_build.self_s": "cli-cold",
    "hurwitz.hurwitz_number.self_s": "cli-cold",
    "oracles.hurwitz_oracle.self_s": "cli-cold",
    "oracles.kontsevich_oracle.self_s": "cli-cold",
    "oracles.divisor_sum.calls": "cli-cold",
    "oracles.divisor_sum.engine_calls": "cli-cold",
    "oracles.branch_count_rh.engine_calls": "cli-cold",
    "cli.import_s": "cli-warm",
    "cli.startup_s": "cli-warm",
    "cli.cache_load.calls": "cli-warm",
    "cli.cache_load.self_s": "cli-warm",
    "cli.cache_store.calls": "cli-cold",
    "cli.cache_store.self_s": "cli-cold",
    "cli.cache_bytes": "cli-cold",
    "cli.cache_hit_ratio": "cli-warm",
    "trace.ops_per_s": "scatter",
    "trace.self_share": "scatter",
}


def test_per_layer_list_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert declared == list(layers.PER_LAYER)
    assert set(MAPPED) == {name for name, _ in layers.PER_LAYER}


def _traced(name: str, tmp_path: Path, min_ops: int, seed: int = 3):
    workload = workloads.make(name, ROOT)
    work = tmp_path / name
    work.mkdir()
    state = workload.setup(seed, work)
    outcome = workload.run(state, 0.0, trace=True, min_ops=min_ops)
    assert outcome.failures == []
    values = outcome.layers.metrics(dict(
        outcome.extra, **{"trace.ops_per_s": 1.0}))
    return outcome, values


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    return {
        # one block: every op kind
        "scatter": _traced("scatter", tmp, scatter.BLOCK_OPS),
        # one rotation of three passes, so every stratum runs
        "cli-cold": _traced("cli-cold", tmp, 1),
        "cli-warm": _traced("cli-warm", tmp, 1),
    }


def test_every_per_layer_metric_is_nonzero_on_its_workload(traced_runs):
    zero = [(metric, name) for metric, name in MAPPED.items()
            if not traced_runs[name][1][metric]]
    assert zero == []


def test_hit_ratio_is_zero_cold_and_one_warm(traced_runs):
    assert traced_runs["cli-cold"][1]["cli.cache_hit_ratio"] == 0
    assert traced_runs["cli-warm"][1]["cli.cache_hit_ratio"] == 1


def test_summed_self_times_stay_within_wall_time(traced_runs):
    for name, (outcome, values) in traced_runs.items():
        assert 0 < values["trace.self_share"] <= 1, name
        assert outcome.layers.layer_self_sum() <= outcome.wall_s, name


# -- a wrong expected value must show up as a failed op --------------------------

def test_corrupted_unit_makes_scatter_ops_fail():
    state = scatter.setup(5)
    for op in state.ops:
        if op.kind == "inverse":
            op.expected = op.expected.scale(2)
    outcome = workloads.Scatter().run(state, 0.0, trace=False,
                                      min_ops=scatter.BLOCK_OPS)
    assert outcome.attempted == scatter.BLOCK_OPS
    assert len(outcome.failures) == \
        len(scatter.CUTOFFS) * scatter.INVERSE_PER_CUTOFF
    assert len(outcome.failures) / outcome.attempted > 0


def test_corrupted_golden_makes_cli_ops_fail(tmp_path):
    workload = workloads.CliWarm(ROOT)
    state = workload.setup(5, tmp_path)
    first = cli_mix.key(state.requests[0])
    state.verifier.golden = dict(state.verifier.golden)
    state.verifier.golden[first] += " "
    outcome = workload.run(state, 0.0, trace=False, min_ops=1)
    assert outcome.attempted == len(state.requests)
    assert len(outcome.failures) == 1
    assert first in outcome.failures[0] and "golden" in outcome.failures[0]


def test_oracle_catches_a_wrong_value_the_golden_agrees_with():
    req = ("severi", "--degree", "4", "--delta", "3")
    wrong = json.dumps({"value": "621"})
    verifier = cli_mix.Verifier({cli_mix.key(req): wrong})
    assert "oracle 620" in verifier.check(req, 0, wrong)
    right = json.dumps({"value": "620"})
    assert cli_mix.Verifier({cli_mix.key(req): right}).check(req, 0, right) \
        is None


def test_hurwitz_oracle_window():
    verifier = cli_mix.Verifier({})
    small = ("hurwitz", "--degree", "3", "--genus", "0", "--partition", "3")
    big = ("hurwitz", "--degree", "6", "--genus", "0", "--partition", "6")
    assert verifier.oracle_value(small) == "1/1"
    assert verifier.oracle_value(big) is None


def test_nonzero_elliptic_residual_fails():
    req = ("elliptic", "--check", "--genus", "1", "--order", "60")
    rows = json.dumps([{"identity": "a", "zero": True},
                       {"identity": "b", "zero": False}])
    verifier = cli_mix.Verifier({cli_mix.key(req): rows})
    assert "nonzero" in verifier.check(req, 0, rows)


def test_every_request_has_a_golden_output_and_passes_are_distinct():
    golden = cli_mix.load_golden()
    assert set(golden) == {cli_mix.key(r) for r in cli_mix.universe()}
    for seed in range(20):
        drawn = cli_mix.draw_pass(seed)
        assert len(set(drawn)) == len(drawn)
    assert cli_mix.draw_pass(7) == cli_mix.draw_pass(7)
    assert cli_mix.draw_pass(7) != cli_mix.draw_pass(8)


def test_scatter_inputs_depend_only_on_the_seed():
    a, b, c = scatter.setup(4), scatter.setup(4), scatter.setup(9)
    assert [op.x for op in a.ops] == [op.x for op in b.ops]
    assert [op.x for op in a.ops] != [op.x for op in c.ops]


# -- throughput and scaling to the reference host --------------------------------

def test_times_scale_by_the_median_kernel_time_around_them():
    ref = hostspeed.REFERENCE_S
    # the host runs at half speed; one kernel run was disturbed
    kernel = [2 * ref] * 6
    kernel[3] = 9 * ref
    assert hostspeed.scale([1.0, 2.0, 4.0, 6.0, 8.0, 10.0], kernel) \
        == pytest.approx([0.5, 1.0, 2.0, 3.0, 4.0, 5.0])
    assert hostspeed.scale([1.0, 2.0], []) == [1.0, 2.0]
    assert hostspeed.scale([1.0, 2.0], [0.2, 0.2], reference=0.1) \
        == pytest.approx([0.5, 1.0])


def test_setup_times_scale_by_the_child_runs_around_them():
    import run

    ref = hostspeed.CHILD_REFERENCE_S
    # a probe between child runs of 2x and 4x the reference: host at 1/3
    assert run._scaled_setup_s([3.0, 6.0], [2 * ref, 4 * ref, 2 * ref]) \
        == pytest.approx([1.0, 2.0])


def test_throughput_over_summed_op_time_or_the_median_unit():
    out = workloads.Outcome(latencies=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                            failures=["op 0: x"], wall_s=30.0)
    assert out.op_latencies() == out.latencies
    assert out.ops_per_s() == 5 / 21
    out.unit_sizes = [2, 2, 2]    # units of 3, 7 and 11 seconds
    assert out.ops_per_s() == pytest.approx(2 / 7 * 5 / 6)
    out.kernel_s = [2 * hostspeed.REFERENCE_S] * 6
    assert out.op_latencies() == pytest.approx([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    assert out.ops_per_s() == pytest.approx(2 / 3.5 * 5 / 6)


def test_kernel_is_fixed_work():
    assert hostspeed.kernel() == hostspeed.kernel() > 0
    assert hostspeed.measure() > 0
    assert hostspeed.measure_child() > hostspeed.measure()
