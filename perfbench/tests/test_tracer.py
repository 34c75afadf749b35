import sys

import pytest

from sumbench import record
from sumbench.tracer import Tracer, install_sumkit, self_times


def test_self_time_of_a_synthetic_span_tree():
    # a [0,10] has children b [1,4] and d [5,9]; b has child c [2,3]
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1),
             ("d", 5.0, 9.0, 0)]
    assert self_times(spans) == {"a": 3.0, "b": 2.0, "c": 1.0, "d": 4.0}


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [("p", 0.0, 10.0, -1), ("x", 2.0, 6.0, 0), ("x", 4.0, 8.0, 0),
             ("y", 9.0, 12.0, 0)]
    # the children cover [2,8] and [9,10] of the parent
    assert self_times(spans)["p"] == pytest.approx(3.0)


def test_same_name_spans_add_up():
    spans = [("r", 0.0, 4.0, -1), ("f", 0.0, 1.0, 0), ("f", 2.0, 3.0, 0)]
    assert self_times(spans) == {"r": 2.0, "f": 2.0}


def test_tracer_fold_with_a_fake_clock():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 10.0, 11.0, 12.0, 20.0])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.begin("op")          # 0
    tracer.begin("f")           # 1
    tracer.begin("g")           # 3
    tracer.end()                # 4
    tracer.end()                # 10
    tracer.begin("g")           # 11
    tracer.end()                # 12
    tracer.end()                # 20
    tracer.fold()
    assert dict(tracer.self_s) == {"op": 10.0, "f": 8.0, "g": 2.0}
    assert dict(tracer.calls) == {"op": 1, "f": 1, "g": 2}
    assert tracer.spans == []


def test_wrapper_closes_its_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("no")

    traced = tracer.wrap(boom, "boom")
    with pytest.raises(ValueError):
        traced()
    tracer.fold()
    assert tracer.calls["boom"] == 1


def _snapshot():
    """Identity of every attribute of every sumkit module and class."""
    import sumkit.cli  # noqa: F401  (load every layer)
    snap = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "sumkit"
                                  or name.startswith("sumkit.")):
            continue
        for attr, value in vars(module).items():
            snap[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    snap[(name, attr, cattr)] = cvalue
    return snap


def test_restore_leaves_every_patched_attribute_identical():
    before = _snapshot()
    tracer = Tracer()
    install_sumkit(tracer)
    sites = tracer.patched_sites
    assert len(sites) > 30
    for owner, attr, original in sites:
        current = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        assert current is not original
    tracer.restore()
    for owner, attr, original in sites:
        current = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        assert current is original, (owner, attr)
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_engine_lookups_of_oracles_are_patched_where_they_are_looked_up():
    from sumkit import elliptic, hurwitz, oracles

    tracer = Tracer()
    install_sumkit(tracer)
    try:
        hurwitz.branch_count(3, 0, (3,))
        elliptic.sigma_series(4)
        oracles.divisor_sum(6)
    finally:
        tracer.restore()
    tracer.fold()
    assert tracer.calls["oracles.branch_count_rh@engine"] == 1
    assert tracer.calls["oracles.divisor_sum@engine"] == 4
    assert tracer.calls["oracles.divisor_sum"] == 1


def test_tail_is_the_eleventh_largest_sample():
    values = list(range(1, 41))
    value, pct = record.tail(values)
    assert value == 30
    assert pct == pytest.approx(75.0)
    assert record.tail([1.0, 2.0]) == (2.0, 100.0)


def test_diff_reports_relative_change():
    old = {"seed": 1, "metrics": {"m": {"value": 2.0, "unit": "s"}}}
    new = {"seed": 2, "metrics": {"m": {"value": 3.0, "unit": "s"}}}
    lines = record.diff(old, new)
    assert "+50.0%" in lines[1]
