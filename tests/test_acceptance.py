"""Acceptance criteria, one test per check registered with ``@criterion``.

Each run prints its own pass/fail line (visible with ``pytest -s``) and
enforces the criterion's time budget.  All equalities are exact.
"""

from fractions import Fraction

import pytest

from sumkit import catalog, checks, hurwitz, severi

BUDGETS = {
    "severi-kontsevich": 10.0,
    "smooth-curves": 1.0,
    "hurwitz-oracle": 60.0,
    "cut-join-residual": 10.0,
    "elliptic-surface": 5.0,
    "scattering-algebra": 30.0,
    "convolution-routes": 30.0,
    "catalog-consistency": 5.0,
    "series-core": 30.0,
}


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}  {result.name}  ({result.seconds:.2f}s)  {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"
    budget = BUDGETS[result.name]
    assert result.seconds < budget, \
        f"{result.name} took {result.seconds:.2f}s, budget {budget}s"


@pytest.mark.parametrize("check", checks.ALL_CHECKS,
                         ids=lambda check: check.name)
def test_criterion(check):
    _report(check())


def _assert_budgets_match(registry):
    names = sorted(check.name for check in registry)
    assert names == sorted(BUDGETS), \
        f"criteria {names} and budgets {sorted(BUDGETS)} differ"


def test_every_criterion_has_exactly_one_budget():
    _assert_budgets_match(checks.ALL_CHECKS)


def test_a_criterion_without_a_budget_fails(monkeypatch):
    monkeypatch.setattr(checks, "ALL_CHECKS", checks.ALL_CHECKS)

    @checks.criterion("unbudgeted")
    def check_unbudgeted():
        return "fine"

    assert checks.ALL_CHECKS[-1] is check_unbudgeted
    assert check_unbudgeted().detail == "fine"
    with pytest.raises(AssertionError, match="differ"):
        _assert_budgets_match(checks.ALL_CHECKS)


def test_a_budget_without_a_criterion_fails():
    with pytest.raises(AssertionError, match="differ"):
        _assert_budgets_match(checks.ALL_CHECKS[1:])


def test_catalog_consistency_fails_on_a_corrupted_ruled_value(monkeypatch):
    ruled_rel = catalog.ruled_rel

    def corrupted(n, a, b, g, *args, **kwargs):
        if (a, g) == (1, 1):  # the genus-one section class
            return Fraction(1)
        return ruled_rel(n, a, b, g, *args, **kwargs)

    monkeypatch.setattr(catalog, "ruled_rel", corrupted)
    result = checks.check_catalog()
    assert not result.passed and "(1, 1, 1)" in result.detail


def test_cut_join_residual_fails_on_a_doubled_hurwitz_number(monkeypatch):
    hurwitz_number = hurwitz.hurwitz_number

    def doubled(d, g, alpha):
        value = hurwitz_number(d, g, alpha)
        return 2 * value if (d, g, tuple(alpha)) == (3, 0, (2, 1)) else value

    monkeypatch.setattr(hurwitz, "hurwitz_number", doubled)
    result = checks.check_cut_join_residual()
    assert not result.passed and "-4/3 z3^1 u^3" in result.detail


@pytest.mark.parametrize("name", [
    "scattering-algebra", "convolution-routes", "catalog-consistency"])
def test_gluing_checks_fail_on_a_doubled_glue_weight(name,
                                                     doubled_glue_weight):
    check, = [check for check in checks.ALL_CHECKS if check.name == name]
    assert not check().passed


@pytest.fixture
def fresh_severi_memo():
    """Clear the Severi memo before and after a test."""
    severi.tw_value.cache_clear()
    yield
    severi.tw_value.cache_clear()


def test_severi_kontsevich_fails_on_a_doubled_tangency_weight(
        monkeypatch, fresh_severi_memo):
    order_product = severi._order_product

    def doubled(v):
        value = order_product(v)
        # the weight of one smoothed tangency of order 2
        return 2 * value if v == (0, 1) else value

    monkeypatch.setattr(severi, "_order_product", doubled)
    result = checks.check_severi_kontsevich()
    assert not result.passed
    assert "[1, 1, 16, 1108, 182312] != [1, 1, 12, 620, 87304]" \
        in result.detail
    # the smooth counts never smooth a tangency
    assert checks.check_smooth_curves().passed
