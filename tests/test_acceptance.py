"""Acceptance criteria, one test per check registered with ``@criterion``.

Each run prints its own pass/fail line (visible with ``pytest -s``) and
enforces the criterion's time budget.  All equalities are exact.
"""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from sumkit import catalog, checks, elliptic, hurwitz, severi
from sumkit.series import Series

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
    result = checks.check_hurwitz_oracle()
    assert not result.passed
    assert "(3, 0, (2, 1), Fraction(8, 1), Fraction(4, 1))" in result.detail


def test_catalog_consistency_fails_on_a_doubled_torus_coefficient(
        monkeypatch):
    torus_rel_series = catalog.torus_rel_series

    def doubled(cutoff):
        series = torus_rel_series(cutoff)
        terms = dict(series.terms)
        key = series.context.exponents({"t": 6})
        terms[key] *= 2
        return Series(series.context, series.cutoff, terms)

    monkeypatch.setattr(catalog, "torus_rel_series", doubled)
    result = checks.check_catalog()
    assert not result.passed
    assert "torus t^6: sieve 24 != divisor sum 12" in result.detail


def test_series_core_fails_on_a_doubled_derivative_coefficient(monkeypatch):
    differentiate = Series.differentiate

    def doubled(self, name):
        derivative = differentiate(self, name)
        if not derivative.terms:
            return derivative
        terms = dict(derivative.terms)
        terms[min(terms)] *= 2
        return Series(derivative.context, derivative.cutoff, terms)

    monkeypatch.setattr(Series, "differentiate", doubled)
    assert not checks.check_series_core().passed


def test_elliptic_surface_fails_on_a_doubled_sigma_series(monkeypatch):
    sigma_series = elliptic.sigma_series

    def doubled(cutoff):
        return 2 * sigma_series(cutoff)

    monkeypatch.setattr(elliptic, "sigma_series", doubled)
    result = checks.check_elliptic()
    assert not result.passed
    assert result.detail == \
        "AssertionError: nonzero residuals: ['genus1-two-routes']"


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


def test_severi_kontsevich_fails_on_doubled_order_six_weights(
        monkeypatch, fresh_severi_memo):
    order_product = severi._order_product

    def doubled(v):
        value = order_product(v)
        # every profile with a contact of order 6 or more: only d >= 6
        return 2 * value if len(v) >= 6 else value

    monkeypatch.setattr(severi, "_order_product", doubled)
    result = checks.check_severi_kontsevich()
    assert not result.passed
    assert "rational degrees d=6..10: " in result.detail


def test_smooth_curves_fails_on_a_doubled_order_weight(monkeypatch,
                                                       fresh_severi_memo):
    order_product = severi._order_product

    def doubled(v):
        value = order_product(v)
        # the weight of one smoothed contact of order 1
        return 2 * value if v == (1,) else value

    monkeypatch.setattr(severi, "_order_product", doubled)
    result = checks.check_smooth_curves()
    assert not result.passed
    assert result.detail == "AssertionError: [1, 2, 2, 2]"


def test_a_corrupted_check_fails_under_python_o():
    """``python -O`` strips ``assert`` statements; the identities of the
    checks are raised explicitly, so they still fail there."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = textwrap.dedent("""
        from sumkit import checks, severi
        order_product = severi._order_product
        severi._order_product = lambda v: (
            2 * order_product(v) if v == (1,) else order_product(v))
        result = checks.check_smooth_curves()
        print(result.passed, result.detail)
    """)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False AssertionError: [1, 2, 2, 2]\n"
