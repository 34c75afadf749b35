"""Acceptance criteria, one test per check registered with ``@criterion``.

Each run prints its own pass/fail line (visible with ``pytest -s``) and
enforces the criterion's time budget.  All equalities are exact.  Every
check also has its committed corruptions in ``CORRUPTIONS``, each of which
it must fail with the detail its row names.
"""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from operator import methodcaller
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from sumkit import catalog, checks, elliptic, hurwitz, severi
from sumkit.series import Series

BUDGETS = {
    "severi-kontsevich": 10.0,
    "severi-nodes": 2.0,
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


def _assert_covers(registry, table):
    """Every registered check has an entry in ``table``, and every entry
    names a registered check."""
    names = sorted(check.name for check in registry)
    entries = sorted(name for name, entry in table.items() if entry)
    assert names == entries, f"criteria {names} and entries {entries} differ"


def test_every_criterion_has_exactly_one_budget():
    _assert_covers(checks.ALL_CHECKS, BUDGETS)


def test_a_criterion_without_a_budget_fails(monkeypatch):
    monkeypatch.setattr(checks, "ALL_CHECKS", checks.ALL_CHECKS)

    @checks.criterion("unbudgeted")
    def check_unbudgeted():
        return "fine"

    assert checks.ALL_CHECKS[-1] is check_unbudgeted
    assert check_unbudgeted().detail == "fine"
    with pytest.raises(AssertionError, match="differ"):
        _assert_covers(checks.ALL_CHECKS, BUDGETS)


def test_a_budget_without_a_criterion_fails():
    with pytest.raises(AssertionError, match="differ"):
        _assert_covers(checks.ALL_CHECKS[1:], BUDGETS)


class Row(NamedTuple):
    """One committed corruption of a check: ``corrupt(request)`` patches an
    engine input or operation, and the failed check reports ``detail``
    (all of it if ``exact``) while every check in ``spares`` still passes."""
    corrupt: Callable
    detail: str
    exact: bool = False
    spares: tuple[str, ...] = ()


def _corrupted(owner, name, change):
    """Pass each value of ``owner.name`` through ``change(value, *args)``."""
    real = getattr(owner, name)
    return lambda request: request.getfixturevalue("monkeypatch").setattr(
        owner, name,
        lambda *args, **kwargs: change(real(*args, **kwargs), *args))


def _doubled(owner, name, at):
    """Double the value of ``owner.name`` where ``at(*args)`` holds."""
    return _corrupted(owner, name,
                      lambda value, *args: 2 * value if at(*args) else value)


def _double_term(series, exponents):
    terms = dict(series.terms)
    terms[exponents] *= 2
    return Series(series.context, series.cutoff, terms)


DOUBLED_HURWITZ_NUMBER = _doubled(
    hurwitz, "hurwitz_number",
    lambda d, g, alpha: (d, g, tuple(alpha)) == (3, 0, (2, 1)))
DOUBLED_GLUE_WEIGHT = methodcaller("getfixturevalue", "doubled_glue_weight")

CORRUPTIONS = {
    "severi-kontsevich": {
        # one smoothed tangency of order 2, which no smooth count smooths
        "doubled-tangency-weight": Row(
            _doubled(severi, "_order_product", lambda v: v == (0, 1)),
            "[1, 1, 16, 1108, 182312] != [1, 1, 12, 620, 87304]",
            spares=("smooth-curves",)),
        # every profile with a contact of order 6 or more: only d >= 6
        "doubled-order-six-weights": Row(
            _doubled(severi, "_order_product", lambda v: len(v) >= 6),
            "rational degrees d=6..10: "),
    },
    "severi-nodes": {
        # the degree-drop term of the curves of degree 7 or more with at
        # most three nodes, which no other check reaches
        "doubled-few-node-shed-line": Row(
            _doubled(severi, "_shed_line", lambda d, chi, alpha, beta:
                     d >= 7 and chi + d * (d - 3) <= 6),
            "AssertionError: node polynomial delta=1, d=7: 216 != 108",
            exact=True, spares=("severi-kontsevich", "smooth-curves")),
    },
    "smooth-curves": {  # one smoothed contact of order 1
        "doubled-order-weight": Row(
            _doubled(severi, "_order_product", lambda v: v == (1,)),
            "AssertionError: severi_number(d, 0) for d=1..4: "
            "[1, 2, 2, 2] != [1, 1, 1, 1]", exact=True),
    },
    "hurwitz-oracle": {"doubled-hurwitz-number": Row(
        DOUBLED_HURWITZ_NUMBER,
        "hurwitz_number(3, 0, (2, 1)) = 8 != "
        "hurwitz_oracle(3, 0, (2, 1)) = 4")},
    "cut-join-residual": {"doubled-hurwitz-number": Row(
        DOUBLED_HURWITZ_NUMBER, "-4/3 z3^1 u^3")},
    "elliptic-surface": {"doubled-sigma-series": Row(
        _doubled(elliptic, "sigma_series", lambda cutoff: True),
        "AssertionError: nonzero residuals: ['genus1-two-routes']",
        exact=True)},
    "scattering-algebra": {"doubled-glue-weight": Row(
        DOUBLED_GLUE_WEIGHT,
        "AssertionError: convolve(s, twf) == unit fails at trial 0",
        exact=True)},
    "convolution-routes": {"doubled-glue-weight": Row(
        DOUBLED_GLUE_WEIGHT,
        "AssertionError: convolve(x, y) == convolve_via_operator(x, y) "
        "fails at trial 1", exact=True)},
    "catalog-consistency": {
        # the genus-one section class
        "corrupted-ruled-value": Row(
            _corrupted(catalog, "ruled_rel", lambda value, n, a, b, g, *_:
                       Fraction(1) if (a, g) == (1, 1) else value),
            "ruled_rel(a=1, b=1, g=1) without a point is nonzero where "
            "vanishing_filter(a, g, 0) is false"),
        "doubled-torus-coefficient": Row(
            _corrupted(catalog, "torus_rel_series", lambda value, cutoff:
                       _double_term(value, value.context.exponents({"t": 6}))),
            "torus t^6: sieve 24 != divisor sum 12"),
        "doubled-glue-weight": Row(
            DOUBLED_GLUE_WEIGHT,
            "AssertionError: self-gluing changed the cover series",
            exact=True),
    },
    "series-core": {"doubled-derivative-coefficient": Row(
        # the least term of every nonzero derivative
        _corrupted(Series, "differentiate", lambda value, *_:
                   _double_term(value, min(value.terms))
                   if value.terms else value),
        "AssertionError: Leibniz rule (a * b)' == a' * b + a * b' "
        "fails at trial 0", exact=True)},
}


def _clear_memos():
    """Clear every ``lru_cache`` memo of the sumkit modules."""
    for name, module in list(sys.modules.items()):
        if name.startswith("sumkit."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def _check(name):
    return next(check for check in checks.ALL_CHECKS if check.name == name)


@pytest.mark.parametrize("name, row", [
    pytest.param(name, row, id=f"{name}-{label}")
    for name, rows in CORRUPTIONS.items() for label, row in rows.items()])
def test_corruption(name, row, request):
    # no memo holds a true value into the row or a corrupted one out of it
    _clear_memos()
    try:
        row.corrupt(request)
        result = _check(name)()
        assert not result.passed
        assert (result.detail == row.detail if row.exact
                else row.detail in result.detail), result.detail
        for spared in row.spares:
            assert _check(spared)().passed, spared
    finally:
        _clear_memos()


def test_every_criterion_has_a_corruption():
    _assert_covers(checks.ALL_CHECKS, CORRUPTIONS)


def test_a_criterion_without_a_corruption_fails(monkeypatch):
    monkeypatch.setattr(checks, "ALL_CHECKS", checks.ALL_CHECKS)
    checks.criterion("uncorrupted")(lambda: "fine")
    with pytest.raises(AssertionError, match="differ"):
        _assert_covers(checks.ALL_CHECKS, CORRUPTIONS)
    with pytest.raises(AssertionError, match="differ"):  # an empty entry
        _assert_covers(checks.ALL_CHECKS[:-1],
                       dict(CORRUPTIONS, **{"series-core": {}}))


def test_a_corruption_without_a_criterion_fails():
    with pytest.raises(AssertionError, match="differ"):
        _assert_covers(checks.ALL_CHECKS[1:], CORRUPTIONS)


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
    assert done.stdout == ("False AssertionError: severi_number(d, 0) for "
                           "d=1..4: [1, 2, 2, 2] != [1, 1, 1, 1]\n")
