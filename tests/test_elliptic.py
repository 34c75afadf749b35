from fractions import Fraction

import pytest

from sumkit.elliptic import (
    f0_product,
    fiber_context,
    f0_via_ode,
    fg,
    genus1_via_fiber_recursion,
    genus1_via_fiber_sum,
    lsplit_suite,
    sigma_series,
)
from sumkit.oracles import divisor_sum
from sumkit.series import Series, SeriesError, geometric_inverse


def series_ring_product(cutoff):
    """``prod_d (1 - t^d)^(-12)`` in the Fraction series ring: the route
    the integer product replaced, kept as its reference."""
    ctx = fiber_context()
    partitions = Series.one(ctx, cutoff)
    for d in range(1, cutoff + 1):
        partitions = partitions * geometric_inverse(ctx, cutoff, {"t": d})
    return partitions ** 12


def t_series(cutoff, coeffs):
    """``sum coeffs[n] t^n`` over the fiber variable."""
    ctx = fiber_context()
    return Series(ctx, cutoff, {ctx.exponents({"t": n}): c
                                for n, c in coeffs.items() if n <= cutoff})


class TestSigmaSeries:
    def test_first(self):
        assert sigma_series(3).coefficient({"t": 1}) == 1

    def test_six(self):
        assert sigma_series(8).coefficient({"t": 6}) == 12

    def test_twelve(self):
        assert sigma_series(12).coefficient({"t": 12}) == 28

    def test_matches_trial_division(self):
        s = sigma_series(40)
        for n in range(1, 41):
            assert s.coefficient({"t": n}) == divisor_sum(n)


class TestGenusZero:
    def test_constant_term(self):
        assert f0_via_ode(5).coefficient({"t": 0}) == 1

    def test_linear_term(self):
        assert f0_via_ode(5).coefficient({"t": 1}) == 12

    def test_product_leading_terms(self):
        f = f0_product(4)
        assert [f.coefficient({"t": n}) for n in range(5)] \
            == [1, 12, 90, 520, 2535]

    def test_recursion_equals_product_to_order_100(self):
        assert f0_via_ode(100) == f0_product(100)

    def test_product_equals_the_series_ring_product(self):
        for n in range(41):
            assert f0_product(n) == series_ring_product(n), n

    def test_inverse_product_is_the_reciprocal(self):
        # prod_d (1 - t^d)^12 in the Fraction series ring
        euler = Series.one(fiber_context(), 60)
        for d in range(1, 61):
            euler = euler * t_series(60, {0: 1, d: -1})
        euler = euler ** 12
        for n in range(61):
            one = f0_product(n) * euler.truncate(n)
            assert one == Series.one(fiber_context(), n), n

    def test_partitions_and_pentagonal_numbers(self):
        # the twelfth power of the partition numbers, and the reciprocal
        # of the twelfth power of Euler's pentagonal series
        partitions = t_series(12, dict(enumerate(
            [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77])))
        assert f0_product(12) == partitions ** 12
        pentagonal = t_series(16, {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1,
                                   15: -1})
        assert f0_product(16) * pentagonal ** 12 \
            == Series.one(fiber_context(), 16)

    def test_coefficients_are_positive_integers(self):
        f = f0_product(60)
        for n in range(61):
            c = f.coefficient({"t": n})
            assert c.denominator == 1 and c > 0


class TestGenusLadder:
    def test_genus_zero_case(self):
        assert fg(0, 20, f0_product(25)) == f0_product(20)

    def test_genus_one_constant_term(self):
        assert fg(1, 10, f0_product(10)).coefficient({"t": 0}) == 1

    def test_genus_two_consistency(self):
        gprime = sigma_series(13).differentiate("t")
        f0 = f0_product(12)
        assert fg(2, 12, f0) == fg(1, 12, f0) * gprime.truncate(12)

    def test_rejects_negative_genus(self):
        with pytest.raises(ValueError):
            fg(-1, 5, f0_product(5))


class TestGenusOneRoutes:
    def test_identities_agree_to_order_100(self):
        f0 = f0_product(101)
        assert genus1_via_fiber_recursion(100, f0) \
            == genus1_via_fiber_sum(100, f0)

    def test_constant_term(self):
        h = genus1_via_fiber_recursion(6, f0_product(7))
        assert h.coefficient({"t": 0}) == Fraction(-1, 12)

    def test_linear_term(self):
        h = genus1_via_fiber_sum(6, f0_product(6))
        assert h.coefficient({"t": 1}) == 1

    def test_denominators_divide_24(self):
        h = genus1_via_fiber_recursion(50, f0_product(51))
        for n in range(51):
            assert 24 % h.coefficient({"t": n}).denominator == 0


class TestSplitSuite:
    def test_residuals_vanish(self):
        residuals = lsplit_suite(3, 40, f0_product(40))
        assert residuals, "empty report"
        for name, series in residuals.items():
            assert series.is_zero(), name

    def test_identity_names_present(self):
        residuals = lsplit_suite(2, 10, f0_product(10))
        assert "fv1-point-vanishes" in residuals
        assert "ladder-g2" in residuals
        assert "closed-form-g1" in residuals
        assert "k3-vanishing-g2" in residuals

    def test_rejects_zero_genus_bound(self):
        with pytest.raises(ValueError):
            lsplit_suite(0, 10, f0_product(10))


class TestSharedGenusZeroSeries:
    def test_identity_residuals_build_the_product_once(self, monkeypatch):
        import sumkit.elliptic as elliptic
        calls = []
        original = elliptic.f0_product

        def counted(cutoff):
            calls.append(cutoff)
            return original(cutoff)

        monkeypatch.setattr(elliptic, "f0_product", counted)
        residuals = elliptic.identity_residuals(3, 30)
        assert calls == [31]
        monkeypatch.undo()
        # the names and order of the suite, each route building its own F0
        routes = {"recursion-vs-product": f0_via_ode(30) - f0_product(30),
                  "genus1-two-routes":
                  genus1_via_fiber_recursion(30, f0_product(31))
                  - genus1_via_fiber_sum(30, f0_product(30)),
                  **lsplit_suite(3, 30, f0_product(30))}
        assert list(residuals) == list(routes)
        assert residuals == routes

    def test_a_longer_series_given_is_truncated(self):
        f0 = f0_product(25)
        assert fg(2, 20, f0) == fg(2, 20, f0_product(20))
        assert genus1_via_fiber_recursion(20, f0) \
            == genus1_via_fiber_recursion(20, f0_product(21))
        assert genus1_via_fiber_sum(20, f0) \
            == genus1_via_fiber_sum(20, f0_product(20))
        with pytest.raises(SeriesError):
            genus1_via_fiber_recursion(25, f0)
