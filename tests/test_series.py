import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sumkit.oracles import divisor_sum
from sumkit.series import (
    ContextMismatch,
    CutoffExceeded,
    Series,
    SeriesError,
    VariableContext,
    geometric_inverse,
)


def ctx():
    return VariableContext("t", ("lam", 0, True))


def t_series(cutoff, coeffs):
    c = ctx()
    return Series(c, cutoff, {c.exponents({"t": n}): v
                              for n, v in coeffs.items()})


def sigma_series(cutoff):
    return t_series(cutoff, {n: divisor_sum(n) for n in range(1, cutoff + 1)})


class TestContext:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SeriesError):
            VariableContext("t", "t")

    def test_two_laurent_rejected(self):
        with pytest.raises(SeriesError):
            VariableContext(("a", 0, True), ("b", 0, True))

    def test_laurent_needs_weight_zero(self):
        with pytest.raises(SeriesError):
            VariableContext(("lam", 1, True))

    def test_negative_exponent_only_on_laurent(self):
        c = ctx()
        with pytest.raises(SeriesError):
            Series(c, 5, {c.exponents({"t": -1}): 1})
        Series(c, 5, {c.exponents({"lam": -4}): 1})  # fine

    @pytest.mark.parametrize("exponent", [1.5, 2.0, Fraction(1), True])
    def test_exponent_must_be_an_int(self, exponent):
        # a float exponent would differentiate to a float coefficient
        with pytest.raises(SeriesError, match="is not an int"):
            Series(VariableContext("t"), 3, {(exponent,): 1})

    @pytest.mark.parametrize("weight", [1.5, 1.0, Fraction(1), True])
    def test_weight_must_be_an_int(self, weight):
        # a float weight would grade a key, and so cut a table, by a float
        with pytest.raises(SeriesError, match="is not an int"):
            VariableContext(("t", weight))

    @pytest.mark.parametrize("field", [
        "names", "weights", "laurent_index", "_index"])
    def test_fields_cannot_be_assigned(self, field):
        c = ctx()
        with pytest.raises(AttributeError, match="immutable"):
            setattr(c, field, getattr(c, field))
        assert c == ctx()


class TestAdd:
    def test_cancellation(self):
        a = t_series(10, {0: 1, 1: 1})
        b = t_series(10, {0: -1, 1: 1})
        assert a + b == t_series(10, {1: 2})

    def test_additive_identity(self):
        f = t_series(10, {2: Fraction(3, 7)})
        assert f + Series.zero(ctx(), 10) == f

    def test_divisor_series_doubles(self):
        # sigma(4) = 1 + 2 + 4 = 7, computed by trial division
        g = sigma_series(6)
        assert (g + g).coefficient({"t": 4}) == 14

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatch):
            t_series(5, {1: 1}) + Series.one(VariableContext("s"), 5)


class TestMul:
    def test_difference_of_squares(self):
        one_plus = t_series(10, {0: 1, 1: 1})
        one_minus = t_series(10, {0: 1, 1: -1})
        assert one_plus * one_minus == t_series(10, {0: 1, 2: -1})

    def test_laurent_exponents_add(self):
        c = ctx()
        a = Series.term(c, 10, {"t": 1, "lam": -2})
        b = Series.term(c, 10, {"t": 1, "lam": 2})
        assert a * b == Series.term(c, 10, {"t": 2})

    def test_partition_count(self):
        c = ctx()
        product = Series.one(c, 4)
        for d in range(1, 5):
            product = product * geometric_inverse(c, 4, {"t": d})
        assert product.coefficient({"t": 4}) == 5

    def test_truncation_by_min_cutoff(self):
        a = t_series(10, {6: 1})
        b = t_series(4, {0: 1})
        assert (a * b).cutoff == 4
        assert (a * b).is_zero()


class TestExpLog:
    def test_exp_zero(self):
        assert Series.zero(ctx(), 8).exp() == Series.one(ctx(), 8)

    def test_exp_t_coefficients(self):
        e = t_series(6, {1: 1}).exp()
        assert [e.coefficient({"t": n}) for n in range(4)] == [
            1, 1, Fraction(1, 2), Fraction(1, 6)]

    def test_exp_rejects_grading_zero(self):
        c = ctx()
        with pytest.raises(SeriesError):
            Series.term(c, 5, {"lam": -2}).exp()

    def test_log_one(self):
        assert Series.one(ctx(), 8).log() == Series.zero(ctx(), 8)

    def test_log_geometric(self):
        c = ctx()
        f = geometric_inverse(c, 8, {"t": 1})
        logf = f.log()
        for n in range(1, 9):
            assert logf.coefficient({"t": n}) == Fraction(1, n)

    def test_log_needs_unit_constant(self):
        with pytest.raises(SeriesError):
            t_series(5, {0: 2}).log()

    def test_log_of_twelfth_power_product(self):
        c = ctx()
        product = Series.one(c, 6)
        for d in range(1, 7):
            product = product * geometric_inverse(c, 6, {"t": d})
        f0 = product ** 12
        assert f0.log().coefficient({"t": 1}) == 12


class TestDifferentiate:
    def test_power_rule(self):
        assert t_series(10, {3: 1}).differentiate("t") == t_series(9, {2: 3})

    def test_f0_derivative_at_zero(self):
        c = ctx()
        product = Series.one(c, 4)
        for d in range(1, 5):
            product = product * geometric_inverse(c, 4, {"t": d})
        f0 = product ** 12
        assert f0.differentiate("t").coefficient({"t": 0}) == 12

    def test_unknown_variable(self):
        with pytest.raises(SeriesError):
            t_series(5, {1: 1}).differentiate("x")


class TestCoefficient:
    def test_stored(self):
        f = t_series(10, {0: 1, 2: -1})
        assert f.coefficient({"t": 2}) == -1

    def test_sigma_six(self):
        assert sigma_series(8).coefficient({"t": 6}) == 12

    def test_beyond_cutoff_is_an_error_not_zero(self):
        f = t_series(4, {1: 1})
        with pytest.raises(CutoffExceeded):
            f.coefficient({"t": 5})

    def test_constructor_keeps_a_fraction_and_converts_an_int(self):
        shared = Fraction(3, 4)
        f = t_series(4, {1: shared, 2: 5})
        assert f.terms[ctx().exponents({"t": 1})] is shared
        stored = f.terms[ctx().exponents({"t": 2})]
        assert type(stored) is Fraction and stored == 5


def assert_valid(f):
    """``f`` passes the validating constructor unchanged."""
    again = Series(f.context, f.cutoff, f.terms)
    assert again == f
    assert all(type(c) is Fraction for c in f.terms.values())


class TestTrustedResults:
    """Ring results skip revalidation; they must still pass it."""

    @staticmethod
    def pair():
        c = ctx()
        a = Series(c, 6, {(1, -2): Fraction(1, 2), (3, 0): -3, (0, 1): 2,
                          (6, 0): 1})
        b = Series(c, 4, {(1, -2): Fraction(-1, 2), (2, -1): 5, (0, 0): 1})
        return a, b

    def test_every_operation(self):
        a, b = self.pair()
        positive = Series(a.context, 6, {(1, -1): 1, (2, 2): Fraction(-2, 3)})
        results = [a + b, b + a, a - b, b - a, -a, a * b, b * a, a * 3,
                   3 * a, a * Fraction(2, 3), a.differentiate("t"),
                   a.differentiate("lam"), a.truncate(2), a ** 3, b ** 2,
                   positive.exp(), (positive + 1).log()]
        for f in results:
            assert_valid(f)

    def test_sum_drops_terms_above_the_smaller_cutoff(self):
        a, b = self.pair()
        for f in (a + b, b + a, a - b, b - a):
            assert f.cutoff == 4 and (3, 0) in f.terms
            assert (6, 0) not in f.terms
            assert_valid(f)

    def test_cancellation_to_zero(self):
        a, b = self.pair()
        for f in (a - a, a + (-a), -a + a):
            assert f == Series.zero(a.context, 6)
            assert_valid(f)
        # (1 + t)(1 - t): the t terms cancel
        product = t_series(10, {0: 1, 1: 1}) * t_series(10, {0: 1, 1: -1})
        assert (1, 0) not in product.terms
        assert_valid(product)
        # the lam^-2 terms cancel in the sum
        assert (1, -2) not in (a + b).terms

    def test_scalar_zero_gives_the_zero_series(self):
        a, _ = self.pair()
        for f in (a * 0, 0 * a, a * Fraction(0)):
            assert f == Series.zero(a.context, 6)
            assert_valid(f)

    def test_derivative_in_the_laurent_variable(self):
        c = ctx()
        f = Series(c, 5, {(1, -2): 1, (2, 0): 3})
        d_lam = f.differentiate("lam")
        assert d_lam == Series(c, 5, {(1, -3): -2})
        assert_valid(d_lam)
        d_t = Series(c, 5, {(0, -2): 1, (1, 1): 1}).differentiate("t")
        assert d_t == Series(c, 4, {(0, 1): 1})
        assert_valid(d_t)


class TestImmutability:
    def test_terms_are_read_only(self):
        f = t_series(5, {1: 2})
        with pytest.raises(TypeError):
            f.terms[(2, 0)] = Fraction(1)
        with pytest.raises(AttributeError):
            f.terms.clear()
        for result in (f + f, f * f, f.differentiate("t")):
            with pytest.raises(TypeError):
                del result.terms[next(iter(result.terms))]
        assert f == t_series(5, {1: 2})

    @pytest.mark.parametrize("duplicate", [
        lambda obj: pickle.loads(pickle.dumps(obj)), copy.deepcopy, copy.copy])
    def test_roundtrip_equal_and_hash_equal(self, duplicate):
        f = Series(ctx(), 6, {(1, -2): Fraction(1, 2), (2, 0): -3})
        twin = duplicate(f)
        assert type(twin) is Series
        assert twin == f and hash(twin) == hash(f)
        # the context is immutable, so it is rebuilt through its constructor
        assert twin.context == f.context
        assert twin.context.laurent_index == 1
        assert twin.context.index("lam") == 1

    def test_unpickled_series_is_revalidated(self):
        bad = Series._trusted(ctx(), 1, {(3, 0): Fraction(1)})
        with pytest.raises(SeriesError, match="term beyond cutoff"):
            pickle.loads(pickle.dumps(bad))


def small_series(draw, cutoff=12, unit=False):
    c = ctx()
    n_terms = draw(st.integers(0 if not unit else 1, 5))
    terms = {}
    for _ in range(n_terms):
        t_exp = draw(st.integers(1 if unit else 0, cutoff))
        l_exp = draw(st.integers(-2, 2))
        num = draw(st.integers(-6, 6))
        den = draw(st.integers(1, 6))
        if num:
            terms[c.exponents({"t": t_exp, "lam": l_exp})] = Fraction(num, den)
    return Series(c, cutoff, terms)


series_strategy = st.composite(small_series)()
unit_strategy = st.composite(lambda draw: small_series(draw, unit=True))()


@settings(max_examples=60, deadline=None)
@given(series_strategy, series_strategy, series_strategy)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(series_strategy, series_strategy)
def test_leibniz(a, b):
    lhs = (a * b).differentiate("t")
    rhs = a.differentiate("t") * b.truncate(b.cutoff - 1) \
        + a.truncate(a.cutoff - 1) * b.differentiate("t")
    assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(unit_strategy)
def test_exp_log_roundtrip(f):
    assert f.exp().log() == f
    g = Series.one(f.context, f.cutoff) + f
    assert g.log().exp() == g


@settings(max_examples=40, deadline=None)
@given(series_strategy, series_strategy, st.integers(0, 12))
def test_truncation_is_a_homomorphism(a, b, k):
    assert (a * b).truncate(k) == (a.truncate(k) * b.truncate(k)).truncate(k)
    assert (a + b).truncate(k) == a.truncate(k) + b.truncate(k)


@settings(max_examples=40, deadline=None)
@given(series_strategy, series_strategy, st.integers(-3, 3))
def test_ring_results_pass_the_validating_constructor(a, b, k):
    # a smaller cutoff on one side exercises the grade filter of +
    b = b.truncate(9)
    for f in (a + b, b + a, a - b, b - a, -a, a * b, a * k, k * a,
              a.differentiate("t"), a.differentiate("lam"), a.truncate(5)):
        assert_valid(f)


def test_canonical_text_order():
    c = ctx()
    f = Series(c, 5, {
        c.exponents({"t": 2}): Fraction(1, 3),
        c.exponents({"t": 1, "lam": -2}): -2,
        c.exponents({}): 5,
    })
    assert f.to_text().splitlines() == [
        "5/1", "-2/1 t^1 lam^-2", "1/3 t^2"]
