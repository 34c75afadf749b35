"""The truncated-table policy that Series and RelSeries share through
``series.GradedTable``, checked once on each type."""

import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sumkit import series
from sumkit.contacts import ContactMultiset
from sumkit.gluing import (
    GluingError,
    RelKey,
    RelSeries,
    gw_from_tw,
    riemann_surface_geometry,
)
from sumkit.series import (
    ContextMismatch,
    CutoffExceeded,
    GradedTable,
    Series,
    SeriesError,
    VariableContext,
    add_ratio,
    linear_combination,
    reduced_sums,
)


def _series():
    """A Series with terms of grade 1 to 4, one over another context, the
    grade of a key and the type's errors."""
    c = VariableContext("t", ("lam", 0, True))
    x = Series(c, 4, {(1, 0): 2, (2, -2): Fraction(1, 3), (3, 2): -1,
                      (4, 0): 5})
    other = Series(VariableContext("s", ("lam", 0, True)), 4, {(1, 0): 1})
    return x, other, lambda e: e[0], SeriesError, ContextMismatch


def _relseries():
    """The same for a two-ended RelSeries; ``other`` has one end."""
    geo = riemann_surface_geometry()

    def key(a, ends):
        return RelKey((a,), 2, (ContactMultiset([((a, 0), 1)]),) * ends)

    x = RelSeries(geo, 2, 4, {key(1, 2): 2, key(2, 2): Fraction(1, 3),
                              key(3, 2): -1, key(4, 2): 5})
    other = RelSeries(geo, 1, 4, {key(1, 1): 1})
    return x, other, lambda k: k.class_key[0], GluingError, GluingError


@pytest.fixture(params=[_series, _relseries], ids=["Series", "RelSeries"])
def table(request):
    return request.param()


def _key(x, grade):
    """A well-formed key of ``grade >= 1`` for the table ``x``: of the
    shape of the fixture's keys."""
    if isinstance(x, Series):
        return (grade, 0)
    return RelKey((grade,), 2, (ContactMultiset([((grade, 0), 1)]),) * 2)


def _malformed_keys(x):
    """Keys that the type of ``x`` rejects, each for a different reason."""
    if isinstance(x, Series):
        return [(1,), (1, 0, 0), (1.0, 0), (-1, 0)]
    one = ContactMultiset([((1, 0), 1)])
    return [(1,), RelKey((1,), 2, (one,)),
            RelKey((1,), 2, (ContactMultiset([((2, 0), 1)]), one)),
            RelKey((1,), 2, (one, ContactMultiset([((1, 1), 1)]))),
            RelKey((1, 0), 2, (one, one))]


def _coefficient(x, key):
    """``x.coefficient`` of ``key``; a Series takes ``{name: exponent}``."""
    if isinstance(x, Series):
        return x.coefficient(dict(zip(x.context.names, key)))
    return x.coefficient(key)


def _log(x):
    return x.log() if isinstance(x, Series) else gw_from_tw(x)


def _reference(pairs, grade):
    """``sum c * t`` on plain dicts of Fractions, trimmed to the least
    cutoff and without zeros: the cutoff and the terms."""
    cutoff = min(t.cutoff for _, t in pairs)
    out = {}
    for c, t in pairs:
        for k, v in t.terms.items():
            if grade(k) <= cutoff:
                out[k] = out.get(k, Fraction(0)) + Fraction(c) * v
    return cutoff, {k: v for k, v in out.items() if v}


def _cancelling_product(kind):
    """Two tables whose product cancels on one key, their product and the
    product written out by hand: ``(1 + t)(1 - t) = 1 - t^2``, and the
    disjoint product of ``A + B`` and ``A - B`` for keys that differ only
    in their tag, where ``AB`` and ``BA`` are one key with one weight."""
    if kind == "Series":
        c = VariableContext("t", ("lam", 0, True))
        a = Series(c, 4, {(0, 0): 1, (1, 0): 1})
        b = Series(c, 4, {(0, 0): 1, (1, 0): -1})
        return a, b, Series.__mul__, {(0, 0): 1, (2, 0): -1}
    geo = riemann_surface_geometry()
    one, two = ContactMultiset([((1, 0), 1)]), ContactMultiset([((1, 0), 2)])
    ka, kb = (RelKey((1,), 2, (one, one), tag) for tag in "pq")
    a = RelSeries(geo, 2, 4, {ka: 1, kb: 1})
    b = RelSeries(geo, 2, 4, {ka: 1, kb: -1})
    # each end merges two single points: C(2, 1) ways, on both ends
    return a, b, RelSeries.disjoint_mul, {
        RelKey((2,), 4, (two, two), "p^2"): 4,
        RelKey((2,), 4, (two, two), "q^2"): -4}


class TestGradedTable:
    def test_pickling_goes_through_the_validating_constructor(self, table):
        x, _, _, error, _ = table
        twin = pickle.loads(pickle.dumps(x))
        assert type(twin) is type(x) and twin == x and hash(twin) == hash(x)
        beyond = type(x)._trusted(*x._header(), 3, dict(x.terms))
        with pytest.raises(error, match="term beyond cutoff"):
            pickle.loads(pickle.dumps(beyond))

    def test_a_malformed_key_is_rejected_whatever_its_coefficient(
            self, table):
        x, _, _, error, _ = table
        for key in _malformed_keys(x):
            for c in (0, 1, Fraction(0)):
                with pytest.raises(error):
                    type(x)(*x._header(), x.cutoff, {key: c})
            with pytest.raises(error):  # the lookup under Series' mapping
                GradedTable.coefficient(x, key)

    def test_coefficient_beyond_the_cutoff_is_unknown_not_zero(self, table):
        x = table[0]
        for grade in range(1, x.cutoff + 1):
            key = _key(x, grade)
            assert _coefficient(x, key) == x.terms.get(key, 0)
        for grade in (x.cutoff + 1, x.cutoff + 3):
            with pytest.raises(CutoffExceeded):
                _coefficient(x, _key(x, grade))
        with pytest.raises(CutoffExceeded):
            _coefficient(x.truncate(2), _key(x, 3))

    @pytest.mark.parametrize("c", [0.5, 1.0, 0.0, True, "1/2", None])
    def test_a_coefficient_must_be_an_int_or_a_fraction(self, table, c):
        x, _, _, error, _ = table
        with pytest.raises(error, match="is not an int or a Fraction"):
            type(x)(*x._header(), x.cutoff, {_key(x, 1): c})

    @pytest.mark.parametrize("cutoff", [2.5, 4.0, Fraction(4), True, None])
    def test_the_cutoff_must_be_an_int(self, table, cutoff):
        x, _, _, error, _ = table
        for terms in ({}, {_key(x, 1): 1}):
            with pytest.raises(error, match="is not an int"):
                type(x)(*x._header(), cutoff, terms)

    def test_log_needs_coefficient_one_on_the_empty_key(self, table):
        x, _, _, error, _ = table
        empty = type(x).one(*x._header(), x.cutoff)
        for g in (x, x + empty.scale(2), x - empty, x.scale(0)):
            with pytest.raises(error, match="coefficient 1 on the empty key"):
                _log(g)
        assert _log(empty).is_zero()

    def test_assignment_raises(self, table):
        x = table[0]
        for name in (*x._HEADER, "cutoff", "terms"):
            with pytest.raises(AttributeError):
                setattr(x, name, getattr(x, name))

    def test_hash_is_kept_once_and_never_inherited(self, table):
        x = table[0]

        def twin(t):
            return type(t)(*t._header(), t.cutoff, dict(t.terms))

        for first in (0, 1):
            pair = [twin(x), twin(x)]
            assert hash(pair[first]) == hash(pair[1 - first])
        hash(x)
        round_trip = pickle.loads(pickle.dumps(x))
        with pytest.raises(AttributeError):
            round_trip._hash
        assert hash(round_trip) == hash(x)
        for derived in (x.scale(2), x + x):
            assert derived == twin(derived) and hash(derived) != hash(x)
            assert hash(derived) == hash(twin(derived))
        for t in (twin(x), x):  # not yet hashed, and hashed
            with pytest.raises(AttributeError):
                t._hash = 0
        assert hash(x) == hash(twin(x))

    def test_cancelled_and_zero_scaled_tables_store_no_terms(self, table):
        x = table[0]
        for empty in (x - x, x.scale(0), x + x.scale(-1)):
            assert not empty.terms and empty.cutoff == x.cutoff
            assert empty.is_zero() and not empty
        # the sum keeps the lower cutoff, where every term cancels
        trimmed = x - x.truncate(2)
        assert not trimmed.terms and trimmed.cutoff == 2

    def test_series_never_equals_a_relseries(self):
        s, r = _series()[0], _relseries()[0]
        assert s != r and r != s
        assert s.scale(0) != r.scale(0) and r.scale(0) != s.scale(0)

    def test_different_headers_raise_the_mismatch_error(self, table):
        x, other, _, _, mismatch = table
        for a, b in ((x, other), (other, x)):
            with pytest.raises(mismatch):
                a + b
            with pytest.raises(mismatch):
                a - b
        foreign = (_relseries() if type(x) is Series else _series())[0]
        with pytest.raises(mismatch):
            x + foreign

    def test_truncate_drops_exactly_the_terms_above_the_cutoff(self, table):
        x, _, grade, error, _ = table
        for cutoff in range(5):
            cut = x.truncate(cutoff)
            assert cut.cutoff == cutoff
            assert dict(cut.terms) == {k: c for k, c in x.terms.items()
                                       if grade(k) <= cutoff}
        with pytest.raises(error, match="cannot raise a cutoff"):
            x.truncate(5)

    def test_linear_combination_equals_the_scale_and_add_chain(self, table):
        x, _, grade, _, _ = table
        rng = random.Random(12)
        keys = list(x.terms)
        for _ in range(60):
            pairs = []
            for _ in range(rng.randint(1, 5)):
                cutoff = rng.randint(1, 4)  # cutoffs differ between tables
                terms = {k: Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                         for k in rng.sample(keys, rng.randint(0, 4))
                         if grade(k) <= cutoff}
                c = rng.choice([rng.randint(-3, 3),
                                Fraction(rng.randint(-3, 3), rng.randint(1, 4))])
                pairs.append((c, type(x)(*x._header(), cutoff, terms)))
            chain = pairs[0][1].scale(pairs[0][0])
            for c, t in pairs[1:]:
                chain = chain + t.scale(c)
            got = linear_combination(pairs)
            assert got == chain and got.cutoff == chain.cutoff
            assert all(type(v) is Fraction and v for v in got.terms.values())

    def test_linear_combination_stores_no_zero_sum(self, table):
        x = table[0]
        for pairs in ([(1, x), (-1, x)], [(0, x)],
                      [(Fraction(1, 2), x), (0, x), (Fraction(-1, 2), x)]):
            empty = linear_combination(pairs)
            assert not empty.terms and empty.cutoff == x.cutoff
        # the lower cutoff wins, and every term up to it cancels
        trimmed = linear_combination([(1, x), (-1, x.truncate(2))])
        assert not trimmed.terms and trimmed.cutoff == 2

    def test_linear_combination_adds_over_different_denominators(self, table):
        x = table[0]
        key = next(iter(x.terms))

        def single(c):
            return type(x)(*x._header(), x.cutoff, {key: c})

        halves = [(1, single(Fraction(1, 2))), (1, single(Fraction(1, 3)))]
        scaled = [(Fraction(1, 2), single(1)), (Fraction(1, 3), single(1))]
        for pairs in (halves, scaled):
            got = linear_combination(pairs)
            assert dict(got.terms) == {key: Fraction(5, 6)}

    def test_linear_combination_of_different_headers_raises(self, table):
        x, other, _, _, mismatch = table
        foreign = (_relseries() if type(x) is Series else _series())[0]
        for pairs in ([(1, x), (1, other)], [(1, other), (2, x)],
                      [(1, x), (0, foreign)]):
            with pytest.raises(mismatch):
                linear_combination(pairs)
        with pytest.raises(ValueError, match="at least one table"):
            linear_combination([])

    def test_sums_and_scalings_match_a_dict_reference(self, table):
        x, _, grade, _, _ = table
        rng = random.Random(14)
        keys = list(x.terms)

        def draw():
            cutoff = rng.randint(1, 4)
            return type(x)(*x._header(), cutoff, {
                k: Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                for k in rng.sample(keys, rng.randint(0, 4))
                if grade(k) <= cutoff})

        def coefficient():
            return rng.choice([0, 1, -1, rng.randint(-3, 3),
                               Fraction(rng.randint(-3, 3), rng.randint(1, 4))])

        for _ in range(80):
            a, b = draw(), draw()
            c = coefficient()
            pairs = [(coefficient(), draw()) for _ in range(rng.randint(1, 4))]
            for got, want in ((a + b, [(1, a), (1, b)]),
                              (a - b, [(1, a), (-1, b)]),
                              (a.scale(c), [(c, a)]),
                              (linear_combination(pairs), pairs)):
                cutoff, terms = _reference(want, grade)
                assert got.cutoff == cutoff and dict(got.terms) == terms
                assert all(type(v) is Fraction for v in got.terms.values())
                assert type(got) is type(x) and got._header() == x._header()
            for empty in (a - a, a.scale(0)):
                assert not empty.terms and empty.cutoff == a.cutoff

    def test_sum_over_two_cutoffs_trims_to_the_least(self, table):
        x, _, grade, _, _ = table
        low = x.truncate(2)
        for got in (x + low, low + x, x - low, low - x,
                    linear_combination([(3, x), (Fraction(1, 2), low)])):
            assert got.cutoff == 2
            assert all(grade(k) <= 2 for k in got.terms)
        assert dict((x + low).terms) == {k: 2 * c for k, c in low.terms.items()}

    def test_whole_table_copy_leaves_its_source_and_trims_the_rest(self, table):
        x, _, grade, _, _ = table
        low = x.truncate(2)
        before = dict(low.terms)
        # low is copied whole (coefficient 1, already at the least cutoff);
        # x is trimmed to it, and a sum on every copied key changes the copy
        pairs = [(1, low), (Fraction(1, 3), x), (-2, x)]
        got = linear_combination(pairs)
        assert (got.cutoff, dict(got.terms)) == _reference(pairs, grade)
        assert dict(low.terms) == before
        assert linear_combination([(1, low), (-1, x)]).is_zero()
        assert dict(low.terms) == before

    def test_int_and_fraction_coefficients_give_equal_tables(self, table):
        x, _, grade, _, _ = table
        low = x.truncate(2)
        for n in (3, -1, 0, 1):
            for pairs in ([(n, x)], [(1, low), (n, x)], [(2, x), (n, low)]):
                as_int = linear_combination(pairs)
                as_fraction = linear_combination(
                    [(Fraction(c), t) for c, t in pairs])
                assert as_int == as_fraction
                assert hash(as_int) == hash(as_fraction)
                assert (as_int.cutoff, dict(as_int.terms)) == \
                    _reference(pairs, grade)
                assert all(type(v) is Fraction for v in as_int.terms.values())

    @pytest.mark.parametrize("minus_one", [-1, Fraction(-1)])
    def test_minus_one_cancels_the_very_same_coefficient_unread(
            self, table, minus_one):
        x = table[0]

        class Unread(Fraction):
            """A coefficient that fails any read of its value."""

            def as_integer_ratio(self):
                raise AssertionError("coefficient read")

            numerator = denominator = property(as_integer_ratio)

        unread = type(x)._trusted(*x._header(), x.cutoff, {
            k: Unread(v) for k, v in x.terms.items()})
        for pairs in ([(1, unread), (minus_one, unread)],
                      [(1, unread), (minus_one, unread), (1, x),
                       (minus_one, x)]):
            assert linear_combination(pairs).is_zero()
        with pytest.raises(AssertionError, match="coefficient read"):
            linear_combination([(1, unread), (3, unread)])

    def test_shared_and_rebuilt_coefficients_cancel_alike(self, table):
        x = table[0]
        # the same values as fresh Fraction objects: no identity to match
        rebuilt = type(x)(*x._header(), x.cutoff, {
            k: Fraction(v.numerator, v.denominator)
            for k, v in x.terms.items()})
        assert all(rebuilt.terms[k] is not v for k, v in x.terms.items())
        for a, b in ((x, x), (x, rebuilt), (rebuilt, x)):
            assert (a - b).is_zero() and (a - b).cutoff == x.cutoff
            # only a coefficient of -1 cancels: a shared object adds
            assert a + b == x.scale(2)
            assert linear_combination([(1, a), (1, b), (-1, a)]) == x
            # a key cancelled once is summed again from zero
            assert linear_combination([(1, a), (-1, b), (2, a)]) == x.scale(2)


@pytest.mark.parametrize("kind", ["Series", "RelSeries"])
def test_a_product_that_cancels_stores_no_key(kind):
    a, b, mul, expected = _cancelling_product(kind)
    product = mul(a, b)
    assert dict(product.terms) == expected
    assert all(type(v) is Fraction and v for v in product.terms.values())
    assert mul(b, a) == product


# -- the interned coefficients of reduced_sums ---------------------------------

# integers far past the memo's bound, of both signs
_BIG = 100 * series._ratio.cache_info().maxsize ** 4


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(
    st.integers(0, 20),
    st.tuples(
        st.lists(st.tuples(st.integers(-_BIG, _BIG), st.integers(1, _BIG)),
                 min_size=1, max_size=4),
        st.booleans()),
    max_size=8))
def test_reduced_sums_is_the_fraction_of_each_sum(streams):
    acc = {}
    expected = {}
    for key, (stream, cancel) in streams.items():
        if cancel:  # every term again with the opposite sign: the sum is 0
            stream = stream + [(-n, d) for n, d in stream]
        for n, d in stream:
            add_ratio(acc, key, n, d)
        total = sum(Fraction(n, d) for n, d in stream)
        if total:
            expected[key] = total
    got = reduced_sums(acc)
    assert got == expected
    assert all(type(v) is Fraction for v in got.values())


def test_reduced_sums_past_the_memo_bound_and_back():
    # more distinct values than the memo holds: each is still its Fraction,
    # and a value the memo dropped is rebuilt equal
    size = series._ratio.cache_info().maxsize + 100
    acc = {k: [2 * k + 1, 6] for k in range(size)}
    first = reduced_sums({k: list(v) for k, v in acc.items()})
    assert first == {k: Fraction(2 * k + 1, 6) for k in range(size)}
    # the newest value is still held; the oldest was dropped and is rebuilt
    newest, oldest = reduced_sums({"new": acc[size - 1], "old": acc[0]}
                                  ).values()
    assert newest is first[size - 1]
    assert oldest == first[0] and oldest is not first[0]


def test_equal_values_built_apart_share_one_object(table):
    x = table[0]
    product = RelSeries.disjoint_mul if isinstance(x, RelSeries) \
        else Series.__mul__
    first, second = product(x, x), product(x, x)
    assert first == second and first.terms
    assert all(second.terms[k] is v for k, v in first.terms.items())
    twin = pickle.loads(pickle.dumps(first))
    assert twin == first and hash(twin) == hash(first)
    # the twin's coefficients are new objects: equality is by value
    assert all(twin.terms[k] is not v for k, v in first.terms.items())
