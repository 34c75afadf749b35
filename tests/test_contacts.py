import copy
import hashlib
import math
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sumkit.contacts import (
    ContactError,
    ContactMultiset,
    IntersectionMatrix,
    SingularMatrix,
    dual_multiset,
    enumerate_multisets,
    glue_weights,
    multiset_stats,
    partitions,
)


def _dual_combination(comb, q):
    """Linear extension of ``dual_multiset`` to weighted combinations."""
    out = {}
    for m, w in comb.items():
        for m2, w2 in dual_multiset(m, q).items():
            val = out.get(m2, Fraction(0)) + w * w2
            if val:
                out[m2] = val
            else:
                out.pop(m2, None)
    return out


multisets = st.lists(
    st.tuples(st.tuples(st.integers(1, 4), st.integers(0, 2)),
              st.integers(0, 3)),
    max_size=4).map(ContactMultiset)


class TestMultisetStats:
    def test_triple_double_contact(self):
        m = ContactMultiset([((2, 0), 3)])
        assert multiset_stats(m) == (3, 6, 8, 6)

    def test_empty(self):
        assert multiset_stats(ContactMultiset()) == (0, 0, 1, 1)

    def test_mixed(self):
        m = ContactMultiset([((1, 0), 2), ((3, 0), 1)])
        assert multiset_stats(m) == (3, 5, 3, 2)


@pytest.mark.parametrize("counts", [
    [((0, 0), 1)], [((1, -1), 1)], [((1, 0), -1)], [((1.5, 0), 2)],
    [((1, 0.0), 1)], [((1, 0), 2.0)], [((True, 0), 1)]],
    ids=["zero-multiplicity", "negative-index", "negative-count",
         "float-multiplicity", "float-index", "float-count",
         "bool-multiplicity"])
def test_multiset_rejects_a_bad_contact(counts):
    with pytest.raises(ContactError):
        ContactMultiset(counts)


@pytest.mark.parametrize("counts, item", [
    ([(1, 2)], (1, 2)), ([((1, 0),)], ((1, 0),)), (5, 5),
    ([((1, 0), 1), "ab"], "ab"), ([((1, 0), 1, 1)], ((1, 0), 1, 1)),
    ([None], None)],
    ids=["flat-pair", "no-count", "not-iterable", "string", "extra-entry",
         "none"])
def test_a_malformed_item_is_a_contact_error_naming_it(counts, item):
    with pytest.raises(ContactError, match=re.escape(repr(item))):
        ContactMultiset(counts)


class TestEnumerate:
    def test_degree_zero(self):
        assert enumerate_multisets(0, 3) == [ContactMultiset()]

    def test_partitions_of_two(self):
        got = enumerate_multisets(2, 1)
        assert got == sorted([
            ContactMultiset([((1, 0), 2)]),
            ContactMultiset([((2, 0), 1)]),
        ])

    def test_partition_count_three(self):
        assert len(enumerate_multisets(3, 1)) == 3

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 8))
    def test_cardinality_is_partition_count(self, n):
        assert len(enumerate_multisets(n, 1)) == len(list(partitions(n)))

    def test_partitions_keep_the_order_of_the_recursion(self):
        def recursive(n, max_part=None):
            # the recursive enumerator that the one-class view replaced
            if n < 0:
                return
            if n == 0:
                yield ()
                return
            if max_part is None or max_part > n:
                max_part = n
            for first in range(max_part, 0, -1):
                for rest in recursive(n - first, first):
                    yield (first,) + rest

        for n in range(-2, 16):
            assert partitions(n) == list(recursive(n)), n
        assert partitions(3) == [(3,), (2, 1), (1, 1, 1)]

    def test_two_color_count(self):
        # every multiset has a well-formed degree and no duplicates appear
        ms = enumerate_multisets(4, 2)
        assert len(set(ms)) == len(ms)
        assert all(multiset_stats(m)[1] == 4 for m in ms)


class TestDual:
    def test_identity_pairing(self):
        m = ContactMultiset([((2, 0), 1), ((1, 1), 2)])
        assert dual_multiset(m, IntersectionMatrix([[1, 0], [0, 1]])) == {m: 1}

    def test_sphere_pairing_swaps(self):
        m = ContactMultiset([((2, 0), 1)])
        swapped = ContactMultiset([((2, 1), 1)])
        assert dual_multiset(m, IntersectionMatrix.sphere_pairing()) \
            == {swapped: 1}

    def test_dual_of_dual_roundtrip(self):
        q = IntersectionMatrix([[1, 2], [0, 1]])
        m = ContactMultiset([((1, 0), 2), ((2, 1), 1)])
        back = _dual_combination(dual_multiset(m, q), q.inverse())
        assert back == {m: 1}

    def test_involution_for_self_inverse(self):
        q = IntersectionMatrix.sphere_pairing()
        m = ContactMultiset([((1, 0), 1), ((1, 1), 2), ((3, 0), 1)])
        assert _dual_combination(dual_multiset(m, q), q) == {m: 1}

    @pytest.mark.parametrize("rows, error", [
        ([[1, 1], [1, 1]], SingularMatrix), ([[0, 1], [0, 2]], SingularMatrix),
        ([], ContactError)], ids=["singular", "zero-column", "empty"])
    def test_pairing_checked_when_built(self, rows, error):
        with pytest.raises(error):
            IntersectionMatrix(rows)

    def test_singular_pairing_rejected(self):
        with pytest.raises(SingularMatrix):
            dual_multiset(ContactMultiset([((1, 0), 1)]),
                          IntersectionMatrix([[1, 1], [1, 1]]))

    def test_different_labels_cancel_in_the_merge(self):
        # (1,0) -> (1,0) + (1,1) and (1,1) -> (1,0) - (1,1): the two mixed
        # products meet on one multiset with weights +1 and -1
        q = IntersectionMatrix([[1, 1], [1, -1]])
        m = ContactMultiset([((1, 0), 1), ((1, 1), 1)])
        assert dual_multiset(m, q) == {ContactMultiset([((1, 0), 2)]): 1,
                                       ContactMultiset([((1, 1), 2)]): -1}


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


class TestPinnedOutputs:
    """sha256 digests of the enumeration and the dual expansion over fixed
    windows.  Callers draw from the enumeration with ``rng.choice``, so its
    order is pinned with its content."""

    @pytest.mark.parametrize("basis, max_degree, digest", [
        (1, 12,
         "d47361c2aa492bc56296690ffa789dd4574d699e7d868cf7b7fa09b39ef2777e"),
        (2, 12,
         "952fa79c59804650e5307537b52b95974b28f62f00f29f51f5001ee9c80e3fde"),
        (3, 9,
         "f7b229258ea451c25059a15a0cebcc81321a26252d95c414ec279c9160464597"),
    ], ids=["basis1", "basis2", "basis3"])
    def test_enumeration(self, basis, max_degree, digest):
        rows = [[tuple(m) for m in enumerate_multisets(d, basis)]
                for d in range(max_degree + 1)]
        assert _digest(rows) == digest

    @pytest.mark.parametrize("rows, count, digest", [
        ([[1]], 67,
         "f8c5181bdfaaf83a00f922e5f190ebd2b6a0b7a24a0618ff3549acdd1fd24277"),
        ([[0, 1], [1, 0]], 434,
         "62ded9ba0f22cef8ba4fbcb4081cdba30582bbf0f89ac0529630aff3bff469a5"),
        ([[0, 1], [1, Fraction(1, 2)]], 434,
         "b9ec61aafe44206c7ddf53c28f01d33b487d549b73e073bd954c6a85d5e01d94"),
        ([[0, 1], [1, 1]], 434,
         "f6c7e6c0cd0cfb35fa55ff1462e1ec8eeaffa2e87293f730590df0a0dcde2fd4"),
        ([[1, 1, 1], [1, -1, 0], [1, 0, 2]], 1654,
         "951730a0b03d45ca47e44dfbb74c9c6d46140d7b93d0d2cef30882fe9a2d7f09"),
    ], ids=["point", "sphere", "half", "unimodular", "3x3"])
    def test_dual_expansion_through_degree_eight(self, rows, count, digest):
        q = IntersectionMatrix(rows)
        expanded = [[(tuple(m), [(tuple(k), w)
                                 for k, w in dual_multiset(m, q).items()])
                     for m in enumerate_multisets(d, q.size)]
                    for d in range(9)]
        assert sum(map(len, expanded)) == count
        assert _digest(expanded) == digest


class TestGlueWeights:
    def test_length_and_weighted_dual(self):
        q = IntersectionMatrix([[0, 1], [1, Fraction(1, 2)]])
        table = glue_weights(4, q)
        # one entry per multiset of the degree
        assert list(table) == enumerate_multisets(4, 2)
        for m in enumerate_multisets(4, 2):
            length, _, product, fact = multiset_stats(m)
            got_length, duals = table[m]
            assert got_length == length
            assert {d: Fraction(n, den) for d, n, den in duals} == {
                d: Fraction(product, fact) * w
                for d, w in dual_multiset(m, q).items()}
            # each weight is a reduced integer pair with a positive denominator
            for _, n, den in duals:
                assert type(n) is int and type(den) is int and den > 0
                assert math.gcd(n, den) == 1

    def test_memoized_table_is_read_only(self):
        q = IntersectionMatrix.sphere_pairing()
        table = glue_weights(2, q)
        m = ContactMultiset([((2, 0), 1)])
        with pytest.raises(TypeError):
            table[m] = (0, ())
        assert glue_weights(2, q) is table
        assert table[m] == (1, ((ContactMultiset([((2, 1), 1)]), 2, 1),))

    def test_memo_is_filled_through_dual_multiset(self, monkeypatch):
        import sumkit.contacts as contacts
        calls = []
        original = contacts.dual_multiset

        def counting(m, q):
            calls.append(m)
            return original(m, q)

        monkeypatch.setattr(contacts, "dual_multiset", counting)
        q = IntersectionMatrix([[0, 1], [1, Fraction(1, 11)]])  # a fresh key
        assert glue_weights(3, q) == glue_weights(3, q)
        assert calls == enumerate_multisets(3, 2)

    def test_fresh_table_inverts_no_pairing(self, monkeypatch):
        calls = []
        inverse = IntersectionMatrix.inverse

        def counting(q):
            calls.append(q)
            return inverse(q)

        q = IntersectionMatrix([[0, 1], [1, Fraction(1, 13)]])  # a fresh key
        monkeypatch.setattr(IntersectionMatrix, "inverse", counting)
        assert len(glue_weights(6, q)) == len(enumerate_multisets(6, 2))
        assert calls == []


class TestProperties:
    def test_stats_multiplicative_over_union(self):
        a = ContactMultiset([((2, 0), 1), ((1, 1), 2)])
        b = ContactMultiset([((2, 0), 2), ((3, 0), 1)])
        la, da, pa, fa = multiset_stats(a)
        lb, db, pb, fb = multiset_stats(b)
        merged, split = a.merge(b)
        lu, du, pu, fu = multiset_stats(merged)
        assert (lu, du, pu) == (la + lb, da + db, pa * pb)
        # counts merge, so the factorial picks up binomials of merged counts
        assert fu % (fa * fb) == 0
        assert fu == fa * fb * split

    def test_binomial_of_submultiset(self):
        m = ContactMultiset([((1, 0), 3), ((2, 0), 1)])
        sub = ContactMultiset([((1, 0), 2)])
        rest = ContactMultiset([((1, 0), 1), ((2, 0), 1)])
        assert sub.merge(rest) == (m, 3)
        assert rest.merge(sub) == (m, 3)
        # m is not part of sub, so no merge into m gives sub back
        for x in [ContactMultiset()] + enumerate_multisets(2, 1):
            assert m.merge(x)[0] != sub

    @settings(max_examples=60, deadline=None)
    @given(multisets, multisets)
    def test_merge_is_the_union_with_its_split_count(self, a, b):
        merged, split = a.merge(b)
        union = ContactMultiset(tuple(a) + tuple(b))
        assert merged == union and hash(merged) == hash(union)
        assert tuple(merged) == tuple(union)
        assert merged.degree == union.degree == a.degree + b.degree
        counts = dict(tuple(a))
        expected = 1
        for pair, k in tuple(b):
            expected *= math.comb(counts.get(pair, 0) + k, k)
        assert split == expected

    def test_shared_pair_splits_three_ways(self):
        # (1,0)^1 and (1,0)^2: one of three points goes to the first factor
        a = ContactMultiset([((1, 0), 1)])
        b = ContactMultiset([((1, 0), 2)])
        assert a.merge(b) == (ContactMultiset([((1, 0), 3)]), 3)

    @given(multisets)
    def test_degree_is_the_total_multiplicity_and_survives_pickling(self, m):
        assert m.degree == sum(a * n for (a, _), n in tuple(m))
        assert m.degree == multiset_stats(m)[1]
        back = pickle.loads(pickle.dumps(m))
        assert back == m and back.degree == m.degree
        assert hash(back) == hash(m)

    @given(st.lists(multisets, max_size=5))
    def test_multiset_behaves_as_its_canonical_tuple(self, ms):
        for m in ms:
            assert m == tuple(m) and ContactMultiset(tuple(m)) is m
            back = pickle.loads(pickle.dumps(m))
            assert type(back) is ContactMultiset and back.degree == m.degree
            with pytest.raises(AttributeError):
                m.degree = m.degree + 1
            with pytest.raises(AttributeError):
                m.points = 0
        assert [tuple(m) for m in sorted(ms)] == sorted(tuple(m) for m in ms)


    def test_every_construction_returns_the_live_multiset(self):
        m = ContactMultiset([((2, 1), 1), ((1, 0), 2)])
        assert ContactMultiset([((1, 0), 1), ((2, 1), 1), ((1, 0), 1),
                                ((3, 0), 0)]) is m
        assert ContactMultiset(tuple(m)) is m
        assert ContactMultiset([((1, 0), 2)]).merge(
            ContactMultiset([((2, 1), 1)]))[0] is m
        assert ContactMultiset().merge(m)[0] is m
        live = {id(x) for x in enumerate_multisets(4, 2)}
        assert id(m) in live
        q = IntersectionMatrix([[0, 1], [1, Fraction(1, 2)]])
        for x, (_, duals) in glue_weights(4, q).items():
            assert id(x) in live
            for dual, _, _ in duals:
                assert id(dual) in live
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(m, protocol)) is m
        assert copy.copy(m) is m and copy.deepcopy(m) is m

class TestStrings:
    def test_canonical_form(self):
        m = ContactMultiset([((3, 0), 1), ((1, 0), 2)])
        assert m.to_string() == "1^2(0) 3^1(0)"
