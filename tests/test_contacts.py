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
    multiset_binomial,
    multiset_stats,
    partitions,
    seq_stats,
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


class TestSeqStats:
    def test_single_triple_contact(self):
        assert seq_stats([(3, 0)]) == (1, 3, 3)

    def test_empty(self):
        assert seq_stats([]) == (0, 0, 1)

    def test_mixed(self):
        assert seq_stats([(2, 0), (3, 1)]) == (2, 5, 6)

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(ContactError):
            seq_stats([(0, 0)])


class TestMultisetStats:
    def test_triple_double_contact(self):
        m = ContactMultiset([((2, 0), 3)])
        assert multiset_stats(m) == (3, 6, 8, 6)

    def test_empty(self):
        assert multiset_stats(ContactMultiset()) == (0, 0, 1, 1)

    def test_mixed(self):
        m = ContactMultiset([((1, 0), 2), ((3, 0), 1)])
        assert multiset_stats(m) == (3, 5, 3, 2)


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

    def test_singular_pairing_rejected(self):
        with pytest.raises(SingularMatrix):
            dual_multiset(ContactMultiset([((1, 0), 1)]),
                          IntersectionMatrix([[1, 1], [1, 1]]))


class TestGlueWeights:
    def test_length_and_weighted_dual(self):
        q = IntersectionMatrix([[0, 1], [1, Fraction(1, 2)]])
        for m in enumerate_multisets(4, 2):
            length, _, product, fact = multiset_stats(m)
            got_length, duals = glue_weights(m, q)
            assert got_length == length
            assert dict(duals) == {d: Fraction(product, fact) * w
                                   for d, w in dual_multiset(m, q).items()}

    def test_memo_is_filled_through_dual_multiset(self, monkeypatch):
        import sumkit.contacts as contacts
        calls = []
        original = contacts.dual_multiset

        def counting(m, q):
            calls.append(m)
            return original(m, q)

        monkeypatch.setattr(contacts, "dual_multiset", counting)
        q = IntersectionMatrix([[0, 1], [1, Fraction(1, 11)]])  # a fresh key
        m = ContactMultiset([((2, 0), 1), ((1, 1), 2)])
        assert glue_weights(m, q) == glue_weights(m, q)
        assert calls == [m]


class TestProperties:
    def test_stats_multiplicative_over_union(self):
        a = ContactMultiset([((2, 0), 1), ((1, 1), 2)])
        b = ContactMultiset([((2, 0), 2), ((3, 0), 1)])
        la, da, pa, fa = multiset_stats(a)
        lb, db, pb, fb = multiset_stats(b)
        lu, du, pu, fu = multiset_stats(a.union(b))
        assert (lu, du, pu) == (la + lb, da + db, pa * pb)
        # counts merge, so the factorial picks up binomials of merged counts
        assert fu % (fa * fb) == 0

    def test_binomial_of_submultiset(self):
        m = ContactMultiset([((1, 0), 3), ((2, 0), 1)])
        sub = ContactMultiset([((1, 0), 2)])
        assert multiset_binomial(m, sub) == 3
        assert multiset_binomial(sub, m) == 0


class TestStrings:
    def test_canonical_form(self):
        m = ContactMultiset([((3, 0), 1), ((1, 0), 2)])
        assert m.to_string() == "1^2(0) 3^1(0)"
