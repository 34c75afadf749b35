import hashlib
import json
from fractions import Fraction

import pytest

from sumkit import severi
from sumkit.contacts import partitions
from sumkit.oracles import kontsevich_oracle
from sumkit.profiles import SEVERI_MAX_DEGREE
from sumkit.severi import (
    SeveriError,
    genus,
    order_weight,
    point_count,
    rational_degree,
    severi_number,
    severi_table,
    trim,
    tw_severi,
)


class TestPointCount:
    def test_line_through_two_points(self):
        assert point_count(1, 0, (), (1,)) == 2

    def test_rational_cubic(self):
        assert point_count(3, 0, (), (3,)) == 8

    def test_conic(self):
        assert point_count(2, 0, (), (2,)) == 5

    def test_fixed_contacts_cost_more(self):
        assert point_count(3, 0, (3,), ()) == 5

    def test_negative_signals_empty(self):
        assert point_count(1, 0, (0, 0, 1), ()) < 0


class TestBaseCases:
    def test_line(self):
        assert severi_number(1, 0, (), (1,)) == 1

    def test_line_through_fixed_point(self):
        assert severi_number(1, 0, (1,), ()) == 1

    def test_invalid_profile_is_zero(self):
        assert severi_number(1, 0, (), (2,)) == 0

    def test_negative_genus_is_zero(self):
        assert severi_number(2, 1) == 0


class TestClassicalValues:
    def test_unique_conic(self):
        assert severi_number(2, 0) == 1

    def test_rational_cubics(self):
        assert severi_number(3, 1) == 12

    def test_one_nodal_discriminant_degrees(self):
        # 3(d-1)^2 one-nodal curves; irreducible ones exist from degree 3
        for d in (3, 4, 5):
            assert severi_number(d, 1) == 3 * (d - 1) ** 2
        # for conics the whole discriminant is the reducible line pairs
        assert severi_number(2, 1) == 0
        assert tw_severi(2, 4) == 3

    def test_two_nodal_quartics(self):
        assert severi_number(4, 2) == 225

    def test_rational_quartics(self):
        assert severi_number(4, 3) == 620

    def test_tangent_conics(self):
        assert severi_number(2, 0, (), (0, 1)) == 2

    def test_conic_tangent_at_fixed_point(self):
        assert severi_number(2, 0, (0, 1), ()) == 1

    def test_cubics_with_fixed_collinear_points(self):
        # pencil through 8 points with 3 on a line: 12 minus the double
        # point of the discriminant at the line + conic member
        assert severi_number(3, 1, (3,), ()) == 10


class TestDisconnectedLevel:
    def test_line_pairs(self):
        assert tw_severi(2, 4, (), (2,)) == 3

    def test_cubic_plus_line_configurations(self):
        # 620 irreducible rational quartics plus 55 cubic+line splittings
        assert tw_severi(4, 2, (), (4,)) == 675

    def test_connected_sector_matches(self):
        for d in (1, 2, 3):
            assert tw_severi(d, 2 - 2 * genus(d, 0), (), (d,)) \
                == severi_number(d, 0)


class TestRationalDegrees:
    def test_matches_oracle(self):
        for d in range(1, 6):
            assert rational_degree(d) == kontsevich_oracle(d)

    def test_rejects_bad_degree(self):
        with pytest.raises(SeveriError):
            rational_degree(0)


class TestInvariants:
    def test_values_nonnegative_integers(self):
        for d in range(1, 5):
            for delta in range(0, 4):
                for alpha_w in range(0, d + 1):
                    for alpha_parts in partitions(alpha_w):
                        alpha = _to_profile(alpha_parts)
                        for beta_parts in partitions(d - alpha_w):
                            beta = _to_profile(beta_parts)
                            value = severi_number(d, delta, alpha, beta)
                            assert isinstance(value, int) and value >= 0

    def test_point_count_conserved_along_first_sum(self):
        # the recursion moves exactly one point per step
        d, delta = 3, 1
        g = genus(d, delta)
        r0 = point_count(d, g, (), (3,))
        r1 = point_count(d, g, (1,), (2,))
        assert r1 == r0 - 1

    def test_point_count_conserved_across_degree_drop(self):
        assert point_count(2, 0, (), (2,)) \
            == point_count(3, genus(3, 1), (2,), (1,)) - 1


class TestIrreducible:
    # sha256 of every nonzero connected count at (d, chi, alpha, beta) for
    # d <= 6, one line "d chi alpha beta value" each, as the
    # component-splitting route that preceded the logarithm computed them
    DIGEST_D6 = ("0a40c2bb98a7122cb22fef9d925fbafe"
                 "2bbb54ec78aa62cbe29b8eb64dc34e0e")

    def test_digest_of_every_value_up_to_degree_six(self):
        lines = []
        for d in range(1, 7):
            for w in range(d + 1):
                for a in partitions(w):
                    for b in partitions(d - w):
                        alpha, beta = _to_profile(a), _to_profile(b)
                        for chi in range(-d * d, 2 * d + 1):
                            if chi % 2:
                                continue
                            value = severi_number(
                                d, genus(d, 0) - 1 + chi // 2, alpha, beta)
                            if value:
                                lines.append(f"{d} {chi} {list(alpha)} "
                                             f"{list(beta)} {value}\n")
        assert len(lines) == 1074
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == self.DIGEST_D6

    def test_non_integer_connected_count_raises(self, monkeypatch):
        key = (3, 2, (), (3,))
        monkeypatch.setattr(severi, "connected_counts",
                            lambda *request: {key: Fraction(25, 2)})
        with pytest.raises(SeveriError, match="not an integer"):
            severi_number(3, 1, (), (3,))

    def test_logarithm_cancels_the_disconnected_terms(self):
        # the table of this request holds the 3 line pairs at chi = 4;
        # the logarithm keeps no term with chi > 2
        counts = severi.connected_counts(6, 2, (), (6,))
        assert tw_severi(2, 4, (), (2,)) == 3
        assert all(chi <= 2 for _, chi, _, _ in counts)
        assert counts[6, 2, (), (6,)] == kontsevich_oracle(6)


class TestTable:
    def test_single_row(self):
        rows = severi_table(1, 0)
        assert len(rows) == 1 and rows[0]["value"] == "1"

    def test_includes_smooth_cubic(self):
        rows = severi_table(3, 1)
        smooth = [r for r in rows if r["d"] == 3 and r["delta"] == 0]
        assert smooth[0]["value"] == "1" and smooth[0]["r"] == 9

    def test_includes_rational_quartics(self):
        rows = severi_table(4, 3)
        quartic = [r for r in rows if r["d"] == 4 and r["delta"] == 3]
        assert quartic[0]["value"] == "620"

    def test_bad_bounds(self):
        with pytest.raises(SeveriError):
            severi_table(0, 0)

    # sha256 of json.dumps(rows, sort_keys=True) for severi_table(8, 21),
    # as the partition-based degree-drop sum computed it
    DIGEST_8_21 = ("71aa81910fd3bd9333c7aa9c8253f734"
                   "bf8a67df46e95fc4b02ff498af417810")

    def test_digest_of_the_degree_eight_table(self):
        rows = severi_table(8, 21)
        assert len(rows) == 64
        text = json.dumps(rows, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST_8_21

    # sha256 of json.dumps(rows, sort_keys=True) for severi_table(10, 36),
    # every row up to the CLI's degree limit, as the shed-line sum that
    # built each term inside its innermost loop computed it
    DIGEST_10_36 = ("ac60a5732814e7ee76d008de2b8bba3e"
                    "85564f34c050f79f2c05defbebafe682")

    def test_digest_of_the_table_up_to_the_degree_limit(self):
        rows = severi_table(SEVERI_MAX_DEGREE, 36)
        assert len(rows) == 130
        text = json.dumps(rows, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST_10_36

    def test_recursion_key_space(self):
        # the memo keys the degree-eight table reaches, as the shed-line
        # sum that built each term inside its innermost loop reached them
        severi.tw_value.cache_clear()
        severi_table(8, 21)
        assert severi.tw_value.cache_info().currsize == 5183


class TestKeyTypes:
    # a float or a bool key entry reached the recursion as another key or
    # failed there with a raw TypeError; well-typed invalid keys still give 0
    @pytest.mark.parametrize("call, args", [
        (severi_number, (3, 0.5)),
        (severi_number, (3.0, 1)),
        (severi_number, (3, True)),
        (severi_number, (3, 1, (1.0,), (2,))),
        (severi_number, (3, 1, (), (3.0,))),
        (tw_severi, (3, 2.0)),
        (tw_severi, (3.0, 2)),
        (tw_severi, (3, 2, (), (False, 1.5))),
        (rational_degree, (3.0,)),
        (rational_degree, (True,)),
        (severi_table, (2.0, 1)),
        (severi_table, (2, 1.0)),
    ])
    def test_non_int_entry_raises(self, call, args):
        with pytest.raises(SeveriError, match="Severi keys take ints"):
            call(*args)


@pytest.fixture
def empty_memo():
    memos = (severi.tw_value, severi._shed_terms)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


class TestRecursionDepth:
    # on an empty memo the fill recurses about d^2 frames deep, and a raw
    # RecursionError escaped from d = 25 on
    @pytest.mark.parametrize("call, args", [
        (severi_number, (25, 0)),
        (tw_severi, (25, -550)),
    ])
    def test_too_deep_a_degree_raises_a_severi_error(self, empty_memo,
                                                     call, args):
        with pytest.raises(SeveriError) as error:
            call(*args)
        assert type(error.value) is SeveriError
        assert str(error.value).startswith(
            "degree 25 recurses deeper than the interpreter's recursion "
            "limit of ")


class TestShedTermsMemo:
    # d = 12 is above the CLI's degree limit; at a bound of 1024 its fill
    # evicted shed lines and rebuilt them, 11,649 misses for 1,977 pairs
    def test_a_degree_twelve_fill_evicts_no_shed_line(self, empty_memo):
        severi_number(12, 20)
        info = severi._shed_terms.cache_info()
        assert info.misses == info.currsize


def _is_trimmed(v):
    return (type(v) is tuple and all(type(n) is int and n >= 0 for n in v)
            and (not v or v[-1] > 0))


class TestRecursionKeys:
    # tw_value checks only the chi window of a key: the rest of the
    # recursion-key invariant holds because the entry points pass no other
    # key and both recursion steps keep it
    def test_every_key_the_recursion_reaches_keeps_the_invariant(
            self, empty_memo, monkeypatch):
        memo = severi.tw_value
        keys = []

        def recorded(d, chi, alpha, beta):
            keys.append((d, chi, alpha, beta))
            return memo(d, chi, alpha, beta)

        # the recursion looks tw_value up through the module, so this sees
        # every call, memo hits included
        monkeypatch.setattr(severi, "tw_value", recorded)
        severi_table(8, 21)
        assert len(set(keys)) == memo.cache_info().currsize == 5183
        severi_number(4, 1, (2,), (0, 1))
        severi_number(5, 2, (1, 1), (0, 1))
        severi_number(6, 3, (0, 0, 1), (1, 1))
        severi_number(7, 5, (1, 1, 1))
        tw_severi(5, 0, (1, 0, 1), (1,))
        assert len(set(keys)) == memo.cache_info().currsize > 5183
        broken = [(d, chi, alpha, beta) for d, chi, alpha, beta in keys
                  if not (d >= 1 and chi % 2 == 0 and _is_trimmed(alpha)
                          and _is_trimmed(beta) and order_weight(alpha)
                          + order_weight(beta) == d)]
        assert broken == []

    # the keys whose guards tw_value no longer has: tw_severi turns away
    # the first four before the memo, and the chi window the last two
    @pytest.mark.parametrize("key, memo_size", [
        ((3, 1), 0),              # odd chi
        ((0, 0), 0),              # d = 0
        ((-1, 2), 0),             # d < 0
        ((3, 2, (1,), (1,)), 0),  # order weights sum to 2, not 3
        ((3, 8), 1),              # chi > 2d
        ((4, -6), 1),             # chi < -d(d - 3)
    ])
    def test_a_key_off_the_recursion_is_zero(self, empty_memo, key,
                                              memo_size):
        assert tw_severi(*key) == 0
        assert severi.tw_value.cache_info().currsize == memo_size

    @pytest.mark.parametrize("key, value", [
        ((3, 6), 15),         # three lines through six points
        ((4, -4), 1),         # the smooth quartic through fourteen points
    ])
    def test_the_ends_of_the_chi_window_count(self, key, value):
        assert tw_severi(*key) == value


def _to_profile(parts):
    out = [0] * (max(parts) if parts else 0)
    for p in parts:
        out[p - 1] += 1
    return trim(out)
