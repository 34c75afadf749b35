import math
from fractions import Fraction

import pytest

from sumkit.contacts import partitions
from sumkit.hurwitz import (
    CutJoinTable,
    HurwitzError,
    _context,
    _table_for,
    branch_count,
    cut_join_apply,
    cut_join_residual,
    hurwitz_number,
)
from sumkit.oracles import branch_count_rh, hurwitz_oracle
from sumkit.series import CutoffExceeded, Series


class TestBranchCount:
    def test_trivial_cover(self):
        assert branch_count(1, 0, (1,)) == 0

    def test_squaring_cover(self):
        # z -> z^2 branches once away from the marked fiber
        assert branch_count(2, 0, (2,)) == 1

    def test_unbranched_profile(self):
        assert branch_count(2, 0, (1, 1)) == 2

    def test_not_a_partition(self):
        with pytest.raises(HurwitzError):
            branch_count(3, 0, (2, 2))


class TestValues:
    def test_base_case(self):
        assert hurwitz_number(1, 0, (1,)) == 1

    def test_double_cover(self):
        assert hurwitz_number(2, 0, (2,)) == Fraction(1, 2)

    def test_triple_cycle(self):
        assert hurwitz_number(3, 0, (3,)) == 1

    def test_degree_one_no_branching_possible(self):
        # any genus above zero forces a negative branch count
        assert hurwitz_number(1, 1, (1,)) == 0

    def test_invalid_partition_gives_zero(self):
        assert hurwitz_number(3, 0, (2,)) == 0

    def test_negative_genus_gives_zero(self):
        assert hurwitz_number(2, -1, (2,)) == 0


class TestOracleAgreement:
    def test_full_window(self):
        checked = 0
        for d in range(1, 6):
            for alpha in partitions(d):
                for g in range(0, 7):
                    r = branch_count_rh(d, g, alpha)
                    if r < 0 or r > 6:
                        continue
                    assert hurwitz_number(d, g, alpha) \
                        == hurwitz_oracle(d, g, alpha), (d, g, alpha)
                    checked += 1
        assert checked >= 30


class TestInvariants:
    def test_nonnegative_with_small_denominator(self):
        for d in range(1, 6):
            for alpha in partitions(d):
                for g in range(0, 4):
                    value = hurwitz_number(d, g, alpha)
                    assert value >= 0
                    if value:
                        assert math.factorial(d) % value.denominator == 0

    def test_degree_one_sector_vanishes_for_positive_r(self):
        # no simple branch points exist on a one-sheeted cover
        table = _table_for(2, 4)
        u = table.context.index("u")
        z1 = table.context.index("z1")
        z_rest = [table.context.index(f"z{a}")
                  for a in range(2, table.d_max + 1)]
        for exps, _ in table.series.terms.items():
            if exps[z1] == 1 and all(exps[i] == 0 for i in z_rest):
                assert exps[u] == 0


    def test_cached_table_cannot_be_changed_by_a_caller(self):
        table = _table_for(5, 6)
        exps = next(iter(table.series.terms))
        with pytest.raises(TypeError):
            table.series.terms[exps] = Fraction(7)
        assert _table_for(5, 6).series.terms[exps] != 7

    def test_cached_table_series_attributes_are_read_only(self):
        # a writable cutoff would turn CutoffExceeded into a silent 0 for
        # every later caller of the memoized table
        series = _table_for(5, 6).series
        for attr, value in (("cutoff", 100), ("context", _context(8)),
                            ("terms", {}), ("laurent_floor", -9)):
            with pytest.raises(AttributeError):
                setattr(series, attr, value)
        with pytest.raises(CutoffExceeded):
            _table_for(5, 6).series.coefficient({"u": 30})


def fixed_point_series(d_max, r_max):
    """The table solved as a fixed point: at each step r apply the whole
    operator to the partial sum and lift its u^(r-1) slice to u^r."""
    ctx = _context(d_max)
    cutoff = 2 * d_max + r_max
    u = ctx.index("u")
    g = Series.term(ctx, cutoff, {"z1": 1, "lam": -2})
    for r in range(1, r_max + 1):
        rhs = cut_join_apply(g, d_max)
        g = g + Series(ctx, cutoff, {
            exps[:u] + (r,) + exps[u + 1:]: c / r
            for exps, c in rhs.terms.items() if exps[u] == r - 1})
    return g


class TestLevelSolve:
    @pytest.mark.parametrize("d_max, r_max", [(4, 5), (5, 6), (6, 7)])
    def test_equals_the_fixed_point_solve(self, d_max, r_max):
        table = CutJoinTable(d_max, r_max)
        reference = fixed_point_series(d_max, r_max)
        assert table.series == reference
        assert table.series.cutoff == 2 * d_max + r_max


class TestResidual:
    def test_small_window(self):
        assert cut_join_residual(2, 2).is_zero()

    def test_acceptance_window(self):
        assert cut_join_residual(4, 4).is_zero()

    def test_wide_window(self):
        assert cut_join_residual(6, 8).is_zero()

    def test_empty_window(self):
        assert cut_join_residual(1, 0).is_zero()
