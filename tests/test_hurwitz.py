import hashlib
import math
from fractions import Fraction

import pytest

from sumkit.cli import HURWITZ_MAX_BRANCH, HURWITZ_MAX_DEGREE
from sumkit.contacts import partitions
from sumkit.hurwitz import (
    CutJoinTable,
    HurwitzError,
    _build_table,
    _context,
    branch_count,
    cut_join_apply,
    cut_join_residual,
    hurwitz_number,
)
from sumkit.oracles import branch_count_rh, hurwitz_oracle
from sumkit.series import CutoffExceeded, Series, _ratio


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

    # a float part or genus failed deep in the table with a raw TypeError,
    # and branch_count returned a float
    @pytest.mark.parametrize("call", [hurwitz_number, branch_count])
    @pytest.mark.parametrize("key", [
        (3, 0, (1.5, 1.5)),
        (3, 0.5, (3,)),
        (3.0, 0, (3,)),
        (True, 0, (1,)),
        (2, 0, (True, 1)),
    ])
    def test_non_int_entry_raises(self, call, key):
        with pytest.raises(HurwitzError, match="must be ints"):
            call(*key)


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
        table = _build_table(5)
        u = table.context.index("u")
        z1 = table.context.index("z1")
        z_rest = [table.context.index(f"z{a}")
                  for a in range(2, table.d_max + 1)]
        for r in range(7):
            for exps, _ in table.level(r).terms.items():
                if exps[z1] == 1 and all(exps[i] == 0 for i in z_rest):
                    assert exps[u] == 0

    def test_cached_table_cannot_be_changed_by_a_caller(self):
        level = _build_table(5).level(6)
        exps = next(iter(level.terms))
        with pytest.raises(TypeError):
            level.terms[exps] = Fraction(7)
        assert _build_table(5).level(6).terms[exps] != 7

    def test_cached_table_series_attributes_are_read_only(self):
        # a writable cutoff would turn CutoffExceeded into a silent 0 for
        # every later caller of the memoized table
        level = _build_table(5).level(6)
        for attr, value in (("cutoff", 100), ("context", _context(8)),
                            ("terms", {})):
            with pytest.raises(AttributeError):
                setattr(level, attr, value)
        # z-degree 6 is beyond a degree-5 table
        with pytest.raises(CutoffExceeded):
            _build_table(5).level(6).coefficient({"z5": 1, "z1": 1, "u": 6})


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
        table = CutJoinTable(d_max)
        reference = fixed_point_series(d_max, r_max)
        ctx = reference.context
        u = ctx.index("u")
        for r in range(r_max + 1):
            level = table.level(r)
            assert level == Series(ctx, d_max, {
                exps: c for exps, c in reference.terms.items()
                if exps[u] == r and ctx.grading(exps) <= d_max})
            assert level.cutoff == d_max

    def test_levels_asked_in_either_order_agree(self):
        down, up = CutJoinTable(8), CutJoinTable(8)
        high = down.level(13)
        low = down.level(5)
        assert up.level(5) == low and up.level(13) == high

    def test_smaller_tables_agree_with_the_degree_eight_table(self):
        # the contexts differ, so compare monomials by their powers
        def by_powers(level, d):
            ctx = level.context
            return {frozenset((name, e) for name, e in zip(ctx.names, exps)
                              if e): c
                    for exps, c in level.terms.items()
                    if ctx.grading(exps) <= d}

        large = CutJoinTable(8)
        for d in range(1, 8):
            small = CutJoinTable(d)
            for r in range(14):
                assert by_powers(small.level(r), d) \
                    == by_powers(large.level(r), d), (d, r)

    def test_degree_ten_levels_digest(self):
        """Every level of the degree-10 table through r = 18, the admitted
        window of the CLI, hashed in canonical text form."""
        table = CutJoinTable(10)
        digest = hashlib.sha256()
        for r in range(19):
            level = table.level(r)
            assert level.cutoff == 10
            digest.update(f"{r}\n{level.to_text()}\n".encode())
        assert digest.hexdigest() == \
            "f5ad28f7e42c47096b03f52ea9d2db2e9fc0b7c57215f702a1d9e9eefc509bca"

    def test_levels_pass_the_validating_constructor(self):
        # levels are built without checks; each must hold the invariants
        table = CutJoinTable(6)
        for r in range(9):
            level = table.level(r)
            assert Series(level.context, level.cutoff,
                          dict(level.terms)) == level

    def test_level_coefficients_are_the_shared_ratio_objects(self):
        level = CutJoinTable(8).level(10)
        assert all(_ratio(c.numerator, c.denominator) is c
                   for c in level.terms.values())

    def test_negative_level_refused(self):
        with pytest.raises(HurwitzError):
            CutJoinTable(3).level(-1)

    def test_one_table_per_degree(self):
        _build_table.cache_clear()
        cut_join_residual(6, 8)
        for d in range(1, 8):
            for alpha in partitions(d):
                for g in range(3):
                    hurwitz_number(d, g, alpha)
        assert _build_table.cache_info().misses == 7


def _values_digest(d_max, r_max):
    """The number of keys with d <= d_max and r <= r_max, and the sha256
    of the keys and their values: a change to any one value changes it."""
    lines = []
    for d in range(1, d_max + 1):
        for alpha in partitions(d):
            g = 0
            while branch_count(d, g, alpha) <= r_max:
                value = hurwitz_number(d, g, alpha)
                lines.append(f"{d} {g} {','.join(map(str, alpha))} "
                             f"{value.numerator}/{value.denominator}\n")
                g += 1
    return len(lines), hashlib.sha256("".join(lines).encode()).hexdigest()


def test_values_digest():
    assert _values_digest(8, 13) == (
        226, "1c1acd73763c73ed7846dbcad21b65b203075daf6a94c8c1bfcdeee60347f1d2")


def test_values_digest_over_the_cli_window():
    # every key the `hurwitz` verb admits, as the series-ring level solver
    # computed them
    assert _values_digest(HURWITZ_MAX_DEGREE, HURWITZ_MAX_BRANCH) == (
        665, "018cdf18abe3e8d5531ca33fd7dfb7f999381cd57b35ec38a885472bfd6755a8")


class TestResidual:
    def test_small_window(self):
        assert cut_join_residual(2, 2).is_zero()

    def test_acceptance_window(self):
        assert cut_join_residual(7, 10).is_zero()

    def test_wide_window(self):
        assert cut_join_residual(6, 8).is_zero()

    def test_empty_window(self):
        assert cut_join_residual(1, 0).is_zero()
