"""Branched-cover counts of the sphere via the cut-join equation.

``hurwitz_number(d, g, alpha)`` is the weighted count of connected degree-``d``
genus-``g`` covers of the sphere with branching pattern ``alpha`` over one
fixed point and simple branching over the forced number of further fixed
points: the number of transposition tuples with product of cycle type
``alpha`` generating a transitive group, divided by ``d!``.

The values are not transcribed from a closed recursion; they are solved
coefficient-by-coefficient from the transport equation of the generating
function (one simple branch point removed)::

    dG/du = 1/2 * sum_{i,j>=1} ( i*j * lam^2 * z_{i+j} *
                                  (d2G/dz_i dz_j + dG/dz_i * dG/dz_j)
                                + (i+j) * z_i * z_j * dG/dz_{i+j} )

where ``G = sum N(d, g, alpha) * z^alpha * u^r/r! * lam^(2g-2)`` collects the
counts on plain part-monomials ``z^alpha`` (the ``u``-slots are divided
because branch points are labeled; the parts are not).  The quadratic term
carries the connected bookkeeping, and the squared marker ``lam^2`` tracks
the genus jump when two cycles join.

:class:`CutJoinTable` solves the equation one branch level at a time.  Write
``G = sum_r G_r`` with ``G_r`` the part of ``u``-exponent ``r``.  The right
side has no ``u`` in its coefficients, its linear terms keep the
``u``-exponent and its quadratic term adds the two exponents, so comparing
``u^(r-1)`` on both sides gives::

    dG_r/du = 1/2 * sum_{i,j>=1} ( i*j * lam^2 * z_{i+j} *
                                   (d2G_(r-1)/dz_i dz_j
                                    + sum_{s+t=r-1} dG_s/dz_i * dG_t/dz_j)
                                 + (i+j) * z_i * z_j * dG_(r-1)/dz_(i+j) )

Level ``r`` is therefore built from the lower levels alone.  Its right side
is the ``u^(r-1)`` part of :func:`cut_join_apply` on the partial sum
``G_0 + ... + G_(r-1)``, so solving level by level reaches the same series
as the fixed-point iteration that applies the whole operator to the partial
sum at each step and keeps that slice.  Truncation depends on a term's
grading only, so taking the slice before or after the truncated arithmetic
keeps the same terms.  :func:`cut_join_apply` applies the whole operator
and stays the independent side that :func:`cut_join_residual` checks the
table against.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence

from sumkit.contacts import partitions
from sumkit.oracles import branch_count_rh
from sumkit.series import Series, VariableContext


class HurwitzError(ValueError):
    pass


def _normalize(alpha: Sequence[int]) -> tuple[int, ...]:
    alpha = tuple(sorted(alpha, reverse=True))
    if any(a < 1 for a in alpha):
        raise HurwitzError("partition parts must be >= 1")
    return alpha


def branch_count(d: int, g: int, alpha: Sequence[int]) -> int:
    """Simple branch points forced by the Euler characteristic:
    ``2d + 2g - 2 - sum(a - 1)``.  Negative means the key is empty."""
    if d < 1:
        raise HurwitzError("degree must be >= 1")
    alpha = _normalize(alpha)
    if sum(alpha) != d:
        raise HurwitzError(f"{alpha} is not a partition of {d}")
    return branch_count_rh(d, g, alpha)


def _context(d_max: int) -> VariableContext:
    names = [(f"z{a}", a) for a in range(1, d_max + 1)]
    names.append(("u", 1))
    names.append(("lam", 0, True))
    return VariableContext(*names)


def cut_join_apply(g_series: Series, d_max: int) -> Series:
    """The right-hand side of the transport equation applied to a series."""
    ctx = g_series.context
    cutoff = g_series.cutoff
    total = Series.zero(ctx, cutoff)
    derivs = {}
    for a in range(1, d_max + 1):
        derivs[a] = g_series.differentiate(f"z{a}")
    lam2 = Series.term(ctx, cutoff, {"lam": 2})
    for i in range(1, d_max + 1):
        for j in range(1, d_max + 1):
            if i + j > d_max:
                continue
            z_ipj = Series.term(ctx, cutoff, {f"z{i + j}": 1})
            join = derivs[i].differentiate(f"z{j}") + derivs[i] * derivs[j]
            total = total + z_ipj * lam2 * join * Fraction(i * j, 2)
            pair_powers = {f"z{i}": 2} if i == j else {f"z{i}": 1, f"z{j}": 1}
            z_i_z_j = Series.term(ctx, cutoff, pair_powers)
            total = total + z_i_z_j * derivs[i + j] * Fraction(i + j, 2)
    return total


class CutJoinTable:
    """Solves the transport equation level by level in the branch count.

    ``series`` is ``G`` up to ``u^r_max`` over the ring of :func:`_context`
    with cutoff ``2*d_max + r_max``.  Each level ``G_r`` is computed from
    ``G_0 .. G_(r-1)`` and their ``z``-derivatives, by the level equation in
    the module docstring, and kept to the grading that :func:`cut_join_apply`
    keeps.  So ``series`` equals, term for term, the fixed point reached by
    applying :func:`cut_join_apply` to the partial sum ``r_max`` times and
    lifting its ``u^(r-1)`` slice at step ``r``, at a cost per level that
    grows with that level's products instead of the whole series.
    """

    def __init__(self, d_max: int, r_max: int):
        self.d_max = d_max
        self.r_max = r_max
        self.context = _context(d_max)
        self.series = self._solve()

    def _seed(self) -> Series:
        # the unbranched single sheet: degree 1, genus 0, no branch points.
        # Extra cutoff headroom d_max compensates the grading lost to the
        # derivatives in the transport operator.
        return Series.term(self.context, 2 * self.d_max + self.r_max,
                           {"z1": 1, "lam": -2})

    def _solve(self) -> Series:
        ctx, d_max = self.context, self.d_max
        cutoff = 2 * self.d_max + self.r_max
        # cut_join_apply keeps its value to the cutoff of its deepest
        # derivative, d/dz_(d_max); each slice starts there, so the zero
        # terms skipped below cannot leave it a higher cutoff
        top = cutoff - d_max
        u_index = ctx.index("u")
        z = [f"z{a}" for a in range(d_max + 1)]
        joins, cuts = {}, {}
        for k in range(2, d_max + 1):
            joins[k] = Series.term(ctx, cutoff, {z[k]: 1, "lam": 2},
                                   Fraction(1, 2))
            # (1/2) sum_{i+j=k} z_i z_j, the cut term's factor of k*dG/dz_k
            cuts[k] = Series.zero(ctx, cutoff)
            for i in range(1, k):
                cuts[k] = cuts[k] + Series.term(ctx, cutoff, {z[i]: 1}) \
                    * Series.term(ctx, cutoff, {z[k - i]: 1}, Fraction(1, 2))
        level = self._seed()
        total = level
        # weighted[s][a] = a * dG_s/dz_a, the factor each join term takes
        weighted = []
        for r in range(1, self.r_max + 1):
            weighted.append([None] + [level.differentiate(z[a]) * a
                                      for a in range(1, d_max + 1)])
            last = weighted[r - 1]
            rhs = Series.zero(ctx, top)
            for k in range(2, d_max + 1):
                join = Series.zero(ctx, cutoff)
                for i in range(1, k):
                    j = k - i
                    if last[i]:
                        join = join + last[i].differentiate(z[j]) * j
                    # (s, i) and its mirror (t, j) give one product: once,
                    # doubled when they differ
                    for s in range(r):
                        t = r - 1 - s
                        if (s, i) > (t, j):
                            continue
                        left, right = weighted[s][i], weighted[t][j]
                        if left and right:
                            product = left * right
                            join = join + (product if (s, i) == (t, j)
                                           else product * 2)
                if join:
                    rhs = rhs + joins[k] * join
                if last[k]:
                    rhs = rhs + cuts[k] * last[k]
            lifted = {}
            for exps, c in rhs.terms.items():
                lifted[exps[:u_index] + (r,) + exps[u_index + 1:]] = \
                    c * Fraction(1, r)
            level = Series(ctx, cutoff, lifted)
            total = total + level
        return total

    def value(self, d: int, g: int, alpha: Sequence[int]) -> Fraction:
        alpha = _normalize(alpha)
        if d > self.d_max:
            raise HurwitzError("degree beyond table bound")
        r = branch_count_rh(d, g, alpha)
        if r < 0 or g < 0 or r > self.r_max:
            if r > self.r_max >= 0 and g >= 0:
                raise HurwitzError("branch count beyond table bound")
            return Fraction(0)
        powers = {"u": r, "lam": 2 * g - 2}
        for a in set(alpha):
            powers[f"z{a}"] = alpha.count(a)
        return self.series.coefficient(powers) * math.factorial(r)


def _table_for(d: int, r: int) -> CutJoinTable:
    """The memoized table for degree ``d`` and ``r`` branch points.

    Sizes are rounded up to at least ``(5, 6)``, so the small requests
    share one table.
    """
    return _build_table(max(d, 5), max(r, 6))


@functools.lru_cache(maxsize=32)
def _build_table(d_max: int, r_max: int) -> CutJoinTable:
    return CutJoinTable(d_max, r_max)


def hurwitz_number(d: int, g: int, alpha: Sequence[int]) -> Fraction:
    """Connected cover count; invalid keys give 0."""
    if d < 1:
        raise HurwitzError("degree must be >= 1")
    alpha = _normalize(alpha)
    if sum(alpha) != d:
        return Fraction(0)
    if g < 0:
        return Fraction(0)
    r = branch_count_rh(d, g, alpha)
    if r < 0:
        return Fraction(0)
    return _table_for(d, r).value(d, g, alpha)


def cut_join_residual(d_max: int, r_max: int) -> Series:
    """Difference of the two sides of the transport equation.

    Assembles the generating series from :func:`hurwitz_number` values with
    degree at most ``d_max`` and branch count at most ``r_max``, applies both
    sides, and restricts to the window where all inputs are present
    (``u``-exponent below ``r_max``, part degree at most ``d_max``).  The
    contract is the zero series.
    """
    if d_max < 1 or r_max < 0:
        raise HurwitzError("bounds must be positive")
    ctx = _context(d_max)
    cutoff = 2 * d_max + r_max
    terms = {}
    for d in range(1, d_max + 1):
        for alpha in partitions(d):
            for r in range(0, r_max + 1):
                residue = r - branch_count_rh(d, 0, alpha)
                if residue < 0 or residue % 2:
                    continue
                g = residue // 2
                value = hurwitz_number(d, g, alpha)
                if not value:
                    continue
                powers = {"u": r, "lam": 2 * g - 2}
                for a in set(alpha):
                    powers[f"z{a}"] = alpha.count(a)
                exps = ctx.exponents(powers)
                terms[exps] = value / math.factorial(r)
    g_series = Series(ctx, cutoff, terms)
    residual = g_series.differentiate("u") - cut_join_apply(g_series, d_max)
    u_index = ctx.index("u")
    z_indices = [ctx.index(f"z{a}") for a in range(1, d_max + 1)]
    window = {}
    for exps, c in residual.terms.items():
        if exps[u_index] > r_max - 1:
            continue
        if sum(a * exps[i] for a, i in zip(range(1, d_max + 1), z_indices)) \
                > d_max:
            continue
        window[exps] = c
    return Series(ctx, cutoff, window)
