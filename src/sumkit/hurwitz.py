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
sum at each step and keeps that slice.  :func:`cut_join_apply` applies the
whole operator and stays the independent side that
:func:`cut_join_residual` checks the table against.

The ring grades by ``z``-degree alone.  Each operator term keeps the
``z``-degree of its input or adds those of its two inputs, so the levels of
a table for degree ``d`` have cutoff ``d``, and each series built from them
declares only what it knows: a derivative by ``z_a`` through ``d - a``, and
the join that takes the factor ``z_k`` through ``d - k``.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import Counter
from fractions import Fraction
from operator import add
from typing import Sequence

from sumkit.contacts import partitions
from sumkit.oracles import branch_count_rh
from sumkit.series import (
    Series,
    VariableContext,
    add_ratio,
    linear_combination,
    reduced_sums,
)


class HurwitzError(ValueError):
    pass


def _normalize(d: int, g: int, alpha: Sequence[int]) -> tuple[int, ...]:
    """The parts of ``alpha``, largest first, once the degree, the genus
    and every part are ``int`` (not ``bool``), the degree is at least 1 and
    every part at least 1."""
    alpha = tuple(alpha)
    if any(type(value) is not int for value in (d, g, *alpha)):
        raise HurwitzError(f"degree, genus and parts must be ints, got "
                           f"{d!r}, {g!r}, {alpha!r}")
    if d < 1:
        raise HurwitzError("degree must be >= 1")
    if any(a < 1 for a in alpha):
        raise HurwitzError("partition parts must be >= 1")
    return tuple(sorted(alpha, reverse=True))


def branch_count(d: int, g: int, alpha: Sequence[int]) -> int:
    """Simple branch points forced by the Euler characteristic:
    ``2d + 2g - 2 - sum(a - 1)``.  Negative means the key is empty."""
    alpha = _normalize(d, g, alpha)
    if sum(alpha) != d:
        raise HurwitzError(f"{alpha} is not a partition of {d}")
    return branch_count_rh(d, g, alpha)


def _context(d_max: int) -> VariableContext:
    names = [(f"z{a}", a) for a in range(1, d_max + 1)]
    names.append(("u", 0))
    names.append(("lam", 0, True))
    return VariableContext(*names)


def _powers(g: int, alpha: tuple[int, ...], r: int) -> dict[str, int]:
    """The monomial ``z^alpha * u^r * lam^(2g-2)`` of a key."""
    powers = {"u": r, "lam": 2 * g - 2}
    for a in set(alpha):
        powers[f"z{a}"] = alpha.count(a)
    return powers


def cut_join_apply(g_series: Series, d_max: int) -> Series:
    """The right-hand side of the transport equation applied to a series."""
    ctx = g_series.context
    cutoff = g_series.cutoff
    derivs = {a: g_series.differentiate(f"z{a}") for a in range(1, d_max + 1)}
    # g_series at coefficient 0 sets the header and cutoff when d_max < 2
    terms = [(0, g_series)]
    for i in range(1, d_max + 1):
        for j in range(1, d_max + 1 - i):
            join_monomial = Series.term(ctx, cutoff,
                                        {f"z{i + j}": 1, "lam": 2})
            join = derivs[i].differentiate(f"z{j}") + derivs[i] * derivs[j]
            terms.append((Fraction(i * j, 2), join_monomial * join))
            pair_powers = {f"z{i}": 2} if i == j else {f"z{i}": 1, f"z{j}": 1}
            cut_monomial = Series.term(ctx, cutoff, pair_powers)
            terms.append((Fraction(i + j, 2), cut_monomial * derivs[i + j]))
    return linear_combination(terms)


class CutJoinTable:
    """``G`` through ``z``-degree ``d_max``, solved one level at a time.

    :meth:`level` returns ``G_r`` (cutoff ``d_max``), solving the levels up
    to ``r`` by the level equation of the module docstring the first time
    one at or above it is asked for.  ``G_r`` equals the ``u^r`` slice of
    the fixed point of :func:`cut_join_apply` on ``z``-degree at most
    ``d_max``.  Levels grow under a lock, so threads see the serial values.
    """

    def __init__(self, d_max: int):
        self.d_max = d_max
        self.context = ctx = _context(d_max)
        self._z = [f"z{a}" for a in range(d_max + 1)]
        self._levels: list[Series] = []
        # weighted[s][a] = a * dG_s/dz_a, the factor each join term takes
        self._weighted: list[list] = []
        self._lock = threading.Lock()
        # the unbranched single sheet: degree 1, genus 0, no branch points
        self._add_level(Series.term(ctx, d_max, {"z1": 1, "lam": -2}))

    def level(self, r: int) -> Series:
        if r < 0:
            raise HurwitzError("branch count must be >= 0")
        with self._lock:
            while len(self._levels) <= r:
                self._solve_next()
        return self._levels[r]

    def _add_level(self, level: Series) -> None:
        self._levels.append(level)
        self._weighted.append([None] + [level.differentiate(self._z[a]) * a
                                        for a in range(1, self.d_max + 1)])

    def _solve_next(self) -> None:
        ctx, d_max, z = self.context, self.d_max, self._z
        weighted = self._weighted
        r = len(self._levels)
        last = weighted[r - 1]
        # (multiplier, series, shift) triples: the level is the sum of each
        # series times its multiplier and its monomial (the shift), over 2r
        # (the 1/2 of both terms, the 1/r of the u-lift)
        parts = []
        for k in range(2, d_max + 1):
            # only z-degree <= room survives the z_k factor
            room = d_max - k
            join = ctx.exponents({z[k]: 1, "lam": 2, "u": 1})
            for i in range(1, k):
                j = k - i
                if last[i]:
                    parts.append(
                        (j, last[i].differentiate(z[j]).truncate(room), join))
                # (s, i) and its mirror (t, j) give one product: once,
                # doubled when they differ
                for s in range(r):
                    t = r - 1 - s
                    if (s, i) > (t, j):
                        continue
                    left, right = weighted[s][i], weighted[t][j]
                    if left and right:
                        parts.append((1 if (s, i) == (t, j) else 2,
                                      left.truncate(room) * right, join))
                # the cut: z_i z_j times k dG/dz_k, over ordered (i, j)
                if last[k]:
                    parts.append((1, last[k], ctx.exponents(
                        Counter((z[i], z[j], "u")))))
        acc: dict = {}
        for m, series, shift in parts:
            for exps, c in series.terms.items():
                add_ratio(acc, tuple(map(add, exps, shift)),
                          m * c.numerator, 2 * r * c.denominator)
        # the sums are reduced nonzero Fractions on valid exponents shifted
        # up, and the truncations keep every grade at or below d_max
        self._add_level(Series._trusted(ctx, d_max, reduced_sums(acc)))


@functools.lru_cache(maxsize=32)
def _build_table(d: int) -> CutJoinTable:
    return CutJoinTable(d)


def hurwitz_number(d: int, g: int, alpha: Sequence[int]) -> Fraction:
    """Connected cover count; invalid keys give 0."""
    alpha = _normalize(d, g, alpha)
    r = branch_count_rh(d, g, alpha)
    if sum(alpha) != d or g < 0 or r < 0:
        return Fraction(0)
    return _build_table(d).level(r).coefficient(_powers(g, alpha, r)) \
        * math.factorial(r)


def cut_join_residual(d_max: int, r_max: int) -> Series:
    """Difference of the two sides of the transport equation.

    Assembles the generating series from :func:`hurwitz_number` values with
    degree at most ``d_max`` and branch count at most ``r_max``, applies both
    sides, and restricts to the window where all inputs are present
    (``u``-exponent below ``r_max``, ``z``-degree at most ``d_max``).  The
    contract is the zero series.
    """
    if d_max < 1 or r_max < 0:
        raise HurwitzError("bounds must be positive")
    ctx = _context(d_max)
    cutoff = 2 * d_max
    terms = {}
    for d in range(1, d_max + 1):
        for alpha in partitions(d):
            for r in range(0, r_max + 1):
                residue = r - branch_count_rh(d, 0, alpha)
                if residue < 0 or residue % 2:
                    continue
                g = residue // 2
                value = hurwitz_number(d, g, alpha)
                if value:
                    terms[ctx.exponents(_powers(g, alpha, r))] = \
                        value / math.factorial(r)
    g_series = Series(ctx, cutoff, terms)
    residual = g_series.differentiate("u") - cut_join_apply(g_series, d_max)
    u_index = ctx.index("u")
    return Series(ctx, d_max, {
        exps: c for exps, c in residual.truncate(d_max).terms.items()
        if exps[u_index] < r_max})
