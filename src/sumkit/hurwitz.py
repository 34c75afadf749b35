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

The table solves each level on partitions, not in the series ring.  Write
``n_r(alpha)`` for the number of transposition tuples above (``d!`` times
the Hurwitz number), so that ``G_r`` puts ``n_r(alpha) / (d! r!)`` on
``z^alpha u^r lam^(r - d - len(alpha))``: the genus follows from ``r``.
Times ``d! (r-1)!``, the level equation turns into three moves on the
partitions of the lower levels, with ``m_a`` the multiplicity of a part
``a`` in the partition it is read from:

- cut: a part ``k`` of a level-``(r-1)`` partition becomes ``i + j``, with
  weight ``k m_k n_(r-1)``;
- join within: parts ``i`` and ``j`` of a level-``(r-1)`` partition merge,
  with weight ``i m_i * j m_j * n_(r-1)``, where ``m_j`` is read after one
  part ``i`` is gone;
- join across: part ``i`` of a level-``s`` partition of ``d_s`` merges with
  part ``j`` of a level-``t`` partition of ``d_t``, where ``s + t = r - 1``,
  with weight ``C(d_s + d_t, d_s) C(r - 1, s) * i m_i n_s * j m_j n_t``: the
  binomials share the sheets and the branch points out between the two
  covers.

Summed over ordered pairs ``(i, j)``, and over ordered pairs of the two
sides of a join across, the moves give ``2 n_r``: that is the ``1/2`` of
the equation, and the ``1/r`` of the ``u``-lift is the step from
``(r-1)!`` to ``r!``.  So every count is an integer, and each coefficient
of ``G_r`` is reduced once.  A cut or a join within keeps the degree of
its partition and a join across adds two degrees, so a table for degree
``d`` drops each join across beyond ``d``, and its levels have cutoff ``d``.
"""

from __future__ import annotations

import functools
import math
import threading
from fractions import Fraction
from operator import itemgetter
from typing import Sequence

from sumkit.contacts import partitions
from sumkit.series import (
    Series,
    VariableContext,
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


def branch_count_rh(d: int, g: int, alpha: Sequence[int]) -> int:
    """Riemann-Hurwitz for a partition ``alpha`` of ``d``, unchecked:
    ``2d + 2g - 2 - sum(a - 1)`` simple branch points."""
    return 2 * d + 2 * g - 2 - sum(a - 1 for a in alpha)


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
    to ``r`` by the partition moves of the module docstring the first time
    one at or above it is asked for.  ``G_r`` equals the ``u^r`` slice of
    the fixed point of :func:`cut_join_apply` on ``z``-degree at most
    ``d_max``.  Levels grow under a lock, so threads see the serial values.
    """

    def __init__(self, d_max: int):
        self.d_max = d_max
        self.context = _context(d_max)
        self._levels: list[Series] = []
        # all the moves read of level s: _derivs[s][i], its derivative by
        # z_i, holds a row (rest, d, i * m_i * n) for each partition of d
        # with count n and m_i >= 1 parts i, the rest being the partition
        # without one part i, the rows sorted by d
        self._derivs: list[dict[int, list]] = []
        # _binom[a][b] = C(a + b, a): the labels a join across shares out
        self._binom = [[math.comb(a + b, a) for b in range(d_max + 1)]
                       for a in range(d_max + 1)]
        self._lock = threading.Lock()
        # the unbranched single sheet: degree 1, genus 0, no branch points
        self._add_level({(1,): 1})

    def level(self, r: int) -> Series:
        if r < 0:
            raise HurwitzError("branch count must be >= 0")
        with self._lock:
            while len(self._levels) <= r:
                self._solve_next()
        return self._levels[r]

    def _add_level(self, counts: dict[tuple[int, ...], int]) -> None:
        """Append the level of ``counts``, its partitions' counts: the
        series ``G_r`` and the derivatives that later levels read."""
        r = len(self._levels)
        d_max, labels = self.d_max, math.factorial(r)
        sums = {}
        derivs: dict[int, list] = {}
        for alpha, n in counts.items():
            d = sum(alpha)
            powers = [0] * d_max
            for a in alpha:
                powers[a - 1] += 1
            # z^alpha u^r lam^(2g - 2), with 2g - 2 = r - d - len(alpha)
            sums[(*powers, r, r - d - len(alpha))] = \
                [n, math.factorial(d) * labels]
            for i, m in enumerate(powers, 1):
                if m:
                    k = alpha.index(i)
                    derivs.setdefault(i, []).append(
                        (alpha[:k] + alpha[k + 1:], d, i * m * n))
        for rows in derivs.values():
            rows.sort(key=itemgetter(1))
        # the counts are positive, so every reduced sum is a term, and the
        # partitions have degree at most d_max
        self._levels.append(
            Series._trusted(self.context, d_max, reduced_sums(sums)))
        self._derivs.append(derivs)

    def _solve_next(self) -> None:
        d_max, derivs, binom = self.d_max, self._derivs, self._binom
        r = len(self._levels)
        # twice the counts of level r: the sum of the moves over ordered
        # pairs of parts, which meets each unordered pair twice
        twice: dict = {}
        get = twice.get
        for i, rows in derivs[r - 1].items():
            for rest, _, w in rows:
                # cut: the part i becomes a and i - a
                for a in range(1, i):
                    key = tuple(sorted(rest + (a, i - a), reverse=True))
                    twice[key] = get(key, 0) + w
                # join within: the part i merges with a part j of the rest
                for j in set(rest):
                    k = rest.index(j)
                    key = tuple(sorted(rest[:k] + rest[k + 1:] + (i + j,),
                                       reverse=True))
                    twice[key] = get(key, 0) + j * rest.count(j) * w
        # join across: a part i at level s merges with a part j at level
        # t = r - 1 - s; a pair of (level, part) blocks and its mirror give
        # the same terms, so each unordered pair is summed once, doubled
        # when the blocks differ
        for s in range((r - 1) // 2 + 1):
            t = r - 1 - s
            labels = math.comb(r - 1, s)
            for i, left in derivs[s].items():
                for j, right in derivs[t].items():
                    if s == t and i > j:
                        continue
                    m = labels if (s, i) == (t, j) else 2 * labels
                    joined = (i + j,)
                    for rest, d, w in left:
                        room, shares, mw = d_max - d, binom[d], m * w
                        for rest_t, d_t, v in right:
                            if d_t > room:
                                break
                            key = tuple(sorted(rest + rest_t + joined,
                                               reverse=True))
                            twice[key] = get(key, 0) + shares[d_t] * mw * v
        self._add_level({key: n // 2 for key, n in twice.items()})


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
