"""Severi degrees of nodal plane curves with line tangency conditions.

``severi_number(d, delta, alpha, beta)`` counts irreducible plane curves of
degree ``d`` with ``delta`` nodes, meeting a fixed line with order-``k``
contact at ``alpha[k-1]`` fixed points and ``beta[k-1]`` moving points, and
passing through the complementary number of generic points.

The degeneration recursion trades the line for a ruled layer: either a
moving contact is pinned at the newly specialized point (degree unchanged),
or the curve sheds the line and drops to degree ``d - 1``, with the new
moving contacts smoothed and the Euler characteristic shifted accordingly.
The degree-drop term necessarily produces *reducible* residual curves (a
line pair is a legitimate residual of a rational cubic), so the recursion
closes only over counts of reduced, possibly disconnected curves, indexed by
total Euler characteristic.  Those are computed by :func:`tw_value`.

As in the sum formula, disconnected counts are the exponential of connected
ones.  Put each key ``(d, chi, alpha, beta)`` on the monomial
``z^d lam^chi u^r/r! prod x_k^alpha_k/alpha_k! prod y_k^beta_k``, with
``r`` its point count: the divided powers distribute the generic points and
the fixed contacts among the components, and moving contacts carry no
choice.  :func:`connected_counts` takes :meth:`Series.log` of the
:func:`tw_value` table, and :func:`severi_number` reads the request's own
coefficient from it.  ``tw_value`` is memoized for the process by a bounded
``functools.lru_cache``.

Profiles are multiplicity vectors indexed from contact order 1, stored as
trimmed tuples; :mod:`sumkit.profiles` holds the helpers that put a request
on its key and its row.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from fractions import Fraction
from typing import Iterator, Sequence

from sumkit.contacts import ContactMultiset, enumerate_multisets
from sumkit.profiles import (Profile, SeveriError, default_beta, genus,
                             order_weight, point_count, row, trim)
from sumkit.series import Series, VariableContext


def _order_product(v: Profile) -> int:
    out = 1
    for k, n in enumerate(v):
        out *= (k + 1) ** n
    return out


def _profiles_leq(v: Profile) -> Iterator[Profile]:
    """All componentwise-smaller profiles, padded to the length of ``v``."""
    return itertools.product(*(range(n + 1) for n in v))


def profile(m: ContactMultiset) -> Profile:
    """The trimmed multiplicity vector of a one-class contact multiset:
    an item ``((k, 0), n)`` puts ``n`` at order ``k``."""
    v = [0] * (m[-1][0][0] if m else 0)  # the largest order comes last
    for (k, _), n in m:
        v[k - 1] = n
    return tuple(v)


@functools.lru_cache(maxsize=4096)
def _shed_terms(alpha: Profile, beta: Profile
                ) -> tuple[tuple[Profile, Profile, int, int], ...]:
    """The whole shed line of a profile pair, in the order of its sum.

    The residual curve keeps fixed contacts ``alpha' <= alpha``, and its new
    moving contacts ``gamma`` spend the order that ``alpha'`` and ``beta``
    leave of its degree ``d - 1 = I(alpha) + I(beta) - 1``: the budget
    ``I(alpha) - 1 - I(alpha')``, which does not depend on ``d``.  Each term
    is the trimmed ``alpha'``, the moving profile ``beta' = beta + gamma``,
    the Euler characteristic shift ``2 sum(gamma)`` and the weight
    ``prod C(alpha_k, alpha'_k) k^gamma_k C(beta'_k, beta_k)``."""
    rest = order_weight(alpha) - 1
    out = []
    for alpha_p in _profiles_leq(alpha):
        budget = rest - order_weight(alpha_p)
        if budget < 0:
            continue
        alpha_t = trim(alpha_p)
        fixed = math.prod(map(math.comb, alpha, alpha_p))
        for gamma in map(profile, enumerate_multisets(budget, 1)):
            beta_p = (tuple(map(operator.add, beta, gamma))
                      + beta[len(gamma):] + gamma[len(beta):])
            out.append((alpha_t, beta_p, 2 * sum(gamma),
                        fixed * _order_product(gamma)
                        * math.prod(map(math.comb, beta_p, beta))))
    return tuple(out)


@functools.lru_cache(maxsize=65536)
def tw_value(d: int, chi: int, alpha: Profile, beta: Profile) -> int:
    """Count of reduced, possibly disconnected degree-``d`` curves.

    Indexed by the total Euler characteristic ``chi`` of the
    normalization.  Every key is a recursion key: ``d >= 1``, ``chi`` even,
    and ``alpha`` and ``beta`` trimmed profiles whose order weights sum to
    ``d``.  :func:`tw_severi` and :func:`connected_counts` pass no other
    key, and both steps of the recursion keep the invariant, so it is not
    checked here.  The one guard is the window of ``chi``: the node count
    ``(chi + d(d-3))/2`` must be nonnegative, and ``chi`` is at most
    ``2d``, for ``d`` disjoint lines.  The point count, ``point_count`` at
    genus ``1 - chi/2``, is then ``2d - chi/2 + sum(beta) >= d + sum(beta)
    >= 1``, so no key in the window is over-constrained.
    """
    if not -d * (d - 3) <= chi <= 2 * d:
        return 0
    if d == 1:
        return 1
    return _pin_moving_contact(d, chi, alpha, beta) \
        + _shed_line(d, chi, alpha, beta)


def _pin_moving_contact(d, chi, alpha, beta) -> int:
    """Specialized point hit by the curve: a moving order-``k`` contact
    becomes fixed, with multiplicity ``k``.  ``alpha + e_k`` is trimmed as
    built, and ``beta - e_k`` needs a trim only when it empties the last
    order."""
    total = 0
    for k, n in enumerate(beta, 1):
        if not n:
            continue
        padded = alpha + (0,) * (k - len(alpha))
        alpha_p = padded[:k - 1] + (padded[k - 1] + 1,) + padded[k:]
        beta_p = beta[:k - 1] + (n - 1,) + beta[k:]
        if not beta_p[-1]:
            beta_p = trim(beta_p)
        total += k * tw_value(d, chi, alpha_p, beta_p)
    return total


def _shed_line(d, chi, alpha, beta) -> int:
    """Specialized point absorbed by the line: the residual curve has
    degree ``d - 1``, and its new moving contacts (profile ``beta' -
    beta``) are smoothed, each order-``k`` one with multiplicity ``k`` and
    Euler characteristic ``chi'' = chi - 2 + 2 len(beta' - beta)``.
    :func:`_shed_terms` holds the terms."""
    total = 0  # a loop, not a generator: no extra frame per degree
    for alpha_p, beta_p, shift, c in _shed_terms(alpha, beta):
        total += c * tw_value(d - 1, chi - 2 + shift, alpha_p, beta_p)
    return total


def _labels(r: int, alpha: Profile) -> int:
    """Orderings of the labeled conditions: generic points, fixed contacts."""
    return math.factorial(r) * math.prod(map(math.factorial, alpha))


def connected_counts(d: int, chi: int, alpha: Profile, beta: Profile
                     ) -> dict[tuple[int, int, Profile, Profile], Fraction]:
    """Connected counts of every key that divides ``(d, chi, alpha, beta)``.

    A key ``(d', chi', alpha', beta')`` divides the request when its
    profiles and its point count are no larger, and the quotient's Euler
    characteristic ``chi - chi'`` is one a reduced curve of degree ``e = d -
    d'`` can have: from ``-e(e - 3)`` (smooth) to ``2e`` (``e`` lines).
    The table holds those keys only, on the monomials of the module
    docstring.  Every factor of a dividing key divides the request too, so
    the logarithm is exact on them, and the result keeps exactly those.
    """
    r = point_count(d, 1 - chi // 2, alpha, beta)
    ctx = VariableContext(("z", 1), ("lam", 0, True), ("u", 0),
                          *((f"x{k}", 0) for k in range(1, len(alpha) + 1)),
                          *((f"y{k}", 0) for k in range(1, len(beta) + 1)))

    def divides(d_p, chi_p, r_p, alpha_p, beta_p):
        e = d - d_p
        return (0 <= r_p <= r and -e * (e - 3) <= chi - chi_p <= 2 * e
                and all(a <= b for a, b in zip(alpha_p, alpha))
                and all(a <= b for a, b in zip(beta_p, beta)))

    terms = {(0,) * len(ctx): Fraction(1)}
    for alpha_p in _profiles_leq(alpha):
        for beta_p in _profiles_leq(beta):
            d_p = order_weight(alpha_p) + order_weight(beta_p)
            if not d_p:
                continue
            r_0 = 2 * d_p + sum(beta_p)  # the point count at chi' = 0
            for chi_p in range(chi - 2 * (d - d_p), 2 * d_p + 1, 2):
                r_p = r_0 - chi_p // 2
                if divides(d_p, chi_p, r_p, alpha_p, beta_p):
                    terms[(d_p, chi_p, r_p) + alpha_p + beta_p] = Fraction(
                        tw_value(d_p, chi_p, trim(alpha_p), trim(beta_p)),
                        _labels(r_p, alpha_p))
    out = {}
    for exps, c in Series(ctx, d, terms).log().terms.items():
        d_p, chi_p, r_p = exps[:3]
        alpha_p, beta_p = exps[3:3 + len(alpha)], exps[3 + len(alpha):]
        if divides(d_p, chi_p, r_p, alpha_p, beta_p):
            out[d_p, chi_p, trim(alpha_p), trim(beta_p)] = \
                c * _labels(r_p, alpha_p)
    return out


def _require_ints(*values) -> None:
    """Reject a key entry that is not an ``int``: a float or a bool would
    reach the recursion as another key, or fail there with a raw error."""
    for value in values:
        if type(value) is not int:
            raise SeveriError(f"Severi keys take ints, got {value!r}")


def _within_depth(d: int, compute):
    """``compute()``, with the interpreter's recursion limit reported as a
    :class:`SeveriError` naming the degree.  The memo fill recurses about
    ``d^2`` frames deep when it starts empty, which overflows from about
    ``d = 25`` on; filled degree by degree, as :func:`severi_table` fills
    it, it stays shallow."""
    try:
        return compute()
    except RecursionError:
        raise SeveriError(
            f"degree {d} recurses deeper than the interpreter's recursion "
            f"limit of {sys.getrecursionlimit()}; compute the lower degrees "
            "first") from None


def tw_severi(d: int, chi: int, alpha: Sequence[int] = (),
              beta: Sequence[int] | None = None) -> int:
    """Disconnected Severi degree at total Euler characteristic ``chi``.

    A key with ``d < 1``, an odd ``chi`` or order weights that do not sum
    to ``d`` gives 0 here, before the memo, since :func:`tw_value` checks
    only the window of ``chi``."""
    _require_ints(d, chi, *alpha, *(beta or ()))
    if beta is None:
        beta = default_beta(d, alpha)
    alpha, beta = trim(alpha), trim(beta)
    if d < 1 or chi % 2 or order_weight(alpha) + order_weight(beta) != d:
        return 0
    return _within_depth(d, lambda: tw_value(d, chi, alpha, beta))


def severi_number(d: int, delta: int, alpha: Sequence[int] = (),
                  beta: Sequence[int] | None = None) -> int:
    """Irreducible Severi degree: the request's own entry of
    :func:`connected_counts`.

    That is the coefficient of the request's monomial in the logarithm of
    the :func:`tw_value` table, times ``r! prod alpha_k!``.  ``beta``
    defaults to simple moving contacts for the order left over by
    ``alpha``.  Invalid keys (negative genus, mismatched profiles,
    over-constrained counts) give 0; a key entry that is not an ``int``
    raises :class:`SeveriError`, and so does a value that is not an
    integer, which no valid table produces, and so does a degree whose
    recursion overflows the interpreter's stack.
    """
    _require_ints(d, delta, *alpha, *(beta or ()))
    if beta is None:
        beta = default_beta(d, alpha)
    alpha, beta = trim(alpha), trim(beta)
    g = genus(d, delta)
    if not (d >= 1 and 0 <= g <= genus(d, 0)
            and order_weight(alpha) + order_weight(beta) == d):
        return 0
    key = (d, 2 - 2 * g, alpha, beta)
    value = _within_depth(d, lambda: connected_counts(*key)).get(key, 0)
    if value.denominator != 1:
        raise SeveriError(f"connected count {value} at {key} "
                          "is not an integer")
    return int(value)


def rational_degree(d: int) -> int:
    """Count of irreducible rational degree-``d`` curves through ``3d - 1``
    generic points."""
    _require_ints(d)
    if d < 1:
        raise SeveriError("degree must be >= 1")
    return severi_number(d, (d - 1) * (d - 2) // 2, (), (d,))


def severi_table(d_max: int, delta_max: int) -> list[dict]:
    """Rows (d, delta, alpha, beta, r, value) for the pure point-condition
    profiles."""
    _require_ints(d_max, delta_max)
    if d_max < 1 or delta_max < 0:
        raise SeveriError("bounds must be positive / nonnegative")
    rows = []
    for d in range(1, d_max + 1):
        for delta in range(0, delta_max + 1):
            if genus(d, delta) < 0:
                continue
            rows.append(row(d, delta, (), (d,),
                            severi_number(d, delta, (), (d,))))
    return rows
