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
:func:`tw_value` table, and :func:`irreducible` reads the request's own
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
from fractions import Fraction
from typing import Iterator, Sequence

from sumkit.contacts import ContactMultiset, enumerate_multisets
from sumkit.profiles import (Profile, SeveriError, default_beta, genus,
                             order_weight, point_count, trim)
from sumkit.series import Series, VariableContext


def _bump(v: Profile, k: int, delta: int) -> Profile:
    out = list(v) + [0] * max(0, k - len(v))
    out[k - 1] += delta
    if out[k - 1] < 0:
        raise SeveriError("profile went negative")
    return trim(out)


def _add(a: Profile, b: Profile) -> Profile:
    return trim(x + y for x, y in itertools.zip_longest(a, b, fillvalue=0))


def _binom_product(a: Profile, b: Profile) -> int:
    """``prod C(a_k, b_k)``: zero unless ``b <= a``."""
    return math.prod(math.comb(x, y)
                     for x, y in itertools.zip_longest(a, b, fillvalue=0))


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


@functools.lru_cache(maxsize=65536)
def tw_value(d: int, chi: int, alpha: Profile, beta: Profile) -> int:
    """Count of reduced, possibly disconnected degree-``d`` curves.

    Indexed by the total Euler characteristic ``chi`` of the
    normalization; the node count of such a configuration is
    ``(chi + d(d-3))/2`` and must be nonnegative, and ``chi`` is at most
    ``2d``, for ``d`` disjoint lines.  The point count is ``point_count``
    at genus ``1 - chi/2``, additive over disjoint unions.  ``alpha`` and
    ``beta`` are trimmed profiles.
    """
    if d < 1 or chi % 2:
        return 0
    if order_weight(alpha) + order_weight(beta) != d:
        return 0
    if not -d * (d - 3) <= chi <= 2 * d:
        return 0
    if point_count(d, 1 - chi // 2, alpha, beta) < 0:
        return 0
    if d == 1:
        return 1
    return _pin_moving_contact(d, chi, alpha, beta) \
        + _shed_line(d, chi, alpha, beta)


def _pin_moving_contact(d, chi, alpha, beta) -> int:
    """Specialized point hit by the curve: a moving order-``k`` contact
    becomes fixed, with multiplicity ``k``."""
    total = 0
    for k in range(1, len(beta) + 1):
        if beta[k - 1] == 0:
            continue
        total += k * tw_value(d, chi, _bump(alpha, k, +1), _bump(beta, k, -1))
    return total


def _shed_line(d, chi, alpha, beta) -> int:
    """Specialized point absorbed by the line: the residual curve has
    degree ``d - 1``, keeps fixed contacts ``alpha' <= alpha``, and its
    new moving contacts (profile ``beta' - beta``) are smoothed, each
    order-``k`` one with multiplicity ``k`` and Euler characteristic
    ``chi'' = chi - 2 + 2 len(beta' - beta)``."""
    total = 0
    for alpha_p in _profiles_leq(alpha):
        budget = d - 1 - order_weight(alpha_p) - order_weight(beta)
        if budget < 0:
            continue
        for m in enumerate_multisets(budget, 1):
            gamma = profile(m)
            beta_p = _add(beta, gamma)
            chi_pp = chi - 2 + 2 * sum(gamma)
            total += (_order_product(gamma)
                      * _binom_product(alpha, alpha_p)
                      * _binom_product(beta_p, beta)
                      * tw_value(d - 1, chi_pp, trim(alpha_p), beta_p))
    return total


def irreducible(d: int, chi: int, alpha: Profile, beta: Profile) -> int:
    """Connected count: the request's own entry of :func:`connected_counts`.

    That is the coefficient of the request's monomial in the logarithm of
    the :func:`tw_value` table, times ``r! prod alpha_k!``.  ``alpha`` and
    ``beta`` are trimmed profiles.  A value that is not an integer raises
    :class:`SeveriError`; no valid table produces one.
    """
    g = 1 - chi // 2
    if d < 1 or chi % 2 or not 0 <= g <= genus(d, 0):
        return 0
    if order_weight(alpha) + order_weight(beta) != d:
        return 0
    value = connected_counts(d, chi, alpha, beta).get((d, chi, alpha, beta), 0)
    if value.denominator != 1:
        raise SeveriError(f"connected count {value} at {(d, chi, alpha, beta)} "
                          "is not an integer")
    return int(value)


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
            for chi_p in range(chi - 2 * (d - d_p), 2 * d_p + 1, 2):
                r_p = point_count(d_p, 1 - chi_p // 2, alpha_p, beta_p)
                if d_p and divides(d_p, chi_p, r_p, alpha_p, beta_p):
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


def tw_severi(d: int, chi: int, alpha: Sequence[int] = (),
              beta: Sequence[int] | None = None) -> int:
    """Disconnected Severi degree at total Euler characteristic ``chi``."""
    if beta is None:
        beta = default_beta(d, alpha)
    return tw_value(d, chi, trim(alpha), trim(beta))


def severi_number(d: int, delta: int, alpha: Sequence[int] = (),
                  beta: Sequence[int] | None = None) -> int:
    """Irreducible Severi degree.

    ``beta`` defaults to simple moving contacts for the order left over by
    ``alpha``.  Invalid keys (negative genus, mismatched profiles,
    over-constrained counts) give 0.
    """
    if beta is None:
        beta = default_beta(d, alpha)
    if d < 1 or delta < 0:
        return 0
    g = genus(d, delta)
    if g < 0:
        return 0
    return irreducible(d, 2 - 2 * g, trim(alpha), trim(beta))


def rational_degree(d: int) -> int:
    """Count of irreducible rational degree-``d`` curves through ``3d - 1``
    generic points."""
    if d < 1:
        raise SeveriError("degree must be >= 1")
    return severi_number(d, (d - 1) * (d - 2) // 2, (), (d,))


def severi_table(d_max: int, delta_max: int) -> list[dict]:
    """Rows (d, delta, r, value) for the pure point-condition profiles."""
    if d_max < 1 or delta_max < 0:
        raise SeveriError("bounds must be positive / nonnegative")
    rows = []
    for d in range(1, d_max + 1):
        for delta in range(0, delta_max + 1):
            g = genus(d, delta)
            if g < 0:
                continue
            rows.append({
                "d": d,
                "delta": delta,
                "alpha": [],
                "beta": [d],
                "r": point_count(d, g, (), (d,)),
                "value": str(severi_number(d, delta, (), (d,))),
            })
    return rows
