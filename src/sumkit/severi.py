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
total Euler characteristic.  Those are computed by :func:`tw_value`;
irreducible numbers are then extracted by :func:`irreducible`, which
removes multi-component configurations, with the generic points
distributed by multinomials and fixed contacts by binomials (moving
contacts carry no choice).  Both are memoized for the process by bounded
``functools.lru_cache``s.

Profiles are multiplicity vectors indexed from contact order 1, stored as
trimmed tuples.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator, Sequence

from sumkit.contacts import partitions

Profile = tuple[int, ...]


class SeveriError(ValueError):
    pass


def trim(v: Sequence[int]) -> Profile:
    v = list(v)
    while v and v[-1] == 0:
        v.pop()
    if any(x < 0 for x in v):
        raise SeveriError("profile entries must be nonnegative")
    return tuple(v)


def order_weight(v: Profile) -> int:
    """Total contact order ``sum k * v[k-1]``."""
    return sum((k + 1) * n for k, n in enumerate(v))


def count(v: Profile) -> int:
    return sum(v)


def _bump(v: Profile, k: int, delta: int) -> Profile:
    out = list(v) + [0] * max(0, k - len(v))
    out[k - 1] += delta
    if out[k - 1] < 0:
        raise SeveriError("profile went negative")
    return trim(out)


def _add(a: Profile, b: Profile) -> Profile:
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return trim(x + y for x, y in zip(a, b))


def _binom_product(a: Profile, b: Profile) -> int:
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    out = 1
    for x, y in zip(a, b):
        if y > x:
            return 0
        out *= math.comb(x, y)
    return out


def _order_product(v: Profile) -> int:
    out = 1
    for k, n in enumerate(v):
        out *= (k + 1) ** n
    return out


def _profiles_leq(v: Profile) -> Iterator[Profile]:
    """All componentwise-smaller profiles."""
    if not v:
        yield ()
        return
    for rest in _profiles_leq(v[:-1]):
        for last in range(v[-1] + 1):
            yield trim(rest + (0,) * (len(v) - 1 - len(rest)) + (last,))


def trim_partition(parts: Sequence[int]) -> Profile:
    """Multiplicity vector of a partition given as a list of parts."""
    if not parts:
        return ()
    out = [0] * max(parts)
    for p in parts:
        out[p - 1] += 1
    return trim(out)


def genus(d: int, delta: int) -> int:
    return (d - 1) * (d - 2) // 2 - delta


def point_count(d: int, g: int, alpha: Profile, beta: Profile) -> int:
    """Number of generic point conditions.

    ``3d + g - 1 - I(alpha) - (I(beta) - len(beta))``: each fixed order-``k``
    tangency cuts ``k`` parameters, each moving one ``k - 1``.  A negative
    value signals an over-constrained (zero) count.
    """
    return (3 * d + g - 1 - order_weight(alpha)
            - (order_weight(beta) - count(beta)))


def _point_count_chi(d: int, chi: int, alpha: Profile, beta: Profile) -> int:
    # same formula, via chi; additive over disjoint unions
    return (3 * d - chi // 2 - order_weight(alpha)
            - (order_weight(beta) - count(beta)))


@functools.lru_cache(maxsize=65536)
def tw_value(d: int, chi: int, alpha: Profile, beta: Profile) -> int:
    """Count of reduced, possibly disconnected degree-``d`` curves.

    Indexed by the total Euler characteristic ``chi`` of the
    normalization; the node count of such a configuration is
    ``(chi + d(d-3))/2`` and must be nonnegative.  ``alpha`` and ``beta``
    are trimmed profiles.
    """
    if d < 1 or chi % 2:
        return 0
    if order_weight(alpha) + order_weight(beta) != d:
        return 0
    if chi > 2 * d:
        return 0
    if (chi + d * (d - 3)) % 2 or (chi + d * (d - 3)) // 2 < 0:
        return 0
    if _point_count_chi(d, chi, alpha, beta) < 0:
        return 0
    if d == 1:
        return 1 if chi == 2 and delta_chi(d, chi) == 0 else 0
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
        for parts in partitions(budget):
            gamma = trim_partition(parts)
            beta_p = _add(beta, gamma)
            chi_pp = chi - 2 + 2 * count(gamma)
            total += (_order_product(gamma)
                      * _binom_product(alpha, alpha_p)
                      * _binom_product(beta_p, beta)
                      * tw_value(d - 1, chi_pp, alpha_p, beta_p))
    return total


@functools.lru_cache(maxsize=65536)
def irreducible(d: int, chi: int, alpha: Profile, beta: Profile) -> int:
    """Connected count: the disconnected one minus multi-component
    configurations (components of smaller degree, generic points
    distributed by multinomials, fixed contacts by binomials).  ``alpha``
    and ``beta`` are trimmed profiles."""
    if d < 1 or chi % 2 or chi > 2:
        return 0
    g = (2 - chi) // 2
    if genus_to_delta(d, g) is None:
        return 0
    if order_weight(alpha) + order_weight(beta) != d:
        return 0
    if point_count(d, g, alpha, beta) < 0:
        return 0
    return tw_value(d, chi, alpha, beta) \
        - _disconnected_part(d, chi, alpha, beta)


def _component_tuples(d_max: int) -> Iterator[tuple]:
    """All valid connected component types up to degree ``d_max``,
    in a fixed decreasing order."""
    for d in range(d_max, 0, -1):
        g_top = (d - 1) * (d - 2) // 2
        for g in range(g_top, -1, -1):
            chi = 2 - 2 * g
            for alpha in _all_profiles(d):
                rest = d - order_weight(alpha)
                for parts in partitions(rest):
                    beta = trim_partition(parts)
                    if point_count(d, g, alpha, beta) < 0:
                        continue
                    yield (d, chi, alpha, beta)


def _disconnected_part(d, chi, alpha, beta) -> int:
    r = _point_count_chi(d, chi, alpha, beta)
    total = 0

    def assemble(remaining_d, remaining_chi, remaining_alpha,
                 remaining_beta, remaining_r, max_tuple, factor,
                 n_components, run_tuple, run_len):
        nonlocal total
        if remaining_d == 0:
            if remaining_chi == 0 and not remaining_alpha \
                    and not remaining_beta and n_components >= 2:
                total += factor // math.factorial(run_len)
            return
        # the first component must leave degree for at least one more
        top_degree = remaining_d - 1 if n_components == 0 else remaining_d
        for tup in _component_tuples(top_degree):
            if max_tuple is not None and tup > max_tuple:
                continue
            d_i, chi_i, alpha_i, beta_i = tup
            alloc_alpha = _binom_product(remaining_alpha, alpha_i)
            if alloc_alpha == 0:
                continue
            beta_rest = _profile_minus(remaining_beta, beta_i)
            if beta_rest is None:
                continue
            g_i = (2 - chi_i) // 2
            r_i = point_count(d_i, g_i, alpha_i, beta_i)
            if r_i > remaining_r:
                continue
            n_irr = irreducible(d_i, chi_i, alpha_i, beta_i)
            if n_irr == 0:
                continue
            if tup == run_tuple:
                new_run = run_len + 1
                run_factor = 1
            else:
                new_run = 1
                run_factor = math.factorial(run_len)
            assemble(
                remaining_d - d_i,
                remaining_chi - chi_i,
                _profile_minus(remaining_alpha, alpha_i),
                beta_rest,
                remaining_r - r_i,
                tup,
                factor // run_factor * alloc_alpha
                * math.comb(remaining_r, r_i) * n_irr,
                n_components + 1,
                tup,
                new_run,
            )

    assemble(d, chi, alpha, beta, r, None, 1, 0, None, 0)
    return total


def _profile_minus(a: Profile, b: Profile) -> Profile | None:
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    if any(y > x for x, y in zip(a, b)):
        return None
    return trim(x - y for x, y in zip(a, b))


def _all_profiles(d: int) -> Iterator[Profile]:
    """All profiles of total order at most ``d``."""
    seen = set()
    for w in range(d + 1):
        for parts in partitions(w):
            p = trim_partition(parts)
            if p not in seen:
                seen.add(p)
                yield p


def delta_chi(d: int, chi: int) -> int:
    """Node count of a reduced degree-``d`` configuration of Euler
    characteristic ``chi``."""
    return (chi + d * (d - 3)) // 2


def genus_to_delta(d: int, g: int) -> int | None:
    """Node count of an irreducible degree-``d`` genus-``g`` curve, or None."""
    delta = (d - 1) * (d - 2) // 2 - g
    if delta < 0 or g < 0:
        return None
    return delta


def default_beta(d: int, alpha: Sequence[int] = ()) -> Profile:
    """Simple moving contacts for the order not consumed by ``alpha``."""
    rest = d - order_weight(trim(alpha))
    return (rest,) if rest > 0 else ()


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
