"""Tangency profiles of the Severi keys, with the standard library only.

A profile is a multiplicity vector indexed from contact order 1, stored as
a trimmed tuple.  These are the helpers that put a request on its key and
its row: :mod:`sumkit.severi` imports them for its recursion, and the CLI
imports them alone, so a cached ``severi`` request runs no engine layer.
"""

from __future__ import annotations

from typing import Sequence

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


def genus(d: int, delta: int) -> int:
    return (d - 1) * (d - 2) // 2 - delta


def point_count(d: int, g: int, alpha: Profile, beta: Profile) -> int:
    """Number of generic point conditions.

    ``3d + g - 1 - I(alpha) - (I(beta) - len(beta))``: each fixed order-``k``
    tangency cuts ``k`` parameters, each moving one ``k - 1``.  A negative
    value signals an over-constrained (zero) count.
    """
    return (3 * d + g - 1 - order_weight(alpha)
            - (order_weight(beta) - sum(beta)))


def default_beta(d: int, alpha: Sequence[int] = ()) -> Profile:
    """Simple moving contacts for the order not consumed by ``alpha``."""
    rest = d - order_weight(trim(alpha))
    return (rest,) if rest > 0 else ()
