"""Tangency profiles of the Severi keys, with the standard library only.

A profile is a multiplicity vector indexed from contact order 1, stored as
a trimmed tuple.  These are the helpers that put a request on its key and
its row, and the CLI's degree limit: :mod:`sumkit.severi` imports them for
its recursion and its table, and the CLI imports them alone, so a cached
``severi`` request runs no engine layer.
"""

from __future__ import annotations

from typing import Sequence

Profile = tuple[int, ...]

# `severi` work grows fast with the degree: on a 2-core VM, in a fresh
# process, a d = 10 request takes under 0.15 s and the whole d <= 10 table
# 0.3-0.4 s, but d = 12 takes up to 1.2 s per request, and from d = 25 on
# a request on an empty memo recurses past the interpreter's limit, which
# `severi` reports as a SeveriError
SEVERI_MAX_DEGREE = 10


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
    tangency cuts ``k`` parameters, each moving one ``k - 1``.  When the
    order weights of ``alpha`` and ``beta`` sum to ``d`` this is ``2d + g -
    1 + sum(beta)``, at least ``d + sum(beta) >= 1`` at every genus a
    reduced degree-``d`` curve can have (``g >= 1 - d``, for ``d`` disjoint
    lines).  So a negative value means a key whose order weights do not
    sum to ``d``.
    """
    return (3 * d + g - 1 - order_weight(alpha)
            - (order_weight(beta) - sum(beta)))


def row(d: int, delta: int, alpha: Profile, beta: Profile, value: int
        ) -> dict:
    """The output row of one Severi key, its point count ``r`` included.
    The keys keep this order, which the csv and table headers follow."""
    return {"d": d, "delta": delta, "alpha": list(alpha), "beta": list(beta),
            "r": point_count(d, genus(d, delta), alpha, beta),
            "value": str(value)}


def default_beta(d: int, alpha: Sequence[int] = ()) -> Profile:
    """Simple moving contacts for the order not consumed by ``alpha``."""
    rest = d - order_weight(trim(alpha))
    return (rest,) if rest > 0 else ()
