"""Independent brute-force oracles for the recursion engines.

Nothing here touches the series or gluing machinery: these functions work by
direct enumeration or closed recursions taken from elsewhere, so the numbers
they produce are independent ground truth for the fast implementations.  Keep
it that way -- this module must import only the standard library.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


def divisor_sum(n: int) -> int:
    """Sum of the divisors of ``n`` by trial division."""
    if n < 1:
        raise ValueError("divisor_sum needs n >= 1")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d
            if d != n // d:
                total += n // d
        d += 1
    return total


def _transitive(d: int, pairs: Sequence[tuple[int, int]]) -> bool:
    parent = list(range(d))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    blocks = d
    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            blocks -= 1
    return blocks == 1


def branch_count_rh(d: int, g: int, alpha: Sequence[int]) -> int:
    """Number of extra simple branch points forced by the Euler characteristic.

    For a connected degree-``d`` genus-``g`` cover of the sphere whose
    ramification over one marked point has parts ``alpha``, the remaining
    branching consists of ``2d + 2g - 2 - sum(a - 1)`` simple points.
    """
    return 2 * d + 2 * g - 2 - sum(a - 1 for a in alpha)


def hurwitz_oracle(d: int, g: int, alpha: Sequence[int]) -> Fraction:
    """Transposition-tuple count for branched covers of the sphere.

    Counts tuples ``(t_1, ..., t_r)`` of transpositions in the symmetric
    group on ``d`` letters whose product ``t_r ... t_1`` has cycle type
    ``alpha`` and whose entries generate a transitive subgroup, divided by
    ``d!``.  The tuple length ``r`` is fixed by ``d``, ``g`` and ``alpha``.

    Pure backtracking over the ``C(d,2)`` transpositions with an incremental
    product and cycle-count pruning; transitivity is checked at the leaves by
    union-find over the supports.  Bounded to ``d <= 6``.

    Only the tuples with ``t_1 = (0 1)`` are enumerated, and their count is
    multiplied by ``C(d,2)``.  Conjugating every entry by one permutation
    ``s`` maps counted tuples to counted tuples: the product is conjugated
    too, which keeps its cycle type, and the generated subgroup is
    conjugated, which keeps it transitive.  This is a bijection between the
    counted tuples starting with ``t`` and those starting with ``s t s^-1``,
    and the symmetric group moves ``(0 1)`` to every transposition, so each
    of the ``C(d,2)`` first entries starts the same number of tuples.  With
    ``r = 0`` there is no first entry: the empty tuple is counted alone,
    when ``d = 1``, the only degree whose identity is transitive.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    if d > 6:
        raise ValueError("oracle enumeration is bounded to d <= 6")
    alpha = tuple(sorted(alpha, reverse=True))
    if sum(alpha) != d or any(a < 1 for a in alpha):
        raise ValueError(f"{alpha} is not a partition of {d}")
    r = branch_count_rh(d, g, alpha)
    if r < 0:
        return Fraction(0)
    # Parity: r transpositions compose to a permutation of sign (-1)^r.
    if (d - len(alpha)) % 2 != r % 2:
        return Fraction(0)
    if r == 0 or d == 1:
        # r = 0 leaves the empty tuple, transitive only for d = 1, and
        # d = 1 has no transposition to start a tuple with
        return Fraction(1 if r == 0 and d == 1 else 0)

    target = alpha
    target_cycles = len(alpha)
    transpositions = [(i, j) for i in range(d) for j in range(i + 1, d)]
    product = list(range(d))   # running product, updated in place
    inverse = list(range(d))   # positions: inverse[v] = x with product[x] = v
    chosen: list[tuple[int, int]] = []
    count = 0

    def cycle_type_of_product() -> tuple[int, ...]:
        seen = [False] * d
        lengths = []
        for s in range(d):
            if not seen[s]:
                n = 0
                x = s
                while not seen[x]:
                    seen[x] = True
                    x = product[x]
                    n += 1
                lengths.append(n)
        return tuple(sorted(lengths, reverse=True))

    def same_cycle(i: int, j: int) -> bool:
        x = product[i]
        while x != i:
            if x == j:
                return True
            x = product[x]
        return False

    def recurse(depth: int, cycles: int) -> None:
        nonlocal count
        if depth == r:
            if cycles == target_cycles and cycle_type_of_product() == target \
                    and _transitive(d, chosen):
                count += 1
            return
        if r - depth < abs(cycles - target_cycles):
            return
        for i, j in transpositions:
            # left-compose by the transposition (i j): swap the two preimages
            delta = 1 if same_cycle(i, j) else -1
            pi = inverse[i]
            pj = inverse[j]
            product[pi] = j
            product[pj] = i
            inverse[i], inverse[j] = pj, pi
            chosen.append((i, j))
            recurse(depth + 1, cycles + delta)
            chosen.pop()
            product[pi] = i
            product[pj] = j
            inverse[i], inverse[j] = pi, pj

    # fix t_1 = (0 1), composed onto the identity
    product[0], product[1] = 1, 0
    inverse[0], inverse[1] = 1, 0
    chosen.append((0, 1))
    recurse(1, d - 1)
    return Fraction(count * math.comb(d, 2), math.factorial(d))


def kontsevich_oracle(d: int) -> int:
    """Rational plane-curve counts from the classical degree recursion.

    ``N_1 = 1`` and for ``d >= 2``::

        N_d = sum over d1+d2=d of N_d1 N_d2 d1^2 d2 *
              (d2 * C(3d-4, 3d1-2) - d1 * C(3d-4, 3d1-1))
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    values = {1: 1}
    for n in range(2, d + 1):
        total = 0
        for d1 in range(1, n):
            d2 = n - d1
            total += (
                values[d1] * values[d2] * d1 * d1 * d2
                * (d2 * math.comb(3 * n - 4, 3 * d1 - 2)
                   - d1 * math.comb(3 * n - 4, 3 * d1 - 1))
            )
        values[n] = total
    return values[d]


# the least degree at which each node polynomial counts the nodal curves:
# the delta = 3 sextic gives 75 and -32 at d = 1, 2, where the count is 0
NODE_POLYNOMIAL_MIN_DEGREE = {1: 1, 2: 1, 3: 3}


def node_polynomial(d: int, delta: int) -> int:
    """Number of ``delta``-nodal plane curves of degree ``d``, reducible
    ones included, through ``d(d + 3)/2 - delta`` generic points.

    The node polynomials of Kleiman and Piene ("Enumerating singular
    curves on surfaces", 1999; the forms go back to Vainsencher)::

        delta = 1:  3(d-1)^2
        delta = 2:  (3/2)(d-1)(d-2)(3d^2 - 3d - 11)
        delta = 3:  (9/2)d^6 - 27d^5 + (9/2)d^4 + (423/2)d^3 - 229d^2
                    - (829/2)d + 525

    each from the degree in :data:`NODE_POLYNOMIAL_MIN_DEGREE` on.  Every
    halved numerator below is even.
    """
    if delta not in NODE_POLYNOMIAL_MIN_DEGREE:
        raise ValueError(f"node polynomials are given for delta = 1, 2, 3, "
                         f"not {delta}")
    if d < NODE_POLYNOMIAL_MIN_DEGREE[delta]:
        raise ValueError(f"the delta = {delta} node polynomial needs "
                         f"d >= {NODE_POLYNOMIAL_MIN_DEGREE[delta]}, "
                         f"got {d}")
    if delta == 1:
        return 3 * (d - 1) ** 2
    if delta == 2:
        return 3 * (d - 1) * (d - 2) * (3 * d * d - 3 * d - 11) // 2
    return (9 * d ** 6 - 54 * d ** 5 + 9 * d ** 4 + 423 * d ** 3
            - 458 * d ** 2 - 829 * d + 1050) // 2
