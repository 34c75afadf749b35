"""Contact multiplicity combinatorics for curves meeting a divisor.

A curve hits a distinguished divisor in finitely many points, each with a
multiplicity and each decorated by an index into a chosen homology basis of
the divisor.  The contacts of one end are a :class:`ContactMultiset`, the
sorted tuple of its ``((a, i), count)`` items, which compares, orders and
pickles as that tuple.  Each value is one object, so it hashes by
identity.  It computes its total multiplicity, its ``degree``,
and ``merge`` returns a union with the binomial split count that weights a
disjoint product.  Its statistics (number of points, total multiplicity,
product of multiplicities, factorial of the counts) weight every gluing sum;
:func:`glue_weights` is one read-only table per glued degree and pairing,
giving a convolution the number of points of each glued end and its weighted
dual terms as reduced integer pairs.

The pairing on the divisor homology enters through
:class:`IntersectionMatrix`; :func:`dual_multiset` re-expresses a multiset in
the dual basis, which is how the diagonal is split when two curves are glued.
Only even-degree basis classes are supported, so no sign bookkeeping occurs.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

ContactPair = tuple[int, int]  # (multiplicity >= 1, basis-class index >= 0)


class ContactError(ValueError):
    pass


def _validate_pair(a: int, i: int) -> None:
    if type(a) is not int or type(i) is not int:
        raise ContactError(f"contact ({a!r}, {i!r}) is not a pair of ints")
    if a < 1:
        raise ContactError(f"contact multiplicity must be >= 1, got {a}")
    if i < 0:
        raise ContactError(f"basis index must be >= 0, got {i}")


class ContactMultiset(tuple):
    """Multiset of (multiplicity, basis index) pairs: the sorted tuple of its
    ``((a, i), count)`` items, each an ``int`` with ``a >= 1``, ``i >= 0``
    and ``count >= 0`` (a zero count adds nothing).

    Immutable, and compared, ordered and pickled as that tuple; used
    directly as a dictionary key in coefficient tables and serialized as
    ``a^count(i)`` groups.  Every way of building one (the constructor,
    :meth:`merge`, pickling, ``copy``) returns the one live multiset of its
    items, kept in :data:`_LIVE_MULTISETS`, so equal multisets are the same
    object and the hash is the identity hash, a pointer read.  A plain
    tuple equals its multiset but hashes apart from it, so it does not
    find the multiset's entry in a dict.
    """

    __slots__ = ()
    __hash__ = object.__hash__

    def __new__(cls, counts: Iterable[tuple[ContactPair, int]] = ()):
        merged: dict[ContactPair, int] = {}
        for (a, i), n in counts:
            _validate_pair(a, i)
            if type(n) is not int or n < 0:
                raise ContactError(f"count {n!r} is not a nonnegative int")
            if n:
                merged[(a, i)] = merged.get((a, i), 0) + n
        return _live_multiset(tuple(sorted(merged.items())))

    def __reduce__(self):
        # rebuild through the constructor: the copy is the live multiset
        return ContactMultiset, (tuple(self),)

    @property
    def degree(self) -> int:
        """The total multiplicity."""
        return sum(a * n for (a, _), n in self)

    def __repr__(self):
        return f"ContactMultiset({self.to_string()!r})"

    def merge(self, other: "ContactMultiset"
              ) -> tuple["ContactMultiset", int]:
        """The union with ``other`` and the number of ways to split it back:
        ``C(n + k, n)`` multiplied over the pairs held ``n`` times here and
        ``k`` times there.  Both inputs are valid, so none is revalidated."""
        counts = dict(self)
        split = 1
        for pair, k in other:
            n = counts.get(pair)
            if n is None:
                counts[pair] = k
            else:
                counts[pair] = n + k
                split *= math.comb(n + k, n)
        return _live_multiset(tuple(sorted(counts.items()))), split

    def to_string(self) -> str:
        """Canonical form ``a^count(i) ...``; empty multiset is ``-``."""
        if not self:
            return "-"
        return " ".join(f"{a}^{n}({i})" for (a, i), n in self)


# The live multiset of each item tuple.  A tuple subclass cannot be weakly
# referenced, so the table holds its multisets for the life of the process;
# they are those of the degrees in use, which the enumerate_multisets and
# glue_weights memos keep anyway.  dict.get and dict.setdefault are each
# atomic, so concurrent builders of one value all get the first one stored.
_LIVE_MULTISETS: dict[tuple, ContactMultiset] = {}


def _live_multiset(items: tuple) -> ContactMultiset:
    """The one multiset of ``items``, a sorted tuple of valid
    ``((a, i), count)`` items with nonzero counts."""
    m = _LIVE_MULTISETS.get(items)
    if m is None:
        m = _LIVE_MULTISETS.setdefault(
            items, tuple.__new__(ContactMultiset, items))
    return m


def multiset_stats(m: ContactMultiset) -> tuple[int, int, int, int]:
    """(number of points, total multiplicity, product a^count, count factorial)."""
    length = degree = 0
    product = fact = 1
    for (a, _), n in m:
        length += n
        degree += a * n
        product *= a ** n
        fact *= math.factorial(n)
    return length, degree, product, fact


def partitions(n: int) -> list[tuple[int, ...]]:
    """Integer partitions of ``n``, each in decreasing-part order, in
    reverse lexicographic order: the one-class view of
    :func:`enumerate_multisets`.  A negative ``n`` has none."""
    if n < 0:
        return []
    return sorted((tuple(a for (a, _), count in reversed(m)
                         for _ in range(count))
                   for m in enumerate_multisets(n, 1)), reverse=True)


@functools.lru_cache(maxsize=4096)
def enumerate_multisets(deg_target: int, basis_size: int) -> list[ContactMultiset]:
    """All contact multisets of total multiplicity ``deg_target``.

    Basis indices run over ``0..basis_size-1``; the result is duplicate-free
    and canonically ordered.  Over a one-element basis this enumerates the
    integer partitions of ``deg_target``.

    Each label ``(a, i)``, in ascending order, takes a count of at least 1
    while multiplicity remains, so every multiset is built once, its items
    already in canonical order.
    """
    if deg_target < 0:
        raise ContactError("degree target must be >= 0")
    if basis_size < 1:
        raise ContactError("basis size must be >= 1")
    labels = [(a, i) for a in range(1, deg_target + 1)
              for i in range(basis_size)]

    def items_from(start: int, remaining: int):
        if not remaining:
            yield ()
        for k in range(start, len(labels)):
            a = labels[k][0]
            if a > remaining:
                return
            for count in range(1, remaining // a + 1):
                for rest in items_from(k + 1, remaining - a * count):
                    yield ((labels[k], count),) + rest

    return sorted(map(ContactMultiset, items_from(0, deg_target)))


class SingularMatrix(ContactError):
    pass


class IntersectionMatrix:
    """Square, nonempty, invertible rational pairing on the chosen divisor
    homology basis; its inverse is found once, when it is built."""

    __slots__ = ("rows", "_inverse", "_hash")

    def __init__(self, rows: Sequence[Sequence[Fraction | int]]):
        n = len(rows)
        if n < 1:
            raise ContactError("empty pairing")
        data = tuple(tuple(Fraction(x) for x in row) for row in rows)
        for row in data:
            if len(row) != n:
                raise ContactError("intersection matrix must be square")
        # Gauss-Jordan elimination, which rejects a singular pairing
        aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
               for i, row in enumerate(data)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if aug[r][col]), None)
            if pivot is None:
                raise SingularMatrix("intersection matrix is singular")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            inv = 1 / aug[col][col]
            aug[col] = [x * inv for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col]:
                    factor = aug[r][col]
                    aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
        object.__setattr__(self, "rows", data)
        object.__setattr__(self, "_inverse",
                           tuple(tuple(row[n:]) for row in aug))
        object.__setattr__(self, "_hash", hash(data))

    def __setattr__(self, name, value):
        raise AttributeError("IntersectionMatrix is immutable")

    def __reduce__(self):
        return IntersectionMatrix, (self.rows,)

    @property
    def size(self) -> int:
        return len(self.rows)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return self.rows[ij[0]][ij[1]]

    def __eq__(self, other):
        return isinstance(other, IntersectionMatrix) and self.rows == other.rows

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"IntersectionMatrix({[[str(x) for x in r] for r in self.rows]})"

    @classmethod
    def point_pairing(cls) -> "IntersectionMatrix":
        """Pairing for a point divisor: a single class pairing to 1."""
        return cls([[1]])

    @classmethod
    def sphere_pairing(cls) -> "IntersectionMatrix":
        """Pairing for a sphere divisor with basis (point, fundamental)."""
        return cls([[0, 1], [1, 0]])

    def inverse(self) -> "IntersectionMatrix":
        """The exact inverse."""
        return IntersectionMatrix(self._inverse)


def dual_multiset(m: ContactMultiset, q: IntersectionMatrix
                  ) -> dict[ContactMultiset, Fraction]:
    """Expand a multiset in the dual basis determined by the pairing.

    Each class index ``i`` is replaced by its dual expansion
    ``sum_j q[i][j] * (class j)``, multilinearly over all contact points.
    The result maps multisets to rational weights.  For a permutation
    pairing this is a single index swap with weight 1.
    """
    return dict(_dual_multiset_cached(m, q))


@functools.lru_cache(maxsize=65536)
def _dual_multiset_cached(m: ContactMultiset, q: IntersectionMatrix
                          ) -> tuple[tuple[ContactMultiset, Fraction], ...]:
    result: dict[tuple, Fraction] = {(): Fraction(1)}
    for (a, i), count in m:
        if i >= q.size:
            raise ContactError(f"basis index {i} outside pairing of size {q.size}")
        row = q.rows[i]
        factor_terms: list[tuple[tuple[tuple[ContactPair, int], ...], Fraction]] = []
        for classes in itertools.combinations_with_replacement(range(q.size),
                                                               count):
            weight = Fraction(math.factorial(count))
            entry = []
            for j, c in collections.Counter(classes).items():
                weight *= row[j] ** c / math.factorial(c)
                entry.append(((a, j), c))
            if weight:
                factor_terms.append((tuple(entry), weight))
        # each concatenation splits one way, and nonzero weights multiply to
        # nonzero weights: every key is new and every value nonzero
        result = {acc + entry: w0 * w for acc, w0 in result.items()
                  for entry, w in factor_terms}
    out: dict[ContactMultiset, Fraction] = {}
    for acc, w in result.items():
        ms = ContactMultiset(acc)
        out[ms] = out.get(ms, 0) + w
    # items with different labels meet in the merge, so sums can cancel
    return tuple(sorted((ms, w) for ms, w in out.items() if w))


@functools.lru_cache(maxsize=256)
def glue_weights(degree: int, q: IntersectionMatrix
                 ) -> Mapping[ContactMultiset,
                              tuple[int, tuple[tuple[ContactMultiset, int, int],
                                               ...]]]:
    """The gluing data of every contact multiset ``m`` of total
    multiplicity ``degree``, as a read-only mapping from ``m`` to the
    number of its points and its dual expansion as ``(dual, numerator,
    denominator)`` triples.

    Each dual weight comes already multiplied by ``|m|/m!``, the product of
    the multiplicities over the factorial of the counts, and reduced, so a
    convolution multiplies integers.  One table serves every glued end of
    that degree, so a convolution looks its ends up without hashing ``q``.
    """
    table = {}
    for m in enumerate_multisets(degree, q.size):
        length, _, product, fact = multiset_stats(m)
        weight = Fraction(product, fact)
        duals = []
        for dual, w in dual_multiset(m, q).items():
            w *= weight
            duals.append((dual, w.numerator, w.denominator))
        table[m] = (length, tuple(duals))
    return MappingProxyType(table)
