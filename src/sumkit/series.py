"""Truncated multivariate power series over the rationals.

Every generating function in the package is carried by :class:`Series`: a
sparse map from exponent vectors to ``Fraction`` coefficients, truncated by a
weighted grading.  Each variable in a :class:`VariableContext` has a
nonnegative integer weight; a monomial is kept only while its total weight is
at most the series cutoff.  Arithmetic is exact -- coefficients are
``fractions.Fraction`` values and are never stored as zero.  The table
policy (sums, scaling, truncation, equality, pickling) lives in
:class:`GradedTable`, which ``gluing.RelSeries`` shares.

One variable per context may be marked *laurent*, in which case negative
exponents are allowed on it.  Its weight must be 0, so truncation never
interacts with the laurent direction.  This is used to track the Euler
characteristic marker, which appears with exponents of both signs.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import add, mul
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Union

Coeff = Union[Fraction, int]


class SeriesError(ValueError):
    """Base class for series-algebra failures."""


class ContextMismatch(SeriesError):
    """Operands were built over different variable contexts."""


class CutoffExceeded(SeriesError):
    """A coefficient beyond the truncation order was requested.

    This is distinct from the coefficient being zero: the value is unknown
    and the caller must recompute with a larger cutoff.
    """


class VariableContext:
    """Ordered collection of graded formal variables.

    Each entry is a name, a nonnegative integer weight, and a laurent flag.
    Entries may be given as ``"t"`` (weight 1), ``("t", weight)`` or
    ``("lam", 0, True)``.  Names must be unique, at most one variable may be
    laurent, and a laurent variable must have weight 0.  Immutable, since
    every :class:`Series` header, and so every series memo key, holds it.
    """

    __slots__ = ("names", "weights", "laurent_index", "_index")

    def __init__(self, *variables):
        names, weights = [], []
        laurent_index = None
        for entry in variables:
            if isinstance(entry, str):
                entry = (entry, 1, False)
            elif len(entry) == 2:
                entry = (entry[0], entry[1], False)
            name, weight, laurent = entry
            if weight < 0:
                raise SeriesError(f"negative weight for variable {name!r}")
            if laurent:
                if laurent_index is not None:
                    raise SeriesError("at most one laurent variable is allowed")
                if weight != 0:
                    raise SeriesError("a laurent variable must have weight 0")
                laurent_index = len(names)
            names.append(name)
            weights.append(weight)
        if len(set(names)) != len(names):
            raise SeriesError("variable names must be unique")
        object.__setattr__(self, "names", tuple(names))
        object.__setattr__(self, "weights", tuple(weights))
        object.__setattr__(self, "laurent_index", laurent_index)
        object.__setattr__(self, "_index",
                           {n: i for i, n in enumerate(names)})

    def __setattr__(self, name, value):
        raise AttributeError("VariableContext is immutable")

    def __reduce__(self):
        return VariableContext, tuple(
            (name, weight, i == self.laurent_index)
            for i, (name, weight) in enumerate(zip(self.names, self.weights)))

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VariableContext)
            and self.names == other.names
            and self.weights == other.weights
            and self.laurent_index == other.laurent_index
        )

    def __hash__(self) -> int:
        return hash((self.names, self.weights, self.laurent_index))

    def __repr__(self) -> str:
        return f"VariableContext{self.names!r}"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise SeriesError(f"unknown variable {name!r}") from None

    def exponents(self, powers: Mapping[str, int]) -> tuple[int, ...]:
        """Exponent tuple for ``{name: exponent}``, zero elsewhere."""
        exps = [0] * len(self.names)
        for name, e in powers.items():
            exps[self.index(name)] = e
        return tuple(exps)

    def grading(self, exponents: tuple[int, ...]) -> int:
        return sum(map(mul, self.weights, exponents))

    def validate(self, exponents: tuple[int, ...]) -> None:
        if len(exponents) != len(self.names):
            raise SeriesError("exponent vector has wrong length")
        for i, e in enumerate(exponents):
            if e < 0 and i != self.laurent_index:
                raise SeriesError(
                    f"negative exponent on non-laurent variable {self.names[i]!r}"
                )


class GradedTable:
    """Sparse table from keys to nonzero Fractions, truncated at a grade.

    The shared policy of :class:`Series` and ``gluing.RelSeries``.  A
    subclass names its other constructor fields in ``_HEADER`` (they come
    before ``cutoff`` and ``terms``), the grade of a key in :meth:`_grade`,
    and its error types in ``_Error`` and ``_Mismatch`` (operands with
    different headers).  Stored keys always satisfy ``grade <= cutoff``.
    Immutable once constructed: ``terms`` is a read-only view, so a memoized
    table cannot be changed under later callers.

    The subclass constructor checks every term; it is the boundary for
    caller data, unpickled tables included.  The operations build their
    results through :meth:`_trusted` instead, without revalidating: their
    inputs already hold the invariants, and each operation keeps them.
    Sums and scalings keep the keys; products add exponents, or classes
    and contact degrees (both pairings are linear); a derivative lowers one
    exponent that was positive off the laurent variable, and its cutoff by
    that variable's weight; other grades are filtered against the result's
    cutoff.  One exact accumulator sums every table: ``+``, ``-`` and
    :meth:`scale` are each one :func:`linear_combination`, and the products
    (``Series.__mul__``, ``RelSeries.disjoint_mul``, ``gluing.convolve``)
    and the level sum of ``hurwitz.CutJoinTable`` pass integer products to
    :func:`add_ratio`.  :func:`reduced_sums` reduces each sum once and drops
    a key whose numerator sums to 0; a scalar 0 adds no term, and exact
    arithmetic on nonzero Fractions gives nonzero Fractions, so no zero is
    ever stored.

    The hash is computed on the first ``hash()`` and kept in ``_hash``; a
    memo keyed by a table rehashes nothing.  It is never pickled:
    :meth:`__reduce__` rebuilds through the constructor, so a copy hashes
    anew in its own process.

    ``gluing`` interns the keys its algebra builds (``gluing._rel_key``),
    and :func:`reduced_sums` the coefficients (``_ratio``): equal values in
    the tables the operations build are mostly one shared object.  So
    ``==`` and the accumulators mostly meet the very same key and
    coefficient objects, which ``dict`` matches by identity before it calls
    ``__eq__``, and :func:`linear_combination` cancels a coefficient minus
    the very same object with no arithmetic.  These are only fast paths:
    equality never depends on identity, and keys or coefficients built
    apart compare, hash and cancel by value.
    """

    __slots__ = ("cutoff", "terms", "_hash")
    _HEADER: tuple[str, ...] = ()
    _Error: type[ValueError] = ValueError
    _Mismatch: type[ValueError] = ValueError

    def _grade(self, key) -> int:
        raise NotImplementedError

    def _header(self) -> tuple:
        return tuple(getattr(self, name) for name in self._HEADER)

    @classmethod
    def _trusted(cls, *fields):
        """``cls(*fields)`` without checks; see the class docstring for when.

        ``fields`` are the header values, the cutoff and a dict of nonzero
        Fraction terms, which the result takes over.
        """
        self = object.__new__(cls)
        *header, cutoff, terms = fields
        for name, value in zip(cls._HEADER, header):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "terms", MappingProxyType(terms))
        return self

    def _wrap(self, terms: dict, cutoff: int | None = None):
        """A trusted table with this header; the cutoff defaults to ours."""
        return self._trusted(*self._header(),
                             self.cutoff if cutoff is None else cutoff, terms)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # unpickled data is caller data: it goes through the checks again
        return type(self), (*self._header(), self.cutoff, dict(self.terms))

    def _check(self, other) -> None:
        if type(other) is not type(self) or self._header() != other._header():
            raise self._Mismatch(
                f"{type(self).__name__} operands differ in "
                f"{' or '.join(self._HEADER)}")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self._header() == other._header()
            and self.cutoff == other.cutoff
            and self.terms == other.terms
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((*self._header(), self.cutoff,
                      frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
            return h

    def sorted_keys(self) -> list:
        """Keys in canonical order: by grade, then by key."""
        grade = self._grade
        return sorted(self.terms, key=lambda k: (grade(k), k))

    def __add__(self, other):
        return linear_combination([(1, self), (1, other)])

    def __sub__(self, other):
        return linear_combination([(1, self), (-1, other)])

    def scale(self, c: Coeff):
        """Every coefficient times the scalar ``c``."""
        return linear_combination([(c, self)])

    def truncate(self, cutoff: int):
        """Drop every term of grade above ``cutoff``."""
        if cutoff > self.cutoff:
            raise self._Error("cannot raise a cutoff; recompute instead")
        grade = self._grade
        return self._wrap(
            {k: c for k, c in self.terms.items() if grade(k) <= cutoff},
            cutoff)

    def _require_positive_grading(self) -> None:
        bad = [k for k in self.terms if self._grade(k) <= 0]
        if bad:
            raise self._Error(
                f"terms of grading zero obstruct exp and log: {bad[:3]}")


class Series(GradedTable):
    """Sparse truncated power series with exact rational coefficients.

    Keys are exponent vectors over a :class:`VariableContext`, graded by
    its weights.  The constructor checks that each vector has the context's
    length, is nonnegative off the laurent variable and has grading at most
    ``cutoff``; it converts coefficients to Fractions and drops zeros.
    """

    __slots__ = ("context",)
    _HEADER = ("context",)
    _Error = SeriesError
    _Mismatch = ContextMismatch

    def __init__(self, context: VariableContext, cutoff: int,
                 terms: Mapping[tuple[int, ...], Coeff] | None = None):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "cutoff", cutoff)
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, c in terms.items():
                exps = tuple(exps)
                context.validate(exps)
                if type(c) is not Fraction:
                    c = Fraction(c)
                if not c:
                    continue
                if context.grading(exps) > cutoff:
                    raise SeriesError("term beyond cutoff")
                clean[exps] = c
        object.__setattr__(self, "terms", MappingProxyType(clean))

    def _grade(self, key: tuple[int, ...]) -> int:
        return self.context.grading(key)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, context: VariableContext, cutoff: int) -> "Series":
        return cls(context, cutoff)

    @classmethod
    def constant(cls, context: VariableContext, cutoff: int, c: Coeff) -> "Series":
        exps = (0,) * len(context)
        return cls(context, cutoff, {exps: Fraction(c)})

    @classmethod
    def one(cls, context: VariableContext, cutoff: int) -> "Series":
        return cls.constant(context, cutoff, 1)

    @classmethod
    def term(cls, context: VariableContext, cutoff: int,
             powers: Mapping[str, int], c: Coeff = 1) -> "Series":
        return cls(context, cutoff, {context.exponents(powers): Fraction(c)})

    # -- inspection --------------------------------------------------------

    def coefficient(self, powers: Mapping[str, int] | tuple[int, ...]) -> Fraction:
        """Coefficient of a monomial; raises :class:`CutoffExceeded` beyond cutoff."""
        if isinstance(powers, tuple):
            exps = powers
        else:
            exps = self.context.exponents(powers)
        self.context.validate(exps)
        if self.context.grading(exps) > self.cutoff:
            raise CutoffExceeded(
                f"monomial {exps} has grading beyond cutoff {self.cutoff}"
            )
        return self.terms.get(exps, Fraction(0))

    def monomials(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        """Terms in canonical (graded lexicographic) order."""
        for exps in self.sorted_keys():
            yield exps, self.terms[exps]

    def __repr__(self) -> str:
        body = self.to_text().replace("\n", "; ")
        return f"Series[cutoff={self.cutoff}]({body})"

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return Series.constant(self.context, self.cutoff, other)
        return other

    def __add__(self, other):
        return super().__add__(self._coerce(other))

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return super().__sub__(self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        cutoff = min(self.cutoff, other.cutoff)
        grading = self.context.grading
        acc: dict = {}
        # ascending grading, so each row stops at the first factor too high
        right = sorted((grading(e), e, c.numerator, c.denominator)
                       for e, c in other.terms.items())
        for e1, c1 in self.terms.items():
            n1, d1 = c1.numerator, c1.denominator
            room = cutoff - grading(e1)
            for g2, e2, n2, d2 in right:
                if g2 > room:
                    break
                add_ratio(acc, tuple(map(add, e1, e2)), n1 * n2, d1 * d2)
        return self._wrap(reduced_sums(acc), cutoff)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise SeriesError("negative powers are not supported")
        result = Series.one(self.context, self.cutoff)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- transcendental operations ----------------------------------------

    def exp(self) -> "Series":
        """Exponential ``sum f^n / n!``, by :func:`graded_exp`.

        Requires every term of the argument to have positive grading, so
        only finitely many powers reach each graded piece.  Laurent exponents
        are unrestricted.
        """
        return graded_exp(self, Series.__mul__,
                          Series.one(self.context, self.cutoff))

    def log(self) -> "Series":
        """Logarithm of f with constant term 1, by :func:`graded_log`."""
        rest = dict(self.terms)
        if rest.pop((0,) * len(self.context), None) != 1:
            raise SeriesError("log needs constant term exactly 1")
        return graded_log(self._wrap(rest), Series.__mul__)

    def differentiate(self, name: str) -> "Series":
        """Formal partial derivative.  The cutoff drops by the variable weight."""
        i = self.context.index(name)
        cutoff = self.cutoff - self.context.weights[i]
        out: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
        return self._wrap(out, cutoff)

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: one term per line, ``num/den var^exp ...``."""
        lines = []
        for exps, c in self.monomials():
            parts = [f"{c.numerator}/{c.denominator}"]
            for name, e in zip(self.context.names, exps):
                if e:
                    parts.append(f"{name}^{e}")
            lines.append(" ".join(parts))
        return "\n".join(lines)


def geometric_inverse(context: VariableContext, cutoff: int,
                      powers: Mapping[str, int]) -> Series:
    """The expansion of ``1/(1 - x)`` for the monomial ``x``: ``sum x^k``."""
    exps = context.exponents(powers)
    g = context.grading(exps)
    if g <= 0:
        raise SeriesError("geometric inverse needs a positive-grading monomial")
    terms = {}
    k = 0
    while k * g <= cutoff:
        terms[tuple(k * e for e in exps)] = Fraction(1)
        k += 1
    return Series(context, cutoff, terms)


# -- sums reduced once ---------------------------------------------------------

def linear_combination(pairs: Iterable[tuple[Coeff, GradedTable]]
                       ) -> GradedTable:
    """``sum c * t`` over the ``(c, t)`` pairs, reduced once per key.

    Every ``t`` has one type and header (else the type's mismatch error),
    and the result takes the least cutoff, trimming the rest.  Each ``c`` is
    converted to a Fraction once per table, and the terms are summed by
    :func:`add_ratio`, reduced once at the end.  A term with coefficient 1
    on a key no other term reaches keeps its Fraction as is: a first table
    with coefficient 1 and nothing to trim is copied whole.  When a second
    term reaches its key, the lone Fraction leaves ``acc`` as its integer
    sum with that term, and only these sums go through :func:`reduced_sums`.
    A term with coefficient -1 that meets its key's lone Fraction as the
    very same object cancels it with no arithmetic; an equal Fraction built
    apart is summed, and its zero dropped, as any other.  So ``a + b`` with
    no key shared costs a copy of ``a`` and one lookup per term of ``b``,
    and ``a - b`` a copy of ``a`` and a sum per term of ``b``, however large
    ``a`` is; a key both hold as one shared object costs one lookup.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("linear_combination needs at least one table")
    first = pairs[0][1]
    for _, t in pairs[1:]:
        first._check(t)
    cutoff = min(t.cutoff for _, t in pairs)
    grade = first._grade
    acc: dict = {}  # keys only one term has reached, with its Fraction
    sums: dict = {}  # the add_ratio sums of every other key
    for c, t in pairs:
        if not c:
            continue
        trim = t.cutoff > cutoff
        unit = c == 1
        if unit:
            if not (trim or acc or sums):
                acc = t.terms.copy()
                continue
            cn = cd = 1
        else:
            c = Fraction(c)
            cn, cd = c.numerator, c.denominator
        negated = cn == -1 and cd == 1
        for key, v in t.terms.items():
            if trim and grade(key) > cutoff:
                continue
            lone = acc.pop(key, None) if acc else None
            if negated and lone is v:
                continue
            n, d = cn * v.numerator, cd * v.denominator
            if lone is not None:
                sums[key] = [lone.numerator * d + n * lone.denominator,
                             lone.denominator * d]
            elif unit and key not in sums:
                acc[key] = v
            else:
                add_ratio(sums, key, n, d)
    acc.update(reduced_sums(sums))
    return first._wrap(acc, cutoff)


def add_ratio(acc: dict, key, n: int, d: int) -> None:
    """Add ``n/d`` to ``acc[key]``, an integer ``[numerator, denominator]``
    multiplied up only when the denominators differ."""
    s = acc.get(key)
    if s is None:
        acc[key] = [n, d]
    elif s[1] == d:
        s[0] += n
    else:
        s[0] = s[0] * d + n * s[1]
        s[1] *= d


def reduced_sums(acc: dict) -> dict:
    """The sums of :func:`add_ratio` as Fractions, each reduced once; a key
    whose numerator sums to 0 stores no term.

    Each sum ``[n, d]`` (``d > 0``) is divided by ``gcd(n, d)`` and its
    Fraction taken from the memo :func:`_ratio`, so equal values are mostly
    one shared object and a value met again costs no construction.  Equality
    never depends on that: a value built apart, unpickled, or rebuilt after
    the memo dropped it compares by value.
    """
    out = {}
    gcd = math.gcd
    for key, (n, d) in acc.items():
        if n:
            g = gcd(n, d)
            out[key] = _ratio(n // g, d // g)
    return out


@functools.lru_cache(maxsize=8192)
def _ratio(n: int, d: int) -> Fraction:
    """The interned ``Fraction(n, d)`` for a coprime pair with ``d > 0``:
    one object per value while it stays in the memo."""
    return Fraction(n, d)


# -- exp and log by the Euler grading ------------------------------------------

def _graded_pieces(g: GradedTable) -> dict[int, dict]:
    g._require_positive_grading()
    pieces: dict[int, dict] = {}
    for key, c in g.terms.items():
        pieces.setdefault(g._grade(key), {})[key] = c
    return pieces


def graded_exp(g: GradedTable, mul, one: GradedTable) -> GradedTable:
    """``exp(g)`` for a table ``g`` of positive grade on every term, where
    ``mul`` is a product of ``g``'s type that adds grades and ``one`` its
    unit.  Let D multiply a term of grade n by n.  It is a derivation, so
    ``D E = D(g) E`` for ``E = exp(g)``, which on graded pieces reads ``n
    E_n = sum_{k=1..n} k g_k E_(n-k)``: about one full product in all,
    where a sum of powers takes one product per power.
    """
    dg = {k: g._wrap(piece).scale(k)
          for k, piece in _graded_pieces(g).items()}
    pieces = {0: one}
    for n in range(1, g.cutoff + 1):
        products = [(Fraction(1, n), mul(dg_k, pieces[n - k]))
                    for k, dg_k in dg.items() if n - k in pieces]
        if products and (piece := linear_combination(products)):
            pieces[n] = piece
    return linear_combination((1, piece) for piece in pieces.values())


def graded_log(g: GradedTable, mul) -> GradedTable:
    """``log(1 + g)`` for ``g`` and ``mul`` as in :func:`graded_exp`:
    ``(1 + g) D L = D(g)`` for ``L = log(1 + g)`` reads ``(DL)_n = n g_n -
    sum_{k<n} g_(n-k) (DL)_k`` on graded pieces."""
    pieces = {k: g._wrap(piece) for k, piece in _graded_pieces(g).items()}
    dl: dict = {}
    for n in range(1, g.cutoff + 1):
        terms = [(n, pieces[n])] if n in pieces else []
        terms += [(-1, mul(pieces[n - k], dl_k))
                  for k, dl_k in dl.items() if n - k in pieces]
        if terms and (piece := linear_combination(terms)):
            dl[n] = piece
    # g at coefficient 0 sets the header and cutoff when every piece is 0
    return linear_combination(
        [(0, g)] + [(Fraction(1, n), piece) for n, piece in dl.items()])
