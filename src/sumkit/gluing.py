"""Relative-count series and the gluing convolution algebra.

A :class:`RelSeries` is a coefficient table for curve counts relative to a
divisor: each key records a homology class (an integer vector), the Euler
characteristic of the domain, one contact multiset per divisor end, and an
opaque constraint tag.  Two products live on these tables:

* the *disjoint product*, under which classes and Euler characteristics add
  and contact multisets merge with binomial weights -- this is the product in
  which the disconnected-count series is the exponential of the
  connected-count series;

* the *convolution*, which glues the last end of one series to the first end
  of another.  The glued coefficient sums over contact multisets ``m`` with
  total multiplicity equal to the class pairing against the divisor, weighted
  by ``|m|/m!``, pairing one side against the dual basis expansion.  Euler
  characteristics combine as ``chi1 + chi2 - 2*len(m)``.

The fiber-cover series :func:`identity_element` is the convolution unit; the
scattering matrix of a two-ended series ``I + R`` is its convolution inverse,
computed as the alternating sum of convolution powers of ``R`` (a finite sum,
because every non-trivial term carries positive base grading).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Mapping

from sumkit.contacts import (
    ContactMultiset,
    IntersectionMatrix,
    glue_weights,
    multiset_stats,
)
from sumkit.series import (
    GradedTable,
    Series,
    VariableContext,
    add_ratio,
    graded_exp,
    graded_log,
    linear_combination,
    reduced_sums,
)

ClassKey = tuple[int, ...]


class GluingError(ValueError):
    pass


def _dot(vec: tuple[int, ...], key: ClassKey) -> int:
    if len(vec) != len(key):
        raise GluingError("class key has wrong dimension")
    return sum(map(mul, vec, key))


@dataclass(frozen=True)
class Geometry:
    """Linear bookkeeping data for one space relative to a divisor.

    ``class_dim`` is the length of the integer vectors naming homology
    classes.  ``v_degree`` and ``canonical_k`` are linear functionals (stored
    as coefficient vectors) giving the pairing of a class with the divisor
    and with the canonical class.  ``grading`` is the nonnegative functional
    used for truncation.  ``v_basis`` is the size of the divisor homology
    basis indexing contact points.  For spaces that serve as necks,
    ``fiber`` names the class of an irreducible fiber; it must pair to 1
    with the divisor.  Every size and every entry of a functional or of
    the fiber is an ``int``.
    """

    class_dim: int
    v_degree: tuple[int, ...]
    canonical_k: tuple[int, ...]
    grading: tuple[int, ...]
    v_basis: int = 1
    fiber: ClassKey | None = None

    def __post_init__(self):
        for name in ("class_dim", "v_basis"):
            size = getattr(self, name)
            if type(size) is not int:
                raise GluingError(f"{name} must be an int, got {size!r}")
        for name in ("v_degree", "canonical_k", "grading", "fiber"):
            vec = getattr(self, name)
            if vec is None:  # a geometry without a fiber
                continue
            if len(vec) != self.class_dim:
                raise GluingError(f"{name} has wrong dimension")
            if any(type(x) is not int for x in vec):
                raise GluingError(f"{name} must hold ints, got {vec!r}")
        if self.fiber is not None and _dot(self.v_degree, self.fiber) != 1:
            raise GluingError("fiber class must pair to 1 with the divisor")

    def pair_v(self, key: ClassKey) -> int:
        return _dot(self.v_degree, key)

    def pair_k(self, key: ClassKey) -> int:
        return _dot(self.canonical_k, key)

    def grade(self, key: ClassKey) -> int:
        return _dot(self.grading, key)

    def zero_key(self) -> ClassKey:
        return (0,) * self.class_dim

    def add(self, k1: ClassKey, k2: ClassKey) -> ClassKey:
        return tuple(a + b for a, b in zip(k1, k2))


def neck_geometry(base_dim: int = 1, v_basis: int = 1) -> Geometry:
    """Standard two-ended model: classes ``(fiber multiple, base part)``.

    The first coordinate counts fiber multiples (it pairs to 1 with the
    divisor and is absorbed when gluing); the remaining ``base_dim``
    coordinates are base classes whose grading drives truncation.
    """
    dim = 1 + base_dim
    return Geometry(
        class_dim=dim,
        v_degree=(1,) + (0,) * base_dim,
        canonical_k=(-2,) + (0,) * base_dim,
        grading=(1,) * dim,
        v_basis=v_basis,
        fiber=(1,) + (0,) * base_dim,
    )


def riemann_surface_geometry() -> Geometry:
    """Degree bookkeeping for covers of a sphere relative to points."""
    return Geometry(class_dim=1, v_degree=(1,), canonical_k=(-2,),
                    grading=(1,), v_basis=1, fiber=(1,))


# -- constraint tags ---------------------------------------------------------

def _tag_power(atom: str) -> tuple[str, int]:
    """A tag atom as ``(base, count)``: ``base^n`` for a decimal ``n`` and a
    nonblank base, else the stripped atom once."""
    base, hat, mult = atom.strip().rpartition("^")
    if hat and mult.isdecimal() and base.rstrip():
        return base.rstrip(), int(mult)
    return atom.strip(), 1


def tag_mul(t1: str, t2: str) -> str:
    """Commutative product of constraint tags.

    Tags are canonical strings: semicolon-joined sorted atoms, repeated atoms
    contracted to ``atom^count``; a blank atom, an atom whose count is 0,
    and the unit tag ``"1"`` at any power are dropped.  A base that reads
    as a power keeps its ``^1``, so a canonical ``t`` is its own product
    with ``"1"``.
    """
    counts: dict[str, int] = {}
    for base, n in map(_tag_power, f"{t1};{t2}".split(";")):
        counts[base] = counts.get(base, 0) + n
    parts = [atom if n == 1 and _tag_power(atom) == (atom, 1)
             else f"{atom}^{n}" for atom, n in sorted(counts.items())
             if n and atom not in ("", "1")]
    return ";".join(parts) or "1"


def _check_chi(chi) -> None:
    if type(chi) is not int:
        raise GluingError(f"Euler characteristic must be an int, got {chi!r}")
    if chi % 2:
        raise GluingError("Euler characteristic must be even")


def _check_class(class_key) -> None:
    if type(class_key) is not tuple or {*map(type, class_key)} - {int}:
        raise GluingError(f"class key {class_key!r} must hold ints in a tuple")


@dataclass(frozen=True, order=True, init=False)
class RelKey:
    """Index of one coefficient: class, Euler characteristic, contacts, tag.

    Every way of building a key (the constructor, :func:`_live_key`,
    ``dataclasses.replace``, pickling, ``copy``) returns the one live key
    of its value, kept in :data:`_LIVE_KEYS` for the life of the process,
    as a multiset is kept in ``contacts._LIVE_MULTISETS``, so equal keys
    are the same object and the hash is the identity hash, a pointer read.
    Equality still compares the fields.  The tag is stored canonical, so
    every spelling of one product of atoms is one key.  The constructor
    checks the structure before the table is read: the class a tuple of
    ``int``, ``chi`` an even ``int`` (so ``1.0`` or ``True`` never finds the
    key of ``1``), and the contacts a tuple of live
    :class:`~sumkit.contacts.ContactMultiset` (a plain tuple equal to a
    multiset would hash apart from it).
    """

    class_key: ClassKey
    chi: int
    contacts: tuple[ContactMultiset, ...]
    tag: str = "1"

    __hash__ = object.__hash__

    def __new__(cls, class_key: ClassKey, chi: int,
                contacts: tuple[ContactMultiset, ...], tag: str = "1"):
        if type(tag) is not str:
            raise GluingError(f"tag must be a str, got {tag!r}")
        # equal products of atoms are one key, however the tag was written
        tag = tag_mul(tag, "1")
        _check_chi(chi)
        _check_class(class_key)
        if type(contacts) is not tuple:
            raise GluingError(f"contacts {contacts!r} must be a tuple")
        for m in contacts:
            if not isinstance(m, ContactMultiset):
                raise GluingError(f"contact {m!r} is not a ContactMultiset")
        return _live_key((class_key, chi, contacts, tag))

    def __reduce__(self):
        # rebuild through the constructor: the copy is the live key
        return RelKey, (self.class_key, self.chi, self.contacts, self.tag)

    def to_json(self) -> dict:
        return {
            "class": list(self.class_key),
            "chi": self.chi,
            "contacts": [m.to_string() for m in self.contacts],
            "tag": self.tag,
        }


# The live key of each field tuple, kept for the life of the process, as
# contacts._LIVE_MULTISETS keeps each multiset.  dict.get and
# dict.setdefault are each atomic, so concurrent builders of one value all
# get the first one stored.
_LIVE_KEYS: dict[tuple, RelKey] = {}


def _live_key(fields: tuple) -> RelKey:
    """The one live key of ``fields``, a valid ``(class_key, chi,
    contacts, tag)`` tuple with its tag canonical: the only writer of
    :data:`_LIVE_KEYS`.  The constructor calls it after its checks; the
    keys the algebra builds (products, units, fiber covers) skip them, as
    their fields are valid by construction once :func:`_glue_pairs` has
    checked each class a caller's glue map returns."""
    key = _LIVE_KEYS.get(fields)
    if key is None:
        key = object.__new__(RelKey)
        # Keyword arguments, not zip(names, fields): filling the __dict__
        # from pairs gave a larger, apparently split-keys dict (288 against
        # 184 bytes) whose field reads were about 3x slower, and in-process
        # scatter passes ran 7.7% slower.
        vars(key).update(class_key=fields[0], chi=fields[1],
                         contacts=fields[2], tag=fields[3])
        key = _LIVE_KEYS.setdefault(fields, key)
    return key


class RelSeries(GradedTable):
    """Truncated table of relative curve counts.

    Keys are :class:`RelKey` values graded by their class.  The constructor
    checks that ``end_count`` is 0, 1 or 2 and that each key is a
    :class:`RelKey` (whose class holds ints, as its constructor checks)
    with ``end_count`` contact multisets, a class of the geometry's
    dimension, on each end ``deg(contacts) == pair_v(class)``, and every
    contact label below ``v_basis``, and then the terms as every
    :class:`~sumkit.series.GradedTable` does.  :func:`convolve` accepts any
    ``glue`` map, so it still checks each glued class, once per pair of
    input classes that has a pair of terms meeting.
    """

    __slots__ = ("geometry", "end_count")
    _HEADER = ("geometry", "end_count")
    _Error = _Mismatch = GluingError

    def __init__(self, geometry: Geometry, end_count: int, cutoff: int,
                 terms: Mapping[RelKey, Fraction | int] | None = None):
        if type(end_count) is not int or end_count not in (0, 1, 2):
            raise GluingError(
                f"end_count must be the int 0, 1 or 2, got {end_count!r}")
        super().__init__(geometry, end_count, cutoff, terms)

    def _header(self) -> tuple:
        return self.geometry, self.end_count

    def _grade(self, key: RelKey) -> int:
        return self.geometry.grade(key.class_key)

    def _check_key(self, key) -> RelKey:
        if not isinstance(key, RelKey):
            raise GluingError(f"key {key!r} is not a RelKey")
        geometry = self.geometry
        if len(key.contacts) != self.end_count:
            raise GluingError("key has wrong number of ends")
        # pair_v checks the dimension of the class
        deg_v = geometry.pair_v(key.class_key)
        for m in key.contacts:
            if m.degree != deg_v:
                raise GluingError(f"contact degree {m.degree} != class "
                                  f"pairing {deg_v} for key {key}")
            for (a, i), _ in m:
                if i >= geometry.v_basis:
                    raise GluingError(
                        f"contact label ({a}, {i}) is outside the "
                        f"divisor basis, v_basis={geometry.v_basis}, "
                        f"for key {key}")
        return key

    @staticmethod
    def _empty_key(geometry: Geometry, end_count: int) -> RelKey:
        return _live_key((geometry.zero_key(), 0,
                          (ContactMultiset(),) * end_count, "1"))

    def __repr__(self):
        return (f"RelSeries(ends={self.end_count}, cutoff={self.cutoff}, "
                f"terms={len(self.terms)})")

    # -- the disjoint (disconnected-union) product ---------------------------

    def disjoint_mul(self, other: "RelSeries") -> "RelSeries":
        """Product under disjoint union of curves.

        Classes and Euler characteristics add, tags multiply, and contact
        multisets merge; merging multiplies by the binomial count of ways to
        split the merged multiset, matching the divided-power normalization
        of the coefficient tables.
        """
        self._check(other)
        cutoff = min(self.cutoff, other.cutoff)
        geo = self.geometry
        acc: dict = {}
        right = [(k2, geo.grade(k2.class_key), *c2.as_integer_ratio())
                 for k2, c2 in other.terms.items()]
        for k1, c1 in self.terms.items():
            g1 = geo.grade(k1.class_key)
            n1, d1 = c1.as_integer_ratio()
            for k2, g2, n2, d2 in right:
                if g1 + g2 > cutoff:
                    continue
                contacts, weight = (), n1 * n2
                for a, b in zip(k1.contacts, k2.contacts):
                    merged, split = a.merge(b)
                    contacts, weight = contacts + (merged,), weight * split
                # stored tags are canonical: a unit factor leaves the other
                t1, t2 = k1.tag, k2.tag
                tag = t2 if t1 == "1" else t1 if t2 == "1" else tag_mul(t1, t2)
                fields = (geo.add(k1.class_key, k2.class_key),
                          k1.chi + k2.chi, contacts, tag)
                add_ratio(acc, _live_key(fields), weight, d1 * d2)
        return self._wrap(reduced_sums(acc), cutoff)


def tw_from_gw(gw: RelSeries) -> RelSeries:
    """Disconnected counts from connected ones: the disjoint-product exponential."""
    return graded_exp(gw, RelSeries.disjoint_mul)


def gw_from_tw(tw: RelSeries) -> RelSeries:
    """Connected counts from disconnected ones: the disjoint-product logarithm."""
    return graded_log(tw, RelSeries.disjoint_mul)


# -- convolution --------------------------------------------------------------

GlueMap = Callable[[ClassKey, ClassKey, int], ClassKey]


def make_neck_glue(fiber: ClassKey) -> GlueMap:
    """Componentwise sum with the matched fiber multiples absorbed."""

    def glue(k1: ClassKey, k2: ClassKey, deg_m: int) -> ClassKey:
        return tuple([a + b - deg_m * f for a, b, f in zip(k1, k2, fiber)])

    return glue


def _default_glue(x: RelSeries, y: RelSeries) -> GlueMap:
    if x.geometry == y.geometry and x.geometry.fiber is not None:
        return make_neck_glue(x.geometry.fiber)
    raise GluingError("no default glue map for these geometries; pass glue=")


def _convolution_frame(x: RelSeries, y: RelSeries, q: IntersectionMatrix,
                       glue: GlueMap | None, out_geometry: Geometry | None
                       ) -> tuple[GlueMap, Geometry, int, int]:
    """Check the factors of a convolution and settle its glue map, output
    geometry, end count and cutoff (``end_count <= 2`` on each factor
    keeps the output's at most 2)."""
    if x.end_count < 1 or y.end_count < 1:
        raise GluingError("both factors need an end to glue")
    if x.geometry.v_basis != y.geometry.v_basis or x.geometry.v_basis != q.size:
        raise GluingError("divisor basis sizes do not match the pairing")
    if glue is None:
        glue = _default_glue(x, y)
    if out_geometry is None:
        if x.geometry == y.geometry:
            out_geometry = x.geometry
        else:
            raise GluingError("pass out_geometry when gluing across geometries")
    return (glue, out_geometry, (x.end_count - 1) + (y.end_count - 1),
            min(x.cutoff, y.cutoff))


def convolve(x: RelSeries, y: RelSeries, q: IntersectionMatrix, *,
             glue: GlueMap | None = None,
             out_geometry: Geometry | None = None) -> RelSeries:
    """Glue the last end of ``x`` to the first end of ``y``.

    The coefficient of an output key sums ``(|m|/m!) * x(..., m) *
    y(dual(m), ...)`` over contact multisets ``m`` whose total multiplicity
    matches the divisor pairing of the class on each side; the dual
    expansion splits the divisor diagonal through ``q``.  Euler
    characteristics combine as ``chi1 + chi2 - 2*len(m)``.

    ``glue`` maps the two class keys (and the matched multiplicity) to the
    output class key; by default, on one shared geometry with a fiber, keys
    add with the matched fiber multiples absorbed (the neck glue), and any
    other pair of geometries must pass ``glue``.

    Only pairs of terms that glue are visited: ``y`` is indexed by its
    first end, and one pass over ``x`` looks up, for each term, the duals
    of its last end in the :func:`~sumkit.contacts.glue_weights` table of
    its degree, then the ``y`` terms that start on one of them; an ``x``
    class whose degree no class of ``y`` has is skipped.  The glued class
    of an ``(x class, y class)`` pair is worked out and checked once, when
    the first of its term pairs is reached, so a pair none of whose terms
    meet is never glued.

    Each call indexes ``y`` afresh, by :func:`_first_end_index`.  The
    ladders that glue against one fixed right factor again and again index
    it once and call the pair loop :func:`_glue_pairs` themselves: the
    powers of :func:`s_matrix` index ``R`` once per call, and the neck
    steps of :func:`_neck_step` index ``twf`` once, in :func:`_neck_index`.
    """
    frame = _convolution_frame(x, y, q, glue, out_geometry)
    return _glue_pairs(x, _first_end_index(y), q, *frame)


FirstEndIndex = tuple[dict[ContactMultiset, list[tuple[RelKey, int, int]]],
                      set[int]]


def _first_end_index(y: RelSeries) -> FirstEndIndex:
    """The right factor of a convolution, indexed for :func:`_glue_pairs`.

    Each term of ``y`` as ``(key, numerator, denominator)``, grouped by its
    first end, and the set of divisor degrees of ``y``'s classes; the left
    factor needs no index.  The index holds only what it reads off ``y``,
    nothing of a pairing or of the glue weights, and no caller changes it
    after it is built.
    """
    index: dict[ContactMultiset, list[tuple[RelKey, int, int]]] = {}
    for k, c in y.terms.items():
        index.setdefault(k.contacts[0], []).append((k, *c.as_integer_ratio()))
    return index, {y.geometry.pair_v(ay)
                   for ay in {k.class_key for k in y.terms}}


def _glue_pairs(x: RelSeries, indexed: FirstEndIndex, q: IntersectionMatrix,
                glue: GlueMap, out_geometry: Geometry, out_ends: int,
                cutoff: int) -> RelSeries:
    """The pair loop of :func:`convolve`: glue ``x`` against the indexed
    right factor, under the frame that :func:`_convolution_frame` settled
    for the two factors, in one pass over the terms of ``x`` in any order.
    The dual weights are read from :func:`~sumkit.contacts.glue_weights`
    once per ``x`` class on each call."""
    y_index, y_degrees = indexed
    pair_v = x.geometry.pair_v
    # per x class: None when no y class has its degree (it meets no first
    # end of y), else its degree, its weights and the glued class per y
    # class met so far, None past the cutoff
    states: dict[ClassKey, tuple | None] = {}
    tags: dict[tuple[str, str], str] = {}
    # an integer numerator and denominator per key, reduced once at the end
    acc: dict[RelKey, list[int]] = {}
    # Every surviving end has degree deg_m, because x and y are valid; the
    # glued class is checked against it once per class pair.
    trusted = True
    for kx, c in x.terms.items():
        ax = kx.class_key
        state = states.get(ax, False)
        if state is False:
            deg_m = pair_v(ax)
            state = states[ax] = ((deg_m, glue_weights(deg_m, q), {})
                                  if deg_m in y_degrees else None)
        if state is None:
            continue
        deg_m, weights, out_classes = state
        length, duals = weights[kx.contacts[-1]]
        xn, xd = c.as_integer_ratio()
        head, chi, tx = kx.contacts[:-1], kx.chi - 2 * length, kx.tag
        for m_dual, wn, wd in duals:
            right = y_index.get(m_dual)
            if right is None:
                continue
            cwn, cwd = wn * xn, wd * xd
            for ky, yn, yd in right:
                ay = ky.class_key
                out_class = out_classes.get(ay, False)
                if out_class is False:
                    # a class of non-ints would be stored as the live key
                    # of its int twin; grade() also checks the dimension
                    out_class = glue(ax, ay, deg_m)
                    _check_class(out_class)
                    grade = out_geometry.grade(out_class)
                    if grade > cutoff:
                        out_class = None
                    elif grade < 0 or (
                            out_ends
                            and out_geometry.pair_v(out_class) != deg_m):
                        trusted = False
                    out_classes[ay] = out_class
                if out_class is None:
                    continue
                # stored tags are canonical: a unit factor leaves the other
                tag = ky.tag if tx == "1" else tx if ky.tag == "1" else (
                    tags.get((tx, ky.tag))
                    or tags.setdefault((tx, ky.tag), tag_mul(tx, ky.tag)))
                fields = (out_class, chi + ky.chi, head + ky.contacts[1:], tag)
                add_ratio(acc, _live_key(fields), cwn * yn, cwd * yd)
    out = reduced_sums(acc)
    if not trusted:
        # a bad glued class is an error only if one of its terms survives;
        # the validating constructor raises for the first such term
        return RelSeries(out_geometry, out_ends, cutoff, out)
    return RelSeries._trusted(out_geometry, out_ends, cutoff, out)


def convolve_via_operator(x: RelSeries, y: RelSeries,
                          q: IntersectionMatrix) -> RelSeries:
    """Convolution computed through the bilinear differential operator.

    Packs the glued-end contacts of each side into divided-power polynomial
    generating functions in variables ``z(a,i)`` and ``w(a,j)``, applies the
    exponential of ``sum a * q[i][j] * d/dz(a,i) d/dw(a,j)`` to their
    product, and reads off the constant term, with each operator application
    accounting for one glued contact in the Euler characteristic.  Must agree
    exactly with :func:`convolve` under its default glue map and output
    geometry; the two paths share no weight bookkeeping.
    """
    glue, out_geometry, out_ends, cutoff = _convolution_frame(
        x, y, q, None, None)
    basis = q.size

    # Group terms by everything except the glued-end multiset.
    def group(series: RelSeries, end: int):
        grouped: dict[tuple, dict[ContactMultiset, Fraction]] = {}
        for k, c in series.terms.items():
            outer = k.contacts[:end] + k.contacts[end + 1:]
            rest = (k.class_key, k.chi, outer, k.tag)
            grouped.setdefault(rest, {})[k.contacts[end]] = c
        return grouped

    gx = group(x, x.end_count - 1)
    gy = group(y, 0)

    max_deg = max((x.geometry.pair_v(ax) for ax, _, _, _ in gx), default=0)
    # weight-0 variables: these polynomials are exact, never truncated
    ctx = VariableContext(*[(f"{side}{a}_{i}", 0) for side in "zw"
                            for a in range(1, max_deg + 1)
                            for i in range(basis)] or [("z1_0", 0)])

    def packed(table: Mapping[ContactMultiset, Fraction], prefix: str) -> Series:
        # distinct multisets are distinct monomials: nothing to sum
        return Series(ctx, 0, {
            ctx.exponents({f"{prefix}{a}_{i}": n for (a, i), n in m}):
                Fraction(c, multiset_stats(m)[3])
            for m, c in table.items()})

    out: dict[RelKey, Fraction] = {}
    zero_exps = (0,) * len(ctx)
    for (ax, chi_x, outer_x, tag_x), table_x in gx.items():
        deg_m = x.geometry.pair_v(ax)
        fx = packed(table_x, "z")
        for (ay, chi_y, outer_y, tag_y), table_y in gy.items():
            if y.geometry.pair_v(ay) != deg_m:
                continue
            out_class = glue(ax, ay, deg_m)
            if out_geometry.grade(out_class) > cutoff:
                continue
            p = fx * packed(table_y, "w")
            k = 0
            while not p.is_zero():
                c0 = p.terms.get(zero_exps)
                if c0:
                    key = RelKey(out_class, chi_x + chi_y - 2 * k,
                                 outer_x + outer_y, tag_mul(tag_x, tag_y))
                    out[key] = out.get(key, Fraction(0)) + c0
                # apply the bilinear operator once and divide by the new
                # count; p at coefficient 0 keeps the header if no step is left
                k += 1
                p = linear_combination([(0, p)] + [
                    (a * q[i, j] / k, dzi.differentiate(f"w{a}_{j}"))
                    for a in range(1, deg_m + 1) for i in range(basis)
                    if (dzi := p.differentiate(f"z{a}_{i}"))
                    for j in range(basis) if q[i, j]])
    return RelSeries(out_geometry, out_ends, cutoff, out)


# -- scattering ---------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def identity_element(geometry: Geometry, q: IntersectionMatrix,
                     cutoff: int) -> RelSeries:
    """The convolution unit: the disconnected series of plain fiber covers.

    A multiplicity-``a`` cover of a fiber meets each divisor copy once with
    multiplicity ``a``, contributes Euler characteristic 2, and carries the
    inverse pairing on its two contact labels, weighted ``1/a``.  Convolving
    with the resulting disconnected series leaves any series unchanged.
    """
    if geometry.fiber is None:
        raise GluingError("identity element needs a geometry with a fiber class")
    if q.size != geometry.v_basis:
        raise GluingError("pairing size does not match the divisor basis")
    qinv = q.inverse()
    fiber_grade = geometry.grade(geometry.fiber)
    if fiber_grade < 1:
        raise GluingError("fiber class must have positive grading")
    terms: dict[RelKey, Fraction] = {}
    a = 1
    while a * fiber_grade <= cutoff:
        class_key = tuple(a * f for f in geometry.fiber)
        ends = [ContactMultiset([((a, i), 1)]) for i in range(q.size)]
        for i in range(q.size):
            for j in range(q.size):
                w = qinv[i, j]
                if not w:
                    continue
                key = _live_key((class_key, 2, (ends[i], ends[j]), "1"))
                terms[key] = Fraction(1, a) * w
        a += 1
    gw = RelSeries(geometry, 2, cutoff, terms)
    return tw_from_gw(gw)


def s_matrix(twf: RelSeries, q: IntersectionMatrix) -> RelSeries:
    """Convolution inverse of a two-ended series of the form unit + R.

    ``R`` must have strictly positive base grading on every term (true of
    every non-fiber contribution), which makes its convolution powers vanish
    at the cutoff; the inverse is the alternating sum of those powers,
    reduced once by :func:`~sumkit.series.linear_combination`.  The first
    power is ``R`` itself (the unit law), so the sum convolves once per
    further power: once when ``R * R`` vanishes, ``k`` times when
    ``R^(k+1)`` is the first zero power.  Each power is ``R^(k-1) * R``,
    so ``R``, the fixed right factor, is indexed by its first end once
    per call, not once per power, and kept in no memo.
    """
    if twf.end_count != 2:
        raise GluingError("scattering input must be two-ended")
    ident = identity_element(twf.geometry, q, twf.cutoff)
    # the unit's keys cancel, by identity where twf shares its coefficients
    r = linear_combination([(1, twf), (-1, ident)])
    # identity_element has checked that the geometry has a fiber; the base
    # grading is the grading with the fiber direction projected out
    geo = twf.geometry
    fiber_grade = geo.grade(geo.fiber)
    for key in r.terms:
        ak = key.class_key
        if geo.grade(ak) - geo.pair_v(ak) * fiber_grade < 1:
            raise GluingError(
                "series does not have unit fiber part: residual term "
                f"{key} lacks positive base grading"
            )
    pairs = [(1, ident)]
    power, sign = r, -1
    # every power has the geometry, ends and cutoff of r: one frame, one index
    frame = _convolution_frame(r, r, q, None, None)
    r_index = _first_end_index(r)
    while not power.is_zero():
        # pairs holds R^0..R^(k-1) when power is R^k
        if len(pairs) > twf.cutoff:
            raise GluingError("residual part is not nilpotent at this cutoff")
        pairs.append((sign, power))
        power, sign = _glue_pairs(power, r_index, q, *frame), -sign
    return linear_combination(pairs)


@functools.lru_cache(maxsize=2)
def _neck_index(twf: RelSeries) -> FirstEndIndex:
    """The first-end index of a neck series ``twf``, which every convolved
    step of :func:`_neck_step` takes as its right factor.  A neck sum has
    one ``twf`` in flight, so two entries are enough."""
    return _first_end_index(twf)


@functools.lru_cache(maxsize=16)
def _neck_step(twf: RelSeries, k: int, q: IntersectionMatrix) -> RelSeries:
    """The step ``D_k = T^k - T^(k-1)`` for ``k >= 1``, where ``T = twf``
    under convolution and ``T^0`` is the unit.

    ``D_1 = T - unit`` is one sum.  ``D_2 = T * T - T`` is the one full
    convolution.  Past it, ``D_k = D_(k-1) * T``, which is exact because
    convolution is linear in its left factor: ``D_(k-1) * T = T^k -
    T^(k-1)``.  A step holds only what the unit does not, so each step past
    the second costs one small convolution, and no power ``T^k`` is kept.
    ``D_1`` enters only the sum of :func:`neck_identity`, never a
    convolution: the unit's own products stay inside ``T * T``, and every
    convolved step is a difference of powers of the full ``twf``.
    ``T * T`` and every ``D_(k-1) * T`` glue against one first-end index
    of ``twf``, kept in :func:`_neck_index`, so ``twf`` is indexed once
    per neck series, not once per step.
    """
    if k == 1:
        return linear_combination(
            [(1, twf), (-1, identity_element(twf.geometry, q, twf.cutoff))])
    left = twf if k == 2 else _neck_step(twf, k - 1, q)
    glued = _glue_pairs(left, _neck_index(twf), q,
                        *_convolution_frame(left, twf, q, None, None))
    if k == 2:
        return linear_combination([(1, glued), (-1, twf)])
    return glued


def neck_identity(twf: RelSeries, n: int, q: IntersectionMatrix) -> RelSeries:
    """Alternating binomial sum of convolution powers from an n-fold neck cut.

    Evaluates ``sum_{k=1..2n} c_k * T^(k-1)`` under convolution, where
    ``T = twf`` and ``c_k = (-1)^(k-1) C(2n, k)``.  When the residual square
    vanishes at the cutoff this equals the scattering matrix for every
    ``n >= 1``.  The sum is regrouped through the steps ``D_i = T^i -
    T^(i-1)`` of :func:`_neck_step`: since ``T^j = unit + sum_{i=1..j}
    D_i``, ``sum_k c_k = 1`` and ``sum_{k>i} c_k = (-1)^i C(2n-1, i)``, it
    equals ``unit + sum_{i=1..2n-1} (-1)^i C(2n-1, i) * D_i``, reduced once
    by :func:`~sumkit.series.linear_combination`.  The unit comes first
    with coefficient 1, so it is copied whole, and every other table is a
    step, which holds only what the unit does not.  The memo is shared, so
    the sums for ``n = 1..5`` on one series hold the steps ``D_1..D_9`` and
    convolve 8 times, for ``D_2..D_9``; ``n = 1`` convolves nothing.  Each
    of those convolutions has ``twf`` as its right factor, indexed once
    for all of them in :func:`_neck_index`.
    ``D_1 = twf - unit`` enters only the sum; every convolved term is a
    power of the full ``twf`` or a difference of two, never of its residual:
    the sum stays an independent route to the inverse that :func:`s_matrix`
    computes.
    """
    if type(n) is not int or n < 1:
        raise GluingError(f"neck count must be an int >= 1, got {n!r}")
    if twf.end_count != 2:
        raise GluingError("scattering input must be two-ended")
    return linear_combination(
        [(1, identity_element(twf.geometry, q, twf.cutoff))]
        + [((-1) ** i * math.comb(2 * n - 1, i), _neck_step(twf, i, q))
           for i in range(1, 2 * n)])


# -- dimension bookkeeping ----------------------------------------------------

def moduli_dimension(geometry: Geometry, class_key: ClassKey, chi: int,
                     n_points: int, ends: tuple[ContactMultiset, ...],
                     dim_x: int) -> int:
    """Expected real dimension of the space of relative maps.

    ``-2 K[A] + (chi/2)(dim X - 6) + 2 n - 2 (deg s - len s)`` where ``s``
    runs over all contact points of ``ends`` together and ``chi`` is the
    Euler characteristic of the domain.  Each contact of multiplicity ``a``
    cuts the dimension by ``2(a - 1)``.  ``chi`` must be an even ``int``,
    and ``n_points`` and ``dim_x`` must be ``int``.
    """
    _check_chi(chi)
    if type(n_points) is not int or type(dim_x) is not int:
        raise GluingError(f"n_points {n_points!r} and dim_x {dim_x!r} "
                          "must be ints")
    for m in ends:
        if not isinstance(m, ContactMultiset):
            raise GluingError(f"contact {m!r} is not a ContactMultiset")
    return (-2 * geometry.pair_k(class_key)
            + (chi * (dim_x - 6)) // 2
            + 2 * n_points
            - 2 * sum((a - 1) * n for m in ends for (a, _), n in m))


# -- serialization -------------------------------------------------------------

def relseries_to_json(series: RelSeries) -> list[dict]:
    """One row per term, in canonical key order, its coefficient ``p/q``."""
    return [
        dict(series_key.to_json(),
             coeff=f"{series.terms[series_key].numerator}/"
                   f"{series.terms[series_key].denominator}")
        for series_key in series.sorted_keys()
    ]
