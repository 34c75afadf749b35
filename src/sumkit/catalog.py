"""Closed-form relative invariants of the model spaces.

These are the computable building blocks fed into the gluing formula: covers
of the sphere relative to one or two points, genus-one counts on the torus
and on the trivial elliptic fibration over the sphere, and rational ruled
surfaces relative to their zero and infinity sections.  Each entry is a
closed form fixed by a dimension count, so the values here double as a test
bed for the dimension bookkeeping in :mod:`sumkit.gluing`.  A relative value
takes its two ends as :class:`~sumkit.contacts.ContactMultiset` ends, the
form in which a :class:`~sumkit.gluing.RelKey` stores them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from sumkit.contacts import ContactMultiset, multiset_stats
from sumkit.gluing import (
    RelKey,
    RelSeries,
    riemann_surface_geometry,
    tw_from_gw,
)
from sumkit.series import Series, VariableContext


class CatalogError(ValueError):
    pass


def _point_counts(s: ContactMultiset, s_prime: ContactMultiset, deg: int,
                  deg_prime: int) -> tuple[int, int]:
    """Point counts of the two contact ends, whose degrees must be ``deg``
    and ``deg_prime``."""
    for end in (s, s_prime):
        if not isinstance(end, ContactMultiset):
            raise CatalogError(f"contact end {end!r} is not a ContactMultiset")
    ls, degs, _, _ = multiset_stats(s)
    lsp, degsp, _, _ = multiset_stats(s_prime)
    if (degs, degsp) != (deg, deg_prime):
        raise CatalogError(f"contact degrees ({degs}, {degsp}) must be "
                           f"({deg}, {deg_prime})")
    return ls, lsp


# -- covers of the sphere relative to two points ------------------------------

def p1_rel(d: int, g: int, s: ContactMultiset, s_prime: ContactMultiset
           ) -> Fraction:
    """Count of degree-``d`` covers of the sphere relative to two points.

    Nonzero only for genus 0 with a single point of full multiplicity over
    each end, where the ``z -> z^d`` cover contributes ``1/d``.
    """
    if d < 1:
        raise CatalogError("degree must be >= 1")
    ls, lsp = _point_counts(s, s_prime, d, d)
    if g == 0 and ls == 1 and lsp == 1:
        return Fraction(1, d)
    return Fraction(0)


def p1_rel_branch(d: int, g: int, s: ContactMultiset,
                  s_prime: ContactMultiset) -> Fraction:
    """Same count with one fixed simple branch point.

    The dimension count leaves genus 0 with three contact points in total;
    each such configuration contributes exactly 1.
    """
    if d < 1:
        raise CatalogError("degree must be >= 1")
    ls, lsp = _point_counts(s, s_prime, d, d)
    if g == 0 and ls + lsp == 3:
        return Fraction(1)
    return Fraction(0)


def p1_tw_series(cutoff: int) -> RelSeries:
    """Disconnected two-ended cover series of the sphere.

    Every contributing map is a disjoint union of full-multiplicity covers,
    so this equals the convolution identity on the degree bookkeeping and
    its scattering matrix is trivial.
    """
    geo = riemann_surface_geometry()
    terms = {}
    for d in range(1, cutoff + 1):
        end = ContactMultiset([((d, 0), 1)])
        terms[RelKey((d,), 2, (end, end))] = p1_rel(d, 0, end, end)
    return tw_from_gw(RelSeries(geo, 2, cutoff, terms))


# -- torus ---------------------------------------------------------------------

def torus_context() -> VariableContext:
    return VariableContext("t")


def torus_rel_series(cutoff: int) -> Series:
    """Genus-one cover counts of the torus relative to marked points.

    The count is independent of the number of relative points; it equals the
    divisor-sum generating function, the expansion ``sum_(d,k>=1) d t^(dk)``
    sieved on a list of Python ints: each ``d`` adds itself at its multiples.
    """
    coeffs = [0] * (cutoff + 1)
    for d in range(1, cutoff + 1):
        for n in range(d, cutoff + 1, d):
            coeffs[n] += d
    ctx = torus_context()
    return Series(ctx, cutoff,
                  {ctx.exponents({"t": n}): c for n, c in enumerate(coeffs)})


# -- the trivial elliptic fibration over the sphere -----------------------------

T2S2_FAMILIES = ("df-absolute", "df-relF", "s+df-absolute", "s+df-relF")


def t2s2_series(family: str, cutoff: int) -> Series:
    """Genus-one count series on the product of a torus and a sphere.

    Fiber classes: the absolute count is twice the relative one (covers of
    the zero and infinity fibers versus one of them).  Section-plus-fiber
    classes with two point constraints: the same with the divisor-sum series
    replaced by its derivative (the marked point moves on the fiber cover).
    """
    g = torus_rel_series(cutoff + 1)
    if family == "df-absolute":
        return g.truncate(cutoff) * 2
    if family == "df-relF":
        return g.truncate(cutoff)
    if family == "s+df-absolute":
        return g.differentiate("t") * 2
    if family == "s+df-relF":
        return g.differentiate("t")
    raise CatalogError(f"unknown family {family!r}; expected one of {T2S2_FAMILIES}")


def t2s2_two_fiber(family: str, constraint: str, cutoff: int) -> Series:
    """Counts relative to two fibers.

    Every count sits at the trivial refinement of the torus class.  For
    fiber classes everything vanishes; section-plus-fiber classes reproduce
    the one-fiber values, except that fixing both contact points kills them.
    """
    ctx = torus_context()
    if family not in ("df", "s+df"):
        raise CatalogError("family must be 'df' or 's+df'")
    if family == "df":
        return Series.zero(ctx, cutoff)
    if constraint == "p^2":
        return t2s2_series("s+df-absolute", cutoff)
    if constraint == "p;C1(p)":
        return t2s2_series("s+df-relF", cutoff)
    if constraint == "C1(p);C1(p)":
        return Series.zero(ctx, cutoff)
    raise CatalogError(f"unknown constraint {constraint!r}")


# -- rational ruled surfaces -----------------------------------------------------

def vanishing_filter(a: int, g: int, deg_alpha: int) -> bool:
    """Dimension filter for ruled-surface invariants: ``2a + g <= 1 + deg(alpha)``.

    Returns True when the invariant is allowed to be nonzero.
    """
    return 2 * a + g <= 1 + deg_alpha


def ruled_rel(n: int, a: int, b: int, g: int, s: ContactMultiset,
              s_prime: ContactMultiset, constraint: str = "none",
              contacts_fixed: bool = False) -> Fraction:
    """Relative invariants of the ruled surface with twisting index ``n``.

    The class is ``a*(zero section) + b*(fiber)``; ``s`` and ``s_prime`` are the
    contacts with the zero and infinity sections, of total multiplicity ``b``
    and ``b + n*a``.  Without constraints, only multiple fiber classes
    survive, with a single full-multiplicity contact at each end, value
    ``1/b`` on the section-class tensor (zero section on one side, infinity
    section on the other).  With one point constraint the fiber case
    contributes 1, and the section case (``a = 1``, genus 0) contributes 1
    once every contact point is held fixed.  Every nonzero value passes
    :func:`vanishing_filter`.
    """
    if n < 0:
        raise CatalogError("twisting index must be >= 0")
    ls, lsp = _point_counts(s, s_prime, b, b + n * a)
    fiber = a == 0 and g == 0 and ls == 1 and lsp == 1
    if constraint == "none":
        return Fraction(1, b) if fiber else Fraction(0)
    if constraint == "point":
        return Fraction(int(fiber or (a == 1 and g == 0 and contacts_fixed)))
    raise CatalogError(f"unknown constraint {constraint!r}")


# -- the addressable catalog ------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    producer: Callable[[int], object]


def _ruled_table(n: int) -> Callable[[int], list[dict]]:
    def produce(cutoff: int) -> list[dict]:
        rows = []
        for b in range(1, cutoff + 1):
            end = ContactMultiset([((b, 0), 1)])
            plain = ruled_rel(n, 0, b, 0, end, end, "none")
            point = ruled_rel(n, 0, b, 0, end, end, "point")
            rows.append({
                "class": f"{b}F",
                "unconstrained": str(plain),
                "tensor": bool(plain),
                "point": str(point),
            })
        sect = ruled_rel(n, 1, 0, 0, ContactMultiset(),
                         ContactMultiset([((1, 0), n)]), "point",
                         contacts_fixed=True)
        rows.append({
            "class": "S",
            "unconstrained": "0",
            "tensor": False,
            "point": str(sect),
        })
        return rows

    return produce


def catalog_entries() -> dict[str, CatalogEntry]:
    entries = {
        "p1": CatalogEntry(p1_tw_series),
        "torus": CatalogEntry(torus_rel_series),
        "t2xs2": CatalogEntry(lambda cutoff: {
            fam: t2s2_series(fam, cutoff) for fam in T2S2_FAMILIES}),
    }
    for n in range(0, 4):
        entries[f"ruled:{n}"] = CatalogEntry(_ruled_table(n))
    return entries
