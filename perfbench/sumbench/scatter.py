"""The ``scatter`` workload: the gluing algebra run in-process.

Inputs are seeded random relative series built only from sumkit's public
API.  Every operation is checked exactly:

* ``inverse``: a general two-ended series ``I + R``; its scattering matrix
  ``s`` must satisfy ``s * twf == I == twf * s`` under convolution.
* ``neck``: a square-zero residual (every term has base grading above half
  the cutoff); the neck sums ``neck_identity(twf, n)`` must equal ``s`` for
  ``n = 1..5``.
* ``routes``: two one-ended series glued by enumeration and through the
  differential operator, under a non-diagonal pairing; they must agree.
* ``roundtrip``: ``gw_from_tw(tw_from_gw(x)) == x``.

The pool is built in blocks, each holding two ``inverse`` ops and one
``neck`` op per cutoff 4, 5 and 6 plus one ``routes`` and one
``roundtrip`` op, shuffled within the block.  So every seed gives the same
mix of kinds and cutoffs and differs in the series themselves, and a run,
which always ends on a block boundary, covers the mix exactly.  Two
``inverse`` ops per cutoff put a run's median op at the third quartile of
the ``inverse`` ops at cutoff 5, two ops in every eleven, so that the
median rests on many ops of one kind and hardly moves with the seed.  A
run that outlasts the pool starts over at its first block.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from sumkit import gluing
from sumkit.contacts import IntersectionMatrix, enumerate_multisets
from sumkit.gluing import RelKey, RelSeries

CUTOFFS = (4, 5, 6)
ROUTES_CUTOFF = 4
INVERSE_PER_CUTOFF = 2
BLOCK_OPS = len(CUTOFFS) * (INVERSE_PER_CUTOFF + 1) + 2
BLOCKS = 64
NECK_COUNTS = range(1, 6)
_NONZERO = (-4, -3, -2, -1, 1, 2, 3, 4)


def geometry() -> gluing.Geometry:
    return gluing.neck_geometry(base_dim=1, v_basis=2)


def pairing() -> IntersectionMatrix:
    return IntersectionMatrix.sphere_pairing()


def routes_pairing() -> IntersectionMatrix:
    return IntersectionMatrix([[0, 1], [1, Fraction(1, 2)]])


def _coefficient(rng: random.Random) -> Fraction:
    return Fraction(rng.choice(_NONZERO), rng.randint(1, 4))


def two_ended(rng: random.Random, geo: gluing.Geometry, cutoff: int,
              min_base: int) -> RelSeries:
    """Two to four terms, each with base grading at least ``min_base``."""
    n_terms = rng.randint(2, 4)
    terms: dict[RelKey, Fraction] = {}
    while len(terms) < n_terms:
        fiber = rng.randint(0, min(2, cutoff - min_base))
        base = rng.randint(min_base, cutoff - fiber)
        choices = enumerate_multisets(fiber, geo.v_basis)
        key = RelKey((fiber, base), 2 * rng.randint(-1, 1),
                     (rng.choice(choices), rng.choice(choices)))
        terms[key] = _coefficient(rng)
    return RelSeries(geo, 2, cutoff, terms)


def one_ended(rng: random.Random, geo: gluing.Geometry,
              cutoff: int) -> RelSeries:
    """Two to six tagged terms with fiber part up to 3 and base up to 2."""
    n_terms = rng.randint(2, 6)
    terms: dict[RelKey, Fraction] = {}
    while len(terms) < n_terms:
        fiber = rng.randint(0, 3)
        base = rng.randint(0, min(2, cutoff - fiber))
        choices = enumerate_multisets(fiber, geo.v_basis)
        key = RelKey((fiber, base), 2 * rng.randint(-1, 1),
                     (rng.choice(choices),), rng.choice(("1", "p", "q")))
        terms[key] = _coefficient(rng)
    return RelSeries(geo, 1, cutoff, terms)


@dataclass
class Op:
    kind: str                       # inverse, neck, routes or roundtrip
    cutoff: int
    x: RelSeries
    y: RelSeries | None = None
    expected: RelSeries | None = None   # the convolution unit, for inverse


@dataclass
class State:
    blocks: list[list[Op]]
    q: IntersectionMatrix
    q_routes: IntersectionMatrix

    @property
    def ops(self) -> list[Op]:
        return [op for block in self.blocks for op in block]


def setup(seed: int) -> State:
    """Fill the identity-element memo and build the seeded pool."""
    geo, q = geometry(), pairing()
    units = {c: gluing.identity_element(geo, q, c) for c in CUTOFFS}
    rng = random.Random(seed)
    blocks: list[list[Op]] = []
    for block in range(BLOCKS):
        chunk = []
        for cutoff in CUTOFFS:
            unit = units[cutoff]
            for _ in range(INVERSE_PER_CUTOFF):
                chunk.append(Op("inverse", cutoff,
                                unit + two_ended(rng, geo, cutoff, 1),
                                expected=unit))
            chunk.append(Op("neck", cutoff,
                            unit + two_ended(rng, geo, cutoff,
                                             cutoff // 2 + 1)))
        chunk.append(Op("routes", ROUTES_CUTOFF,
                        one_ended(rng, geo, ROUTES_CUTOFF),
                        one_ended(rng, geo, ROUTES_CUTOFF)))
        cutoff = rng.choice(CUTOFFS)
        chunk.append(Op("roundtrip", cutoff, two_ended(rng, geo, cutoff, 1)))
        rng.shuffle(chunk)
        blocks.append(chunk)
    return State(blocks, q, routes_pairing())


def run_op(op: Op, state: State) -> bool:
    """Run one op through its verification; True when every check holds."""
    q = state.q
    if op.kind == "inverse":
        s = gluing.s_matrix(op.x, q)
        return (gluing.convolve(s, op.x, q) == op.expected
                and gluing.convolve(op.x, s, q) == op.expected)
    if op.kind == "neck":
        s = gluing.s_matrix(op.x, q)
        return all(gluing.neck_identity(op.x, n, q) == s for n in NECK_COUNTS)
    if op.kind == "routes":
        return (gluing.convolve(op.x, op.y, state.q_routes)
                == gluing.convolve_via_operator(op.x, op.y, state.q_routes))
    if op.kind == "roundtrip":
        return gluing.gw_from_tw(gluing.tw_from_gw(op.x)) == op.x
    raise ValueError(f"unknown op kind {op.kind!r}")
