"""Acceptance suite: the headline exact identities, one check per criterion.

Each check is declared once, by :func:`criterion`, and returns a
:class:`CheckResult`; :func:`run_all` executes the whole battery.  Every
comparison is exact integer/rational equality, and a failed one raises
:class:`AssertionError` with its detail by an explicit ``raise``, never an
``assert``, so the checks can fail under ``python -O`` too.  These checks
back both the ``check`` command-line verb and the acceptance tests.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from sumkit import catalog, elliptic, gluing, hurwitz, oracles, severi
from sumkit.contacts import (
    ContactMultiset,
    IntersectionMatrix,
    enumerate_multisets,
    partitions,
)
from sumkit.profiles import SEVERI_MAX_DEGREE
from sumkit.series import Series, VariableContext


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _run(name: str, body: Callable[[], str]) -> CheckResult:
    start = time.perf_counter()
    try:
        detail = body()
        passed = True
    except Exception as exc:  # any error inside a check is that check's FAIL
        detail = type(exc).__name__ + (f": {exc}" if str(exc) else "")
        passed = False
    return CheckResult(name, passed, detail, time.perf_counter() - start)


def _require(holds: bool, identity: str, trial: int) -> None:
    """Raise the failure of ``identity`` at random trial ``trial`` unless it
    ``holds``."""
    if not holds:
        raise AssertionError(f"{identity} fails at trial {trial}")


ALL_CHECKS: tuple[Callable[[], CheckResult], ...] = ()


def criterion(name: str):
    """Register a function that returns its detail string or raises as the
    check ``name``: a check that runs it through :func:`_run`, carries
    ``name`` as ``.name`` and is appended to :data:`ALL_CHECKS`."""
    def register(body: Callable[[], str]) -> Callable[[], CheckResult]:
        global ALL_CHECKS

        def check() -> CheckResult:
            return _run(name, body)

        check.name = name
        ALL_CHECKS += (check,)
        return check
    return register


@criterion("severi-kontsevich")
def check_severi_kontsevich() -> str:
    expected = [oracles.kontsevich_oracle(d) for d in range(1, 6)]
    got = [severi.rational_degree(d) for d in range(1, 6)]
    if got != expected:
        raise AssertionError(f"{got} != {expected}")
    # every log the irreducible counts are read from, for d <= 6: a
    # connected curve has genus >= 0, and its count is an integer
    entries = 0
    for d in range(1, 7):
        for w in range(d + 1):
            for a, b in itertools.product(enumerate_multisets(w, 1),
                                          enumerate_multisets(d - w, 1)):
                alpha, beta = severi.profile(a), severi.profile(b)
                for chi in range(2 - 2 * severi.genus(d, 0), 3, 2):
                    logs = severi.connected_counts(d, chi, alpha, beta)
                    for key, value in logs.items():
                        if key[1] > 2:
                            raise AssertionError(f"connected term {value} "
                                                 f"with chi > 2 at {key}")
                        if value.denominator != 1:
                            raise AssertionError(
                                f"non-integer connected count {value} "
                                f"at {key}")
                    entries += len(logs)
    # up to the CLI's own degree limit, and Getzler's genus-one counts
    # (JAMS 1997) of plane curves through 3d points
    high = range(6, SEVERI_MAX_DEGREE + 1)
    expected = [oracles.kontsevich_oracle(d) for d in high]
    got_high = [severi.rational_degree(d) for d in high]
    if got_high != expected:
        raise AssertionError(f"rational degrees d=6..{high[-1]}: "
                             f"{got_high} != {expected}")
    elliptic_counts = [severi.severi_number(d, severi.genus(d, 0) - 1)
                       for d in range(3, 7)]
    if elliptic_counts != [1, 225, 87192, 57435240]:
        raise AssertionError(f"genus-one degrees d=3..6: {elliptic_counts}")
    return (f"rational degrees {got}; {entries} log entries for d<=6, "
            f"all integers with chi<=2; rational degrees d=6..{high[-1]} "
            "match Kontsevich, genus-one d=3..6 match Getzler")


@criterion("severi-nodes")
def check_severi_nodes() -> str:
    # the node polynomials count reducible curves too, so they compare
    # with the disconnected counts, up to the CLI's own degree limit
    compared = 0
    for delta, low in oracles.NODE_POLYNOMIAL_MIN_DEGREE.items():
        for d in range(low, SEVERI_MAX_DEGREE + 1):
            got = severi.tw_severi(d, 2 - 2 * severi.genus(d, delta))
            expected = oracles.node_polynomial(d, delta)
            if got != expected:
                raise AssertionError(f"node polynomial delta={delta}, "
                                     f"d={d}: {got} != {expected}")
            compared += 1
    return (f"{compared} disconnected counts at delta=1..3, "
            f"d<={SEVERI_MAX_DEGREE} match the node polynomials")


@criterion("smooth-curves")
def check_smooth_curves() -> str:
    got = [severi.severi_number(d, 0) for d in range(1, 5)]
    if got != [1, 1, 1, 1]:
        raise AssertionError(f"severi_number(d, 0) for d=1..4: {got} != "
                             "[1, 1, 1, 1]")
    return "unique smooth curve through the full point count, d=1..4"


@criterion("hurwitz-oracle")
def check_hurwitz_oracle() -> str:
    checked = 0
    for d in range(1, 6):
        for alpha in partitions(d):
            for g in range(0, 7):
                r = hurwitz.branch_count(d, g, alpha)
                if r < 0 or r > 6:
                    continue
                fast = hurwitz.hurwitz_number(d, g, alpha)
                slow = oracles.hurwitz_oracle(d, g, alpha)
                if fast != slow:
                    raise AssertionError(
                        f"hurwitz_number{(d, g, alpha)} = {fast} != "
                        f"hurwitz_oracle{(d, g, alpha)} = {slow}")
                checked += 1
    return f"{checked} keys against tuple enumeration"


@criterion("cut-join-residual")
def check_cut_join_residual() -> str:
    residual = hurwitz.cut_join_residual(7, 10)
    if not residual.is_zero():
        raise AssertionError(residual.to_text())
    return "transport-equation residual vanishes through d<=7, r<=10"


@criterion("elliptic-surface")
def check_elliptic() -> str:
    f0 = elliptic.f0_via_ode(100)
    lead = [f0.coefficient({"t": n}) for n in range(5)]
    if lead != [1, 12, 90, 520, 2535]:
        raise AssertionError(f"f0_via_ode coefficients t^0..t^4: "
                             f"{', '.join(map(str, lead))} != "
                             "1, 12, 90, 520, 2535")
    residuals = elliptic.identity_residuals(3, 100)
    bad = [k for k, v in residuals.items() if not v.is_zero()]
    if bad:
        raise AssertionError(f"nonzero residuals: {bad}")
    return f"series identities at order 100; {len(residuals)} residuals zero"


def _random_residual(rng: random.Random, geo: gluing.Geometry, cutoff: int,
                     min_base: int, basis: int) -> gluing.RelSeries:
    """A random two-ended residual; a draw in which every term drops out
    (coefficient 0, or beyond the cutoff) is drawn again, up to 100 times."""
    for _ in range(100):
        terms: dict[gluing.RelKey, Fraction] = {}
        for _ in range(rng.randint(1, 6)):
            fiber_part = rng.randint(0, 2)
            base = rng.randint(min_base, max(min_base, cutoff - 1))
            if fiber_part + base > cutoff:
                continue
            candidates = enumerate_multisets(fiber_part, basis)
            key = gluing.RelKey(
                (fiber_part, base),
                2 * rng.randint(-1, 1),
                (rng.choice(candidates), rng.choice(candidates)),
            )
            coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            if coeff:
                terms[key] = terms.get(key, Fraction(0)) + coeff
        terms = {k: v for k, v in terms.items() if v}
        if terms:
            break
    return gluing.RelSeries(geo, 2, cutoff, terms)


@criterion("scattering-algebra")
def check_scattering() -> str:
    rng = random.Random(20260810)
    geo = gluing.neck_geometry(base_dim=1, v_basis=2)
    q = IntersectionMatrix.sphere_pairing()
    cutoff = 5
    ident = gluing.identity_element(geo, q, cutoff)
    inverses = 0
    necks = 0
    for trial in range(200):
        if trial % 2 == 0:
            # nilpotency up to 6 at this cutoff
            r = _random_residual(rng, geo, cutoff, 1, 2)
            # an empty residual would test only the unit
            _require(bool(r), "r != 0", trial)
            twf = ident + r
            s = gluing.s_matrix(twf, q)
            _require(gluing.convolve(s, twf, q) == ident,
                     "convolve(s, twf) == unit", trial)
            _require(gluing.convolve(twf, s, q) == ident,
                     "convolve(twf, s) == unit", trial)
            inverses += 1
        else:
            # residual square vanishes at cutoff: neck sums collapse
            r = _random_residual(rng, geo, cutoff, cutoff // 2 + 1, 2)
            _require(bool(r), "r != 0", trial)
            twf = ident + r
            s = gluing.s_matrix(twf, q)
            _require(gluing.convolve(s, twf, q) == ident,
                     "convolve(s, twf) == unit", trial)
            for n in range(1, 6):
                _require(gluing.neck_identity(twf, n, q) == s,
                         f"neck_identity(twf, {n}) == s", trial)
            necks += 1
    if not (inverses and necks):
        raise AssertionError(f"{inverses} inverse checks, {necks} neck-sum "
                             "checks")
    return f"{inverses} inverse checks, {necks} neck-sum checks (n=1..5)"


def _random_one_ended(rng: random.Random, geo: gluing.Geometry, cutoff: int,
                      basis: int) -> gluing.RelSeries:
    terms: dict[gluing.RelKey, Fraction] = {}
    tags = ["1", "p", "q"]
    for _ in range(rng.randint(1, 7)):
        fiber_part = rng.randint(0, 3)
        base = rng.randint(0, 2)
        if fiber_part + base > cutoff:
            continue
        candidates = enumerate_multisets(fiber_part, basis)
        key = gluing.RelKey(
            (fiber_part, base),
            2 * rng.randint(-1, 1),
            (rng.choice(candidates),),
            rng.choice(tags),
        )
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if coeff:
            terms[key] = terms.get(key, Fraction(0)) + coeff
    return gluing.RelSeries(geo, 1, cutoff,
                            {k: v for k, v in terms.items() if v})


@criterion("convolution-routes")
def check_convolution_routes() -> str:
    rng = random.Random(97)
    geo = gluing.neck_geometry(base_dim=1, v_basis=2)
    q = IntersectionMatrix([[0, 1], [1, Fraction(1, 2)]])
    cutoff = 4
    for trial in range(100):
        x = _random_one_ended(rng, geo, cutoff, 2)
        y = _random_one_ended(rng, geo, cutoff, 2)
        direct = gluing.convolve(x, y, q)
        operator = gluing.convolve_via_operator(x, y, q)
        _require(direct == operator,
                 "convolve(x, y) == convolve_via_operator(x, y)", trial)
    return "100 random pairs, enumeration vs differential operator"


@criterion("catalog-consistency")
def check_catalog() -> str:
    # dimension filters against every nonzero catalog value
    for b in range(1, 8):
        for a in (0, 1):
            for g in (0, 1, 2):
                s = ContactMultiset([((b, 0), 1)])
                s_prime = ContactMultiset([((b + a, 0), 1)])
                if catalog.ruled_rel(1, a, b, g, s, s_prime, "none"):
                    if not catalog.vanishing_filter(a, g, 0):
                        raise AssertionError(
                            f"ruled_rel(a={a}, b={b}, g={g}) without a point "
                            "is nonzero where vanishing_filter(a, g, 0) "
                            "is false")
                if catalog.ruled_rel(1, a, b, g, s, s_prime, "point",
                                     contacts_fixed=True):
                    if not catalog.vanishing_filter(a, g, 1):
                        raise AssertionError(
                            f"ruled_rel(a={a}, b={b}, g={g}) through a point "
                            "is nonzero where vanishing_filter(a, g, 1) "
                            "is false")
    for d in range(1, 8):
        for g in (0, 1):
            end = ContactMultiset([((d, 0), 1)])
            value = catalog.p1_rel(d, g, end, end)
            if value:
                dim = gluing.moduli_dimension(
                    gluing.riemann_surface_geometry(), (d,), 2 - 2 * g,
                    0, (end, end), 2)
                if dim != 0:
                    raise AssertionError(
                        f"p1_rel(d={d}, g={g}) is nonzero on a moduli space "
                        f"of dimension {dim} != 0")
    # self-gluing of the sphere reproduces 1/d for d <= 10
    q = IntersectionMatrix.point_pairing()
    cutoff = 10
    tw = catalog.p1_tw_series(cutoff)
    glued = gluing.convolve(tw, tw, q)
    if glued != tw:
        raise AssertionError("self-gluing changed the cover series")
    ident = gluing.identity_element(gluing.riemann_surface_geometry(),
                                    q, cutoff)
    if tw != ident:
        raise AssertionError("cover series is not the convolution unit")
    for d in range(1, 11):
        end = ContactMultiset([((d, 0), 1)])
        key = gluing.RelKey((d,), 2, (end, end))
        got = gluing.gw_from_tw(glued).coefficient(key)
        if got != Fraction(1, d):
            raise AssertionError(f"connected sphere self-gluing at d={d}: "
                                 f"{got} != 1/{d}")
    # the torus sieve against trial division, every coefficient
    torus = catalog.torus_rel_series(100)
    for n in range(101):
        got = torus.coefficient({"t": n})
        want = oracles.divisor_sum(n) if n else 0
        if got != want:
            raise AssertionError(f"torus t^{n}: sieve {got} != "
                                 f"divisor sum {want}")
    return ("dimension filters + sphere self-gluing 1/d, d<=10 + torus "
            "sieve against trial-division divisor sums, n<=100")


@criterion("series-core")
def check_series_core() -> str:
    rng = random.Random(11)
    ctx = VariableContext("t", ("lam", 0, True))
    cutoff = 30

    def random_series(max_terms=8, laurent=3, unit=False):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            t_exp = rng.randint(0 if not unit else 1, cutoff)
            l_exp = rng.randint(-laurent, laurent) if laurent else 0
            coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if coeff:
                terms[ctx.exponents({"t": t_exp, "lam": l_exp})] = coeff
        out = Series(ctx, cutoff, terms)
        return out

    for trial in range(500):
        a, b, c = random_series(), random_series(), random_series()
        _require(a + b == b + a, "a + b == b + a", trial)
        _require(a * b == b * a, "a * b == b * a", trial)
        _require((a + b) + c == a + (b + c), "(a + b) + c == a + (b + c)",
                 trial)
        _require((a * b) * c == a * (b * c), "(a * b) * c == a * (b * c)",
                 trial)
        _require(a * (b + c) == a * b + a * c, "a * (b + c) == a * b + a * c",
                 trial)
        leibniz = a.differentiate("t") * b.truncate(cutoff - 1) \
            + a.truncate(cutoff - 1) * b.differentiate("t")
        _require((a * b).differentiate("t") == leibniz,
                 "Leibniz rule (a * b)' == a' * b + a * b'", trial)
        if trial % 10 == 0:
            f = random_series(max_terms=5, laurent=1, unit=True)
            _require(f.exp().log() == f, "log(exp(f)) == f", trial)
            g = Series.one(ctx, cutoff) + f
            _require(g.log().exp() == g, "exp(log(1 + f)) == 1 + f", trial)
    return "ring axioms, Leibniz, exp/log roundtrip on 500 random series"


def run_all() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
