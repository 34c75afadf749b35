"""Requests for the CLI workloads and their exact verification.

The request universe is fixed and split into strata of requests of similar
cost.  A pass draws a fixed number of distinct requests from every stratum
with the seed and shuffles them, so every seed runs the same mix of verbs
and sizes with different keys.  The three heaviest strata take turns: each
pass holds one of them, and three passes hold one of each.  Every request in the universe has its
stdout committed in ``golden/cli.json``; some are also compared with the
independent oracles where their window allows.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from sumkit import oracles
from sumkit.contacts import partitions

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "cli.json"

Request = tuple[str, ...]

# passes in one rotation of the heavy strata
ROTATION = 3


@dataclass(frozen=True)
class Stratum:
    name: str
    per_pass: int
    requests: tuple[Request, ...]
    period: int = 1    # in passes whose index is ``phase`` modulo ``period``
    phase: int = 0

    def in_pass(self, index: int) -> bool:
        return index % self.period == self.phase


def _severi(d: int, delta: int, alpha: str | None = None,
            beta: str | None = None, table: bool = False) -> Request:
    argv = ["severi", "--degree", str(d), "--delta", str(delta)]
    if alpha:
        argv += ["--alpha", alpha]
    if beta:
        argv += ["--beta", beta]
    if table:
        argv.append("--table")
    return tuple(argv)


def _rational_delta(d: int) -> int:
    return (d - 1) * (d - 2) // 2


def _hurwitz(verb: tuple[str, ...], lo_d: int, hi_d: int,
             r_values: tuple[int, ...]) -> tuple[Request, ...]:
    out = []
    for d in range(lo_d, hi_d + 1):
        for alpha in partitions(d):
            for g in range(0, 8):
                if oracles.branch_count_rh(d, g, alpha) in r_values:
                    out.append(verb + ("--degree", str(d), "--genus", str(g),
                                       "--partition",
                                       ",".join(map(str, alpha))))
    return tuple(out)


def _severi_light() -> tuple[Request, ...]:
    out = [_severi(5, delta) for delta in range(_rational_delta(5))]
    for delta in range(3):
        out.append(_severi(5, delta, alpha="1:1"))
        out.append(_severi(5, delta, alpha="2:1"))
        out.append(_severi(5, delta, beta="2:1,1:3"))
        out.append(_severi(5, delta, alpha="1:1", beta="2:1,1:2"))
    return tuple(out)


def strata() -> tuple[Stratum, ...]:
    """The request universe, in strata of similar cost.

    Every request pays about 0.13 s of interpreter start and import.  On
    top of that the light strata (severi at d = 5, tables, rational
    degrees, catalog, oracles, small hurwitz) add under 0.05 s, severi at
    d = 7 about 0.2 s, hurwitz-mid a 0.4 s CutJoinTable, and the three
    rotating heavy strata 0.6-1.8 s (2-core Xeon, CPython 3.11).  With
    these counts the median op is a light request and the 11th-largest op
    of a run of 3 to 6 passes is a hurwitz-mid request, so neither
    statistic sits on a boundary between strata.
    """
    hurwitz = ("hurwitz",)
    return (
        Stratum("severi-light", 4, _severi_light()),
        Stratum("severi-d7", 3, tuple(_severi(7, delta)
                                      for delta in range(3, 13))),
        Stratum("severi-d8", 1, tuple(_severi(8, delta)
                                      for delta in range(16)), ROTATION, 2),
        Stratum("severi-rational", 1, tuple(_severi(d, _rational_delta(d))
                                            for d in (3, 4, 5))),
        Stratum("severi-table", 2, tuple(_severi(5, delta, table=True)
                                         for delta in range(2, 7))),
        Stratum("hurwitz-small", 2, _hurwitz(hurwitz, 2, 5, (1, 2, 3, 4, 5))),
        Stratum("hurwitz-mid", 4, _hurwitz(hurwitz, 6, 6, (11,))
                + _hurwitz(hurwitz, 7, 7, (10,))),
        Stratum("hurwitz-big", 1, _hurwitz(hurwitz, 7, 7, (13,))
                + _hurwitz(hurwitz, 8, 8, (12,)), ROTATION, 0),
        Stratum("elliptic-check", 1, tuple(
            ("elliptic", "--check", "--genus", str(g), "--order", str(n))
            for g, n in ((1, 60), (2, 55), (3, 50))), ROTATION, 1),
        Stratum("elliptic-series", 2, tuple(
            ("elliptic", "--genus", str(g), "--order", str(n))
            for g in range(4) for n in (30, 40, 50, 60))),
        Stratum("catalog-p1", 2, tuple(("catalog", "p1", "--order", str(n))
                                       for n in (6, 7, 8))),
        Stratum("catalog-torus", 2, tuple(
            ("catalog", "torus", "--order", str(n)) for n in (6, 7, 8))),
        Stratum("catalog-t2xs2", 2, tuple(
            ("catalog", "t2xs2", "--order", str(n)) for n in (6, 7, 8))),
        Stratum("catalog-ruled", 2, tuple(
            ("catalog", f"ruled:{k}", "--order", str(n))
            for k in range(4) for n in (6, 7, 8))),
        Stratum("oracle-hurwitz", 2, _hurwitz(("oracle", "hurwitz"), 2, 5,
                                              (1, 2, 3, 4))),
        Stratum("oracle-kontsevich", 2, tuple(
            ("oracle", "kontsevich", "--degree", str(d))
            for d in range(1, 10))),
    )


def universe() -> list[Request]:
    return [req for stratum in strata() for req in stratum.requests]


def draw_pass(seed: int, index: int = 0) -> list[Request]:
    """Pass ``index`` of a seed's stream: ``per_pass`` distinct requests from
    every stratum, in seeded order."""
    rng = random.Random(f"{seed}:{index}")
    chosen: list[Request] = []
    for stratum in strata():
        if stratum.in_pass(index):
            chosen.extend(rng.sample(stratum.requests, stratum.per_pass))
    rng.shuffle(chosen)
    return chosen


def warm_requests(seed: int) -> list[Request]:
    """The cacheable requests of one rotation of a seed's passes."""
    drawn = [req for index in range(ROTATION)
             for req in draw_pass(seed, index)
             if cacheable(req)]
    return list(dict.fromkeys(drawn))


def cacheable(req: Request) -> bool:
    """Requests that go through the value cache (severi points, hurwitz)."""
    return req[0] == "hurwitz" or (req[0] == "severi" and "--table" not in req)


def key(req: Request) -> str:
    return " ".join(req)


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


# -- verification -------------------------------------------------------------

def _option(req: Request, name: str) -> str | None:
    return req[req.index(name) + 1] if name in req else None


def _fraction_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


class Verifier:
    """Exact checks of one request's stdout; oracle values are memoized."""

    def __init__(self, golden: dict[str, str]):
        self.golden = golden
        self._oracle: dict[str, str] = {}

    def oracle_value(self, req: Request) -> str | None:
        """Independent expected value where an oracle's window allows."""
        k = key(req)
        if k in self._oracle:
            return self._oracle[k]
        value = None
        if req[0] == "severi" and "--table" not in req \
                and _option(req, "--alpha") is None \
                and _option(req, "--beta") is None:
            d, delta = int(_option(req, "--degree")), int(_option(req, "--delta"))
            if delta == _rational_delta(d):
                value = str(oracles.kontsevich_oracle(d))
        elif req[0] == "hurwitz":
            d, g = int(_option(req, "--degree")), int(_option(req, "--genus"))
            alpha = tuple(int(a) for a in _option(req, "--partition").split(","))
            if d <= 5 and oracles.branch_count_rh(d, g, alpha) <= 5:
                value = _fraction_text(oracles.hurwitz_oracle(d, g, alpha))
        self._oracle[k] = value
        return value

    def check(self, req: Request, returncode: int, stdout: str) -> str | None:
        """None when the output is right, else the reason it is not."""
        if returncode != 0:
            return f"exit code {returncode}"
        expected = self.golden.get(key(req))
        if expected is None:
            return "no golden output for this request"
        if stdout != expected:
            return "stdout differs from the golden output"
        try:
            data = json.loads(stdout)
        except ValueError:
            return "stdout is not JSON"
        if req[:2] == ("elliptic", "--check"):
            if not data or not all(row.get("zero") is True for row in data):
                return "an elliptic identity residual is nonzero"
        oracle = self.oracle_value(req)
        if oracle is not None and data.get("value") != oracle:
            return f"value {data.get('value')} != oracle {oracle}"
        return None
