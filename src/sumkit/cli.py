"""Command-line front end.

Verbs: ``severi``, ``hurwitz``, ``elliptic``, ``catalog``, ``oracle`` and
``check``.  Output is JSON by default (``--format json|csv|table``); every
number is emitted as an exact fraction string, never a float, and output is
byte-identical across runs.  Computed Severi and Hurwitz values are cached
as JSON lines under ``--cache-dir`` (default ``$SUMKIT_CACHE_DIR``), appended
under ``flock``; the cache is a pure accelerator and never changes emitted
values.
"""

from __future__ import annotations

import argparse
import fcntl
import importlib.util
import json
import math
import os
import re
import sys
from fractions import Fraction

import sumkit
from sumkit import profiles


def _lazy(name: str):
    """The module ``sumkit.<name>``, registered as an import would register
    it, but whose body runs only on its first attribute access: a verb
    pays for compiling and running only the layers it uses.  A module
    already in ``sys.modules`` is returned as it is.  Before Python 3.12
    the first access is not thread-safe: a second thread can see a body
    still running, which a single-threaded CLI process never does."""
    fullname = f"sumkit.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sumkit, name, module)
    return module


# every layer, so that `import sumkit.cli` puts each one the benchmark's
# tracer patches in sys.modules, even those no verb reads directly
catalog = _lazy("catalog")
contacts = _lazy("contacts")
elliptic = _lazy("elliptic")
gluing = _lazy("gluing")
hurwitz = _lazy("hurwitz")
oracles = _lazy("oracles")
series = _lazy("series")
severi = _lazy("severi")

ENGINE_VERSION = sumkit.__version__

# `oracle hurwitz` enumerates tuples of r transpositions of d letters, a
# search tree of at most (C(d,2) + 1)^r nodes; the slowest request under
# this bound takes about 0.17 s on a 2-core VM
ORACLE_HURWITZ_NODES = 2_000_000

# `severi` work grows fast with the degree: on a 2-core VM a d = 10 request
# takes under 0.7 s and the whole d <= 10 table 2.6 s, but d = 12 takes
# about 4 s per request, and the recursion overflows the stack near d = 27
SEVERI_MAX_DEGREE = 10

# a `hurwitz` request solves the cut-join table of its degree up to its
# branch count r = d + 2g - 2 + len(partition); on a 2-core VM the slowest
# admitted request, d = 10 with r = 18, takes about 0.4 s, where r = 22
# takes about 0.45 s and d = 12 with r = 22 about 0.8 s
HURWITZ_MAX_DEGREE = 10
HURWITZ_MAX_BRANCH = 18

# `catalog p1` output grows fastest with the order: on a 2-core VM order 20
# takes about 0.5 s and prints 0.5 MB, order 26 1.8 s and 2.2 MB, order 30
# 6.5 s and 5.4 MB; every other entry takes under 0.2 s at order 20
CATALOG_MAX_ORDER = 20

# `elliptic` work grows with the genus and the order, most under `--check`,
# which runs the identity suite through genus max(g, 1): on a 2-core VM
# `--check` at genus 4, order 80 takes about 0.5 s, at genus 5, order 80
# 0.9 s and at genus 4, order 100 1.0 s; the genus-8 series to order 1500
# takes 26 s
ELLIPTIC_MAX_GENUS = 4
ELLIPTIC_MAX_ORDER = 80

# `oracle sigma` divides by every d <= sqrt(n): on a 2-core VM n = 10^12
# takes about 0.18 s, n = 10^13 0.5 s, and n = 10^18 some 10^9 divisions;
# `oracle kontsevich` sums d^2 / 2 products of growing integers: degree 100
# takes about 0.03 s, degree 200 0.35 s and degree 400 5.3 s
ORACLE_SIGMA_MAX_N = 10 ** 12
ORACLE_KONTSEVICH_MAX_DEGREE = 100


# -- persistent memo cache ----------------------------------------------------

def _record(line) -> dict | None:
    """The cache record on ``line``, or None when the line is corrupt.  A
    record of another engine version needs no value: it is skipped, not
    read."""
    try:
        record = json.loads(line)
    except ValueError:
        return None
    if not isinstance(record, dict) or not isinstance(record.get("key"), str):
        return None
    if record.get("engine") == ENGINE_VERSION and "value" not in record:
        return None
    return record


class ValueCache:
    """JSON-lines cache, one append-only file per table.

    ``store`` appends its lines under an exclusive ``flock`` on the table
    file and ``load`` reads under a shared one, taking the last line of
    each key, so concurrent writers keep every key and a reader never sees
    a half-written append.  Only ``store`` creates the directory, so a
    cache hit leaves it untouched.  A table that cannot be read or written
    is skipped with a warning; corrupt lines and entries from other engine
    versions are skipped, and a ``store`` after a ``load`` that warned of
    corrupt lines rewrites the table without them, so they warn once.
    """

    def __init__(self, directory: str):
        self.directory = directory
        self._corrupt: set[str] = set()  # tables load found corrupt lines in

    def _path(self, table: str) -> str:
        return os.path.join(self.directory, f"{table}.jsonl")

    def load(self, table: str) -> dict[str, str] | None:
        """The entries of ``table``, or None when it cannot be read."""
        entries: dict[str, str] = {}
        try:
            with open(self._path(table)) as fh:
                fcntl.flock(fh, fcntl.LOCK_SH)
                for line in fh:
                    if not line.strip():
                        continue
                    record = _record(line)
                    if record is None:
                        self._corrupt.add(table)
                        print(f"warning: skipping corrupt cache line in "
                              f"{table}.jsonl", file=sys.stderr)
                    elif record.get("engine") == ENGINE_VERSION:
                        entries[record["key"]] = record["value"]
        except FileNotFoundError:
            pass
        except OSError as exc:
            print(f"warning: cache disabled ({exc})", file=sys.stderr)
            return None
        return entries

    def store(self, table: str, entries: dict[str, str]) -> None:
        if not entries:
            return
        lines = "".join(json.dumps({
            "key": key, "value": entries[key], "engine": ENGINE_VERSION,
        }, sort_keys=True) + "\n" for key in sorted(entries))
        try:
            os.makedirs(self.directory, exist_ok=True)
            # the lock is released when the file closes, after the flush
            with open(self._path(table), "ab+") as fh:
                fcntl.flock(fh, fcntl.LOCK_EX)
                if table in self._corrupt:
                    # rewrite in place, not by rename: a writer waiting for
                    # this lock appends to this inode
                    fh.seek(0)
                    kept = b"".join(line for line in fh
                                    if _record(line) is not None)
                    fh.truncate(0)
                    fh.write(kept)
                    self._corrupt.discard(table)
                end = fh.seek(0, os.SEEK_END)
                if end:
                    fh.seek(end - 1)
                    if fh.read(1) != b"\n":
                        # a writer killed mid-line: end its torn line, so
                        # that it alone is lost
                        lines = "\n" + lines
                fh.write(lines.encode())
        except OSError as exc:
            print(f"warning: cache disabled ({exc})", file=sys.stderr)


# -- emission ------------------------------------------------------------------

def _emit(rows: list[dict], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(rows if len(rows) != 1 else rows[0],
                         indent=2, sort_keys=True))
        return
    if not rows:
        return
    # every key of every row, in first-seen order
    headers = list(dict.fromkeys(key for row in rows for key in row))
    if fmt == "csv":
        # imported here: JSON requests, the common case, load nothing more
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows([str(row.get(h, "")) for h in headers]
                         for row in rows)
    else:  # table
        widths = {h: max(len(h), *(len(str(r.get(h, ""))) for r in rows))
                  for h in headers}
        print("  ".join(h.ljust(widths[h]) for h in headers))
        for row in rows:
            print("  ".join(str(row.get(h, "")).ljust(widths[h])
                            for h in headers))


def _fraction_row(value: Fraction) -> dict:
    return {"value": f"{value.numerator}/{value.denominator}",
            "numerator": value.numerator, "denominator": value.denominator}


def _series_rows(s: series.Series) -> list[dict]:
    rows = []
    for exps, c in s.monomials():
        mono = " ".join(f"{n}^{e}" for n, e in zip(s.context.names, exps)
                        if e) or "1"
        rows.append({"monomial": mono,
                     "value": f"{c.numerator}/{c.denominator}"})
    return rows


def _parse_profile(text: str | None, flag: str, degree: int
                   ) -> tuple[int, ...]:
    """``k:c,...`` pairs with ``k <= degree`` into a multiplicity vector."""
    if not text:
        return ()
    out: list[int] = []
    for item in text.split(","):
        k, _, c = (part.strip() for part in item.partition(":"))
        if not (k.isdecimal() and c.isdecimal() and int(k) >= 1):
            raise ValueError(
                f"{flag} expects comma-separated k:count pairs with k >= 1 "
                f"and count >= 0, e.g. 2:1,1:3; got {text!r}")
        k, c = int(k), int(c)
        if k > degree:
            raise ValueError(f"{flag} expects orders k <= --degree {degree}; "
                             f"got k = {k}")
        while len(out) < k:
            out.append(0)
        out[k - 1] += c
    return tuple(out)


def _check_min(flag: str, value: int, low: int) -> None:
    if value < low:
        raise ValueError(f"{flag} expects an integer >= {low}; got {value}")


def _check_max(flag: str, value: int, high: int, verb: str) -> None:
    if value > high:
        raise ValueError(f"{flag} expects an integer <= {high} for {verb}; "
                         f"got {value}")


def _hurwitz_partition(args) -> tuple[int, ...]:
    """Check ``--degree`` and ``--genus``, then parse ``--partition``."""
    _check_min("--degree", args.degree, 1)
    _check_min("--genus", args.genus, 0)
    parts = [part.strip() for part in args.partition.split(",")]
    if not (all(part.isdecimal() and int(part) >= 1 for part in parts)
            and sum(map(int, parts)) == args.degree):
        raise ValueError(
            f"--partition expects comma-separated integers >= 1 that sum to "
            f"--degree {args.degree}; got {args.partition!r}")
    return tuple(int(part) for part in parts)


def _parse_int(text: str) -> int:
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"{text!r} is not a decimal integer")
    return int(text)


def parse_fraction(text: str) -> Fraction:
    """``num/den`` as :meth:`Series.to_text` writes it: decimal integers,
    an optional minus sign on ``num`` and a nonzero ``den``."""
    if not re.fullmatch(r"-?[0-9]+/[0-9]+", text):
        raise ValueError(f"coefficient {text!r} is not num/den")
    num, den = text.split("/")
    try:
        return Fraction(int(num), int(den))
    except ZeroDivisionError:
        raise ValueError(f"coefficient {text!r} has denominator 0") from None
    except ValueError as exc:  # beyond the interpreter's digit limit
        raise ValueError(f"coefficient {text[:20]!r}...: {exc}") from None


def _cached(directory, table: str, key: str, parse, text, compute):
    """The value of ``key``: parsed from ``table`` in the cache under
    ``directory``, if any, when stored there, else computed and stored as
    ``text(value)`` unless the table could not be read.  A stored value
    that is not a string or that ``parse`` rejects is skipped as a corrupt
    line."""
    cache = ValueCache(directory) if directory else None
    stored = cache.load(table) if cache else None
    if stored and key in stored:
        try:
            if isinstance(stored[key], str):
                return parse(stored[key])
        except ValueError:
            pass
        print(f"warning: skipping corrupt cache line in {table}.jsonl",
              file=sys.stderr)
    value = compute()
    if stored is not None:
        cache.store(table, {key: text(value)})
    return value


# -- verbs ---------------------------------------------------------------------

def _cmd_severi(args) -> list[dict]:
    _check_min("--degree", args.degree, 1)
    _check_max("--degree", args.degree, SEVERI_MAX_DEGREE, "severi")
    _check_min("--delta", args.delta, 0)
    if args.table and (args.alpha is not None or args.beta is not None):
        flag = "--alpha" if args.alpha is not None else "--beta"
        raise ValueError(f"{flag} cannot be combined with --table, which "
                         "covers the pure point-condition profiles only")
    alpha = _parse_profile(args.alpha, "--alpha", args.degree)
    beta = _parse_profile(args.beta, "--beta", args.degree) \
        if args.beta else None
    if args.table:
        rows = severi.severi_table(args.degree, args.delta)
    else:
        # the key and the row need only the profile helpers: a cache hit
        # runs no engine layer
        alpha = profiles.trim(alpha)
        beta = profiles.trim(beta) if beta is not None \
            else profiles.default_beta(args.degree, alpha)
        key = json.dumps([args.degree, args.delta, list(alpha), list(beta)])
        value = _cached(args.cache_dir, "severi", key, _parse_int, str,
                        lambda: severi.severi_number(args.degree, args.delta,
                                                     alpha, beta))
        g = profiles.genus(args.degree, args.delta)
        rows = [{
            "d": args.degree, "delta": args.delta,
            "alpha": list(alpha), "beta": list(beta),
            "r": profiles.point_count(args.degree, g, alpha, beta),
            "value": str(value),
        }]
    return rows


def _cmd_hurwitz(args) -> list[dict]:
    alpha = _hurwitz_partition(args)
    d, g = args.degree, args.genus
    _check_max("--degree", d, HURWITZ_MAX_DEGREE, "hurwitz")
    # _hurwitz_partition checked what hurwitz.branch_count checks, and
    # the stdlib-only oracles module spares a cache hit the engine
    r = oracles.branch_count_rh(d, g, alpha)
    if r > HURWITZ_MAX_BRANCH:
        raise ValueError(
            f"hurwitz: --degree {d} --genus {g} --partition {args.partition} "
            f"needs r = {r} branch points, beyond the limit "
            f"{HURWITZ_MAX_BRANCH}; lower --genus or --degree")
    key = json.dumps([d, g, sorted(alpha, reverse=True)])
    value = _cached(args.cache_dir, "hurwitz", key, parse_fraction,
                    lambda v: f"{v.numerator}/{v.denominator}",
                    lambda: hurwitz.hurwitz_number(d, g, alpha))
    row = {"d": d, "g": g, "partition": sorted(alpha, reverse=True), "r": r}
    row.update(_fraction_row(value))
    return [row]


def _cmd_elliptic(args) -> list[dict]:
    _check_min("--genus", args.genus, 0)
    _check_max("--genus", args.genus, ELLIPTIC_MAX_GENUS, "elliptic")
    _check_min("--order", args.order, 0)
    _check_max("--order", args.order, ELLIPTIC_MAX_ORDER, "elliptic")
    if args.check:
        residuals = elliptic.identity_residuals(max(args.genus, 1),
                                                args.order)
        return [{"identity": name, "zero": res.is_zero()}
                for name, res in residuals.items()]
    return _series_rows(elliptic.fg(args.genus, args.order,
                                    elliptic.f0_product(args.order)))


def _cmd_catalog(args) -> list[dict]:
    entries = catalog.catalog_entries()
    if args.name not in entries:
        raise SystemExit(
            f"unknown catalog entry {args.name!r}; "
            f"available: {', '.join(sorted(entries))}")
    _check_min("--order", args.order, 0)
    _check_max("--order", args.order, CATALOG_MAX_ORDER, "catalog")
    produced = entries[args.name].producer(args.order)
    if isinstance(produced, series.Series):
        return _series_rows(produced)
    if isinstance(produced, gluing.RelSeries):
        return gluing.relseries_to_json(produced)
    if isinstance(produced, dict):
        rows = []
        for family, s in produced.items():
            for row in _series_rows(s):
                rows.append(dict(row, family=family))
        return rows
    return list(produced)


def _cmd_oracle(args) -> list[dict]:
    if args.kind == "hurwitz":
        alpha = _hurwitz_partition(args)
        d, g = args.degree, args.genus
        r = oracles.branch_count_rh(d, g, alpha)
        # logarithms, as r may be huge (no power equals the bound)
        if r > 0 and r * math.log(math.comb(d, 2) + 1) \
                > math.log(ORACLE_HURWITZ_NODES):
            raise ValueError(
                f"oracle hurwitz: --degree {d} --genus {g} --partition "
                f"{args.partition} needs r = {r} branch points, and "
                f"(C(d,2) + 1)^r exceeds the work limit "
                f"{ORACLE_HURWITZ_NODES}; lower --genus or --degree")
        value = oracles.hurwitz_oracle(d, g, alpha)
        row = {"d": args.degree, "g": args.genus,
               "partition": sorted(alpha, reverse=True)}
        row.update(_fraction_row(value))
        return [row]
    if args.kind == "kontsevich":
        _check_min("--degree", args.degree, 1)
        _check_max("--degree", args.degree, ORACLE_KONTSEVICH_MAX_DEGREE,
                   "oracle kontsevich")
        return [{"d": args.degree,
                 "value": str(oracles.kontsevich_oracle(args.degree))}]
    _check_min("--n", args.n, 1)
    _check_max("--n", args.n, ORACLE_SIGMA_MAX_N, "oracle sigma")
    return [{"n": args.n, "value": str(oracles.divisor_sum(args.n))}]


def _cmd_check(args) -> list[dict]:
    # imported here: the other verbs need none of it, and every CLI
    # process would otherwise pay for compiling it
    from sumkit import checks

    results = checks.run_all()
    rows = [{"check": r.name, "status": "pass" if r.passed else "FAIL",
             "seconds": f"{r.seconds:.2f}", "detail": r.detail}
            for r in results]
    if any(not r.passed for r in results):
        _emit(rows, args.format)
        raise _CheckFailure()
    return rows


class _CheckFailure(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "table"),
                        default=argparse.SUPPRESS)
    common.add_argument("--cache-dir", default=argparse.SUPPRESS)
    parser = argparse.ArgumentParser(
        prog="sumkit",
        parents=[common],
        description="exact curve-count combinatorics: Severi degrees, "
                    "Hurwitz numbers, elliptic-surface series")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("severi", help="nodal plane curves with line tangencies")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--alpha", help="fixed contacts, k:count,...")
    p.add_argument("--beta", help="moving contacts, k:count,...")
    p.add_argument("--table", action="store_true",
                   help="emit the whole table up to the bounds")
    p.set_defaults(func=_cmd_severi)

    p = add_parser("hurwitz", help="branched covers of the sphere")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--partition", required=True, help="a,b,c")
    p.set_defaults(func=_cmd_hurwitz)

    p = add_parser("elliptic", help="rational elliptic surface series")
    p.add_argument("--genus", type=int, default=0)
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--check", action="store_true",
                   help="emit the identity residual report")
    p.set_defaults(func=_cmd_elliptic)

    p = add_parser("catalog", help="model-space relative invariants")
    p.add_argument("name", help="p1, torus, t2xs2, ruled:n")
    p.add_argument("--order", type=int, default=8)
    p.set_defaults(func=_cmd_catalog)

    p = add_parser("oracle", help="brute-force reference values")
    osub = p.add_subparsers(dest="kind", required=True)
    oh = osub.add_parser("hurwitz", parents=[common])
    oh.add_argument("--degree", type=int, required=True)
    oh.add_argument("--genus", type=int, required=True)
    oh.add_argument("--partition", required=True)
    ok = osub.add_parser("kontsevich", parents=[common])
    ok.add_argument("--degree", type=int, required=True)
    og = osub.add_parser("sigma", parents=[common])
    og.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_oracle)

    p = add_parser("check", help="run the acceptance suite")
    p.add_argument("--all", action="store_true",
                   help="run every check (the default)")
    p.set_defaults(func=_cmd_check)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if not hasattr(args, "format"):
        args.format = "json"
    if not hasattr(args, "cache_dir"):
        args.cache_dir = os.environ.get("SUMKIT_CACHE_DIR")
    try:
        rows = args.func(args)
    except _CheckFailure:
        return 1
    except SystemExit as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(rows, args.format)
    return 0


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early, as `| head` does: send what is
        # left to devnull, so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
