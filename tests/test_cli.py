import csv
import io
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from sumkit import catalog, checks
from sumkit.cli import (CATALOG_MAX_ORDER, ELLIPTIC_MAX_GENUS,
                        ELLIPTIC_MAX_ORDER, ENGINE_VERSION,
                        HURWITZ_MAX_BRANCH, HURWITZ_MAX_DEGREE,
                        ORACLE_KONTSEVICH_MAX_DEGREE, ORACLE_SIGMA_MAX_N,
                        SEVERI_MAX_DEGREE, ValueCache, run)
from sumkit.gluing import GluingError


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerbs:
    def test_severi(self, capsys):
        code, out, _ = invoke(capsys, "severi", "--degree", "3", "--delta", "1")
        assert code == 0
        assert json.loads(out)["value"] == "12"

    def test_severi_with_profiles(self, capsys):
        code, out, _ = invoke(capsys, "severi", "--degree", "2", "--delta",
                              "0", "--beta", "2:1")
        assert code == 0
        assert json.loads(out)["value"] == "2"

    def test_severi_table(self, capsys):
        code, out, _ = invoke(capsys, "severi", "--degree", "3", "--delta",
                              "1", "--table")
        rows = json.loads(out)
        assert code == 0
        assert {"d": 3, "delta": 0, "alpha": [], "beta": [3], "r": 9,
                "value": "1"} in rows

    def test_hurwitz(self, capsys):
        code, out, _ = invoke(capsys, "hurwitz", "--degree", "2",
                              "--genus", "0", "--partition", "2")
        data = json.loads(out)
        assert code == 0
        assert data["value"] == "1/2" and data["r"] == 1

    def test_elliptic_series(self, capsys):
        code, out, _ = invoke(capsys, "elliptic", "--genus", "0",
                              "--order", "3")
        rows = json.loads(out)
        values = [row["value"] for row in rows]
        assert code == 0
        assert values == ["1/1", "12/1", "90/1", "520/1"]

    def test_elliptic_check(self, capsys):
        code, out, _ = invoke(capsys, "elliptic", "--order", "12", "--check")
        rows = json.loads(out)
        assert code == 0
        assert all(row["zero"] for row in rows)

    def test_catalog(self, capsys):
        code, out, _ = invoke(capsys, "catalog", "torus", "--order", "4")
        rows = json.loads(out)
        assert code == 0
        assert rows[-1] == {"monomial": "t^4", "value": "7/1"}

    def test_catalog_unknown(self, capsys):
        code, _, err = invoke(capsys, "catalog", "mystery")
        assert code == 2
        assert "unknown catalog entry" in err

    def test_oracle_sigma(self, capsys):
        code, out, _ = invoke(capsys, "oracle", "sigma", "--n", "4")
        assert code == 0
        assert json.loads(out)["value"] == "7"

    def test_oracle_kontsevich(self, capsys):
        code, out, _ = invoke(capsys, "oracle", "kontsevich", "--degree", "3")
        assert json.loads(out)["value"] == "12"

    def test_argument_error_exits_2(self, capsys):
        assert invoke(capsys, "severi", "--degree", "3")[0] == 2

    def test_unknown_command_exits_2(self, capsys):
        assert invoke(capsys, "frobnicate")[0] == 2

    def test_csv_format(self, capsys):
        code, out, _ = invoke(capsys, "--format", "csv", "oracle", "sigma",
                              "--n", "6")
        lines = out.strip().splitlines()
        assert lines[0].split(",")[:2] == ["n", "value"]
        assert lines[1].split(",")[1] == "12"

    def test_format_flag_after_subcommand(self, capsys):
        code, out, _ = invoke(capsys, "oracle", "sigma", "--n", "6",
                              "--format", "csv")
        assert code == 0 and out.startswith("n,")

    @pytest.mark.parametrize("argv", [
        ("hurwitz", "--degree", "3", "--genus", "0", "--partition", "2,1"),
        ("catalog", "p1", "--order", "2"),
        ("severi", "--degree", "3", "--delta", "1", "--table")])
    def test_csv_rows_are_as_wide_as_their_header(self, capsys, argv):
        # list fields such as [2, 1] hold commas, which csv quotes
        code, out, _ = invoke(capsys, *argv, "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0 and len(rows) > 1
        assert all(len(row) == len(rows[0]) for row in rows)
        if argv[0] == "hurwitz":
            assert dict(zip(*rows))["partition"] == "[2, 1]"

    @pytest.mark.parametrize("flag, value", [("--alpha", "1:1"),
                                             ("--beta", "3:1")])
    def test_severi_table_rejects_profile_flags(self, capsys, flag, value):
        code, out, err = invoke(capsys, "severi", "--degree", "3",
                                "--delta", "1", "--table", flag, value)
        assert code == 1 and out == ""
        assert err.startswith("error: ")
        assert f"{flag} cannot be combined with --table" in err


class TestInputLimits:
    @pytest.mark.parametrize("flag, value", [
        ("--alpha", "1"), ("--alpha", "0:1"), ("--alpha", "1:"),
        ("--alpha", "1:1,"), ("--beta", "2:-1"), ("--beta", "x:1"),
        ("--beta", "1.5:1")])
    def test_malformed_profile(self, capsys, flag, value):
        code, out, err = invoke(capsys, "severi", "--degree", "3",
                                "--delta", "0", flag, value)
        assert code == 1 and out == ""
        assert f"{flag} expects comma-separated k:count pairs" in err
        assert repr(value) in err

    @pytest.mark.parametrize("argv", [
        ("elliptic", "--order", "-1"),
        ("elliptic", "--order", "-2", "--check"),
        ("catalog", "p1", "--order", "-1"),
        ("catalog", "torus", "--order", "-1")])
    def test_negative_order(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert "--order expects an integer >= 0" in err

    def test_profile_limits_admit_zero_counts_and_spaces(self, capsys):
        plain = invoke(capsys, "severi", "--degree", "2", "--delta", "0",
                       "--beta", "2:1")
        padded = invoke(capsys, "severi", "--degree", "2", "--delta", "0",
                        "--beta", " 2 : 1 , 1:0")
        assert plain == padded and plain[0] == 0

    @pytest.mark.parametrize("argv", [
        ("elliptic",), ("elliptic", "--check"),
        *(("catalog", name) for name in catalog.catalog_entries())],
        ids=" ".join)
    def test_order_zero_allowed(self, capsys, argv):
        assert invoke(capsys, *argv, "--order", "0")[0] == 0

    @pytest.mark.parametrize("verb", [("hurwitz",), ("oracle", "hurwitz")])
    @pytest.mark.parametrize("value", ["2,x", "0,3", "3,", "-1,4", "1.5"])
    def test_malformed_partition(self, capsys, verb, value):
        code, out, err = invoke(capsys, *verb, "--degree", "3", "--genus",
                                "0", f"--partition={value}")
        assert code == 1 and out == ""
        assert "--partition expects comma-separated integers >= 1" in err
        assert repr(value) in err

    @pytest.mark.parametrize("argv, message", [
        (("hurwitz", "--degree", "0", "--genus", "0", "--partition", "1"),
         "--degree expects an integer >= 1; got 0"),
        (("oracle", "hurwitz", "--degree", "-2", "--genus", "0",
          "--partition", "1"), "--degree expects an integer >= 1; got -2"),
        (("hurwitz", "--degree", "3", "--genus", "-1", "--partition", "3"),
         "--genus expects an integer >= 0; got -1"),
        (("oracle", "hurwitz", "--degree", "3", "--genus", "-1",
          "--partition", "3"), "--genus expects an integer >= 0; got -1"),
        (("severi", "--degree", "-1", "--delta", "0"),
         "--degree expects an integer >= 1; got -1"),
        (("severi", "--degree", "0", "--delta", "0", "--table"),
         "--degree expects an integer >= 1; got 0"),
        (("severi", "--degree", "3", "--delta", "-1"),
         "--delta expects an integer >= 0; got -1"),
        (("severi", "--degree", "3", "--delta", "-1", "--table"),
         "--delta expects an integer >= 0; got -1")])
    def test_degree_genus_delta_limits(self, capsys, argv, message):
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert message in err

    def test_limits_admit_their_bounds(self, capsys):
        plain = invoke(capsys, "hurwitz", "--degree", "1", "--genus", "0",
                       "--partition", "1")
        padded = invoke(capsys, "hurwitz", "--degree", "1", "--genus", "0",
                        "--partition", " 1 ")
        assert plain == padded and plain[0] == 0
        code, out, _ = invoke(capsys, "severi", "--degree", "1",
                              "--delta", "0")
        assert code == 0 and json.loads(out)["value"] == "1"


@pytest.mark.parametrize("argv, message", [
    (("oracle", "kontsevich", "--degree", "0"),
     "--degree expects an integer >= 1; got 0"),
    (("oracle", "sigma", "--n", "0"), "--n expects an integer >= 1; got 0"),
    (("oracle", "sigma", "--n", "-4"), "--n expects an integer >= 1; got -4"),
    *((verb + ("--degree", "4", "--genus", "0", "--partition", "3"),
       "--partition expects comma-separated integers >= 1 that sum to "
       "--degree 4; got '3'")
      for verb in [("hurwitz",), ("oracle", "hurwitz")]),
    (("hurwitz", "--degree", "3", "--genus", "0", "--partition", "2,2"),
     "that sum to --degree 3; got '2,2'")])
def test_oracle_and_partition_errors_name_their_flag(capsys, argv, message):
    code, out, err = invoke(capsys, *argv)
    assert code == 1 and out == ""
    assert message in err


class TestOracleWorkLimit:
    GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / \
        "golden" / "cli.json"

    def test_admits_every_golden_request(self, capsys):
        golden = json.loads(self.GOLDEN.read_text())
        requests = [k for k in golden if k.startswith("oracle hurwitz ")]
        assert len(requests) >= 10
        for request in requests:
            assert invoke(capsys, *request.split()) == (0, golden[request], "")

    def test_rejects_ten_branch_points_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "oracle", "hurwitz", "--degree", "6",
                                "--genus", "0", "--partition", "1,1,1,1,1,1")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert "r = 10 branch points" in err and "work limit 2000000" in err
        for flag in ("--degree 6", "--genus 0", "--partition 1,1,1,1,1,1"):
            assert flag in err

    def test_bound_in_branch_points(self, capsys):
        # d = 2 has one transposition: 2^20 nodes pass, 2^21 do not
        assert invoke(capsys, "oracle", "hurwitz", "--degree", "2",
                      "--genus", "9", "--partition", "1,1")[0] == 0
        code, _, err = invoke(capsys, "oracle", "hurwitz", "--degree", "2",
                              "--genus", "10", "--partition", "2")
        assert code == 1 and "r = 21 branch points" in err

    def test_huge_genus_rejected_without_computing_the_power(self, capsys):
        code, _, err = invoke(capsys, "oracle", "hurwitz", "--degree", "3",
                              "--genus", str(10 ** 12), "--partition", "3")
        assert code == 1 and "work limit" in err


class TestSeveriDegreeLimit:
    def test_admits_every_golden_request(self):
        golden = json.loads(TestOracleWorkLimit.GOLDEN.read_text())
        degrees = [int(k.split()[k.split().index("--degree") + 1])
                   for k in golden if k.startswith("severi ")]
        assert len(degrees) >= 10
        assert max(degrees) <= SEVERI_MAX_DEGREE == 10

    @pytest.mark.parametrize("table", [(), ("--table",)])
    def test_admits_the_bound(self, capsys, table):
        code, out, _ = invoke(capsys, "severi", "--degree", "10",
                              "--delta", "0", *table)
        assert code == 0
        rows = json.loads(out)
        assert (rows[-1] if table else rows)["d"] == 10

    @pytest.mark.parametrize("degree", ["11", "27"])
    @pytest.mark.parametrize("table", [(), ("--table",)])
    def test_rejects_past_the_bound_at_once(self, capsys, degree, table):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "severi", "--degree", degree,
                                "--delta", "0", *table)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert f"--degree expects an integer <= 10 for severi; got " \
            f"{degree}" in err


class TestHurwitzWorkLimit:
    def test_admits_every_golden_request(self, capsys):
        golden = json.loads(TestOracleWorkLimit.GOLDEN.read_text())
        requests = [k for k in golden if k.startswith("hurwitz ")]
        assert len(requests) >= 10
        for request in requests:
            assert invoke(capsys, *request.split()) == (0, golden[request], "")

    def test_admits_the_bounds(self, capsys):
        assert (HURWITZ_MAX_DEGREE, HURWITZ_MAX_BRANCH) == (10, 18)
        # d = 10, g = 4, partition 10: r = 17
        code, out, _ = invoke(capsys, "hurwitz", "--degree", "10", "--genus",
                              "4", "--partition", "10")
        assert code == 0 and json.loads(out)["r"] == 17
        # d = 8, g = 4, partition 5,1,1,1: r = 18
        code, out, _ = invoke(capsys, "hurwitz", "--degree", "8", "--genus",
                              "4", "--partition", "5,1,1,1")
        assert code == 0 and json.loads(out)["r"] == 18

    def test_rejects_the_first_degree_past_the_bound(self, capsys):
        code, out, err = invoke(capsys, "hurwitz", "--degree", "11",
                                "--genus", "0", "--partition", "11")
        assert code == 1 and out == ""
        assert "--degree expects an integer <= 10 for hurwitz; got 11" in err

    def test_rejects_the_first_branch_count_past_the_bound(self, capsys):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "hurwitz", "--degree", "8", "--genus",
                                "4", "--partition", "4,1,1,1,1")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert "r = 19 branch points" in err and "limit 18" in err
        for flag in ("--degree 8", "--genus 4", "--partition 4,1,1,1,1"):
            assert flag in err

    def test_huge_genus_rejected_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "hurwitz", "--degree", "3",
                                "--genus", "1000000", "--partition", "3")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert "r = 2000002 branch points" in err


def golden_option(prefix, flag):
    """The values of ``flag`` over the golden requests starting ``prefix``."""
    golden = json.loads(TestOracleWorkLimit.GOLDEN.read_text())
    return [int(k.split()[k.split().index(flag) + 1])
            for k in golden if k.startswith(prefix)]


def rejected_at_once(capsys, *argv):
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    return err


class TestSeveriProfileLimit:
    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    def test_admits_orders_up_to_the_degree(self, capsys, flag):
        code, out, _ = invoke(capsys, "severi", "--degree", "3",
                              "--delta", "0", flag, "3:1")
        assert code == 0 and json.loads(out)["d"] == 3

    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    @pytest.mark.parametrize("order", ["4", "1000000"])
    def test_rejects_orders_past_the_degree(self, capsys, flag, order):
        err = rejected_at_once(capsys, "severi", "--degree", "3",
                               "--delta", "0", flag, f"1:1,{order}:1")
        assert f"{flag} expects orders k <= --degree 3; got k = {order}" \
            in err


class TestCatalogOrderLimit:
    def test_admits_every_golden_request(self):
        orders = golden_option("catalog ", "--order")
        assert len(orders) >= 10
        assert max(orders) <= CATALOG_MAX_ORDER == 20

    def test_admits_the_bound(self, capsys):
        code, out, _ = invoke(capsys, "catalog", "p1", "--order", "20")
        assert code == 0 and json.loads(out)

    @pytest.mark.parametrize("order", ["21", str(10 ** 12)])
    @pytest.mark.parametrize("name", ["p1", "torus"])
    def test_rejects_past_the_bound_at_once(self, capsys, name, order):
        err = rejected_at_once(capsys, "catalog", name, "--order", order)
        assert f"--order expects an integer <= 20 for catalog; got {order}" \
            in err


class TestOracleValueLimits:
    def test_admits_every_golden_request(self):
        degrees = golden_option("oracle kontsevich ", "--degree")
        assert len(degrees) >= 9
        assert max(degrees) <= ORACLE_KONTSEVICH_MAX_DEGREE == 100
        assert ORACLE_SIGMA_MAX_N == 10 ** 12

    @pytest.mark.parametrize("argv, row", [
        (("kontsevich", "--degree", "100"), {"d": 100}),
        (("sigma", "--n", "12"), {"n": 12, "value": "28"}),
        # sigma(2^12 5^12) = (2^13 - 1)(5^13 - 1) / 4
        (("sigma", "--n", str(10 ** 12)),
         {"n": 10 ** 12, "value": str((2 ** 13 - 1) * (5 ** 13 - 1) // 4)})])
    def test_admits_the_bounds(self, capsys, argv, row):
        code, out, _ = invoke(capsys, "oracle", *argv)
        assert code == 0 and row.items() <= json.loads(out).items()

    @pytest.mark.parametrize("argv, message", [
        (("kontsevich", "--degree", "101"),
         "--degree expects an integer <= 100 for oracle kontsevich; got 101"),
        (("kontsevich", "--degree", str(10 ** 12)),
         "--degree expects an integer <= 100 for oracle kontsevich"),
        (("sigma", "--n", str(10 ** 12 + 1)),
         f"--n expects an integer <= {10 ** 12} for oracle sigma; "
         f"got {10 ** 12 + 1}"),
        (("sigma", "--n", str(10 ** 18)),
         f"--n expects an integer <= {10 ** 12} for oracle sigma")])
    def test_rejects_past_the_bounds_at_once(self, capsys, argv, message):
        assert message in rejected_at_once(capsys, "oracle", *argv)


class TestEllipticLimits:
    def test_admits_every_golden_request(self):
        genera = golden_option("elliptic ", "--genus")
        orders = golden_option("elliptic ", "--order")
        assert len(genera) >= 10 and len(orders) >= 10
        assert max(genera) <= ELLIPTIC_MAX_GENUS == 4
        assert max(orders) <= ELLIPTIC_MAX_ORDER == 80

    def test_admits_the_bounds(self, capsys):
        code, out, _ = invoke(capsys, "elliptic", "--check", "--genus", "4",
                              "--order", "80")
        assert code == 0 and all(row["zero"] for row in json.loads(out))

    @pytest.mark.parametrize("argv, message", [
        (("--genus", "5"), "--genus expects an integer <= 4 for elliptic; "
                           "got 5"),
        (("--genus", str(10 ** 12)), "--genus expects an integer <= 4"),
        (("--genus", "-1"), "--genus expects an integer >= 0; got -1"),
        (("--order", "81"), "--order expects an integer <= 80 for elliptic; "
                            "got 81"),
        (("--order", str(10 ** 12)), "--order expects an integer <= 80")])
    @pytest.mark.parametrize("check", [(), ("--check",)])
    def test_rejects_past_the_bounds_at_once(self, capsys, argv, message,
                                             check):
        assert message in rejected_at_once(capsys, "elliptic", *check, *argv)


def run_fresh(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter without a cache."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("SUMKIT_CACHE_DIR", None)
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


# a valid request, a rejected one, help, then another verb
REUSE_SEQUENCE = (
    ("hurwitz", "--degree", "3", "--genus", "0", "--partition", "2,1"),
    ("severi", "--degree", "x", "--delta", "1"),
    ("--help",),
    ("oracle", "sigma", "--n", "12"),
)


def test_one_parser_serves_every_run_of_a_process():
    """A process that calls ``run`` again reuses the parser it built
    first, and each request exits and prints as in a process of its own."""
    out = run_fresh(f"""
        import contextlib, io, json
        from sumkit import cli
        results = []
        for argv in {REUSE_SEQUENCE!r}:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \\
                    contextlib.redirect_stderr(err):
                code = cli.run(list(argv))
            results.append([code, out.getvalue(), err.getvalue()])
        print(json.dumps([results, cli.build_parser.cache_info().misses]))
    """)
    results, misses = json.loads(out)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("SUMKIT_CACHE_DIR", None)
    for argv, result in zip(REUSE_SEQUENCE, results, strict=True):
        done = subprocess.run([sys.executable, "-m", "sumkit.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert result == [done.returncode, done.stdout, done.stderr], argv
    assert [code for code, *_ in results] == [0, 2, 0, 0]
    assert misses == 1


def test_only_the_check_verb_imports_checks():
    out = run_fresh("""
        import sys
        import sumkit.cli
        assert "sumkit.checks" not in sys.modules
        assert sumkit.cli.run(["oracle", "sigma", "--n", "12"]) == 0
        assert "sumkit.checks" not in sys.modules
    """)
    assert json.loads(out)["value"] == "28"


def test_checks_does_not_import_the_cli():
    # the acceptance suite reads the Severi degree limit from profiles, so
    # it and the CLI that imports it for `check` form no import cycle
    out = run_fresh("""
        import sys
        import sumkit.checks
        print("sumkit.cli" in sys.modules)
    """)
    assert out == "False\n"


def test_an_engine_key_error_is_not_reported_as_a_user_error(monkeypatch):
    # no code path raises KeyError on purpose: one is a bug, and must not
    # print as "error: 'x'" with exit 1
    from sumkit import oracles

    def broken(n):
        raise KeyError("x")

    monkeypatch.setattr(oracles, "divisor_sum", broken)
    with pytest.raises(KeyError):
        run(["oracle", "sigma", "--n", "4"])


ENGINE = {"series", "contacts", "severi", "hurwitz", "gluing", "catalog",
          "elliptic"}
# a request that ends with these is answered from a cache that the test
# fills first
CACHED = ["--cache-dir", "<filled>"]


@pytest.mark.parametrize("argv, runs, idle", [
    (["hurwitz", "--degree", "3", "--genus", "0", "--partition", "3"],
     {"hurwitz"}, {"catalog", "elliptic", "gluing", "dataclasses"}),
    (["severi", "--degree", "3", "--delta", "1"],
     {"severi"}, {"catalog", "elliptic", "gluing", "dataclasses"}),
    (["catalog", "torus", "--order", "3"],
     {"catalog", "gluing", "dataclasses"}, {"elliptic", "hurwitz", "severi"}),
    pytest.param(["hurwitz", "--degree", "3", "--genus", "0", "--partition",
                  "3", *CACHED], {"oracles"}, ENGINE, id="hurwitz-cached"),
    pytest.param(["severi", "--degree", "3", "--delta", "1", *CACHED],
                 {"profiles"}, ENGINE, id="severi-cached"),
    pytest.param(["oracle", "kontsevich", "--degree", "3"],
                 {"oracles"}, ENGINE, id="oracle-kontsevich"),
    pytest.param(None, set(), ENGINE | {"oracles", "profiles"},
                 id="import-sumkit-alone"),
])
def test_each_verb_runs_only_the_layers_it_uses(capsys, tmp_path, argv, runs,
                                                idle):
    # a layer that sumkit.cli registered and nothing has used is still of
    # the lazy module type: any attribute access would run its body
    cached = argv is not None and argv[-2:] == CACHED
    if cached:
        argv = argv[:-1] + [str(tmp_path)]
        assert run(argv) == 0 and os.listdir(tmp_path)
    request = "" if argv is None else \
        f"import sumkit.cli; assert sumkit.cli.run({argv!r}) == 0"
    out = run_fresh(f"""
        import json, sys, types
        import sumkit
        {request}
        ran = [name.removeprefix("sumkit.")
               for name, module in sys.modules.items()
               if type(module) is types.ModuleType]
        print(json.dumps(ran))
    """)
    *printed, last = out.splitlines()
    if cached:
        # the hit printed what the request that filled the cache printed
        assert printed == capsys.readouterr().out.splitlines()
    ran = set(json.loads(last))
    assert runs <= ran
    assert not idle & ran


def test_a_reader_that_closes_stdout_early_gets_no_traceback():
    # as `python -m sumkit.cli catalog p1 | head -1` does; the read end is
    # closed before the first write, so the write always fails
    src = str(Path(__file__).resolve().parent.parent / "src")
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "sumkit.cli", "catalog", "p1", "--order",
             "8"], stdout=write, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=60)
    finally:
        os.close(write)
    assert done.returncode == 1
    assert done.stderr == ""


def test_lazy_layers_behave_like_imported_ones():
    run_fresh("""
        import sys, types
        import sumkit.severi
        severi = sys.modules["sumkit.severi"]
        import sumkit.cli
        # a layer imported before sumkit.cli is reused as it is
        assert sumkit.cli.severi is severi
        assert type(severi) is types.ModuleType
        import sumkit.gluing
        assert sumkit.gluing.RelSeries.__name__ == "RelSeries"
        from sumkit import catalog
        assert catalog is sumkit.cli.catalog
        assert "torus" in catalog.catalog_entries()
    """)


class TestCheckVerb:
    @pytest.mark.parametrize("error", [GluingError("bad series"),
                                       ZeroDivisionError("division")])
    def test_raising_check_reported_as_fail(self, capsys, monkeypatch, error):
        def good():
            return checks._run("good", lambda: "fine")

        def bad():
            def body():
                raise error
            return checks._run("bad", body)

        monkeypatch.setattr(checks, "ALL_CHECKS", (good, bad))
        code, out, _ = invoke(capsys, "check")
        rows = json.loads(out)
        assert code == 1
        assert [(r["check"], r["status"]) for r in rows] == \
            [("good", "pass"), ("bad", "FAIL")]
        assert type(error).__name__ in rows[1]["detail"]


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        first = invoke(capsys, "severi", "--degree", "4", "--delta", "3")
        second = invoke(capsys, "severi", "--degree", "4", "--delta", "3")
        assert first == second

    def test_cache_does_not_change_values(self, capsys, tmp_path):
        plain = invoke(capsys, "hurwitz", "--degree", "3", "--genus", "0",
                       "--partition", "2,1")
        cached_cold = invoke(capsys, "--cache-dir", str(tmp_path), "hurwitz",
                             "--degree", "3", "--genus", "0",
                             "--partition", "2,1")
        cached_warm = invoke(capsys, "--cache-dir", str(tmp_path), "hurwitz",
                             "--degree", "3", "--genus", "0",
                             "--partition", "2,1")
        assert plain == cached_cold == cached_warm


class TestCache:
    def test_store_then_load(self, tmp_path):
        cache = ValueCache(str(tmp_path))
        cache.store("severi", {"k": "5"})
        assert cache.load("severi") == {"k": "5"}

    def test_corrupt_lines_skipped(self, tmp_path, capsys):
        path = tmp_path / "severi.jsonl"
        good = json.dumps({"key": "a", "value": "1", "engine": ENGINE_VERSION})
        path.write_text("not json at all\n" + good + "\n")
        cache = ValueCache(str(tmp_path))
        assert cache.load("severi") == {"a": "1"}
        assert "corrupt" in capsys.readouterr().err

    def test_version_mismatch_ignored(self, tmp_path):
        path = tmp_path / "severi.jsonl"
        stale = json.dumps({"key": "a", "value": "1", "engine": "0.0.0"})
        path.write_text(stale + "\n")
        cache = ValueCache(str(tmp_path))
        assert cache.load("severi") == {}

    def test_unwritable_directory_disables(self, capsys):
        cache = ValueCache("/proc/definitely/not/writable")
        # computation still proceeds
        assert cache.load("severi") == {}
        cache.store("severi", {"k": "1"})
        assert "cache disabled" in capsys.readouterr().err

    def test_probe_name_is_per_process(self, tmp_path, capsys):
        # another process's probe (here a directory in its place) must not
        # disable this one's cache
        (tmp_path / ".probe").mkdir()
        cache = ValueCache(str(tmp_path))
        assert os.listdir(tmp_path) == [".probe"]
        cache.store("severi", {"k": "5"})
        assert cache.load("severi") == {"k": "5"}
        assert "cache disabled" not in capsys.readouterr().err

    def test_atomic_rewrite_keeps_other_entries(self, tmp_path):
        cache = ValueCache(str(tmp_path))
        cache.store("hurwitz", {"a": "1/2"})
        cache.store("hurwitz", {"b": "1/3"})
        assert cache.load("hurwitz") == {"a": "1/2", "b": "1/3"}

    def test_torn_last_line_loses_only_itself(self, tmp_path, capsys):
        (tmp_path / "severi.jsonl").write_text('{"key": "a", "val')
        cache = ValueCache(str(tmp_path))
        cache.store("severi", {"b": "1"})
        assert cache.load("severi") == {"b": "1"}
        assert "corrupt" in capsys.readouterr().err

    def test_concurrent_writers_keep_every_key(self, tmp_path):
        src = str(Path(__file__).resolve().parent.parent / "src")
        writer = textwrap.dedent("""
            import sys
            from sumkit.cli import ValueCache
            cache = ValueCache(sys.argv[1])
            for i in range(30):
                cache.store("severi", {f"{sys.argv[2]}-{i}": str(i)})
        """)
        env = dict(os.environ, PYTHONPATH=src)
        writers = [subprocess.Popen([sys.executable, "-c", writer,
                                     str(tmp_path), name], env=env)
                   for name in "abc"]
        for proc in writers:
            assert proc.wait(timeout=60) == 0
        entries = ValueCache(str(tmp_path)).load("severi")
        assert entries == {f"{name}-{i}": str(i)
                           for name in "abc" for i in range(30)}
        assert os.listdir(tmp_path) == ["severi.jsonl"]

    @pytest.mark.parametrize("verb, table, line", [
        (("hurwitz", "--degree", "3", "--genus", "0", "--partition", "3"),
         "hurwitz", 5),
        (("severi", "--degree", "4", "--delta", "3"), "severi", ["x"]),
        (("hurwitz", "--degree", "3", "--genus", "0", "--partition", "3"),
         "hurwitz", {"engine": ENGINE_VERSION, "key": [3, 0, [3]],
                     "value": "1/3"}),
        (("hurwitz", "--degree", "3", "--genus", "0", "--partition", "3"),
         "hurwitz", {"engine": ENGINE_VERSION, "key": 3, "value": "1/3"})])
    def test_line_that_is_not_a_record_is_skipped_and_recomputed(
            self, capsys, tmp_path, verb, table, line):
        plain = invoke(capsys, *verb)
        (tmp_path / f"{table}.jsonl").write_text(json.dumps(line) + "\n")
        assert ValueCache(str(tmp_path)).load(table) == {}
        assert f"skipping corrupt cache line in {table}.jsonl" \
            in capsys.readouterr().err
        code, out, err = invoke(capsys, "--cache-dir", str(tmp_path), *verb)
        assert (code, out) == plain[:2] and code == 0
        assert f"skipping corrupt cache line in {table}.jsonl" in err
        # the recomputed value is stored, and the corrupt line is dropped
        stored = ValueCache(str(tmp_path)).load(table)
        assert list(stored.values()) == [json.loads(out)["value"]]

    def test_corrupt_line_warns_only_until_a_store_drops_it(
            self, capsys, tmp_path):
        verb = ("hurwitz", "--degree", "3", "--genus", "0", "--partition", "3")
        (tmp_path / "hurwitz.jsonl").write_text("5\n")
        runs = [invoke(capsys, "--cache-dir", str(tmp_path), *verb)
                for _ in range(3)]
        warning = "warning: skipping corrupt cache line in hurwitz.jsonl"
        assert [warning in err for _, _, err in runs] == [True, False, False]
        assert [(code, out) for code, out, _ in runs] == [runs[0][:2]] * 3
        assert runs[0][0] == 0

    @pytest.mark.parametrize("verb, table, key, value", [
        (("hurwitz", "--degree", "3", "--genus", "0", "--partition", "2,1"),
         "hurwitz", "[3, 0, [2, 1]]", "zz"),
        (("hurwitz", "--degree", "3", "--genus", "0", "--partition", "2,1"),
         "hurwitz", "[3, 0, [2, 1]]", "1/0"),
        (("hurwitz", "--degree", "3", "--genus", "0", "--partition", "2,1"),
         "hurwitz", "[3, 0, [2, 1]]", 4),
        (("severi", "--degree", "4", "--delta", "3"),
         "severi", "[4, 3, [], [4]]", "x1")])
    def test_unparsable_value_is_skipped_and_recomputed(
            self, capsys, tmp_path, verb, table, key, value):
        plain = invoke(capsys, *verb)
        line = {"engine": ENGINE_VERSION, "key": key, "value": value}
        (tmp_path / f"{table}.jsonl").write_text(json.dumps(line) + "\n")
        code, out, err = invoke(capsys, "--cache-dir", str(tmp_path), *verb)
        assert (code, out) == plain[:2] and code == 0
        assert f"skipping corrupt cache line in {table}.jsonl" in err
        # the recomputed value is stored, and the next request hits it
        stored = ValueCache(str(tmp_path)).load(table)[key]
        assert stored == json.loads(out)["value"]
        assert invoke(capsys, "--cache-dir", str(tmp_path), *verb) \
            == (0, out, "")

    @pytest.mark.parametrize("verb", [
        ("oracle", "sigma", "--n", "12"), ("catalog", "torus", "--order", "4"),
        ("elliptic", "--order", "3"),
        ("severi", "--degree", "3", "--delta", "1", "--table")], ids=" ".join)
    def test_only_cached_requests_touch_the_directory(self, capsys, tmp_path,
                                                      verb):
        missing = tmp_path / "cache"
        code, _, err = invoke(capsys, "--cache-dir", str(missing), *verb)
        assert code == 0 and err == ""
        assert not missing.exists()

    @pytest.mark.parametrize("verb, table", [
        (("severi", "--degree", "4", "--delta", "3"), "severi"),
        (("hurwitz", "--degree", "3", "--genus", "0", "--partition", "3"),
         "hurwitz")])
    @pytest.mark.parametrize("broken", ["directory", "dangling-symlink"])
    def test_broken_table_warns_once_and_prints_the_value(
            self, capsys, tmp_path, verb, table, broken):
        plain = invoke(capsys, *verb)
        path = tmp_path / f"{table}.jsonl"
        if broken == "directory":
            path.mkdir()
        else:
            path.symlink_to(tmp_path / "missing" / "table.jsonl")
        code, out, err = invoke(capsys, "--cache-dir", str(tmp_path), *verb)
        assert (code, out) == plain[:2] and code == 0
        assert err.count("warning: cache disabled") == 1
        assert err.count("\n") == 1
