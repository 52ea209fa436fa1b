"""End-to-end command tests driven through main() in process."""

import csv
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from projheight import cayley, cli, heights, modular
from projheight.cayley import (
    BetaReport,
    CapExceededError,
    CayleyGraph,
    css_check,
)
from projheight.cli import EXIT_INPUT, EXIT_LIMIT, EXIT_OK, EXIT_VIOLATION, main
from projheight.heights import line_fast_path
from projheight.modular import MAX_MODULUS, primes_up_to
from projheight.report import cell

GOLDEN = Path(__file__).parent / "golden"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    """The environment for `python -m projheight` in a child process, importing this tree."""
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestHeightCommand:
    def test_text(self, capsys):
        code, out, err = run(["height", "-p", "11", "-a", "1,7"], capsys)
        assert code == EXIT_OK and err == ""
        assert "height: 5" in out
        assert "argmin_k: 2" in out

    def test_csv_cells(self, capsys):
        code, out, _ = run(["height", "-p", "11", "-a", "1,7", "--format", "csv"], capsys)
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert row["point"] == "1:7"
        assert row["height"] == "5"
        assert row["bound_direct"] == "8"
        assert row["bound_complement"] == "5"

    def test_json(self, capsys):
        code, out, _ = run(["height", "-p", "11", "-a", "2,3", "--format", "json"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["schema_version"] == "1"
        assert payload["command"] == "height"
        # input is canonicalized before anything else
        assert payload["rows"][0]["point"] == "1:7"
        assert payload["summary"]["height"] == 5

    def test_higher_dimension(self, capsys):
        code, out, _ = run(["height", "-p", "7", "-a", "1,2,3"], capsys)
        assert code == EXIT_OK
        assert "height: 6" in out
        assert "argmin_k: 1" in out


class TestTableCommand:
    def test_paper_range(self, capsys):
        code, out, _ = run(["table", "--paper-range", "--format", "csv"], capsys)
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["p", "a", "height", "argmin_k", "method"]
        assert len(rows) == sum(p - 3 for p in (11, 13, 17, 19, 23, 29))
        block = [(r[1], r[2]) for r in rows if r[0] == "11"]
        assert block == [
            ("2", "3"), ("3", "4"), ("4", "4"), ("5", "6"),
            ("6", "3"), ("7", "5"), ("8", "5"), ("9", "6"),
        ]

    def test_explicit_range(self, capsys):
        code, out, _ = run(["table", "--pmin", "3", "--pmax", "7", "--format", "csv"], capsys)
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["5", "5", "7", "7", "7", "7"]
        assert [r[2] for r in rows] == ["3", "3", "3", "4", "3", "4"]

    def test_empty_range_still_has_header(self, capsys):
        code, out, _ = run(["table", "--pmin", "3", "--pmax", "3", "--format", "csv"], capsys)
        assert code == EXIT_OK
        assert out == "p,a,height,argmin_k,method\n"

    def test_limit_refused_before_any_table(self, capsys, monkeypatch):
        def no_table(p):
            raise AssertionError("a line table was built before the limit check")

        monkeypatch.setattr("projheight.cli.line_height_table", no_table)
        code, out, err = run(["table", "--pmin", "3", "--pmax", "2239"], capsys)
        assert code == EXIT_LIMIT and out == ""
        assert err == "error: enumeration needs 5008644 evaluations, budget is 5000000\n"

    def test_range_required(self, capsys):
        code, _, err = run(["table"], capsys)
        assert code == EXIT_INPUT and "error:" in err
        code, _, _ = run(["table", "--pmin", "11", "--pmax", "7"], capsys)
        assert code == EXIT_INPUT

    @pytest.mark.parametrize(
        "bounds", [["--pmin", "3", "--pmax", "5"], ["--pmin", "3"], ["--pmax", "5"]]
    )
    def test_paper_range_refuses_bounds(self, bounds, capsys):
        code, out, err = run(["table", "--paper-range", *bounds], capsys)
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: --paper-range takes no --pmin or --pmax\n"


class TestSpectrumCommand:
    def test_line_spectrum(self, capsys):
        code, out, _ = run(
            ["spectrum", "-p", "7", "-d", "2", "--check-bounds", "--format", "json"], capsys
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        counts = {r["value"]: r["count"] for r in payload["rows"]}
        assert counts == {1: 2, 2: 1, 3: 2, 4: 2, 7: 1}
        assert payload["summary"]["max_height"] == 7
        assert payload["summary"]["gaps"] == "(4,7)"
        assert payload["summary"]["bound_ok"] is True

    def test_budget_exit(self, capsys):
        code, _, err = run(["spectrum", "-p", "7", "-d", "3", "--budget", "10"], capsys)
        assert code == EXIT_LIMIT
        assert "budget" in err


class TestGapsCommand:
    def test_shrunk_windows_are_empty(self, capsys):
        code, out, _ = run(
            ["gaps", "--pmax", "29", "--c", "1/2", "--format", "csv"], capsys
        )
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        empty_col = header.index("empty")
        assert rows and all(r[empty_col] == "true" for r in rows)

    def test_open_windows_are_not(self, capsys):
        code, out, _ = run(["gaps", "--pmax", "11", "--format", "json"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["summary"]["windows_all_empty"] is False
        by_p = {r["p"]: r for r in payload["rows"]}
        assert by_p[11]["inside"] == "6"

    def test_line_table_cache_is_bounded(self, capsys):
        code, out, _ = run(["gaps", "--pmax", "1700", "--format", "json"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["summary"]["primes"] > 256
        assert heights.line_height_table.cache_info().currsize <= 256

    def test_bad_r(self, capsys):
        code, _, _ = run(["gaps", "--pmax", "11", "--r", "0"], capsys)
        assert code == EXIT_INPUT

    def test_pmax_below_default_pmin_is_an_empty_table(self, capsys):
        # --pmin was not given, so --pmax 2 is not refused for exceeding it
        code, out, err = run(["gaps", "--pmax", "2", "--format", "json"], capsys)
        assert code == EXIT_OK and err == ""
        payload = json.loads(out)
        assert payload["rows"] == [] and payload["parameters"]["pmin"] == 3
        assert payload["summary"] == {"primes": 0, "windows_all_empty": True}
        code, explicit, _ = run(["gaps", "--pmin", "2", "--pmax", "2"], capsys)
        assert code == EXIT_OK
        code, implicit, _ = run(["gaps", "--pmax", "2"], capsys)
        assert implicit == explicit.replace("# pmin = 2", "# pmin = 3")

    def test_explicit_pmin_above_pmax(self, capsys):
        code, out, err = run(["gaps", "--pmin", "5", "--pmax", "3"], capsys)
        assert code == EXIT_INPUT and out == ""
        assert err == "error: --pmin must not exceed --pmax\n"

    def test_limit_refused_before_any_table(self, capsys, monkeypatch):
        def no_table(p):
            raise AssertionError("a line table was built before the budget check")

        monkeypatch.setattr("projheight.heights.line_height_table", no_table)
        code, out, err = run(["gaps", "--pmax", "5000100"], capsys)
        assert code == EXIT_LIMIT and out == ""
        # the largest prime, 5000087, has p + 1 points
        assert err == "error: enumeration needs 5000088 evaluations, budget is 5000000\n"


class TestCayleyCommand:
    def test_full_flags(self, capsys):
        code, out, _ = run(
            ["cayley", "-p", "11", "-A", "1,7", "--exact", "--css", "--girth",
             "--format", "json"],
            capsys,
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        row = payload["rows"][0]
        assert row["triangle_free"] is True
        assert row["gamma"] == 33
        assert row["beta_upper"] == 5 and row["witness_k"] == 6
        assert row["beta_exact"] == 5
        assert row["shortest_cycle"] == 4
        assert payload["summary"]["violations"] == 0

    def test_girth_omitted_by_default(self, capsys):
        code, out, _ = run(["cayley", "-p", "11", "-A", "1,7", "--format", "csv"], capsys)
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["shortest_cycle"] == ""
        assert row["beta_exact"] == ""

    def test_witness_reported(self, capsys):
        code, out, _ = run(["cayley", "-p", "7", "-A", "1,6", "--format", "csv"], capsys)
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["triangle_free"] == "false"
        assert row["witness"] == "1;6"

    def test_girth_at_max_modulus(self, capsys):
        # a BFS would walk 2^31 - 1 vertices; the d = 2 girth is one line height
        start = time.perf_counter()
        code, out, _ = run(
            ["cayley", "-p", "2147483647", "-A", "1,5", "--girth", "--format", "csv"], capsys
        )
        assert code == EXIT_OK and time.perf_counter() - start < 1.0
        header, rows = parse_csv(out)
        assert dict(zip(header, rows[0]))["shortest_cycle"] == "429496731"

    @pytest.mark.parametrize(
        "A, beta, k",
        [
            ("1,2,3", "6", "1"),
            ("1,5,7", "13", "1"),
            ("3,7,11,19", "40", "1"),
            ("2147480646,2147481647,2147482647", "6001", "2147483646"),
        ],
    )
    def test_small_heights_at_max_modulus(self, A, beta, k, capsys):
        # the scans stop by k = h - nonzeros, far below p - 1
        code, out, _ = run(["cayley", "-p", "2147483647", "-A", A, "--format", "csv"], capsys)
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert (row["beta_upper"], row["witness_k"]) == (beta, k)

    def test_sum_free_checked_once(self, capsys, monkeypatch):
        real = cayley.is_triangle_free
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr("projheight.cayley.is_triangle_free", counting)
        code, _, _ = run(["cayley", "-p", "11", "-A", "1,7"], capsys)
        assert code == EXIT_OK
        assert len(calls) == 1


class TestScanCommand:
    def test_scan_summary(self, capsys):
        code, out, _ = run(["scan", "--pmax", "7", "-d", "2", "--format", "json"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["summary"] == {"instances": 6, "triangle_free": 1, "violations": 0}

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "scan.csv"
        code, out, _ = run(
            ["scan", "--pmax", "7", "-d", "2", "--format", "csv", "--out", str(target)],
            capsys,
        )
        assert code == EXIT_OK
        assert "instances: 6" in out
        assert f"report written to {target}" in out
        code2, direct, _ = run(["scan", "--pmax", "7", "-d", "2", "--format", "csv"], capsys)
        assert code2 == EXIT_OK
        assert target.read_text(encoding="utf-8") == direct

    def test_out_path_missing_exits_input(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run(["scan", "--pmax", "7", "-d", "2", "--out", str(target)], capsys)
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error: ") and str(target) in err
        assert not target.exists()

    def test_out_path_checked_before_any_work(self, tmp_path, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("scan ran before the --out check")

        monkeypatch.setattr("projheight.cli.scan_css", no_work)
        argv = ["scan", "--pmax", "23", "-d", "3", "--exact", "--out"]
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run(argv + [str(target)], capsys)
        assert code == EXIT_INPUT and out == ""
        assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"
        assert not target.parent.exists()
        code, out, err = run(argv + [str(tmp_path)], capsys)
        assert code == EXIT_INPUT and out == ""
        assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    def test_refused_scan_leaves_no_file(self, tmp_path, capsys):
        target = tmp_path / "x.csv"
        argv = ["scan", "--pmax", "23", "-d", "3", "--budget", "10", "--out", str(target)]
        code, out, _ = run(argv, capsys)
        assert code == EXIT_LIMIT and out == ""
        assert list(tmp_path.iterdir()) == []

    def test_critical_window(self, capsys):
        code, out, _ = run(["scan", "--pmax", "7", "-d", "2", "--format", "csv"], capsys)
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        rows = [dict(zip(header, row)) for row in rows]
        # p/4 < 2 < p/3 holds for p = 7 alone
        assert [row["p"] for row in rows if row["critical_window"] == "true"] == ["7"] * 3
        assert all(row["critical_window"] == "false" for row in rows if row["p"] != "7")

    def test_budget_exit(self, capsys):
        code, _, err = run(["scan", "--pmax", "23", "-d", "3", "--budget", "10"], capsys)
        assert code == EXIT_LIMIT and "error:" in err

    @pytest.mark.parametrize("argv", [["--pmax", "7", "-d", "-1"], ["--pmax", "2", "-d", "0"]])
    def test_d_below_one_refused_before_pricing(self, argv, capsys):
        code, out, err = run(["scan", *argv], capsys)
        assert code == EXIT_INPUT and out == ""
        assert err == "error: connection sets need d >= 1\n"

    def test_violation_exit_code(self, capsys, monkeypatch):
        row = BetaReport(
            graph=CayleyGraph(7, (1, 2)),
            triangle_witness=None, gamma=7, beta_upper=4,
            witness_k=1, beta_exact=None, css_margin=Fraction(-1, 2),
            violations=("beta_upper > (p-1)/2",), shortest_cycle=4,
        )
        monkeypatch.setattr("projheight.cli.scan_css", lambda *a, **k: (row,))
        code, out, _ = run(["scan", "--pmax", "7", "-d", "2", "--format", "csv"], capsys)
        assert code == EXIT_VIOLATION
        assert "beta_upper > (p-1)/2" in out


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv, err",
        [
            (["gaps", "--pmax", "5000100"], "5000088 evaluations, budget is 5000000"),
            (["spectrum", "-p", "5", "-d", "3", "--budget", "10"], "31 evaluations, budget is 10"),
            (["table", "--pmin", "3", "--pmax", "2239"], "5008644 evaluations, budget is 5000000"),
            # the first prime past the budget is named, 2239, not the largest, 2297
            (["table", "--pmin", "3", "--pmax", "2300"], "5008644 evaluations, budget is 5000000"),
            # the running total at the first prime past the budget, 79, not the sum to 101
            (["scan", "--pmax", "101", "-d", "4"], "5761666 evaluations, budget is 5000000"),
            (
                ["cayley", "-p", "2000003", "-A", "1,2,3", "--girth"],
                "6000009 evaluations, budget is 5000000",
            ),
            (
                ["height", "-p", "100000007", "-a", "1,1,100000006"],
                "5219330 evaluations, budget is 5000000",
            ),
        ],
        ids=["gaps", "spectrum", "table", "table-first", "scan", "cayley", "height"],
    )
    def test_budget_refusals(self, argv, err, capsys):
        # every command refuses through heights.check_budget, with one message
        assert run(argv, capsys) == (EXIT_LIMIT, "", f"error: enumeration needs {err}\n")

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            *(
                (f"table --pmin 3 --pmax {n}", EXIT_LIMIT, "enumeration needs 5008644 evaluations")
                for n in (10**8, 10**9, 10**11)
            ),
            ("gaps --pmax 100000000", EXIT_LIMIT, "enumeration needs 99999990 evaluations"),
            ("gaps --pmax 1000000000", EXIT_LIMIT, "enumeration needs 999999938 evaluations"),
            # 2^31 - 1 is prime, so the walk from 10^11 stops at MAX_MODULUS and refuses there
            ("gaps --pmax 100000000000", EXIT_LIMIT, "enumeration needs 2147483648 evaluations"),
            *(
                (f"scan --pmax {n} -d 2", EXIT_LIMIT, "enumeration needs 5105773 evaluations")
                for n in (10**8, 10**9, 10**11)
            ),
            # p^(d-1) passes 2^63 long before p**d would fit in memory, whatever the budget
            ("spectrum -p 97 -d 3000", EXIT_INPUT, "spectrum counts would overflow int64"),
        ],
    )
    def test_huge_ranges_refused_in_a_small_fresh_process(self, argv, code, err):
        # a sieve of pmax + 1 bytes at 10^9 would raise MemoryError under this limit
        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        proc = subprocess.run(
            [sys.executable, "-m", "projheight", *argv.split()],
            capture_output=True,
            env=child_env(),
            timeout=60,
            preexec_fn=limit_address_space,
        )
        if code == EXIT_LIMIT:
            err += ", budget is 5000000"
        assert (proc.returncode, proc.stdout) == (code, b"")
        assert proc.stderr.decode() == f"error: {err}\n"

    def test_range_walks_stop_at_the_first_refused_prime(self, capsys, monkeypatch):
        seen = []

        def counting_is_prime(n):
            seen.append(n)
            return modular.is_prime(n)

        monkeypatch.setattr("projheight.cli.is_prime", counting_is_prime)
        monkeypatch.setattr("projheight.cayley.is_prime", counting_is_prime)
        # table tests 5..2239, gaps only 2^31 - 1, and scan 3..577, where the d = 2 total passes
        walks = [
            ("table --pmin 3 --pmax 100000000000", range(5, 2240)),
            ("gaps --pmax 100000000000", [MAX_MODULUS]),
            ("scan --pmax 100000000000 -d 2", range(3, 578)),
        ]
        for argv, tested in walks:
            seen.clear()
            code, out, _ = run(argv.split(), capsys)
            assert (code, out) == (EXIT_LIMIT, "")
            assert seen == list(tested), argv

    @pytest.mark.parametrize(
        "argv, count",
        [
            (f"table --pmin {MAX_MODULUS + 2} --pmax 100000000000", "primes"),
            (f"gaps --pmin {MAX_MODULUS + 1} --pmax 100000000000", "primes"),
            (f"scan --pmax 100000000000 -d {MAX_MODULUS}", "instances"),
        ],
    )
    def test_range_past_max_modulus_is_empty(self, argv, count, capsys):
        # no prime past MAX_MODULUS is a modulus, so the walk tests no number at all
        code, out, err = run([*argv.split(), "--format", "json"], capsys)
        assert (code, err) == (EXIT_OK, "")
        payload = json.loads(out)
        assert (payload["rows"], payload["summary"][count]) == ([], 0)

    @pytest.mark.parametrize(
        "cap, argv, err",
        [
            (None, "cayley -p 1000003 -A 1,2 --exact", "graph has 1000003 vertices, exact cap is 24"),
            # the packing leaves a gap, and the DP ceiling refuses before any table
            ("29", "cayley -p 29 -A 1,7,16 --exact", "graph has 29 vertices, exact cap is 26"),
            # the first prime past the cap is named, 29, not the largest, 31
            (None, "scan --pmax 31 -d 2 --exact", "graph has 29 vertices, exact cap is 24"),
            ("100", "scan --pmax 31 -d 2 --exact", "graph has 31 vertices, exact cap is 30"),
            ("29", "scan --pmax 29 -d 3 --exact", "graph has 29 vertices, exact cap is 26"),
            (None, "cayley -p 29 -A 1,7 --exact --girth", "graph has 29 vertices, exact cap is 24"),
            # the girth budget is met before the exact cap
            (
                None,
                "cayley -p 2000003 -A 1,2,3 --exact --girth",
                "enumeration needs 6000009 evaluations, budget is 5000000",
            ),
        ],
        ids=["cayley", "cayley-dp", "scan", "scan-ceiling", "scan-dp", "girth", "girth-budget"],
    )
    def test_exact_cap_refusals(self, cap, argv, err, capsys, monkeypatch):
        # every exact-cap refusal is raised by cayley._check_exact_cap, with one message
        if cap is None:
            monkeypatch.delenv("PROJHEIGHT_EXACT_CAP", raising=False)
        else:
            monkeypatch.setenv("PROJHEIGHT_EXACT_CAP", cap)
        assert run(argv.split(), capsys) == (EXIT_LIMIT, "", f"error: {err}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["height", "-p", "4", "-a", "1,2"],
            ["height", "-p", "7", "-a", "0,0"],
            ["height", "-p", "7", "-a", "1,x"],
            ["cayley", "-p", "7", "-A", "1,8"],
        ],
    )
    def test_invalid_input(self, argv, capsys):
        code, _, err = run(argv, capsys)
        assert code == EXIT_INPUT
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gaps", "--pmax", "7", "--c", "1/0"], "argument --c: not a rational number: '1/0'"),
            (
                ["height", "-p", "11", "-a", "2,3", "--budget", "x"],
                "argument --budget: not an integer: 'x'",
            ),
        ],
    )
    def test_malformed_option_is_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        captured = capsys.readouterr()
        assert (info.value.code, captured.out) == (EXIT_INPUT, "")
        assert captured.err.endswith(f": error: {message}\n")

    def test_missing_argument_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["height", "-p", "11"])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_exact_cap_checked_before_any_work(self, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work done before the cap check")

        monkeypatch.setattr("projheight.cayley.edges", no_work)
        monkeypatch.setattr("projheight.cayley.beta_upper", no_work)
        monkeypatch.setattr("projheight.cayley._upper_bounds", no_work)
        with pytest.raises(CapExceededError):
            css_check(CayleyGraph(29, (1, 2)), exact=True)
        code, out, err = run(["cayley", "-p", "1000003", "-A", "1,2", "--exact"], capsys)
        assert code == EXIT_LIMIT and out == ""
        assert err == "error: graph has 1000003 vertices, exact cap is 24\n"

    def test_dp_ceiling_checked_before_the_table(self, capsys, monkeypatch):
        def no_table(*args, **kwargs):
            raise AssertionError("the subset DP allocated its table")

        monkeypatch.setattr("projheight.cayley._popcount_layers", no_table)
        monkeypatch.setenv("PROJHEIGHT_EXACT_CAP", "29")
        # the packing leaves a gap here, and 2^29 subsets would take about 11 GB
        code, out, err = run(["cayley", "-p", "29", "-A", "1,7,16", "--exact"], capsys)
        assert code == EXIT_LIMIT and out == ""
        assert err == "error: graph has 29 vertices, exact cap is 26\n"
        # every d = 2 class settles by its packing, with no DP
        code, _, _ = run(["cayley", "-p", "29", "-A", "1,2", "--exact"], capsys)
        assert code == EXIT_OK

    def test_girth_budget_checked_before_any_work(self, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work done before the girth budget check")

        monkeypatch.setattr("projheight.cli.css_check", no_work)
        code, out, err = run(["cayley", "-p", "2147483647", "-A", "1,5,7", "--girth"], capsys)
        assert code == EXIT_LIMIT and out == ""
        assert err == "error: enumeration needs 6442450941 evaluations, budget is 5000000\n"

    def test_exact_cap_checked_before_the_girth_search(self, capsys, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("the girth search ran before the exact cap check")

        monkeypatch.setattr("projheight.cayley._bfs_girth", no_search)
        # p*d is within the girth budget, so only the exact cap refuses
        code, out, err = run(["cayley", "-p", "4999999", "-A", "1", "--exact", "--girth"], capsys)
        assert code == EXIT_LIMIT and out == ""
        assert err == "error: graph has 4999999 vertices, exact cap is 24\n"

    def test_height_budget_checked_before_any_work(self, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("residues computed past the height budget")

        monkeypatch.setattr("projheight.heights._residue_sums", no_work)
        # U = 102, so the first block reads 2 tails * (p - 1) = 200 cells, refused
        # before any residue is computed
        code, out, err = run(["height", "-p", "101", "-a", "0,1,50,51", "--budget", "199"], capsys)
        assert code == EXIT_LIMIT and out == ""
        assert err == "error: enumeration needs 200 evaluations, budget is 199\n"
        # the first lattice round of this point lists 3,601 multipliers, 2 cells each
        argv = ["height", "-p", "2147483647", "-a", "1,1234567891,987654321", "--budget", "7201"]
        code, out, err = run(argv, capsys)
        assert code == EXIT_LIMIT and out == ""
        assert err == "error: enumeration needs 7202 evaluations, budget is 7201\n"
        monkeypatch.undo()
        code, _, _ = run(["height", "-p", "101", "-a", "0,1,50,51", "--budget", "200"], capsys)
        assert code == EXIT_OK
        code, out, _ = run(argv[:-1] + ["7202"], capsys)
        assert code == EXIT_OK and "height: 605169" in out
        # the scan reads below U + 1 = 7 only: 2 tails * 4 multipliers
        code, out, _ = run(["height", "-p", "101", "-a", "0,1,2,3", "--budget", "8"], capsys)
        assert code == EXIT_OK and "height: 6" in out
        # {1, p - 1} sums to 0, so h >= p: the point is scanned, 2 tails per k in blocks
        # of 4096, 8192, ..., 2^18 multipliers, until the next block would pass the budget
        code, out, err = run(["height", "-p", "100000007", "-a", "1,1,100000006"], capsys)
        assert code == EXIT_LIMIT and out == ""
        assert err == "error: enumeration needs 5219330 evaluations, budget is 5000000\n"

    @pytest.mark.parametrize("A", ["1,2,2147483644", "1,2,2147483643"])
    def test_cayley_budget_checked_before_any_scan(self, A, capsys, monkeypatch):
        # a triangle of 2x mod p holds more than the block cells, so both go to the
        # scan, and neither settles within the budget ({1, 2, p - 3} sums to 0, so
        # its h is p); the scan charges 2 cells per k, in blocks of 4096, 8192, ...,
        # 2^18 multipliers, and refuses the block that would pass the budget before its sums
        cells = []
        residue_sums = heights._residue_sums

        def spy(rows, ks, q):
            cells.append(rows.shape[1] * len(ks))
            return residue_sums(rows, ks, q)

        monkeypatch.setattr("projheight.heights._residue_sums", spy)
        code, out, err = run(["cayley", "-p", "2147483647", "-A", A], capsys)
        assert code == EXIT_LIMIT and out == ""
        assert err == "error: enumeration needs 5234688 evaluations, budget is 5000000\n"
        assert sum(cells) == 2 * (258048 + 8 * 2**18) <= 5000000
        assert sum(cells) + 2 * 2**18 == 5234688

    @pytest.mark.parametrize(
        "A, h, k",
        [
            pytest.param("1,1234567891,987654321", 605169, 3879, id="1,1234567891,987654321"),
            pytest.param("1,1234567,987654321", 3581020, 1690759, id="1,1234567,987654321"),
        ],
    )
    def test_lattice_points_answered(self, A, h, k, capsys):
        # the lattice settles both in a few thousand cells, where a scan to h
        # would read n * min(U - n, p - 1), past 10^9 cells
        code, out, _ = run(["height", "-p", "2147483647", "-a", A, "--format", "csv"], capsys)
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert (row["height"], row["argmin_k"]) == (str(h), str(k))
        code, out, _ = run(["cayley", "-p", "2147483647", "-A", A], capsys)
        assert code == EXIT_OK and f"beta_upper: {h}" in out

    @pytest.mark.parametrize(
        "p, A",
        [
            (p, tuple(sorted(rng.sample(range(1, (p + 1) // 2), d))))
            for rng in [random.Random(20)]
            for p in (101, 1000003, 2147483647)
            for d in (3, 4, 5)
            for _ in range(2)
        ]
        + [
            (2147483647, (1, 2, 3)),
            (2147483647, (3, 7, 11, 19)),
            (2147483647, (1, 1234567, 987654321)),
            (2147483647, (1, 2, 2147483644)),
        ],
    )
    def test_height_and_cayley_price_a_point_alike(self, p, A, capsys):
        # beta <= h(<A>) makes beta_upper the height of <A>, from one kernel
        # under one cell count, so the two commands compute or refuse together.
        # The random sets are drawn below p/2, so they hold no digon {a, p - a},
        # which cayley drops before the kernel runs and height does not
        a = ",".join(map(str, A))
        h_code, h_out, h_err = run(["height", "-p", str(p), "-a", a, "--format", "csv"], capsys)
        c_code, c_out, c_err = run(["cayley", "-p", str(p), "-A", a, "--format", "csv"], capsys)
        assert (h_code, h_err) == (c_code, c_err)
        if h_code == EXIT_OK:
            (h_head, h_rows), (c_head, c_rows) = parse_csv(h_out), parse_csv(c_out)
            assert h_rows[0][h_head.index("height")] == c_rows[0][c_head.index("beta_upper")]
        else:
            assert h_code == EXIT_LIMIT and h_err.startswith("error: enumeration needs ")

    def test_digon_priced_by_cayley_alone(self, capsys):
        # the known difference: cayley drops the digon {1, p - 1} (exactly p at every
        # multiplier) before the kernel runs, while height scans the zero-sum point
        # and is refused. A digon rule in the kernel must flip this to exit 0 for both
        p, A = "100000007", "1,2,100000006"
        code, out, err = run(["cayley", "-p", p, "-A", A], capsys)
        assert code == EXIT_OK and err == "" and "beta_upper: 100000008" in out
        code, out, err = run(["height", "-p", p, "-a", A], capsys)
        assert (code, out) == (EXIT_LIMIT, "")
        assert err == "error: enumeration needs 5049686 evaluations, budget is 5000000\n"

    def test_scan_budget_still_counts_rows_past_m_full_columns(self, capsys):
        # 2 tails * (p - 1) cells pass the budget, so each point is metered as it
        # runs: <1, 2, 3> reads 2 * 4 cells, and the zero-sum point is refused
        # once its next block would pass the budget
        code, out, _ = run(["height", "-p", "2147483647", "-a", "1,2,3"], capsys)
        assert code == EXIT_OK and "height: 6" in out
        code, out, err = run(["cayley", "-p", "2147483647", "-A", "1,2,2147483644"], capsys)
        assert code == EXIT_LIMIT and out == ""
        assert err == "error: enumeration needs 5234688 evaluations, budget is 5000000\n"

    def test_empty_list_is_input_error(self, capsys):
        for argv in (["height", "-p", "7", "-a", ""], ["cayley", "-p", "7", "-A", ""]):
            code, out, err = run(argv, capsys)
            assert code == EXIT_INPUT and out == ""
            assert err == "error: expected comma-separated integers, got ''\n"

    def test_height_budget_edges(self, capsys):
        code, out, _ = run(["height", "-p", "101", "-a", "1,2,3", "--budget", "200"], capsys)
        assert code == EXIT_OK and "height: " in out
        # line points walk the sail and cost no cells
        for a in ("1,5", "0,3,0,7", "0,0,9"):
            code, _, _ = run(["height", "-p", "2147483647", "-a", a, "--budget", "1"], capsys)
            assert code == EXIT_OK, a

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "-p", "7", "-d", "3"],
            ["scan", "--pmax", "7", "-d", "2"],
            ["height", "-p", "7", "-a", "1,2,3"],
        ],
    )
    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_nonpositive_budget_is_usage_error(self, argv, budget, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work done with a nonpositive budget")

        for name in ("spectrum", "scan_css", "height"):
            monkeypatch.setattr(f"projheight.cli.{name}", no_work)
        with pytest.raises(SystemExit) as info:
            main(argv + ["--budget", budget])
        assert info.value.code == EXIT_INPUT
        assert f"argument --budget: must be positive, got {budget}" in capsys.readouterr().err

    def test_exact_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PROJHEIGHT_EXACT_CAP", "10")
        code, _, err = run(["cayley", "-p", "11", "-A", "1,7", "--exact"], capsys)
        assert code == EXIT_LIMIT and "cap" in err
        monkeypatch.setenv("PROJHEIGHT_EXACT_CAP", "11")
        code, _, _ = run(["cayley", "-p", "11", "-A", "1,7", "--exact"], capsys)
        assert code == EXIT_OK
        monkeypatch.setenv("PROJHEIGHT_EXACT_CAP", "abc")
        code, _, _ = run(["cayley", "-p", "11", "-A", "1,7", "--exact"], capsys)
        assert code == EXIT_INPUT
        monkeypatch.setenv("PROJHEIGHT_EXACT_CAP", "0")
        code, out, err = run(["cayley", "-p", "11", "-A", "1,7", "--exact"], capsys)
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: PROJHEIGHT_EXACT_CAP must be positive\n"


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_repeat_runs_identical(self, fmt, capsys):
        argv = ["scan", "--pmax", "11", "-d", "2", "--format", fmt]
        _, first, _ = run(argv, capsys)
        _, second, _ = run(argv, capsys)
        assert first == second

    @pytest.mark.parametrize(
        "argv",
        [
            ["height", "-p", "13", "-a", "1,5"],
            ["table", "--pmin", "5", "--pmax", "13"],
            ["spectrum", "-p", "7", "-d", "3"],
            ["gaps", "--pmax", "13"],
            ["cayley", "-p", "11", "-A", "1,7", "--exact", "--girth"],
            ["scan", "--pmax", "7", "-d", "2", "--exact"],
        ],
    )
    def test_csv_matches_json(self, argv, capsys):
        _, csv_out, _ = run(argv + ["--format", "csv"], capsys)
        _, json_out, _ = run(argv + ["--format", "json"], capsys)
        header, csv_rows = parse_csv(csv_out)
        payload = json.loads(json_out)
        assert header == payload["columns"]
        assert len(csv_rows) == len(payload["rows"])
        for csv_row, json_row in zip(csv_rows, payload["rows"]):
            assert csv_row == [cell(json_row[col]) for col in header]


class TestParserCache:
    """main parses with one parser per process; build_parser() stays fresh per call."""

    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    @staticmethod
    def run_sequence(tmp_path, capsys):
        """An argparse error, then commands whose attributes differ, in one process."""
        results = []
        with pytest.raises(SystemExit) as info:
            main(["height", "-p", "11"])
        results.append((info.value.code, *capsys.readouterr()))
        report = tmp_path / "scan.txt"
        code = main(["scan", "--pmax", "7", "-d", "2", "--out", str(report)])
        results.append((code, *capsys.readouterr(), report.read_text(encoding="utf-8")))
        for fmt in ("text", "csv", "json"):
            code = main(["height", "-p", "11", "-a", "2,3", "--format", fmt])
            results.append((code, *capsys.readouterr()))
        results.append((main(["table", "--pmin", "5", "--pmax", "13"]), *capsys.readouterr()))
        return results

    def test_repeated_calls_match_fresh_parsers(self, tmp_path, capsys, monkeypatch):
        cli._parser.cache_clear()
        cached = self.run_sequence(tmp_path, capsys)
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = self.run_sequence(tmp_path, capsys)
        assert cached == fresh
        assert cached[0][0] == EXIT_INPUT and "required" in cached[0][2]
        assert cached[1][0] == EXIT_OK and "report written to" in cached[1][1]
        for (code, out, err), fmt in zip(cached[2:5], ("text", "csv", "json")):
            assert (code, err) == (EXIT_OK, "")
            assert out == (GOLDEN / f"height.{fmt}").read_text(encoding="utf-8")
        assert cached[5] == (EXIT_OK, (GOLDEN / "table.text").read_text(encoding="utf-8"), "")


def test_table_methods_match_line_fast_path():
    for p in (q for q in primes_up_to(3000) if q >= 5):
        want = ["brute" if line_fast_path(a, p) is None else "formula" for a in range(2, p - 1)]
        assert cli._line_methods(p) == want, p


def test_module_entry_point_matches_main(capsys):
    argv = ["height", "-p", "11", "-a", "2,3"]
    code = main(argv)
    out = capsys.readouterr().out
    assert (code, out) == (EXIT_OK, (GOLDEN / "height.text").read_text(encoding="utf-8"))
    proc = subprocess.run(
        [sys.executable, "-m", "projheight", *argv],
        capture_output=True,
        env=child_env(),
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), b"")
