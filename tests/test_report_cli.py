import argparse
import csv
import dataclasses
import enum
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from primegaps import cli, report
from primegaps import bounds, conjectures, exponent_solver, gaps, panaitopol
from primegaps.bounds import Precision, Status, Verdict
from primegaps.conjectures import ConjectureReport, ReportStatus
from primegaps.witnesses import WitnessStore


class TestSerialization:
    def test_empty_violations_json(self):
        rep = conjectures.check_smarandache_ratio(100)
        doc = report.serialize(rep, "json")
        data = json.loads(doc)
        assert data["status"] == "AllHold"
        assert data["violations"] == []
        assert data["conjecture_id"] == "smarandache-ratio"

    def test_violation_status_json(self):
        rep = conjectures.check_smarandache_B(128, 0.9)
        data = json.loads(report.serialize(rep, "json"))
        assert data["status"] == "ViolationFound"
        assert [30, 113, 127] in data["violations"]

    def test_csv_error_table_has_header_plus_rows(self):
        rows = panaitopol.error_table([10**4], [0, 1, 2])
        text = report.serialize(rows, "csv")
        lines = text.strip().split("\n")
        assert len(lines) == 4
        assert lines[0] == "x,terms,approx,exact,rel_error"

    def test_csv_needs_dataclass_records(self):
        for payload in (7, [1, 2], ["a"]):
            with pytest.raises(TypeError, match="no CSV layout"):
                report.serialize(payload, "csv")
        # no record to take a header from
        assert report.serialize([], "csv") == ""

    def test_csv_quoting_is_rfc4180(self):
        rep = conjectures.check_smarandache_B(100, 0.5)
        text = report.serialize(rep, "csv")
        # the range field contains a comma and must be quoted
        assert '"pairs with p < 100, a=0.5"' in text

    def test_identical_payload_identical_bytes(self):
        a = report.serialize(
            conjectures.check_legendre(200), "json", no_timing=True
        )
        b = report.serialize(
            conjectures.check_legendre(200), "json", no_timing=True
        )
        assert a == b

    def test_no_timing_masks_duration(self):
        rep = conjectures.check_legendre(50)
        data = json.loads(report.serialize(rep, "json", no_timing=True))
        assert data["duration"] == report.TIMING_PLACEHOLDER

    def test_text_formats_everything(self):
        payloads = [
            conjectures.check_legendre(50),
            bounds.crossover_scan("two-n-plus-one-vs-4log2", 2, 100),
            exponent_solver.solve_exponent(113, 127),
            panaitopol.coefficients(4),
            Verdict(Status.FAILS, -0.049, Precision.FAST, (89,)),
        ]
        for payload in payloads:
            assert report.to_text(payload).strip()

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            report.serialize(panaitopol.coefficients(2), "xml")

    def test_text_float_extremes_match_json(self, capsys):
        # q^0.5 - p^0.5 at (2, 3) is 0.31783724519578205 in binary64; text
        # prints it to the 15 significant digits JSON and CSV give
        argv = ["verify", "smarandache-b", "--limit", "3", "--a", "0.5"]
        assert cli.main(argv + ["--format", "json"]) == 0
        value = json.loads(capsys.readouterr().out)["extremes"]["max_value"]
        assert cli.main(argv + ["--format", "text"]) == 0
        assert f"  max_value: {value}\n" in capsys.readouterr().out
        assert value == 0.317837245195782


def per_row_csv(rep):
    """The conjecture-report CSV built one csv.writer row per witness."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["conjecture_id", "range", "checked_count", "skipped_count",
                "status", "duration", "witness"])
    base = [rep.conjecture_id, rep.range, rep.checked_count,
            rep.skipped_count, rep.status.value, float(f"{rep.duration:.15g}")]
    for v in rep.violations or [()]:
        w.writerow(base + [" ".join(str(x) for x in v)])
    return buf.getvalue()


def first_difference(got, want):
    """(line index, got line, wanted line) where two texts first differ, or
    None; keeps a failure on a long CSV short and quick to report."""
    pairs = itertools.zip_longest(got.splitlines(True), want.splitlines(True))
    for i, (a, b) in enumerate(pairs):
        if a != b:
            return i, a, b
    return None


def fake_pairs(n0, ps, qs):
    def pair_blocks(lo, hi, gate=None):
        yield gaps.PairBlock(n0, np.array(ps, dtype=np.int64),
                             np.array(qs, dtype=np.int64))
    return pair_blocks


class TestCsvRows:
    def test_reports_match_per_row_writer(self):
        gap_report = conjectures.ConjectureReport(
            "gap-bounds:andrica,cramer", "pairs with 2 <= p < 100",
            checked_count=44, violations=[("andrica", 4, 7, 11),
                                          ("cramer", 30, 113, 127)],
        ).finalize()
        payloads = [
            conjectures.check_smarandache_B(10**5, 0.85),
            gap_report,
            conjectures.check_smarandache_ratio(1000),
        ]
        assert len(payloads[0].violations) > 1000
        assert payloads[2].violations == []
        for rep in payloads:
            assert first_difference(report.serialize(rep, "csv"),
                                    per_row_csv(rep)) is None

    def test_summary_fields_with_quotes_commas_and_percent(self):
        rep = conjectures.ConjectureReport(
            'odd"id', 'p < 10, "a" = 100% %s %d', checked_count=3,
            violations=[(1, 2, 3), (2, 3, 5)], duration=0.25,
        ).finalize()
        text = report.serialize(rep, "csv")
        assert first_difference(text, per_row_csv(rep)) is None
        assert '"p < 10, ""a"" = 100% %s %d"' in text

    @pytest.mark.parametrize("violations", [
        [(1, 2, 3), (4, 5)],                   # arities differ
        [("a,b", 1, 2)],                       # delimiter
        [('say "x"', 1, 2)],                   # quote
        [("line\nbreak", 1, 2)],               # line break
        [(n, n, n) for n in range(20000)] + [("late,comma", 0, 0)],
        [[1, 2, 3], [4, 5, 6]],                # lists, not tuples
    ])
    def test_witnesses_needing_quotes_fall_back(self, violations):
        rep = conjectures.ConjectureReport("x", "r", violations=violations)
        assert first_difference(report.serialize(rep, "csv"),
                                per_row_csv(rep)) is None

    def test_captured_witnesses_are_plain_and_round_trip(self, monkeypatch):
        reports = [conjectures.check_smarandache_B(10**4, 0.85)]
        # one real pair and one pair far out of bounds for every checker
        monkeypatch.setattr(gaps, "pair_blocks",
                            fake_pairs(4, [7, 31], [11, 200]))
        reports.append(conjectures.check_smarandache_C(100, 2))
        reports.append(conjectures.check_smarandache_ratio(100))
        reports.append(conjectures.check_gap_bounds(100))
        assert reports[1].violations == [(5, 31, 200)]
        assert reports[2].violations == [(5, 31, 200)]
        assert ("andrica", 5, 31, 200) in reports[3].violations
        for rep in reports:
            for v in rep.violations:
                assert type(v) is tuple
                assert {type(x) for x in v} <= {int, str}
            data = json.loads(report.serialize(rep, "json"))
            assert data["violations"] == [list(v) for v in rep.violations]


def ladder_to_jsonable(obj):
    """An independent copy of to_jsonable's type ladder; a witness store is
    read as the sequence of tuples it is."""
    if isinstance(obj, float):
        return report._round15(obj)
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: ladder_to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): ladder_to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, WitnessStore)):
        return [ladder_to_jsonable(v) for v in obj]
    return obj


class TestJsonFastPath:
    # the JSON text of a witness store is rendered from its columns: it
    # must be what json.dumps makes of the ladder's reading of the payload
    @pytest.mark.parametrize("payload", [
        lambda: conjectures.check_smarandache_B(10**5, 0.85),
        lambda: conjectures.check_gap_bounds(10**5),
        lambda: panaitopol.error_table([10**4, 10**6], [0, 1, 4]),
        lambda: exponent_solver.solve_exponent(113, 127),
        lambda: [(1, "a", True, None), (2, 2.5, (3, 4)), (bounds.Status.HOLDS,),
                 np.float64(1 / 3), {"k": (5, "x", 0.1 + 0.2)}],
    ])
    def test_json_identical_to_ladder(self, payload):
        payload = report.strip_timing(payload())
        want = json.dumps(ladder_to_jsonable(payload), indent=2) + "\n"
        assert report.serialize(payload, "json") == want


class TestCliExitCodes:
    def test_verify_all_hold(self, capsys):
        assert cli.main(["verify", "andrica", "--limit", "10000"]) == 0
        assert "AllHold" in capsys.readouterr().out

    def test_verify_violation(self, capsys):
        code = cli.main(
            ["verify", "smarandache-b", "--limit", "128", "--a", "0.9"]
        )
        assert code == 1

    def test_counterexample_exit(self):
        assert cli.main(["verify", "smarandache-d", "--a", "0.4"]) == 1

    def test_usage_error(self):
        assert cli.main(["verify", "no-such-conjecture"]) == 2

    def test_domain_error(self, capsys):
        assert cli.main(["verify", "smarandache-c", "--k", "1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_pi_approx_past_binary64_diverges(self, capsys):
        # k_200 / (ln x)^200 overflows binary64; every k_i is positive, so
        # the series has diverged there: one line, not a traceback
        code = cli.main(["pi-approx", "--x", "1000000", "--terms", "200"])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "diverges" in err

    def test_start_at_or_past_limit_refused(self, monkeypatch, capsys):
        monkeypatch.setattr(gaps, "pair_blocks", None)  # no work may start
        for start in ("100", "50"):
            argv = ["verify", "gap-bounds", "--start", start, "--limit", "50"]
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert "error: start must be < limit" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["smarandache-b", "smarandache-c"])
    def test_power_gap_limit_below_three_refused(self, capsys, name):
        assert cli.main(["verify", name, "--limit", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: limit must be >= 3")
        assert "Traceback" not in err
        assert cli.main(["verify", name, "--limit", "3"]) == 0  # pair (2, 3)

    @pytest.mark.parametrize("option, value, want", [
        ("--a", "5e-324", "error: exponent must lie in [2^-959, 1), got "
                          "5e-324\n"),
        ("--k", str(10**400), f"error: k must lie in [2, 2^959], got "
                              f"{10**400}\n")])
    def test_power_gap_tiny_exponent_refused(self, capsys, option, value,
                                             want):
        # below 2^-959, e p^(e-1) can underflow the tracker's block bound
        name = "smarandache-b" if option == "--a" else "smarandache-c"
        assert cli.main(["verify", name, "--limit", "100", option, value,
                         "--no-timing"]) == 2
        assert capsys.readouterr().err == want

    def test_power_gap_least_exponent_holds(self, capsys):
        assert cli.main(["verify", "smarandache-b", "--limit", "100", "--a",
                         repr(2.0**-959), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["extremes"] == {
            "max_value": 0.0, "max_value_pair": [1, 2, 3]}

    @pytest.mark.parametrize("argv", [
        ["verify", "shanks-trend"], ["solve", "a0"], ["solve", "max"]])
    def test_pair_scan_limit_below_three_refused(self, capsys, argv):
        assert cli.main(argv + ["--limit", "2"]) == 2
        err = capsys.readouterr().err
        assert err == "error: limit must be >= 3\n"
        assert cli.main(argv + ["--limit", "3"]) == 0  # pair (2, 3)

    @pytest.mark.parametrize(
        "name", [c for c, (_, reads) in cli.VERIFY.items()
                 if "start" not in reads])
    def test_start_refused_outside_the_gap_bounds(self, monkeypatch, capsys,
                                                  name):
        from primegaps import sieve

        monkeypatch.setattr(gaps, "pair_blocks", None)  # no work may start
        monkeypatch.setattr(sieve, "prime_blocks", None)
        monkeypatch.setattr(sieve, "capped_counts", None)
        argv = ["verify", name, "--start", "1000", "--limit", "2000"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: --start applies only to the gap-bound checks\n"

    def test_shanks_trend_without_a_full_window(self, capsys):
        argv = ["verify", "shanks-trend", "--limit", "100", "--window", "100"]
        assert cli.main(argv + ["--format", "csv"]) == 0
        assert capsys.readouterr().out == ""
        assert cli.main(argv + ["--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == []
        assert cli.main(argv + ["--format", "text"]) == 0
        assert capsys.readouterr().out == ""

    def test_out_of_memory_is_not_a_verdict(self, monkeypatch, capsys):
        def refuse(*args):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(bounds, "crossover_scan", refuse)
        code = cli.main(["crossover", "sqrt-vs-2log", "--hi", str(10**12)])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: out of memory")

    def test_overflow_is_not_a_verdict(self, capsys):
        # q does not fit in a float, in which the root is bisected: refused
        # in one line, not a traceback
        for p in (2, 10**400):
            code = cli.main(["solve", "pair", "--p", str(p),
                             "--q", str(10**400 + 2)])
            assert code == cli.EXIT_USAGE
            assert capsys.readouterr().err == (
                "error: q has 1329 bits, past binary64, in which the root is "
                "solved\n")

    def test_runtime_error_is_not_a_verdict(self, monkeypatch, capsys):
        def no_root(p, q):
            raise RuntimeError(f"no sign change found for pair ({p}, {q})")

        monkeypatch.setattr(exponent_solver, "solve_exponent", no_root)
        code = cli.main(["solve", "pair", "--p", "7", "--q", "11"])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith(
            "error: RuntimeError: no sign change found for pair (7, 11)\n")

    def test_legendre_past_int64_refused_without_allocating(self, capsys):
        tracemalloc.start()
        try:
            code = cli.main(["verify", "legendre", "--limit", "4000000000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "2^63-1" in err
        assert peak < 1 << 20  # the squares alone would take 32 GB

    def test_oppermann_below_int64_guard_stays_bounded(self, monkeypatch):
        # one below the guard: a single chunk of every n once asked numpy
        # for 22.6 GiB; the scan is cut short once a full chunk has built
        # its first round of candidates, before they are tested
        from primegaps import conjectures as cj
        from primegaps import sieve

        class Stop(BaseException):  # cli.main turns an Exception into exit 2
            pass

        counts, is_prime = sieve.capped_counts, sieve._is_prime_odd
        full = []

        def capped(a, b, cap):
            if a.size == cj.INTERVAL_CHUNK:
                full.append(True)
            return counts(a, b, cap)

        def first_full_round(v):
            if full:
                raise Stop
            return is_prime(v)

        monkeypatch.setattr(sieve, "capped_counts", capped)
        monkeypatch.setattr(sieve, "_is_prime_odd", first_full_round)
        tracemalloc.start()
        try:
            with pytest.raises(Stop):
                cli.main(["verify", "oppermann", "--limit", "3037000499"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20

    def test_crossover_past_2_53_refused(self, capsys):
        code = cli.main(
            ["crossover", "sqrt-vs-2log", "--hi", str(2**53 + 1)])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        code = cli.main(
            ["monotone", "sqrt-over-log-squared", "--lo", "190",
             "--hi", str(2**53 + 1)])
        assert code == cli.EXIT_USAGE

    def test_crossover_threshold(self, capsys):
        code = cli.main(
            ["crossover", "two-n-plus-one-vs-4log2", "--lo", "2",
             "--hi", "10000", "--format", "json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["threshold"] == 11

    def test_monotone_fails_exit_one(self):
        code = cli.main(
            ["monotone", "sqrt-over-log-squared", "--lo", "2", "--hi", "300"]
        )
        assert code == 1

    def test_solve_a0(self, capsys):
        code = cli.main(["solve", "a0", "--limit", "128", "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["p"], data["q"]) == (113, 127)
        assert abs(data["x"] - 0.567148) < 1e-6

    def test_solve_pair_requires_args(self):
        assert cli.main(["solve", "pair"]) == 2

    def test_coefficients_csv(self, capsys):
        assert cli.main(["coefficients", "--n", "6", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[1:] == ["1,1", "2,3", "3,13", "4,71", "5,461", "6,3447"]

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main(
            ["verify", "legendre", "--limit", "100", "--format", "json",
             "--out", str(out), "--no-timing"]
        )
        assert code == 0
        assert json.loads(out.read_text())["status"] == "AllHold"

    def test_determinism_across_runs(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            cli.main(
                ["verify", "oppermann", "--limit", "300", "--format", "json",
                 "--out", str(path), "--no-timing"]
            )
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_start_below_floor_warns(self, capsys):
        code = cli.main(
            ["verify", "kourbatov", "--limit", "1000", "--start", "2"]
        )
        assert code == 0
        assert "validity floor" in capsys.readouterr().err

    @pytest.mark.parametrize("name, warns", [
        ("gap-bounds", True), ("cramer", True), ("andrica", False)])
    def test_start_below_floor_warns_where_a_bound_has_one(
            self, capsys, name, warns):
        # gap-bounds runs kourbatov and cramer too, which skip p < 29
        assert cli.main(["verify", name, "--limit", "100", "--start", "2"]) == 0
        assert ("validity floor 29" in capsys.readouterr().err) == warns

    @pytest.mark.parametrize("name", ["kourbatov", "cramer", "gap-bounds"])
    def test_default_start_does_not_warn(self, capsys, name):
        # without --start the scan skips the sub-floor pairs on its own;
        # a warning would name a flag that was never typed
        assert cli.main(["verify", name, "--limit", "20"]) == 0
        assert capsys.readouterr().err == ""


# every option of every command; a new flag must be added here on purpose
COMMON_OPTIONS = {"-h", "--help", "--format", "--out", "--no-timing"}
CLI_OPTIONS = {
    "verify": {"--limit", "--start", "--a", "--k", "--n-start", "--window"},
    "crossover": {"--lo", "--hi"},
    "monotone": {"--lo", "--hi"},
    "solve": {"--limit", "--p", "--q"},
    "pi-approx": {"--x", "--terms"},
    "coefficients": {"--n"},
}


def test_cli_surface_is_pinned():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    got = {name: {o for a in sp._actions for o in a.option_strings}
           for name, sp in sub.choices.items()}
    assert got == {name: opts | COMMON_OPTIONS
                   for name, opts in CLI_OPTIONS.items()}
    assert {o for a in parser._actions for o in a.option_strings} == {
        "-h", "--help"}


# ---------------------------------------------------------------------------
# one path from subcommand to exit code

EXIT_CASES = {
    "report-all-hold": (ConjectureReport("c", "r"), 0),
    "report-violation": (
        ConjectureReport("c", "r", status=ReportStatus.VIOLATION_FOUND), 1),
    "report-incomplete": (
        ConjectureReport("c", "r", status=ReportStatus.INCOMPLETE), 3),
    "verdict-holds": (Verdict(Status.HOLDS, 1.0, Precision.FAST), 0),
    "verdict-fails": (
        Verdict(Status.FAILS, -1.0, Precision.STRICT, (190,)), 1),
    "verdict-uncertain": (Verdict(Status.UNCERTAIN, 0.0, Precision.STRICT), 3),
    "d-witness": (conjectures.DWitness(4, 7, 11, 0.43, 0.25), 1),
    "crossover": (bounds.CrossoverResult("sqrt-vs-2log", 5, 100, 4), 0),
    "exponent": (exponent_solver.ExponentSolution(
        7, 11, 0.52, 0.0, 40, (0.5, 0.6)), 0),
    "coefficients": (panaitopol.CoefficientTable((1, 3, 13)), 0),
    "rows": ([panaitopol.PiApproxResult(10**4, 1, 1200.0, 1229, 0.02)], 0),
    "no-rows": ([], 0),
}


@pytest.mark.parametrize("case", EXIT_CASES)
def test_exit_code_of_every_payload_type(case):
    payload, code = EXIT_CASES[case]
    assert cli._exit_code(payload) == code


# the checker each verify name must reach, and how it is called at
# --limit 100 (smarandache-d reads no --limit) with every other option at
# its default
VERIFY_CALLS = {
    "legendre": ("check_legendre", (100,), {}),
    "oppermann": ("check_oppermann", (100,), {}),
    "brocard": ("check_brocard", (100,), {}),
    "andrica": ("check_gap_bounds", (100, ("andrica",)), {"start": 2}),
    "kourbatov": ("check_gap_bounds", (100, ("kourbatov",)), {"start": 2}),
    "firoozbakht": (
        "check_gap_bounds", (100, ("firoozbakht",)), {"start": 2}),
    "cramer": ("check_gap_bounds", (100, ("cramer",)), {"start": 2}),
    "gap-bounds": (
        "check_gap_bounds", (100, conjectures.GAP_BOUNDS), {"start": 2}),
    "smarandache-ratio": ("check_smarandache_ratio", (100,), {}),
    "smarandache-b": ("check_smarandache_B", (100, 0.5), {}),
    "smarandache-c": ("check_smarandache_C", (100, 2), {}),
    "smarandache-d": ("find_smarandache_D_counterexample", (0.5, 1), {}),
    "shanks-trend": ("check_shanks_trend", (100, 10**4), {}),
}


def test_verify_dispatches_each_name_to_its_checker(monkeypatch, tmp_path):
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    (arg,) = [a for a in sub.choices["verify"]._actions
              if a.dest == "conjecture"]
    assert tuple(arg.choices) == tuple(cli.VERIFY) == tuple(VERIFY_CALLS)

    calls = []
    canned = ConjectureReport("canned", "none").finalize()

    def spy(name):
        def checker(*args, **kwargs):
            calls.append((name, args, kwargs))
            return canned
        return checker

    for name in dir(conjectures):
        if name.startswith(("check_", "find_")):
            monkeypatch.setattr(conjectures, name, spy(name))
    out = tmp_path / "out.json"
    for name, want in VERIFY_CALLS.items():
        calls.clear()
        limit = [] if name == "smarandache-d" else ["--limit", "100"]
        argv = ["verify", name, *limit, "--format", "json", "--out", str(out)]
        assert cli.main(argv) == 0
        assert calls == [want], name
        assert json.loads(out.read_text())["conjecture_id"] == "canned"


# a typed value for every verify option but --start, which has its own
# message (test_start_refused_outside_the_gap_bounds)
OPTION_VALUES = {"limit": "100", "a": "0.4", "k": "3", "n_start": "5",
                 "window": "10"}


@pytest.mark.parametrize("name, option", [
    (name, option) for name, (_, reads) in cli.VERIFY.items()
    for option in OPTION_VALUES if option not in reads])
def test_option_a_conjecture_does_not_read_is_refused(monkeypatch, capsys,
                                                      name, option):
    from primegaps import sieve

    monkeypatch.setattr(gaps, "pair_blocks", None)  # no work may start
    monkeypatch.setattr(sieve, "prime_blocks", None)
    monkeypatch.setattr(sieve, "capped_counts", None)
    flag = "--" + option.replace("_", "-")
    assert cli.main(["verify", name, flag, OPTION_VALUES[option]]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {flag} does not apply to {name}\n"


@pytest.mark.parametrize("argv, code", [
    ("verify legendre --limit 100", 0),
    ("verify smarandache-d --a 0.4", 1),
    ("verify legendre --limit 0", 2),
    ("verify smarandache-d --a 0.4 --n-start 10000001", 3),
])
def test_exit_code_leaves_the_process(argv, code):
    # `python -m primegaps.cli` must carry main's return value out through
    # sys.exit, not only return it in-process
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-m", "primegaps.cli", *argv.split(), "--no-timing"],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == code, done.stderr
    if code == 2:
        assert done.stderr == "error: n_max must be >= 1\n"
