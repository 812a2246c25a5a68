"""`--no-timing` outputs compared byte for byte with stored reports.

Each file under tests/golden/ holds the output of the command next to it,
written with `--no-timing --out <file>`; a change that alters any byte of a
report, including float digits, or the exit code that comes with it, fails
here.
"""

from pathlib import Path

import pytest

from primegaps import cli

GOLDEN = Path(__file__).parent / "golden"

OK, VIOLATION, INCOMPLETE = cli.EXIT_OK, cli.EXIT_VIOLATION, cli.EXIT_INCOMPLETE

# file name -> (command, exit code)
CASES = {
    "gap-bounds-1e6.json":
        ("verify gap-bounds --limit 1000000 --format json", OK),
    "gap-bounds-1e6.txt":
        ("verify gap-bounds --limit 1000000 --format text", OK),
    "gap-bounds-start1e4-2e6-p16.json":
        ("verify gap-bounds --start 10000 --limit 2000000 --format json", OK),
    # these run past the first sieve segment, into gated segments; the
    # window holds the maximal gap 282 after p = 436273009
    "gap-bounds-3e7.json":
        ("verify gap-bounds --limit 30000000 --format json", OK),
    "gap-bounds-4.3e8-4.4e8.txt":
        ("verify gap-bounds --start 430000000 --limit 440000000 --format text",
         OK),
    "kourbatov-1e5.json":
        ("verify kourbatov --limit 100000 --format json", OK),
    "a0-1e6.json": ("solve a0 --limit 1000000 --format json", OK),
    "max-1e6.json": ("solve max --limit 1000000 --format json", OK),
    "smarandache-b-1e4-a0.85.csv":
        ("verify smarandache-b --limit 10000 --a 0.85 --format csv", VIOLATION),
    # 1229 witnesses whose n, p and q cross 10, 100 and 1000 in one chunk
    "smarandache-b-1e4-a0.85.json":
        ("verify smarandache-b --limit 10000 --a 0.85 --format json",
         VIOLATION),
    "smarandache-c-1e5-k3.json":
        ("verify smarandache-c --limit 100000 --k 3 --format json", OK),
    "smarandache-c-3e7-k3.json":
        ("verify smarandache-c --limit 30000000 --k 3 --format json", OK),
    "smarandache-ratio-1e5.json":
        ("verify smarandache-ratio --limit 100000 --format json", OK),
    "smarandache-ratio-3e7.json":
        ("verify smarandache-ratio --limit 30000000 --format json", OK),
    "smarandache-d-a0.4.json":
        ("verify smarandache-d --a 0.4 --format json", VIOLATION),
    "smarandache-d-a0.4.csv":
        ("verify smarandache-d --a 0.4 --format csv", VIOLATION),
    "smarandache-d-a0.4.txt":
        ("verify smarandache-d --a 0.4 --format text", VIOLATION),
    "smarandache-d-a0.4-n1e7.json":
        ("verify smarandache-d --a 0.4 --n-start 10000001 --format json",
         INCOMPLETE),
    "legendre-1e4.json": ("verify legendre --limit 10000 --format json", OK),
    "oppermann-1e4.json": ("verify oppermann --limit 10000 --format json", OK),
    "brocard-2000.json": ("verify brocard --limit 2000 --format json", OK),
    # p_7001^2 is about 5e9: its intervals lie past 2^32
    "brocard-7000.json": ("verify brocard --limit 7000 --format json", OK),
    "shanks-trend-1e6-w1e4.csv":
        ("verify shanks-trend --limit 1000000 --window 10000 --format csv", OK),
    "crossover-2n1-1e4.csv":
        ("crossover two-n-plus-one-vs-4log2 --hi 10000 --format csv", OK),
    "crossover-2n1-1e4.txt":
        ("crossover two-n-plus-one-vs-4log2 --hi 10000 --format text", OK),
    "monotone-190-1e5.csv":
        ("monotone sqrt-over-log-squared --lo 190 --hi 100000 --format csv",
         OK),
    "monotone-190-1e5.txt":
        ("monotone sqrt-over-log-squared --lo 190 --hi 100000 --format text",
         OK),
    "monotone-2-300.csv":
        ("monotone sqrt-over-log-squared --lo 2 --hi 300 --format csv",
         VIOLATION),
    "monotone-2-300.txt":
        ("monotone sqrt-over-log-squared --lo 2 --hi 300 --format text",
         VIOLATION),
    "solve-pair-7-11.csv": ("solve pair --p 7 --q 11 --format csv", OK),
    "solve-pair-7-11.txt": ("solve pair --p 7 --q 11 --format text", OK),
    "coefficients-8.csv": ("coefficients --n 8 --format csv", OK),
    "coefficients-8.txt": ("coefficients --n 8 --format text", OK),
    "pi-approx-1e6-1e5-t0-t2.csv":
        ("pi-approx --x 1000000 --x 100000 --terms 0 --terms 2 --format csv",
         OK),
    "pi-approx-1e6-1e5-t0-t2.txt":
        ("pi-approx --x 1000000 --x 100000 --terms 0 --terms 2 --format text",
         OK),
}


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(tmp_path, name):
    command, code = CASES[name]
    out = tmp_path / name
    assert cli.main(command.split() + ["--no-timing", "--out", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
