"""`--no-timing` outputs compared byte for byte with stored reports.

Each file under tests/golden/ holds the output of the command next to it,
written with `--no-timing --out <file>`; a change that alters any byte of a
report, including float digits, fails here.
"""

from pathlib import Path

import pytest

from primegaps import cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "gap-bounds-1e6.json": "verify gap-bounds --limit 1000000 --format json",
    "gap-bounds-1e6.txt": "verify gap-bounds --limit 1000000 --format text",
    "gap-bounds-start1e4-2e6-p16.json":
        "verify gap-bounds --start 10000 --limit 2000000 --format json",
    "kourbatov-1e5.json": "verify kourbatov --limit 100000 --format json",
    "a0-1e6.json": "solve a0 --limit 1000000 --format json",
    "max-1e6.json": "solve max --limit 1000000 --format json",
    "smarandache-b-1e4-a0.85.csv":
        "verify smarandache-b --limit 10000 --a 0.85 --format csv",
    "smarandache-c-1e5-k3.json":
        "verify smarandache-c --limit 100000 --k 3 --format json",
    "smarandache-ratio-1e5.json":
        "verify smarandache-ratio --limit 100000 --format json",
    "smarandache-d-a0.4.json": "verify smarandache-d --a 0.4 --format json",
    "legendre-1e4.json": "verify legendre --limit 10000 --format json",
    "oppermann-1e4.json": "verify oppermann --limit 10000 --format json",
    "brocard-2000.json": "verify brocard --limit 2000 --format json",
    "shanks-trend-1e6-w1e4.csv":
        "verify shanks-trend --limit 1000000 --window 10000 --format csv",
}
# the cases whose report holds a violation or counterexample, so exit 1
VIOLATIONS = {"smarandache-b-1e4-a0.85.csv", "smarandache-d-a0.4.json"}


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(tmp_path, name):
    out = tmp_path / name
    argv = CASES[name].split() + ["--no-timing", "--out", str(out)]
    want = cli.EXIT_VIOLATION if name in VIOLATIONS else cli.EXIT_OK
    assert cli.main(argv) == want
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
