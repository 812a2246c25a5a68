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
        "verify gap-bounds --start 10000 --limit 2000000 --partitions 16"
        " --format json",
    "kourbatov-1e5.json": "verify kourbatov --limit 100000 --format json",
    "a0-1e6.json": "solve a0 --limit 1000000 --format json",
    "max-1e6.json": "solve max --limit 1000000 --format json",
}


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(tmp_path, name):
    out = tmp_path / name
    argv = CASES[name].split() + ["--no-timing", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
