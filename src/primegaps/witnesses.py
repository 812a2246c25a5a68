"""Witness store: the failing or uncertain pairs of a pair scan.

A pair scan can find a witness at nearly every pair it checks (Smarandache
B at a = 0.85 finds 603 560 below 2e7 and 4 285 133 below 2e8), so
witnesses are held as rows of int64 (n, p, q), 24 bytes each, in one run
per name that leads them (the gap bound, for `check_gap_bounds`; the other
pair checkers have one run, without a lead).  Every pair scan adds a lead's
witnesses in ascending n, so each run is already in the order of its tuples,
and putting the store in order only orders its leads by name.  Each run's
rows lie back to back in an anonymous temporary file of its own, opened at
the lead's first witness, and are read back `CHUNK` rows at a time, so
memory stays bounded at any witness count.

Read back, the store is a sequence of plain tuples (n, p, q) or
(lead, n, p, q) of Python ints and strs that compares equal to a list of
the same tuples.
"""

from __future__ import annotations

import operator
import tempfile
from collections.abc import Sequence
from typing import Iterator, Optional

import numpy as np

# witnesses turned into tuples, or into text, at a time: at 2^12 a chunk's
# rows, their ints and their CSV text (about 400 kB) fit a core's 2 MB L2
# cache, and 2^14 does not; on a Xeon with 2 MB of L2 per core, the CSV of
# smarandache-b's 603 560 witnesses below 2e7 at a = 0.85 took 0.19 s to
# render at 2^12 and 0.27 s at 2^14
CHUNK = 1 << 12


class _Run:
    """One lead's witnesses in ascending n: their rows back to back in an
    anonymous temporary file, row i at byte 24 i."""

    __slots__ = ("file", "rows", "last")

    def __init__(self):
        self.file = tempfile.TemporaryFile()
        self.rows = 0
        self.last = 0  # n of the last witness

    def __len__(self) -> int:
        return self.rows

    def __del__(self):
        self.file.close()


def _tuples(lead: Optional[str], rows: np.ndarray) -> list:
    head = () if lead is None else (lead,)
    return [(*head, *r) for r in rows.tolist()]


class WitnessStore(Sequence):
    """Witnesses by lead, the leads in capture order until `sort`, which
    puts them in the order `list.sort` gives the same tuples; read-only
    apart from `add`.

    One store holds witnesses with a lead or without one, not both: like a
    list of such tuples, a store of both cannot be sorted.
    """

    def __init__(self):
        self._runs: dict = {}  # lead name -> _Run

    def add(self, n, p, q, lead: Optional[str] = None) -> None:
        """Append the witnesses (lead, n[i], p[i], q[i]), or (n[i], p[i],
        q[i]) when lead is None; n, p and q are aligned int arrays, and n
        ascends past the lead's last witness."""
        rows = np.column_stack((n, p, q)).astype(np.int64, copy=False)
        if not len(rows):
            return
        n = rows[:, 0]
        run = self._runs.get(lead)
        if run is not None and n[0] <= run.last or np.any(n[1:] <= n[:-1]):
            raise ValueError(f"witnesses of {lead!r} must ascend in n past "
                             f"the last one added")
        if run is None:
            run = self._runs[lead] = _Run()
        # a read may have moved the file position: write at the run's end
        run.file.seek(len(run) * rows.itemsize * 3)
        run.file.write(rows)
        run.rows += len(rows)
        run.last = int(n[-1])

    def sort(self) -> None:
        """Order the witnesses as `list.sort` orders their tuples: by lead
        name, then n, in which each run already ascends."""
        self._runs = dict(sorted(self._runs.items(),
                                 key=operator.itemgetter(0)))

    def runs(self, lo: int = 0, hi: Optional[int] = None) -> Iterator[tuple]:
        """Yield (lead, rows): witnesses lo to hi in stored order as (k, 3)
        int64 arrays of n, p, q, at most `CHUNK` rows each, one lead to
        each.  Only the rows that hold them are read."""
        hi = len(self) if hi is None else hi
        s = 0
        for lead, run in self._runs.items():
            a, b = max(lo - s, 0), min(hi - s, len(run))
            s += len(run)
            for c in range(a, b, CHUNK):
                yield lead, self._read(run, c, min(c + CHUNK, b))

    def _read(self, run: _Run, a: int, b: int) -> np.ndarray:
        """Rows a to b of `run`."""
        rows = np.empty((b - a, 3), dtype=np.int64)
        run.file.seek(a * rows.itemsize * 3)
        if run.file.readinto(rows) != rows.nbytes:
            raise OSError("the witness file ended early")
        return rows

    def __len__(self) -> int:
        return sum(map(len, self._runs.values()))

    def __getitem__(self, i):
        if not isinstance(i, slice):
            k = range(len(self))[i]  # an IndexError as a list gives it
            (item,) = self[k:k + 1]
            return item
        picked = range(len(self))[i]
        if not picked:
            return []
        # the rows from the least index picked to the greatest
        lo = min(picked[0], picked[-1])
        span = [t for lead, rows in self.runs(
            lo, max(picked[0], picked[-1]) + 1) for t in _tuples(lead, rows)]
        return span[picked[0] - lo::picked.step]

    def __iter__(self):
        for lead, rows in self.runs():
            yield from _tuples(lead, rows)

    def __eq__(self, other):
        if not isinstance(other, (list, WitnessStore)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"WitnessStore({list(self)!r})"
