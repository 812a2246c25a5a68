"""Columnar witness store: the failing or uncertain pairs of a pair scan.

A pair scan can find a witness at nearly every pair it checks (Smarandache
B at a = 0.85 finds 603 560 below 2e7), so witnesses are held as rows of
int64 (n, p, q), 24 bytes each, plus a one-byte code for the name that
leads each witness (the gap bound, for `check_gap_bounds`).  Read back, the
store is a sequence of plain tuples (n, p, q) or (lead, n, p, q) of Python
ints and strs that compares equal to a list of the same tuples.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from typing import Iterator, Optional

import numpy as np

_EMPTY_ROWS = np.empty((0, 3), dtype=np.int64)
_EMPTY_CODES = np.empty(0, dtype=np.uint8)
# witnesses turned into tuples, or into text, at a time
CHUNK = 1 << 14


class WitnessStore(Sequence):
    """Witnesses in capture order until `sort`, which puts them in the order
    `list.sort` gives the same tuples; read-only apart from `add`.

    One store holds witnesses with a lead or without one, not both: like a
    list of such tuples, a store of both cannot be sorted.
    """

    def __init__(self):
        self._parts: list = []  # (code, rows) not yet in the columns
        self._names: list = []  # lead names; a code indexes this list
        self._rows = _EMPTY_ROWS  # (size, 3) int64: n, p, q
        self._codes = _EMPTY_CODES

    def add(self, n, p, q, lead: Optional[str] = None) -> None:
        """Append the witnesses (lead, n[i], p[i], q[i]), or (n[i], p[i],
        q[i]) when lead is None; n, p and q are aligned int arrays."""
        if lead not in self._names:
            self._names.append(lead)
        rows = np.column_stack((n, p, q)).astype(np.int64, copy=False)
        self._parts.append((self._names.index(lead), rows))

    def _collect(self) -> None:
        """Move the added parts into the columns, in capture order."""
        if self._parts:
            codes, rows = zip(*self._parts)
            self._codes = np.concatenate((self._codes, np.repeat(
                np.array(codes, dtype=np.uint8), [len(r) for r in rows])))
            self._rows = np.concatenate((self._rows, *rows))
            self._parts = []

    def sort(self) -> None:
        """Order the witnesses as `list.sort` orders their tuples: by lead
        name, then n, p and q.  Sorting twice changes nothing."""
        self._collect()
        names = self._names
        rank = np.empty(len(names), dtype=np.uint8)
        rank[sorted(range(len(names)), key=names.__getitem__)] = range(
            len(names))
        rows = self._rows
        order = np.lexsort((rows[:, 2], rows[:, 1], rows[:, 0],
                            rank[self._codes]))
        self._rows, self._codes = rows[order], self._codes[order]

    def runs(self) -> Iterator[tuple]:
        """Yield (lead, rows): the witnesses in stored order as (k, 3) int64
        arrays of n, p, q, at most `CHUNK` rows each, one lead to each."""
        self._collect()
        ends = [0, *(np.flatnonzero(np.diff(self._codes)) + 1).tolist(),
                len(self._rows)]
        for a, b in zip(ends, ends[1:]):
            for s in range(a, b, CHUNK):
                lead = self._names[self._codes[a]]
                yield lead, self._rows[s:min(s + CHUNK, b)]

    def _tuples(self, rows: np.ndarray, codes: np.ndarray) -> list:
        leads = [() if x is None else (x,) for x in self._names]
        return [(*leads[c], *r) for c, r in zip(codes.tolist(), rows.tolist())]

    def __len__(self) -> int:
        self._collect()
        return len(self._rows)

    def __getitem__(self, i):
        self._collect()
        if isinstance(i, slice):
            return self._tuples(self._rows[i], self._codes[i])
        (item,) = self._tuples(self._rows[i][None], self._codes[i][None])
        return item

    def __iter__(self):
        for s in range(0, len(self), CHUNK):
            yield from self[s:s + CHUNK]

    def __eq__(self, other):
        if not isinstance(other, (list, WitnessStore)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"WitnessStore({list(self)!r})"
