"""Report serialization: JSON, CSV (RFC 4180), and human-readable text.

Output is deterministic for a fixed payload: field order is fixed by the
dataclasses, floats are rounded to 15 significant digits, and timing can be
replaced by a stable placeholder for byte-for-byte comparisons.  `render`
yields the text as UTF-8 bytes in chunks, a witness store's rows a bounded
number at a time; `serialize` joins them into one str.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import functools
import io
import json
from typing import Any, Iterator

import numpy as np

from .bounds import CrossoverResult, Verdict
from .conjectures import ConjectureReport, DWitness
from .exponent_solver import ExponentSolution
from .gaps import GapRecord
from .panaitopol import CoefficientTable
from .witnesses import WitnessStore

TIMING_PLACEHOLDER = 0.0


def _round15(v: float) -> float:
    return float(f"{v:.15g}")


def to_jsonable(obj: Any) -> Any:
    if isinstance(obj, float):
        return _round15(obj)
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, WitnessStore)):
        return [to_jsonable(v) for v in obj]
    return obj


def strip_timing(payload: Any) -> Any:
    if isinstance(payload, ConjectureReport):
        payload = dataclasses.replace(payload, duration=TIMING_PLACEHOLDER)
    return payload


def _json(payload: Any) -> Iterator[bytes]:
    if not isinstance(payload, ConjectureReport):
        yield (json.dumps(to_jsonable(payload), indent=2) + "\n").encode()
        return
    # field by field, so that a witness store is rendered from its rows
    sep = "{"
    for f in dataclasses.fields(payload):
        value = getattr(payload, f.name)
        yield f"{sep}\n  {json.dumps(f.name)}: ".encode()
        if isinstance(value, WitnessStore):
            yield from _json_witnesses(value)
        else:
            yield (json.dumps(to_jsonable(value), indent=2)
                   .replace("\n", "\n  ").encode())
        sep = ","
    yield b"\n}\n"


_CSV_VIOLATION_HEADER = [
    "conjecture_id", "range", "checked_count", "skipped_count",
    "status", "duration", "witness",
]


# 10, 100, ..., 10^18: a value's digit count is one more than the number
# of these at or below it
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)


@functools.cache
def _digit_tables() -> tuple:
    """(size, table) for 4, 2 and 1 digits: entry x of a table is the text
    of x in `size` digits, with leading zeros, read as one unsigned int of
    `size` bytes.  All three view the "%04d" text of 0..9999, built on
    first use, so that a run that writes no witness never builds it."""
    x = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1])
    text = (x % 10 + ord("0")).astype(np.uint8).ravel()
    text.flags.writeable = False  # shared by every call
    # the last 2 bytes of entry x < 100 are "%02d" % x, the last of x < 10
    # its digit
    return ((4, text.view(np.uint32)), (2, text.view(np.uint16)[1::2]),
            (1, text[3::4]))


def _digit_counts(values: np.ndarray) -> list:
    return [len(str(v)) for v in values.tolist()]


def _format_run(pieces: tuple, cols: np.ndarray, counts: list) -> bytes:
    """The text of the rows whose columns n, p, q are `cols` and have
    `counts` digits in every row: one line width, so the lines are a
    (rows, width) byte matrix, filled with the line whose digits are all 0
    and the digits then written over it, a column's last 4 (or 2, or 1) at
    a time through an unaligned view of the matrix."""
    m = cols.shape[1]
    line = pieces[0] + b"".join(b"0" * c + piece
                                for c, piece in zip(counts, pieces[1:]))
    width = len(line)
    mat = bytearray(line) * m
    right = 0
    for piece, c, x in zip(pieces, counts, cols):
        right += len(piece) + c
        end = right  # just past the column's digits
        for size, table in _digit_tables():
            while c >= size:
                low = x
                if c > size:
                    x = low // 10**size
                    low = low - 10**size * x
                np.ndarray((m,), table.dtype, mat, end - size, (width,)
                           )[...] = table.take(low)
                c, end = c - size, end - size
    return bytes(mat)


def _format_rows(pieces: tuple, rows: np.ndarray) -> bytes:
    """pieces[0] + str(n) + pieces[1] + str(p) + pieces[2] + str(q) +
    pieces[3] for each row n, p, q of the (k, 3) int64 `rows`, back to back;
    a negative entry is refused.  Rows whose columns have the same digit
    counts are written as one run: a whole chunk, unless a column crosses a
    power of ten in it."""
    if not len(rows):
        return b""
    cols = rows.T.copy()  # n, p and q each contiguous
    lo, hi = cols.min(axis=1), cols.max(axis=1)
    if lo.min() < 0:
        raise ValueError("a witness row has a negative entry")
    counts = _digit_counts(lo)
    if counts == _digit_counts(hi):
        return _format_run(pieces, cols, counts)
    per_row = np.searchsorted(_POW10, cols, side="right") + 1
    cuts = np.flatnonzero(np.any(per_row[:, 1:] != per_row[:, :-1], axis=0))
    cuts = [0, *(cuts + 1).tolist(), len(rows)]
    return b"".join(_format_run(pieces, cols[:, a:b], per_row[:, a].tolist())
                    for a, b in zip(cuts, cuts[1:]))


def _csv_line(fields: list) -> str:
    """The fields as csv.writer writes them, without the line end."""
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow(fields)
    return line.getvalue()[:-1]


def _witness_csv(prefix: str, store: WitnessStore) -> Iterator[bytes]:
    """The CSV rows `prefix` + witness cell, one per witness of `store`, a
    chunk of at most `CHUNK` rows at a time."""
    pieces = {}  # lead -> the text around its rows' numbers
    for lead, rows in store.runs():
        if lead not in pieces:
            head, tail = prefix, "\n"
            if lead is not None:
                # encoded as csv.writer encodes the cell: digits and spaces
                # never change how a field is quoted, and a quoted cell
                # ends in its closing quote
                cell = _csv_line([lead + " "])
                if cell.endswith('"'):
                    cell, tail = cell[:-1], '"' + tail
                head += cell
            pieces[lead] = (head.encode(), b" ", b" ", tail.encode())
        yield _format_rows(pieces[lead], rows)


def _json_witnesses(store: WitnessStore) -> Iterator[bytes]:
    """Pieces of the text json.dumps(to_jsonable(...), indent=2) gives
    `store` as the value of a top-level field, a chunk of rows at a time."""
    if not store:
        yield b"[]"
        return
    yield b"["
    skip = 1  # the comma before the first row
    for lead, rows in store.runs():
        head = ",\n    [\n      "
        if lead is not None:
            head += json.dumps(lead) + ",\n      "
        pieces = (head.encode(), b",\n      ", b",\n      ", b"\n    ]")
        yield _format_rows(pieces, rows)[skip:]
        skip = 0
    yield b"\n  ]"


def _csv_cell(value: Any) -> Any:
    if value is None:
        return ""
    if isinstance(value, float):
        return _round15(value)
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return " ".join(map(str, value))
    return value


def _csv(payload: Any) -> Iterator[bytes]:
    """A conjecture report is one row per witness and a coefficient table
    one row per index; any other dataclass, or list of them, is a header of
    its field names (less those marked `csv: False`) and a row per record."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    if isinstance(payload, ConjectureReport):
        w.writerow(_CSV_VIOLATION_HEADER)
        base = [
            payload.conjecture_id, payload.range, payload.checked_count,
            payload.skipped_count, payload.status.value,
            _round15(payload.duration),
        ]
        if not payload.violations:
            w.writerow(base + [""])
        elif isinstance(payload.violations, WitnessStore):
            yield buf.getvalue().encode()
            yield from _witness_csv(_csv_line(base + [""]),
                                    payload.violations)
            return
        for v in payload.violations:
            w.writerow(base + [" ".join(str(x) for x in v)])
    elif isinstance(payload, CoefficientTable):
        w.writerow(["index", "k"])
        w.writerows(enumerate(payload.k, start=1))
    else:
        records = payload if isinstance(payload, list) else [payload]
        if not all(dataclasses.is_dataclass(r) and not isinstance(r, type)
                   for r in records):
            raise TypeError(f"no CSV layout for {type(payload).__name__}")
        if records:  # an empty list has no record type to take a header from
            names = [f.name for f in dataclasses.fields(records[0])
                     if f.metadata.get("csv", True)]
            w.writerow(names)
            for r in records:
                w.writerow([_csv_cell(getattr(r, n)) for n in names])
    yield buf.getvalue().encode()


def to_text(payload: Any) -> str:
    lines: list[str] = []
    if isinstance(payload, ConjectureReport):
        lines.append(f"{payload.conjecture_id}: {payload.status.value}")
        lines.append(f"  range:   {payload.range}")
        lines.append(f"  checked: {payload.checked_count}"
                     + (f" (skipped {payload.skipped_count})"
                        if payload.skipped_count else ""))
        for v in payload.violations[:20]:
            lines.append(f"  violation: {v}")
        if len(payload.violations) > 20:
            lines.append(f"  ... {len(payload.violations) - 20} more")
        for key, val in payload.extremes.items():
            if isinstance(val, GapRecord):
                val = f"(n={val.n}, p={val.p}, q={val.q})"
            elif isinstance(val, float):
                val = _round15(val)
            lines.append(f"  {key}: {val}")
        lines.append(f"  duration: {_round15(payload.duration):.6g} s")
    elif isinstance(payload, CrossoverResult):
        lines.append(f"{payload.predicate_id}: holds from "
                     f"{payload.threshold} through {payload.verified_through}")
        if payload.pre_threshold_failure is not None:
            lines.append(f"  last failure below threshold: "
                         f"{payload.pre_threshold_failure}")
    elif isinstance(payload, ExponentSolution):
        lines.append(f"pair ({payload.p}, {payload.q}): "
                     f"x = {_round15(payload.x):.15g} "
                     f"(residual {payload.residual:.3g}, "
                     f"{payload.iterations} iterations)")
    elif isinstance(payload, CoefficientTable):
        for i, k in enumerate(payload.k, start=1):
            lines.append(f"k_{i} = {k}")
    elif isinstance(payload, Verdict):
        lines.append(f"{payload.status.value} "
                     f"(margin {_round15(payload.margin):.15g}, "
                     f"{payload.precision_used.value} precision)")
        if payload.witness is not None:
            lines.append(f"  witness: {payload.witness}")
    elif isinstance(payload, DWitness):
        lines.append(f"counterexample at n = {payload.n}: pair "
                     f"({payload.p}, {payload.q}), value "
                     f"{_round15(payload.value):.15g} >= 1/{payload.n}")
    elif isinstance(payload, list):
        for row in payload:
            lines.append(json.dumps(to_jsonable(row)))
    else:
        lines.append(str(to_jsonable(payload)))
    return "".join(line + "\n" for line in lines)


def render(payload: Any, fmt: str, no_timing: bool = False
           ) -> Iterator[bytes]:
    """The UTF-8 text of `payload` in `fmt`, in chunks of bytes: a witness
    store's rows come at most `witnesses.CHUNK` to a chunk, so the text is
    never held whole.  An unknown format is refused here, before any chunk
    is made."""
    if no_timing:
        payload = strip_timing(payload)
    if fmt == "json":
        return _json(payload)
    if fmt == "csv":
        return _csv(payload)
    if fmt == "text":
        return iter([to_text(payload).encode()])
    raise ValueError(f"unknown format {fmt!r}")


def serialize(payload: Any, fmt: str, no_timing: bool = False) -> str:
    return b"".join(render(payload, fmt, no_timing)).decode()
