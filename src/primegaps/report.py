"""Report serialization: JSON, CSV (RFC 4180), and human-readable text.

Output is deterministic for a fixed payload: field order is fixed by the
dataclasses, floats are rounded to 15 significant digits, and timing can be
replaced by a stable placeholder for byte-for-byte comparisons.  `render`
yields the text in chunks, a witness store's rows a bounded number at a
time; `serialize` joins them.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
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


def _json(payload: Any) -> Iterator[str]:
    if not isinstance(payload, ConjectureReport):
        yield json.dumps(to_jsonable(payload), indent=2) + "\n"
        return
    # field by field, so that a witness store is rendered from its rows
    sep = "{"
    for f in dataclasses.fields(payload):
        value = getattr(payload, f.name)
        yield f"{sep}\n  {json.dumps(f.name)}: "
        if isinstance(value, WitnessStore):
            yield from _json_witnesses(value)
        else:
            yield (json.dumps(to_jsonable(value), indent=2)
                   .replace("\n", "\n  "))
        sep = ","
    yield "\n}\n"


_CSV_VIOLATION_HEADER = [
    "conjecture_id", "range", "checked_count", "skipped_count",
    "status", "duration", "witness",
]


def _format_rows(row: str, sep: str, rows: np.ndarray) -> str:
    """sep.join(row % (n, p, q) for each row n, p, q of `rows`)."""
    return sep.join([row] * len(rows)) % tuple(rows.ravel().tolist())


def _csv_line(fields: list) -> str:
    """The fields as csv.writer writes them, without the line end."""
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow(fields)
    return line.getvalue()[:-1]


def _witness_csv(prefix: str, store: WitnessStore) -> Iterator[str]:
    """The CSV rows `prefix` + witness cell, one per witness of `store`, a
    chunk of at most `CHUNK` rows at a time: the cells are formatted from
    the store's rows and joined, and one replace puts `prefix` before each.
    """
    for lead, rows in store.runs():
        cell = "%d %d %d"
        if lead is not None:
            # encoded as csv.writer encodes the cell: digits and spaces
            # never change how a field is quoted
            cell = _csv_line([lead.replace("%", "%%") + " " + cell])
        if "\n" in cell:  # a quoted lead holding a line break
            yield _format_rows(prefix.replace("%", "%%") + cell + "\n", "",
                               rows)
            continue
        body = _format_rows(cell, "\n", rows) + "\n"
        yield prefix + body.replace("\n", "\n" + prefix, len(rows) - 1)


def _json_witnesses(store: WitnessStore) -> Iterator[str]:
    """Pieces of the text json.dumps(to_jsonable(...), indent=2) gives
    `store` as the value of a top-level field, one per chunk of rows."""
    if not store:
        yield "[]"
        return
    sep = "[\n"
    for lead, rows in store.runs():
        items = [] if lead is None else [json.dumps(lead).replace("%", "%%")]
        row = ("    [\n      " + ",\n      ".join(items + ["%d"] * 3)
               + "\n    ]")
        yield sep
        yield _format_rows(row, ",\n", rows)
        sep = ",\n"
    yield "\n  ]"


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


def _csv(payload: Any) -> Iterator[str]:
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
            yield buf.getvalue()
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
    yield buf.getvalue()


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


def render(payload: Any, fmt: str, no_timing: bool = False) -> Iterator[str]:
    """The text of `payload` in `fmt`, in chunks: a witness store's rows
    come at most `witnesses.CHUNK` to a chunk, so the text is never held
    whole.  An unknown format is refused here, before any chunk is made."""
    if no_timing:
        payload = strip_timing(payload)
    if fmt == "json":
        return _json(payload)
    if fmt == "csv":
        return _csv(payload)
    if fmt == "text":
        return iter([to_text(payload)])
    raise ValueError(f"unknown format {fmt!r}")


def serialize(payload: Any, fmt: str, no_timing: bool = False) -> str:
    return "".join(render(payload, fmt, no_timing))
