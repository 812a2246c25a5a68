"""Outside-in tracing of primegaps: spans and counters recorded by wrappers
that replace module attributes at run time, so `src/` stays untouched.

A span is one call into a layer (or one `next()` on a layer's generator):
its name, start, end and the span that was open when it began.  Spans stay
in memory; `layer_metrics` turns them into the per-layer figures once the
run is over.  Self time is a span's duration minus the part of it that its
children cover.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]


class Tracer:
    """Span and counter recorder; calls nest, so a stack of open spans
    gives each new span its parent."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: collections.Counter = collections.Counter()
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._open.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def call(self, name: str, fn, after=None):
        """Wrap a function: one span per call; `after(result)` counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(result)
            return result

        return wrapper

    def counted(self, counter: str, fn):
        """Wrap a function without a span: count its calls only."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def generator(self, name: str, fn, on_call=None, on_item=None):
        """Wrap a generator function: one span per `next()` on the result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            it = fn(*args, **kwargs)
            while True:
                idx = self.begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.end(idx)
                if on_item is not None:
                    on_item(item)
                yield item

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = collections.defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def span_totals(spans: list[Span]) -> tuple[dict, dict]:
    """Per-name sums of (self time, inclusive time)."""
    own = collections.defaultdict(float)
    incl = collections.defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        own[s.name] += t
        incl[s.name] += s.end - s.start
    return own, incl


# Per-layer metric name -> (span name, "self" | "total") for timings, or the
# counter name for counts.  Layers a workload never enters report 0.
TIMED = {
    "sieve.prime_blocks_s": ("sieve.prime_blocks", "self"),
    "sieve.prime_counts_at_self_s": ("sieve.prime_counts_at", "self"),
    "sieve.nth_prime_s": ("sieve.nth_prime", "total"),
    "gaps.pair_blocks_self_s": ("gaps.pair_blocks", "self"),
    "gaps.observe_block_s": ("gaps.observe_block", "self"),
    "conjectures.scan_self_s": ("conjectures.scan", "self"),
    "bounds.strict_s": ("bounds.strict", "self"),
    "exponent_solver.min_exponent_self_s": (
        "exponent_solver.min_exponent", "self"),
    "panaitopol.error_table_self_s": ("panaitopol.error_table", "self"),
    "report.serialize_s": ("report.serialize", "self"),
    "cli.main_self_s": ("cli.main", "self"),
}
COUNTED = (
    "sieve.segments", "sieve.primes", "sieve.integers_sieved",
    "sieve.prime_count_calls", "gaps.pairs", "gaps.gap_records_built",
    "conjectures.checked", "conjectures.violations", "conjectures.uncertain",
    "bounds.strict_evals", "exponent_solver.solve_calls", "report.bytes_out",
)


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer figures of one traced run, keyed by metric name.

    `trace.self_sum_s` sums every span's self time, which equals the time
    inside the outermost spans; set against the traced wall time it shows
    how much of the run the spans account for.
    """
    own, incl = span_totals(tracer.spans)
    out = {}
    for metric, (span, kind) in TIMED.items():
        out[metric] = (own if kind == "self" else incl).get(span, 0.0)
    for name in COUNTED:
        out[name] = tracer.counters.get(name, 0)
    out["trace.self_sum_s"] = sum(own.values())
    return out


class Patches:
    """Attribute replacements that `restore` undoes in reverse order."""

    def __init__(self):
        self._saved: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def install(tracer: Tracer) -> Patches:
    """Wrap the public entry points of every primegaps layer.

    Callers inside the package reach each other through module attributes
    (`sieve.prime_blocks`, `gaps.pair_blocks`, `mp.workdps`, ...), so
    replacing the attribute is enough for the wrapper to see every call.
    """
    import mpmath
    from primegaps import (cli, conjectures, exponent_solver, gaps,
                           panaitopol, report, sieve)

    t = tracer
    patches = Patches()

    def sieved(lo, hi):
        t.count("sieve.integers_sieved", hi - lo)

    def block_out(block):
        t.count("sieve.segments")
        t.count("sieve.primes", int(block.size))

    patches.set(sieve, "prime_blocks", t.generator(
        "sieve.prime_blocks", sieve.prime_blocks,
        on_call=sieved, on_item=block_out))
    patches.set(sieve, "prime_counts_at", t.call(
        "sieve.prime_counts_at", sieve.prime_counts_at,
        after=lambda _: t.count("sieve.prime_count_calls")))
    patches.set(sieve, "prime_count", t.counted(
        "sieve.prime_count_calls", sieve.prime_count))
    patches.set(sieve, "nth_prime", t.call("sieve.nth_prime", sieve.nth_prime))

    patches.set(gaps, "pair_blocks", t.generator(
        "gaps.pair_blocks", gaps.pair_blocks,
        on_item=lambda blk: t.count("gaps.pairs", int(blk.p.size))))
    patches.set(gaps.ExtremeTracker, "observe_block", t.call(
        "gaps.observe_block", gaps.ExtremeTracker.observe_block))
    from_pair = t.counted("gaps.gap_records_built",
                          gaps.GapRecord.__dict__["from_pair"].__func__)
    patches.set(gaps.GapRecord, "from_pair", classmethod(from_pair))

    def scanned(rep):
        if isinstance(rep, conjectures.ConjectureReport):
            t.count("conjectures.checked", rep.checked_count)
            t.count("conjectures.violations", len(rep.violations))
            t.count("conjectures.uncertain", len(rep.uncertain))

    for name in dir(conjectures):
        if name.startswith("check_") or name.startswith("find_"):
            patches.set(conjectures, name, t.call(
                "conjectures.scan", getattr(conjectures, name), after=scanned))

    workdps = mpmath.workdps

    # every strict escalation enters mpmath's working precision
    @contextlib.contextmanager
    def strict(*args, **kwargs):
        t.count("bounds.strict_evals")
        idx = t.begin("bounds.strict")
        try:
            with workdps(*args, **kwargs):
                yield
        finally:
            t.end(idx)

    patches.set(mpmath, "workdps", strict)

    patches.set(exponent_solver, "min_exponent", t.call(
        "exponent_solver.min_exponent", exponent_solver.min_exponent))
    patches.set(exponent_solver, "solve_exponent", t.counted(
        "exponent_solver.solve_calls", exponent_solver.solve_exponent))
    patches.set(panaitopol, "error_table", t.call(
        "panaitopol.error_table", panaitopol.error_table))
    patches.set(report, "serialize", t.call(
        "report.serialize", report.serialize,
        after=lambda text: t.count("report.bytes_out", len(text.encode()))))
    patches.set(cli, "main", t.call("cli.main", cli.main))
    return patches

