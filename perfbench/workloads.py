"""The benchmark's workloads: CLI invocations built from a seed.

Seed 0 is the default and gives the ranges below exactly.  Any other seed
moves each range end by a seed-derived offset of at most 0.1 %, so a claim
can be re-checked on inputs that were not used while it was written; the
work per run, and so the timings, stay comparable across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0

# name -> range end at the default seed
BASE = {
    "gap_limit": 300_000_000,   # verify gap-bounds --limit
    "a0_limit": 10_000_000,     # solve a0 --limit
    "pi_x": 1_000_000_000,      # pi-approx --x
    "legendre_n": 20_000,       # verify legendre --limit
    "brocard_n": 2_000,         # verify brocard --limit
    "b_limit": 20_000_000,      # verify smarandache-b --limit
}
B_EXPONENT = "0.85"
PI_TERMS = (1, 2, 3, 4)


@dataclass(frozen=True)
class Invocation:
    """One `primegaps` command line; `kind` selects its correctness check."""

    kind: str
    argv: tuple
    fmt: str


def ranges(seed: int) -> dict:
    if seed == DEFAULT_SEED:
        return dict(BASE)
    rng = random.Random(seed)
    return {k: v + rng.randint(-(v // 1000), v // 1000)
            for k, v in BASE.items()}


def _pair_scan(r: dict) -> list:
    return [
        Invocation("gap-bounds", ("verify", "gap-bounds", "--limit",
                                  str(r["gap_limit"])), "json"),
        Invocation("a0", ("solve", "a0", "--limit", str(r["a0_limit"])),
                   "json"),
    ]


def _count_scan(r: dict) -> list:
    terms = [a for t in PI_TERMS for a in ("--terms", str(t))]
    return [
        Invocation("pi-approx", ("pi-approx", "--x", str(r["pi_x"]), *terms),
                   "json"),
        Invocation("legendre", ("verify", "legendre", "--limit",
                                str(r["legendre_n"])), "json"),
        Invocation("brocard", ("verify", "brocard", "--limit",
                               str(r["brocard_n"])), "json"),
    ]


def _witness_scan(r: dict) -> list:
    return [
        Invocation("smarandache-b", ("verify", "smarandache-b", "--limit",
                                     str(r["b_limit"]), "--a", B_EXPONENT),
                   "csv"),
    ]


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {
    "pair-scan": _pair_scan,
    "count-scan": _count_scan,
    "witness-scan": _witness_scan,
}


def invocations(workload: str, seed: int) -> tuple[dict, list]:
    """The range ends and the invocations of `workload` at `seed`."""
    r = ranges(seed)
    return r, WORKLOADS[workload](r)
