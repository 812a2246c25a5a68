"""Tests of the benchmark itself: span arithmetic, the tracer's wrappers,
the correctness gate, and the recorded references against their oracles."""

from __future__ import annotations

import json
import math

import pytest
import sympy

import gate
import spans
import workloads
from spans import Span, Tracer


# ---------------------------------------------------------------------------
# self-time arithmetic


def test_self_times_on_nested_tree():
    # root [0, 10] holds a [1, 4] (holding a1 [2, 3]) and b [5, 9]
    tree = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a1", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    own, incl = spans.span_totals(tree)
    assert sum(own.values()) == incl["root"]


def test_self_times_count_overlapping_children_once():
    tree = [
        Span("root", 0.0, 10.0, None),
        Span("c", 2.0, 6.0, 0),
        Span("c", 4.0, 8.0, 0),
        Span("c", 9.0, 12.0, 0),  # runs past its parent: clipped to [9, 10]
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_nests_calls_and_generator_steps():
    ticks = iter(range(100))
    t = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        yield 1
        yield 2

    gen = t.generator("gen", inner)
    outer = t.call("outer", lambda: list(gen()))
    assert outer() == [1, 2]
    names = [(s.name, s.parent) for s in t.spans]
    # one span per next(), the last one ending the generator
    assert names == [("outer", None), ("gen", 0), ("gen", 0), ("gen", 0)]
    # each tick-clock generator span lasts 1
    root = t.spans[0]
    assert spans.self_times(t.spans)[0] == (root.end - root.start) - 3.0


def test_install_traces_every_layer_and_restores():
    from primegaps import cli, gaps, sieve

    originals = (sieve.prime_blocks, gaps.pair_blocks, cli.main)
    t = Tracer()
    patches = spans.install(t)
    try:
        assert cli.main(["verify", "gap-bounds", "--limit", "100000",
                         "--format", "json", "--out", "/dev/null"]) == 0
    finally:
        patches.restore()
    assert (sieve.prime_blocks, gaps.pair_blocks, cli.main) == originals
    m = spans.layer_metrics(t)
    pairs = int(sympy.primepi(99_999))
    assert m["gaps.pairs"] == pairs
    assert m["conjectures.checked"] == 4 * pairs - 18
    assert m["sieve.primes"] >= pairs
    assert m["sieve.segments"] >= 1 and m["report.bytes_out"] > 0
    parents = {s.name: t.spans[s.parent].name for s in t.spans
               if s.parent is not None}
    assert parents["sieve.prime_blocks"] == "gaps.pair_blocks"
    assert parents["gaps.pair_blocks"] == "conjectures.scan"
    assert parents["conjectures.scan"] == "cli.main"
    root = t.spans[0]
    assert m["trace.self_sum_s"] == pytest.approx(root.end - root.start)


# ---------------------------------------------------------------------------
# seeds


def test_default_seed_gives_the_base_ranges():
    assert workloads.ranges(workloads.DEFAULT_SEED) == workloads.BASE


def test_other_seeds_move_range_ends_slightly_and_reproducibly():
    for seed in (1, 2, 12345):
        r = workloads.ranges(seed)
        assert r == workloads.ranges(seed)
        for k, v in workloads.BASE.items():
            assert abs(r[k] - v) <= v // 1000
    assert workloads.ranges(1) != workloads.ranges(2)


# ---------------------------------------------------------------------------
# the gate, on the real CLI at small ranges

SMALL = {"gap_limit": 100_003, "a0_limit": 10_007, "pi_x": 1_000_003,
         "legendre_n": 101, "brocard_n": 53, "b_limit": 10_009}


def _run_all(tmp_path):
    from primegaps import cli

    done = []
    for name, build in workloads.WORKLOADS.items():
        for i, inv in enumerate(build(SMALL)):
            out = tmp_path / f"{name}-{i}.out"
            code = cli.main([*inv.argv, "--format", inv.fmt, "--out", str(out),
                             "--no-timing"])
            done.append((inv, code, out))
    return done


def test_gate_accepts_correct_outputs(tmp_path):
    for inv, code, out in _run_all(tmp_path):
        assert gate.check(inv, SMALL, 1, code, str(out)) == [], inv.kind


def _alter_json(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


ALTERATIONS = {
    "gap-bounds": lambda d: d.update(checked_count=d["checked_count"] + 1),
    "a0": lambda d: d.update(x=d["x"] + 1e-9),
    "pi-approx": lambda d: d[2].update(exact=d[2]["exact"] - 1),
    "legendre": lambda d: d.update(status="ViolationFound"),
    "brocard": lambda d: d["uncertain"].append([7, 17, 19]),
}


def test_gate_rejects_an_altered_field(tmp_path):
    for inv, code, out in _run_all(tmp_path):
        if inv.kind == "smarandache-b":
            lines = out.read_text().splitlines(keepends=True)
            lines[5] = lines[5].replace(" ", " 1", 1)  # corrupt the witness n
            out.write_text("".join(lines))
        else:
            _alter_json(out, ALTERATIONS[inv.kind])
        assert gate.check(inv, SMALL, 1, code, str(out)), inv.kind


def test_gate_rejects_a_wrong_exit_code(tmp_path):
    inv, code, out = _run_all(tmp_path)[0]
    assert gate.check(inv, SMALL, 1, code + 1, str(out))


def test_gate_rejects_a_dropped_witness(tmp_path):
    inv, code, out = next(x for x in _run_all(tmp_path)
                          if x[0].kind == "smarandache-b")
    lines = out.read_text().splitlines(keepends=True)
    out.write_text("".join(lines[:-1]))
    assert gate.check(inv, SMALL, 1, code, str(out))


# ---------------------------------------------------------------------------
# references against independent oracles


def test_maximal_gap_table_against_sympy():
    for gap, p in gate.MAXIMAL_GAPS:
        assert sympy.isprime(p) and sympy.nextprime(p) - p == gap
    primes = list(sympy.primerange(2, 2_000_000))
    records, best = [], 0
    for p, q in zip(primes, primes[1:]):
        if q - p > best:
            best = q - p
            records.append((best, p))
    assert tuple(records) == tuple(r for r in gate.MAXIMAL_GAPS
                                   if r[1] < primes[-1])


def test_gap_extreme_references():
    assert gate.record_gap(300_000_000) == (248, 191_912_783)
    assert gate.record_cramer(300_000_000) == (210, 20_831_323)


def test_default_reference_counts_against_sympy():
    ref = gate.DEFAULT_REFERENCE
    assert ref["pi_1e9"] == sympy.primepi(10**9) == 50_847_534
    assert ref["gap_bounds_checked"] == 4 * sympy.primepi(300_000_000 - 1) - 18
    assert ref["b_checked"] == sympy.primepi(20_000_000 - 1)


def test_default_reference_witnesses_against_oracle():
    ref = gate.DEFAULT_REFERENCE
    wit = gate.smarandache_b_witnesses(20_000_000, workloads.B_EXPONENT)
    assert len(wit) == ref["b_violations"]
    assert tuple(wit[0].tolist()) == ref["b_first_witness"]
    assert tuple(wit[-1].tolist()) == ref["b_last_witness"]
    n, p, q = ref["b_last_witness"]
    assert sympy.primepi(p) == n and sympy.nextprime(p) == q
    assert q**0.85 - p**0.85 >= 1.0


def test_interval_minima_references_against_sympy():
    legendre = gate.DEFAULT_REFERENCE["legendre_extremes"]
    n = legendre["min_interval_n"]
    assert (sympy.primepi((n + 1) ** 2) - sympy.primepi(n * n)
            == legendre["min_interval_count"])
    brocard = gate.DEFAULT_REFERENCE["brocard_extremes"]
    p = sympy.prime(brocard["min_interval_n"])
    edges = [p * p, p * (p + 1), (p + 1) ** 2, (p + 1) * (p + 2), (p + 2) ** 2]
    pi = [sympy.primepi(e) for e in edges]
    for s in range(4):
        assert pi[s + 1] - pi[s] == brocard[f"segment{s + 1}_min_count"]
    q = sympy.nextprime(p)
    assert (sympy.primepi(q * q) - pi[0]) == brocard["min_interval_count"]


def test_a0_oracle_matches_the_paper_constant():
    assert gate.a0_root() == pytest.approx(0.567148, abs=5e-7)


def test_series_coefficients_match_the_recurrence():
    from primegaps import panaitopol

    assert panaitopol.coefficients(4).k == gate.PANAITOPOL_K
    assert gate.series_approx(10**6, 0) == pytest.approx(
        10**6 / (math.log(10**6) - 1), rel=1e-14)
