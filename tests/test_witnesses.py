"""The columnar witness store against plain lists of witness tuples."""

import dataclasses
import io
import json
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primegaps import cli, conjectures, gaps, report, witnesses
from primegaps.witnesses import WitnessStore

# the gap bounds, and names that csv quotes or %-formatting would read
LEADS = (*conjectures.GAP_BOUNDS, "50%s", 'say "x", y')
# a pair block of up to 12 pairs and the indices of the pairs captured
blocks = st.integers(0, 12).flatmap(lambda size: st.tuples(
    st.integers(1, 10**12),
    st.lists(st.integers(2, 2**62), min_size=size, max_size=size),
    st.lists(st.integers(2, 2**62), min_size=size, max_size=size),
    st.sets(st.integers(0, max(size - 1, 0)), max_size=size),
))


def captured(draws, leads, pick):
    """A store and a list given the same blocks: each block's witnesses
    under the lead `pick` chooses, or under none when `leads` is empty."""
    store, plain = WitnessStore(), []
    for k, (n0, ps, qs, chosen) in enumerate(draws):
        blk = gaps.PairBlock(n0, np.array(ps, dtype=np.int64),
                             np.array(qs, dtype=np.int64))
        idx = np.array(sorted(chosen), dtype=np.intp)
        lead = leads[pick[k] % len(leads)] if leads else None
        conjectures._capture(store, blk, idx, lead)
        plain += [(*(() if lead is None else (lead,)), n0 + i, ps[i], qs[i])
                  for i in idx.tolist()]
    return store, plain


def per_row_csv(rep):
    """The CSV of `rep` written by csv.writer, one row per witness."""
    rep = dataclasses.replace(rep, violations=list(rep.violations))
    with mock.patch.object(report, "_witness_csv", lambda *args: None):
        return report.to_csv(rep)


class TestStoreAgainstLists:
    @settings(max_examples=150, deadline=None)
    @given(draws=st.lists(blocks, max_size=6),
           leads=st.lists(st.sampled_from(LEADS), max_size=4, unique=True),
           pick=st.lists(st.integers(0, 3), min_size=6, max_size=6),
           chunk=st.integers(1, 5))
    def test_finalized_store_is_the_sorted_list(self, draws, leads, pick,
                                                chunk):
        with mock.patch.object(witnesses, "CHUNK", chunk):
            self.check_store(draws, leads, pick)

    def check_store(self, draws, leads, pick):
        store, plain = captured(draws, leads, pick)
        rep = conjectures.ConjectureReport(
            "x", "r", violations=store, uncertain=WitnessStore()).finalize()
        want = sorted(plain)
        assert rep.violations == want and want == rep.violations
        assert rep.status is (conjectures.ReportStatus.VIOLATION_FOUND if want
                              else conjectures.ReportStatus.ALL_HOLD)
        got = list(store)
        assert got == want and len(store) == len(want)
        for item in got:
            assert type(item) is tuple
            assert {type(x) for x in item} <= {int, str}
        assert store[1:4] == want[1:4] and store[::-1] == want[::-1]
        if want:
            assert store[0] == want[0] and store[-1] == want[-1]
        rep.finalize()  # a second finalize changes nothing
        assert list(store) == want
        # the text of the store, rendered from its columns in chunks, is
        # the text of the list
        listed = conjectures.ConjectureReport(
            "x", "r", violations=want, status=rep.status)
        for fmt in ("json", "csv", "text"):
            assert (report.serialize(rep, fmt)
                    == report.serialize(listed, fmt)), fmt
        assert report.to_json(rep) == json.dumps(
            report.to_jsonable(listed), indent=2) + "\n"
        assert report.to_csv(rep) == per_row_csv(listed)

    def test_empty_store_serializes_as_an_empty_list(self):
        stored = conjectures._pair_report("x", "r").finalize()
        listed = conjectures.ConjectureReport("x", "r").finalize()
        assert stored == listed and not stored.violations
        for fmt in ("json", "csv", "text"):
            assert (report.serialize(stored, fmt)
                    == report.serialize(listed, fmt))

    def test_gap_bound_witnesses_sort_by_name(self, monkeypatch):
        # captured as the bounds are checked, in GAP_BOUNDS order
        monkeypatch.setattr(gaps, "pair_blocks", lambda lo, hi: iter(
            [gaps.PairBlock(4, np.array([7, 31]), np.array([11, 200]))]))
        rep = conjectures.check_gap_bounds(100)
        names = [w[0] for w in rep.violations]
        assert names == sorted(names) and set(names) == set(
            conjectures.GAP_BOUNDS)


class TestOutputMemory:
    def test_csv_peak_stays_near_the_text(self):
        rep = conjectures.check_smarandache_B(2 * 10**6, 0.85)
        tracemalloc.start()
        try:
            text = report.to_csv(rep)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rep.violations) > 80_000
        # the text and its joined witness cells; a buffer copied out
        # whole, as by StringIO.getvalue, takes twice the text
        assert peak < 1.5 * len(text)

    @pytest.mark.parametrize("to_file", [False, True])
    def test_emit_writes_the_serialized_text_in_slices(
            self, monkeypatch, tmp_path, to_file):
        argv = ["verify", "smarandache-b", "--limit", "20000", "--a", "0.85",
                "--format", "csv", "--no-timing"]
        want = report.serialize(conjectures.check_smarandache_B(20000, 0.85),
                                "csv", no_timing=True)
        monkeypatch.setattr(cli, "WRITE_SLICE", 1000)
        assert len(want) > 10 * cli.WRITE_SLICE
        writes = []

        class Recorder:
            def __init__(self, fh):
                self.fh = fh

            def write(self, s):
                writes.append(len(s))
                return self.fh.write(s)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        out, sink = tmp_path / "out.csv", io.StringIO()
        if to_file:
            monkeypatch.setattr(cli, "open", lambda *a, **k: Recorder(
                open(*a, **k)), raising=False)
            argv += ["--out", str(out)]
        else:
            monkeypatch.setattr(sys, "stdout", Recorder(sink))
        assert cli.main(argv) == cli.EXIT_VIOLATION
        got = out.read_text(encoding="utf-8") if to_file else sink.getvalue()
        assert got == want
        assert max(writes) == 1000 and sum(writes) == len(want)
