"""The columnar witness store against plain lists of witness tuples."""

import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primegaps import cli, conjectures, gaps, report, witnesses
from primegaps.witnesses import WitnessStore

# the gap bounds, and names that csv quotes or %-formatting would read
LEADS = (*conjectures.GAP_BOUNDS, "50%s", 'say "x", y', "line\nbreak",
         '"50%d", say')
# a pair block of up to 12 pairs, the indices of the pairs captured, and
# how far past the last block of its lead it starts: each lead's blocks
# ascend, as a pair scan makes them, while the leads interleave freely
blocks = st.integers(0, 12).flatmap(lambda size: st.tuples(
    st.integers(0, 10**12),
    st.lists(st.integers(2, 2**62), min_size=size, max_size=size),
    st.lists(st.integers(2, 2**62), min_size=size, max_size=size),
    st.sets(st.integers(0, max(size - 1, 0)), max_size=size),
))


def captured(draws, leads, pick):
    """A store and a list given the same blocks: each block's witnesses
    under the lead `pick` chooses, or under none when `leads` is empty."""
    store, plain, ends = WitnessStore(), [], {}
    for k, (skip, ps, qs, chosen) in enumerate(draws):
        lead = leads[pick[k] % len(leads)] if leads else None
        n0 = ends.get(lead, 1) + skip
        ends[lead] = n0 + len(ps)
        blk = gaps.PairBlock(n0, np.array(ps, dtype=np.int64),
                             np.array(qs, dtype=np.int64))
        idx = np.array(sorted(chosen), dtype=np.intp)
        store.add(blk.n0 + idx, blk.p[idx], blk.q[idx], lead)
        plain += [(*(() if lead is None else (lead,)), n0 + i, ps[i], qs[i])
                  for i in idx.tolist()]
    return store, plain


def per_row_csv(rep):
    """The CSV of `rep` written by csv.writer, one row per witness."""
    rep = dataclasses.replace(rep, violations=list(rep.violations))
    with mock.patch.object(report, "_witness_csv", lambda *args: None):
        return report.serialize(rep, "csv")


class TestStoreAgainstLists:
    @settings(max_examples=200, deadline=None)
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
        assert report.serialize(rep, "json") == json.dumps(
            report.to_jsonable(listed), indent=2) + "\n"
        assert report.serialize(rep, "csv") == per_row_csv(listed)

    def test_empty_store_serializes_as_an_empty_list(self):
        stored = conjectures._pair_report("x", "r").finalize()
        listed = conjectures.ConjectureReport("x", "r").finalize()
        assert stored == listed and not stored.violations
        for fmt in ("json", "csv", "text"):
            assert (report.serialize(stored, fmt)
                    == report.serialize(listed, fmt))

    def test_gap_bound_witnesses_sort_by_name(self, monkeypatch):
        # captured as the bounds are checked, in GAP_BOUNDS order
        blk = gaps.PairBlock(4, np.array([7, 31]), np.array([11, 200]))
        monkeypatch.setattr(gaps, "pair_blocks",
                            lambda lo, hi, gate=None: iter([blk]))
        rep = conjectures.check_gap_bounds(100)
        names = [w[0] for w in rep.violations]
        assert names == sorted(names) and set(names) == set(
            conjectures.GAP_BOUNDS)


def wide_store(leads, per_lead):
    """A store of `per_lead` witnesses under each of `leads` (None for no
    lead), and the report of it next to the report of the same list."""
    store, plain = WitnessStore(), []
    n = np.arange(1, per_lead + 1, dtype=np.int64)
    for lead in leads:
        store.add(n, 2 * n + 1, 3 * n + 7, lead)
        head = () if lead is None else (lead,)
        plain += [(*head, k, 2 * k + 1, 3 * k + 7) for k in n.tolist()]
    # an id and a range that %-formatting would read and csv quotes
    rep = conjectures.ConjectureReport(
        "5%d", 'p < "7", 50%', violations=store,
        uncertain=WitnessStore()).finalize()
    return rep, dataclasses.replace(rep, violations=sorted(plain))


class TestRenderContract:
    """`render` yields bytes, at most CHUNK witnesses to a chunk, which
    join to the text of the same witnesses as a list of tuples."""

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 12, 1 << 14])
    @pytest.mark.parametrize("leads", [(None,), ('"50%d", say', "andrica")])
    def test_chunks_are_bytes_and_the_text_of_the_list(
            self, monkeypatch, chunk, leads):
        monkeypatch.setattr(witnesses, "CHUNK", chunk)
        per_lead = (1 << 14) + 3  # past one chunk at every CHUNK tried
        rep, listed = wide_store(leads, per_lead)
        for fmt in ("json", "csv", "text"):
            assert all(type(c) is bytes for c in report.render(rep, fmt))
        header, *rows = report.render(rep, "csv")
        assert header.count(b"\n") == 1
        assert len(rows) == len(leads) * -(-per_lead // chunk)
        for piece in rows:
            # whole CSV records, a lead's line break inside its quotes
            assert 1 <= len(list(csv.reader(io.StringIO(
                piece.decode(), newline="")))) <= chunk
        assert (header + b"".join(rows)).decode() == per_row_csv(listed)
        pieces = list(report.render(rep, "json"))
        assert max(p.count(b"    [\n") for p in pieces) <= chunk
        assert b"".join(pieces).decode() == json.dumps(
            report.to_jsonable(listed), indent=2) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_is_the_out_file(self, capfdbinary, tmp_path, fmt):
        argv = ["verify", "smarandache-b", "--limit", "1000000", "--a",
                "0.85", "--format", fmt, "--no-timing"]
        out = tmp_path / "out"
        assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_VIOLATION
        assert capfdbinary.readouterr().out == b""
        assert cli.main(argv) == cli.EXIT_VIOLATION
        got, want = capfdbinary.readouterr().out, out.read_bytes()
        # 46 593 witnesses: more than one chunk, written chunk by chunk
        rows = (want.count(b"\n    [\n") if fmt == "json"
                else want.count(b"\n") - 1)
        assert rows == 46593 > witnesses.CHUNK
        assert got == want


class TestAscendingRuns:
    def test_a_lead_that_goes_back_is_refused(self):
        store = WitnessStore()
        store.add(np.array([5, 9]), np.array([11, 23]), np.array([13, 29]),
                  "andrica")
        assert store[-1] == ("andrica", 9, 23, 29)
        # another lead has a run of its own
        store.add(np.array([2]), np.array([3]), np.array([5]), "cramer")
        for n in ([9], [7], [12, 10], [10, 10]):
            with pytest.raises(ValueError, match="ascend"):
                store.add(np.array(n), np.array(n), np.array(n), "andrica")
        with pytest.raises(ValueError, match="ascend"):
            WitnessStore().add(np.array([3, 2]), np.array([5, 3]),
                               np.array([7, 5]))
        # reads move the file position; the next part still lands at the
        # end of its run
        assert list(store) == [("andrica", 5, 11, 13), ("andrica", 9, 23, 29),
                               ("cramer", 2, 3, 5)]
        assert store[0] == ("andrica", 5, 11, 13)
        # a refused part leaves the store as it was
        store.add(np.array([10]), np.array([29]), np.array([31]), "andrica")
        assert store[-1] == ("cramer", 2, 3, 5)
        assert store[1] == ("andrica", 9, 23, 29)
        store.add(np.array([11]), np.array([31]), np.array([37]), "andrica")
        store.sort()
        assert store == [("andrica", 5, 11, 13), ("andrica", 9, 23, 29),
                         ("andrica", 10, 29, 31), ("andrica", 11, 31, 37),
                         ("cramer", 2, 3, 5)]

    def test_a_part_per_pair_gives_the_same_store(self, monkeypatch):
        want = conjectures.check_smarandache_B(10**4, 0.85).violations
        monkeypatch.setattr(gaps, "PAIR_SLICE", 1)
        got = conjectures.check_smarandache_B(10**4, 0.85).violations
        assert len(got) > 900 and got == want and list(got) == sorted(got)


class TestOutputMemory:
    def test_a_store_keeps_no_rows_in_memory(self):
        parts, size = 50, 4096
        n = np.arange(1, parts * size + 1, dtype=np.int64)
        store = WitnessStore()
        tracemalloc.start()
        try:
            for k in range(0, n.size, size):
                part = n[k:k + size]
                store.add(part, 2 * part, 3 * part)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(store) == n.size and store[-1] == (
            n.size, 2 * n.size, 3 * n.size)
        # a few parts at a time, far below the 24-byte rows added
        assert peak < 24 * n.size / 10

    # a chunk far above the store's witnesses, and one far below: a read
    # takes the rows asked for, not a whole chunk
    @pytest.mark.parametrize("chunk", [1 << 20, 1000])
    def test_text_reads_only_what_it_prints(self, monkeypatch, chunk):
        monkeypatch.setattr(witnesses, "CHUNK", chunk)
        rep = conjectures.check_smarandache_B(2 * 10**6, 0.85)
        assert len(rep.violations) > 80_000
        tracemalloc.start()
        try:
            text = report.to_text(rep)
            last = rep.violations[-1]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        listed = list(rep.violations)
        assert text.count("violation:") == 20 and last == listed[-1]
        assert text.startswith(report.to_text(dataclasses.replace(
            rep, violations=listed)))
        # 21 witnesses: far below one copy of the store's 24-byte rows
        assert peak < 24 * len(listed) / 50

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rendering_peak_does_not_grow_with_the_witnesses(
            self, monkeypatch, fmt):
        monkeypatch.setattr(witnesses, "CHUNK", 1 << 10)
        peaks = []
        for limit in (5 * 10**5, 2 * 10**6):
            rep = conjectures.check_smarandache_B(limit, 0.85)
            tracemalloc.start()
            try:
                size = sum(len(chunk) for chunk in report.render(rep, fmt))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        # 3.4 times the witnesses, and a few chunks of text either way
        assert peaks[1] < 1.5 * peaks[0] and peaks[1] < size / 8

    @pytest.mark.parametrize("to_file", [False, True])
    @pytest.mark.parametrize("chunk", [100, witnesses.CHUNK, 1 << 14])
    def test_emit_writes_each_rendered_chunk(
            self, monkeypatch, tmp_path, to_file, chunk):
        argv = ["verify", "smarandache-b", "--limit", "20000", "--a", "0.85",
                "--format", "csv", "--no-timing"]
        monkeypatch.setattr(witnesses, "CHUNK", chunk)
        rep = conjectures.check_smarandache_B(20000, 0.85)
        want = list(report.render(rep, "csv", no_timing=True))
        # past one chunk of witnesses, each chunk as it is made; up to
        # one chunk, the text whole
        if len(rep.violations) <= chunk:
            want = [b"".join(want)]
        else:
            assert len(want) > 10
        writes = []

        class Recorder:
            def __init__(self, fh):
                self.fh = fh

            def write(self, s):
                writes.append(s)
                return self.fh.write(s)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        out, sink = tmp_path / "out.csv", io.BytesIO()
        if to_file:
            monkeypatch.setattr(cli, "open", lambda *a, **k: Recorder(
                open(*a, **k)), raising=False)
            argv += ["--out", str(out)]
        else:
            # the bytes go to the binary buffer under the text stream
            monkeypatch.setattr(sys, "stdout", SimpleNamespace(
                buffer=Recorder(sink), flush=lambda: None))
        assert cli.main(argv) == cli.EXIT_VIOLATION
        got = out.read_bytes() if to_file else sink.getvalue()
        assert got == b"".join(want) and writes == want


def test_no_witness_file_is_left_open():
    # each lead's run holds a temporary file; python -X dev reports any
    # that is dropped unclosed
    src = str(Path(witnesses.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "primegaps.cli", "verify",
         "smarandache-b", "--limit", "100000", "--a", "0.85",
         "--out", os.devnull],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == cli.EXIT_VIOLATION, done.stderr
    assert "ResourceWarning" not in done.stderr
