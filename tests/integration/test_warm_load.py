"""SaveMD's one layout through the reduction: a run whose BinMD pairs
are cached reads only signal and error_sq, and a run that reads its Q
rows to key BinMD checks them against the digest stored in the file.

Adversarial cases ride along: empty and one-event runs, the element
back end on a warm cache, a flipped byte in every stream a load
consumes, a flipped stored digest, flipped bytes in the streams no
reduction reads, and an eviction between the load and BinMD.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.core import cross_section as cs_mod
from repro.core.binmd import binmd_cache_key
from repro.core.cross_section import compute_cross_section
from repro.core.geom_cache import DISABLED, GeomCache, digest_array
from repro.core.md_event_workspace import begin_md, load_md, save_md
from repro.nexus.events import (
    BINMD_COLUMNS,
    COL_QX,
    COLUMN_NAMES,
    WEIGHT_COLUMNS,
    EventTable,
    UnreadColumnError,
)
from repro.nexus.h5lite import CorruptFileError, File
from repro.util.trace import Tracer, use_tracer

EVENT_COLUMNS = "MDEventWorkspace/event_columns"


def _runs(exp, tmp_path):
    """The tiny experiment's runs plus an empty and a one-event run."""
    paths = [str(p) for p in exp.md_paths]
    ws = exp.workspaces[0]
    for n in (0, 1):
        table = EventTable.from_cols(ws.events.cols[:, :n])
        path = str(tmp_path / f"run_{n}_events.md.h5")
        save_md(path, dataclasses.replace(ws, events=table))
        paths.append(path)
    return paths


def _reduce(exp, paths, cache, *, backend="vectorized", loader=begin_md,
            tracer=None):
    tracer = tracer or Tracer(label="warm-load")
    with use_tracer(tracer):
        res = compute_cross_section(
            load_run=lambda i: loader(paths[i]), n_runs=len(paths),
            grid=exp.grid, point_group=exp.point_group, flux=exp.flux,
            det_directions=exp.instrument.directions,
            solid_angles=exp.vanadium.detector_weights, backend=backend,
            cache=cache)
    return res, tracer.counters


def _bits(res):
    return [getattr(res, name).signal.view(np.int64).tobytes()
            for name in ("binmd", "mdnorm")] + [
        res.binmd.error_sq.view(np.int64).tobytes()]


def _q_nbytes(paths):
    return sum(24 * load_md(p).n_events for p in paths)


@pytest.fixture()
def runs(tiny_experiment, tmp_path):
    return _runs(tiny_experiment, tmp_path)


@pytest.fixture()
def uncached(tiny_experiment, runs):
    return _reduce(tiny_experiment, runs, DISABLED)[0]


class TestWarmLoad:
    def test_cold_warm_uncached_identical_with_empty_and_one_event_runs(
            self, tiny_experiment, runs, uncached):
        cache = GeomCache()
        cold, cold_counts = _reduce(tiny_experiment, runs, cache)
        hits = cache.stats.hits
        warm, warm_counts = _reduce(tiny_experiment, runs, cache)
        plain = _reduce(tiny_experiment, runs, GeomCache(), loader=load_md)[0]
        for res in (cold, warm, plain):
            assert _bits(res) == _bits(uncached)
        # one BinMD lookup per run, and every one of the warm pass hits
        assert cache.stats.hits - hits >= len(runs)
        assert cold_counts["nexus.q_bytes_read"] == _q_nbytes(runs)
        assert warm_counts.get("nexus.q_bytes_read", 0) == 0

    def test_warm_run_reads_only_signal_and_error_sq(self, tiny_experiment,
                                                     runs):
        cache = GeomCache()
        _reduce(tiny_experiment, runs, cache)
        cold_bytes = _reduce(tiny_experiment, runs, GeomCache())[1][
            "h5lite.bytes_read"]
        warm_bytes = _reduce(tiny_experiment, runs, cache)[1][
            "h5lite.bytes_read"]
        events = sum(load_md(p).n_events for p in runs)
        # metadata reads are the same on both passes; the event streams
        # are 40 B an event cold and 16 B warm
        assert cold_bytes - warm_bytes == 24 * events

    def test_stored_digest_is_the_in_memory_digest(self, tiny_experiment):
        grid, ops = tiny_experiment.grid, np.eye(3)[None]
        for ws, path in zip(tiny_experiment.workspaces,
                            tiny_experiment.md_paths):
            with File(path, "r") as f:
                stored = f[EVENT_COLUMNS].attrs["q_digest"]
            assert stored == digest_array(ws.events.q_rows)
            pending = begin_md(path)
            pending.start(BINMD_COLUMNS, keyed=True)
            loaded = pending.join().events
            assert loaded.q_digest == stored
            assert (binmd_cache_key(grid, ops, loaded)
                    == binmd_cache_key(grid, ops, ws.events))

    def test_element_backend_on_a_warm_cache_reads_q(self, tiny_experiment,
                                                     runs):
        """The element body bins every lane from Q: a cached entry does
        not spare its load the Q streams."""
        cache = GeomCache()
        _reduce(tiny_experiment, runs, cache)
        serial, counts = _reduce(tiny_experiment, runs, cache,
                                 backend="serial")
        ref = _reduce(tiny_experiment, runs, DISABLED, backend="serial")[0]
        assert counts["nexus.q_bytes_read"] == _q_nbytes(runs)
        assert _bits(serial) == _bits(ref)

    def test_eviction_after_the_lookup_still_reads_no_q(
            self, tiny_experiment, runs, uncached, monkeypatch):
        """The step hands BinMD the entry it found: emptying the cache
        between the load and BinMD changes nothing."""
        cache = GeomCache()
        _reduce(tiny_experiment, runs, cache)
        bin_events = cs_mod.bin_events

        def evicted_during_binmd(*args, **kwargs):
            kept = [cache.peek(key) for key in cache.keys()]
            cache.clear()
            try:
                return bin_events(*args, **kwargs)
            finally:
                for entry in kept:
                    cache.put(entry)

        monkeypatch.setattr(cs_mod, "bin_events", evicted_during_binmd)
        warm, counts = _reduce(tiny_experiment, runs, cache)
        assert counts.get("nexus.q_bytes_read", 0) == 0
        assert _bits(warm) == _bits(uncached)

    def test_unread_columns_raise(self, tiny_experiment):
        pending = begin_md(tiny_experiment.md_paths[0])
        pending.start(WEIGHT_COLUMNS)
        table = pending.join().events
        ws = tiny_experiment.workspaces[0]
        assert np.array_equal(table.signal, ws.events.signal)
        assert np.array_equal(table.error_sq, ws.events.error_sq)
        for read in (lambda: table.column(COL_QX), lambda: table.q_rows,
                     lambda: table.data, lambda: table.cols):
            with pytest.raises(UnreadColumnError):
                read()


def _flip_stream(path, name, chunk=0):
    with File(path, "r") as f:
        offset, stored, _, _ = f[f"{EVENT_COLUMNS}/{name}"]._chunk_index[chunk]
    raw = bytearray(Path(path).read_bytes())
    raw[offset + stored // 2] ^= 0x40
    Path(path).write_bytes(raw)


def _flip_stored_digest(path):
    """Change one hex digit of the stored Q digest (the header keeps its
    length, so every offset stays put)."""
    raw = Path(path).read_bytes()
    (header_len,) = struct.unpack("<Q", raw[-8:])
    header_off = len(raw) - 8 - header_len
    header = raw[header_off:-8]
    doc = json.loads(header)
    digest = (doc["root"]["children"]["MDEventWorkspace"]["children"]
              ["event_columns"]["attrs"]["q_digest"]).encode()
    assert header.count(digest) == 1
    flipped = (b"1" if digest[:1] == b"0" else b"0") + digest[1:]
    Path(path).write_bytes(
        raw[:header_off] + header.replace(digest, flipped) + raw[-8:])


class TestDamage:
    """Which damage a load catches: every byte it reads is checked, and
    bytes it does not read are not."""

    VICTIM = 1

    def _copies(self, runs, tmp_path):
        out = []
        for i, src in enumerate(runs):
            dst = str(tmp_path / f"copy_{i}.md.h5")
            shutil.copy(src, dst)
            out.append(dst)
        return out

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("name", [COLUMN_NAMES[c] for c in BINMD_COLUMNS])
    def test_flipped_consumed_stream_fails(self, tiny_experiment, runs,
                                           tmp_path, warm, name):
        cache = GeomCache()
        if warm:
            _reduce(tiny_experiment, runs, cache)
        paths = self._copies(runs, tmp_path)
        _flip_stream(paths[self.VICTIM], name)
        if warm and name not in ("signal", "error_sq"):
            # a warm load reads no Q: the flipped byte goes unread
            res, counts = _reduce(tiny_experiment, paths, cache)
            assert counts.get("nexus.q_bytes_read", 0) == 0
            assert _bits(res) == _bits(_reduce(tiny_experiment, runs,
                                               DISABLED)[0])
            return
        with pytest.raises(CorruptFileError, match="checksum"):
            _reduce(tiny_experiment, paths, cache)

    @pytest.mark.parametrize("warm", [False, True])
    def test_flipped_stored_digest_fails(self, tiny_experiment, runs,
                                         tmp_path, warm):
        """Cold, the Q rows read disagree with the digest; warm, the
        digest keys no entry, so the load reads Q and disagrees too."""
        cache = GeomCache()
        if warm:
            _reduce(tiny_experiment, runs, cache)
        paths = self._copies(runs, tmp_path)
        _flip_stored_digest(paths[self.VICTIM])
        with pytest.raises(CorruptFileError, match="stored digest"):
            _reduce(tiny_experiment, paths, cache)
        # load_md keys nothing from the digest, so it does not check it
        assert load_md(paths[self.VICTIM]).events.q_digest is None

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("name", ["run_index", "detector_id",
                                      "goniometer_index"])
    def test_flipped_unread_stream_goes_unchecked(
            self, tiny_experiment, runs, uncached, tmp_path, warm, name):
        """The reduction never reads these three columns, so it neither
        checks nor uses their bytes; ``load_md`` reads all eight and
        still fails."""
        cache = GeomCache()
        if warm:
            _reduce(tiny_experiment, runs, cache)
        paths = self._copies(runs, tmp_path)
        _flip_stream(paths[self.VICTIM], name)
        res = _reduce(tiny_experiment, paths, cache)[0]
        assert _bits(res) == _bits(uncached)
        with pytest.raises(CorruptFileError, match="checksum"):
            load_md(paths[self.VICTIM])
