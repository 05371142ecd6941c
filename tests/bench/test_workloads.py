"""Unit tests for the benchmark workload builder and its cache."""

import numpy as np
import pytest

from repro.bench.workloads import (
    WorkloadSpec,
    _spec_digest,
    benzil_corelli,
    bixbyite_topaz,
    build_workload,
)


class TestSpecs:
    def test_benzil_paper_parameters(self):
        spec = benzil_corelli(scale=0.001)
        assert spec.paper.files == 36
        assert spec.paper.symmetry_ops == 6
        assert spec.paper.events == 40_000_000
        assert spec.paper.detectors == 372_000
        assert spec.paper.bins == (603, 603, 1)

    def test_bixbyite_paper_parameters(self):
        spec = bixbyite_topaz(scale=0.001)
        assert spec.paper.files == 22
        assert spec.paper.symmetry_ops == 24
        assert spec.paper.events == 280_000_000
        assert spec.paper.detectors == 1_600_000

    def test_scaling_applied(self):
        spec = benzil_corelli(scale=0.001, n_files=4)
        assert spec.n_files == 4
        assert spec.n_events_total == 40_000
        assert spec.n_detectors == 372

    def test_env_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.0001")
        spec = benzil_corelli()
        assert spec.scale == 0.0001

    def test_env_files_cap(self, monkeypatch):
        monkeypatch.setenv("REPRO_FILES", "3")
        assert benzil_corelli().n_files == 3

    def test_files_never_exceed_paper(self, monkeypatch):
        monkeypatch.setenv("REPRO_FILES", "500")
        assert benzil_corelli().n_files == 36

    def test_describe_mentions_both_scales(self):
        text = benzil_corelli(scale=0.001, n_files=2).describe()
        assert "4.00e+07" in text and "4.00e+04" in text

    def test_digest_changes_with_parameters(self):
        a = benzil_corelli(scale=0.001, n_files=2)
        b = benzil_corelli(scale=0.002, n_files=2)
        assert _spec_digest(a) != _spec_digest(b)
        assert _spec_digest(a) == _spec_digest(benzil_corelli(scale=0.001, n_files=2))

    def test_chunked_digest_keys_on_the_column_layout(self):
        """A cache directory written in an older SaveMD layout is never
        read as the current one (a stream per column, the Q digest in
        the header, the run metadata in one record): both digests moved
        with it."""
        plain = benzil_corelli(scale=0.001, n_files=2)
        chunked = benzil_corelli(scale=0.001, n_files=2, chunk_events=500)
        assert _spec_digest(plain) == "b3912885eea4ddc4"
        # the digests these specs had in the older layouts: contiguous
        # (8, n) payloads, row-major chunks, column chunks without a
        # digest, and the metadata in five datasets
        assert _spec_digest(plain) not in ("0054e0f6b4b6e704",
                                           "0b4310f40a8473fa")
        assert _spec_digest(chunked) not in ("b98ae45c9e48a34d",
                                             "7e379b5db843db81",
                                             "e0bcc790335a4b07")
        assert _spec_digest(chunked) != _spec_digest(plain)


class TestBuild:
    @pytest.fixture()
    def built(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DATA", str(tmp_path))
        spec = benzil_corelli(scale=0.0002, n_files=2)
        return build_workload(spec), spec

    def test_files_created(self, built):
        data, spec = built
        assert len(data.md_paths) == 2
        assert len(data.nexus_paths) == 2
        assert data.total_bytes > 0
        assert (data.directory / "COMPLETE").exists()

    def test_point_group_matches_paper(self, built):
        data, spec = built
        assert data.point_group.order == spec.paper.symmetry_ops

    def test_cache_reused(self, built, tmp_path, monkeypatch):
        data, spec = built
        marker = data.directory / "COMPLETE"
        first_mtime = marker.stat().st_mtime_ns
        again = build_workload(spec)
        assert marker.stat().st_mtime_ns == first_mtime
        assert again.directory == data.directory

    def test_runs_are_loadable_and_distinct(self, built):
        from repro.core.md_event_workspace import load_md

        data, _ = built
        a = load_md(data.md_paths[0])
        b = load_md(data.md_paths[1])
        assert a.n_events > 0
        assert not np.allclose(a.goniometer, b.goniometer)
