"""Crash-safety of the write-then-rename / sentinel primitives."""

import os

import pytest

from repro.util import atomic_io


class TestAtomicWriter:
    def test_publishes_on_success(self, tmp_path):
        target = tmp_path / "out.bin"
        with atomic_io.atomic_writer(target) as fh:
            fh.write(b"payload")
        assert target.read_bytes() == b"payload"

    def test_failure_leaves_target_untouched(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with atomic_io.atomic_writer(target) as fh:
                fh.write(b"half-written new")
                raise RuntimeError("killed mid-write")
        assert target.read_bytes() == b"old"

    def test_no_temp_droppings(self, tmp_path):
        target = tmp_path / "out.bin"
        with pytest.raises(RuntimeError):
            with atomic_io.atomic_writer(target) as fh:
                fh.write(b"x")
                raise RuntimeError
        with atomic_io.atomic_writer(target) as fh:
            fh.write(b"y")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]

    def test_replaces_existing(self, tmp_path):
        target = tmp_path / "out.bin"
        atomic_io.atomic_write_bytes(target, b"v1")
        atomic_io.atomic_write_bytes(target, b"v2")
        assert target.read_bytes() == b"v2"

    def test_text_helper(self, tmp_path):
        target = tmp_path / "note.txt"
        atomic_io.atomic_write_text(target, "héllo")
        assert target.read_text(encoding="utf-8") == "héllo"


class TestAtomicPath:
    def test_path_writer_published(self, tmp_path):
        target = tmp_path / "file.h5"
        with atomic_io.atomic_path(target) as tmp:
            assert os.path.dirname(tmp) == str(tmp_path)  # same-FS rename
            with open(tmp, "wb") as fh:
                fh.write(b"data")
        assert target.read_bytes() == b"data"

    def test_path_writer_fsyncs_before_rename(self, tmp_path, monkeypatch):
        """The payload is durable before its name becomes visible."""
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", os.stat(src).st_ino))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        target = tmp_path / "file.h5"
        with atomic_io.atomic_path(target) as tmp:
            with open(tmp, "wb") as fh:
                fh.write(b"data")
        # the temporary itself was synced, then renamed
        assert [c[0] for c in calls] == ["fsync", "replace"]
        assert calls[0][1] == calls[1][1]
        assert target.read_bytes() == b"data"

    def test_path_writer_failure_cleans_up(self, tmp_path):
        target = tmp_path / "file.h5"
        with pytest.raises(RuntimeError):
            with atomic_io.atomic_path(target) as tmp:
                with open(tmp, "wb") as fh:
                    fh.write(b"data")
                raise RuntimeError("crash before rename")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []


class TestCompletionSentinel:
    def test_lifecycle(self, tmp_path):
        assert not atomic_io.is_complete(tmp_path)
        marker = atomic_io.mark_complete(tmp_path, "3 files")
        assert atomic_io.is_complete(tmp_path)
        assert marker.read_text() == "3 files\n"

    def test_sentinel_name(self, tmp_path):
        assert atomic_io.sentinel_path(tmp_path).name == \
            atomic_io.COMPLETE_MARKER
