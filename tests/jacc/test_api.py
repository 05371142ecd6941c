"""Unit tests for the module-level jacc API surface."""

import numpy as np
import pytest

import repro.jacc.api as api
from repro.jacc import Kernel, available_backends, parallel_for
from repro.jacc.kernels import make_captures


@pytest.fixture()
def reset_default():
    original = api._default
    yield
    api._default = original


class TestDefaultBackend:
    def test_env_variable_selects_default(self, monkeypatch, reset_default):
        api._default = None
        monkeypatch.setenv("REPRO_JACC_BACKEND", "serial")
        assert api.default_backend().name == "serial"

    def test_fallback_is_vectorized(self, monkeypatch, reset_default):
        """Unset, the default runs the batch bodies — the ones every
        shard, out-of-core and stealing run executes."""
        api._default = None
        monkeypatch.delenv("REPRO_JACC_BACKEND", raising=False)
        assert api.default_backend().name == "vectorized"

    def test_invalid_env_raises_lazily(self, monkeypatch, reset_default):
        api._default = None
        monkeypatch.setenv("REPRO_JACC_BACKEND", "quantum")
        with pytest.raises(Exception):
            api.default_backend()

    def test_set_default_returns_backend(self, reset_default):
        be = api.set_default_backend("vectorized")
        assert be.name == "vectorized"
        assert api.default_backend() is be


class TestDispatch:
    def test_parallel_for_uses_default(self, reset_default):
        api.set_default_backend("serial")
        out = np.zeros(4)
        k = Kernel(name="test_api_default",
                   element=lambda ctx, i: ctx.out.__setitem__(i, 1.0))
        parallel_for(4, k, make_captures(out=out))
        assert out.sum() == 4.0

    def test_explicit_backend_overrides_default(self, reset_default):
        api.set_default_backend("serial")
        k = Kernel(
            name="test_api_override",
            element=lambda ctx, i: None,
            batch=lambda ctx, dims: ctx.flag.__setitem__(0, 1.0),
        )
        flag = np.zeros(1)
        parallel_for(1, k, make_captures(flag=flag), backend="vectorized")
        assert flag[0] == 1.0  # batch body ran -> device back end was used

    def test_available_backends_sorted(self):
        names = available_backends()
        assert names == sorted(names)
