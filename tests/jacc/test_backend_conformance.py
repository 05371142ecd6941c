"""Cross-back-end conformance matrix (ISSUE 5 satellite a).

One parameterized suite run against **every registered back end** —
the matrix rows come from :func:`repro.jacc.available_backends` at
collection time, so a future back end (CUDA bindings, a JIT engine,
...) registers into the matrix automatically just by calling
``register_backend``; ``test_future_backends_auto_register`` proves
that property by temporarily registering a probe back end and watching
the same oracle checks run against it.

Columns: {parallel_for (1-D, 2-D), parallel_reduce (+ / max / min),
atomic Hist3 accumulation} × 50 seeds, asserted against the serial
oracle.

The determinism contract (DESIGN.md §6f):

* disjoint writes (``parallel_for``) — bit-identical on every back end
  (no accumulation, no fold order);
* histogram deposits, integer-valued or float weights — bit-identical
  to serial on every back end: each one's per-bin adds follow the
  serial deposit order (threads applies its chunks' deposit logs in
  chunk order, the vectorized body scatters in element order);
* reductions — ``max``/``min`` are associative ⇒ exactly equal on
  every CPU back end; ``+`` is exactly equal for integer-valued
  elements and deterministic run to run for floats; the device back
  end rejects ``max``/``min`` (the JACC.jl limitation the paper
  documents).
"""

import numpy as np
import pytest

from repro.core.grid import HKLGrid
from repro.core.hist3 import Hist3
from repro.jacc import (
    BackendError,
    Kernel,
    available_backends,
    get_backend,
    parallel_for,
    parallel_reduce,
)
from repro.jacc.backend import _REGISTRY, Backend, register_backend
from repro.jacc.kernels import make_captures
from repro.jacc.serial import SerialBackend

N_SEEDS = 50

#: the matrix rows: every back end registered at collection time
BACKENDS = tuple(available_backends())


def _cpu_backends():
    return tuple(n for n in BACKENDS if get_backend(n).device_kind != "device")


def _device_backends():
    return tuple(n for n in BACKENDS if get_backend(n).device_kind == "device")


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def _saxpy_element(ctx, i):
    ctx.out[i] = ctx.a * ctx.x[i] + ctx.y[i]


def _saxpy_batch(ctx, dims):
    ctx.out[...] = ctx.a * ctx.x + ctx.y


SAXPY = Kernel(name="conform_saxpy", element=_saxpy_element, batch=_saxpy_batch)


def _pair_element(ctx, n, i):
    ctx.out[n, i] = ctx.scales[n] * ctx.x[i] + float(n - i)


def _pair_batch(ctx, dims):
    n_ops, n = dims
    grid_n, grid_i = np.meshgrid(
        np.arange(n_ops, dtype=np.float64),
        np.arange(n, dtype=np.float64),
        indexing="ij",
    )
    ctx.out[...] = ctx.scales[:, None] * ctx.x[None, :] + (grid_n - grid_i)


PAIR = Kernel(name="conform_pair", element=_pair_element, batch=_pair_batch)


def _sum_sq_element(ctx, i):
    return float(ctx.x[i] * ctx.x[i])


def _sum_sq_batch(ctx, dims):
    return ctx.x * ctx.x


SUM_SQ = Kernel(name="conform_sum_sq", element=_sum_sq_element,
                batch=_sum_sq_batch)


def _value_element(ctx, i):
    return float(ctx.x[i])


def _value_batch(ctx, dims):
    return ctx.x


VALUE = Kernel(name="conform_value", element=_value_element,
               batch=_value_batch)


def _hist_element(ctx, i):
    w = ctx.w[i]
    ctx.hist.push(ctx.c0[i], ctx.c1[i], ctx.c2[i], w, w * w)


def _hist_batch(ctx, dims):
    coords = np.stack([ctx.c0, ctx.c1, ctx.c2], axis=1)
    ctx.hist.push_many(coords, ctx.w, ctx.w * ctx.w, scatter_impl="atomic")


HIST = Kernel(name="conform_hist", element=_hist_element, batch=_hist_batch)

GRID = HKLGrid(basis=np.eye(3), minimum=(-2.0, -2.0, -1.0),
               maximum=(2.0, 2.0, 1.0), bins=(5, 5, 2))


def _sizes(seed):
    """Vary the extent across seeds: exercise the chunk-grid edge cases
    (fewer items than chunks, exact multiples, remainders, singletons)."""
    return 1 + (seed * 13) % 97


def _hist_samples(seed, *, integer_weights):
    rng = np.random.default_rng(8000 + seed)
    n = 20 + (seed * 11) % 180
    # ~15% of the coordinates land outside the grid: rejection is part
    # of the conformance surface
    coords = rng.uniform(-2.4, 2.4, size=(n, 3))
    coords[:, 2] = rng.uniform(-1.2, 1.2, size=n)
    if integer_weights:
        w = rng.integers(1, 7, size=n).astype(np.float64)
    else:
        w = rng.uniform(0.1, 2.0, size=n)
    return coords, w


def _edge_samples(seed):
    """Adversarial coordinates: on every kind of bin edge (upper
    boundary included) and a few ulps either side of it, with integer
    weights so any back end must match the oracle bit for bit.  These
    are the points where flooring the exact quotient (Python's ``//``)
    and flooring the rounded one (``np.floor(x / w)``) part ways.  Every
    seed also mixes in points exactly at ``minimum`` / ``maximum`` and
    non-finite or huge coordinates (NaN, +-inf, +-1e300), all of which
    but ``minimum`` lie outside under both binning functions."""
    rng = np.random.default_rng(9000 + seed)
    n = 40 + (seed * 7) % 120
    edge = rng.integers(0, np.array(GRID.bins) + 1, size=(n, 3))
    coords = np.array(GRID.minimum) + edge * GRID.widths
    coords += rng.integers(-3, 4, size=(n, 3)) * np.spacing(coords)
    special = (np.nan, np.inf, -np.inf, 1e300, -1e300)
    extra = np.array([GRID.minimum, GRID.maximum] + [GRID.minimum] * len(special))
    extra[2:, seed % 3] = special
    coords = rng.permutation(np.concatenate([coords, extra]))
    w = rng.integers(1, 7, size=len(coords)).astype(np.float64)
    return coords, w


# ---------------------------------------------------------------------------
# parallel_for
# ---------------------------------------------------------------------------

class TestParallelForMatrix:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_1d_disjoint_writes_bit_identical(self, backend):
        for seed in range(N_SEEDS):
            rng = np.random.default_rng(seed)
            n = _sizes(seed)
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            oracle = np.zeros(n)
            parallel_for(n, SAXPY, make_captures(a=1.7, x=x, y=y, out=oracle),
                         backend="serial")
            out = np.zeros(n)
            parallel_for(n, SAXPY, make_captures(a=1.7, x=x, y=y, out=out),
                         backend=backend)
            assert np.array_equal(out, oracle), (backend, seed)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_2d_index_space_bit_identical(self, backend):
        for seed in range(N_SEEDS):
            rng = np.random.default_rng(1000 + seed)
            n_ops = 1 + seed % 5
            n = 1 + (seed * 7) % 23
            x = rng.standard_normal(n)
            scales = rng.standard_normal(n_ops)
            oracle = np.zeros((n_ops, n))
            parallel_for((n_ops, n), PAIR,
                         make_captures(x=x, scales=scales, out=oracle),
                         backend="serial")
            out = np.zeros((n_ops, n))
            parallel_for((n_ops, n), PAIR,
                         make_captures(x=x, scales=scales, out=out),
                         backend=backend)
            assert np.array_equal(out, oracle), (backend, seed)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_zero_extent_noop(self, backend):
        out = np.ones(3)
        parallel_for(0, SAXPY,
                     make_captures(a=1.0, x=np.ones(0), y=np.ones(0), out=out),
                     backend=backend)
        assert np.array_equal(out, np.ones(3))


# ---------------------------------------------------------------------------
# atomic Hist3 accumulation
# ---------------------------------------------------------------------------

class TestHistogramMatrix:
    def _fill(self, backend, coords, w, *, track_errors=True):
        hist = Hist3(GRID, track_errors=track_errors)
        parallel_for(
            len(w), HIST,
            make_captures(hist=hist, c0=coords[:, 0].copy(),
                          c1=coords[:, 1].copy(), c2=coords[:, 2].copy(),
                          w=w.copy()),
            backend=backend,
        )
        return hist

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_integer_weights_bit_identical_everywhere(self, backend):
        """Integer adds are exact under any association: every back end
        must reproduce the serial histogram bit for bit."""
        for seed in range(N_SEEDS):
            coords, w = _hist_samples(seed, integer_weights=True)
            oracle = self._fill("serial", coords, w)
            got = self._fill(backend, coords, w)
            assert np.array_equal(got.signal, oracle.signal), (backend, seed)
            assert np.array_equal(got.error_sq, oracle.error_sq), (backend, seed)
            assert got.signal.sum() > 0  # the samples actually deposit

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_float_weights(self, backend, fine_gil_switching):
        """Float adds depend on their order, and every back end adds to
        each bin in the serial order: bit-identical, also with the GIL
        handed between the threads back end's workers every 50 us."""
        for seed in range(N_SEEDS):
            coords, w = _hist_samples(seed, integer_weights=False)
            oracle = self._fill("serial", coords, w)
            got = self._fill(backend, coords, w)
            for name in ("signal", "error_sq"):
                a = getattr(got, name).view(np.int64)
                b = getattr(oracle, name).view(np.int64)
                assert np.array_equal(a, b), (backend, seed, name)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bin_edge_points_bit_identical_everywhere(self, backend):
        """One binning rule: points on and next to bin edges land in the
        same bins under the scalar and the batch bodies."""
        for seed in range(N_SEEDS):
            coords, w = _edge_samples(seed)
            oracle = self._fill("serial", coords, w)
            got = self._fill(backend, coords, w)
            assert np.array_equal(got.signal, oracle.signal), (backend, seed)
            assert np.array_equal(got.error_sq, oracle.error_sq), (backend, seed)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_untracked_errors(self, backend):
        coords, w = _hist_samples(3, integer_weights=True)
        oracle = self._fill("serial", coords, w, track_errors=False)
        got = self._fill(backend, coords, w, track_errors=False)
        assert got.error_sq is None
        assert np.array_equal(got.signal, oracle.signal)


# ---------------------------------------------------------------------------
# parallel_reduce
# ---------------------------------------------------------------------------

class TestReduceMatrix:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sum_integer_valued_exact(self, backend):
        """Integer-valued sums are exact under any association ⇒ every
        back end equals the serial oracle exactly."""
        for seed in range(N_SEEDS):
            rng = np.random.default_rng(2000 + seed)
            n = _sizes(seed)
            x = rng.integers(-50, 50, size=n).astype(np.float64)
            oracle = parallel_reduce(n, SUM_SQ, make_captures(x=x),
                                     backend="serial")
            got = parallel_reduce(n, SUM_SQ, make_captures(x=x),
                                  backend=backend)
            assert got == oracle, (backend, seed)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sum_float_deterministic_and_close(self, backend):
        """Float sums may re-associate, but must be (a) within
        tolerance of the oracle and (b) bit-identical run to run."""
        for seed in range(0, N_SEEDS, 5):
            rng = np.random.default_rng(3000 + seed)
            n = _sizes(seed)
            x = rng.standard_normal(n)
            oracle = parallel_reduce(n, SUM_SQ, make_captures(x=x),
                                     backend="serial")
            first = parallel_reduce(n, SUM_SQ, make_captures(x=x),
                                    backend=backend)
            again = parallel_reduce(n, SUM_SQ, make_captures(x=x),
                                    backend=backend)
            assert first == again, (backend, seed)
            assert first == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("backend", _cpu_backends())
    @pytest.mark.parametrize("op", ("max", "min"))
    def test_max_min_bit_identical_on_cpu(self, backend, op):
        """max/min are exactly associative: any combine tree equals the
        serial fold bit for bit."""
        for seed in range(N_SEEDS):
            rng = np.random.default_rng(4000 + seed)
            n = _sizes(seed)
            x = rng.standard_normal(n) * 10.0
            oracle = parallel_reduce(n, VALUE, make_captures(x=x), op=op,
                                     backend="serial")
            got = parallel_reduce(n, VALUE, make_captures(x=x), op=op,
                                  backend=backend)
            assert got == oracle, (backend, op, seed)
            ref = max(x) if op == "max" else min(x)
            assert got == ref

    @pytest.mark.parametrize("backend", _device_backends())
    @pytest.mark.parametrize("op", ("max", "min"))
    def test_device_rejects_custom_ops(self, backend, op):
        """The JACC.jl limitation the paper documents, pinned for every
        device-kind back end present and future."""
        with pytest.raises(BackendError, match="only op='\\+'"):
            parallel_reduce(4, SUM_SQ, make_captures(x=np.ones(4)), op=op,
                            backend=backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_reduce_is_identity(self, backend):
        got = parallel_reduce(0, SUM_SQ, make_captures(x=np.ones(0)),
                              backend=backend)
        assert got == 0.0


# ---------------------------------------------------------------------------
# auto-registration: future back ends inherit the matrix
# ---------------------------------------------------------------------------

class _ProbeBackend(SerialBackend):
    """A stand-in 'future' back end: serial semantics, new name."""

    name = "conformance-probe"
    device_kind = "cpu"


def test_future_backends_auto_register():
    """Registering a back end is sufficient to put it in the matrix:
    the row list is derived from the registry, and the oracle checks
    pass against the probe without this file changing."""
    assert set(BACKENDS) <= set(available_backends())
    probe = _ProbeBackend()
    register_backend(probe)
    try:
        rows = available_backends()
        assert "conformance-probe" in rows
        # the probe passes the same oracle checks the matrix applies
        coords, w = _hist_samples(1, integer_weights=True)
        oracle = Hist3(GRID, track_errors=True)
        got = Hist3(GRID, track_errors=True)
        for name, hist in (("serial", oracle), ("conformance-probe", got)):
            parallel_for(
                len(w), HIST,
                make_captures(hist=hist, c0=coords[:, 0].copy(),
                              c1=coords[:, 1].copy(),
                              c2=coords[:, 2].copy(), w=w.copy()),
                backend=name,
            )
        assert np.array_equal(got.signal, oracle.signal)
        assert parallel_reduce(
            8, SUM_SQ, make_captures(x=np.arange(8.0)),
            backend="conformance-probe",
        ) == parallel_reduce(8, SUM_SQ, make_captures(x=np.arange(8.0)),
                             backend="serial")
    finally:
        _REGISTRY.pop("conformance-probe", None)


def test_matrix_covers_all_expected_backends():
    """The matrix rows are exactly the three engines: serial (the
    oracle), threads (JACC's Threads) and vectorized (the stand-in for
    its CUDA/AMDGPU back ends)."""
    assert set(BACKENDS) == {"serial", "threads", "vectorized"}
    for name in BACKENDS:
        assert isinstance(get_backend(name), Backend)


def test_registry_completeness():
    """Every ``register_backend()`` back end is a matrix row, so each one
    is held to the strict serial oracle."""
    registry = set(available_backends())
    assert set(BACKENDS) == registry, (
        "matrix rows diverged from the backend registry; "
        f"matrix={sorted(BACKENDS)} registry={sorted(registry)}"
    )
