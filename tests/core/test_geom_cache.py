"""Geometry/flux cache: unit tests + backend-equivalence properties.

Two layers of guarantees are enforced here:

1. **cache mechanics** — LRU byte budget, hit/miss/eviction counters,
   tag invalidation, content-digest keys (calibration or lattice change
   produces a different key, so stale reuse is impossible);
2. **bit-identity** — randomized property cases (50 seeds, cycling
   through the serial/threads/vectorized back ends) asserting that a
   cached reduction reproduces the uncached one *exactly*, cold and
   warm, for both MDNorm and BinMD, plus the documented cross-backend
   tolerance with the cache enabled.
"""

import numpy as np
import pytest

from repro.core import geom_cache as gc
from repro.core.binmd import bin_events
from repro.core.geom_cache import (
    DISABLED,
    FluxEntry,
    GeomCache,
    NullCache,
    default_cache,
    digest_array,
    freeze,
    set_default_cache,
)
from repro.core.grid import HKLGrid
from repro.core.hist3 import Hist3
from repro.core.mdnorm import _Scratch, mdnorm, prefetch_geometry
from repro.nexus.corrections import FluxSpectrum
from repro.nexus.events import (
    COL_ERROR_SQ,
    COL_QX,
    COL_QY,
    COL_QZ,
    COL_SIGNAL,
    EventTable,
)

BACKENDS = ("serial", "threads", "vectorized")

#: the back ends the bit-identity properties rotate through: threads
#: deposits in a run-dependent order (ORDER_RELAXED in the conformance
#: matrix), so cached == uncached cannot hold bit for bit there
ORDER_EXACT_BACKENDS = tuple(b for b in BACKENDS if b != "threads")


# ---------------------------------------------------------------------------
# randomized case generation (deterministic per seed)
# ---------------------------------------------------------------------------

def _random_rotations(rng, n):
    ops = []
    for _ in range(n):
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q *= np.sign(np.diag(r))  # deterministic orientation
        ops.append(q)
    return np.stack(ops)


def _random_case(seed):
    rng = np.random.default_rng(seed)
    n_det = int(rng.integers(8, 40))
    n_ops = int(rng.integers(1, 4))
    dets = rng.normal(size=(n_det, 3))
    dets /= np.linalg.norm(dets, axis=1, keepdims=True)
    transforms = _random_rotations(rng, n_ops)
    grid = HKLGrid(
        basis=np.eye(3),
        minimum=(-2.0 - rng.random(), -2.0, -0.5),
        maximum=(2.0, 2.0 + rng.random(), 0.5),
        bins=(int(rng.integers(6, 20)), int(rng.integers(6, 20)), 1),
    )
    k = np.linspace(0.8, 10.0, 48)
    flux = FluxSpectrum(momentum=k, density=0.5 + rng.random(48))
    band = (1.0 + rng.random(), 6.0 + 3.0 * rng.random())
    solid = rng.random(n_det)
    charge = float(0.5 + rng.random())
    return grid, transforms, dets, solid, flux, band, charge


def _random_events(seed, n_events=300):
    rng = np.random.default_rng(10_000 + seed)
    data = np.zeros((n_events, 8), dtype=np.float64)
    data[:, COL_QX] = rng.uniform(-3.0, 3.0, n_events)
    data[:, COL_QY] = rng.uniform(-3.0, 3.0, n_events)
    data[:, COL_QZ] = rng.uniform(-0.8, 0.8, n_events)
    data[:, COL_SIGNAL] = rng.random(n_events)
    data[:, COL_ERROR_SQ] = rng.random(n_events)
    return data


def _flux_entry(key, nbytes, tag=None):
    """A cache entry of an exact byte size (for LRU accounting tests)."""
    n = max(nbytes // 16, 1)
    arr = np.zeros(n, dtype=np.float64)
    return FluxEntry(key=("flux-table", key), tag=tag,
                     momentum=arr, cumulative=arr.copy())


# ---------------------------------------------------------------------------
# cache mechanics
# ---------------------------------------------------------------------------

class TestDigestsAndKeys:
    def test_digest_sensitive_to_content(self):
        a = np.arange(10.0)
        b = a.copy()
        assert digest_array(a) == digest_array(b)
        b[3] += 1e-12
        assert digest_array(a) != digest_array(b)

    def test_digest_sensitive_to_dtype_and_shape(self):
        a = np.zeros(8, dtype=np.float64)
        assert digest_array(a) != digest_array(a.astype(np.float32))
        assert digest_array(a) != digest_array(a.reshape(2, 4))

    def test_calibration_change_changes_geometry_key(self):
        grid, transforms, dets, solid, flux, band, _ = _random_case(0)
        key = GeomCache.geometry_key(grid, transforms, dets, band, solid, flux)
        mutated = solid.copy()
        mutated[0] *= 1.0000001
        key2 = GeomCache.geometry_key(grid, transforms, dets, band, mutated, flux)
        assert key != key2

    def test_lattice_change_changes_geometry_key(self):
        grid, transforms, dets, solid, flux, band, _ = _random_case(1)
        key = GeomCache.geometry_key(grid, transforms, dets, band, solid, flux)
        rotated = transforms.copy()
        rotated[0] = -rotated[0]
        key2 = GeomCache.geometry_key(grid, rotated, dets, band, solid, flux)
        assert key != key2

    def test_backend_is_not_part_of_the_key(self):
        """Keys are content digests only — one entry serves all back ends."""
        grid, transforms, dets, solid, flux, band, _ = _random_case(2)
        keys = {
            GeomCache.geometry_key(grid, transforms, dets, band, solid, flux)
            for _ in BACKENDS
        }
        assert len(keys) == 1

    def test_freeze_is_read_only(self):
        arr = freeze(np.arange(4.0))
        with pytest.raises(ValueError):
            arr[0] = 1.0


class TestLRU:
    def test_hit_miss_counters(self):
        cache = GeomCache(byte_budget=1 << 20)
        e = _flux_entry("a", 256)
        assert cache.get(e.key) is None
        assert cache.stats.misses == 1
        assert cache.put(e)
        assert cache.get(e.key) is e
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_byte_accounting(self):
        cache = GeomCache(byte_budget=1 << 20)
        e = _flux_entry("a", 1024)
        cache.put(e)
        assert cache.current_bytes == e.nbytes
        cache.put(_flux_entry("a", 2048))  # replace same key
        assert len(cache) == 1
        assert cache.current_bytes != e.nbytes

    def test_eviction_is_lru_ordered(self):
        cache = GeomCache(byte_budget=3000)
        a, b, c = (_flux_entry(k, 1000) for k in "abc")
        for e in (a, b, c):
            cache.put(e)
        cache.get(a.key)  # touch a: b is now least recent
        cache.put(_flux_entry("d", 1000))
        assert a.key in cache
        assert b.key not in cache
        assert cache.stats.evictions == 1
        assert cache.current_bytes <= cache.byte_budget

    def test_oversize_entry_skipped(self):
        cache = GeomCache(byte_budget=128)
        assert not cache.put(_flux_entry("big", 100_000))
        assert cache.stats.oversize_skips == 1
        assert len(cache) == 0
        assert not cache.accepts(100_000)
        assert cache.accepts(16)

    def test_invalidate_by_tag(self):
        cache = GeomCache(byte_budget=1 << 20)
        cache.put(_flux_entry("a", 256, tag="run:0"))
        cache.put(_flux_entry("b", 256, tag="run:1"))
        cache.put(_flux_entry("c", 256, tag="run:0"))
        assert cache.invalidate("run:0") == 2
        assert len(cache) == 1
        assert cache.stats.invalidations == 2

    def test_clear(self):
        cache = GeomCache(byte_budget=1 << 20)
        cache.put(_flux_entry("a", 256))
        cache.clear()
        assert len(cache) == 0
        assert cache.current_bytes == 0

    def test_note_update_reaccounts_growth(self):
        cache = GeomCache(byte_budget=1 << 20)
        e = _flux_entry("a", 256)
        cache.put(e)
        before = cache.current_bytes
        e.cumulative = np.zeros(1024, dtype=np.float64)  # entry grew in place
        assert cache.note_update(e)
        assert cache.current_bytes > before
        assert cache.stats.updates == 1

    def test_null_cache_never_stores(self):
        null = NullCache()
        assert not null.enabled
        e = _flux_entry("a", 16)
        assert not null.put(e)
        assert null.get(e.key) is None
        assert not null.accepts(1)

    def test_default_cache_swap_and_restore(self):
        original = default_cache()
        try:
            mine = GeomCache(byte_budget=4096)
            assert set_default_cache(mine) is mine
            assert gc.resolve(None) is mine
            assert gc.resolve(DISABLED) is DISABLED
        finally:
            set_default_cache(original)
        assert default_cache() is original


class TestFluxTable:
    def test_second_lookup_hits(self):
        _, _, _, _, flux, _, _ = _random_case(3)
        cache = GeomCache(byte_budget=1 << 20)
        k1, c1 = cache.flux_table(flux)
        k2, c2 = cache.flux_table(flux)
        assert k1 is k2 and c1 is c2
        assert cache.stats.hits == 1
        assert not k1.flags.writeable
        assert np.array_equal(k1, flux.momentum)
        assert np.array_equal(c1, flux._cumulative)

    def test_disabled_passthrough(self):
        _, _, _, _, flux, _, _ = _random_case(4)
        k, c = DISABLED.flux_table(flux)
        assert np.array_equal(k, flux.momentum)
        assert np.array_equal(c, flux._cumulative)


# ---------------------------------------------------------------------------
# backend-equivalence property tests (the ISSUE's >= 50 randomized cases)
# ---------------------------------------------------------------------------

class TestMdnormCachedEqualsUncached:
    @pytest.mark.parametrize("seed", range(50))
    def test_cold_and_warm_match_uncached_exactly(self, seed):
        """Cached (cold insert and warm replay) == uncached, bit for bit,
        on the back end this seed exercises."""
        grid, transforms, dets, solid, flux, band, charge = _random_case(seed)
        backend = ORDER_EXACT_BACKENDS[seed % len(ORDER_EXACT_BACKENDS)]

        ref = Hist3(grid)
        mdnorm(ref, transforms, dets, solid, flux, band, charge=charge,
               backend=backend, cache=DISABLED)

        cache = GeomCache()
        cold = Hist3(grid)
        mdnorm(cold, transforms, dets, solid, flux, band, charge=charge,
               backend=backend, cache=cache)
        warm = Hist3(grid)
        mdnorm(warm, transforms, dets, solid, flux, band, charge=charge,
               backend=backend, cache=cache)

        assert np.array_equal(cold.signal, ref.signal)
        assert np.array_equal(warm.signal, ref.signal)
        assert cache.stats.misses > 0
        assert cache.stats.hits > 0

    @pytest.mark.parametrize("seed", range(0, 50, 5))
    def test_serial_vectorized_within_tolerance_with_cache(self, seed):
        """Documented cross-backend tolerance holds with caching on
        (shared cache: backend-agnostic keys serve both back ends)."""
        grid, transforms, dets, solid, flux, band, charge = _random_case(seed)
        cache = GeomCache()
        results = {}
        for backend in ("serial", "vectorized"):
            h = Hist3(grid)
            mdnorm(h, transforms, dets, solid, flux, band, charge=charge,
                   backend=backend, cache=cache)
            results[backend] = h.signal
        assert np.allclose(results["serial"], results["vectorized"],
                           rtol=1e-10, atol=1e-15)
        # the second back end reused the first's geometry entry
        assert cache.stats.hits > 0

    def test_charge_reuses_charge_independent_plan(self):
        """The deposit plan is charge-independent: a warm call at a new
        charge still matches its own uncached reduction exactly."""
        grid, transforms, dets, solid, flux, band, _ = _random_case(7)
        cache = GeomCache()
        warmup = Hist3(grid)
        mdnorm(warmup, transforms, dets, solid, flux, band, charge=1.0,
               backend="vectorized", cache=cache)
        for charge in (0.25, 3.5):
            ref = Hist3(grid)
            mdnorm(ref, transforms, dets, solid, flux, band, charge=charge,
                   backend="vectorized", cache=DISABLED)
            warm = Hist3(grid)
            mdnorm(warm, transforms, dets, solid, flux, band, charge=charge,
                   backend="vectorized", cache=cache)
            assert np.array_equal(warm.signal, ref.signal)

    def test_zero_charge_safe_with_cache(self):
        grid, transforms, dets, solid, flux, band, _ = _random_case(8)
        cache = GeomCache()
        for _ in range(2):
            h = Hist3(grid)
            mdnorm(h, transforms, dets, solid, flux, band, charge=0.0,
                   backend="vectorized", cache=cache)
            assert h.total() == 0.0

    def test_explicit_width_bypasses_plan_but_stays_exact(self):
        grid, transforms, dets, solid, flux, band, charge = _random_case(9)
        ref = Hist3(grid)
        mdnorm(ref, transforms, dets, solid, flux, band, charge=charge,
               backend="vectorized", cache=DISABLED, width=64)
        cache = GeomCache()
        for _ in range(2):
            h = Hist3(grid)
            mdnorm(h, transforms, dets, solid, flux, band, charge=charge,
                   backend="vectorized", cache=cache, width=64)
            assert np.array_equal(h.signal, ref.signal)

    def test_prefetch_then_reduce(self):
        grid, transforms, dets, solid, flux, band, charge = _random_case(11)
        cache = GeomCache()
        assert prefetch_geometry(grid, transforms, dets, band, solid, flux,
                                 backend="vectorized", cache=cache)
        # idempotent: already warmed
        assert not prefetch_geometry(grid, transforms, dets, band, solid, flux,
                                     backend="vectorized", cache=cache)
        ref = Hist3(grid)
        mdnorm(ref, transforms, dets, solid, flux, band, charge=charge,
               backend="vectorized", cache=DISABLED)
        h = Hist3(grid)
        before = cache.stats.hits
        mdnorm(h, transforms, dets, solid, flux, band, charge=charge,
               backend="vectorized", cache=cache)
        assert cache.stats.hits > before
        assert np.array_equal(h.signal, ref.signal)


class TestBinmdCachedEqualsUncached:
    @pytest.mark.parametrize("seed", range(0, 50, 2))
    def test_cold_and_warm_match_uncached_exactly(self, seed):
        grid, transforms, _, _, _, _, _ = _random_case(seed)
        events = _random_events(seed)
        backend = ORDER_EXACT_BACKENDS[seed % len(ORDER_EXACT_BACKENDS)]

        ref = Hist3(grid, track_errors=True)
        bin_events(ref, events, transforms, backend=backend, cache=DISABLED)

        cache = GeomCache()
        cold = Hist3(grid, track_errors=True)
        bin_events(cold, events, transforms, backend=backend, cache=cache)
        warm = Hist3(grid, track_errors=True)
        bin_events(warm, events, transforms, backend=backend, cache=cache)

        assert np.array_equal(cold.signal, ref.signal)
        assert np.array_equal(warm.signal, ref.signal)
        assert np.array_equal(cold.error_sq, ref.error_sq)
        assert np.array_equal(warm.error_sq, ref.error_sq)

    def test_warm_hit_counted_on_device_backend(self):
        grid, transforms, _, _, _, _, _ = _random_case(12)
        events = EventTable(_random_events(12))
        cache = GeomCache()
        a = Hist3(grid)
        bin_events(a, events, transforms, backend="vectorized", cache=cache)
        assert cache.stats.inserts >= 1
        b = Hist3(grid)
        bin_events(b, events, transforms, backend="vectorized", cache=cache)
        assert cache.stats.hits >= 1
        assert np.array_equal(a.signal, b.signal)

    def test_event_table_change_changes_key(self):
        grid, transforms, _, _, _, _, _ = _random_case(13)
        events = _random_events(13)
        cache = GeomCache()
        bin_events(Hist3(grid), events, transforms, backend="vectorized",
                   cache=cache)
        mutated = events.copy()
        mutated[0, COL_QX] += 1.0  # the key covers Q, not the weights
        before = cache.stats.misses
        bin_events(Hist3(grid), mutated, transforms, backend="vectorized",
                   cache=cache)
        assert cache.stats.misses > before


# ---------------------------------------------------------------------------
# scratch-buffer reuse safety (the audited latent bug class)
# ---------------------------------------------------------------------------

class TestScratchSafety:
    def test_get_reallocates_when_width_grows(self):
        """A retained _Scratch asked for a wider buffer must re-allocate,
        never hand back the old (too small) one."""
        scratch = _Scratch(4)
        small = scratch.get()
        assert small.size >= 4
        scratch.width = 16  # simulate unsafe cross-call reuse
        grown = scratch.get()
        assert grown.size >= 16

    def test_get_is_thread_local(self):
        import threading

        scratch = _Scratch(8)
        main_buf = scratch.get()
        seen = {}

        def worker():
            seen["buf"] = scratch.get()

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert seen["buf"] is not main_buf

    def test_interleaved_grids_do_not_alias_state(self):
        """Two grids with different widths reduced alternately against
        one shared cache must each match their isolated reduction —
        no scratch buffer, cache entry or width leaks across calls."""
        grid_a, transforms, dets, solid, flux, band, charge = _random_case(20)
        grid_b = HKLGrid(
            basis=np.eye(3),
            minimum=(-1.5, -1.5, -0.5),
            maximum=(1.5, 1.5, 0.5),
            bins=(29, 5, 1),
        )
        refs = {}
        for name, grid in (("a", grid_a), ("b", grid_b)):
            h = Hist3(grid)
            mdnorm(h, transforms, dets, solid, flux, band, charge=charge,
                   backend="serial", cache=DISABLED)
            refs[name] = h.signal

        cache = GeomCache()
        for _ in range(2):  # interleave: a, b, a, b
            for name, grid in (("a", grid_a), ("b", grid_b)):
                h = Hist3(grid)
                mdnorm(h, transforms, dets, solid, flux, band, charge=charge,
                       backend="serial", cache=cache)
                assert np.array_equal(h.signal, refs[name]), name

    def test_interleaved_grids_vectorized_plans_do_not_alias(self):
        """Same interleave on the device back end, where the deposit
        plans (not scratch buffers) carry the per-grid state."""
        grid_a, transforms, dets, solid, flux, band, charge = _random_case(21)
        grid_b = HKLGrid(
            basis=np.eye(3),
            minimum=(-1.0, -2.5, -0.5),
            maximum=(2.5, 1.0, 0.5),
            bins=(7, 33, 1),
        )
        refs = {}
        for name, grid in (("a", grid_a), ("b", grid_b)):
            h = Hist3(grid)
            mdnorm(h, transforms, dets, solid, flux, band, charge=charge,
                   backend="vectorized", cache=DISABLED)
            refs[name] = h.signal

        cache = GeomCache()
        for _ in range(2):
            for name, grid in (("a", grid_a), ("b", grid_b)):
                h = Hist3(grid)
                mdnorm(h, transforms, dets, solid, flux, band, charge=charge,
                       backend="vectorized", cache=cache)
                assert np.array_equal(h.signal, refs[name]), name
        assert cache.stats.hits >= 2
