"""Memoized geometry/flux cache for the MDNorm/BinMD hot path.

The paper's biggest algorithmic wins come from *not recomputing*
per-detector work: the max-intersections pre-pass and the ROI bin
search exist precisely so the expensive trajectory/grid geometry is
computed once and reused per kernel launch.  A Garnet-style workflow
re-reduces the same runs many times — across symmetry panels, grid
sweeps and benchmark repetitions — and every one of those reductions
used to redo the identical geometry from scratch.

This module is the reproduction's memoization layer (the same shape as
a KV-cache in an inference stack).  A :class:`GeomCache` holds three
entry kinds behind one LRU byte budget:

* **geometry entries** (:class:`GeomEntry`) — per
  ``(grid, transforms, detectors, band, calibration, flux)`` key: the
  trajectory directions, the clipped momentum windows and the
  max-intersections pre-pass bound, plus (once the device/batch kernel
  has run) a compacted :class:`DepositPlan` holding the segment
  fluxes and flat bin indices of every segment that can deposit;
* **BinMD entries** (:class:`BinMDEntry`) — per
  ``(grid, transforms, Q columns)`` key: the ``(flat bin, event)``
  pairs of the lanes that land inside the grid, under every symmetry
  op (about 1 % of all lanes on the paper's one-bin-thick grids);
* **flux entries** (:class:`FluxEntry`) — the cumulative-flux
  interpolation table shared by every backend and every re-read of the
  same flux file.

Keys are **content digests** (two-leaf SHA-256 of the bytes), so they
are backend-agnostic: the serial, threads and vectorized back ends all
hit the same entries, and any change to the calibration (vanadium
weights / detector mask), lattice (UB → transforms), goniometer or
grid produces a different key — stale reuse is impossible by
construction.  A key digests exactly what its entry depends on: a
BinMD entry depends on the Q columns of the event table but not on
its weights, which are read fresh on every launch.  Explicit
invalidation by *tag* (e.g. ``"run:42"``) and wholesale
:meth:`GeomCache.clear` are provided on top for lifecycle management.

Cached arrays are frozen read-only; warm consumers slice them.  All
cached products are *inputs* the kernels would otherwise recompute
with the very same arithmetic, so cached and uncached reductions are
bit-identical on every back end — a property the test suite enforces
with randomized cases.

The process-default cache is enabled unless ``REPRO_GEOM_CACHE=0``;
its budget comes from ``REPRO_GEOM_CACHE_BYTES`` (default 256 MiB).
Pass :data:`DISABLED` to any cache-aware entry point to opt out.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.util import bytesplit as _bytesplit
from repro.util import trace as _trace
from repro.util.validation import require

#: default LRU byte budget of the process-wide cache
DEFAULT_BYTE_BUDGET = 256 * 1024 * 1024

#: entry-kind markers (first element of every key tuple)
KIND_GEOMETRY = "mdnorm-geometry"
KIND_BINMD = "binmd-index"
KIND_FLUX = "flux-table"


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------

def digest_array(arr: np.ndarray) -> str:
    """Content digest of an array: two-leaf SHA-256.

    SHA-256 over dtype, shape, SHA-256(first half of the bytes) and
    SHA-256(second half), truncated to 32 hex digits.  From
    :data:`~repro.util.bytesplit.SPLIT_BYTES` up the two leaves hash on
    two cores; below, on the caller.  CPUs with SHA extensions hash
    SHA-256 about twice as fast as BLAKE2b.
    """
    a = np.ascontiguousarray(arr)
    return digest_leaves(
        a, _bytesplit.sha256_halves(a.reshape(-1).view(np.uint8)))


def digest_leaves(arr: np.ndarray, leaves: Tuple[bytes, bytes]) -> str:
    """:func:`digest_array` of ``arr`` from the two SHA-256 leaves of
    its C-order bytes, hashed elsewhere (cut as ``sha256_halves``
    cuts); only ``arr``'s dtype and shape are read."""
    h = hashlib.sha256()
    h.update(str(arr.dtype).encode())
    h.update(repr(arr.shape).encode())
    for leaf in leaves:
        h.update(leaf)
    return h.hexdigest()[:32]


def digest_grid(grid) -> str:
    """Content digest of an :class:`~repro.core.grid.HKLGrid` spec."""
    h = hashlib.sha256()
    h.update(digest_array(grid.basis).encode())
    h.update(repr((grid.minimum, grid.maximum, grid.bins)).encode())
    return h.hexdigest()[:32]


class ReductionScope:
    """The digests of one reduction's run-invariant inputs, hashed once.

    The grid, the detector directions, the solid angles and the flux
    (momentum and density) are the same for every run of a reduction.
    A scope hashes them when it is made; while it is entered on a
    thread, the key builders of :class:`GeomCache` take those digests
    from it, matched by object identity, so each run hashes only its
    own transforms (and Q rows).  Keys are byte for byte the unscoped
    ones.  The inputs must not change while the scope is entered; a new
    reduction makes a new scope and hashes them afresh.

    A scope may be entered on several threads at once, and nests: one
    made while another is entered takes the outer's digests of the same
    objects instead of hashing them again.
    Make scopes with :meth:`GeomCache.reduction_scope`.
    """

    def __init__(self, grid=None, arrays: Tuple[np.ndarray, ...] = ()) -> None:
        inputs = [(arr, digest_array) for arr in arrays]
        if grid is not None:
            inputs.append((grid, digest_grid))
        self._digests: Dict[int, Tuple[Any, str]] = {
            id(obj): (obj, _scoped(obj, digest)) for obj, digest in inputs
        }

    def lookup(self, obj) -> Optional[str]:
        """The digest of ``obj`` if it is one of this scope's inputs."""
        hit = self._digests.get(id(obj))
        return hit[1] if hit is not None and hit[0] is obj else None

    def __enter__(self) -> "ReductionScope":
        _scopes.stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _scopes.stack.pop()


class _Scopes(threading.local):
    def __init__(self) -> None:
        #: this thread's entered scopes, innermost last
        self.stack: list = []


_scopes = _Scopes()


def _active_scope() -> Optional[ReductionScope]:
    return _scopes.stack[-1] if _scopes.stack else None


def _scoped(obj, digest) -> str:
    """``digest(obj)``, or its digest in the entered scope."""
    scope = _active_scope()
    known = None if scope is None else scope.lookup(obj)
    return digest(obj) if known is None else known


def freeze(arr: np.ndarray) -> np.ndarray:
    """Mark an owned array read-only (cache entries must never mutate)."""
    a = np.ascontiguousarray(arr)
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

@dataclass
class CacheStats:
    """Hit/miss/eviction counters (exposed to the benchmark harness)."""

    hits: int = 0
    misses: int = 0
    inserts: int = 0
    updates: int = 0
    evictions: int = 0
    oversize_skips: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        n = self.lookups
        return self.hits / n if n else 0.0

    def snapshot(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "inserts": self.inserts,
            "updates": self.updates,
            "evictions": self.evictions,
            "oversize_skips": self.oversize_skips,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }

    def reset(self) -> None:
        self.hits = self.misses = self.inserts = self.updates = 0
        self.evictions = self.oversize_skips = self.invalidations = 0


# ---------------------------------------------------------------------------
# entries
# ---------------------------------------------------------------------------

@dataclass
class DepositPlan:
    """Compacted deposit arrays for the MDNorm batch kernel.

    Rows are the *live* (op, detector) trajectories after stream
    compaction.  Only the segments that can deposit are stored: those
    of non-zero length whose midpoint falls inside the grid, row-major
    (the cold path's deposit order).  Per stored segment the plan keeps
    its cumulative-flux difference and the flat histogram bin of its
    midpoint; ``row_ptr`` delimits each live row's segments (CSR
    layout).  Everything charge-independent is captured, so a warm
    launch only multiplies by ``solid_angle x charge`` and
    scatter-adds.
    """

    #: the padded intersection-buffer width this plan was built for
    width: int
    #: ``(n_ops * n_det,)`` stream-compaction mask (k window non-empty
    #: and detector weight non-zero)
    live: np.ndarray
    #: ``(n_rows + 1,)`` offsets: live row ``r`` owns stored segments
    #: ``row_ptr[r]:row_ptr[r + 1]``
    row_ptr: np.ndarray
    #: ``(n_segments,)`` cumulative-flux difference per segment
    seg_flux: np.ndarray
    #: ``(n_segments,)`` flat bin index of each segment midpoint
    flat_idx: np.ndarray

    @property
    def n_rows(self) -> int:
        return int(self.row_ptr.size - 1)

    @property
    def nbytes(self) -> int:
        return int(
            self.live.nbytes + self.row_ptr.nbytes + self.seg_flux.nbytes
            + self.flat_idx.nbytes
        )


@dataclass
class GeomEntry:
    """Cached trajectory geometry for one MDNorm configuration."""

    key: Tuple[Any, ...]
    tag: Optional[str]
    #: ``(n_ops, n_det, 3)`` trajectory directions
    directions: np.ndarray
    #: ``(n_ops, n_det)`` clipped momentum window
    k_lo: np.ndarray
    k_hi: np.ndarray
    #: raw max-intersections pre-pass bound (before the plane-count
    #: clamp); None until a pre-pass has run for this key
    width: Optional[int] = None
    #: packed deposit arrays (built lazily by the batch kernel)
    deposit: Optional[DepositPlan] = None

    @property
    def nbytes(self) -> int:
        n = int(self.directions.nbytes + self.k_lo.nbytes + self.k_hi.nbytes)
        if self.deposit is not None:
            n += self.deposit.nbytes
        return n


@dataclass
class BinMDEntry:
    """Cached in-grid lanes of an event table under every op.

    Only the (op, event) lanes that land inside the grid are stored, as
    op-major ``(flat bin, event index)`` pairs in ascending event order
    within an op: the deposit sequence of the cold launch.  The index
    dtype is int32 when the grid's bin count and the event count both
    fit, int64 otherwise.  Weights are not stored; a warm launch
    gathers them from the event table it is given.
    """

    key: Tuple[Any, ...]
    tag: Optional[str]
    #: ``(n_pairs,)`` flat bin index of each in-grid lane
    flat: np.ndarray
    #: ``(n_pairs,)`` event index of each in-grid lane
    event: np.ndarray

    @property
    def n_pairs(self) -> int:
        return int(self.flat.size)

    @property
    def itemsize(self) -> int:
        return int(self.flat.itemsize)

    @property
    def nbytes(self) -> int:
        return int(self.flat.nbytes + self.event.nbytes)


@dataclass
class FluxEntry:
    """Cached cumulative-flux interpolation table."""

    key: Tuple[Any, ...]
    tag: Optional[str]
    momentum: np.ndarray
    cumulative: np.ndarray

    @property
    def nbytes(self) -> int:
        return int(self.momentum.nbytes + self.cumulative.nbytes)


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------

class GeomCache:
    """LRU byte-budgeted cache of reduction geometry.

    Thread-safe: the simulated MPI ranks (threads) and the threads back
    end may look up and insert concurrently.  Insertion is idempotent —
    two ranks racing on the same key compute identical entries, so the
    loser simply replaces an equal value.
    """

    enabled = True

    def __init__(self, byte_budget: int = DEFAULT_BYTE_BUDGET) -> None:
        require(byte_budget > 0, "byte_budget must be positive")
        self.byte_budget = int(byte_budget)
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Tuple[Any, ...], Any]" = OrderedDict()
        self._bytes = 0

    # -- keys ------------------------------------------------------------
    @staticmethod
    def geometry_key(
        grid,
        transforms: np.ndarray,
        det_directions: np.ndarray,
        momentum_band: Tuple[float, float],
        solid_angles: np.ndarray,
        flux,
    ) -> Tuple[Any, ...]:
        """Backend-agnostic key of one MDNorm geometry configuration.

        The digested ``transforms`` fold in the run's goniometer, the
        UB (lattice) and the symmetry operations; ``solid_angles``
        folds in the calibration and detector mask; ``flux`` the
        incident spectrum.  Any change to any of them is a new key.
        """
        return (
            KIND_GEOMETRY,
            _scoped(grid, digest_grid),
            digest_array(transforms),
            _scoped(det_directions, digest_array),
            (float(momentum_band[0]), float(momentum_band[1])),
            _scoped(solid_angles, digest_array),
            _scoped(flux.momentum, digest_array),
            _scoped(flux.density, digest_array),
        )

    @staticmethod
    def binmd_key(grid, transforms: np.ndarray, q_rows: np.ndarray,
                  q_leaves: Optional[Tuple[bytes, bytes]] = None) -> Tuple[Any, ...]:
        """Key of one BinMD (grid, symmetry transforms, event Q rows).

        ``q_rows`` is ``(3, n)``: Qx, Qy and Qz, one row each, hashed in
        place when C-contiguous, or not at all when ``q_leaves`` (their
        two SHA-256 leaves, hashed on load) are given.  Which lanes
        land in which bin depends on nothing else, so two tables that
        differ only in their weights share one entry.
        """
        return (
            KIND_BINMD,
            _scoped(grid, digest_grid),
            digest_array(transforms),
            digest_array(q_rows) if q_leaves is None
            else digest_leaves(q_rows, q_leaves),
        )

    @staticmethod
    def flux_key(flux) -> Tuple[Any, ...]:
        return (KIND_FLUX, _scoped(flux.momentum, digest_array),
                _scoped(flux.density, digest_array))

    def reduction_scope(self, grid, det_directions: np.ndarray,
                        solid_angles: np.ndarray, flux) -> ReductionScope:
        """A :class:`ReductionScope` over one reduction's run-invariant
        inputs: hashes them now, once; enter it on every thread that
        builds this reduction's keys."""
        return ReductionScope(grid, (det_directions, solid_angles,
                                     flux.momentum, flux.density))

    # -- core operations -------------------------------------------------
    def get(self, key: Tuple[Any, ...]):
        """Look up an entry (LRU-touching); None on miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                _trace.active_tracer().count("geom_cache.miss", 1)
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            _trace.active_tracer().count("geom_cache.hit", 1)
            return entry

    def peek(self, key: Tuple[Any, ...]):
        """Look up without touching LRU order or counters."""
        with self._lock:
            return self._entries.get(key)

    def put(self, entry) -> bool:
        """Insert (or replace) an entry; False if it exceeds the budget."""
        nbytes = entry.nbytes
        with self._lock:
            if nbytes > self.byte_budget:
                self.stats.oversize_skips += 1
                return False
            old = self._entries.pop(entry.key, None)
            if old is not None:
                self._bytes -= old.nbytes
            self._entries[entry.key] = entry
            self._bytes += nbytes
            self.stats.inserts += 1
            _trace.active_tracer().count("geom_cache.insert", 1)
            self._evict_to_budget()
            return True

    def note_update(self, entry) -> bool:
        """Re-account an entry that grew in place (e.g. gained a plan).

        If the entry was never stored (or was evicted meanwhile) this
        degrades to a plain :meth:`put`.
        """
        with self._lock:
            current = self._entries.get(entry.key)
            if current is not entry:
                return self.put(entry)
            if entry.nbytes > self.byte_budget:
                # grew past the whole budget: drop it
                del self._entries[entry.key]
                self._recount()
                self.stats.oversize_skips += 1
                return False
            self.stats.updates += 1
            self._recount()
            self._evict_to_budget()
            return True

    def accepts(self, nbytes: int) -> bool:
        """Whether an entry of this size could ever be stored."""
        return nbytes <= self.byte_budget

    def flux_table(self, flux) -> Tuple[np.ndarray, np.ndarray]:
        """The shared cumulative-flux interpolation table for ``flux``.

        Every backend interpolates the same frozen ``(momentum,
        cumulative)`` pair; repeated reads of the same flux file (one
        per panel in a Garnet-style sweep) map onto one cached table.
        """
        key = self.flux_key(flux)
        entry = self.get(key)
        if entry is None:
            entry = FluxEntry(
                key=key,
                tag=None,
                momentum=freeze(np.array(flux.momentum, dtype=np.float64)),
                cumulative=freeze(np.array(flux._cumulative, dtype=np.float64)),
            )
            self.put(entry)
        return entry.momentum, entry.cumulative

    # -- invalidation ----------------------------------------------------
    def invalidate(self, tag: Optional[str] = None) -> int:
        """Drop entries carrying ``tag`` (all entries when tag is None).

        Callers use this on calibration or lattice change when they
        track lifecycles by tag; content-digested keys already guarantee
        correctness, so this is a memory-management tool.
        """
        with self._lock:
            if tag is None:
                n = len(self._entries)
                self._entries.clear()
                self._bytes = 0
            else:
                doomed = [k for k, e in self._entries.items()
                          if getattr(e, "tag", None) == tag]
                for k in doomed:
                    del self._entries[k]
                n = len(doomed)
                self._recount()
            self.stats.invalidations += n
            return n

    def clear(self) -> None:
        self.invalidate(None)

    # -- inspection ------------------------------------------------------
    @property
    def current_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Tuple[Any, ...]) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self):
        with self._lock:
            return list(self._entries.keys())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GeomCache(entries={len(self)}, bytes={self.current_bytes}, "
            f"budget={self.byte_budget}, hits={self.stats.hits}, "
            f"misses={self.stats.misses}, evictions={self.stats.evictions})"
        )

    # -- internals -------------------------------------------------------
    def _recount(self) -> None:
        self._bytes = sum(e.nbytes for e in self._entries.values())

    def _evict_to_budget(self) -> None:
        evicted = 0
        while self._bytes > self.byte_budget and len(self._entries) > 1:
            _, victim = self._entries.popitem(last=False)
            self._bytes -= victim.nbytes
            self.stats.evictions += 1
            evicted += 1
        if self._bytes > self.byte_budget and self._entries:
            # a lone entry over budget (can only happen via note_update)
            self._entries.popitem(last=False)
            self._bytes = 0
            self.stats.evictions += 1
            evicted += 1
        if evicted:
            _trace.active_tracer().count("geom_cache.eviction", evicted)


class NullCache(GeomCache):
    """The disabled cache: every lookup misses, nothing is stored."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(byte_budget=1)

    def get(self, key):  # noqa: D102 - inherits contract
        return None

    def put(self, entry) -> bool:
        return False

    def note_update(self, entry) -> bool:
        return False

    def accepts(self, nbytes: int) -> bool:
        return False

    def flux_table(self, flux):
        return flux.momentum, flux._cumulative

    def reduction_scope(self, grid, det_directions, solid_angles, flux):
        return ReductionScope()  # builds no keys, so hashes nothing


#: pass this to any cache-aware entry point to opt out of caching
DISABLED = NullCache()

_default_lock = threading.Lock()
_default_cache: Optional[GeomCache] = None


def default_cache() -> GeomCache:
    """The process-wide cache (env: ``REPRO_GEOM_CACHE``/``..._BYTES``)."""
    global _default_cache
    with _default_lock:
        if _default_cache is None:
            if os.environ.get("REPRO_GEOM_CACHE", "1") == "0":
                _default_cache = DISABLED
            else:
                budget = int(
                    os.environ.get("REPRO_GEOM_CACHE_BYTES", DEFAULT_BYTE_BUDGET)
                )
                _default_cache = GeomCache(byte_budget=budget)
        return _default_cache


def set_default_cache(cache: Optional[GeomCache]) -> GeomCache:
    """Swap the process default (None resets to env-driven creation)."""
    global _default_cache
    with _default_lock:
        _default_cache = cache
    return default_cache()


def resolve(cache: Optional[GeomCache]) -> GeomCache:
    """None -> the process default; anything else passes through."""
    return default_cache() if cache is None else cache
