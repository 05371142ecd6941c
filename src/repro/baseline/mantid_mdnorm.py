"""Production-style MDNorm with the pre-improvement cost profile.

What the proxies improved, kept here on purpose:

* **linear searches**: every grid edge of every dimension is tested
  against the trajectory's momentum window one by one (the proxies use
  a region-of-interest strategy — two binary searches per dimension);
* **array-of-structs sort**: intersections are collected as Python
  ``(k, c0, c1, c2)`` tuples and sorted with the general-purpose
  ``list.sort`` (the proxies sort primitive index arrays);
* the cumulative flux table is interpolated by scanning from the start
  (linear), not bisecting.

Numerically identical to :func:`repro.core.mdnorm.mdnorm`; the
integration suite enforces it.
"""

from __future__ import annotations

import numpy as np

from repro.core.hist3 import Hist3
from repro.core.intersections import PARALLEL_EPS, k_window, trajectory_directions
from repro.nexus.corrections import FluxSpectrum
from repro.util.validation import require


def _linear_flux_lookup(flux_k: list, flux_cum: list, k: float) -> float:
    """Cumulative flux at ``k`` by scanning the table from the left."""
    if k <= flux_k[0]:
        return flux_cum[0]
    n = len(flux_k)
    for j in range(1, n):
        if k <= flux_k[j]:
            t = (k - flux_k[j - 1]) / (flux_k[j] - flux_k[j - 1])
            return flux_cum[j - 1] + t * (flux_cum[j] - flux_cum[j - 1])
    return flux_cum[-1]


def mantid_md_norm(
    hist: Hist3,
    transforms: np.ndarray,
    det_directions: np.ndarray,
    solid_angles: np.ndarray,
    flux: FluxSpectrum,
    momentum_band: tuple[float, float],
    *,
    charge: float = 1.0,
) -> Hist3:
    """Baseline MDNorm: accumulate one run's normalization into ``hist``."""
    transforms = np.asarray(transforms, dtype=np.float64)
    det_directions = np.asarray(det_directions, dtype=np.float64)
    solid_angles = np.asarray(solid_angles, dtype=np.float64)
    require(transforms.ndim == 3 and transforms.shape[1:] == (3, 3),
            "transforms must be (n_ops, 3, 3)")

    grid = hist.grid
    directions = trajectory_directions(transforms, det_directions)
    lo_all, hi_all = k_window(directions, grid, *momentum_band)
    edges = [grid.edges[axis].tolist() for axis in range(3)]
    flux_k = flux.momentum.tolist()
    flux_cum = flux._cumulative.tolist()

    n_ops, n_det = directions.shape[:2]
    for n in range(n_ops):
        for d in range(n_det):
            k_lo = float(lo_all[n, d])
            k_hi = float(hi_all[n, d])
            if not k_hi > k_lo:
                continue
            weight_det = float(solid_angles[d]) * charge
            if weight_det == 0.0:
                continue
            dvec = directions[n, d]
            d0, d1, d2 = float(dvec[0]), float(dvec[1]), float(dvec[2])

            # -- linear search over every edge of every dimension --------
            structs = [(k_lo, k_lo * d0, k_lo * d1, k_lo * d2)]
            for axis, di in ((0, d0), (1, d1), (2, d2)):
                if abs(di) <= PARALLEL_EPS:
                    continue
                for e in edges[axis]:
                    k = e / di
                    if k_lo < k < k_hi:
                        structs.append((k, k * d0, k * d1, k * d2))
            structs.append((k_hi, k_hi * d0, k_hi * d1, k_hi * d2))

            # -- array-of-structs sort -------------------------------------
            structs.sort(key=lambda s: s[0])

            # -- per-segment flux integral + histogram append --------------
            phi_lo = _linear_flux_lookup(flux_k, flux_cum, structs[0][0])
            for j in range(len(structs) - 1):
                a = structs[j][0]
                b = structs[j + 1][0]
                phi_hi = _linear_flux_lookup(flux_k, flux_cum, b)
                if b > a:
                    mid = 0.5 * (a + b)
                    w = (phi_hi - phi_lo) * weight_det
                    if w != 0.0:
                        hist.push(mid * d0, mid * d1, mid * d2, w)
                phi_lo = phi_hi
    return hist
