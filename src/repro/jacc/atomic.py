"""Atomic accumulation primitives.

The paper's Hist3 increments bin values "with atomic operations" so
thousands of device threads can push concurrently.  The host-side
equivalents here:

* :func:`atomic_add` — unbuffered scatter-add (``np.add.at``): correct
  under duplicate indices, which is precisely the guarantee a device
  ``atomicAdd`` gives;
* :func:`atomic_add_scalar` — the per-element form used inside scalar
  kernel bodies.  No launch has two threads adding into one target:
  the serial back end runs every element in order, and the threads
  back end gives each worker chunk a private deposit log, applied in
  chunk order with :func:`atomic_add` (see :mod:`repro.jacc.threads`).
"""

from __future__ import annotations

import numpy as np


def atomic_add(target_flat: np.ndarray, indices: np.ndarray, values: np.ndarray | float) -> None:
    """Scatter-add with full duplicate-index correctness.

    ``target_flat[indices[j]] += values[j]`` for every j, applied
    unbuffered (unlike ``target_flat[indices] += values``, which drops
    duplicate contributions — the classic GPU histogram race that
    ``atomicAdd`` exists to prevent).
    """
    np.add.at(target_flat, indices, values)


def atomic_add_scalar(target_flat: np.ndarray, index: int, value: float) -> None:
    """Single-element atomic add used by scalar kernel bodies."""
    target_flat[index] += value
