"""Module-level JACC API: ``parallel_for``, ``parallel_reduce``, ``array``.

Mirrors JACC.jl's user surface: application code writes kernels once and
calls these functions; the active back end decides how they execute.
The default back end comes from ``REPRO_JACC_BACKEND`` (falling back to
"vectorized": the batch bodies every shard, out-of-core and stealing
run also executes, so a default in-memory run agrees with them bit for
bit) and can be swapped at runtime with :func:`set_default_backend`.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

import numpy as np

# Importing the engine modules registers them.
from repro.jacc import serial as _serial  # noqa: F401
from repro.jacc import threads as _threads  # noqa: F401
from repro.jacc import vectorized as _vectorized  # noqa: F401
from repro.jacc.backend import Backend, lookup_backend, registered_backends
from repro.jacc.kernels import Captures, Kernel

_default: Optional[Backend] = None


def available_backends() -> List[str]:
    """Names of all registered back ends."""
    return sorted(registered_backends())


def get_backend(name: str) -> Backend:
    """Look up a back end by name ("serial", "threads", "vectorized")."""
    return lookup_backend(name)


def default_backend() -> Backend:
    """The process-default back end (env ``REPRO_JACC_BACKEND``)."""
    global _default
    if _default is None:
        _default = lookup_backend(os.environ.get("REPRO_JACC_BACKEND", "vectorized"))
    return _default


def set_default_backend(name: str) -> Backend:
    """Swap the process-default back end; returns the new default."""
    global _default
    _default = lookup_backend(name)
    return _default


def resolve_backend(name: Optional[str] = None) -> Backend:
    """The back end ``name`` selects; None (or "") is the process default."""
    return lookup_backend(name) if name else default_backend()


def parallel_for(
    dims: int | Tuple[int, ...],
    kernel: Kernel,
    captures: Captures,
    *,
    backend: Optional[str] = None,
) -> None:
    """Execute ``kernel`` once per index of ``dims`` (side effects only)."""
    resolve_backend(backend).parallel_for(dims, kernel, captures)


def parallel_reduce(
    dims: int | Tuple[int, ...],
    kernel: Kernel,
    captures: Captures,
    op: str = "+",
    *,
    backend: Optional[str] = None,
) -> float:
    """Reduce the kernel's per-index values with ``op``."""
    return resolve_backend(backend).parallel_reduce(dims, kernel, captures, op)


def array(host: np.ndarray, *, backend: Optional[str] = None) -> np.ndarray:
    """Allocate a device array from host data on the active back end."""
    return resolve_backend(backend).to_device(np.asarray(host))


def to_host(device: np.ndarray, *, backend: Optional[str] = None) -> np.ndarray:
    """Bring a device array back to host memory."""
    return resolve_backend(backend).to_host(device)
