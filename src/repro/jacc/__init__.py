"""A JACC.jl-style performance-portability layer for Python.

JACC.jl gives Julia applications one ``parallel_for`` /
``parallel_reduce`` API whose kernels run unchanged on Threads, CUDA or
AMDGPU back ends.  This subpackage reproduces that model with the
execution engines available here:

============ =========================================================
back end      execution model
============ =========================================================
serial        interpreted per-element loop — the scalar-CPU reference
threads       chunked per-element loops on a thread pool — the paper's
              OpenMP ``collapse(2)`` analogue (coarse-grained CPU)
multiprocess  fixed-grid chunks of the flattened index space on a
              persistent process pool with shared-memory captures,
              ordered deposit replay and a deterministic pairwise tree
              reduction — CPU scale-out past the GIL (see
              :mod:`repro.jacc.multiproc`)
vectorized    whole-index-space NumPy array kernels — the data-parallel
              "device" stand-in for the CUDA/AMDGPU back ends
============ =========================================================

A :class:`~repro.jacc.kernels.Kernel` carries *both* a scalar
``element`` function and a data-parallel ``batch`` function over the
same index space; back ends pick the representation matching their
execution model, which is exactly the portability contract JACC.jl
implements via Julia's multiple dispatch.  The :mod:`repro.jacc.jit`
module reproduces the just-in-time specialization cost structure: the
first launch of a kernel on a back end pays a genuine (Python
``compile``-based) specialization step that later launches skip —
giving real "JIT" vs "no JIT" columns like Tables III-VI.

Deliberately reproduced limitation: like the JACC.jl release the paper
used, the device back end's ``parallel_reduce`` supports only ``+``
(the paper discusses needing a MAX reduction workaround in MiniVATES);
:func:`repro.proxy.minivates` implements the same workaround.
"""

from repro.jacc.api import (
    parallel_for,
    parallel_reduce,
    array,
    to_host,
    default_backend,
    resolve_backend,
    set_default_backend,
    get_backend,
    available_backends,
)
from repro.jacc.kernels import Kernel
from repro.jacc.backend import Backend, BackendError
from repro.jacc.atomic import atomic_add

__all__ = [
    "parallel_for",
    "parallel_reduce",
    "array",
    "to_host",
    "default_backend",
    "resolve_backend",
    "set_default_backend",
    "get_backend",
    "available_backends",
    "Kernel",
    "Backend",
    "BackendError",
    "atomic_add",
]
