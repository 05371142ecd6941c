"""Vectorized back end: the data-parallel "device" stand-in.

With no GPU available, NumPy's array engine plays the role of the
CUDA/AMDGPU back ends: one launch executes the kernel's ``batch`` body
over the whole index space with C-speed array primitives, the same
execution model (all lanes advance together, scatter updates must be
atomic) at a different absolute speed.  Behavioural fidelity choices:

* ``to_device`` **copies** — host mutations after transfer are not
  visible, the discipline a discrete device imposes (and the source of
  the paper's device/host communication costs);
* transfer volumes are counted (``bytes_h2d`` / ``bytes_d2h``) so the
  benchmark harness can report data-movement alongside compute;
* ``parallel_reduce`` supports only ``op="+"`` — deliberately mirroring
  the JACC.jl limitation the paper calls out ("this function does not
  currently support custom reduction operators"); MiniVATES' MAX
  workaround is reproduced in :mod:`repro.proxy.minivates`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.jacc.backend import Backend, BackendError, register_backend
from repro.jacc.jit import GLOBAL_JIT
from repro.jacc.kernels import Captures, Kernel, normalize_dims
from repro.util import trace as _trace


class VectorizedBackend(Backend):
    name = "vectorized"
    device_kind = "device"
    body = "batch"

    def __init__(self) -> None:
        self.bytes_h2d = 0
        self.bytes_d2h = 0
        self.launches = 0

    # -- memory model ----------------------------------------------------
    def to_device(self, host: np.ndarray) -> np.ndarray:
        dev = np.array(host, copy=True, order="C")
        self.bytes_h2d += dev.nbytes
        _trace.active_tracer().count("jacc.bytes_h2d", dev.nbytes)
        return dev

    def to_host(self, device: np.ndarray) -> np.ndarray:
        host = np.array(device, copy=True, order="C")
        self.bytes_d2h += host.nbytes
        _trace.active_tracer().count("jacc.bytes_d2h", host.nbytes)
        return host

    def reset_counters(self) -> None:
        self.bytes_h2d = 0
        self.bytes_d2h = 0
        self.launches = 0

    # -- execution -------------------------------------------------------
    def run_parallel_for(
        self, dims: int | Tuple[int, ...], kernel: Kernel, captures: Captures
    ) -> None:
        dims = normalize_dims(dims)
        if kernel.batch is None:
            raise BackendError(
                f"kernel {kernel.name!r} has no batch body; it cannot launch "
                f"on the device back end"
            )
        launch = GLOBAL_JIT.trampoline(kernel.name, self.name, kernel.batch)
        self.launches += 1
        if all(d > 0 for d in dims):
            launch(kernel.batch, captures, dims)

    def run_parallel_reduce(
        self,
        dims: int | Tuple[int, ...],
        kernel: Kernel,
        captures: Captures,
        op: str = "+",
    ) -> float:
        dims = normalize_dims(dims)
        if op != "+":
            raise BackendError(
                "device parallel_reduce supports only op='+' (the JACC.jl "
                "limitation the paper documents); use a pre-pass kernel and "
                "host-side reduction as MiniVATES does"
            )
        if kernel.batch is None:
            raise BackendError(
                f"kernel {kernel.name!r} has no batch body; it cannot launch "
                f"on the device back end"
            )
        launch = GLOBAL_JIT.trampoline(kernel.name, self.name, kernel.batch)
        self.launches += 1
        if any(d == 0 for d in dims):
            return 0.0
        values = launch(kernel.batch, captures, dims)
        values = np.asarray(values)
        return float(values.sum())


VECTORIZED = register_backend(VectorizedBackend())
