"""Serial back end: the interpreted scalar-CPU reference.

Runs the kernel's ``element`` body once per index through a JIT-
specialized loop nest.  This is the semantics oracle: every other back
end must produce the same results, and the test suite checks exactly
that.
"""

from __future__ import annotations

from typing import Tuple

from repro.jacc.backend import Backend, BackendError, REDUCE_OPS, register_backend
from repro.jacc.jit import GLOBAL_JIT
from repro.jacc.kernels import Captures, Kernel, normalize_dims


class SerialBackend(Backend):
    name = "serial"
    device_kind = "cpu"
    body = "element"

    def run_parallel_for(
        self, dims: int | Tuple[int, ...], kernel: Kernel, captures: Captures
    ) -> None:
        dims = normalize_dims(dims)
        loop = GLOBAL_JIT.loop_for(kernel.name, self.name, len(dims))
        loop(kernel.element, captures, dims)

    def run_parallel_reduce(
        self,
        dims: int | Tuple[int, ...],
        kernel: Kernel,
        captures: Captures,
        op: str = "+",
    ) -> float:
        dims = normalize_dims(dims)
        try:
            combine, init = REDUCE_OPS[op]
        except KeyError:
            raise BackendError(f"unknown reduction op {op!r}") from None
        loop = GLOBAL_JIT.loop_reduce(kernel.name, self.name, len(dims))
        return float(loop(kernel.element, captures, dims, combine, init))


SERIAL = register_backend(SerialBackend())
