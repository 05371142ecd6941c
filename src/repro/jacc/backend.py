"""Back-end protocol and registry.

A back end executes :class:`~repro.jacc.kernels.Kernel` objects over an
index space and owns "device" memory.  The registry maps names to
singleton instances; ``REPRO_JACC_BACKEND`` selects the process default
(exactly like ``JACCPreferences.backend`` selects "threads" /
"cuda" / "amdgpu" in the paper's artifact configuration).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Tuple

import numpy as np

from repro.jacc.kernels import Captures, Kernel, normalize_dims
from repro.util import trace as _trace
from repro.util.validation import ReproError


class BackendError(ReproError):
    """A kernel could not be executed on the requested back end."""


#: reduction operators every CPU back end supports; the device back end
#: deliberately supports only "+" (see package docstring)
REDUCE_OPS: Dict[str, Tuple[Callable[[Any, Any], Any], float]] = {
    "+": (lambda a, b: a + b, 0.0),
    "max": (lambda a, b: a if a >= b else b, -np.inf),
    "min": (lambda a, b: a if a <= b else b, np.inf),
}


class Backend(ABC):
    """Executes portable kernels; owns device memory."""

    #: registry name, e.g. "serial"
    name: str = "abstract"
    #: "cpu" or "device" — what Fig. 2's architecture calls the target
    device_kind: str = "cpu"
    #: the kernel body form the engine runs: "element" or "batch"
    body: str = "element"

    # -- memory model ----------------------------------------------------
    def to_device(self, host: np.ndarray) -> np.ndarray:
        """Allocate a device array from host data.

        CPU back ends alias host memory; the device back end copies, so
        host mutations after transfer are not visible device-side (the
        same discipline CUDA imposes).
        """
        return np.ascontiguousarray(host)

    def to_host(self, device: np.ndarray) -> np.ndarray:
        """Bring a device array back to host memory."""
        return device

    # -- execution -------------------------------------------------------
    # ``parallel_for`` / ``parallel_reduce`` are template methods: the
    # base class owns the per-launch tracing span (one ``kernel:<name>``
    # span per launch on the active tracer — the per-kernel attribution
    # the paper's per-stage WCT tables are built from) and dispatches to
    # the engine-specific ``run_*`` implementations.

    def _span_attrs(self, tracer: "_trace.Tracer",
                    dims: int | Tuple[int, ...]) -> Dict[str, Any]:
        """What a kernel span records: the engine, the body form it
        ran and how many index-space elements the launch covered."""
        shape = [int(d) for d in normalize_dims(dims)]
        attrs: Dict[str, Any] = dict(
            kind="kernel",
            backend=self.name,
            device_kind=self.device_kind,
            body=self.body,
            dims=shape,
            elements=math.prod(shape),
        )
        if tracer.profile:
            from repro.util.perf import kernel_items

            attrs["perf"] = kernel_items(shape)
        return attrs

    def parallel_for(
        self, dims: int | Tuple[int, ...], kernel: Kernel, captures: Captures
    ) -> None:
        """Run ``kernel`` once per index in ``dims`` (side effects only)."""
        tracer = _trace.active_tracer()
        if not tracer.enabled:
            self.run_parallel_for(dims, kernel, captures)
            return
        attrs = self._span_attrs(tracer, dims)
        with tracer.span(f"kernel:{kernel.name}", **attrs):
            self.run_parallel_for(dims, kernel, captures)
        tracer.count("jacc.launches", 1)

    def parallel_reduce(
        self,
        dims: int | Tuple[int, ...],
        kernel: Kernel,
        captures: Captures,
        op: str = "+",
    ) -> float:
        """Reduce the kernel's per-index values with ``op``."""
        tracer = _trace.active_tracer()
        if not tracer.enabled:
            return self.run_parallel_reduce(dims, kernel, captures, op)
        attrs = self._span_attrs(tracer, dims)
        with tracer.span(f"kernel:{kernel.name}", op=op, **attrs):
            result = self.run_parallel_reduce(dims, kernel, captures, op)
        tracer.count("jacc.launches", 1)
        return result

    @abstractmethod
    def run_parallel_for(
        self, dims: int | Tuple[int, ...], kernel: Kernel, captures: Captures
    ) -> None:
        """Engine-specific ``parallel_for`` body (no tracing concerns)."""

    @abstractmethod
    def run_parallel_reduce(
        self,
        dims: int | Tuple[int, ...],
        kernel: Kernel,
        captures: Captures,
        op: str = "+",
    ) -> float:
        """Engine-specific ``parallel_reduce`` body (no tracing concerns)."""

    def synchronize(self) -> None:
        """Barrier until queued work completes (no-op for host engines)."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<jacc backend {self.name!r} ({self.device_kind})>"


_REGISTRY: Dict[str, Backend] = {}


def register_backend(backend: Backend) -> Backend:
    if backend.name in _REGISTRY:
        raise BackendError(f"backend {backend.name!r} already registered")
    _REGISTRY[backend.name] = backend
    return backend


def lookup_backend(name: str) -> Backend:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise BackendError(
            f"unknown back end {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def registered_backends() -> Dict[str, Backend]:
    return dict(_REGISTRY)
