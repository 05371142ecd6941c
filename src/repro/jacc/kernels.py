"""The portable kernel abstraction.

A kernel is one computation expressed over an index space, with two
equivalent realizations:

* ``element(ctx, *indices)`` — scalar body executed once per index
  tuple; the form the CPU back ends (serial, threads) run.  Mirrors the
  lambda body of ``JACC.parallel_for`` in the paper's Listing 3.
* ``batch(ctx, shape)`` — one data-parallel realization over the whole
  index space using array primitives; the form the device back end
  launches.  Mirrors what the CUDA/AMDGPU code generators produce from
  the same Julia source.

``ctx`` is the capture namespace (the paper's named-tuple third
argument).  Both realizations must compute identical results — a
property the test suite enforces for every kernel in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Optional, Tuple

from repro.util.validation import ValidationError


class Captures(SimpleNamespace):
    """Kernel capture namespace (named arrays and scalars)."""


def make_captures(**kwargs: Any) -> Captures:
    return Captures(**kwargs)


@dataclass(frozen=True)
class Kernel:
    """A performance-portable kernel.

    Parameters
    ----------
    name:
        Unique name; the JIT cache keys on it.
    element:
        Scalar body ``element(ctx, *indices) -> None`` (side effects on
        ctx arrays) or ``-> float`` for reductions.
    batch:
        Data-parallel body ``batch(ctx, shape) -> None`` (or an array of
        per-index values for reductions).  ``None`` means the kernel
        cannot run on the device back end.
    """

    name: str
    element: Callable[..., Any]
    batch: Optional[Callable[..., Any]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("kernel name must be non-empty")
        if not callable(self.element):
            raise ValidationError("kernel element body must be callable")
        if self.batch is not None and not callable(self.batch):
            raise ValidationError("kernel batch body must be callable")

    @property
    def device_capable(self) -> bool:
        return self.batch is not None


def normalize_dims(dims: int | Tuple[int, ...]) -> Tuple[int, ...]:
    """Validate and canonicalize an index-space shape (1-D or 2-D)."""
    if isinstance(dims, int):
        dims = (dims,)
    dims = tuple(int(d) for d in dims)
    if len(dims) not in (1, 2):
        raise ValidationError(f"index space must be 1-D or 2-D, got {dims}")
    if any(d < 0 for d in dims):
        raise ValidationError(f"negative index-space extent: {dims}")
    return dims
