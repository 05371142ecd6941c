"""Mantid's adaptive MDBox hierarchy.

Mantid stores MDEvents in a recursive tree: a leaf ``MDBox`` holds a
list of events; when it exceeds the split threshold the controller
replaces it with a grid of child boxes (``split_into`` per dimension)
and redistributes the events.  "Mantid's BinMD uses a more adaptive
strategy by having a hierarchy of boxes with equal numbers of events" —
the paper's proxies deliberately flatten this to a single box; the
baseline keeps it, so its traversal cost is part of what the proxies
remove.

This implementation is intentionally the production *shape*: events are
Python tuples (array-of-structs), insertion descends the tree one event
at a time, and splitting copies events into children.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.util.validation import ValidationError, require

#: an MDEvent struct: (signal, error_sq, c0, c1, c2)
BoxEvent = Tuple[float, float, float, float, float]


@dataclass
class MDBoxController:
    """Split policy shared by every box of one workspace."""

    split_threshold: int = 1000
    split_into: int = 5
    max_depth: int = 5

    def __post_init__(self) -> None:
        require(self.split_threshold >= 1, "split_threshold must be >= 1")
        require(self.split_into >= 2, "split_into must be >= 2")
        require(self.max_depth >= 0, "max_depth must be >= 0")


class MDBox:
    """One node of the hierarchy: leaf (events) or grid (children)."""

    __slots__ = ("controller", "lo", "hi", "depth", "events", "children", "_n")

    def __init__(
        self,
        controller: MDBoxController,
        lo: Tuple[float, float, float],
        hi: Tuple[float, float, float],
        depth: int = 0,
    ) -> None:
        for a, b in zip(lo, hi):
            if not b > a:
                raise ValidationError(f"degenerate box extent [{a}, {b}]")
        self.controller = controller
        self.lo = tuple(float(x) for x in lo)
        self.hi = tuple(float(x) for x in hi)
        self.depth = depth
        self.events: Optional[List[BoxEvent]] = []
        self.children: Optional[List["MDBox"]] = None
        self._n = 0

    # -- structure ---------------------------------------------------------
    @property
    def is_leaf(self) -> bool:
        return self.children is None

    @property
    def n_events(self) -> int:
        return self._n

    def contains(self, c0: float, c1: float, c2: float) -> bool:
        return (
            self.lo[0] <= c0 < self.hi[0]
            and self.lo[1] <= c1 < self.hi[1]
            and self.lo[2] <= c2 < self.hi[2]
        )

    def _child_index(self, c0: float, c1: float, c2: float) -> int:
        s = self.controller.split_into
        idx = 0
        for axis, c in enumerate((c0, c1, c2)):
            w = (self.hi[axis] - self.lo[axis]) / s
            i = int((c - self.lo[axis]) / w)
            if i == s:  # upper boundary
                i = s - 1
            idx = idx * s + i
        return idx

    def _split(self) -> None:
        s = self.controller.split_into
        children: List[MDBox] = []
        for i0 in range(s):
            for i1 in range(s):
                for i2 in range(s):
                    lo = []
                    hi = []
                    for axis, i in zip(range(3), (i0, i1, i2)):
                        w = (self.hi[axis] - self.lo[axis]) / s
                        lo.append(self.lo[axis] + i * w)
                        hi.append(self.lo[axis] + (i + 1) * w)
                    children.append(
                        MDBox(self.controller, tuple(lo), tuple(hi), self.depth + 1)
                    )
        assert self.events is not None
        events, self.events, self.children = self.events, None, children
        self._n = 0
        for ev in events:
            self.add_event(ev)

    # -- insertion -----------------------------------------------------------
    def add_event(self, event: BoxEvent) -> bool:
        """Insert one event struct; returns False if outside the box."""
        c0, c1, c2 = event[2], event[3], event[4]
        if not self.contains(c0, c1, c2):
            return False
        self._n += 1
        if self.children is not None:
            return self.children[self._child_index(c0, c1, c2)].add_event(event)
        assert self.events is not None
        self.events.append(event)
        if (
            len(self.events) > self.controller.split_threshold
            and self.depth < self.controller.max_depth
        ):
            self._split()
        return True

    # -- traversal -----------------------------------------------------------
    def leaves(self) -> Iterator["MDBox"]:
        if self.is_leaf:
            yield self
        else:
            assert self.children is not None
            for child in self.children:
                yield from child.leaves()

    def iter_events(self) -> Iterator[BoxEvent]:
        for leaf in self.leaves():
            assert leaf.events is not None
            yield from leaf.events

    def total_signal(self) -> float:
        return sum(ev[0] for ev in self.iter_events())

    def max_depth_used(self) -> int:
        return max(leaf.depth for leaf in self.leaves())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "leaf" if self.is_leaf else "grid"
        return f"MDBox({kind}, depth={self.depth}, events={self._n})"


def build_workspace_box(
    controller: MDBoxController,
    extent: Sequence[Tuple[float, float]],
) -> MDBox:
    """Root box covering the given per-dimension (lo, hi) extents."""
    lo = tuple(e[0] for e in extent)
    hi = tuple(e[1] for e in extent)
    return MDBox(controller, lo, hi, depth=0)
