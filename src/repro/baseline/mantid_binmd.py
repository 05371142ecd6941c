"""Production-style BinMD: array-of-structs, one event at a time.

The cost drivers this module keeps on purpose (they are what the
paper's proxies remove):

* events are Python tuples handled individually (array-of-structs);
* the transform is applied with interpreted scalar arithmetic per
  (op, event) pair;
* each transformed event is routed through the adaptive MDBox
  hierarchy *and* located in the output grid by a **linear search**
  over the bin edges of every dimension (generic boundary handling,
  no uniform-width fast path);
* the histogram bin is then incremented.

Outputs are numerically identical to :func:`repro.core.binmd.bin_events`
— the integration suite enforces it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.baseline.mdbox import MDBox, MDBoxController, build_workspace_box
from repro.core.hist3 import Hist3
from repro.nexus.events import COL_ERROR_SQ, COL_QX, COL_QY, COL_QZ, COL_SIGNAL, EventTable
from repro.util.validation import require


def _linear_locate(edges: Sequence[float], value: float) -> int:
    """Find the bin of ``value`` by scanning the edges left to right.

    Returns -1 if the value lies outside [edges[0], edges[-1]).  This is
    the O(n_bins) search the proxies replace with a region-of-interest
    strategy.
    """
    if value < edges[0]:
        return -1
    for i in range(len(edges) - 1):
        if value < edges[i + 1]:
            return i
    return -1


def mantid_bin_md(
    hist: Hist3,
    events: EventTable,
    transforms: np.ndarray,
    *,
    box_controller: Optional[MDBoxController] = None,
    workspace_box: Optional[MDBox] = None,
) -> Hist3:
    """Baseline BinMD: accumulate ``events`` into ``hist`` per op.

    If ``box_controller`` is given (or a prebuilt ``workspace_box``),
    transformed events are also inserted into the MDBox hierarchy,
    reproducing the workspace-maintenance cost of the production path.
    """
    transforms = np.asarray(transforms, dtype=np.float64)
    require(transforms.ndim == 3 and transforms.shape[1:] == (3, 3),
            "transforms must be (n_ops, 3, 3)")
    grid = hist.grid
    edges0 = grid.edges[0].tolist()
    edges1 = grid.edges[1].tolist()
    edges2 = grid.edges[2].tolist()
    nb1, nb2 = grid.bins[1], grid.bins[2]
    signal = hist.flat_signal
    err_out = hist.flat_error_sq

    box = workspace_box
    if box is None and box_controller is not None:
        box = build_workspace_box(
            box_controller,
            [(grid.minimum[i], grid.maximum[i]) for i in range(3)],
        )

    # array-of-structs view: one Python tuple per event
    data = events.data
    structs = [
        (
            float(row[COL_SIGNAL]),
            float(row[COL_ERROR_SQ]),
            float(row[COL_QX]),
            float(row[COL_QY]),
            float(row[COL_QZ]),
        )
        for row in data
    ]

    for op in transforms:
        m00, m01, m02 = op[0]
        m10, m11, m12 = op[1]
        m20, m21, m22 = op[2]
        for sig, err, qx, qy, qz in structs:
            c0 = m00 * qx + m01 * qy + m02 * qz
            c1 = m10 * qx + m11 * qy + m12 * qz
            c2 = m20 * qx + m21 * qy + m22 * qz
            i0 = _linear_locate(edges0, c0)
            if i0 < 0:
                continue
            i1 = _linear_locate(edges1, c1)
            if i1 < 0:
                continue
            i2 = _linear_locate(edges2, c2)
            if i2 < 0:
                continue
            flat = (i0 * nb1 + i1) * nb2 + i2
            signal[flat] += sig
            if err_out is not None:
                err_out[flat] += err
            if box is not None:
                box.add_event((sig, err, c0, c1, c2))
    return hist
