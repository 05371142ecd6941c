"""Unit tests for RunData and the 8-column EventTable."""

import numpy as np
import pytest

from repro.nexus.events import (
    COL_DETECTOR_ID,
    COL_ERROR_SQ,
    COL_GONIOMETER_INDEX,
    COL_Q,
    COL_QX,
    COL_QZ,
    COL_RUN_INDEX,
    COL_SIGNAL,
    N_EVENT_COLUMNS,
    EventTable,
    RunData,
)
from repro.util.validation import ValidationError


def _run(n=10, **over):
    kwargs = dict(
        run_number=1,
        detector_ids=np.arange(n, dtype=np.uint32),
        tof=np.linspace(1000, 2000, n),
        weights=np.ones(n, dtype=np.float32),
        goniometer=np.eye(3),
        proton_charge=1.0,
        wavelength_band=(0.5, 3.0),
    )
    kwargs.update(over)
    return RunData(**kwargs)


class TestRunData:
    def test_basic_construction(self):
        run = _run(5)
        assert run.n_events == 5
        assert run.detector_ids.dtype == np.uint32
        assert run.tof.dtype == np.float64

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="length mismatch"):
            _run(5, tof=np.zeros(4))
        with pytest.raises(ValidationError, match="length mismatch"):
            _run(5, weights=np.zeros(6, dtype=np.float32))

    def test_nonpositive_charge_rejected(self):
        with pytest.raises(ValidationError, match="proton_charge"):
            _run(proton_charge=0.0)

    def test_bad_wavelength_band_rejected(self):
        with pytest.raises(ValidationError, match="wavelength_band"):
            _run(wavelength_band=(3.0, 0.5))
        with pytest.raises(ValidationError, match="wavelength_band"):
            _run(wavelength_band=(0.0, 1.0))

    def test_bad_goniometer_rejected(self):
        with pytest.raises(ValidationError):
            _run(goniometer=np.ones((2, 2)))

    def test_ub_matrix_validated(self):
        run = _run(ub_matrix=np.eye(3))
        assert run.ub_matrix.shape == (3, 3)
        with pytest.raises(ValidationError):
            _run(ub_matrix=np.ones(4))


class TestEventTable:
    def test_column_layout_is_eight_wide(self):
        assert N_EVENT_COLUMNS == 8
        # the Julia listing's 1-based columns 6..8 are 0-based 5..7
        assert (COL_QX, COL_QZ) == (5, 7)
        assert COL_SIGNAL == 0

    def test_wrong_width_rejected(self):
        with pytest.raises(ValidationError, match="event table"):
            EventTable(np.zeros((4, 7)))

    def test_from_columns_broadcast_scalars(self):
        t = EventTable.from_columns(
            signal=np.ones(4),
            run_index=3,
            goniometer_index=2,
            q_sample=np.zeros((4, 3)),
        )
        assert np.all(t.data[:, COL_RUN_INDEX] == 3)
        assert np.all(t.data[:, COL_GONIOMETER_INDEX] == 2)
        # error^2 defaults to the signal (Poisson counts)
        assert np.array_equal(t.data[:, COL_ERROR_SQ], np.ones(4))

    def test_from_columns_shape_check(self):
        with pytest.raises(ValidationError, match="q_sample"):
            EventTable.from_columns(signal=np.ones(4), q_sample=np.zeros((3, 3)))

    def test_accessors(self):
        q = np.arange(12, dtype=float).reshape(4, 3)
        t = EventTable.from_columns(
            signal=np.full(4, 2.0), q_sample=q, detector_id=np.arange(4)
        )
        assert np.array_equal(t.q_sample, q)
        assert np.array_equal(t.detector_id, np.arange(4))
        assert t.total_signal() == 8.0
        assert len(t) == 4

    def test_concat(self):
        a = EventTable.from_columns(signal=np.ones(2), q_sample=np.zeros((2, 3)))
        b = EventTable.from_columns(signal=np.ones(3), q_sample=np.ones((3, 3)))
        c = a.concat(b)
        assert c.n_events == 5
        assert np.array_equal(c.data[:2], a.data)

    def test_empty(self):
        t = EventTable.empty()
        assert t.n_events == 0
        assert t.data.shape == (0, 8)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_columns_are_contiguous_float64(self, order):
        rows = np.asarray(np.arange(32).reshape(4, 8), dtype=np.int64, order=order)
        t = EventTable(rows)
        assert t.cols.flags.c_contiguous
        assert t.cols.dtype == np.float64
        assert t.cols.shape == (8, 4)
        for c in range(8):
            assert t.cols[c].strides == (8,)
        for col in (t.signal, t.error_sq, t.detector_id):
            assert col.flags.c_contiguous
        assert t.q_sample.T.flags.c_contiguous
        # data is the (n, 8) view of the same memory, never a copy
        assert np.shares_memory(t.data, t.cols)
        assert np.array_equal(t.data, rows)

    def test_from_cols_adopts_without_copy(self):
        cols = np.arange(24, dtype=np.float64).reshape(8, 3)
        t = EventTable.from_cols(cols)
        assert t.cols is cols
        assert np.array_equal(t.data, cols.T)
        with pytest.raises(ValidationError, match="event columns"):
            EventTable.from_cols(np.zeros((3, 8)))
