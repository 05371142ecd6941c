"""Unit tests for the parameter-sweep utility."""

import time

import numpy as np
import pytest

from repro.bench.sweep import SweepPoint, SweepResult, run_sweep


class TestRunSweep:
    def test_records_every_value(self):
        result = run_sweep("s", "n", [1, 2, 4], lambda n: None, repeats=1)
        assert [p.parameter for p in result.points] == [1.0, 2.0, 4.0]
        assert all(p.seconds >= 0 for p in result.points)

    def test_observables_recorded(self):
        result = run_sweep(
            "s", "n", [3], lambda n: {"total": n * 10}, repeats=1
        )
        assert result.points[0].observables == {"total": 30.0}
        assert result.observable_names() == ["total"]

    def test_median_of_repeats(self):
        calls = []

        def fn(n):
            calls.append(n)

        run_sweep("s", "n", [1, 2], fn, repeats=3)
        assert len(calls) == 6

    def test_validation(self):
        with pytest.raises(Exception):
            run_sweep("s", "n", [], lambda n: None)
        with pytest.raises(Exception):
            run_sweep("s", "n", [1], lambda n: None, repeats=0)


class TestSweepResult:
    def _linear(self):
        points = [
            SweepPoint(parameter=10.0, seconds=0.1),
            SweepPoint(parameter=100.0, seconds=1.0),
            SweepPoint(parameter=1000.0, seconds=10.0),
        ]
        return SweepResult(name="lin", parameter_name="n", points=points)

    def test_scaling_exponent_linear(self):
        assert self._linear().scaling_exponent() == pytest.approx(1.0)

    def test_scaling_exponent_quadratic(self):
        points = [
            SweepPoint(parameter=n, seconds=1e-6 * n**2) for n in (10, 100, 1000)
        ]
        r = SweepResult(name="quad", parameter_name="n", points=points)
        assert r.scaling_exponent() == pytest.approx(2.0)

    def test_exponent_needs_two_points(self):
        r = SweepResult(name="x", parameter_name="n",
                        points=[SweepPoint(parameter=1.0, seconds=1.0)])
        with pytest.raises(Exception):
            r.scaling_exponent()

    def test_rows_shape(self):
        r = run_sweep("s", "n", [2, 4], lambda n: {"obs": n}, repeats=1)
        rows = r.rows()
        assert len(rows) == 2
        assert len(rows[0]) == 3  # parameter, seconds, obs

    def test_real_timing_sweep(self):
        """A sweep over sleep durations measures what it should: the
        median of five repeats of well-separated durations (a stall of
        a few ms on a loaded host moves one repeat, not the median), and
        never less than the duration asked for."""
        r = run_sweep("sleep", "t", [0.002, 0.025],
                      lambda t: time.sleep(t), repeats=5)
        assert r.points[1].seconds > r.points[0].seconds
        for p in r.points:
            assert p.seconds >= p.parameter
