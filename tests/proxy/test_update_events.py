"""The Table III-VI proxies pay the paper's UpdateEvents transpose.

``load_md`` adopts the stored columns without transposing them; the
C++ and MiniVATES proxies must still pay the paper's load-time
transpose, explicitly and inside their timed ``UpdateEvents`` stage.
"""

import time

import numpy as np
import pytest

from repro.core import md_event_workspace
from repro.proxy import cpp_proxy, minivates
from repro.util.timers import StageTimings

#: seconds the spy adds to each transpose, far above timer noise
DELAY = 0.05


def _fields(exp):
    return dict(
        md_paths=exp.md_paths, flux_path=exp.flux_path,
        vanadium_path=exp.vanadium_path, instrument=exp.instrument,
        grid=exp.grid, point_group=exp.point_group,
    )


def _cpp(exp):
    return cpp_proxy.CppProxyWorkflow(cpp_proxy.CppProxyConfig(**_fields(exp)))


def _minivates(exp):
    return minivates.MiniVatesWorkflow(minivates.MiniVatesConfig(**_fields(exp)))


@pytest.mark.parametrize("module, make", [(cpp_proxy, _cpp),
                                          (minivates, _minivates)])
def test_proxy_pays_the_transpose_inside_update_events(
    tiny_experiment, monkeypatch, module, make
):
    tables = []

    def spy(events):
        time.sleep(DELAY)
        rows = md_event_workspace.transpose_events(events)
        tables.append((events, rows))
        return rows

    monkeypatch.setattr(module, "transpose_events", spy)
    timings = StageTimings(label="proxy")
    make(tiny_experiment).run(timings=timings)

    n_runs = len(tiny_experiment.md_paths)
    assert len(tables) == n_runs
    for events, rows in tables:
        assert rows.shape == (events.n_events, 8)
        assert rows.flags.c_contiguous and not np.shares_memory(rows, events.cols)
        assert np.array_equal(rows, events.data)
    assert timings.seconds("UpdateEvents") >= n_runs * DELAY
    assert timings.seconds("BinMD") < n_runs * DELAY

