"""Span recording, per-layer figures, and the rule that only the traced
run installs wrappers."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import common
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent.parent


@pytest.fixture
def restore_env():
    saved = dict(os.environ)
    yield
    os.environ.clear()
    os.environ.update(saved)


def _fake_outcome(seen):
    def workload(ctx):
        seen.append(tracing.installed())
        return workloads.Outcome(
            setup_times=[1.0, 1.2], ops=[workloads.Op(0.5, quality=0.5)],
            op_span=0.5, setup_window=(0.0, 1.0), op_window=(1.0, 2.0),
            peak_rss_mb=1.0)
    return workload


@pytest.mark.parametrize("trace", [0, 1])
def test_only_the_traced_run_installs_wrappers(monkeypatch, restore_env, capsys, trace):
    seen = []
    monkeypatch.setitem(workloads.WORKLOADS, "mm-fill", _fake_outcome(seen))
    assert run.main(["--workload", "mm-fill", "--seed", "1", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    assert seen == [bool(trace)]
    assert not tracing.installed()  # uninstalled after the traced run
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert '"correct": true' in last


def test_install_and_uninstall_round_trip():
    from repro.nn import dispatch
    from repro.surrogate.network import CmpNeuralNetwork

    originals = (dispatch.corr2d, CmpNeuralNetwork.__dict__["evaluate"])
    patches = tracing.install(tracing.SpanStore())
    try:
        assert tracing.installed()
        assert dispatch.corr2d is not originals[0]
    finally:
        tracing.uninstall(patches)
    assert (dispatch.corr2d, CmpNeuralNetwork.__dict__["evaluate"]) == originals


def test_spans_carry_parent_and_job():
    store = tracing.SpanStore()

    def inner():
        return 3

    def outer():
        return store.record("inner", inner, (), {})

    store.set_job("op-0")
    assert store.record("outer", outer, (), {}) == 3
    (inner_span, outer_span) = store.spans
    assert inner_span[3] == "inner" and outer_span[3] == "outer"
    assert inner_span[1] == outer_span[0] and outer_span[1] is None
    assert inner_span[2] == outer_span[2] == "op-0"


def _span(span_id, parent, name, t0, t1, extra=None):
    return (span_id, parent, None, name, t0, t1, extra)


def test_layer_metrics_per_op_nesting_and_sqp_self_time():
    spans = [
        _span(1, None, "surrogate.train", 0.0, 4.0),
        _span(2, None, "optimize.sqp", 10.0, 14.0, {"iterations": 7}),
        _span(3, 2, "surrogate.evaluate", 10.0, 11.0),
        _span(4, 2, "surrogate.evaluate_batch", 11.0, 12.5, {"rows": 3}),
        _span(5, 4, "nn.corr", 11.0, 11.5),
        _span(6, None, "cmp.simulate", 15.0, 16.0),
        _span(7, 6, "cmp.simulate", 15.0, 15.9),  # nested: counted once
    ]
    m = tracing.layer_metrics(spans, (0.0, 5.0), (9.0, 20.0), n_setups=2, n_ops=2)
    assert m["surrogate.train_s"] == pytest.approx(2.0)
    assert m["optimize.sqp_iterations"] == pytest.approx(3.5)
    assert m["optimize.sqp_self_s"] == pytest.approx((4.0 - 2.5) / 2)
    assert m["surrogate.batch_rows_mean"] == pytest.approx(3.0)
    assert m["surrogate.s_per_eval"] == pytest.approx(2.5 / 4)
    assert m["cmp.simulate_calls"] == pytest.approx(0.5)
    assert m["cmp.simulate_s"] == pytest.approx(0.5)
    assert m["nn.corr_s"] == pytest.approx(0.25)


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".runs", "__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mm-fill", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_capture_counters_merge_and_delta():
    a = {"trace": 1, "replay": 10, "miss": 0, "bypass": 2, "arena_bytes": 100}
    b = {"trace": 2, "replay": 5, "miss": 1, "bypass": 0, "arena_bytes": 300}
    total = tracing.merge_capture([a, b])
    assert total == {"trace": 3, "replay": 15, "miss": 1, "bypass": 2, "arena_bytes": 300}
    assert tracing.capture_delta(a, total) == {"trace": 2, "replay": 5, "miss": 1,
                                               "bypass": 0, "arena_bytes": 300}
