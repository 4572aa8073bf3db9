"""Nearest-rank percentiles, their support rule and lateness accounting."""

import pytest

import common


def test_nearest_rank():
    samples = list(range(1, 101))  # 1..100
    assert common.nearest_rank(samples, 50) == 50
    assert common.nearest_rank(samples, 90) == 90
    assert common.nearest_rank(samples, 99) == 99
    assert common.nearest_rank(samples, 100) == 100
    assert common.nearest_rank([3.0, 1.0, 2.0], 50) == 2.0
    assert common.nearest_rank([5.0], 90) == 5.0
    with pytest.raises(ValueError):
        common.nearest_rank([], 50)
    with pytest.raises(ValueError):
        common.nearest_rank([1.0], 0)


def test_percentile_needs_ten_samples_beyond():
    assert common.percentile_supported(100, 90)
    assert not common.percentile_supported(99, 90)
    assert common.percentile_supported(20, 50)
    assert not common.percentile_supported(19, 50)
    assert not common.percentile_supported(3, 90)
    assert common.percentile_supported(1000, 99)
    assert not common.percentile_supported(999, 99)
    assert not common.percentile_supported(0, 50)


def test_lateness_counts_only_late_sends():
    due = [0.0, 1.0, 2.0, 3.0]
    sent = [0.0, 0.9, 2.5, 3.25]
    assert common.lateness(due, sent) == [0.0, 0.0, 0.5, 0.25]
    with pytest.raises(ValueError):
        common.lateness(due, sent[:2])


def test_open_loop_latency_runs_from_due_time():
    # A sender that stalled 2 s sends late; the stall is charged to the job.
    due, sent, done = 10.0, 12.0, 12.5
    assert common.open_loop_latency(due, done) == pytest.approx(2.5)
    assert common.open_loop_latency(due, done) > done - sent



def test_end_to_end_counts_untimed_ops_only_as_attempts():
    import run
    import workloads

    ops = [workloads.Op(1.0, quality=0.5), workloads.Op(3.0, quality=0.7),
           workloads.Op(9.0, ok=False, reason="bad"),
           workloads.Op(0.0, ok=False, reason="probe", timed=False)]
    outcome = workloads.Outcome(setup_times=[1.0, 2.0, 4.0], ops=ops, op_span=10.0,
                                setup_window=(0, 1), op_window=(1, 2), peak_rss_mb=1.0)
    metrics, notes = run.end_to_end(outcome, limit_s=2.0)
    value = {name: m["value"] for name, m in metrics.items()}
    assert value["setup_s"] == 2.0
    assert value["op_p50_s"] == 1.0 and value["op_p90_s"] == 3.0
    assert value["ops_per_s"] == pytest.approx(0.3)       # three timed ops
    assert value["goodput_per_s"] == pytest.approx(0.1)   # one ok within 2 s
    assert value["success_rate"] == pytest.approx(0.5)    # 2 of 4 attempted
    assert value["quality"] == pytest.approx(0.6)
    assert notes["timed_ops"] == 3
    metrics, _ = run.end_to_end(outcome, limit_s=None)
    assert metrics["goodput_per_s"]["value"] == pytest.approx(0.2)
