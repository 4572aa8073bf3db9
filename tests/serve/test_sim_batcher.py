"""Tests for coalescing concurrent simulate jobs into batched polishes.

The fidelity contract is the strongest in the serving layer: the batched
CMP simulator is **bitwise identical** to looping ``simulate``, so a
coalesced simulate job must report exactly the numbers a dedicated
server would.
"""

import threading
import time

import numpy as np
import pytest

from repro.cmp import CmpSimulator, DEFAULT_PROCESS, ProcessParams
from repro.core.scoring import planarity_metrics
from repro.layout import apply_fill, make_design_a, make_design_b
from repro.layout.io import layout_to_dict
from repro.serve import FillServer, ServeConfig, ServeStats, SimulateBatcher
from repro.serve.protocol import encode

from .test_batcher import run_members

RESULT_FIELDS = ("height", "dishing", "erosion", "pressure", "step_height")


def concurrent_simulate(batcher, jobs):
    """Submit (features, simulator) jobs from one thread each."""
    results = [None] * len(jobs)
    errors = []

    def worker(k):
        try:
            results[k] = batcher.simulate(*jobs[k])
        except BaseException as exc:  # surfaced by the caller
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k,))
               for k in range(len(jobs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    if errors:
        raise errors[0]
    return results


@pytest.fixture()
def feature_stacks():
    layouts = [make_design_a(rows=6, cols=6), make_design_b(rows=6, cols=6),
               make_design_a(rows=6, cols=6)]
    rng = np.random.default_rng(11)
    return [apply_fill(lay, rng.uniform(0.0, 0.8) * lay.slack_stack())
            for lay in layouts]


class TestSimulateBatcherFidelity:
    def test_coalesced_bitwise_equals_solo(self, feature_stacks):
        sim = CmpSimulator()
        batcher = SimulateBatcher(max_batch=len(feature_stacks),
                                  max_delay_s=30.0)
        try:
            got = concurrent_simulate(
                batcher, [(f, sim) for f in feature_stacks])
        finally:
            batcher.close()
        for features, res in zip(feature_stacks, got):
            ref = sim.simulate(features)
            for name in RESULT_FIELDS:
                np.testing.assert_array_equal(
                    getattr(res, name), getattr(ref, name), err_msg=name)

    def test_passthrough_when_disabled(self, feature_stacks):
        sim = CmpSimulator()
        batcher = SimulateBatcher(max_batch=1)
        res = batcher.simulate(feature_stacks[0], sim)
        ref = sim.simulate(feature_stacks[0])
        np.testing.assert_array_equal(res.height, ref.height)
        batcher.close()

    def test_simulate_after_close_still_works(self, feature_stacks):
        sim = CmpSimulator()
        batcher = SimulateBatcher(max_batch=4, max_delay_s=0.01)
        batcher.close()
        res = batcher.simulate(feature_stacks[0], sim)
        np.testing.assert_array_equal(
            res.height, sim.simulate(feature_stacks[0]).height)


class TestSimulateBatcherGrouping:
    def test_different_physics_never_coalesce(self, feature_stacks):
        """Jobs only share a polish when the process params match."""
        stats = ServeStats()
        fast = CmpSimulator(DEFAULT_PROCESS.scaled(polish_time_s=30.0))
        slow = CmpSimulator(DEFAULT_PROCESS.scaled(polish_time_s=60.0))
        batcher = SimulateBatcher(max_batch=2, max_delay_s=0.05,
                                  stats=stats)
        try:
            concurrent_simulate(batcher, [(feature_stacks[0], fast),
                                          (feature_stacks[0], slow)])
        finally:
            batcher.close()
        assert stats.snapshot()["sim_batch_histogram"] == {"1": 2}

    def test_equal_params_coalesce_across_instances(self, feature_stacks):
        """ProcessParams is frozen: two separately built simulators with
        the same calibration share one group."""
        stats = ServeStats()
        a = CmpSimulator(ProcessParams(polish_time_s=30.0))
        b = CmpSimulator(ProcessParams(polish_time_s=30.0))
        batcher = SimulateBatcher(max_batch=2, max_delay_s=30.0,
                                  stats=stats)
        try:
            concurrent_simulate(batcher, [(feature_stacks[0], a),
                                          (feature_stacks[1], b)])
        finally:
            batcher.close()
        assert stats.snapshot()["sim_batch_histogram"] == {"2": 1}

    def test_close_drains_parked_requests(self, feature_stacks):
        sim = CmpSimulator()
        batcher = SimulateBatcher(max_batch=64, max_delay_s=300.0)
        holder = {}
        thread = threading.Thread(
            target=lambda: holder.setdefault(
                "res", batcher.simulate(feature_stacks[0], sim)))
        thread.start()
        while not batcher._pending:  # wait until parked
            time.sleep(0.001)
        batcher.close()
        thread.join(timeout=30)
        assert not thread.is_alive()
        np.testing.assert_array_equal(
            holder["res"].height, sim.simulate(feature_stacks[0]).height)

    def test_errors_propagate_to_every_waiter(self, feature_stacks):
        class ExplodingSimulator:
            params = DEFAULT_PROCESS
            window_um = 100.0
            dtype = None

            def simulate_batch(self, features):
                raise RuntimeError("boom")

        boom = ExplodingSimulator()
        batcher = SimulateBatcher(max_batch=2, max_delay_s=30.0)
        try:
            with pytest.raises(RuntimeError, match="boom"):
                concurrent_simulate(batcher, [(feature_stacks[0], boom),
                                              (feature_stacks[2], boom)])
        finally:
            batcher.close()

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SimulateBatcher(max_batch=0)
        with pytest.raises(ValueError):
            SimulateBatcher(max_delay_s=-1.0)


class TestServerSimulateCoalescing:
    def test_concurrent_jobs_coalesce_and_match_solo(self):
        """Concurrent simulate jobs through the full server coalesce into
        one batched polish and report solo-identical numbers."""
        layout = make_design_a(rows=6, cols=6)
        spec = layout_to_dict(layout)
        server = FillServer(serve_config=ServeConfig(
            workers=4, max_batch=4, flush_ms=100.0))
        server.start()
        results = {}
        lock = threading.Lock()

        def reply_for(jid):
            def reply(message):
                if message.get("status") in ("done", "error", "timeout"):
                    with lock:
                        results[jid] = message
            return reply

        try:
            for k in range(4):
                line = encode({"op": "simulate", "id": f"s{k}",
                               "params": {"layout": spec}})
                server.handle_line(line, reply_for(f"s{k}"))
            deadline = time.monotonic() + 60
            while len(results) < 4 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert len(results) == 4
            assert all(r["status"] == "done" for r in results.values())
            ref = CmpSimulator().simulate_layout(layout)
            delta_h, sigma, line_dev, outliers = planarity_metrics(ref.height)
            for message in results.values():
                res = message["result"]
                assert res["delta_h"] == delta_h
                assert res["sigma"] == sigma
                assert res["mean_dishing"] == float(ref.dishing.mean())
                assert res["mean_erosion"] == float(ref.erosion.mean())
            histogram = server.stats_snapshot()["sim_batch_histogram"]
            # With 4 workers racing the flusher the group may split, but
            # every flush lands in the histogram.
            assert sum(int(k) * v for k, v in histogram.items()) == 4
        finally:
            server.shutdown()


class TestSimulateBatcherWorkConserving:
    """The flush rule of the network batcher, on simulate jobs."""

    def test_lone_member_flushes_at_once(self, feature_stacks):
        sim = CmpSimulator()
        stats = ServeStats()
        batcher = SimulateBatcher(max_batch=16, max_delay_s=30.0,
                                  stats=stats)
        try:
            t0 = time.monotonic()
            with batcher.member():
                res = batcher.simulate(feature_stacks[0], sim)
            elapsed = time.monotonic() - t0
        finally:
            batcher.close()
        assert elapsed < 10.0
        np.testing.assert_array_equal(
            res.height, sim.simulate(feature_stacks[0]).height)
        assert stats.snapshot()["counters"]["sim_flush_idle"] == 1

    def test_two_members_coalesce(self, feature_stacks):
        sim = CmpSimulator()
        stats = ServeStats()
        batcher = SimulateBatcher(max_batch=16, max_delay_s=30.0,
                                  stats=stats)
        try:
            t0 = time.monotonic()
            got, errors = run_members(batcher, [
                lambda b, f=f: b.simulate(f, sim) for f in feature_stacks[:2]])
            elapsed = time.monotonic() - t0
        finally:
            batcher.close()
        assert errors == [None, None]
        assert elapsed < 10.0
        snapshot = stats.snapshot()
        assert snapshot["sim_batch_histogram"] == {"2": 1}
        assert snapshot["counters"]["sim_flush_idle"] == 1
        for features, res in zip(feature_stacks, got):
            ref = sim.simulate(features)
            for name in RESULT_FIELDS:
                np.testing.assert_array_equal(
                    getattr(res, name), getattr(ref, name), err_msg=name)

    def test_failed_member_releases_registration(self, feature_stacks):
        class ExplodingSimulator:
            params = DEFAULT_PROCESS
            window_um = 100.0
            dtype = None

            def simulate(self, features):
                raise RuntimeError("boom")

        sim = CmpSimulator()
        batcher = SimulateBatcher(max_batch=16, max_delay_s=30.0)
        try:
            _, errors = run_members(batcher, [
                lambda b: b.simulate(feature_stacks[0], ExplodingSimulator())])
            assert isinstance(errors[0], RuntimeError)
            t0 = time.monotonic()
            got, errors = run_members(batcher, [
                lambda b: b.simulate(feature_stacks[1], sim)])
            elapsed = time.monotonic() - t0
        finally:
            batcher.close()
        assert errors == [None]
        assert elapsed < 10.0
        np.testing.assert_array_equal(
            got[0].height, sim.simulate(feature_stacks[1]).height)

    def test_unregistered_caller_keeps_deadline(self, feature_stacks):
        stats = ServeStats()
        batcher = SimulateBatcher(max_batch=16, max_delay_s=0.2,
                                  stats=stats)
        try:
            t0 = time.monotonic()
            batcher.simulate(feature_stacks[0], CmpSimulator())
            elapsed = time.monotonic() - t0
        finally:
            batcher.close()
        assert elapsed >= 0.2
        assert stats.snapshot()["counters"] == {"sim_flush_deadline": 1}
