"""Tests for dynamic micro-batching of surrogate evaluations.

The fidelity contract under test (DESIGN.md "Serving"):

* a coalesced group of K requests returns **bitwise** what
  ``evaluate_batch`` returns for those K fills stacked;
* a singleton flush is bitwise-identical to sequential ``evaluate``;
* for K > 1 rows match sequential ``evaluate`` (bitwise on these
  sub-``CALIBRATE_MIN_CELLS`` grids; checked here to 1e-10);
* a job registered with ``member()`` never waits out the flush window
  once no other registered job is still running.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.serve import CoalescedNetwork, MicroBatcher, ServeStats
from repro.surrogate import PlanarityWeights

WEIGHTS = PlanarityWeights(0.2, 1e4, 0.2, 1e5, 0.15, 100.0)


def concurrent_evaluate(batcher, fills, weights=WEIGHTS):
    """Submit fills from one thread each; return results in input order."""
    results = [None] * len(fills)
    errors = []

    def worker(k):
        try:
            results[k] = batcher.evaluate(fills[k], weights)
        except BaseException as exc:  # surfaced by the caller
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k,))
               for k in range(len(fills))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    if errors:
        raise errors[0]
    return results


@pytest.fixture()
def fills(small_layout):
    rng = np.random.default_rng(7)
    slack = small_layout.slack_stack()
    return [rng.uniform(0.1, 0.9) * slack for _ in range(3)]


class TestFidelity:
    def test_coalesced_bitwise_equals_evaluate_batch(self, trained_surrogate,
                                                     fills):
        """Coalescing adds no arithmetic: the scattered per-request results
        are exactly the rows of one ``evaluate_batch`` stacked pass."""
        batcher = MicroBatcher(trained_surrogate, max_batch=len(fills),
                               max_delay_s=30.0)
        try:
            got = concurrent_evaluate(batcher, fills)
        finally:
            batcher.close()
        reference = trained_surrogate.evaluate_batch(np.stack(fills), WEIGHTS)
        for k, ev in enumerate(got):
            assert ev.s_plan == float(reference.s_plan[k])
            assert np.array_equal(ev.heights, reference.heights[k])
            assert np.array_equal(ev.gradient, reference.gradient[k])

    def test_singleton_flush_bitwise_equals_sequential(self, trained_surrogate,
                                                       fills):
        """A max-latency flush of one request runs the identical stacked
        shape, hence bitwise-equal to the plain ``evaluate`` path."""
        batcher = MicroBatcher(trained_surrogate, max_batch=16,
                               max_delay_s=0.005)
        try:
            got = batcher.evaluate(fills[0], WEIGHTS)
        finally:
            batcher.close()
        reference = trained_surrogate.evaluate(fills[0], WEIGHTS)
        assert got.s_plan == reference.s_plan
        assert np.array_equal(got.heights, reference.heights)
        assert np.array_equal(got.gradient, reference.gradient)

    def test_group_close_to_sequential(self, trained_surrogate, fills):
        """K > 1 inherits the repo-wide batched contract vs sequential."""
        batcher = MicroBatcher(trained_surrogate, max_batch=len(fills),
                               max_delay_s=30.0)
        try:
            got = concurrent_evaluate(batcher, fills)
        finally:
            batcher.close()
        for fill, ev in zip(fills, got):
            reference = trained_surrogate.evaluate(fill, WEIGHTS)
            assert ev.s_plan == pytest.approx(reference.s_plan, abs=1e-10)
            np.testing.assert_allclose(ev.gradient, reference.gradient,
                                       atol=1e-10)

    def test_passthrough_when_disabled(self, trained_surrogate, fills):
        """max_batch=1 short-circuits to the plain sequential path."""
        batcher = MicroBatcher(trained_surrogate, max_batch=1)
        got = batcher.evaluate(fills[0], WEIGHTS)
        reference = trained_surrogate.evaluate(fills[0], WEIGHTS)
        assert got.s_plan == reference.s_plan
        assert np.array_equal(got.gradient, reference.gradient)
        batcher.close()


class TestBehaviour:
    def test_batch_histogram_recorded(self, trained_surrogate, fills):
        stats = ServeStats()
        batcher = MicroBatcher(trained_surrogate, max_batch=len(fills),
                               max_delay_s=30.0, stats=stats)
        try:
            concurrent_evaluate(batcher, fills)
        finally:
            batcher.close()
        histogram = stats.snapshot()["batch_histogram"]
        assert histogram.get(str(len(fills))) == 1

    def test_different_weights_never_coalesce(self, trained_surrogate, fills):
        """Requests only share a group when the planarity weights match."""
        stats = ServeStats()
        other = PlanarityWeights(0.3, 1e4, 0.2, 1e5, 0.15, 100.0)
        batcher = MicroBatcher(trained_surrogate, max_batch=2,
                               max_delay_s=0.05, stats=stats)
        try:
            results = [None, None]

            def run(k, weights):
                results[k] = batcher.evaluate(fills[k], weights)

            threads = [threading.Thread(target=run, args=(0, WEIGHTS)),
                       threading.Thread(target=run, args=(1, other))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            batcher.close()
        histogram = batcher.stats.snapshot()["batch_histogram"]
        assert histogram == {"1": 2}
        assert results[0].s_plan != results[1].s_plan

    def test_close_drains_parked_requests(self, trained_surrogate, fills):
        """close() flushes waiters instead of stranding them."""
        batcher = MicroBatcher(trained_surrogate, max_batch=64,
                               max_delay_s=300.0)
        holder = {}
        thread = threading.Thread(
            target=lambda: holder.setdefault(
                "ev", batcher.evaluate(fills[0], WEIGHTS)))
        thread.start()
        while not batcher._pending:  # wait until parked
            time.sleep(0.001)
        batcher.close()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert holder["ev"].s_plan == trained_surrogate.evaluate(
            fills[0], WEIGHTS).s_plan

    def test_evaluate_after_close_still_works(self, trained_surrogate, fills):
        batcher = MicroBatcher(trained_surrogate, max_batch=4,
                               max_delay_s=0.01)
        batcher.close()
        ev = batcher.evaluate(fills[0], WEIGHTS)
        assert ev.s_plan == trained_surrogate.evaluate(fills[0],
                                                       WEIGHTS).s_plan

    def test_errors_propagate_to_every_waiter(self, fills):
        class ExplodingNetwork:
            def evaluate_batch(self, fills, weights, grad_mask=None):
                raise RuntimeError("boom")

        batcher = MicroBatcher(ExplodingNetwork(), max_batch=len(fills),
                               max_delay_s=30.0)
        try:
            with pytest.raises(RuntimeError, match="boom"):
                concurrent_evaluate(batcher, fills)
        finally:
            batcher.close()

    def test_bad_config_rejected(self, trained_surrogate):
        with pytest.raises(ValueError):
            MicroBatcher(trained_surrogate, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(trained_surrogate, max_delay_s=-1.0)


class TestCoalescedNetwork:
    def test_delegates_everything_else(self, trained_surrogate, small_layout):
        batcher = MicroBatcher(trained_surrogate, max_batch=1)
        facade = CoalescedNetwork(trained_surrogate, batcher)
        assert facade.layout is trained_surrogate.layout
        heights = facade.predict_heights()
        np.testing.assert_array_equal(
            heights, trained_surrogate.predict_heights())
        batcher.close()

    def test_evaluate_routes_through_batcher(self, trained_surrogate, fills):
        batcher = MicroBatcher(trained_surrogate, max_batch=16,
                               max_delay_s=0.003)
        facade = CoalescedNetwork(trained_surrogate, batcher)
        ev = facade.evaluate(fills[0], WEIGHTS)
        reference = trained_surrogate.evaluate(fills[0], WEIGHTS)
        assert ev.s_plan == reference.s_plan
        batcher.close()


def run_members(batcher, jobs):
    """Run each ``job(batcher)`` on its own thread, registered with the
    batcher; all register before any starts.  Returns (results, errors)."""
    barrier = threading.Barrier(len(jobs))
    results = [None] * len(jobs)
    errors = [None] * len(jobs)

    def worker(k):
        try:
            with batcher.member():
                barrier.wait()
                results[k] = jobs[k](batcher)
        except BaseException as exc:  # surfaced by the caller
            errors[k] = exc

    threads = [threading.Thread(target=worker, args=(k,))
               for k in range(len(jobs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    return results, errors


class TestWorkConserving:
    """A group flushes as soon as no registered job is still running;
    the (30 s) window only caps the wait for a running peer."""

    def test_lone_member_flushes_at_once(self, trained_surrogate, fills):
        stats = ServeStats()
        batcher = MicroBatcher(trained_surrogate, max_batch=16,
                               max_delay_s=30.0, stats=stats)
        try:
            t0 = time.monotonic()
            with batcher.member():
                got = batcher.evaluate(fills[0], WEIGHTS)
            elapsed = time.monotonic() - t0
        finally:
            batcher.close()
        assert elapsed < 10.0
        reference = trained_surrogate.evaluate(fills[0], WEIGHTS)
        assert got.s_plan == reference.s_plan
        assert np.array_equal(got.gradient, reference.gradient)
        assert stats.snapshot()["counters"]["batch_flush_idle"] == 1

    def test_two_members_coalesce(self, trained_surrogate, fills):
        """The first member to park waits for the running one, then both
        flush as one K=2 group, bitwise the rows of ``evaluate_batch``."""
        stats = ServeStats()
        batcher = MicroBatcher(trained_surrogate, max_batch=16,
                               max_delay_s=30.0, stats=stats)
        try:
            t0 = time.monotonic()
            got, errors = run_members(batcher, [
                lambda b, f=f: b.evaluate(f, WEIGHTS) for f in fills[:2]])
            elapsed = time.monotonic() - t0
        finally:
            batcher.close()
        assert errors == [None, None]
        assert elapsed < 10.0
        snapshot = stats.snapshot()
        assert snapshot["batch_histogram"] == {"2": 1}
        assert snapshot["counters"]["batch_flush_idle"] == 1
        reference = trained_surrogate.evaluate_batch(np.stack(fills[:2]),
                                                     WEIGHTS)
        for k, ev in enumerate(got):
            assert ev.s_plan == float(reference.s_plan[k])
            assert np.array_equal(ev.heights, reference.heights[k])
            assert np.array_equal(ev.gradient, reference.gradient[k])

    def test_failed_member_releases_registration(self, trained_surrogate,
                                                 fills):
        """A member whose evaluation raises still unregisters, so the
        next lone member flushes at once."""
        class Flaky:
            def evaluate_batch(self, fills, weights, grad_mask=None):
                if np.isnan(fills).any():
                    raise RuntimeError("boom")
                return trained_surrogate.evaluate_batch(
                    fills, weights, grad_mask=grad_mask)

        batcher = MicroBatcher(Flaky(), max_batch=16, max_delay_s=30.0)
        try:
            bad = np.full_like(fills[0], np.nan)
            _, errors = run_members(batcher, [
                lambda b: b.evaluate(bad, WEIGHTS)])
            assert isinstance(errors[0], RuntimeError)
            t0 = time.monotonic()
            got, errors = run_members(batcher, [
                lambda b: b.evaluate(fills[0], WEIGHTS)])
            elapsed = time.monotonic() - t0
        finally:
            batcher.close()
        assert errors == [None]
        assert elapsed < 10.0
        assert got[0].s_plan == trained_surrogate.evaluate(
            fills[0], WEIGHTS).s_plan

    def test_member_leaving_unparks_the_group(self, trained_surrogate, fills):
        """A parked member waits for a registered peer only while that
        peer runs: the peer's exit (here by raising) flushes the group."""
        batcher = MicroBatcher(trained_surrogate, max_batch=16,
                               max_delay_s=30.0)

        def leave(b):
            deadline = time.monotonic() + 30
            while not b._pending and time.monotonic() < deadline:
                time.sleep(0.001)  # wait until the peer has parked
            raise RuntimeError("job failed before evaluating")

        try:
            t0 = time.monotonic()
            got, errors = run_members(batcher, [
                lambda b: b.evaluate(fills[0], WEIGHTS), leave])
            elapsed = time.monotonic() - t0
        finally:
            batcher.close()
        assert errors[0] is None and isinstance(errors[1], RuntimeError)
        assert elapsed < 10.0
        assert got[0].s_plan == trained_surrogate.evaluate(
            fills[0], WEIGHTS).s_plan

    def test_many_members_stress(self, trained_surrogate, fills):
        """More registered jobs than cores, each evaluating repeatedly
        under rapid thread switching: a lost update to the registration
        counts would park someone for the 30 s window or leave counts
        behind."""
        stats = ServeStats()
        batcher = MicroBatcher(trained_surrogate, max_batch=4,
                               max_delay_s=30.0, stats=stats)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            t0 = time.monotonic()
            got, errors = run_members(batcher, [
                lambda b, k=k: [b.evaluate(fills[(k + i) % len(fills)],
                                           WEIGHTS).s_plan
                                for i in range(5)]
                for k in range(8)])
            elapsed = time.monotonic() - t0
        finally:
            sys.setswitchinterval(interval)
            batcher.close()
        assert errors == [None] * 8
        assert elapsed < 20.0
        assert batcher._members == {} and batcher._held == 0
        histogram = stats.snapshot()["batch_histogram"]
        assert sum(int(k) * v for k, v in histogram.items()) == 8 * 5
        assert "batch_flush_deadline" not in stats.snapshot()["counters"]
        for k, values in enumerate(got):
            for i, value in enumerate(values):
                assert value == pytest.approx(trained_surrogate.evaluate(
                    fills[(k + i) % len(fills)], WEIGHTS).s_plan, abs=1e-10)

    def test_unregistered_caller_keeps_deadline(self, trained_surrogate,
                                                fills):
        stats = ServeStats()
        batcher = MicroBatcher(trained_surrogate, max_batch=16,
                               max_delay_s=0.2, stats=stats)
        try:
            t0 = time.monotonic()
            batcher.evaluate(fills[0], WEIGHTS)
            elapsed = time.monotonic() - t0
        finally:
            batcher.close()
        assert elapsed >= 0.2
        assert stats.snapshot()["counters"] == {"batch_flush_deadline": 1}

    def test_served_fill_does_not_wait_out_the_window(self, trained_surrogate,
                                                      small_layout, tmp_path):
        """A lone served PKB fill makes dozens of coalescible evaluations;
        with a 10 s flush window it still completes within one window."""
        from repro.layout.io import layout_to_dict
        from repro.serve import FillServer, ModelRegistry, ServeConfig
        from repro.serve.protocol import encode
        from repro.surrogate import save_surrogate

        checkpoint = save_surrogate(
            tmp_path / "ckpt", trained_surrogate.unet,
            trained_surrogate.normalizer, base_channels=6, depth=2)
        registry = ModelRegistry()
        registry.register("m", checkpoint)
        server = FillServer(registry=registry, serve_config=ServeConfig(
            workers=1, max_batch=16, flush_ms=10000.0))
        server.start()
        done = threading.Event()
        replies = []

        def reply(message):
            replies.append(message)
            if message.get("status") in ("done", "error", "timeout"):
                done.set()

        try:
            t0 = time.monotonic()
            server.handle_line(encode({
                "op": "fill", "id": "f1",
                "params": {"layout": layout_to_dict(small_layout),
                           "method": "neurfill-pkb", "model": "m",
                           "score": False}}), reply)
            assert done.wait(10.0), "fill still running after one window"
            elapsed = time.monotonic() - t0
            assert replies[-1]["status"] == "done"
            assert replies[-1]["result"]["evaluations"] > 10
            counters = server.stats_snapshot()["counters"]
            assert counters["batch_flush_idle"] > 10
            assert "batch_flush_deadline" not in counters
        finally:
            server.shutdown(timeout=60.0)
        assert elapsed < 10.0
