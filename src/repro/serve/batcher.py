"""Dynamic micro-batching of concurrent surrogate evaluations.

Concurrent jobs against the same bound surrogate each drive their own
SQP refinement, which issues one network forward/backward at a time.
Run naively, W worker threads make W independent single-fill passes and
the network's batch axis — exactly what batched MSP-SQP exploits
*within* one job — sits idle *across* jobs.

:class:`MicroBatcher` closes that gap.  Worker threads call
:meth:`~MicroBatcher.evaluate`; the call parks until its group flushes,
then one flusher thread runs the whole group through
:meth:`CmpNeuralNetwork.evaluate_batch
<repro.surrogate.network.CmpNeuralNetwork.evaluate_batch>` — the same
stacked-pass primitive batched MSP-SQP is built on — and scatters the
per-request results.  :class:`SimulateBatcher` applies the same idea to
raw ``simulate`` jobs: concurrent requests sharing one process
calibration and grid coalesce into a single
:meth:`CmpSimulator.simulate_batch
<repro.cmp.simulator.CmpSimulator.simulate_batch>` polish, which is
bitwise identical to running them one by one.

Both share one flush core (:class:`_FlushCore`) and differ only in the
group key and how a group runs.  The flush rule is *work-conserving*.
A job that will call a batcher registers with it for as long as it runs
(``with batcher.member(): ...``), and a parked group flushes as soon as
one of these holds:

* ``full`` — it holds ``max_batch`` requests;
* ``closing`` — the batcher is closing;
* ``idle`` — every registered job is parked or inside a running flush,
  so waiting cannot grow the group;
* ``deadline`` — its oldest member has waited ``max_delay_s``.

``max_delay_s`` therefore only caps the wait for a registered peer that
is still running.  Callers that never register keep the plain deadline
rule.  Each flush is counted by reason in :class:`ServeStats` and its
span carries the reason and the oldest member's wait.

Fidelity contract (see DESIGN.md "Serving"): a coalesced group of K
requests returns **bitwise** what ``evaluate_batch`` returns for those K
fills stacked — coalescing adds no arithmetic of its own.  A singleton
flush (K = 1) is in turn bitwise-identical to the sequential
``evaluate`` path, because the stacked ``(1·L, C, N, M)`` pass runs the
identical computation.  For K > 1 the rows also equal sequential
``evaluate`` bitwise while every conv runs below the dispatcher's
``CALIBRATE_MIN_CELLS`` (128² padded cells); at and above it the
calibrated conv plan may pick a different backend for the K-row and the
one-row shapes, and the rows then differ at the last ulp.  Which jobs
share a group is timing-dependent, so only ``max_batch=1`` (or a
sub-threshold grid) makes a served result independent of the traffic
around it.  Requests only coalesce when they share the bound network
*and* the planarity weights, so different layouts/models/designs never
mix.
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
import time
from typing import Callable, Iterator

import numpy as np

from ..cmp.simulator import CmpResult, CmpSimulator
from ..layout.layout import FeatureStack, stack_features
from ..obs import trace as obs_trace
from ..surrogate.network import CmpNeuralNetwork, PlanarityEvaluation
from ..surrogate.objectives import PlanarityWeights
from .stats import ServeStats


class _Pending:
    """One parked request awaiting a flush."""

    __slots__ = ("request", "member", "enqueued_at", "event", "result",
                 "error")

    def __init__(self, request, member: bool):
        self.request = request
        self.member = member
        self.enqueued_at = time.monotonic()
        self.event = threading.Event()
        self.result = None
        self.error: BaseException | None = None


class _FlushCore:
    """Parking, the flush rule and the flusher thread of a batcher.

    Subclasses name their flush span and stats kind and implement
    :meth:`_run_group`, which sets ``result`` on every member of a group
    (raising propagates the error into every waiter).

    Args:
        max_batch: flush as soon as this many requests are parked;
            ``1`` disables coalescing (calls pass straight through).
        max_delay_s: flush the oldest request after waiting this long
            even if a registered peer is still running — bounds added
            latency.
        stats: optional sink for the batch-size histogram and the flush
            reasons.
    """

    _flush_span = ""
    _stats_kind = ""
    _thread_name = ""

    def __init__(self, max_batch: int = 16, max_delay_s: float = 0.004,
                 stats: ServeStats | None = None):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_s < 0:
            raise ValueError(f"max_delay_s must be >= 0, got {max_delay_s}")
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self.stats = stats
        self._pending: dict[tuple, list[_Pending]] = {}
        self._cond = threading.Condition()
        self._closed = False
        # Registered jobs (thread ident -> nesting depth), and how many
        # of them are parked or inside a running flush.
        self._members: dict[int, int] = {}
        self._held = 0
        self._thread: threading.Thread | None = None
        if max_batch > 1:
            self._thread = threading.Thread(
                target=self._flush_loop, name=self._thread_name, daemon=True)
            self._thread.start()

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def member(self) -> Iterator[None]:
        """Register the calling thread as a job that may call this batcher.

        While no registered job is running outside the batcher, parked
        groups flush at once instead of waiting out ``max_delay_s``.
        The registration is released however the block exits.
        """
        if self.max_batch <= 1:
            yield
            return
        ident = threading.get_ident()
        with self._cond:
            self._members[ident] = self._members.get(ident, 0) + 1
        try:
            yield
        finally:
            with self._cond:
                depth = self._members.pop(ident) - 1
                if depth:
                    self._members[ident] = depth
                self._cond.notify_all()

    def close(self) -> None:
        """Stop the flusher after draining every parked request."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    # ------------------------------------------------------------------
    def _submit(self, key: tuple, request, direct: Callable[[], object]):
        """Park ``request`` in group ``key`` and return its result, or run
        ``direct()`` when coalescing is off or the batcher has closed."""
        if self.max_batch <= 1:
            return direct()
        with self._cond:
            if self._closed:  # flusher may already have drained and exited
                pending = None
            else:
                member = threading.get_ident() in self._members
                pending = _Pending(request, member)
                self._held += member
                self._pending.setdefault(key, []).append(pending)
                self._cond.notify_all()
        if pending is None:
            return direct()
        pending.event.wait()
        if pending.error is not None:
            raise pending.error
        return pending.result

    def _take_groups(self) -> list[tuple[tuple, list[_Pending], str]]:
        """Pop what should flush now as ``(key, group, reason)``, or ``[]``
        to keep waiting (condition held).

        A full, closing or overdue group flushes alone, oldest first.
        When every registered job is held, no parked group can grow, so
        all of them flush in one round.
        """
        now = time.monotonic()
        best_key, best_age, best_reason = None, -1.0, ""
        for key, group in self._pending.items():
            age = now - group[0].enqueued_at
            if len(group) >= self.max_batch:
                reason = "full"
            elif self._closed:
                reason = "closing"
            elif age >= self.max_delay_s:
                reason = "deadline"
            else:
                continue
            if age > best_age:
                best_key, best_age, best_reason = key, age, reason
        if best_key is not None:
            return [(best_key, self._pop(best_key), best_reason)]
        if self._members and self._held >= len(self._members):
            return [(key, self._pop(key), "idle")
                    for key in list(self._pending)]
        return []

    def _pop(self, key: tuple) -> list[_Pending]:
        group = self._pending[key]
        take, rest = group[:self.max_batch], group[self.max_batch:]
        if rest:
            self._pending[key] = rest
        else:
            del self._pending[key]
        return take

    def _next_deadline(self) -> float | None:
        """Monotonic time of the earliest deadline flush (cond held)."""
        oldest = min((group[0].enqueued_at
                      for group in self._pending.values()), default=None)
        return None if oldest is None else oldest + self.max_delay_s

    def _flush_loop(self) -> None:
        while True:
            with self._cond:
                while True:
                    taken = self._take_groups()
                    if taken:
                        break
                    if self._closed and not self._pending:
                        return
                    deadline = self._next_deadline()
                    timeout = (None if deadline is None
                               else max(0.0, deadline - time.monotonic()))
                    self._cond.wait(timeout)
            for key, group, reason in taken:
                self._flush(key, group, reason)

    def _flush(self, key: tuple, group: list[_Pending], reason: str) -> None:
        wait_s = time.monotonic() - group[0].enqueued_at
        try:
            with obs_trace.span(self._flush_span, cat="serve",
                                size=len(group), reason=reason,
                                wait_s=round(wait_s, 6)):
                self._run_group(key, group)
        except BaseException as exc:  # propagate into every waiter
            for p in group:
                p.error = exc
        finally:
            if self.stats is not None:
                self.stats.record_flush(self._stats_kind, len(group), reason)
            with self._cond:
                self._held -= sum(p.member for p in group)
            for p in group:
                p.event.set()

    def _run_group(self, key: tuple, group: list[_Pending]) -> None:
        raise NotImplementedError


class MicroBatcher(_FlushCore):
    """Coalesces single-fill evaluations against one bound network.

    Args:
        network: the bound :class:`CmpNeuralNetwork` to evaluate on.
        max_batch / max_delay_s / stats: see :class:`_FlushCore`.
    """

    _flush_span = "serve.batch_flush"
    _stats_kind = "batch"
    _thread_name = "repro-serve-batcher"

    def __init__(self, network: CmpNeuralNetwork, max_batch: int = 16,
                 max_delay_s: float = 0.004,
                 stats: ServeStats | None = None):
        self.network = network
        super().__init__(max_batch, max_delay_s, stats)

    def evaluate(self, fill: np.ndarray, weights: PlanarityWeights,
                 want_grad: bool = True) -> PlanarityEvaluation:
        """Drop-in for ``network.evaluate``, transparently coalesced."""
        return self._submit(
            dataclasses.astuple(weights),
            (np.asarray(fill, dtype=float), want_grad),
            lambda: self.network.evaluate(fill, weights, want_grad=want_grad))

    def _run_group(self, key: tuple, group: list[_Pending]) -> None:
        fills = np.stack([p.request[0] for p in group])
        mask = np.array([p.request[1] for p in group], dtype=bool)
        batch = self.network.evaluate_batch(fills, PlanarityWeights(*key),
                                            grad_mask=mask)
        for k, p in enumerate(group):
            gradient = None
            if mask[k] and batch.gradient is not None:
                gradient = batch.gradient[k].copy()
            p.result = PlanarityEvaluation(
                s_plan=float(batch.s_plan[k]),
                breakdown=batch.breakdowns[k],
                heights=batch.heights[k].copy(),
                gradient=gradient,
            )


class SimulateBatcher(_FlushCore):
    """Coalesces concurrent ``simulate`` jobs into batched polishes.

    Requests coalesce only when they share the process calibration,
    window size, compute dtype and feature-stack shape — different
    layouts on one grid stack fine; different physics never mix.  The
    fidelity contract is *stronger* than the network batcher's: the
    batched simulator is **bitwise identical** to looping ``simulate``,
    so coalescing can never change a job's reported numbers.

    Args:
        max_batch / max_delay_s / stats: see :class:`_FlushCore`.
    """

    _flush_span = "serve.sim_flush"
    _stats_kind = "sim"
    _thread_name = "repro-serve-sim-batcher"

    def simulate(self, features: FeatureStack,
                 simulator: CmpSimulator) -> CmpResult:
        """Drop-in for ``simulator.simulate``, transparently coalesced."""
        # ProcessParams is a frozen dataclass, so the physics coalesces
        # by value: two jobs with the same polish-time override share a
        # group even though each built its own simulator instance.
        key = (simulator.params, simulator.window_um, simulator.dtype,
               features.shape)
        return self._submit(key, (features, simulator),
                            lambda: simulator.simulate(features))

    def _run_group(self, key: tuple, group: list[_Pending]) -> None:
        # Every member shares the group key, so any member's simulator
        # carries the group's physics.
        simulator = group[0].request[1]
        if len(group) == 1:
            group[0].result = simulator.simulate(group[0].request[0])
            return
        batch = simulator.simulate_batch(
            stack_features([p.request[0] for p in group]))
        for k, p in enumerate(group):
            p.result = batch.entry(k)


class CoalescedNetwork:
    """A :class:`CmpNeuralNetwork` facade routing single evaluations
    through a shared :class:`MicroBatcher`.

    Hands ``evaluate`` to the batcher and delegates everything else
    (``layout``, ``evaluate_batch``, ``predict_heights``, ...) to the
    wrapped network, so :class:`repro.core.msp_sqp.QualityModel` and
    :class:`repro.core.neurfill.NeurFill` work unmodified.  In-job
    stacked passes (batched MSP-SQP) are already batched and pass
    through untouched.
    """

    def __init__(self, network: CmpNeuralNetwork, batcher: MicroBatcher):
        self._network = network
        self._batcher = batcher

    def evaluate(self, fill: np.ndarray, weights: PlanarityWeights,
                 want_grad: bool = True) -> PlanarityEvaluation:
        return self._batcher.evaluate(fill, weights, want_grad=want_grad)

    def member(self):
        """Register the calling job with the shared batcher
        (:meth:`MicroBatcher.member`)."""
        return self._batcher.member()

    def __getattr__(self, name: str):
        return getattr(self._network, name)
