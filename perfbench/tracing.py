"""Per-layer tracing from outside the program.

:func:`install` wraps public entry points of each layer (surrogate, nn,
optimize, cmp, core, serve) with span recorders; :func:`uninstall` puts
the originals back.  Spans live in memory in a :class:`SpanStore` — name,
start, end, parent span, job id and a few counts — and are written out
once, at the end of the run.  The untraced run never calls
:func:`install`, so it executes the program's own functions untouched.

Clocks are ``time.monotonic()``: system-wide on Linux, so spans written
by a traced serve child line up with the load generator's timestamps.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
import weakref
from pathlib import Path


class SpanStore:
    """In-memory span list with a per-thread parent stack and job id."""

    def __init__(self, keep_networks: bool = False):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Networks the program binds.  Weakly held by default, so a
        # traced run frees them exactly as the untraced one does; a
        # traced server keeps them, because its bound-network cache
        # evicts networks whose capture counters the run still needs.
        self.networks = [] if keep_networks else weakref.WeakSet()
        self._keep = keep_networks

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def track(self, network) -> None:
        if self._keep:
            self.networks.append(network)
        else:
            self.networks.add(network)

    def set_job(self, job_id: str | None) -> None:
        """Tag spans this thread opens from now on with ``job_id``."""
        self._local.job = job_id

    def job(self) -> str | None:
        return getattr(self._local, "job", None)

    def record(self, name: str, fn, args, kwargs, counts=None):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        t0 = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.monotonic()
            stack.pop()
        extra = counts(args, kwargs, result) if counts is not None else None
        # list.append is atomic under the GIL; spans from worker threads
        # interleave safely.
        self.spans.append((span_id, parent, self.job(), name, t0, t1, extra))
        return result

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, job, name, t0, t1, extra in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "job": job, "name": name, "t0": t0,
                                     "t1": t1, "extra": extra}) + "\n")


def read_spans(path: Path) -> list[tuple]:
    spans = []
    with open(path) as fh:
        for line in fh:
            r = json.loads(line)
            spans.append((r["id"], r["parent"], r["job"], r["name"],
                          r["t0"], r["t1"], r["extra"]))
    return spans


# ----------------------------------------------------------------------
# what gets wrapped
# ----------------------------------------------------------------------
def _batch_rows(args, kwargs, result):
    fills = args[1] if len(args) > 1 else kwargs["fills"]
    return {"rows": int(len(fills))}


def _nmmso_evals(args, kwargs, result):
    return {"evals": int(result.evaluations)}


def _sqp_iterations(args, kwargs, result):
    return {"iterations": int(sum(r.iterations for r in result.results))}


def _eco_free(args, kwargs, result):
    eco = result.extras.get("eco", {})
    return {"free_fraction": float(eco.get("free_fraction", 0.0))}


#: (module, attribute path, span name, count extractor).  Module-level
#: functions are patched in every module that imported them by name,
#: because the program calls them through those bindings.
TARGETS = [
    ("repro.surrogate.network", "CmpNeuralNetwork.evaluate", "surrogate.evaluate", None),
    ("repro.surrogate.network", "CmpNeuralNetwork.evaluate_batch", "surrogate.evaluate_batch", _batch_rows),
    ("repro.surrogate.network", "CmpNeuralNetwork.evaluate_region", "surrogate.evaluate_region", None),
    ("repro.surrogate.train", "train_unet", "surrogate.train", None),
    ("repro.surrogate.train", "build_dataset", "surrogate.datagen", None),
    ("repro.nn.dispatch", "corr2d", "nn.corr", None),
    ("repro.nn.dispatch", "corr2d_weight_grad", "nn.wgrad", None),
    ("repro.optimize.nmmso", "Nmmso.run", "optimize.nmmso", _nmmso_evals),
    ("repro.core.neurfill", "msp_sqp", "optimize.sqp", _sqp_iterations),
    ("repro.cmp.simulator", "CmpSimulator.simulate", "cmp.simulate", None),
    ("repro.cmp.simulator", "CmpSimulator.simulate_batch", "cmp.simulate", None),
    ("repro.cmp.simulator", "CmpSimulator.simulate_layout", "cmp.simulate", None),
    ("repro.core.neurfill", "pkb_starting_point", "core.pkb", None),
    ("repro.core.problem", "ScoreCoefficients.calibrated", "core.coefficients", None),
    ("repro.core.degradation", "PerformanceDegradation.evaluate", "core.degradation", None),
    ("repro.core.eco", "eco_refill", "core.eco", _eco_free),
    ("repro.serve.executor", "eco_refill", "core.eco", _eco_free),
]


class _Patch:
    def __init__(self, owner, attr, original):
        self.owner, self.attr, self.original = owner, attr, original


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _wrapper(store: SpanStore, name: str, fn, counts):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        return store.record(name, fn, args, kwargs, counts)
    return wrapped


def install(store: SpanStore) -> list[_Patch]:
    """Wrap every target; returns the patches for :func:`uninstall`."""
    patches: list[_Patch] = []
    for module_name, path, name, counts in TARGETS:
        owner, attr = _resolve(module_name, path)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        patches.append(_Patch(owner, attr, raw))
        if isinstance(raw, classmethod):
            wrapped = classmethod(_wrapper(store, name, raw.__func__, counts))
        else:
            wrapped = _wrapper(store, name, raw, counts)
        setattr(owner, attr, wrapped)

    # Remember every network the program binds, to read its public
    # capture counters at phase boundaries.
    from repro.surrogate.network import CmpNeuralNetwork

    init = CmpNeuralNetwork.__dict__["__init__"]
    patches.append(_Patch(CmpNeuralNetwork, "__init__", init))

    @functools.wraps(init)
    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        store.track(self)
    CmpNeuralNetwork.__init__ = tracked_init

    # Served jobs: one span per job, tagged with the request id.
    from repro.serve.executor import JobExecutor

    execute = JobExecutor.__dict__["execute"]
    patches.append(_Patch(JobExecutor, "execute", execute))

    @functools.wraps(execute)
    def traced_execute(self, request):
        previous = store.job()
        store.set_job(request.id)
        try:
            return store.record("serve.execute", execute, (self, request), {})
        finally:
            store.set_job(previous)
    JobExecutor.execute = traced_execute
    return patches


def uninstall(patches: list[_Patch]) -> None:
    for patch in reversed(patches):
        setattr(patch.owner, patch.attr, patch.original)


def installed() -> bool:
    """Whether any wrapper is currently in place (used by the tests)."""
    from repro.nn import dispatch

    return hasattr(dispatch.corr2d, "__wrapped__")


#: Public capture counters summed across networks and phases.
CAPTURE_COUNTERS = ("trace", "replay", "miss", "bypass")


def merge_capture(stats_list) -> dict:
    """Sum the counters of several ``capture_stats()`` results (or of
    earlier merges); the arena is the largest single one."""
    totals = dict.fromkeys(CAPTURE_COUNTERS, 0)
    totals["arena_bytes"] = 0
    for stats in stats_list:
        for key in CAPTURE_COUNTERS:
            totals[key] += int(stats[key])
        totals["arena_bytes"] = max(totals["arena_bytes"], int(stats["arena_bytes"]))
    return totals


def capture_totals(networks) -> dict:
    """Summed public capture counters of ``networks``."""
    return merge_capture(network.capture_stats() for network in list(networks))


def capture_delta(before: dict, after: dict) -> dict:
    """Counters gained between two totals; the arena as of ``after``."""
    delta = {key: after[key] - before[key] for key in CAPTURE_COUNTERS}
    delta["arena_bytes"] = after["arena_bytes"]
    return delta


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
_OBJECTIVE = ("surrogate.evaluate", "surrogate.evaluate_batch",
              "surrogate.evaluate_region", "core.degradation")


def layer_metrics(spans: list[tuple], setup_window: tuple[float, float],
                  op_window: tuple[float, float], n_setups: int,
                  n_ops: int) -> dict[str, float]:
    """Per-layer figures from spans: set-up figures per set-up, op-phase
    figures per op.  Nested spans of the same layer are counted once (a
    ``simulate_layout`` that calls ``simulate`` is one simulator call)."""
    by_id = {s[0]: s for s in spans}

    def phase_of(t0: float) -> str | None:
        if setup_window[0] <= t0 <= setup_window[1]:
            return "setup"
        if op_window[0] <= t0 <= op_window[1]:
            return "op"
        return None

    def nested_in_same(span) -> bool:
        parent = by_id.get(span[1])
        return parent is not None and parent[3] == span[3]

    sums: dict[tuple[str, str], float] = {}
    counts: dict[tuple[str, str], int] = {}
    extras: dict[tuple[str, str], float] = {}
    free_fractions: list[float] = []
    sqp_objective: dict[int, float] = {}
    for span in spans:
        span_id, parent, _job, name, t0, t1, extra = span
        phase = phase_of(t0)
        if phase is None or nested_in_same(span):
            continue
        key = (phase, name)
        sums[key] = sums.get(key, 0.0) + (t1 - t0)
        counts[key] = counts.get(key, 0) + 1
        for field, value in (extra or {}).items():
            if field == "free_fraction":
                if phase == "op":
                    free_fractions.append(value)
                continue
            extras[(phase, f"{name}.{field}")] = \
                extras.get((phase, f"{name}.{field}"), 0.0) + value
        if name in _OBJECTIVE:
            # Charge this objective evaluation to the nearest enclosing
            # SQP span, unless another objective span already encloses it.
            up = by_id.get(parent)
            while up is not None and up[3] not in _OBJECTIVE \
                    and up[3] != "optimize.sqp":
                up = by_id.get(up[1])
            if up is not None and up[3] == "optimize.sqp":
                sqp_objective[up[0]] = sqp_objective.get(up[0], 0.0) + (t1 - t0)

    ops = max(n_ops, 1)
    setups = max(n_setups, 1)

    def op_s(name):
        return sums.get(("op", name), 0.0) / ops

    def op_n(name):
        return counts.get(("op", name), 0) / ops

    def setup_s(name):
        return sums.get(("setup", name), 0.0) / setups

    sqp_spans = [s for s in spans if s[3] == "optimize.sqp"
                 and phase_of(s[4]) == "op"]
    sqp_self = sum((s[5] - s[4]) - sqp_objective.get(s[0], 0.0)
                   for s in sqp_spans)
    eval_calls = counts.get(("op", "surrogate.evaluate"), 0)
    region_calls = counts.get(("op", "surrogate.evaluate_region"), 0)
    batch_calls = counts.get(("op", "surrogate.evaluate_batch"), 0)
    batch_rows = extras.get(("op", "surrogate.evaluate_batch.rows"), 0.0)
    eval_time = (sums.get(("op", "surrogate.evaluate"), 0.0)
                 + sums.get(("op", "surrogate.evaluate_batch"), 0.0)
                 + sums.get(("op", "surrogate.evaluate_region"), 0.0))
    rows_total = eval_calls + region_calls + batch_rows
    return {
        "surrogate.train_s": setup_s("surrogate.train"),
        "surrogate.datagen_s": setup_s("surrogate.datagen"),
        "surrogate.evaluate_calls": op_n("surrogate.evaluate"),
        "surrogate.evaluate_s": op_s("surrogate.evaluate"),
        "surrogate.evaluate_batch_calls": op_n("surrogate.evaluate_batch"),
        "surrogate.evaluate_batch_s": op_s("surrogate.evaluate_batch"),
        "surrogate.evaluate_region_calls": op_n("surrogate.evaluate_region"),
        "surrogate.evaluate_region_s": op_s("surrogate.evaluate_region"),
        "surrogate.batch_rows_mean": batch_rows / batch_calls if batch_calls else 0.0,
        "surrogate.s_per_eval": eval_time / rows_total if rows_total else 0.0,
        "nn.corr_s": op_s("nn.corr"),
        "nn.wgrad_s": op_s("nn.wgrad"),
        "nn.setup_corr_s": setup_s("nn.corr"),
        "nn.setup_wgrad_s": setup_s("nn.wgrad"),
        "optimize.nmmso_s": op_s("optimize.nmmso"),
        "optimize.nmmso_evals": extras.get(("op", "optimize.nmmso.evals"), 0.0) / ops,
        "optimize.sqp_iterations": extras.get(("op", "optimize.sqp.iterations"), 0.0) / ops,
        "optimize.sqp_self_s": sqp_self / ops,
        "cmp.simulate_calls": op_n("cmp.simulate"),
        "cmp.simulate_s": op_s("cmp.simulate"),
        "cmp.setup_simulate_s": setup_s("cmp.simulate"),
        "core.pkb_s": op_s("core.pkb"),
        "core.coefficients_s": op_s("core.coefficients"),
        "core.degradation_s": op_s("core.degradation"),
        "core.eco_s": op_s("core.eco"),
        "core.eco_free_frac": (sum(free_fractions) / len(free_fractions)
                               if free_fractions else 0.0),
        "serve.execute_calls": op_n("serve.execute"),
    }
