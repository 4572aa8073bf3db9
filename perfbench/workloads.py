"""The three workloads.  Each returns a :class:`Outcome`: set-up times,
per-op latencies and check results, and the figures the traced run
reports.  Checks run after the timed phase, so they never add to a
measured latency."""

from __future__ import annotations

import gc
import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.cmp import CmpSimulator
from repro.core import FillProblem, NeurFill, ScoreCoefficients
from repro.core.msp_sqp import QualityModel
from repro.core.scoring import planarity_metrics
from repro.layout.designs import make_design_a, make_design_b, make_design_c
from repro.layout.diff import edit_layout
from repro.layout.io import save_layout
from repro.nn import dispatch
from repro.optimize import SqpOptimizer
from repro.serve import ServeClient, ServeError
from repro.serve.protocol import TERMINAL_STATUSES
from repro.surrogate import TrainConfig, load_surrogate, pretrain_surrogate, save_surrogate
from repro.surrogate.network import CmpNeuralNetwork

import checks
import common
import inputs as wl_inputs
import tracing

#: Set-up repetitions per run; the median is reported.  Twice only: a
#: mm-fill set-up trains the CLI-default surrogate (~12 s).
SETUPS = {"mm-fill": 2, "fullchip-pkb": 2, "serve-mix": 2}

#: Latency limit per op (s) for goodput, on the open loop only: a
#: served job is good if it passed its checks within the limit, 2 s:
#: about four times a lone served 6x6 fill (0.45 s on a 2-core host).  The
#: closed loops have no limit (one op at a time, nobody waits on them),
#: so their goodput counts every op that passed its checks.
LATENCY_LIMIT_S = {"serve-mix": 2.0}

#: The CLI's SQP settings.
CLI_SQP = dict(max_iter=80, tol=1e-9)

#: fullchip-pkb caps SQP at this many iterations: the CLI's 80 take
#: ~45 s per 128x128 op on a 2-core host, which leaves no room for more
#: than one op per run; at 3 a run holds four or more ops.  Every layer the workload exists for (calibrated
#: conv plans, a fresh capture trace per job, monolithic 130x130
#: activations, simulator selection) still runs on every op.
FULLCHIP_SQP_ITERS = 3

#: fullchip-pkb / serve-mix surrogate training (samples, epochs).
SMALL_TRAIN = (12, 6)


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    run_dir: Path
    store: object | None = None   # tracing.SpanStore in the traced run

    def set_job(self, job: str | None) -> None:
        if self.store is not None:
            self.store.set_job(job)


@dataclass
class Op:
    latency: float
    ok: bool = True
    reason: str | None = None
    quality: float | None = None
    #: False for a check-only op outside the timed phase: it counts
    #: toward attempted/failed, not toward latency or throughput.
    timed: bool = True


@dataclass
class Outcome:
    setup_times: list[float]
    ops: list[Op]
    op_span: float                       # wall seconds of the op phase
    setup_window: tuple[float, float]
    op_window: tuple[float, float]
    peak_rss_mb: float
    capture: dict = field(default_factory=dict)
    plans: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)   # extra per-layer figures
    notes: dict = field(default_factory=dict)


def _train(sources, target, tile: int, samples: int, epochs: int, sim):
    network, _, _ = pretrain_surrogate(
        sources, target, sample_count=samples, tile_rows=tile, tile_cols=tile,
        base_channels=8, depth=2,
        config=TrainConfig(epochs=epochs, batch_size=8),
        simulator=sim, seed=0)
    return network


def _repeat_setup(ctx: Context, build, teardown=None):
    """Run ``build`` SETUPS times, timing each; keep the last state."""
    times: list[float] = []
    state = None
    start = time.monotonic()
    for r in range(SETUPS[ctx.workload]):
        if state is not None and teardown is not None:
            teardown(state)
        state = None
        gc.collect()
        ctx.set_job(f"setup-{r}")
        t0 = time.perf_counter()
        state = build(r)
        times.append(time.perf_counter() - t0)
    ctx.set_job(None)
    return state, times, (start, time.monotonic())


def _closed_loop(ctx: Context, op, cycle: int):
    """One op at a time, in whole cycles of ``cycle`` ops, until
    ``--seconds`` have passed: every run measures the same op mix.
    Returns (latencies, outputs, errors, phase wall, window)."""
    latencies, outputs, errors = [], [], []
    start = time.monotonic()
    t_start = time.perf_counter()
    i = 0
    while i % cycle or time.perf_counter() - t_start < ctx.seconds:
        ctx.set_job(f"op-{i}")
        t0 = time.perf_counter()
        try:
            outputs.append(op(i))
            errors.append(None)
        except Exception as exc:  # an op that raises is a failed op
            outputs.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - t0)
        # Networks hold reference cycles; free the last op's before the
        # next one starts, as a fresh CLI process would.
        gc.collect()
        i += 1
    span = time.perf_counter() - t_start
    ctx.set_job(None)
    return latencies, outputs, errors, span, (start, time.monotonic())


# ----------------------------------------------------------------------
# mm-fill
# ----------------------------------------------------------------------
def mm_fill(ctx: Context) -> Outcome:
    spec = wl_inputs.mm_inputs(ctx.seed)
    grid = wl_inputs.MM_GRID
    layout = make_design_c(grid, grid, seed=spec.layout_seed)
    sim = CmpSimulator()

    def build(_r):
        # What `repro fill --method neurfill-mm` does before it searches.
        problem = FillProblem(layout, ScoreCoefficients.calibrated(
            layout, sim, beta_runtime=60.0))
        network = _train([layout], layout, grid, 30, 20, sim)
        return NeurFill(problem, network, optimizer=SqpOptimizer(**CLI_SQP),
                        simulator=sim)

    neurfill, setup_times, setup_window = _repeat_setup(ctx, build)
    network = neurfill.model.network

    def op(i):
        return neurfill.run("mm", seed=spec.nmmso_seeds[i % len(spec.nmmso_seeds)],
                            max_evaluations=500, top_k=3)

    # Capture counters are read in the traced run only.
    before = tracing.capture_totals([network]) if ctx.store is not None else None
    latencies, results, errors, span, op_window = _closed_loop(
        ctx, op, len(spec.nmmso_seeds))
    capture = ({} if before is None
               else tracing.capture_delta(before, tracing.capture_totals([network])))
    peak = common.peak_rss_mb_self()
    ops = []
    for latency, result, error in zip(latencies, results, errors):
        if error:
            ops.append(Op(latency, ok=False, reason=error))
            continue
        quality, reason = checks.rescore(neurfill.problem, result.fill, sim)
        ops.append(Op(latency, ok=reason is None, reason=reason, quality=quality))
    return Outcome(setup_times, ops, span, setup_window, op_window, peak,
                   capture=capture, plans=dispatch.plan_table())


# ----------------------------------------------------------------------
# fullchip-pkb
# ----------------------------------------------------------------------
def fullchip_pkb(ctx: Context) -> Outcome:
    spec = wl_inputs.fullchip_inputs(ctx.seed)
    grid = wl_inputs.FULLCHIP_GRID
    source = make_design_a(grid, grid, seed=spec.source_seed)
    sim = CmpSimulator()
    samples, epochs = SMALL_TRAIN

    def build(_r):
        # Cold dispatcher each time: calibration belongs to set-up.
        dispatch.clear_caches(reload_persisted=False)
        network = _train([source], source, wl_inputs.FULLCHIP_TILE, samples, epochs, sim)
        # One warm evaluate at the op shape finishes conv calibration.
        problem = FillProblem(source, ScoreCoefficients.calibrated(
            source, sim, beta_runtime=60.0))
        QualityModel(problem, network).evaluate(0.5 * problem.upper)
        return network

    trained, setup_times, setup_window = _repeat_setup(ctx, build)
    captures: list[dict] = []

    def op(i):
        # The CLI fill path on a new layout: calibrated coefficients,
        # a network bound to it, PKB with simulator selection, SQP.
        layout = make_design_a(grid, grid, seed=spec.layout_seeds[i % len(spec.layout_seeds)])
        problem = FillProblem(layout, ScoreCoefficients.calibrated(
            layout, sim, beta_runtime=60.0))
        network = CmpNeuralNetwork(layout, trained.unet, trained.normalizer)
        neurfill = NeurFill(problem, network, simulator=sim, optimizer=SqpOptimizer(
            max_iter=FULLCHIP_SQP_ITERS, tol=CLI_SQP["tol"]))
        result = neurfill.run("pkb")
        if ctx.store is not None:
            captures.append(tracing.capture_totals([network]))
        return problem, result

    latencies, outputs, errors, span, op_window = _closed_loop(ctx, op, 1)
    peak = common.peak_rss_mb_self()
    ops = []
    for latency, output, error in zip(latencies, outputs, errors):
        if error:
            ops.append(Op(latency, ok=False, reason=error))
            continue
        problem, result = output
        quality, reason = checks.rescore(problem, result.fill, sim)
        if reason is None:
            reason = checks.pkb_guard(problem, result, sim, quality)
        ops.append(Op(latency, ok=reason is None, reason=reason, quality=quality))
    return Outcome(setup_times, ops, span, setup_window, op_window, peak,
                   capture=tracing.merge_capture(captures) if captures else {},
                   plans=dispatch.plan_table())


# ----------------------------------------------------------------------
# serve-mix
# ----------------------------------------------------------------------
MODEL = "bench"


def _serve_inputs(ctx: Context):
    spec = wl_inputs.serve_schedule(ctx.seed, ctx.seconds)
    grid, probe_grid = wl_inputs.SERVE_GRID, wl_inputs.PROBE_GRID
    folder = ctx.run_dir / "layouts"
    folder.mkdir()
    layouts = {"pool": [make_design_b(grid, grid, seed=s) for s in spec.pool_seeds],
               "probe": [make_design_b(probe_grid, probe_grid, seed=spec.probe_seed)]}
    parent_of = {job.edit: job.parent for job in spec.jobs if job.kind == "eco"}
    edits = [(layouts["pool"][parent_of[k]], edit) for k, edit in enumerate(spec.edits)]
    edits.append((layouts["probe"][0], spec.probe_edit))
    layouts["eco"] = [edit_layout(layout, layer, slice(r, r + 2), slice(c, c + 2))
                      for layout, (layer, r, c) in edits]
    paths = {}
    for name, group in layouts.items():
        paths[name] = []
        for k, layout in enumerate(group):
            path = folder / f"{name}{k}.json"
            save_layout(layout, path)
            paths[name].append(str(path))
    return spec, layouts, paths


def _spawn_server(ctx: Context, checkpoint: Path, tag: str):
    """Start ``repro serve --pipe`` with the default topology; the traced
    run starts the same server through a wrapper that installs the span
    recorders and writes them out on exit."""
    argv = ["serve", "--pipe", "--model", f"{MODEL}={checkpoint}"]
    if ctx.store is None:
        cmd = [sys.executable, "-m", "repro"] + argv
    else:
        script = Path(__file__).resolve().parent / "traced_server.py"
        cmd = [sys.executable, str(script), str(ctx.run_dir / f"server-{tag}")] + argv
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True,
                            cwd=str(common.ROOT))
    stamped = _Stamped(proc.stdout)
    return ServeClient(stamped, proc.stdin, proc=proc), proc, stamped


class _Stamped:
    """The server's stdout as the client's reader, noting when each line
    arrived: a job is done when its terminal response is read off the
    pipe, not when a thread waiting on it gets to run."""

    def __init__(self, stream):
        self.stream = stream
        self.arrivals: list[tuple[float, str]] = []

    def __iter__(self):
        for line in self.stream:
            self.arrivals.append((time.monotonic(), line))
            yield line


def _fill_params(path: str) -> dict:
    return {"layout_path": path, "method": "neurfill-pkb", "model": MODEL,
            "return_fill": True}


def _stop(client: ServeClient) -> None:
    try:
        client.shutdown(timeout=60)
    finally:
        client.close(timeout=60)


class _LoadGen:
    """Open loop on one connection, from one thread: send each job when
    due, whatever is still in flight; collect the responses after the
    last send.  A job's completion time is when the client's reader
    read its terminal response (:class:`_Stamped`)."""

    def __init__(self, client: ServeClient, stamped: _Stamped, jobs, params_for):
        self.client = client
        self.stamped = stamped
        self.jobs = jobs
        self.params_for = params_for
        n = len(jobs)
        self.due = [0.0] * n
        self.sent = [0.0] * n
        self.done: list[float | None] = [None] * n
        self.responses: list[dict | None] = [None] * n
        self.errors: list[str | None] = [None] * n

    def run(self) -> float:
        start = time.monotonic() + 0.05
        rids = {}
        for job in self.jobs:
            due = start + job.due
            self.due[job.index] = due
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            op, params = self.params_for(job)
            rids[self.client.request(op, params, request_id=f"job-{job.index}")] = job.index
            self.sent[job.index] = time.monotonic()
        deadline = time.monotonic() + 120
        for rid, i in rids.items():
            try:
                self.responses[i] = self.client.wait(
                    rid, timeout=max(0.1, deadline - time.monotonic()))
            except ServeError as exc:
                self.errors[i] = f"{exc.response.get('status')}: {exc.response.get('error')}"
            except (TimeoutError, ConnectionError) as exc:
                self.errors[i] = f"{type(exc).__name__}: {exc}"
        for t, line in self.stamped.arrivals:
            try:
                message = json.loads(line)
            except ValueError:
                continue
            i = rids.get(message.get("id"))
            if (i is not None and self.done[i] is None
                    and message.get("status") in TERMINAL_STATUSES):
                self.done[i] = t
        return start


def _histogram_delta(before: dict, after: dict) -> dict[int, int]:
    out = {}
    for key, count in after.items():
        if key.isdigit():
            delta = count - before.get(key, 0)
            if delta:
                out[int(key)] = delta
    return out


def _call(client: ServeClient, op: str, params: dict) -> dict:
    return client.wait(client.request(op, params), timeout=180)["result"]


def serve_mix(ctx: Context) -> Outcome:
    spec, layouts, paths = _serve_inputs(ctx)
    pool_paths = paths["pool"]
    sim = CmpSimulator()
    samples, epochs = SMALL_TRAIN
    tile = wl_inputs.SERVE_TRAIN_TILE
    source = make_design_b(2 * tile, 2 * tile)

    def build(r):
        checkpoint = ctx.run_dir / f"ckpt{r}"
        network = _train([source], source, tile, samples, epochs, sim)
        save_surrogate(checkpoint, network.unet, network.normalizer,
                       base_channels=8, depth=2)
        client, proc, stamped = _spawn_server(ctx, checkpoint, str(r))
        try:
            client.ping(timeout=120)
            # Warm-up, one job at a time: fill every pool layout (the
            # first SERVE_ECO_PARENTS fills are the ECO parents) and
            # simulate it, so each capture plan is traced before timing.
            parents = []
            for path in pool_paths:
                parents.append(_call(client, "fill", _fill_params(path)))
                _call(client, "simulate", {"layout_path": path})
        except BaseException:
            client.kill()
            raise
        return client, proc, stamped, checkpoint, parents

    (client, proc, stamped, checkpoint, parents), setup_times, setup_window = _repeat_setup(
        ctx, build, teardown=lambda state: _stop(state[0]))

    def params_for(job):
        if job.kind == "fill":
            return "fill", _fill_params(pool_paths[job.parent])
        if job.kind == "simulate":
            return "simulate", {"layout_path": pool_paths[job.parent]}
        return "eco", {"layout_path": paths["eco"][job.edit], "model": MODEL,
                       "parent_fingerprint": parents[job.parent]["layout_fingerprint"],
                       "return_fill": True}

    probe: dict = {}
    try:
        stats_before = client.stats(timeout=60)
        loadgen = _LoadGen(client, stamped, spec.jobs, params_for)
        start = loadgen.run()
        stats_after = client.stats(timeout=60)
        peak = common.peak_rss_mb_tree(proc.pid)
        # Untimed: the probe ECO on a layout large enough to leave
        # windows frozen outside the halo.  Its parent is filled with
        # the rule-based tao method (0.1 s instead of ~6 s for a neural
        # 32x32 fill): what the probe checks is that the neural ECO
        # keeps whatever parent fill it gets outside the halo.
        probe_t0 = time.perf_counter()
        try:
            probe["parent"] = _call(client, "fill", {
                "layout_path": paths["probe"][0], "method": "tao", "return_fill": True})
            probe["eco"] = _call(client, "eco", {
                "layout_path": paths["eco"][-1], "model": MODEL, "return_fill": True,
                "parent_fingerprint": probe["parent"]["layout_fingerprint"],
                "coupling_radius": wl_inputs.PROBE_COUPLING})
        except (ServeError, TimeoutError, ConnectionError) as exc:
            probe["error"] = f"probe: {type(exc).__name__}: {exc}"
        probe_s = time.perf_counter() - probe_t0
    finally:
        _stop(client)
    finished = [d for d in loadgen.done if d is not None]
    op_window = (start, max(finished) if finished else time.monotonic())
    span = op_window[1] - start

    checks_t0 = time.perf_counter()
    ops = _serve_checks(spec, layouts, parents, probe, loadgen, checkpoint, sim)
    checks_s = time.perf_counter() - checks_t0
    batches = _histogram_delta(stats_before.get("batch_histogram", {}),
                               stats_after.get("batch_histogram", {}))
    sim_batches = _histogram_delta(stats_before.get("sim_batch_histogram", {}),
                                   stats_after.get("sim_batch_histogram", {}))
    rows = sum(k * v for k, v in batches.items())
    latency = stats_after.get("latency", {})
    late = common.lateness(loadgen.due, loadgen.sent)
    layers = {
        "serve.queue_wait_p50_s": latency.get("queue_wait", {}).get("p50_ms", 0.0) / 1e3,
        "serve.execute_p50_s": latency.get("execute", {}).get("p50_ms", 0.0) / 1e3,
        "serve.batch_mean": rows / sum(batches.values()) if batches else 0.0,
        "serve.coalesced_frac": (sum(k * v for k, v in batches.items() if k > 1) / rows
                                 if rows else 0.0),
        "serve.sim_batch_mean": (sum(k * v for k, v in sim_batches.items())
                                 / sum(sim_batches.values()) if sim_batches else 0.0),
        "loadgen.late_p99_s": common.nearest_rank(late, 99),
    }
    notes = {"late_p99_supported": common.percentile_supported(len(late), 99),
             "jobs": len(spec.jobs), "rate_per_s": wl_inputs.SERVE_RATE,
             "probe_eco": probe.get("eco", {}).get("eco"),
             # Untimed phases, for the run's wall-time budget.
             "probe_s": probe_s, "checks_s": checks_s}
    capture, plans = {}, {}
    if ctx.store is not None:
        capture, plans = _traced_server_figures(ctx, op_window)
    return Outcome(setup_times, ops, span, setup_window, op_window, peak,
                   capture=capture, plans=plans, layers=layers, notes=notes)


def _traced_server_figures(ctx: Context, op_window: tuple[float, float]):
    """Spans, plan table and capture counters the traced server wrote on
    exit.  Only the kept server's timed-phase spans are merged (its
    warm-up belongs to one set-up of several); capture counters are the
    delta between the two ``stats`` calls that bracket the timed phase."""
    tag = str(SETUPS[ctx.workload] - 1)
    base = ctx.run_dir / f"server-{tag}"
    meta = json.loads(Path(str(base) + ".meta.json").read_text())
    ctx.store.spans.extend(
        span for span in tracing.read_spans(Path(str(base) + ".spans.jsonl"))
        if op_window[0] <= span[4] <= op_window[1])
    snaps = meta["capture_at_stats"]
    capture = tracing.capture_delta(snaps[-2], snaps[-1]) if len(snaps) >= 2 else {}
    return capture, meta["plan_table"]


def _serve_checks(spec, layouts, parents, probe, loadgen, checkpoint, sim) -> list[Op]:
    """Re-score every fill and eco with the simulator, recompute ECO
    exactness outside the halo, compare every simulate job and every
    served fill against in-process one-shot runs on the same inputs."""
    pool, edited = layouts["pool"], layouts["eco"]
    problems = {}

    def problem_of(layout):
        if id(layout) not in problems:
            problems[id(layout)] = FillProblem(layout, ScoreCoefficients.calibrated(
                layout, sim, beta_runtime=60.0))
        return problems[id(layout)]

    rf_halo = load_surrogate(checkpoint, pool[0]).receptive_halo()
    one_shot: dict[int, np.ndarray] = {}
    simulated: dict[int, tuple] = {}

    def rescore(name: str, layout, result: dict):
        """A served fill, its simulator-verified quality and the reason
        it fails, if it does: infeasible, or scored unlike the server."""
        fill = np.asarray(result["fill"], dtype=float)
        quality, reason = checks.rescore(problem_of(layout), fill, sim)
        if reason is None and quality != result["score"]["quality"]:
            reason = (f"{name}: served score {result['score']['quality']!r} != "
                      f"re-scored {quality!r}")
        return fill, quality, reason

    def check_fill(name: str, layout, result: dict) -> tuple[float | None, str | None]:
        """Re-score a served fill and compare it with a one-shot run."""
        fill, quality, reason = rescore(name, layout, result)
        if reason is None:
            if id(layout) not in one_shot:
                network = load_surrogate(checkpoint, layout)
                neurfill = NeurFill(problem_of(layout), network, simulator=sim,
                                    optimizer=SqpOptimizer(**CLI_SQP))
                one_shot[id(layout)] = neurfill.run("neurfill-pkb").fill
            reason = checks.bitwise_equal(name, fill, one_shot[id(layout)])
        return quality, reason

    def check_eco(name: str, parent_layout, parent_result, edited_layout, result,
                  halo: int, min_frozen: int) -> tuple[float | None, str | None]:
        fill, quality, reason = rescore(name, edited_layout, result)
        if reason is None:
            reason = checks.eco_outside_halo(
                parent_layout, edited_layout, np.asarray(parent_result["fill"], dtype=float),
                fill, halo, min_frozen=min_frozen)
        return quality, reason

    # A warm-up fill that fails its check fails every ECO built on it,
    # and counts as a failed check-only op.
    parent_faults = [check_fill(f"warm-up fill {p}", pool[p], parent)[1]
                     for p, parent in enumerate(parents)]

    ops: list[Op] = [Op(0.0, ok=fault is None, reason=fault, timed=False)
                     for fault in parent_faults]
    for job in spec.jobs:
        i = job.index
        latency = common.open_loop_latency(loadgen.due[i], loadgen.done[i]) \
            if loadgen.done[i] is not None else float("inf")
        if loadgen.errors[i] or loadgen.responses[i] is None:
            ops.append(Op(latency, ok=False,
                          reason=loadgen.errors[i] or "no response"))
            continue
        result = loadgen.responses[i]["result"]
        quality, reason = None, None
        if job.kind == "simulate":
            if job.parent not in simulated:
                heights = sim.simulate_layout(pool[job.parent]).height
                simulated[job.parent] = planarity_metrics(heights)
            served = (result["delta_h"], result["sigma"], result["line_deviation"],
                      result["outliers"])
            if tuple(served) != tuple(simulated[job.parent]):
                reason = "simulate job differs from an in-process simulation"
        elif job.kind == "fill":
            quality, reason = check_fill(f"job {i}", pool[job.parent], result)
        else:
            # Default coupling: the halo is twice the receptive field,
            # which frees the whole 6x6 chip; the probe below is the
            # ECO whose frozen set is not empty.
            reason = parent_faults[job.parent]
            if reason is None:
                quality, reason = check_eco(
                    f"job {i}", pool[job.parent], parents[job.parent],
                    edited[job.edit], result, 2 * rf_halo, min_frozen=0)
        ops.append(Op(latency, ok=reason is None, reason=reason, quality=quality))

    if "error" in probe:
        ops.append(Op(0.0, ok=False, reason=probe["error"], timed=False))
    else:
        parent_layout = layouts["probe"][0]
        # Re-scored only: the pool fills already hold served == one-shot,
        # and a one-shot 32x32 fill would add seconds to every run.
        reason = rescore("probe parent", parent_layout, probe["parent"])[2]
        if reason is None:
            reason = check_eco("probe eco", parent_layout, probe["parent"], edited[-1],
                               probe["eco"], rf_halo + wl_inputs.PROBE_COUPLING,
                               min_frozen=1)[1]
        ops.append(Op(0.0, ok=reason is None, reason=reason, timed=False))
    return ops


WORKLOADS = {
    "mm-fill": mm_fill,
    "fullchip-pkb": fullchip_pkb,
    "serve-mix": serve_mix,
}
