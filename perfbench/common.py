"""Shared pieces of the benchmark: statistics, run environment, metadata.

Nothing here imports numpy or the ``repro`` package at module level, so
``run.py`` can pin the BLAS/OpenMP thread environment before either is
loaded.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

#: Repository root of the checkout the benchmark runs in.
ROOT = Path(__file__).resolve().parent.parent

#: Where the program under test lives; the benchmark imports it from here.
SRC = ROOT / "src"

#: Per-run working directories (checkpoints, layouts, plan cache, spans).
RUNS_DIR = Path(__file__).resolve().parent / ".runs"

#: Thread-count variables pinned for every workload process.  One thread
#: each: the host has few cores, and the serve workload already runs
#: several worker threads; BLAS threads on top of them only add noise.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

#: A tail percentile is only supported by a sample with at least this
#: many observations beyond it.
MIN_BEYOND = 10


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def nearest_rank(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``samples``."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered))
    return float(ordered[max(rank, 1) - 1])


def percentile_supported(n: int, q: float, beyond: int = MIN_BEYOND) -> bool:
    """Whether ``n`` samples leave at least ``beyond`` of them above the
    nearest-rank ``q``-th percentile."""
    if n <= 0:
        return False
    rank = max(math.ceil(q / 100.0 * n), 1)
    return n - rank >= beyond


def lateness(due, sent) -> list[float]:
    """How late each send ran against its due time (never negative: a
    sender that is early waits, so early sends count as on time)."""
    if len(due) != len(sent):
        raise ValueError("due and sent times must pair up")
    return [max(0.0, s - d) for d, s in zip(due, sent)]


def open_loop_latency(due: float, done: float) -> float:
    """Open-loop latency runs from when the job was due, not when it was
    sent, so a stalled sender charges its stall to every later job."""
    return done - due


# ----------------------------------------------------------------------
# run environment
# ----------------------------------------------------------------------
def pin_environment(run_dir: Path) -> dict:
    """Pin thread counts and point every cache the program may read or
    write at a fresh path inside this run's directory.

    Must run before numpy is imported.  Returns the variables set, which
    are recorded with the result.
    """
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    pinned = dict(THREAD_ENV)
    pinned.update({
        # A fresh plan file per run: calibrated conv plans from an
        # earlier run (or from ~/.cache) must never be read.
        "REPRO_CONV_PLAN_CACHE": str(run_dir / "conv_plans.json"),
        "TMPDIR": str(tmp),
        "PYTHONHASHSEED": "0",
    })
    os.environ.update(pinned)
    # Serve children import the package from the checkout's src/.
    path = os.environ.get("PYTHONPATH", "")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    pinned["PYTHONPATH"] = os.environ["PYTHONPATH"]
    return pinned


def cpu_times() -> list[int] | None:
    """The host-wide CPU time counters (``/proc/stat``), or ``None``."""
    try:
        with open("/proc/stat") as stat:
            return [int(x) for x in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_fraction(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of CPU time the hypervisor gave to others between two
    :func:`cpu_times` readings: a run with a high share met a busy host."""
    if not before or not after or len(before) < 8 or len(after) < 8:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else None


def new_run_dir(workload: str, seed: int, trace: int) -> Path:
    stamp = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}-{time.monotonic_ns()}"
    path = RUNS_DIR / f"{workload}-s{seed}-t{trace}-{stamp}"
    path.mkdir(parents=True, exist_ok=False)
    return path


def peak_rss_mb_self() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _proc_children(pid: int) -> list[int]:
    kids: list[int] = []
    task_dir = Path(f"/proc/{pid}/task")
    try:
        tasks = list(task_dir.iterdir())
    except OSError:
        return kids
    for task in tasks:
        try:
            kids += [int(x) for x in (task / "children").read_text().split()]
        except (OSError, ValueError):
            continue
    return kids


def peak_rss_mb_tree(pid: int) -> float:
    """Sum of peak resident sets (``VmHWM``) over a live process tree."""
    total_kb = 0
    stack = [pid]
    seen: set[int] = set()
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        try:
            for line in Path(f"/proc/{current}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
        except (OSError, ValueError):
            continue
        stack += _proc_children(current)
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# metadata recorded with every result
# ----------------------------------------------------------------------
def source_digest() -> str:
    """SHA-256 over the program's source files, so a result identifies
    the code it measured even where the checkout is not a git repo."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def blas_info() -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 has no dict mode
        return {"numpy": np.__version__}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_config": blas.get("openblas configuration")}


def plan_summary(table: dict) -> dict:
    """Chosen conv plans: calibrated keys -> backend, plus a table hash."""
    chosen = sorted((key, plan.get("backend"), plan.get("source"))
                    for key, plan in table.items())
    blob = json.dumps(chosen).encode()
    return {
        "plans": len(chosen),
        "calibrated": {key: backend for key, backend, source in chosen
                       if source == "calibrated"},
        "hash": int(hashlib.sha256(blob).hexdigest()[:8], 16),
    }


def metadata(pinned_env: dict) -> dict:
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        **blas_info(),
        "env": pinned_env,
    }
