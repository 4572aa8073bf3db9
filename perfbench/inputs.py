"""Seeded inputs of every workload.

Each workload draws what it sends to the program from the ``--seed``
the benchmark is given, around a few fixed inputs named below: the same
seed gives the same layouts, edits and open-loop schedule.  The program
only ever sees the generated inputs, never the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# mm-fill op cost depends strongly on the layout and the NMMSO seed
# (5.7-8.6 s per op across NMMSO seeds on one layout; 5.9-7.4 s run
# medians across seeded layouts), and a run affords only three ops.  So
# mm-fill runs the CLI's default layout and a fixed cycle of NMMSO seeds
# in a seeded order.  fullchip-pkb caps SQP, so its seeded layouts all
# cost about the same.

# mm-fill: the paper's headline mode on design C (its default seed).
MM_GRID = 24
MM_LAYOUT_SEED = 2
#: NMMSO seeds of one op cycle; every run executes whole cycles.
MM_NMMSO_SEEDS = (0, 1, 2)

# fullchip-pkb: design A at 128x128 (pads to 130x130, above the conv
# dispatcher's 128x128 calibration threshold).
FULLCHIP_GRID = 128
FULLCHIP_TILE = 24
#: Seeded layouts; op ``i`` fills layout ``i`` (a run needs five or fewer).
FULLCHIP_LAYOUTS = 16

# serve-mix: small design-B layouts.  The pool is the generator's first
# four seeds, unfiltered: a 6x6 PKB fill on them takes 40-59 surrogate
# evaluations, about 0.45 s served alone (6x6 seeds 1-6 all fall in that
# range; ECOs on them take 40-244).  Fill jobs go to the pool layouts in
# turn, so every run asks for the same fill work and the seed moves when
# it arrives.  Set-up fills and simulates every pool layout once, so the
# timed phase traces no capture plan for a pool fill.  6x6 keeps a fill
# cheap enough that a run holds 15 surrogate jobs, so that op_p90_s lands
# among them.
SERVE_GRID = 6
#: The served checkpoint is trained on tiles of this size.
SERVE_TRAIN_TILE = 12
SERVE_POOL_SEEDS = (1, 2, 3, 4)
#: Pool layouts that are ECO parents (their warm-up fills are the parents).
SERVE_ECO_PARENTS = 2
#: Open-loop arrival rate (jobs/s) and the floor on jobs per run.
SERVE_RATE = 4.0
SERVE_MIN_JOBS = 100
#: Job mix, as exact shares of every schedule.  The shares are a guess
#: at an interactive session (mostly simulate checks, some fills, an
#: occasional ECO); with the rate they put the expected surrogate work at
#: about a third of what the default server sustains on a 2-core host
#: (two served 6x6 fills/s; a simulate job takes ~5 ms).
SERVE_MIX = (("fill", 0.12), ("eco", 0.03), ("simulate", 0.85))
#: After the timed phase one probe ECO runs on a larger layout, edited
#: in a corner and refilled with coupling radius 0, so that its halo
#: (the depth-2 model's 28 windows) leaves windows frozen.  On the 6x6
#: pool the halo frees the whole chip and the outside-halo check would
#: compare an empty set.
PROBE_GRID = 32
PROBE_COUPLING = 0


def _child_seeds(seed: int, n: int, salt: int) -> list[int]:
    rng = np.random.default_rng([int(seed), salt])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


@dataclass(frozen=True)
class MmInputs:
    layout_seed: int
    nmmso_seeds: tuple[int, ...]


def mm_inputs(seed: int) -> MmInputs:
    rng = np.random.default_rng([int(seed), 1])
    order = rng.permutation(len(MM_NMMSO_SEEDS))
    return MmInputs(layout_seed=MM_LAYOUT_SEED,
                    nmmso_seeds=tuple(MM_NMMSO_SEEDS[i] for i in order))


@dataclass(frozen=True)
class FullchipInputs:
    source_seed: int
    layout_seeds: tuple[int, ...]


def fullchip_inputs(seed: int) -> FullchipInputs:
    seeds = _child_seeds(seed, FULLCHIP_LAYOUTS + 1, salt=2)
    return FullchipInputs(source_seed=seeds[0], layout_seeds=tuple(seeds[1:]))


@dataclass(frozen=True)
class ServeJob:
    index: int
    due: float          # seconds after the schedule starts
    kind: str           # fill | eco | simulate
    parent: int         # pool index of the job's layout (eco: of its parent)
    edit: int = -1      # eco: index of the job's own edit in ServeInputs.edits


@dataclass(frozen=True)
class ServeInputs:
    pool_seeds: tuple[int, ...]
    #: (layer, row, col) of each ECO job's 2x2 edit of its parent.
    edits: tuple[tuple[int, int, int], ...]
    probe_seed: int
    #: (layer, row, col) of the probe's 2x2 corner edit.
    probe_edit: tuple[int, int, int]
    jobs: tuple[ServeJob, ...] = field(default_factory=tuple)


def serve_schedule(seed: int, seconds: float) -> ServeInputs:
    """``n`` jobs over ``n / rate`` seconds, ``n`` at least
    :data:`SERVE_MIN_JOBS`, kinds in exact :data:`SERVE_MIX` shares.

    Every kind arrives one job per equal slice of the schedule, at a
    uniform time in its slice: the surrogate jobs (fill, eco) in slices
    of their own, in a seeded order, and the simulate jobs in theirs.
    Two surrogate jobs can arrive back to back, but a run of ~15 of them
    cannot bunch five or six into two seconds, which under pure Poisson
    arrivals backed simulate jobs up for 1.3-1.5 s in 3 of 20 runs and
    left op_p90_s with two modes across seeds.  Fills and ECOs take their
    layouts in turn from a seeded start, simulate jobs at random; every
    ECO job edits its parent with a 2x2 rectangle of its own, drawn from
    the seed, so a run's ECO cost averages over several edits."""
    rng = np.random.default_rng([int(seed), 3])
    n = max(SERVE_MIN_JOBS, int(round(SERVE_RATE * seconds)))
    span = n / SERVE_RATE
    heavy: list[str] = []
    for kind, share in SERVE_MIX[:-1]:
        heavy += [kind] * int(round(share * n))
    heavy = [heavy[i] for i in rng.permutation(len(heavy))]
    h = len(heavy)
    arrivals = [(float(t), kind) for t, kind in
                zip((np.arange(h) + rng.random(h)) * span / h, heavy)]
    m = n - h
    arrivals += [(float(t), SERVE_MIX[-1][0])
                 for t in (np.arange(m) + rng.random(m)) * span / m]
    arrivals.sort()
    first = arrivals[0][0]
    pool = len(SERVE_POOL_SEEDS)
    turn = {"fill": int(rng.integers(0, pool)), "eco": int(rng.integers(0, SERVE_ECO_PARENTS))}
    jobs = []
    edits_seen = 0
    for i, (due, kind) in enumerate(arrivals):
        if kind == "simulate":
            parent = int(rng.integers(0, pool))
        else:
            size = pool if kind == "fill" else SERVE_ECO_PARENTS
            parent = turn[kind] % size
            turn[kind] += 1
        edit = edits_seen if kind == "eco" else -1
        edits_seen += kind == "eco"
        jobs.append(ServeJob(index=i, due=due - first, kind=kind, parent=parent,
                             edit=edit))
    edits = tuple((int(rng.integers(0, 3)), int(rng.integers(0, SERVE_GRID - 1)),
                   int(rng.integers(0, SERVE_GRID - 1)))
                  for _ in range(edits_seen))
    corner = PROBE_GRID - 2
    probe_edit = (int(rng.integers(0, 3)), corner * int(rng.integers(0, 2)),
                  corner * int(rng.integers(0, 2)))
    return ServeInputs(pool_seeds=SERVE_POOL_SEEDS, edits=edits,
                       probe_seed=int(rng.integers(0, 2**31 - 1)),
                       probe_edit=probe_edit, jobs=tuple(jobs))
