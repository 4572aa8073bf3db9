"""Seeded inputs: the same seed gives the same inputs and schedule."""

import numpy as np

import inputs
from repro.layout.designs import make_design_b
from repro.layout.diff import diff_layouts, dilate_mask, edit_layout


def test_same_seed_same_inputs():
    assert sorted(inputs.mm_inputs(7).nmmso_seeds) == sorted(inputs.MM_NMMSO_SEEDS)
    assert inputs.mm_inputs(7) == inputs.mm_inputs(7)
    assert inputs.fullchip_inputs(7) == inputs.fullchip_inputs(7)
    assert inputs.serve_schedule(7, 20) == inputs.serve_schedule(7, 20)


def test_other_seed_other_inputs():
    assert len({inputs.mm_inputs(s) for s in range(10)}) > 1
    assert inputs.fullchip_inputs(7) != inputs.fullchip_inputs(8)
    a, b = inputs.serve_schedule(7, 20), inputs.serve_schedule(8, 20)
    assert [j.kind for j in a.jobs] != [j.kind for j in b.jobs]
    assert [j.due for j in a.jobs] != [j.due for j in b.jobs]
    assert a.edits != b.edits and a.probe_seed != b.probe_seed


def test_schedule_rate_floor_and_exact_mix():
    for seconds in (5, 20, 40):
        spec = inputs.serve_schedule(3, seconds)
        n = len(spec.jobs)
        assert n == max(inputs.SERVE_MIN_JOBS, round(inputs.SERVE_RATE * seconds))
        counts = {kind: sum(j.kind == kind for j in spec.jobs)
                  for kind, _ in inputs.SERVE_MIX}
        for kind, share in inputs.SERVE_MIX[:-1]:
            assert counts[kind] == round(share * n)
        assert sum(counts.values()) == n


def test_arrivals():
    for seed in range(20):
        jobs = inputs.serve_schedule(seed, 20).jobs
        span = len(jobs) / inputs.SERVE_RATE
        due = [j.due for j in jobs]
        assert due[0] == 0.0 and all(b >= a for a, b in zip(due, due[1:]))
        assert due[-1] < span
        # Each kind arrives one job per slice of its own: consecutive
        # ones under two slices apart, at seeded (not periodic) times.
        for heavy in (True, False):
            times = [j.due for j in jobs if (j.kind != "simulate") == heavy]
            step = span / len(times)
            gaps = np.diff(times)
            assert all(0 <= g < 2 * step for g in gaps)
            assert np.std(gaps) > 0.2 * np.mean(gaps)


def test_fills_and_ecos_take_the_pool_in_turn():
    pool = len(inputs.SERVE_POOL_SEEDS)
    for seed in range(5):
        spec = inputs.serve_schedule(seed, 20)
        for kind, size in (("fill", pool), ("eco", inputs.SERVE_ECO_PARENTS),
                           ("simulate", pool)):
            per_layout = [sum(j.kind == kind and j.parent == p for j in spec.jobs)
                          for p in range(pool)]
            assert sum(per_layout[size:]) == 0
            if kind != "simulate":
                assert max(per_layout[:size]) - min(per_layout[:size]) <= 1


def test_every_eco_job_has_its_own_edit_on_the_grid():
    for seed in range(10):
        spec = inputs.serve_schedule(seed, 20)
        ecos = [j for j in spec.jobs if j.kind == "eco"]
        assert sorted(j.edit for j in ecos) == list(range(len(spec.edits)))
        assert all(j.edit == -1 for j in spec.jobs if j.kind != "eco")
        for layer, row, col in spec.edits:
            assert 0 <= layer < 3
            assert 0 <= row <= inputs.SERVE_GRID - 2
            assert 0 <= col <= inputs.SERVE_GRID - 2


def test_probe_edit_leaves_windows_frozen():
    """The probe ECO's halo (the depth-2 model's receptive field, 28
    windows, plus coupling 0) must leave part of its layout frozen."""
    halo = 28 + inputs.PROBE_COUPLING
    grid = inputs.PROBE_GRID
    for seed in range(8):
        spec = inputs.serve_schedule(seed, 20)
        layer, row, col = spec.probe_edit
        parent = make_design_b(grid, grid, seed=spec.probe_seed)
        edited = edit_layout(parent, layer, slice(row, row + 2), slice(col, col + 2))
        free = dilate_mask(diff_layouts(parent, edited).dirty, halo)
        assert np.sum(~free) >= 100
