"""The ECO outside-the-halo check catches what it must."""

import numpy as np

import checks
from repro.layout.designs import make_design_b
from repro.layout.diff import edit_layout


def test_eco_check_catches_a_moved_frozen_window():
    parent = make_design_b(40, 40, seed=3)
    edited = edit_layout(parent, 0, slice(0, 2), slice(0, 2))
    fill = np.zeros(parent.shape)
    assert checks.eco_outside_halo(parent, edited, fill, fill.copy(), 4) is None
    moved = fill.copy()
    moved[1, 30, 30] = 1.0  # far outside the 4-window halo of the edit
    assert "1 frozen windows moved" in checks.eco_outside_halo(parent, edited, fill, moved, 4)
    inside = fill.copy()
    inside[0, 3, 3] = 1.0  # inside the halo: allowed to move
    assert checks.eco_outside_halo(parent, edited, fill, inside, 4) is None


def test_eco_check_refuses_an_empty_frozen_set_when_asked():
    parent = make_design_b(12, 12, seed=3)
    edited = edit_layout(parent, 0, slice(5, 7), slice(5, 7))
    fill = np.zeros(parent.shape)
    assert checks.eco_outside_halo(parent, edited, fill, fill.copy(), 56) is None
    reason = checks.eco_outside_halo(parent, edited, fill, fill.copy(), 56, min_frozen=1)
    assert reason.startswith("only 0 windows frozen")
