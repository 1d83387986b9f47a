"""The windowed threshold searches against the plain bisections they replaced.

degeneracy_constants and _refine_jump bisect through a _MonotoneWindow that
a tie estimate opens; reference_q and reference_refine_jump are the same
searches as they were before, with _bisect over the bare solver tests. Every
result must be bit for bit the reference's, with the real tie estimate, with
none and with a wrong one; a refined cell whose reference branches differ by
at most JUMP_THRESHOLD must give None. maximize_scalar calls are counted to
guard the saving without timing anything.
"""

import functools

import numpy as np
import pytest

from ergmlab import variational
from ergmlab.variational import (
    JUMP_LOCATION_TOL,
    JUMP_THRESHOLD,
    ModelSpec,
    PhaseTransition,
    _bisect,
    _edge_triangle_stack,
    _local_maximizer,
    _refine_jump,
    _top_maximizer,
    degeneracy_constants,
    phase_scan,
    scalar_objective,
)

Q_SWEEP = np.linspace(-8.0, -0.76, 100).tolist() + [-50.0, -300.0]
SCAN_BETA1S = np.linspace(-1.6, -0.3, 66).tolist()
# the 200-point grid of phase_scan's pins, and a coarse one whose cells are
# wide enough that a branch ends inside them
SCANS = [(np.linspace(0.0, 2.0, 200), SCAN_BETA1S), (np.linspace(0.0, 2.0, 6), SCAN_BETA1S[::3])]


def reference_q(beta1: float) -> float:
    c2 = 1.0 + 1.0 / (2.0 * beta1)
    hi = 1.0
    while _top_maximizer(beta1, hi) <= c2:
        hi *= 2.0
    lo, hi = _bisect(lambda b2: _top_maximizer(beta1, b2) > c2, 0.0, hi, JUMP_LOCATION_TOL)
    return 0.5 * (lo + hi)


def reference_refine_jump(beta1: float, lo: float, hi: float) -> PhaseTransition:
    middle = 0.5 * (_top_maximizer(beta1, lo) + _top_maximizer(beta1, hi))
    a, b = _bisect(lambda b2: _top_maximizer(beta1, b2) > middle, lo, hi, JUMP_LOCATION_TOL)
    u_low, u_high = _top_maximizer(beta1, a), _top_maximizer(beta1, b)

    def high_branch_wins(b2: float) -> bool:
        model = ModelSpec.edge_triangle(beta1, b2)
        return scalar_objective(model, _local_maximizer(model, u_high)) > scalar_objective(
            model, _local_maximizer(model, u_low)
        )

    aa, bb = _bisect(high_branch_wins, a, b)
    return PhaseTransition(0.5 * (aa + bb), u_low, u_high)


def _hex(jump: PhaseTransition | None) -> tuple[str, str, str] | None:
    return None if jump is None else (jump.beta2.hex(), jump.u_low.hex(), jump.u_high.hex())


def _kept(want: tuple[str, str, str]) -> tuple[str, str, str] | None:
    """What _refine_jump returns for a cell whose reference result is want:
    None where the reference branches differ by at most JUMP_THRESHOLD."""
    gap = abs(float.fromhex(want[2]) - float.fromhex(want[1]))
    return want if gap > JUMP_THRESHOLD else None


@functools.cache
def jump_cells() -> list[tuple[float, float, float]]:
    """Every cell that a scan of SCANS refines."""
    cells = []
    for grid, beta1s in SCANS:
        for beta1 in beta1s:
            reps = _edge_triangle_stack(np.full(grid.size, beta1), grid)
            stars = [max(rep.maximizers) for rep in reps]
            for i in range(grid.size - 1):
                if abs(stars[i + 1] - stars[i]) > JUMP_THRESHOLD:
                    cells.append((beta1, float(grid[i]), float(grid[i + 1])))
    return cells


@functools.cache
def reference_qs() -> dict[float, str]:
    return {beta1: reference_q(beta1).hex() for beta1 in Q_SWEEP}


@functools.cache
def reference_jumps() -> dict[tuple[float, float, float], tuple[str, str, str]]:
    return {cell: _hex(reference_refine_jump(*cell)) for cell in jump_cells()}


def _patch_estimate(monkeypatch, kind: str) -> None:
    """Replace the tie estimate: "none" gives no estimate, "shifted" moves a
    real one by a hundredth of its bracket, "inside" puts every estimate at
    three tenths of its bracket."""
    real = variational._tie_estimate

    def patched(beta1, lo, hi, u_lo, u_hi, offset):
        if kind == "inside":
            return lo + 0.3 * (hi - lo)
        est = real(beta1, lo, hi, u_lo, u_hi, offset)
        return None if kind == "none" or est is None else est + 0.01 * (hi - lo)

    monkeypatch.setattr(variational, "_tie_estimate", patched)


def test_sweeps_cover_both_kinds_of_jump_cell():
    # cells whose top maximizer jumps between two branches, and cells near
    # the critical point where one steep branch moves more than 0.1 and the
    # refined "jump" is dropped; the tie estimate finds no tie in the latter
    jumps = reference_jumps()
    assert len(jumps) >= 50
    gaps = [abs(float.fromhex(hi) - float.fromhex(lo)) for _, lo, hi in jumps.values()]
    assert any(g > JUMP_THRESHOLD for g in gaps) and any(g < 1e-3 for g in gaps)


def test_threshold_matches_plain_bisection():
    want = reference_qs()
    got = {beta1: degeneracy_constants(beta1).q_estimate.hex() for beta1 in Q_SWEEP}
    assert got == want


def test_refined_jumps_match_plain_bisection():
    want = {cell: _kept(ref) for cell, ref in reference_jumps().items()}
    assert {cell: _hex(_refine_jump(*cell)) for cell in want} == want


@pytest.mark.parametrize("kind", ["none", "shifted", "inside"])
def test_a_missing_or_wrong_estimate_changes_no_bit(monkeypatch, kind):
    want_q, want_jumps = reference_qs(), reference_jumps()
    _patch_estimate(monkeypatch, kind)
    for beta1 in Q_SWEEP[::4]:
        assert degeneracy_constants(beta1).q_estimate.hex() == want_q[beta1], beta1
    for cell, want in list(want_jumps.items())[::2]:
        assert _hex(_refine_jump(*cell)) == _kept(want), cell


def _count_solves(monkeypatch) -> list[int]:
    calls = [0]
    solve = variational.maximize_scalar

    def counted(model):
        calls[0] += 1
        return solve(model)

    monkeypatch.setattr(variational, "maximize_scalar", counted)
    return calls


@pytest.mark.parametrize("beta1", [-5.0, -3.0, -1.5])
def test_degeneracy_threshold_takes_few_solves(monkeypatch, beta1):
    # a plain bisection to 1e-6 took 27, 25 and 23 solves
    calls = _count_solves(monkeypatch)
    degeneracy_constants(beta1)
    assert calls[0] <= 8


def test_phase_scan_drops_a_steep_branch_before_its_tie_estimate(monkeypatch):
    # near the critical point one steep branch moves more than 0.1 within a
    # cell without a jump; the first bisection settles that, so the cell
    # makes one tie estimate, not a second for the exact-tie bisection
    calls = [0]
    estimate = variational._tie_estimate

    def counted(*args):
        calls[0] += 1
        return estimate(*args)

    monkeypatch.setattr(variational, "_tie_estimate", counted)
    assert phase_scan(-0.40, 0.0, 2.0, 200).jumps == []
    assert calls[0] == 1


def test_phase_scan_jump_takes_few_solves(monkeypatch):
    # the scan's own grid is one stacked solve; refining its one jump cell
    # took 18 solves with a plain bisection
    calls = _count_solves(monkeypatch)
    assert len(phase_scan(-0.45, 0.0, 2.0, 200).jumps) == 1
    assert calls[0] <= 8
