"""The edge-triangle branch tie against the solver searches it replaced.

degeneracy_constants and phase_scan read the degeneracy threshold and the
first-order jump off the tie of the two local-maximizer branches
(_edge_triangle_tie), with no scalar solve. reference_q is the threshold
search as it was before, a plain bisection on the top maximizer that
maximize_scalar reports; reference_refine_jump refines a jump cell of a scan
as before, bisecting on the top maximizer and then on which of the two
branches, each tracked by reference_local_maximizer, is higher.
"""

import functools
import math

import numpy as np
import pytest

from ergmlab import variational
from ergmlab.errors import ConvergenceError, DomainError
from ergmlab.variational import (
    _CRITICAL_BETA1,
    JUMP_LOCATION_TOL,
    JUMP_THRESHOLD,
    ModelSpec,
    PhaseTransition,
    _bisect,
    _edge_triangle_stack,
    _edge_triangle_tie,
    degeneracy_constants,
    maximize_scalar,
    phase_scan,
    scalar_objective,
)

Q_SWEEP = np.linspace(-8.0, -0.76, 100).tolist() + [-50.0, -300.0]
SCAN_BETA1S = np.linspace(-1.6, -0.3, 66).tolist()
# the 200-point grid of phase_scan's pins, and a coarse one whose cells are
# wide enough that a branch ends inside them
SCANS = [(np.linspace(0.0, 2.0, 200), SCAN_BETA1S), (np.linspace(0.0, 2.0, 6), SCAN_BETA1S[::3])]
ENDS = (5e-324, 1.0 - 2.0**-53)


def _top(beta1: float, beta2: float) -> float:
    return max(maximize_scalar(ModelSpec.edge_triangle(beta1, beta2)).maximizers)


def reference_q(beta1: float) -> float:
    c2 = 1.0 + 1.0 / (2.0 * beta1)
    hi = 1.0
    while _top(beta1, hi) <= c2:
        hi *= 2.0
    lo, hi = _bisect(lambda b2: _top(beta1, b2) > c2, 0.0, hi, JUMP_LOCATION_TOL)
    return 0.5 * (lo + hi)


def _second_derivative(beta2: float, x: float) -> float:
    return 6.0 * beta2 * x - 0.5 / (x * (1.0 - x))


def reference_local_maximizer(model: ModelSpec, seed: float) -> float:
    """Newton on the edge-triangle derivative from a seed, for at most 200
    steps, until a step moves less than 1e-16 or f'' is no longer negative."""
    beta1, beta2 = model.betas
    x = min(max(seed, 1e-12), 1.0 - 1e-12)
    for _ in range(200):
        d2 = _second_derivative(beta2, x)
        if d2 >= 0.0:
            return x
        d1 = float(-0.5 * np.log(x / (1.0 - x)) + beta1 + 3.0 * beta2 * np.asarray(x) ** 2)
        xn = min(max(x - d1 / d2, 1e-15), 1.0 - 1e-15)
        if abs(xn - x) < 1e-16:
            return xn
        x = xn
    return x


def reference_refine_jump(beta1: float, lo: float, hi: float) -> PhaseTransition:
    middle = 0.5 * (_top(beta1, lo) + _top(beta1, hi))
    a, b = _bisect(lambda b2: _top(beta1, b2) > middle, lo, hi, JUMP_LOCATION_TOL)
    u_low, u_high = _top(beta1, a), _top(beta1, b)

    def high_branch_wins(b2: float) -> bool:
        model = ModelSpec.edge_triangle(beta1, b2)
        return scalar_objective(model, reference_local_maximizer(model, u_high)) > scalar_objective(
            model, reference_local_maximizer(model, u_low)
        )

    aa, bb = _bisect(high_branch_wins, a, b)
    return PhaseTransition(0.5 * (aa + bb), u_low, u_high)


@functools.cache
def reference_jumps() -> dict[tuple[int, float], list[tuple[float, PhaseTransition]]]:
    """Every cell that the scan (grid size, beta1) of SCANS refined, with
    its refined jump, kept or not: a kept jump's branches differ by more
    than JUMP_THRESHOLD."""
    out = {}
    for grid, beta1s in SCANS:
        for beta1 in beta1s:
            reps = _edge_triangle_stack(np.full(grid.size, beta1), grid)
            stars = [max(rep.maximizers) for rep in reps]
            out[grid.size, beta1] = [
                (abs(jump.u_high - jump.u_low), jump)
                for i in range(grid.size - 1)
                if abs(stars[i + 1] - stars[i]) > JUMP_THRESHOLD
                for jump in [reference_refine_jump(beta1, float(grid[i]), float(grid[i + 1]))]
            ]
    return out


def test_sweeps_cover_both_kinds_of_jump_cell():
    # cells whose top maximizer jumps between two branches, and cells near
    # the critical point where one steep branch moves more than 0.1 and the
    # refined "jump" is dropped
    cells = [cell for scan in reference_jumps().values() for cell in scan]
    assert len(cells) >= 50
    gaps = [gap for gap, _ in cells]
    assert any(g > JUMP_THRESHOLD for g in gaps) and any(g < 1e-3 for g in gaps)


def test_threshold_matches_plain_bisection():
    want = {beta1: reference_q(beta1).hex() for beta1 in Q_SWEEP}
    got = {beta1: degeneracy_constants(beta1).q_estimate.hex() for beta1 in Q_SWEEP}
    assert got == want


@pytest.mark.parametrize("beta1", np.linspace(-20.0, -8.0, 25).tolist())
def test_threshold_for_strong_beta1_is_within_one_cell(beta1):
    # at the threshold the high maximizer lies beyond 1 - 2^-53, where
    # maximize_scalar lets the end point join only when it beats the low
    # branch by 1e-15, not within MULTIPLICITY_TOL; at quarter-integer beta1
    # the tie falls on a bisection midpoint, and the exact branch comparison
    # then answers one 2^-20 cell lower (beta1 = -10: q = 9.999999523162842,
    # where the solver bisection gave 10.000000476837158)
    assert abs(degeneracy_constants(beta1).q_estimate - reference_q(beta1)) <= JUMP_LOCATION_TOL
    if beta1 == -10.0:
        assert degeneracy_constants(beta1).q_estimate == 9.999999523162842


def test_refined_jumps_match_plain_bisection():
    # a scan reports a jump exactly when the cell refinement kept one, at
    # the same beta2 to within the refinement's bisection width
    for (steps, beta1), cells in reference_jumps().items():
        want = [jump for gap, jump in cells if gap > JUMP_THRESHOLD]
        got = phase_scan(beta1, 0.0, 2.0, steps).jumps
        assert len(got) == len(want), (steps, beta1)
        for g, w in zip(got, want):
            assert abs(g.beta2 - w.beta2) <= JUMP_LOCATION_TOL, (steps, beta1)


def _count_solves(monkeypatch) -> dict[str, int]:
    """Count the calls of maximize_scalar and of the stacked solver."""
    calls = {"maximize_scalar": 0, "_maximize_stack": 0}
    for name in calls:
        real = getattr(variational, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(variational, name, counted)
    return calls


@pytest.mark.parametrize("beta1", [-5.0, -3.0, -1.5])
def test_degeneracy_threshold_takes_few_solves(monkeypatch, beta1):
    # none: a plain bisection to 1e-6 took 27, 25 and 23 solves
    calls = _count_solves(monkeypatch)
    degeneracy_constants(beta1)
    assert calls == {"maximize_scalar": 0, "_maximize_stack": 0}


def test_phase_scan_jump_takes_few_solves(monkeypatch):
    # the scan's own grid is its one stacked solve, and the jump takes none;
    # refining the jump cell took 18 solves with a plain bisection
    calls = _count_solves(monkeypatch)
    assert len(phase_scan(-0.45, 0.0, 2.0, 200).jumps) == 1
    assert calls == {"maximize_scalar": 0, "_maximize_stack": 1}


def test_jump_row_does_not_depend_on_the_grid():
    rows = {
        grid: [(j.beta2.hex(), j.u_low.hex(), j.u_high.hex()) for j in phase_scan(-0.45, *grid).jumps]
        for grid in [(0.0, 2.0, 200), (0.0, 3.0, 200), (0.0, 2.0, 57), (2.0, 0.0, 200)]
    }
    assert len(set(map(tuple, rows.values()))) == 1, rows
    assert len(rows[0.0, 2.0, 200]) == 1


@pytest.mark.parametrize("beta1", SCAN_BETA1S)
def test_jump_sits_at_the_exact_tie(beta1):
    for jump in phase_scan(beta1, 0.0, 2.0, 200).jumps:
        model = ModelSpec.edge_triangle(beta1, jump.beta2)
        gap = scalar_objective(model, jump.u_high) - scalar_objective(model, jump.u_low)
        assert abs(gap) <= 1e-14
        assert _second_derivative(jump.beta2, jump.u_low) < 0.0
        assert _second_derivative(jump.beta2, jump.u_high) < 0.0
        assert maximize_scalar(model).maximizers == [
            pytest.approx(jump.u_low, abs=1e-12),
            pytest.approx(jump.u_high, abs=1e-12),
        ]


def test_branches_merge_at_the_critical_point():
    # no spinodals at or above beta1 = 1/2 log 2 - 3/4
    for beta1 in (_CRITICAL_BETA1, _CRITICAL_BETA1 + 1e-12, 0.0, 5.0):
        assert _edge_triangle_tie(beta1, 0.0, math.inf) is None
    # an offset that one branch never makes up puts the tie at an end of
    # the interval [B(s2), B(s1)] where both branches exist; the ends close
    # in on beta2 = 9/16, as 3/4 of the distance from the critical beta1
    for dist in (1e-3, 1e-6, 1e-9):
        beta1 = _CRITICAL_BETA1 - dist
        b_s2 = _edge_triangle_tie(beta1, 1.0, math.inf)[0]
        b_s1 = _edge_triangle_tie(beta1, -1.0, math.inf)[0]
        assert b_s2 < b_s1
        assert abs(b_s2 - 9.0 / 16.0) <= dist and abs(b_s1 - 9.0 / 16.0) <= dist
        # by 1e-9 the two branch values differ by less than their float noise
        beta2, x_low, x_high = _edge_triangle_tie(beta1, 0.0, math.inf)
        assert b_s2 <= beta2 <= b_s1 and x_low < 2.0 / 3.0 < x_high


@pytest.mark.parametrize(
    "beta1,want",
    [
        (math.nan, (DomainError, "model coefficients must be finite")),
        (-1e12, 1.0000000000000002e12),
        # the tie lies beyond beta2 = 2^40, where the doubling loop stops
        (-1e13, (ConvergenceError, "failed to bracket the degeneracy threshold")),
        (-1e308, (ConvergenceError, "failed to bracket the degeneracy threshold")),
    ],
)
def test_threshold_at_extreme_beta1(beta1, want):
    if isinstance(want, float):
        assert degeneracy_constants(beta1).q_estimate == want
    else:
        with pytest.raises(want[0], match=want[1]):
            degeneracy_constants(beta1)


@pytest.mark.parametrize(
    "scan,ends",
    [
        ((-1e308, 0.0, 2.0, 3), []),
        ((-700.0, 0.0, 1000.0, 50), [ENDS]),
        ((-1e12, 0.0, 2e12, 5), [ENDS]),
    ],
)
def test_jump_at_extreme_beta1(scan, ends):
    # both branch maximizers lie beyond float range, at the float ends
    assert [(j.u_low, j.u_high) for j in phase_scan(*scan).jumps] == ends
