"""The batched scalar solver against the one-model solver it replaced.

reference_maximize_scalar is maximize_scalar as it was before models were
solved in stacks: one 0-d derivative call per bisection step, a Newton
polish on floats and one objective call per candidate. Every report of a
stack solve must pickle to the same bytes as the reference's report for
its model alone, and as the stack's report for that model when the stack
is reversed.
"""

import math
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ergmlab.graphons import edge_entropy
from ergmlab.graphs import Motif
from ergmlab.variational import (
    _BLOCK_CELLS,
    _LOCKSTEP_MIN_BRACKETS,
    GRID_POINTS,
    MULTIPLICITY_TOL,
    MaximizerReport,
    ModelSpec,
    _maximize_stack,
    _scalar_grid,
    maximize_scalar,
)

POOL = ["star:2", "star:3", "triangle", "cycle:4", "complete:4"]
# models per block of the grid scan, one row of cells per model
ROWS_PER_BLOCK = _BLOCK_CELLS // len(_scalar_grid()[1][0])


def _derivative(exps, u):
    u = np.asarray(u, dtype=float)
    val = -0.5 * np.log(u / (1.0 - u))
    for e, b in exps:
        val = val + b * e * u ** (e - 1)
    return val


def _second_derivative(exps, x):
    d2 = sum(b * e * (e - 1) * x ** (e - 2) for e, b in exps if e >= 2)
    return d2 - 0.5 / (x * (1.0 - x))


def _objective(exps, u):
    u = np.asarray(u, dtype=float)
    val = -edge_entropy(u)
    for e, b in exps:
        val = val + b * u**e
    return float(val)


def reference_maximize_scalar(model: ModelSpec) -> tuple[MaximizerReport, int]:
    """The report of the one-model solver and its number of brackets."""
    tail = np.geomspace(1e-14, 0.5, max(GRID_POINTS // 2, 64))
    grid = np.unique(np.concatenate([tail, 1.0 - tail]))
    exps = list(zip(model.edges, model.betas))
    dvals = _derivative(exps, grid)

    def derivative(u):
        return float(_derivative(exps, u))

    candidates = []
    sign_drop = np.nonzero((dvals[:-1] > 0.0) & (dvals[1:] <= 0.0))[0]
    for i in sign_drop:
        a, b = float(grid[i]), float(grid[i + 1])
        while b - a > 0.0:
            mid = 0.5 * (a + b)
            if mid == a or mid == b:
                break
            if derivative(mid) <= 0.0:
                b = mid
            else:
                a = mid
        x = 0.5 * (a + b)
        for _ in range(4):
            d2 = _second_derivative(exps, x)
            if d2 == 0.0:
                break
            xn = x - derivative(x) / d2
            if not (a - 1e-12 <= xn <= b + 1e-12):
                break
            x = min(max(xn, 1e-300), 1.0 - 1e-16)
        candidates.append(x)
    interior_best = max((_objective(exps, x) for x in candidates), default=-math.inf)
    for end in (float(np.nextafter(0.0, 1.0)), float(np.nextafter(1.0, 0.0))):
        if _objective(exps, end) > interior_best + 1e-15:
            candidates.append(end)
    objs = [_objective(exps, x) for x in candidates]
    psi = max(objs)
    keep = sorted({x for x, o in zip(candidates, objs) if psi - o <= MULTIPLICITY_TOL})
    merged = []
    for x in keep:
        if not merged or x - merged[-1] > 1e-9:
            merged.append(x)
    residuals = [abs(derivative(x)) for x in merged]
    return MaximizerReport(merged, psi, residuals), len(sign_drop)


def _check_stack(motifs, coef_rows):
    models = [ModelSpec(list(zip(motifs, row))) for row in coef_rows]
    edges = [m.edge_count for m in motifs]
    stacked = _maximize_stack(edges, coef_rows)
    reversed_stack = _maximize_stack(edges, coef_rows[::-1])[::-1]
    brackets = []
    for model, got, got_reversed in zip(models, stacked, reversed_stack):
        want, count = reference_maximize_scalar(model)
        brackets.append(count)
        want = pickle.dumps(want)
        assert pickle.dumps(got) == want, model
        assert pickle.dumps(got_reversed) == want, model
        assert pickle.dumps(maximize_scalar(model)) == want, model
    return brackets


@st.composite
def stacks(draw):
    extra = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=3, unique=True))
    motifs = [Motif.edge()] + [Motif.parse(s) for s in extra]
    # a lone model, a few models (brackets refined one at a time) or a
    # stack over several blocks (brackets refined in lockstep)
    size = draw(st.sampled_from([1, 3, 3 * ROWS_PER_BLOCK + 2]))
    coef = st.floats(-3.0, 3.0, allow_nan=False)
    # an edge coefficient beyond the grid's entropy slope leaves no bracket
    edge = st.one_of(coef, st.sampled_from([-30.0, 30.0]))
    rows = draw(
        st.lists(st.tuples(edge, *[coef] * len(extra)), min_size=size, max_size=size)
    )
    return motifs, np.array(rows, dtype=float)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(stacks())
def test_stack_reports_match_one_model_reference(stack):
    _check_stack(*stack)


def test_stack_covers_bracket_counts_and_both_refinements():
    # with no, one and two brackets; the edge-triangle jump at beta1 = -0.45
    # lies near beta2 = 0.5977, where the objective has two local maxima
    rows = [(30.0, 0.0), (-30.0, 0.0), (0.0, 0.0), (-0.45, 0.5977), (-0.45, 0.55)]
    motifs = [Motif.edge(), Motif.triangle()]
    assert sorted(set(_check_stack(motifs, np.array(rows)))) == [0, 1, 2]
    # a stack over several blocks with enough brackets for lockstep
    scan = [(-0.45, b2) for b2 in np.linspace(0.0, 2.0, 3 * ROWS_PER_BLOCK + 2)] + rows
    assert sum(_check_stack(motifs, np.array(scan))) >= _LOCKSTEP_MIN_BRACKETS
    # the edge-triangle critical point (1/2 log 2 - 3/4, 9/16) and its 1e-9
    # neighbours, one bracket each, so in lockstep as a stack: f' has a
    # triple root at u = 2/3, where f'' vanishes, and for most of them a
    # Newton step from the bisected midpoint leaves the bracket, where the
    # polish keeps the midpoint
    beta1, beta2 = 0.5 * math.log(2.0) - 0.75, 9 / 16
    critical = [(beta1 + i, beta2 + j) for i in (-1e-9, 0.0, 1e-9) for j in (-1e-9, 0.0, 1e-9)]
    assert len(critical) >= _LOCKSTEP_MIN_BRACKETS
    assert _check_stack(motifs, np.array(critical)) == [1] * len(critical)
