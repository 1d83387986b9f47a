"""The chunk scan of the scalar solver's brackets against the full grid.

full_grid_drops is the bracket search as it was before the chunk scan: the
grid derivative at every grid point, over blocks of at most 2^16 (model,
grid point) entries. variational._sign_drops evaluates only the chunks
whose bound leaves the sign open; its (owner, column) arrays must equal
the full grid's, element for element and in order.
"""

import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ergmlab.errors import OverflowGuardError
from ergmlab.graphs import Motif
from ergmlab.variational import (
    _BLOCK_CELLS,
    _CHUNK,
    GRID_POINTS,
    _check_coefficient_bound,
    _scalar_grid,
    _sign_drops,
)

POOL = ["edge", "star:2", "triangle", "star:3", "cycle:4", "cycle:5", "cycle:6", "complete:4", "complete:5"]
TAIL = np.geomspace(1e-14, 0.5, max(GRID_POINTS // 2, 64))
GRID = np.unique(np.concatenate([TAIL, 1.0 - TAIL]))
SLOPE = -0.5 * np.log(GRID / (1.0 - GRID))
ROWS_PER_BLOCK = _BLOCK_CELLS // len(_scalar_grid()[1][0])


def full_grid_drops(edges, coefs):
    """(owner, column) of every drop d > 0 at a grid point, d <= 0 at the next."""
    coefs = np.asarray(coefs, dtype=float)
    powers = [GRID ** (e - 1) for e in edges]
    rows = min(len(coefs), max(1, 2**16 // GRID.size))
    owners, cols = [], []
    for start in range(0, len(coefs), rows):
        block = coefs[start : start + rows]
        d = np.empty((len(block), GRID.size))
        d[...] = SLOPE
        for e, b, power in zip(edges, block.T, powers):
            d += np.multiply(b[:, None] * e, power)
        r, c = np.nonzero((d[:, :-1] > 0.0) & (d[:, 1:] <= 0.0))
        owners.append(r + start)
        cols.append(c)
    return np.concatenate(owners), np.concatenate(cols)


def grid_derivative(edges, coefs):
    """The grid derivative of one model, summed in the solver's order."""
    d = SLOPE
    for e, b in zip(edges, coefs):
        d = d + np.multiply(b * e, GRID ** (e - 1))
    return d


def check(edges, coefs):
    want_owner, want_col = full_grid_drops(edges, coefs)
    got_owner, got_col = _sign_drops(edges, np.asarray(coefs, dtype=float))
    assert got_owner.tolist() == want_owner.tolist()
    assert got_col.tolist() == want_col.tolist()
    return want_col


def test_chunks_cover_the_grid():
    assert np.array_equal(GRID, _scalar_grid()[0])
    rows, lo, hi = _scalar_grid()[1]
    assert len(rows) * _CHUNK >= GRID.size - 1
    for c, row in enumerate(rows):
        # each chunk starts at the last point of the one before it
        part = SLOPE[c * _CHUNK : c * _CHUNK + _CHUNK + 1]
        assert row[: part.size].tolist() == part.tolist()
        assert (row[part.size :] == SLOPE[-1]).all()
        assert (lo[c], hi[c]) == (part.min(), part.max())


@st.composite
def stacks(draw):
    names = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=3))
    edges = [Motif.parse(name).edge_count for name in names]
    # up to the largest coefficients the solver takes: each model's
    # sum |b| e(H) within double range (_check_coefficient_bound)
    limit = sys.float_info.max / sum(edges)
    coef = st.one_of(st.floats(-3.0, 3.0), st.floats(-30.0, 30.0), st.floats(-limit, limit))
    size = draw(st.sampled_from([1, 3, 2 * ROWS_PER_BLOCK + 3]))
    rows = draw(st.lists(st.tuples(*[coef] * len(edges)), min_size=size, max_size=size))
    try:
        _check_coefficient_bound(edges, rows)
    except OverflowGuardError:
        assume(False)
    return edges, rows


@settings(max_examples=150, deadline=None, derandomize=True)
@given(stacks())
def test_chunk_scan_finds_the_full_grid_drops(stack):
    check(*stack)


@pytest.mark.parametrize(
    "beta2, kind",
    [
        # just below the local max of B(u) = (1/2 logit u - beta1)/(3u^2) at
        # the low spinodal: f' drops below 0 and comes back within a chunk
        (2.5566, "dip"),
        # just above the local min of B at the high spinodal: f' rises
        # above 0 and drops back within a chunk
        (0.86, "bump"),
    ],
)
def test_two_roots_inside_one_chunk(beta2, kind):
    edges, coefs = (1, 3), (-1.0, beta2)
    d = grid_derivative(edges, coefs)
    cols = check(edges, [coefs])
    rises = np.nonzero((d[:-1] <= 0.0) & (d[1:] > 0.0))[0]
    inside = [(c, r) for c in cols for r in rises if c // _CHUNK == r // _CHUNK]
    assert len(inside) == 1
    first = inside[0][0] // _CHUNK * _CHUNK
    last = min(first + _CHUNK, GRID.size - 1)
    # the chunk's own ends have one sign, so only its inner points show the drop
    assert (d[first] > 0.0 and d[last] > 0.0) if kind == "dip" else (d[first] <= 0.0 and d[last] <= 0.0)


def test_roots_in_the_geometric_tails():
    # edge-only drops in the first and the last grid interval, the last in
    # the padded final chunk, and an edge-triangle root next to 1 - 1e-14
    first = -0.5 * (SLOPE[0] + SLOPE[1])
    last = -0.5 * (SLOPE[-2] + SLOPE[-1])
    assert check((1,), [[first], [last]]).tolist() == [0, GRID.size - 2]
    b2 = 1.0
    b1 = -0.5 * (SLOPE[-3] + 3.0 * b2 * GRID[-3] ** 2 + SLOPE[-2] + 3.0 * b2 * GRID[-2] ** 2)
    assert check((1, 3), [[b1, b2]]).tolist() == [GRID.size - 3]
    assert GRID[1] < 1e-13 and GRID[-2] > 1.0 - 1e-13


@pytest.mark.parametrize("col", [_CHUNK, _CHUNK + 17, 78 * _CHUNK, 80 * _CHUNK])
def test_derivative_exactly_zero_at_a_grid_point(col):
    # f' = 0 exactly at grid point col, so the drop is (col - 1, col): an
    # edge-only model, and a falling triangle term ahead of an edge term that
    # cancels the float sum. Every part of f' falls with u, so at a shared
    # chunk end the lower bound of the chunk before it is exactly 0. At
    # 80 * _CHUNK the slope plus the triangle term rounds down, so the same
    # bound summed in another order (the terms first) reads 2^-53 above 0.
    b2 = -0.3
    for edges, coefs in (((1,), [-SLOPE[col]]), ((3, 1), [b2, -grid_derivative((3,), [b2])[col]])):
        assert grid_derivative(edges, coefs)[col] == 0.0
        assert check(edges, [coefs]).tolist() == [col - 1]


def test_edge_only_models():
    # the root of -1/2 logit u + beta1 at every chunk boundary and between
    bounds = np.arange(_CHUNK, GRID.size - 1, _CHUNK)
    between = -0.5 * (SLOPE[bounds - 1] + SLOPE[bounds])
    inside = -0.5 * (SLOPE[bounds + 5] + SLOPE[bounds + 6])
    rows = np.concatenate([between, inside, [-30.0, 30.0, 0.0]])[:, None]
    cols = check((1,), rows)
    assert cols.tolist()[: 2 * len(bounds)] == (bounds - 1).tolist() + (bounds + 5).tolist()
