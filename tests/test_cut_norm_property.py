"""Property tests of the exact cut-norm kernel against brute-force oracles.

cut_norm_diff must equal the max over every pair of 0/1 vertex vectors
(s, t) of |s M t| on the common refinement, with a witness rectangle that
attains it; cut_distance_upper must equal the minimum over every block
permutation of that value, at a permutation that attains it. On ties any
minimizing permutation is accepted. The cut norm is a pseudometric, and the
batched kernel stays within a fixed memory budget at the largest exhaustive
sizes. The kernel's float32 scan leaves the bits of the full float64 loop
unchanged, and every row's float32 value lies within the scan's margin.
"""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergmlab import graphons
from ergmlab.graphons import StepGraphon, common_refinement, cut_distance_upper, cut_norm_diff


@st.composite
def kernels(draw):
    k = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    equal = draw(st.booleans())
    return StepGraphon.random(k, np.random.default_rng(seed), equal_weights=equal)


def vertices(k: int) -> np.ndarray:
    idx = np.arange(1 << k)
    return ((idx[:, None] >> np.arange(k)) & 1).astype(float)


def brute_cut_norm(mass: np.ndarray) -> float:
    s = vertices(len(mass))
    return float(np.max(np.abs(s @ mass @ s.T)))


def refined_mass(f: StepGraphon, g: StepGraphon) -> np.ndarray:
    w, fv, gv = common_refinement(f, g)
    return np.outer(w, w) * (fv - gv)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kernels(), kernels())
def test_cut_norm_matches_vertex_oracle(f, g):
    mass = refined_mass(f, g)
    res = cut_norm_diff(f, g)
    assert res.exact
    assert res.value == pytest.approx(brute_cut_norm(mass), abs=1e-12)
    witness = abs(float(mass[np.ix_(res.witness_s, res.witness_t)].sum()))
    assert witness == pytest.approx(res.value, abs=1e-12)


@st.composite
def equal_block_pairs(draw):
    # block counts whose common refinement has at most 5 blocks
    k = draw(st.integers(1, 5))
    d = draw(st.sampled_from([d for d in range(1, k + 1) if k % d == 0]))
    seeds = draw(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)))
    pair = [StepGraphon.random(b, np.random.default_rng(x)) for b, x in zip((k, d), seeds)]
    return pair if draw(st.booleans()) else pair[::-1]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(equal_block_pairs())
def test_cut_distance_matches_permutation_oracle(pair):
    f, g = pair
    k = max(f.k, g.k)
    fr, gr = f.refine_equal(k), g.refine_equal(k)

    def brute(perm) -> float:
        p = np.asarray(perm)
        return brute_cut_norm(np.outer(fr.weights, fr.weights) * (fr.values - gr.values[np.ix_(p, p)]))

    values = {perm: brute(perm) for perm in itertools.permutations(range(k))}
    res = cut_distance_upper(f, g)
    assert res.exhaustive
    assert res.value == pytest.approx(min(values.values()), abs=1e-12)
    assert values[tuple(res.permutation)] == pytest.approx(res.value, abs=1e-12)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(kernels(), kernels(), kernels())
def test_cut_norm_symmetric_and_triangle_inequality(f, g, h):
    dfg = cut_norm_diff(f, g).value
    assert dfg == pytest.approx(cut_norm_diff(g, f).value, abs=1e-12)
    assert dfg <= cut_norm_diff(f, h).value + cut_norm_diff(h, g).value + 1e-12


@pytest.mark.parametrize("k, count, entries", [(13, 11, 2**20), (14, 3, 2**20), (14, 2, 2**15), (6, 40, 2**9)])
def test_batched_kernel_matches_direct_enumeration(k, count, entries):
    # high sign bits (k > 12), several matrices per block and partial last
    # blocks, against all 2^k rows enumerated at once per matrix
    r = np.random.default_rng(k)
    masses = r.normal(size=(count, k, k))
    with mock.patch.object(graphons, "_CUT_BLOCK_ENTRIES", entries):
        values, best, positive = graphons._cut_norm_exact(masses)
    s = vertices(k)
    for m, value, row, pos in zip(masses, values, best, positive):
        rows = s @ m
        want = max(np.maximum(rows, 0.0).sum(axis=1).max(), np.maximum(-rows, 0.0).sum(axis=1).max())
        assert value == pytest.approx(want, abs=1e-12)
        at = rows[row]
        assert (np.maximum(at, 0.0) if pos else np.maximum(-at, 0.0)).sum() == pytest.approx(value, abs=1e-12)


def full_blocked_loop(masses):
    """_cut_norm_exact as it ran before its float32 scan: every (matrix
    block, high block) cell in float64, at the module's block budget."""
    count, k, _ = masses.shape
    low = min(k, graphons._CUT_LOW_BITS)
    table, high = graphons._sign_table(low), graphons._sign_table(k - low)
    n_low, n_high = table.shape[0], high.shape[0]
    row_totals = masses.sum(axis=2)
    offsets = high @ masses[:, low:, :]
    offset_totals = row_totals[:, low:] @ high.T
    high_block = min(n_high, max(1, graphons._CUT_BLOCK_ENTRIES // (n_low * k)))
    p_block = max(1, graphons._CUT_BLOCK_ENTRIES // (n_low * k * high_block))
    if n_high > 1:
        buf = np.empty((p_block, high_block, n_low, k))
    ones = np.ones(k)
    values = np.full(count, -1.0)
    best = np.zeros(count, dtype=np.int64)
    positive = np.ones(count, dtype=bool)
    for p0 in range(0, count, p_block):
        p1 = min(p0 + p_block, count)
        rows = table @ masses[p0:p1, :low, :]
        totals = row_totals[p0:p1, :low] @ table.T
        for h0 in range(0, n_high, high_block):
            h1 = min(h0 + high_block, n_high)
            if n_high == 1:
                r = rows[:, None]
            else:
                r = np.add(rows[:, None], offsets[p0:p1, h0:h1, None, :], out=buf[: p1 - p0, : h1 - h0])
            pos = (np.maximum(r, 0.0, out=r) @ ones).reshape(p1 - p0, -1)
            neg = pos - (totals[:, None] + offset_totals[p0:p1, h0:h1, None]).reshape(p1 - p0, -1)
            for side, sides in ((True, pos), (False, neg)):
                i = np.argmax(sides, axis=1)
                v = sides[np.arange(p1 - p0), i]
                better = v > values[p0:p1]
                values[p0:p1][better] = v[better]
                best[p0:p1][better] = h0 * n_low + i[better]
                positive[p0:p1][better] = side
    return values, best, positive


def scan_stacks(k: int, count: int):
    """(count, k, k) stacks: normal masses, the zero mass (every row ties),
    duplicated blocks (ties across high settings) and duplicated blocks
    with one entry moved by 1 ulp, each scaled by 2^-600, 1 and 2^600."""
    r = np.random.default_rng(k)
    for kind in ("normal", "zero", "duplicated", "ulp"):
        masses = r.normal(size=(count, k, k))
        masses = masses + masses.transpose(0, 2, 1)
        if kind == "zero":
            masses[:] = 0.0
        elif kind != "normal":
            idx = r.integers(0, k // 3, size=k)
            masses = masses[:, idx][:, :, idx]
            if kind == "ulp":
                c, i, j = r.integers(0, count), r.integers(0, k), r.integers(0, k)
                masses[c, i, j] = np.nextafter(masses[c, i, j], np.inf)
        for scale in (2.0**-600, 1.0, 2.0**600):
            yield masses * scale


# the budgets of test_batched_kernel_matches_direct_enumeration and the
# default; the scan runs from 14 blocks at 2^15 and 2^9, from 15 at 2^17 and
# from 17 at 2^20, and stacks of three share blocks at 13 and 14 at 2^20
@pytest.mark.parametrize(
    "k, entries",
    [(13, 2**20), (13, 2**15), (14, 2**20), (14, 2**15), (15, 2**17), (16, 2**9),
     (17, 2**20), (18, 2**17), (19, 2**15), (20, 2**17), (20, 2**9)],
)
def test_scan_keeps_the_bits_of_the_full_loop(k, entries):
    with mock.patch.object(graphons, "_CUT_BLOCK_ENTRIES", entries):
        for masses in scan_stacks(k, 3 if k <= 16 else 1):
            got = graphons._cut_norm_exact(masses)
            want = full_blocked_loop(masses)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tolist() == want[1].tolist() and got[2].tolist() == want[2].tolist()


@pytest.mark.parametrize("k", [13, 14])
def test_scan_rows_lie_within_the_margin_of_their_float64_values(k):
    # one low row at a time, so each setting's estimate is one row's float32
    # value, held to that row's float64 value as the blocked loop forms it
    r = np.random.default_rng(k)
    table, high = graphons._sign_table(12), graphons._sign_table(k - 12)
    for mass in r.normal(size=(2, k, k)):
        row_totals = mass.sum(axis=1)
        rows, totals = table @ mass[:12], row_totals[:12] @ table.T
        offsets, offset_totals = high @ mass[12:], row_totals[12:] @ high.T
        r64 = rows[None] + offsets[:, None]  # (n_high, n_low, k)
        pos = np.maximum(r64, 0.0).sum(axis=2)
        scaled = np.ldexp(np.stack([pos, pos - (totals[None] + offset_totals[:, None])]), -np.frexp(np.abs(mass).max())[1])
        work = np.empty((1, 1, k))
        for i in range(len(rows)):
            estimates, margin = graphons._cut_scan(mass, rows[i : i + 1], totals[i : i + 1], offsets, offset_totals, work)
            assert np.abs(estimates - scaled[:, :, i]).max() <= margin


def traced_peak_mb(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_cut_kernels_stay_within_memory_budget():
    r = np.random.default_rng(21)
    f, g = StepGraphon.random(20, r), StepGraphon.random(20, r)
    assert traced_peak_mb(cut_norm_diff, f, g) < 32
    f, g = StepGraphon.random(8, r), StepGraphon.random(8, r)
    assert traced_peak_mb(cut_distance_upper, f, g) < 32
