"""Property tests of the exact cut-norm kernel against brute-force oracles.

cut_norm_diff must equal the max over every pair of 0/1 vertex vectors
(s, t) of |s M t| on the common refinement, with a witness rectangle that
attains it; cut_distance_upper must equal the minimum over every block
permutation of that value, at a permutation that attains it. On ties any
minimizing permutation is accepted. The cut norm is a pseudometric, and the
batched kernel stays within a fixed memory budget at the largest exhaustive
sizes.
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
