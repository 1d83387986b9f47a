import math

import numpy as np
import pytest

from ergmlab.errors import DomainError, FormatError, InstanceTooLargeError
from ergmlab.graphs import Graph, Motif, hom_density_graph
from ergmlab.graphons import (
    StepGraphon,
    common_refinement,
    cut_distance_upper,
    cut_norm_diff,
    delta_h,
    edge_entropy,
    hom_density_graphon,
    rate_entropy,
    rate_relative,
    relative_edge_entropy,
    to_step_graphon,
)


def rng(seed=0):
    return np.random.default_rng(np.random.Philox(key=seed))


def bipartite_kernel(p):
    return StepGraphon.equal_blocks([[0.0, p], [p, 0.0]])


# -- densities --------------------------------------------------------------------


def test_constant_density_is_power_of_edge_count():
    for u in (0.0, 0.3, 0.5, 1.0):
        h = StepGraphon.constant(u)
        for m in (Motif.edge(), Motif.star(2), Motif.triangle(), Motif.complete(4)):
            assert hom_density_graphon(m, h) == pytest.approx(u**m.edge_count, abs=1e-14)


def test_triangle_density_vanishes_on_bipartite_kernel():
    assert hom_density_graphon(Motif.triangle(), bipartite_kernel(1.0)) == 0.0
    assert hom_density_graphon(Motif.triangle(), bipartite_kernel(0.7)) == 0.0


def test_edge_density_is_weighted_block_sum():
    r = rng(1)
    h = StepGraphon.random(4, r, equal_weights=False)
    direct = float(np.einsum("a,b,ab->", h.weights, h.weights, h.values))
    assert hom_density_graphon(Motif.edge(), h) == pytest.approx(direct, abs=1e-14)


def test_density_guards():
    with pytest.raises(InstanceTooLargeError):
        hom_density_graphon(Motif(9, [(i, i + 1) for i in range(8)]), StepGraphon.constant(0.5))


def test_embedding_identity_exhaustive_small():
    # graph density equals kernel density of the graph's own step kernel:
    # exhaustive over every graph on up to 4 vertices, sampled above that
    import itertools as it

    motifs = [Motif.edge(), Motif.star(2), Motif.star(3), Motif.triangle(), Motif.cycle(4)]
    for n in (2, 3, 4):
        pairs = list(it.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph.from_edges(n, [pairs[t] for t in range(len(pairs)) if mask >> t & 1])
            h = to_step_graphon(g)
            for m in motifs:
                assert hom_density_graph(m, g) == pytest.approx(
                    hom_density_graphon(m, h), abs=1e-12
                )
    r = rng(2)
    for _ in range(10):
        n = int(r.integers(5, 7))
        g = Graph.erdos_renyi(n, r.uniform(0.1, 0.9), r)
        h = to_step_graphon(g)
        for m in motifs:
            assert hom_density_graph(m, g) == pytest.approx(
                hom_density_graphon(m, h), abs=1e-12
            )


def test_holder_bound_with_equality_at_constants():
    r = rng(3)
    motifs = [Motif.edge(), Motif.star(2), Motif.triangle(), Motif.cycle(4)]
    for _ in range(50):
        h = StepGraphon.random(int(r.integers(1, 5)), r, equal_weights=False)
        for m in motifs:
            bound = float(
                np.einsum("a,b,ab->", h.weights, h.weights, h.values**m.edge_count)
            )
            assert hom_density_graphon(m, h) <= bound + 1e-12
    u = 0.42
    const = StepGraphon.constant(u)
    for m in motifs:
        bound = u**m.edge_count
        assert hom_density_graphon(m, const) == pytest.approx(bound, abs=1e-10)


# -- rate functions -----------------------------------------------------------------


def test_rate_entropy_values():
    assert rate_entropy(StepGraphon.constant(0.5)) == pytest.approx(-0.5 * math.log(2))
    assert rate_entropy(StepGraphon.constant(0.0)) == 0.0
    assert rate_entropy(StepGraphon.constant(1.0)) == 0.0


def test_rate_relative_nonnegative_and_zero_at_p():
    r = rng(4)
    for _ in range(40):
        p = float(r.uniform(0.05, 0.95))
        h = StepGraphon.random(int(r.integers(1, 5)), r, equal_weights=False)
        val = rate_relative(h, p)
        assert val >= -1e-13
    assert rate_relative(StepGraphon.constant(0.37), 0.37) == pytest.approx(0.0, abs=1e-14)
    # zero iff every block value equals p
    assert rate_relative(bipartite_kernel(0.3), 0.3) > 1e-3


def test_rate_relative_bipartite_closed_form():
    for p in (0.2, 0.5, 0.8):
        g = StepGraphon.equal_blocks([[0.0, p], [p, 0.0]])
        assert rate_relative(g, p) == pytest.approx(0.25 * math.log(1 / (1 - p)), abs=1e-14)


def test_rate_relative_shift_identity():
    # against p = 1/2 the relative rate is the entropy rate plus log(2)/2
    for u in (0.0, 0.25, 0.61, 1.0):
        assert relative_edge_entropy(u, 0.5) == pytest.approx(
            edge_entropy(u) + 0.5 * math.log(2), abs=1e-14
        )


def test_rate_relative_domain():
    with pytest.raises(DomainError):
        rate_relative(StepGraphon.constant(0.5), 0.0)
    with pytest.raises(DomainError):
        rate_relative(StepGraphon.constant(0.5), 1.0)


# -- cut norm -------------------------------------------------------------------------


def test_cut_norm_identical():
    r = rng(5)
    h = StepGraphon.random(3, r)
    res = cut_norm_diff(h, h)
    assert res.value == 0.0 and res.exact


def test_cut_norm_full_mass():
    res = cut_norm_diff(StepGraphon.constant(1.0), StepGraphon.constant(0.0))
    assert res.value == pytest.approx(1.0)


def test_cut_norm_bipartite_vs_half():
    # frozen from exhaustive enumeration of the 16 vertex pairs of the
    # 2-block bilinear form: the best rectangle is one block against one
    # block, giving |0 - 1/2| * 1/4 = 1/8
    res = cut_norm_diff(bipartite_kernel(1.0), StepGraphon.constant(0.5))
    assert res.value == pytest.approx(0.125, abs=1e-14)
    assert res.exact


def test_cut_norm_matches_exhaustive_vertex_oracle():
    r = rng(6)
    for _ in range(15):
        k = int(r.integers(1, 4))
        f = StepGraphon.random(k, r)
        g = StepGraphon.random(int(r.integers(1, 4)), r)
        w, fv, gv = common_refinement(f, g)
        mass = np.outer(w, w) * (fv - gv)
        kk = len(w)
        best = 0.0
        for smask in range(1 << kk):
            for tmask in range(1 << kk):
                s = np.array([(smask >> i) & 1 for i in range(kk)], dtype=float)
                t = np.array([(tmask >> i) & 1 for i in range(kk)], dtype=float)
                best = max(best, abs(float(s @ mass @ t)))
        assert cut_norm_diff(f, g).value == pytest.approx(best, abs=1e-12)


def test_cut_norm_symmetry_and_triangle_inequality():
    r = rng(7)
    for _ in range(15):
        f = StepGraphon.random(2, r)
        g = StepGraphon.random(3, r)
        h = StepGraphon.random(2, r)
        dfg = cut_norm_diff(f, g).value
        assert dfg == pytest.approx(cut_norm_diff(g, f).value, abs=1e-12)
        assert dfg <= cut_norm_diff(f, h).value + cut_norm_diff(h, g).value + 1e-9


def test_cut_norm_zero_iff_equal_on_refinement():
    f = StepGraphon.equal_blocks([[0.3, 0.7], [0.7, 0.3]])
    g = f.refine_equal(4)
    assert cut_norm_diff(f, g).value == pytest.approx(0.0, abs=1e-14)


def test_cut_norm_heuristic_mode_lower_bounds_exact():
    # beyond 24 blocks the alternating heuristic runs; on a kernel pair that
    # also fits the exact mode after coarsening we can at least check it
    # certifies a sound lower bound on a planted difference
    r = rng(8)
    k = 30
    a = r.uniform(0, 1, (k, k))
    v = 0.5 * (a + a.T)
    f = StepGraphon.equal_blocks(v)
    g = StepGraphon.equal_blocks(np.clip(v + 0.2, 0, 1))
    res = cut_norm_diff(f, g)
    assert not res.exact
    assert 0.15 <= res.value <= 0.2 + 1e-9


# -- cut distance ----------------------------------------------------------------------


def test_cut_distance_permutation_invariance():
    r = rng(9)
    a = r.uniform(0, 1, (3, 3))
    v = 0.5 * (a + a.T)
    f = StepGraphon.equal_blocks(v)
    perm = [2, 0, 1]
    g = StepGraphon.equal_blocks(v[np.ix_(perm, perm)])
    res = cut_distance_upper(f, g)
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert res.exhaustive


def test_cut_distance_constants():
    res = cut_distance_upper(StepGraphon.constant(0.9), StepGraphon.constant(0.4))
    assert res.value == pytest.approx(0.5, abs=1e-12)


def test_cut_distance_bipartite_vs_half():
    res = cut_distance_upper(bipartite_kernel(1.0), StepGraphon.constant(0.5))
    assert res.value == pytest.approx(0.125, abs=1e-12)


def test_cut_distance_requires_equal_weights():
    f = StepGraphon([0.3, 0.7], [[0.1, 0.2], [0.2, 0.3]])
    with pytest.raises(DomainError):
        cut_distance_upper(f, StepGraphon.constant(0.5))


def test_cut_distance_annealed_mode_upper_bounds_zero_case():
    r = rng(10)
    k = 9  # lcm forces annealing (> 8 exhaustive cap)
    a = r.uniform(0, 1, (k, k))
    v = 0.5 * (a + a.T)
    f = StepGraphon.equal_blocks(v)
    perm = list(r.permutation(k))
    g = StepGraphon.equal_blocks(v[np.ix_(perm, perm)])
    res = cut_distance_upper(f, g, seed=3)
    assert not res.exhaustive
    assert res.value < 0.25  # a sound upper bound that annealing should beat


def _annealed_per_step(f, g, seed):
    """cut_distance_upper beyond 8 blocks as it scored each candidate: a
    StepGraphon of the permuted refined kernel, then its cut_norm_diff."""
    k = math.lcm(f.k, g.k)
    fr, gr = f.refine_equal(k), g.refine_equal(k)

    def dist_for(perm):
        return cut_norm_diff(fr, StepGraphon(gr.weights, gr.values[np.ix_(perm, perm)]), seed=seed).value

    r = rng(seed)
    perm = np.arange(k)
    best = cur = dist_for(perm)
    best_perm, temp = perm.copy(), 0.1
    for _ in range(2000):
        i, j = r.integers(0, k, size=2)
        if i == j:
            continue
        cand = perm.copy()
        cand[i], cand[j] = cand[j], cand[i]
        d = dist_for(cand)
        if d < cur or r.random() < math.exp(-(d - cur) / max(temp, 1e-9)):
            perm, cur = cand, d
            if d < best:
                best, best_perm = d, perm.copy()
        temp *= 0.997
    return best, tuple(int(x) for x in best_perm)


@pytest.mark.parametrize("k", [9, 10])
@pytest.mark.parametrize("relabelled", [False, True])
def test_annealed_distance_matches_the_per_step_kernels(k, relabelled):
    # every candidate is scored on the masses of one common refinement; the
    # values and the permutation must keep their bits
    r = rng(5)
    f, g = StepGraphon.random(k, r), StepGraphon.random(k, r)
    if relabelled:
        p = r.permutation(k)
        g = StepGraphon(f.weights, f.values[np.ix_(p, p)])
    res = cut_distance_upper(f, g, seed=5)
    value, perm = _annealed_per_step(f, g, 5)
    assert not res.exhaustive and res.value.hex() == value.hex() and res.permutation == perm


def test_negative_seed_runs_its_64_bit_residue():
    r = rng(11)
    f, g = StepGraphon.random(9, r), StepGraphon.random(9, r)
    assert cut_distance_upper(f, g, seed=-1) == cut_distance_upper(f, g, seed=2**64 - 1)
    # 30 blocks take the seeded alternating maximization
    f, g = StepGraphon.random(30, r), StepGraphon.random(30, r)
    assert cut_norm_diff(f, g, seed=-1) == cut_norm_diff(f, g, seed=2**64 - 1)


@pytest.mark.parametrize("seed", [2.5, "x", None])
@pytest.mark.parametrize("k", [5, 30])
def test_non_integer_seed_raises_on_every_path(seed, k):
    # 5 blocks take the exact norm and the exhaustive distance, which draw
    # nothing; 30 the alternating maximization and the annealed distance
    r = rng(12)
    f, g = StepGraphon.random(k, r), StepGraphon.random(k, r)
    with pytest.raises(DomainError, match=f"seed must be an integer, got {seed!r}"):
        cut_norm_diff(f, g, seed=seed)
    with pytest.raises(DomainError, match=f"seed must be an integer, got {seed!r}"):
        cut_distance_upper(f, g, seed=seed)


# -- derivative operator -----------------------------------------------------------------


def test_delta_triangle_constant():
    d = delta_h(Motif.triangle(), StepGraphon.constant(0.6))
    assert np.allclose(d, 3 * 0.36)


def test_delta_edge_is_one():
    r = rng(11)
    h = StepGraphon.random(3, r)
    assert np.allclose(delta_h(Motif.edge(), h), 1.0)


def test_delta_two_star_brute_force():
    r = rng(12)
    h = StepGraphon.random(3, r, equal_weights=False)
    d = delta_h(Motif.star(2), h)
    k = h.k
    w, v = h.weights, h.values
    expected = np.zeros((k, k))
    # star edges (0,1), (0,2): pin each edge in turn, sum over the free leaf
    for a in range(k):
        for b in range(k):
            expected[a, b] = sum(w[c] * v[a, c] for c in range(k)) + sum(
                w[c] * v[b, c] for c in range(k)
            )
    assert np.allclose(d, expected, atol=1e-13)


def test_delta_is_density_gradient():
    r = rng(13)
    h = StepGraphon.random(3, r, equal_weights=False)
    direction = r.uniform(-1, 1, (3, 3))
    direction = 0.5 * (direction + direction.T)
    eps = 1e-6
    for m in (Motif.triangle(), Motif.star(3), Motif.cycle(4), Motif.complete(4)):
        up = StepGraphon(h.weights, np.clip(h.values + eps * direction, 0, 1))
        dn = StepGraphon(h.weights, np.clip(h.values - eps * direction, 0, 1))
        fd = (hom_density_graphon(m, up) - hom_density_graphon(m, dn)) / (2 * eps)
        analytic = float(
            np.einsum("a,b,ab,ab->", h.weights, h.weights, direction, delta_h(m, h))
        )
        assert fd == pytest.approx(analytic, rel=1e-4)


def test_delta_guard():
    with pytest.raises(InstanceTooLargeError):
        delta_h(Motif(7, [(i, i + 1) for i in range(6)]), StepGraphon.constant(0.5))
    # 200^4 > 1e9: the size guard raises before any contraction starts
    big = StepGraphon.equal_blocks(np.full((200, 200), 0.5))
    with pytest.raises(InstanceTooLargeError, match="exceeds"):
        delta_h(Motif.complete(4), big)


def test_contractions_read_the_active_part_of_a_motif():
    # 5 of the 14 vertices carry an edge: within the delta guard of 6, and
    # with 13 dropped the motif is the isolated-vertex-free one, bit for bit
    padded = Motif.parse("edgelist:0-1,1-2,2-0,2-3,3-13")
    plain = Motif.parse("edgelist:0-1,1-2,2-0,2-3,3-4")
    g = StepGraphon([0.2, 0.3, 0.5], [[0.1, 0.7, 0.4], [0.7, 0.9, 0.2], [0.4, 0.2, 0.6]])
    assert hom_density_graphon(padded, g) == hom_density_graphon(plain, g)
    assert delta_h(padded, g).tobytes() == delta_h(plain, g).tobytes()
    # 30 vertices, one edge: more than the einsum alphabet, and the density guard
    assert hom_density_graphon(Motif(30, [(0, 29)]), g) == hom_density_graphon(Motif.edge(), g)


# -- type plumbing --------------------------------------------------------------------------


def test_stepgraphon_validation():
    with pytest.raises(DomainError):
        StepGraphon([0.5, 0.6], np.zeros((2, 2)))  # weights sum > 1
    with pytest.raises(DomainError):
        StepGraphon([1.0], [[1.5]])  # value out of range
    with pytest.raises(DomainError):
        StepGraphon([0.5, 0.5], [[0.1, 0.2], [0.9, 0.1]])  # asymmetric
    # nan passes every comparison-based check, so it is refused by name
    for w, v in (([0.5, 0.5], np.full((2, 2), np.nan)), ([0.5, 0.5], [[0.5, np.nan], [np.nan, 0.5]]),
                 ([np.nan, 1.0], np.full((2, 2), 0.5)), ([np.nan], [[0.5]])):
        with pytest.raises(DomainError, match="must be finite"):
            StepGraphon(w, v)


def test_block_count_guards():
    # lcm(7, 11) = 77 equal blocks exceed the 64-block refinement limit
    f = StepGraphon.equal_blocks(np.full((7, 7), 0.5))
    g = StepGraphon.equal_blocks(np.full((11, 11), 0.5))
    with pytest.raises(DomainError, match="64 blocks"):
        cut_distance_upper(f, g)
    for k in (0, -2):
        with pytest.raises(DomainError, match="at least one block"):
            StepGraphon.random(k, rng())
    with pytest.raises(DomainError, match="at least one block"):
        StepGraphon.equal_blocks([])
    for k in (0, -3):
        with pytest.raises(DomainError, match="at least one block"):
            StepGraphon.constant(0.5).refine_equal(k)
    # a float block count once raised a raw TypeError; a numpy integer
    # gives the Python int's graphon
    with pytest.raises(DomainError, match="k must be an integer, got 2.0"):
        StepGraphon.random(2.0, rng())
    with pytest.raises(DomainError, match="k_new must be an integer, got 2.0"):
        StepGraphon.constant(0.5).refine_equal(2.0)
    h = StepGraphon.random(np.int64(2), rng(4))
    assert h.to_text() == StepGraphon.random(2, rng(4)).to_text()
    assert h.refine_equal(np.int64(4)).to_text() == h.refine_equal(4).to_text()
    half = np.full((2, 2), 0.5)
    # two partitions of 2100 random cuts merge to more than 4096 blocks
    r = rng(3)
    wide = [r.uniform(0.5, 1.0, 2100) for _ in range(2)]
    for match, call in [
        ("nonempty vector", lambda: StepGraphon([], [])),
        ("nonnegative", lambda: StepGraphon([1.5, -0.5], half)),
        (r"values must be 1x1, got \(1, 2\)", lambda: StepGraphon([1.0], [[0.5, 0.5]])),
        ("requires equal block weights", lambda: StepGraphon([0.25, 0.75], half).refine_equal(4)),
        ("cannot refine 2 equal blocks into 3", lambda: StepGraphon.equal_blocks(half).refine_equal(3)),
        ("exceed 4096 blocks", lambda: common_refinement(
            *(StepGraphon(w / w.sum(), np.zeros((2100, 2100))) for w in wide))),
    ]:
        with pytest.raises(DomainError, match=match):
            call()


def test_text_roundtrip_and_symmetrization():
    r = rng(14)
    h = StepGraphon.random(3, r, equal_weights=False)
    back = StepGraphon.from_text(h.to_text())
    assert np.allclose(back.weights, h.weights)
    assert np.allclose(back.values, h.values)
    with pytest.raises(FormatError):
        StepGraphon.from_text("2\n0.5 0.5\n0.1 0.2\n0.9 0.1\n")
    # malformed numbers and short rows name their line
    for text in ("two\n0.5 0.5\n", "2\n0.5 x\n0.1 0.2\n0.2 0.1\n", "2\n0.5 0.5\n0.1 0.2\n0.2 y\n",
                 "2\n0.5 0.5\n0.1\n0.2 0.1\n"):
        with pytest.raises(FormatError, match="bad graphon"):
            StepGraphon.from_text(text)
    # a block count alone, and a file one value row short or one row long
    for text, match in [("1\n", "block count and a weights line"),
                        ("2\n0.5 0.5\n0.1 0.2\n", "dimensions do not match"),
                        ("2\n0.5 0.5\n0.1 0.2\n0.2 0.3\n9 9\n", "dimensions do not match")]:
        with pytest.raises(FormatError, match=match):
            StepGraphon.from_text(text)


def test_common_refinement_merges_drifted_boundaries():
    f = StepGraphon([0.5, 0.5], [[0.1, 0.2], [0.2, 0.3]])
    g = StepGraphon([0.5 + 1e-12, 0.5 - 1e-12], [[0.4, 0.5], [0.5, 0.6]])
    w, fv, gv = common_refinement(f, g)
    assert len(w) == 2
