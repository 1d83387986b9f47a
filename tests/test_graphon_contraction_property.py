"""Property tests of the graphon contraction against brute-force block sums.

For every builtin motif class and for random small edge-list motifs
(isolated vertices included), on random step kernels with equal and unequal
block weights: hom_density_graphon and delta_h equal a sum over every
assignment of motif vertices to blocks, whether the contraction runs in
numpy's C einsum directly or along einsum's greedy path. The delta keeps
the bits of one einsum per edge entry on a kernel and on a stack, on both
paths and at the direct-call limit, while running one einsum per class of
identical entries. The kernel solvers' operator keeps the bits of the
model's own statistic and derivative on one kernel, and a stack slice stays
within a few ulps on the sampled cases and within the stated rounding bound
of graphs._Contraction on star:5 at k = 5, where it moves further.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergmlab import graphons, graphs, variational
from ergmlab.graphons import StepGraphon, delta_h, hom_density_graphon, to_step_graphon
from ergmlab.graphs import Graph, Motif, _term, hom_density_graph
from ergmlab.variational import ModelSpec

BUILTIN = ["edge", "star:2", "star:3", "triangle", "cycle:4", "cycle:5", "complete:4"]


@st.composite
def motifs(draw):
    if draw(st.booleans()):
        return Motif.parse(draw(st.sampled_from(BUILTIN)))
    v = draw(st.integers(2, 5))
    pairs = list(itertools.combinations(range(v), 2))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    return Motif(v, edges)


@st.composite
def kernels(draw):
    k = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    equal = draw(st.booleans())
    return StepGraphon.random(k, np.random.default_rng(seed), equal_weights=equal)


def brute_density(h: Motif, g: StepGraphon) -> float:
    total = 0.0
    for blocks in itertools.product(range(g.k), repeat=h.vertex_count):
        term = 1.0
        for v in blocks:
            term *= g.weights[v]
        for i, j in h.edges:
            term *= g.values[blocks[i], blocks[j]]
        total += term
    return total


def brute_delta(h: Motif, g: StepGraphon) -> np.ndarray:
    total = np.zeros((g.k, g.k))
    for r, s in h.edges:
        term = np.zeros((g.k, g.k))
        for blocks in itertools.product(range(g.k), repeat=h.vertex_count):
            x = 1.0
            for v in range(h.vertex_count):
                if v not in (r, s):
                    x *= g.weights[blocks[v]]
            for i, j in h.edges:
                if (i, j) != (r, s):
                    x *= g.values[blocks[i], blocks[j]]
            term[blocks[r], blocks[s]] += x
        total += 0.5 * (term + term.T)
    return total


@settings(max_examples=300, deadline=None, derandomize=True)
@given(motifs(), kernels())
def test_contraction_matches_brute_force_block_sum(h, g):
    density, delta = brute_density(h, g), brute_delta(h, g)
    # 0 sends every kernel down the greedy path, the default sends these
    # small ones (k^|V(H)| <= 4^5) to the direct C einsum
    for cells in (graphs.DIRECT_EINSUM_MAX_CELLS, 0):
        with mock.patch.object(graphs, "DIRECT_EINSUM_MAX_CELLS", cells):
            assert hom_density_graphon(h, g) == pytest.approx(density, abs=1e-12)
            assert np.max(np.abs(delta_h(h, g) - delta), initial=0.0) <= 1e-12


def test_contraction_above_direct_threshold_matches_graph_counts():
    # 20^4 = 160,000 cells > 2^16: the greedy path, checked against the
    # graph's own density and against delta of C4 = 4 A^3 / n^2 (each of the
    # four edges, removed, leaves a 3-walk between its pinned ends)
    n = 20
    r = np.random.default_rng(20)
    pairs = list(itertools.combinations(range(n), 2))
    g = Graph.from_edges(n, [p for p in pairs if r.random() < 0.4])
    kernel = to_step_graphon(g)
    c4 = Motif.cycle(4)
    assert n**c4.vertex_count > graphs.DIRECT_EINSUM_MAX_CELLS
    assert hom_density_graphon(c4, kernel) == pytest.approx(hom_density_graph(c4, g), abs=1e-12)
    a = g.adjacency_matrix().astype(float)
    assert np.max(np.abs(delta_h(c4, kernel) - 4.0 * (a @ a @ a) / n**2)) <= 1e-12


# -- the stacked contraction of the kernel solvers ------------------------------------------------


@st.composite
def solver_motifs(draw):
    """Every motif class within the delta guard of 6 vertices, and edge
    lists with isolated vertices up to 8 vertices (at most 6 active)."""
    if draw(st.booleans()):
        return Motif.parse(draw(st.sampled_from(BUILTIN + ["star:5", "cycle:6", "complete:5"])))
    v = draw(st.integers(2, 8))
    pairs = list(itertools.combinations(range(v), 2))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=9, unique=True))
    if len({x for e in edges for x in e}) > graphons.DELTA_VERTEX_GUARD:
        edges = edges[:1]
    return Motif(v, edges)


def plain_contraction(h: Motif, g: StepGraphon):
    """Density and delta of the motif's active part as the contraction ran
    before its subscripts led with "...": the same subscripts without it,
    one einsum per edge entry."""
    density, terms, _ = graphs._motif_subscripts(_term(h).motif)
    operands = {"v": g.values, "w": g.weights, "1": np.ones(g.k)}

    def run(subscripts, kinds, _):
        return np.einsum(subscripts.replace("...", ""), *[operands[c] for c in kinds], optimize=False)

    total = np.zeros((g.k, g.k))
    for term in (run(*entry) for entry in terms):
        total += 0.5 * (term + term.T)
    return run(*density), total


def per_entry_delta(h: Motif, w: np.ndarray, values: np.ndarray, greedy: bool) -> np.ndarray:
    """Delta of a (k, k) kernel or an (R, k, k) stack as one einsum per edge
    entry, "..." kept, directly or along the entry's greedy path, each term
    symmetrized and added in entry order."""
    _, terms, _ = graphs._motif_subscripts(_term(h).motif)
    total = np.zeros(values.shape)
    for subscripts, kinds, _ in terms:
        operands = [{"v": values, "w": w, "1": np.ones(len(w))}[c] for c in kinds]
        path = graphs._einsum_path(subscripts, operands) if greedy else False
        term = np.einsum(subscripts, *operands, optimize=path)
        total += 0.5 * (term + term.swapaxes(-1, -2))
    return total


def ulps(stacked, single) -> float:
    """Largest elementwise gap in units of the last place of the larger value."""
    stacked, single = np.asarray(stacked), np.asarray(single)
    gap = np.abs(stacked - single) / np.spacing(np.maximum(np.abs(stacked), np.abs(single)))
    return float(np.max(gap, initial=0.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(solver_motifs(), st.integers(1, 6), st.integers(1, 5), st.booleans(), st.integers(0, 2**32 - 1))
def test_stacked_contraction_matches_single_kernels(h, k, count, equal, seed):
    r = np.random.default_rng(seed)
    w = np.full(k, 1.0 / k) if equal else r.dirichlet(np.ones(k))
    stack = np.stack([StepGraphon.random(k, r).values for _ in range(count)])
    op = graphons._Contraction(h, w, graphons.DELTA_VERTEX_GUARD)
    densities, deltas = op.density(stack), np.broadcast_to(op.delta(stack), stack.shape)
    for i in range(count):
        g = StepGraphon(w, stack[i])
        density, delta = plain_contraction(h, g)
        # a single kernel keeps every bit of the plain subscripts, through
        # the operator and through the public functions
        assert op.density(stack[i]).tobytes() == density.tobytes()
        assert op.delta(stack[i]).tobytes() == delta.tobytes()
        assert hom_density_graphon(h, g) == float(density)
        assert delta_h(h, g).tobytes() == delta.tobytes()
        # einsum may sum a stack in another order
        assert ulps(densities[i], density) <= 4
        assert ulps(deltas[i], delta) <= 4


@pytest.mark.parametrize("seed", range(4))
def test_stacked_star5_slice_within_the_rounding_bound(seed):
    # a 5-stack of 5-block kernels runs einsum's greedy path and one kernel
    # the direct call; the two differ by up to 136 ulps (seeds 0-5), inside
    # the relative (k^|V| + |V| + 2|E|) 2^-52 that nonnegative sums allow
    h, k, count = Motif.parse("star:5"), 5, 5
    r = np.random.default_rng(seed)
    w = r.dirichlet(np.ones(k))
    stack = np.stack([StepGraphon.random(k, r).values for _ in range(count)])
    op = graphons._Contraction(h, w, graphons.DELTA_VERTEX_GUARD)
    assert stack.size * k ** (h.vertex_count - 2) > graphs.DIRECT_EINSUM_MAX_CELLS >= k**h.vertex_count
    bound = (k**h.vertex_count + h.vertex_count + 2 * h.edge_count) * 2.0**-52
    densities, deltas = op.density(stack), op.delta(stack)
    for i in range(count):
        for stacked, single in ((densities[i], op.density(stack[i])), (deltas[i], op.delta(stack[i]))):
            assert np.all(np.abs(stacked - single) <= bound * np.maximum(stacked, single))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(solver_motifs(), st.integers(1, 6), st.integers(1, 5), st.booleans(), st.integers(0, 2**32 - 1))
def test_stacked_delta_keeps_the_bits_of_one_einsum_per_entry(h, k, count, equal, seed):
    r = np.random.default_rng(seed)
    w = np.full(k, 1.0 / k) if equal else r.dirichlet(np.ones(k))
    stack = np.stack([StepGraphon.random(k, r).values for _ in range(count)])
    # with every call direct, each class of entries is evaluated once; along
    # greedy paths each entry runs
    for cells, greedy in ((2**40, False), (0, True)):
        with mock.patch.object(graphs, "DIRECT_EINSUM_MAX_CELLS", cells):
            stacked = graphons._Contraction(h, w, graphons.DELTA_VERTEX_GUARD).delta(stack)
        assert stacked.tobytes() == per_entry_delta(h, w, stack, greedy).tobytes()


@pytest.mark.parametrize("name, k", [("triangle", 40), ("triangle", 41), ("star:2", 40), ("star:2", 41),
                                     ("star:3", 16), ("star:3", 17)])
def test_merged_entries_keep_their_bits_at_the_direct_limit(name, k):
    # k^|V(H)| cells run direct up to 2^16 (k = 40 for 3 vertices, 16 for 4)
    # and along greedy paths past it, where every entry runs; a 2-stack of
    # the smaller k runs greedy too
    h, r = Motif.parse(name), np.random.default_rng(k)
    w = r.dirichlet(np.ones(k))
    for count in (None, 2):
        values = StepGraphon.random(k, r).values if count is None else np.stack(
            [StepGraphon.random(k, r).values for _ in range(count)])
        greedy = values.size * k ** (h.vertex_count - 2) > graphs.DIRECT_EINSUM_MAX_CELLS
        op = graphons._Contraction(h, w, graphons.DELTA_VERTEX_GUARD)
        assert op.delta(values).tobytes() == per_entry_delta(h, w, values, greedy).tobytes()


@pytest.mark.parametrize("name, runs", [("edge", 0), ("triangle", 1), ("star:2", 1), ("star:3", 1), ("star:5", 1),
                                        ("cycle:4", 4), ("cycle:5", 5), ("complete:4", 6)])
def test_delta_runs_one_einsum_per_class_of_entries(name, runs):
    # the triangle's entries and those of a star give one array each; the
    # edge's entry reads no kernel value and runs on the first call only
    h, w = Motif.parse(name), np.full(3, 1.0 / 3)
    values = StepGraphon.random(3, np.random.default_rng(3)).values
    op = graphons._Contraction(h, w, graphons.DELTA_VERTEX_GUARD)
    op.delta(values)
    with mock.patch.object(graphs._Contraction, "_run", autospec=True, side_effect=graphs._Contraction._run) as run:
        delta = op.delta(values)
    assert run.call_count == runs
    assert delta.tobytes() == per_entry_delta(h, w, values, greedy=False).tobytes()
    # a returned delta is the caller's: changing it leaves the next one alone
    delta += 1.0
    assert op.delta(values).tobytes() == per_entry_delta(h, w, values, greedy=False).tobytes()


# -- the kernel operator of the solvers against the model's own methods ---------------------------


@st.composite
def operator_models(draw):
    """One to three motifs (builtin, or edge lists on up to 5 vertices with
    isolated vertices) and the edge term at any position, with zero,
    negative and positive coefficients."""
    coefficients = st.one_of(st.sampled_from([0.0, -1.0, 0.5]), st.floats(-3.0, 3.0))
    terms = [(m, draw(coefficients)) for m in draw(st.lists(motifs(), min_size=1, max_size=3))]
    terms.insert(draw(st.integers(0, len(terms))), (Motif.edge(), draw(coefficients)))
    return ModelSpec(terms)


@st.composite
def operator_stacks(draw):
    """Block weights (1-4 blocks, equal or not) and a stack of 1-3 symmetric
    kernels holding exact 0 and 1 entries and entries near 1e-160, whose
    products underflow to subnormals."""
    k, count = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = np.full(k, 1.0 / k) if draw(st.booleans()) else r.dirichlet(np.ones(k))
    a = r.uniform(0.0, 1.0, (count, k, k))
    special = r.integers(0, 4, (count, k, k))  # 0: keep, 1: 0.0, 2: 1.0, 3: near 1e-160
    a = np.where(special == 1, 0.0, np.where(special == 2, 1.0, a))
    a = np.where(special == 3, r.uniform(0.5, 2.0, a.shape) * 1e-160, a)
    upper = np.triu(np.ones((k, k), dtype=bool))
    return w, np.where(upper, a, a.swapaxes(-1, -2))


def hexes(x) -> list[str]:
    return [float(v).hex() for v in np.ravel(x)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(operator_models(), operator_stacks())
def test_kernel_operator_matches_the_model_methods_on_any_model(model, stack_of):
    w, stack = stack_of
    op = variational._KernelOperator(model, w, statistic=True)
    statistics, deltas = op.statistic(stack), np.broadcast_to(op.delta(stack), stack.shape)
    for i in range(len(stack)):
        g = StepGraphon(w, stack[i])
        statistic, delta = model.graphon_statistic(g), model.delta_sum(g)
        assert hexes(op.statistic(stack[i])) == hexes(statistic)
        assert hexes(op.delta(stack[i])) == hexes(delta)
        # a stack slice is within a few ulps of each term it sums
        betas = np.abs(model.betas)
        density_scale = sum(b * hom_density_graphon(m, g) for m, b in zip(model.motifs, betas))
        delta_scale = sum(b * np.abs(delta_h(m, g)) for m, b in zip(model.motifs, betas))
        assert abs(statistics[i] - statistic) <= 4 * np.spacing(density_scale)
        assert np.all(np.abs(deltas[i] - delta) <= 4 * np.spacing(delta_scale))
