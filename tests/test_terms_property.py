"""Property tests of the motif term objects against brute-force counting.

For every builtin motif class and for random small edge-list motifs
(isolated vertices included), on random graphs and random vertex pairs:
the term's count is the homomorphism count and its integer delta is the
exact change of that count when the pair's edge goes from absent to
present, read from a Graph, from the chain state and from a bare object
with only n and rows (the term protocol) alike, once scaled by
n per isolated motif vertex (a term counts its motif's active part); the Glauber
log-odds built from it is n^2 times the change of the density. The public
count and density, which read the term, agree with the search too.
"""

import itertools
import math
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergmlab import graphs
from ergmlab.graphs import (
    Graph,
    Motif,
    _indicator_graph,
    _term,
    count_homomorphisms,
    hom_density_graph,
)
from ergmlab.mcmc import _ChainState, _log_odds
from homomorphism_oracle import search_homomorphisms

BUILTIN = [
    "edge",
    "star:1",
    "star:2",
    "star:3",
    "triangle",
    "cycle:4",
    "cycle:5",
    "cycle:6",
    "cycle:7",
    "cycle:8",
    "complete:4",
    "complete:5",
    "complete:6",
]


@st.composite
def motifs(draw):
    if draw(st.booleans()):
        return Motif.parse(draw(st.sampled_from(BUILTIN)))
    v = draw(st.integers(2, 5))
    pairs = list(itertools.combinations(range(v), 2))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    return Motif(v, edges)


@st.composite
def graphs_with_pair(draw):
    n = draw(st.integers(2, 8))
    pairs = list(itertools.combinations(range(n), 2))
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph.from_edges(n, [p for p, on in zip(pairs, present) if on])
    i, j = draw(st.sampled_from(pairs))
    if draw(st.booleans()):
        i, j = j, i
    return g, i, j, np.array([present], dtype=np.int8)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(motifs(), graphs_with_pair())
def test_term_count_and_delta_match_brute_force(h, case):
    g, i, j, bits = case
    term = _term(h)
    on = g if g.has_edge(i, j) else g.with_edge_toggled(i, j)
    off = g.with_edge_toggled(i, j) if g.has_edge(i, j) else g
    change = search_homomorphisms(h, on) - search_homomorphisms(h, off)
    count = search_homomorphisms(h, g)
    # the term counts the active part; isolated vertices scale only the public count
    iso = g.n ** (h.vertex_count - term.motif.vertex_count)
    assert count_homomorphisms(h, g) == count
    assert hom_density_graph(h, g) == count / g.n**h.vertex_count
    for view in (g, _ChainState(g), types.SimpleNamespace(n=g.n, rows=g.rows)):
        assert term.delta(view, i, j) * iso == change
        assert term.count(view) * iso == count
        _, constant, weighted = _log_odds([(0.7, term)], g.n)
        log_odds = sum((scale * t.delta(view, i, j) for scale, t in weighted), constant)
        assert log_odds == pytest.approx(0.7 * change * g.n**2 / g.n**h.vertex_count, rel=1e-12)
    assert (term.batch(bits, g.n) * iso).tolist() == [count]


# -- the stacked batch counts ----------------------------------------------------------------

BATCH_SHAPES = ["cycle:4", "cycle:5", "cycle:6", "cycle:7", "complete:4", "complete:5"]


@st.composite
def batch_motifs(draw):
    """The term classes whose batch is not a gather: cycles, cliques and edge
    lists of up to 6 vertices, isolated ones included."""
    if draw(st.booleans()):
        return Motif.parse(draw(st.sampled_from(BATCH_SHAPES)))
    v = draw(st.integers(2, 6))
    pairs = list(itertools.combinations(range(v), 2))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=8, unique=True))
    return Motif(v, edges)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(batch_motifs(), st.integers(2, 8), st.integers(1, 3), st.integers(4, 7), st.integers(0, 2**32 - 1))
def test_batch_counts_match_brute_force_row_by_row(h, n, per_block, rows, seed):
    # blocks of per_block <= 3 graphs, so every batch of 4 to 7 spans more
    # than one block, and most end in a partial one
    bits = (np.random.default_rng(seed).random((rows, n * (n - 1) // 2)) < 0.6).astype(np.int8)
    term = _term(h)
    iso = n ** (h.vertex_count - term.motif.vertex_count)
    with mock.patch.object(graphs, "_PRODUCT_BLOCK_ENTRIES", per_block * n**2):
        counts = term.batch(bits, n)
    expected = [search_homomorphisms(h, _indicator_graph(n, row)) for row in bits]
    assert [c * iso for c in counts.tolist()] == expected


# the width switches of the stacked walks: 98^8 < 2^53 <= 99^8, where the
# float64 einsum contraction of earlier batches gave way to one exact count
# per row; at n = 256 the row sums of <A^2, A^2> end below 2^24 (float32)
# and at n = 257 above it (float64); at n = 40, A^11 of cycle:23 stays
# below 2^53 while A^12 of cycle:24 runs in Python ints, and both counts
# pass 2^64
WIDTH_SWITCHES = {98: [8], 99: [8], 256: [4, 5, 6], 257: [4, 5, 6], 40: [23, 24]}


@pytest.mark.parametrize("n", WIDTH_SWITCHES)
def test_cycle_batch_exact_on_both_sides_of_float64(n):
    pairs = n * (n - 1) // 2
    bits = np.ones((2, pairs), dtype=np.int8)
    bits[1] = np.random.default_rng(n).random(pairs) < 0.7
    for k in WIDTH_SWITCHES[n]:
        counts = _term(Motif.cycle(k)).batch(bits, n)
        expected = [graphs._closed_walks(graphs._adjacency(_indicator_graph(n, row)), k) for row in bits]
        assert counts.tolist() == expected
        assert counts[0] == (n - 1) ** k + (n - 1) * (-1) ** k
        # the dtype numpy infers from the Python ints: int64 below 2^63, Python ints past 2^64
        assert counts.dtype == np.array(expected).dtype == (object if n == 40 else np.int64)


# one motif of each term class; star:7 at n = 600 passes its 2^63 bound and
# keeps Python ints, cycle:8 at n = 300 passes 2^63 in n^k only
ZERO_ROW_CASES = [("edge", 5), ("star:2", 5), ("star:7", 600), ("triangle", 5), ("triangle", 9), ("cycle:4", 5),
                  ("cycle:8", 300), ("complete:4", 5), ("edgelist:0-1,1-2,2-0,2-3", 5)]


@pytest.mark.parametrize("spec, n", ZERO_ROW_CASES)
def test_zero_row_batch_has_the_dtype_of_one_empty_row(spec, n):
    # the clique batch, and the cycle batch once n^k >= 2^63, gave float64
    # for no rows
    term, m = _term(Motif.parse(spec)), n * (n - 1) // 2
    none, one = term.batch(np.zeros((0, m), np.int8), n), term.batch(np.zeros((1, m), np.int8), n)
    assert none.shape == (0,) and one.tolist() == [0]
    assert none.dtype == one.dtype == (object if spec == "star:7" else np.int64)


# complete:r on both sides of the gather's bound, C(n, r) C(r, 2) <= 2^15:
# r = 4 gathers at n = 20 (29,070 cells) and recurses at n = 21 (35,910), r = 5
# at n = 15 (30,030) and 16 (43,680), r = 6 at n = 13 (25,740) and 14 (45,045)
CLIQUE_SIDES = [(4, 20, True), (4, 21, False), (5, 15, True), (5, 16, False), (6, 13, True), (6, 14, False)]


@pytest.mark.parametrize("r, n, gathers", CLIQUE_SIDES)
def test_clique_batch_matches_brute_force_on_both_sides_of_the_gather(r, n, gathers):
    bits = (np.random.default_rng(n).random((3, n * (n - 1) // 2)) < 0.7).astype(np.int8)
    bits[0] = 1
    with mock.patch.object(graphs, "_cliques_by_gather", wraps=graphs._cliques_by_gather) as gather:
        counts = _term(Motif.complete(r)).batch(bits, n)
    assert gather.called == gathers
    assert counts.tolist() == [search_homomorphisms(Motif.complete(r), _indicator_graph(n, row)) for row in bits]
    assert counts[0] == math.perm(n, r)
