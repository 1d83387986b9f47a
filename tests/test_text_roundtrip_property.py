"""Property tests of the text formats: what to_text writes, from_text reads
back unchanged.

Graphs (n <= 12), whose edges are listed in pair order, and step graphons
(k <= 6, equal and unequal block weights) come back bit for bit. A model
comes back with the same motifs and the same coefficient bits, -0.0
included, except that an unnamed motif written as an edge list loses the
isolated vertices above its largest edge vertex; such a motif comes back
with the same edges and the same density in every graph.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ergmlab.graphons import StepGraphon
from ergmlab.graphs import Graph, Motif, hom_density_graph
from ergmlab.variational import ModelSpec

BUILTIN = ["edge", "triangle", "star:1", "star:3", "cycle:4", "cycle:6", "complete:4"]


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    return Graph.from_edges(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(graphs())
def test_graph_text_roundtrip(g):
    # the edges come in pair order, taken here from itertools, apart from the code under test
    assert g.edges() == [p for p in itertools.combinations(range(g.n), 2) if g.has_edge(*p)]
    back = Graph.from_text(g.to_text())
    assert back == g
    assert back.to_text() == g.to_text()


@st.composite
def step_graphons(draw):
    k = draw(st.integers(1, 6))
    if draw(st.booleans()):
        w = np.full(k, 1.0 / k)
    else:
        w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
        w = w / w.sum()
    v = np.zeros((k, k))
    v[np.triu_indices(k)] = draw(st.lists(st.floats(0.0, 1.0), min_size=k * (k + 1) // 2,
                                          max_size=k * (k + 1) // 2))
    return StepGraphon(w, v + np.triu(v, 1).T)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(step_graphons())
def test_step_graphon_text_roundtrip(h):
    back = StepGraphon.from_text(h.to_text())
    assert back.weights.tobytes() == h.weights.tobytes()
    assert back.values.tobytes() == h.values.tobytes()


@st.composite
def motifs(draw):
    if draw(st.booleans()):
        return Motif.parse(draw(st.sampled_from(BUILTIN)))
    v = draw(st.integers(2, 6))
    pairs = list(itertools.combinations(range(v), 2))
    return Motif(v, draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6, unique=True)))


coefficients = st.just(-0.0) | st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(motifs(), coefficients), min_size=1, max_size=4), graphs(max_n=5))
def test_model_text_roundtrip(terms, g):
    back = ModelSpec.from_text(ModelSpec(terms).to_text())
    assert [b.hex() for _, b in back.terms] == [float(b).hex() for _, b in terms]
    for (m, _), (mb, _) in zip(terms, back.terms):
        if m.vertex_count == 1 + max(max(e) for e in m.edges):
            assert mb == m
        else:
            assert mb.edges == m.edges
            assert hom_density_graph(mb, g) == hom_density_graph(m, g)
