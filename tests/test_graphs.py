import itertools
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergmlab import graphs
from ergmlab.errors import DomainError, FormatError, InstanceTooLargeError
from ergmlab.graphs import (
    MAX_VERTICES,
    Graph,
    Motif,
    _bit_matrix,
    _bit_rows,
    _exact_inner,
    _exact_product,
    _indicator_graph,
    _python_ints,
    _term,
    _vertex_pairs,
    chromatic_number,
    classify_motif,
    count_homomorphisms,
    hom_density_graph,
)
from ergmlab.mcmc import ChainConfig, run_chain
from homomorphism_oracle import search_homomorphisms


def rng(seed=0):
    return np.random.default_rng(np.random.Philox(key=seed))


# -- counting ------------------------------------------------------------------


def test_hom_two_star_into_triangle():
    # every map must send both star edges to edges of K3: 3 * 2 * 2 = 12,
    # frozen from brute force over all 27 maps
    assert count_homomorphisms(Motif.star(2), Graph.complete(3)) == 12


def test_hom_edge_into_empty():
    assert count_homomorphisms(Motif.edge(), Graph.empty(5)) == 0


def test_hom_triangle_into_k4():
    # 4 * 3 * 2 ordered triples of mutually adjacent vertices
    assert count_homomorphisms(Motif.triangle(), Graph.complete(4)) == 24


def test_density_edge_into_complete():
    for n in (2, 3, 5, 8):
        assert hom_density_graph(Motif.edge(), Graph.complete(n)) == pytest.approx(
            (n - 1) / n
        )


def test_density_edge_into_empty():
    assert hom_density_graph(Motif.edge(), Graph.empty(4)) == 0.0


def test_edge_and_triangle_counts():
    assert Graph.complete(4).edge_count() == 6
    assert Graph.complete(4).triangle_count() == 4
    assert Graph.complete(5).edge_count() == 10
    assert Graph.complete(5).triangle_count() == 10
    assert Graph.empty(6).edge_count() == 0
    assert Graph.empty(6).triangle_count() == 0


def test_edge_density():
    assert Graph.complete(7).edge_density() == 1.0
    assert Graph.empty(3).edge_density() == 0.0
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert c5.edge_density() == 0.5
    with pytest.raises(DomainError):
        Graph.empty(1).edge_density()


def test_triangle_count_matches_hom_count():
    r = rng(1)
    for _ in range(25):
        n = int(r.integers(2, 9))
        g = Graph.erdos_renyi(n, r.uniform(0.1, 0.9), r)
        assert 6 * g.triangle_count() == search_homomorphisms(Motif.triangle(), g)
    # the closed 3-walks count on to n = 40, and on K_1001 beyond the
    # search's map guard
    for n in range(9, 41):
        g = Graph.erdos_renyi(n, r.uniform(0.1, 0.9), r)
        assert 6 * g.triangle_count() == search_homomorphisms(Motif.triangle(), g)
    assert Graph.complete(1001).triangle_count() == 1001 * 1000 * 999 // 6


def test_hom_count_invariant_under_relabeling():
    r = rng(2)
    motifs = [Motif.edge(), Motif.star(2), Motif.triangle(), Motif.cycle(4)]
    for _ in range(10):
        n = int(r.integers(3, 7))
        g = Graph.erdos_renyi(n, r.uniform(0.2, 0.8), r)
        perm = list(r.permutation(n))
        gp = Graph.from_edges(n, [(perm[i], perm[j]) for i, j in g.edges()])
        for m in motifs:
            assert count_homomorphisms(m, g) == count_homomorphisms(m, gp)


def test_fast_paths_agree_with_brute_force():
    r = rng(3)
    motifs = [
        Motif.edge(),
        Motif.star(2),
        Motif.star(3),
        Motif.triangle(),
        Motif.cycle(4),
        Motif.cycle(5),
        Motif.complete(4),
    ]
    for _ in range(15):
        n = int(r.integers(3, 7))
        g = Graph.erdos_renyi(n, r.uniform(0.1, 0.9), r)
        for m in motifs:
            assert count_homomorphisms(m, g) == search_homomorphisms(m, g)


@pytest.mark.parametrize("n, lengths", [(300, range(3, 10)), (40, (23, 24))])
def test_cycle_counts_exact_beyond_float(n, lengths):
    # closed walks in K_n: tr(A^k) = (n-1)^k + (n-1)(-1)^k. The counts pass
    # 2^53 (n = 300, k >= 7) and the int64 range (n = 40, k >= 23), where a
    # rounded float trace is off and the exact path falls back to Python ints.
    # The change statistic's walks reach the same fallbacks: its Gram product
    # at n = 300, k >= 8 and the walks themselves at n = 40
    g = Graph.complete(n)
    cut = g.with_edge_toggled(0, 1)
    for k in lengths:
        cycle = Motif.cycle(k)
        full = count_homomorphisms(cycle, g)
        assert full == (n - 1) ** k + (n - 1) * (-1) ** k, k
        if k >= 5:
            assert _term(cycle).delta(g, 0, 1) == full - count_homomorphisms(cycle, cut), k


def _cut_complete_walks(n, k):
    """tr(A^k) for K_n minus one edge, in Python ints: eigenvalue -1 (n - 3
    times), 0 (on e_0 - e_1) and the two of [[0, n-2], [2, n-3]], the
    quotient on the cut pair and the rest."""
    p = [[1, 0], [0, 1]]
    for _ in range(k):
        p = [[2 * p[0][1], (n - 2) * p[0][0] + (n - 3) * p[0][1]],
             [2 * p[1][1], (n - 2) * p[1][0] + (n - 3) * p[1][1]]]
    return (n - 3) * (-1) ** k + p[0][0] + p[1][1]


@pytest.mark.parametrize("n", [256, 257])
def test_cycle_counts_exact_across_float32_width(n):
    # A^4 = (A^2)(A^2)^T, the row sums of <A^2, A^2> and the Gram product
    # of the pair's two-step walks have partial sums up to n (n-1)^2, which
    # passes 2^24, the float32 limit, between n = 256 and 257; both sides
    # must count exactly, against closed forms for K_n and K_n minus an edge
    g = Graph.complete(n)
    cut = g.with_edge_toggled(0, 1)
    for k in range(4, 10):
        cycle = Motif.cycle(k)
        full, minus = (n - 1) ** k + (n - 1) * (-1) ** k, _cut_complete_walks(n, k)
        assert count_homomorphisms(cycle, g) == full, k
        assert count_homomorphisms(cycle, cut) == minus, k
        assert _term(cycle).delta(g, 0, 1) == full - minus, k
        assert _term(cycle).delta(cut, 0, 1) == full - minus, k


# (n, max x, max y): n max(x) max(y) just below and just above the float32
# (2^24) and float64 (2^53) limits of exact sums; each product is odd, so a
# sum that reaches it is not representable one width down
EXACT_WIDTH_BOUNDS = [
    (255, 273, 241),  # 2^24 - 1: float32
    (257, 257, 255),  # 2^24 + 65279: float64
    (6361, 69431, 20394401),  # 2^53 - 1: float64
    (1025, 2**21 + 1, 2**22 + 1),  # 2^53 + 8.8e12: int64 row sums, Python-int products
]


def _int_matrix(r, rows, cols, top, full_row):
    """Nonnegative ints up to top with one row of all top (so some sum reaches the bound)."""
    x = r.integers(0, top + 1, size=(rows, cols), dtype=np.int64)
    x[full_row] = top
    return x


@pytest.mark.parametrize("n, mx, my", EXACT_WIDTH_BOUNDS)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_exact_product_and_inner_match_python_ints(n, mx, my, seed):
    r = rng(seed)
    x = _int_matrix(r, 3, n, mx, 0)
    y = _int_matrix(r, 2, n, my, 1).T  # n x 2, column 1 all my
    ref = [[sum(a * b for a, b in zip(row, col)) for col in y.T.tolist()] for row in x.tolist()]
    assert ref[0][1] == n * mx * my
    for dtype in (np.float32, np.float64, object):
        if dtype is np.float32 and max(mx, my) >= 2**24:
            continue
        got = _exact_product(x.astype(dtype), y.astype(dtype))
        assert _python_ints(got).tolist() == ref, dtype
    # the Gram product x x^T, and <x, w> for w = y2 and for w = y2 @ z
    gram = _python_ints(_exact_product(x.astype(np.float64))).tolist()
    assert gram == [[sum(a * b for a, b in zip(u, v)) for v in x.tolist()] for u in x.tolist()]
    y2 = _int_matrix(r, 3, n, my, 0)
    inner = sum(a * b for u, v in zip(x.tolist(), y2.tolist()) for a, b in zip(u, v))
    assert _exact_inner(x.astype(np.float32), y2.astype(np.float64)) == inner
    z = np.zeros((n, n), dtype=np.int64)
    z[np.arange(n), np.arange(n)] = 1  # y2 @ z = y2, the contraction runs its product path
    z[0, 1] = 1
    w = y2.copy()
    w[:, 1] += y2[:, 0]
    contracted = sum(a * b for u, v in zip(x.tolist(), w.tolist()) for a, b in zip(u, v))
    assert _exact_inner(x.astype(np.float32), y2, z.astype(np.uint8)) == contracted
    # <x2, y2 @ z> for an (n, 2) z whose column 1 is all ztop, so w[0, 1] is
    # n my ztop: the case's bound for ztop = mx, n my for a 0/1 z. The
    # product runs in float32, in float32 limbs (_LIMBS of each case) or,
    # with no limb exact or beyond 2^53, in float64 or Python ints
    for ztop, limbs in zip((mx, 1), _LIMBS[n]):
        z = _int_matrix(r, 2, n, ztop, 1).T.astype(np.float32)
        ys = np.stack([y2, _int_matrix(r, 3, n, my, 2)]).astype(np.float32 if my < 2**24 else np.float64)
        xs = np.stack([_int_matrix(r, 3, 2, mx, 0) for _ in ys])
        zs = np.stack([z, z[::-1]])
        want = [sum(a * sum(b * c for b, c in zip(u, col)) for row, u in zip(x2.tolist(), y.tolist())
                    for a, col in zip(row, z2.T.tolist()))
                for x2, y, z2 in zip(xs, ys.astype(np.int64), zs.astype(np.int64))]
        with mock.patch.object(graphs, "_limb_product", wraps=graphs._limb_product) as spy:
            assert _exact_inner(xs[0], ys[0], zs[0]) == want[0], ztop
            assert _exact_inner(xs, ys, zs).tolist() == want, ztop
        assert [c.args[3] for c in spy.call_args_list] == ([limbs, limbs] if limbs else []), ztop


# limbs of the y2 @ z products above, for z up to mx and for a 0/1 z: below
# 2^24 none; 2^24 + 65279 in two 7-bit limbs; 2^53 - 1 with no exact limb
# (n mx >= 2^24, so float64) or in three 11-bit ones for a 0/1 z; beyond
# 2^53 in Python ints or in two 14-bit limbs for a 0/1 z
_LIMBS = {255: (0, 0), 257: (2, 0), 6361: (0, 3), 1025: (0, 2)}


def test_size_guard():
    with pytest.raises(InstanceTooLargeError, match="instance too large"):
        search_homomorphisms(Motif.complete(8), Graph.complete(20))
    # an edge-list shape has no closed form, so the public count takes the
    # guarded search: the paw into K_200 needs 200^4 > 10^9 maps
    paw = Motif.parse("edgelist:0-1,1-2,2-0,2-3")
    assert classify_motif(paw) == ("general",)
    for count in (count_homomorphisms, hom_density_graph):
        with pytest.raises(InstanceTooLargeError, match="instance too large"):
            count(paw, Graph.complete(200))


def test_general_count_guard_reads_active_vertices_and_the_size_guard():
    # the contraction counts edge-list shapes under the guard the search
    # had: |V(G)|^(active vertices) <= 10^9, whatever the motif's size up
    # to 52 active vertices, one subscript letter each. A 9-cycle with a
    # chord has more vertices than the kernels' 8-vertex guard
    chorded = Motif.parse("edgelist:0-1,1-2,2-3,3-4,4-5,5-6,6-7,7-8,8-0,0-4")
    assert classify_motif(chorded) == ("general",)
    g = Graph.erdos_renyi(9, 0.7, rng(9))
    assert count_homomorphisms(chorded, g) == search_homomorphisms(chorded, g) > 0
    assert count_homomorphisms(chorded, Graph.empty(10)) == 0  # 10^9 maps
    with pytest.raises(InstanceTooLargeError, match=r"11\^9 exceeds the 1000000000 guard"):
        count_homomorphisms(chorded, Graph.empty(11))
    with pytest.raises(InstanceTooLargeError, match="motif has 53 vertices, guard is 52"):
        count_homomorphisms(Motif(53, [(i, i + 1) for i in range(52)]), Graph.empty(1))
    # K_{8,8} has 64 edges, more operands than numpy's einsum takes in one
    # call, direct or as a step of the greedy path: the contraction is
    # replanned under an intermediate budget and counts it exactly
    k88 = Motif(16, [(a, 8 + b) for a in range(8) for b in range(8)])
    for g in (Graph.complete(2), Graph.complete(3)):
        assert count_homomorphisms(k88, g) == search_homomorphisms(k88, g) > 0
    k2 = search_homomorphisms(k88, Graph.complete(2))
    assert _term(k88).batch(np.ones((4, 1), dtype=np.int8), 2).tolist() == [k2] * 4


def test_public_count_answers_closed_forms_beyond_the_map_guard():
    # 1001^3 and 20^8 maps are beyond the search's guard; the term kernels
    # count triangles and cliques of K_n as falling factorials
    triangle, k8 = Motif.triangle(), Motif.complete(8)
    big, k20 = Graph.complete(1001), Graph.complete(20)
    assert hom_density_graph(triangle, big) == 1001 * 1000 * 999 / 1001**3
    assert count_homomorphisms(k8, k20) == 5079110400 == 20 * 19 * 18 * 17 * 16 * 15 * 14 * 13
    for h, g in ((triangle, big), (k8, k20)):
        with pytest.raises(InstanceTooLargeError, match="instance too large"):
            search_homomorphisms(h, g)


def test_public_count_scales_isolated_motif_vertices_once():
    # the term counts the active part, vertices 0, 1, 2, 3 and 9 relabelled
    # 0..4, and only the public count multiplies by 12 per isolated vertex,
    # so the map guard reads 12^5 maps, not 12^10
    h = Motif.parse("edgelist:0-1,1-2,2-0,2-3,3-9")
    active = Motif(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    g = Graph.complete(12)
    assert _term(h).motif == active
    # equal motifs share one term object, and with it one active part
    assert _term(Motif.parse("triangle")) is _term(Motif.parse("edgelist:0-1,1-2,0-2"))
    assert classify_motif(h) == classify_motif(active) == ("general",)
    hom = search_homomorphisms(active, g)
    assert hom == 12 * 11 * 10 * 11 * 11
    assert count_homomorphisms(h, g) == hom * 12**5
    assert hom_density_graph(h, g) == hom / 12**5
    with pytest.raises(InstanceTooLargeError, match=r"12\^10 exceeds"):
        search_homomorphisms(h, g)


# -- motifs ---------------------------------------------------------------------


def test_motif_invariants():
    for match, call in [
        ("at least one edge", lambda: Motif(3, [])),
        ("self-loop", lambda: Motif(3, [(0, 0)])),
        ("duplicate", lambda: Motif(3, [(0, 1), (1, 0)])),
        ("at least one vertex", lambda: Motif(0, [(0, 1)])),
        (r"edge \(0, 2\) out of range", lambda: Motif(2, [(0, 2)])),
        ("j >= 1", lambda: Motif.star(0)),
        ("j >= 3", lambda: Motif.cycle(2)),
        ("r >= 2", lambda: Motif.complete(1)),
    ]:
        with pytest.raises(DomainError, match=match):
            call()
    assert Motif.star(4).edge_count == 4
    assert Motif.cycle(5).edge_count == 5
    assert Motif.complete(4).edge_count == 6


def test_motif_parse():
    assert Motif.parse("edge") == Motif.edge()
    assert Motif.parse("triangle") == Motif.triangle()
    assert Motif.parse("star:3") == Motif.star(3)
    assert Motif.parse("cycle:4") == Motif.cycle(4)
    assert Motif.parse("complete:5") == Motif.complete(5)
    inline = Motif.parse("edgelist:0-1,1-2,2-0")
    assert inline.edge_count == 3 and inline.chromatic == 3
    for spec, match in [
        ("heptagon", "unknown motif"),
        ("star:x", "bad motif argument in 'star:x'"),
        ("edgelist:0-x", "bad edge '0-x' in 'edgelist:0-x'"),
    ]:
        with pytest.raises(FormatError, match=match):
            Motif.parse(spec)


def test_classify_motif():
    assert classify_motif(Motif.edge()) == ("edge",)
    assert classify_motif(Motif.star(3)) == ("star", 3)
    assert classify_motif(Motif.triangle()) == ("triangle",)
    assert classify_motif(Motif.cycle(5)) == ("cycle", 5)
    assert classify_motif(Motif.complete(5)) == ("complete", 5)
    two_edges = Motif(4, [(0, 1), (2, 3)])
    assert classify_motif(two_edges) == ("general",)
    # every vertex with an edge has degree 2, as many edges as such vertices,
    # but more than one cycle
    two_triangles = Motif(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert classify_motif(two_triangles) == ("general",)
    triangle_and_square = Motif(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)])
    assert classify_motif(triangle_and_square) == ("general",)
    # a relabelled 6-cycle with an isolated vertex (3)
    hexagon = Motif(7, [(5, 0), (0, 6), (6, 2), (2, 4), (4, 1), (1, 5)])
    assert classify_motif(hexagon) == ("cycle", 6)


def test_chromatic_numbers():
    assert chromatic_number(Motif.triangle()) == 3
    assert chromatic_number(Motif.cycle(4)) == 2
    assert chromatic_number(Motif.cycle(7)) == 3
    assert chromatic_number(Motif.complete(5)) == 5
    assert chromatic_number(Motif.star(6)) == 2
    # Petersen graph needs 3 colors
    petersen = Motif(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
         (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
    )
    assert chromatic_number(petersen) == 3
    # Groetzsch graph (the Mycielskian of C5): triangle-free, yet needs 4 colors
    groetzsch = Motif(
        11,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, (i + d) % 5) for i in range(5) for d in (1, 4)]
        + [(5 + i, 10) for i in range(5)],
    )
    assert chromatic_number(groetzsch) == 4
    assert chromatic_number(Motif.complete(12)) == 12
    assert Motif.triangle().chromatic == 3  # cached property


def _brute_force_chromatic(h):
    """Least k with a proper k-colouring, trying every colouring of every vertex."""
    for k in itertools.count(1):
        for colors in itertools.product(range(k), repeat=h.vertex_count):
            if all(colors[i] != colors[j] for i, j in h.edges):
                return k


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_chromatic_number_matches_brute_force(data):
    v = data.draw(st.integers(2, 7))
    pairs = list(itertools.combinations(range(v), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    h = Motif(v, edges)
    assert chromatic_number(h) == _brute_force_chromatic(h)


def test_chromatic_guard():
    # the guard counts active vertices: a 13-vertex path exceeds it
    with pytest.raises(InstanceTooLargeError):
        chromatic_number(Motif(13, [(i, i + 1) for i in range(12)]))


def test_chromatic_number_ignores_isolated_vertices():
    assert chromatic_number(Motif(13, [(0, 1)])) == 2
    assert chromatic_number(Motif.parse("edgelist:0-1,1-2,2-0,2-13")) == 3


# -- graph plumbing ---------------------------------------------------------------


def test_text_roundtrip():
    r = rng(4)
    g = Graph.erdos_renyi(7, 0.4, r)
    assert Graph.from_text(g.to_text()) == g


def test_text_errors():
    with pytest.raises(FormatError):
        Graph.from_text("")
    with pytest.raises(FormatError):
        Graph.from_text("three\n0 1\n")
    with pytest.raises(FormatError):
        Graph.from_text("3\n0 0\n")
    with pytest.raises(FormatError):
        Graph.from_text("3\n0 5\n")
    # malformed numbers name their line
    for text in ("3\n0 x\n", "3\n0 1.5\n", "3.0\n0 1\n"):
        with pytest.raises(FormatError, match="line|vertex count"):
            Graph.from_text(text)


# the same faults with the same messages on a larger graph, whose asymmetric
# rows hold a second, later offending pair: the first in row order is named
BIG = 65
PAD = [0] * (BIG - 3)


@pytest.mark.parametrize(
    "n, rows, match",
    [
        (3, [0b10, 0b01], "row count"),
        (3, [0b010, 0b1001, 0b000], "bits beyond vertex 2"),
        (3, [0b011, 0b001, 0b000], "self-loop at vertex 0"),
        (3, [0b010, 0b000, 0b000], r"not symmetric at \(0, 1\)"),
        (BIG, [0b10, 0b01] + PAD, "row count"),
        (BIG, [0b010, 0b001 | 1 << BIG, 0b000] + PAD, f"bits beyond vertex {BIG - 1}"),
        (BIG, [0b011, 0b001, 0b000] + PAD, "self-loop at vertex 0"),
        (BIG, [0b010, 0b000, 0b000] + PAD[:-1] + [0b100], r"not symmetric at \(0, 1\)"),
    ],
    ids=["row-count", "bits-beyond-n", "self-loop", "asymmetric",
         "row-count-n65", "bits-beyond-n-n65", "self-loop-n65", "asymmetric-n65"],
)
def test_constructor_rejects_bad_rows(n, rows, match):
    with pytest.raises(FormatError, match=match):
        Graph(n, rows)


def test_complete_graph_at_the_vertex_cap():
    tracemalloc.start()
    try:
        start = time.perf_counter()
        g = Graph.complete(MAX_VERTICES)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_count() == MAX_VERTICES * (MAX_VERTICES - 1) // 2
    assert elapsed < 10.0 and peak < 64 * 2**20, (elapsed, peak)


@pytest.mark.parametrize("n", [2, 3, 7, 1000])
def test_vertex_pairs_are_the_upper_triangle_in_order(n):
    i, j = _vertex_pairs(n)
    want_i, want_j = np.triu_indices(n, 1)
    assert i.dtype == j.dtype == np.uint16 and not (i.flags.writeable or j.flags.writeable)
    assert np.array_equal(i, want_i) and np.array_equal(j, want_j)


def test_vertex_pairs_cold_at_n_1000_peak_near_their_size():
    # the two uint16 columns hold 1.9 MiB; cast from np.triu_indices' int64
    # columns the build peaked at 9.5 MiB traced
    _vertex_pairs.cache_clear()
    tracemalloc.start()
    try:
        _vertex_pairs(1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_star_batch_cold_at_n_1000_keeps_nothing():
    # the batch sorts the two pair columns into each vertex's n - 1 columns
    # and keeps nothing: with a cached (n, n) table of pair columns it held
    # 7.6 MiB at n = 1000 and peaked at 16.3 MiB traced
    n = 1000
    bits = (rng(6).random((4, n * (n - 1) // 2)) < 0.5).astype(np.int8)
    _vertex_pairs(n)
    tracemalloc.start()
    try:
        counts = _term(Motif.star(2)).batch(bits, n)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16.3 * 2**20 and held < 2**20, (peak, held)
    assert counts.tolist() == [sum(r.bit_count() ** 2 for r in _indicator_graph(n, row).rows) for row in bits]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.floats(0.0, 1.0), st.integers(0, 2**32))
def test_bit_rows_invert_bit_matrix(p, seed):
    # n = 1..70 ends rows on whole bytes (n = 8, 16, ..., 64) and one bit past them
    r = rng(seed)
    for n in range(1, 71):
        g = Graph.erdos_renyi(n, p, r)
        assert _bit_rows(_bit_matrix(n, g.rows)) == list(g.rows)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 64, 65])
@pytest.mark.parametrize("r", [4, 5])
def test_clique_batch_matches_the_count_of_each_row(n, r):
    # 20 rows at n = 64 and 65 span two stacked blocks of 2^16 // n^2 graphs
    rows = 300 if n < 10 else 20
    bits = (rng(n).random((rows, n * (n - 1) // 2)) < 0.5).astype(np.int8)
    term = _term(Motif.complete(r))
    assert term.batch(bits, n).tolist() == [term.count(_indicator_graph(n, row)) for row in bits]


def test_numpy_vertex_indices_act_as_python_ints():
    # a numpy end at 64 or above once shifted to 0 (1 << np.int64(70)) or
    # overflowed against a Python-int row
    n = 100
    a = rng(8).random((n, n)) < 0.3
    pairs = list(zip(*np.nonzero(np.triu(a, 1))))
    g = Graph.from_edges(n, pairs)
    assert isinstance(pairs[0][0], np.integer)
    assert g == Graph.from_edges(n, [(int(i), int(j)) for i, j in pairs])
    for i, j in [(1, 2), (65, 70), (0, 99), (70, 3)]:
        ni, nj = np.int64(i), np.int64(j)
        assert g.has_edge(ni, nj) == g.has_edge(i, j) == bool(a[min(i, j), max(i, j)])
        assert g.with_edge_toggled(ni, nj) == g.with_edge_toggled(i, j)
    for call in (lambda: g.has_edge(1.0, 2), lambda: g.with_edge_toggled(1, 2.0), lambda: Graph.from_edges(n, [(1.0, 2)])):
        with pytest.raises(DomainError, match="vertex must be an integer"):
            call()


def test_vertex_count_checked_before_anything_is_allocated():
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="vertex count"):
            Graph.from_text("1000000000\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    # the vertex count is reported before an edge out of its range
    with pytest.raises(DomainError, match="vertex count"):
        Graph.from_text("5000\n0 6000\n")


@pytest.mark.parametrize("n", [0, MAX_VERTICES + 1, 10**9])
def test_builders_refuse_a_bad_vertex_count_before_drawing(n):
    # erdos_renyi drew its C(n, 2) uniforms before the check (77 MiB traced at
    # n = 4,097) and at n = 0 raised numpy's reshape ValueError; complete
    # built its full row of n bits first
    r = rng(1)
    for build in (lambda: Graph.erdos_renyi(n, 0.5, r), lambda: Graph.complete(n)):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="vertex count"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
    # a p outside [0, 1] once built the empty graph (nan, -0.2) or the complete one (1.5)
    for p in (float("nan"), -0.2, 1.5):
        with pytest.raises(DomainError, match=r"erdos_renyi needs p in \[0, 1\]"):
            Graph.erdos_renyi(5, p, r)
    assert r.random() == rng(1).random()  # nothing drawn


def test_builders_take_integer_vertex_counts_only():
    # a float count once reached range() and raised a raw TypeError; a numpy
    # integer builds the graph of the Python int, with a Python int n
    for build in (Graph.empty, Graph.complete, lambda n: Graph.from_edges(n, [(0, 1)]),
                  lambda n: Graph.erdos_renyi(n, 0.5, rng(1)), lambda n: Graph(n, [0] * 10)):
        for n in (10.0, "10"):
            with pytest.raises(DomainError, match=f"vertex count must be an integer, got {n!r}"):
                build(n)
        g = build(np.int64(10))
        assert g == build(10) and type(g.n) is int
    # a float motif size, caller row or vertex index once built a motif,
    # raised a raw TypeError or was truncated (Graph(2, [2.5, 1.9]) read
    # rows 2 and 1, an edge)
    for match, call in [
        ("motif vertex count must be an integer, got 3.0", lambda: Motif(3.0, [(0, 1)])),
        ("motif vertex must be an integer, got 1.0", lambda: Motif(3, [(0, 1.0)])),
        ("j must be an integer, got 2.0", lambda: Motif.star(2.0)),
        ("j must be an integer, got 4.0", lambda: Motif.cycle(4.0)),
        ("r must be an integer, got 3.0", lambda: Motif.complete(3.0)),
        ("adjacency row must be an integer, got 2.5", lambda: Graph(2, [2.5, 1.9])),
        ("vertex must be an integer, got 1.5", lambda: Graph.complete(4).has_edge(1.5, 2)),
    ]:
        with pytest.raises(DomainError, match=match):
            call()
    for build in (lambda k: Motif(k, [(0, 1)]), Motif.star, Motif.cycle, Motif.complete):
        h = build(np.int64(4))
        assert h == build(4) and repr(h) == repr(build(4)) and type(h.vertex_count) is int
    assert Graph(3, np.array([2, 1, 0])).rows == (2, 1, 0)


def test_built_graphs_skip_the_caller_check():
    # from_edges (after its per-edge checks), erdos_renyi, complete,
    # with_edge_toggled and a chain's final graph build symmetric rows in
    # range, so none decodes them again for the check Graph(n, rows) makes
    n = 70
    chain = ChainConfig(n, steps=500, seed=1, start=Graph.erdos_renyi(n, 0.3, rng(10)), er_beta=0.5)
    with mock.patch.object(graphs, "_bit_matrix", wraps=graphs._bit_matrix) as decode:
        built = [
            Graph.from_edges(n, [(0, 1), (65, 3), (69, 68)]),
            Graph.erdos_renyi(n, 0.4, rng(9)),
            Graph.complete(n),
            Graph.complete(n).with_edge_toggled(5, 66),
        ]
        assert decode.call_count == 0
        # the chain decodes its start once, for the triangle count, and not its final graph
        built.append(run_chain(chain)[1])
        assert decode.call_count == 1
        for g in built:
            assert g == Graph(n, g.rows)
        assert decode.call_count == 1 + len(built)  # the caller check decodes each once


def test_toggle_and_immutability():
    g = Graph.empty(4)
    g2 = g.with_edge_toggled(0, 1)
    assert g.edge_count() == 0 and g2.edge_count() == 1
    assert g2.with_edge_toggled(0, 1) == g
    with pytest.raises(DomainError, match="self-loop"):
        g.with_edge_toggled(1, 1)


def test_vertex_indices_outside_the_graph_are_refused():
    # has_edge once read False past n and row n - 1 at -1 (Python's negative
    # index); with_edge_toggled raised IndexError past n and numpy's
    # "negative shift count" ValueError at -1
    g = Graph.complete(4)
    calls = [(lambda: g.has_edge(0, 9), 9), (lambda: g.has_edge(-1, 2), -1), (lambda: g.has_edge(4, 0), 4),
             (lambda: g.with_edge_toggled(0, 7), 7), (lambda: g.with_edge_toggled(-1, 2), -1),
             (lambda: g.with_edge_toggled(4, 4), 4)]
    for call, v in calls:
        with pytest.raises(DomainError, match=rf"^vertex {v} out of range for n = 4$"):
            call()
    assert not g.has_edge(2, 2)
    assert g.has_edge(3, 0) and g.has_edge(0, 3)
    with pytest.raises(DomainError, match="self-loop"):
        g.with_edge_toggled(3, 3)


def test_vertex_cap():
    with pytest.raises(DomainError):
        Graph.empty(5000)
