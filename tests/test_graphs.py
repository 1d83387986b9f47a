import numpy as np
import pytest

from ergmlab.errors import DomainError, FormatError, InstanceTooLargeError
from ergmlab.graphs import (
    Graph,
    Motif,
    chromatic_number,
    classify_motif,
    count_homomorphisms,
    hom_count_fast,
    hom_density_graph,
)


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
        assert 6 * g.triangle_count() == count_homomorphisms(Motif.triangle(), g)


def test_hom_count_invariant_under_relabeling():
    r = rng(2)
    motifs = [Motif.edge(), Motif.star(2), Motif.triangle(), Motif.cycle(4)]
    for _ in range(10):
        n = int(r.integers(3, 7))
        g = Graph.erdos_renyi(n, r.uniform(0.2, 0.8), r)
        perm = list(r.permutation(n))
        gp = g.permuted(perm)
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
            assert hom_count_fast(m, g) == count_homomorphisms(m, g)


@pytest.mark.parametrize("n, lengths", [(300, range(3, 10)), (40, (23, 24))])
def test_cycle_counts_exact_beyond_float(n, lengths):
    # closed walks in K_n: tr(A^k) = (n-1)^k + (n-1)(-1)^k. The counts pass
    # 2^53 (n = 300, k >= 7) and the int64 range (n = 40, k >= 23), where a
    # rounded float trace is off and the exact path falls back to Python ints
    g = Graph.complete(n)
    for k in lengths:
        assert hom_count_fast(Motif.cycle(k), g) == (n - 1) ** k + (n - 1) * (-1) ** k, k


def test_size_guard():
    with pytest.raises(InstanceTooLargeError, match="instance too large"):
        count_homomorphisms(Motif.complete(8), Graph.complete(20))


# -- motifs ---------------------------------------------------------------------


def test_motif_invariants():
    with pytest.raises(DomainError):
        Motif(3, [])  # no edges
    with pytest.raises(DomainError):
        Motif(3, [(0, 0)])  # loop
    with pytest.raises(DomainError):
        Motif(3, [(0, 1), (1, 0)])  # duplicate
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
    with pytest.raises(FormatError):
        Motif.parse("heptagon")


def test_classify_motif():
    assert classify_motif(Motif.edge()) == ("edge",)
    assert classify_motif(Motif.star(3)) == ("star", 3)
    assert classify_motif(Motif.triangle()) == ("triangle",)
    assert classify_motif(Motif.cycle(5)) == ("cycle", 5)
    assert classify_motif(Motif.complete(5)) == ("complete", 5)
    two_edges = Motif(4, [(0, 1), (2, 3)])
    assert classify_motif(two_edges) == ("general",)


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
    assert Motif.triangle().chromatic == 3  # cached property


def test_chromatic_guard():
    with pytest.raises(InstanceTooLargeError):
        chromatic_number(Motif(13, [(0, 1)]))


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


def test_toggle_and_immutability():
    g = Graph.empty(4)
    g2 = g.with_edge_toggled(0, 1)
    assert g.edge_count() == 0 and g2.edge_count() == 1
    assert g2.with_edge_toggled(0, 1) == g


def test_vertex_cap():
    with pytest.raises(DomainError):
        Graph.empty(5000)
