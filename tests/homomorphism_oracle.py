"""The brute-force homomorphism count that the term kernels, the batch
counts and the public count are tested against. No library code runs it."""

from ergmlab.graphs import Graph, Motif, _contraction_guard, _count_extensions, _search_levels, _Term


def search_homomorphisms(h: Motif, g: Graph) -> int:
    """Number of maps V(H) -> V(G) sending every edge of H to an edge of G.

    Exact brute force with pruning on partial assignments, the bitset
    recursion of the general term's delta (_search_levels,
    _count_extensions), under the guard of the general count (_Term): it
    refuses |V(G)|^|V(H)| above 10^9, isolated vertices included.
    """
    _contraction_guard(h, g.n, _Term._vertex_guard)
    levels = _search_levels(h, [], lambda e: 0)
    return _count_extensions(levels, (g.rows,), [0] * len(levels), 0, (1 << g.n) - 1)
