"""Dense labeled simple graphs and small motifs, with exact counting.

Graphs are stored as one adjacency bitmask per vertex (a Python int), which
makes the hot statistics (edge toggles, common-neighbor popcounts for
triangles) cheap at the n = 30..200 scale the samplers run at, while keeping
exact integer counting available as an oracle for everything else.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, FormatError, InstanceTooLargeError

MAX_VERTICES = 4096
HOM_MAP_GUARD = 10**9
CHROMATIC_VERTEX_GUARD = 12
# the batched star and triangle counts gather rows in blocks of at most this
# many (row, index) entries, so each temporary stays near 1 MB whatever the batch
_BATCH_BLOCK_ENTRIES = 2**20


class Graph:
    """Undirected simple graph on vertices 0..n-1.

    Instances are immutable by convention: every mutating-looking operation
    returns a new Graph, so values can be shared freely across threads.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Sequence[int] | None = None):
        if n < 1 or n > MAX_VERTICES:
            raise DomainError(f"vertex count must be in [1, {MAX_VERTICES}], got {n}")
        self.n = n
        if rows is None:
            self.rows = (0,) * n
        else:
            if len(rows) != n:
                raise FormatError("adjacency row count does not match n")
            rows = tuple(int(r) for r in rows)
            full = (1 << n) - 1
            for i, r in enumerate(rows):
                if r & ~full:
                    raise FormatError(f"row {i} has bits beyond vertex {n - 1}")
                if r >> i & 1:
                    raise FormatError(f"self-loop at vertex {i}")
            for i in range(n):
                for j in range(i + 1, n):
                    if (rows[i] >> j & 1) != (rows[j] >> i & 1):
                        raise FormatError(f"adjacency not symmetric at ({i}, {j})")
            self.rows = rows

    # -- constructors -----------------------------------------------------

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls(n, [full ^ (1 << i) for i in range(n)])

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for i, j in edges:
            if i == j:
                raise FormatError(f"self-loop ({i}, {j}) not allowed")
            if not (0 <= i < n and 0 <= j < n):
                raise FormatError(f"edge ({i}, {j}) out of range for n = {n}")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return cls(n, rows)

    @classmethod
    def erdos_renyi(cls, n: int, p: float, rng) -> "Graph":
        """Each of the C(n,2) edges present independently with probability p."""
        rows = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        return cls(n, rows)

    # -- basics -----------------------------------------------------------

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for i in range(self.n):
            r = self.rows[i] >> (i + 1) << (i + 1)
            while r:
                j = (r & -r).bit_length() - 1
                out.append((i, j))
                r &= r - 1
        return out

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def triangle_count(self) -> int:
        """Exact triangle count via popcount of row intersections."""
        total = 0
        rows = self.rows
        for i, j in self.edges():
            common = rows[i] & rows[j]
            # only count the third vertex above j to avoid double counting
            total += (common >> (j + 1)).bit_count()
        return total

    def edge_density(self) -> float:
        if self.n < 2:
            raise DomainError("edge density needs at least 2 vertices")
        return self.edge_count() / math.comb(self.n, 2)

    def common_neighbors(self, i: int, j: int) -> int:
        return (self.rows[i] & self.rows[j]).bit_count()

    def with_edge_toggled(self, i: int, j: int) -> "Graph":
        if i == j:
            raise DomainError("cannot toggle a self-loop")
        rows = list(self.rows)
        rows[i] ^= 1 << j
        rows[j] ^= 1 << i
        g = Graph.__new__(Graph)
        g.n = self.n
        g.rows = tuple(rows)
        return g

    def permuted(self, perm: Sequence[int]) -> "Graph":
        """Relabel vertices: new vertex perm[i] plays the role of old vertex i."""
        rows = [0] * self.n
        for i, j in self.edges():
            a, b = perm[i], perm[j]
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        return Graph(self.n, rows)

    def adjacency_matrix(self):
        return _adjacency(self)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count()})"

    # -- text format: first line n, then one "i j" pair per line -----------

    def to_text(self) -> str:
        lines = [str(self.n)]
        lines += [f"{i} {j}" for i, j in self.edges()]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        lines = [ln.strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln and not ln.startswith("#")]
        if not lines:
            raise FormatError("empty graph file")
        try:
            n = int(lines[0])
        except ValueError as exc:
            raise FormatError(f"first line must be the vertex count, got {lines[0]!r}") from exc
        edges = []
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 2:
                raise FormatError(f"bad edge line {ln!r}")
            edges.append((int(parts[0]), int(parts[1])))
        return cls.from_edges(n, edges)


class Motif:
    """A small finite simple graph used inside sufficient statistics.

    Must contain at least one edge. Caches its edge count and chromatic
    number, the two quantities the variational formulas consume.
    """

    __slots__ = ("vertex_count", "edges", "name", "_chromatic")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]], name: str | None = None):
        edges = tuple(sorted(tuple(sorted(e)) for e in edges))
        if vertex_count < 1:
            raise DomainError("motif needs at least one vertex")
        if not edges:
            raise DomainError("motif must contain at least one edge")
        seen = set()
        for i, j in edges:
            if i == j:
                raise DomainError(f"motif has self-loop at {i}")
            if not (0 <= i < vertex_count and 0 <= j < vertex_count):
                raise DomainError(f"motif edge ({i}, {j}) out of range")
            if (i, j) in seen:
                raise DomainError(f"duplicate motif edge ({i}, {j})")
            seen.add((i, j))
        self.vertex_count = vertex_count
        self.edges = edges
        self.name = name
        self._chromatic = None

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def chromatic(self) -> int:
        if self._chromatic is None:
            self._chromatic = chromatic_number(self)
        return self._chromatic

    # -- builtins ----------------------------------------------------------

    @classmethod
    def edge(cls) -> "Motif":
        return cls(2, [(0, 1)], name="edge")

    @classmethod
    def triangle(cls) -> "Motif":
        return cls(3, [(0, 1), (1, 2), (0, 2)], name="triangle")

    @classmethod
    def star(cls, j: int) -> "Motif":
        """j-star: one root joined to j leaves (j >= 1; star:1 is the edge)."""
        if j < 1:
            raise DomainError("star:j needs j >= 1")
        return cls(j + 1, [(0, i) for i in range(1, j + 1)], name=f"star:{j}")

    @classmethod
    def cycle(cls, j: int) -> "Motif":
        if j < 3:
            raise DomainError("cycle:j needs j >= 3")
        return cls(j, [(i, (i + 1) % j) for i in range(j)], name=f"cycle:{j}")

    @classmethod
    def complete(cls, r: int) -> "Motif":
        if r < 2:
            raise DomainError("complete:r needs r >= 2")
        return cls(r, list(itertools.combinations(range(r), 2)), name=f"complete:{r}")

    @classmethod
    def parse(cls, spec: str) -> "Motif":
        """Parse a named builtin or an inline edge list.

        Accepted: ``edge``, ``triangle``, ``star:j``, ``cycle:j``,
        ``complete:r``, or ``edgelist:0-1,1-2,...`` (vertex count inferred).
        """
        spec = spec.strip()
        if spec == "edge":
            return cls.edge()
        if spec == "triangle":
            return cls.triangle()
        if ":" in spec:
            head, _, tail = spec.partition(":")
            if head in ("star", "cycle", "complete"):
                try:
                    arg = int(tail)
                except ValueError as exc:
                    raise FormatError(f"bad motif argument in {spec!r}") from exc
                return getattr(cls, head)(arg)
            if head == "edgelist":
                edges = []
                for part in tail.split(","):
                    a, _, b = part.partition("-")
                    try:
                        edges.append((int(a), int(b)))
                    except ValueError as exc:
                        raise FormatError(f"bad edge {part!r} in {spec!r}") from exc
                nv = 1 + max(max(e) for e in edges)
                return cls(nv, edges, name=spec)
        raise FormatError(f"unknown motif {spec!r}")

    def neighbor_lists(self) -> list[list[int]]:
        nbrs = [[] for _ in range(self.vertex_count)]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        return nbrs

    def degree_sequence(self) -> list[int]:
        return sorted(len(x) for x in self.neighbor_lists())

    def __eq__(self, other):
        return (
            isinstance(other, Motif)
            and self.vertex_count == other.vertex_count
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertex_count, self.edges))

    def __repr__(self):
        if self.name:
            return f"Motif({self.name})"
        return f"Motif(v={self.vertex_count}, edges={list(self.edges)})"


def _adjacency(g) -> np.ndarray:
    """Float 0/1 adjacency matrix of anything with n and bitmask rows."""
    width = (g.n + 7) // 8
    raw = b"".join(r.to_bytes(width, "little") for r in g.rows)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits.reshape(g.n, 8 * width)[:, : g.n].astype(float)


# -- structural classification used for fast counting paths -----------------


def classify_motif(h: Motif) -> tuple:
    """Recognize the shapes with closed-form counts.

    Returns one of ("edge",), ("star", j), ("triangle",), ("cycle", j),
    ("complete", r), or ("general",). Isolated vertices only scale counts by
    powers of n and are folded into the classification.
    """
    degs = [len(x) for x in h.neighbor_lists()]
    active = [d for d in degs if d > 0]
    e = h.edge_count
    if e == 1:
        return ("edge",)
    k = len(active)
    if sorted(active) == [1] * (k - 1) + [k - 1] and e == k - 1:
        return ("star", k - 1)
    if k == 3 and e == 3:
        return ("triangle",)
    if all(d == 2 for d in active) and e == k and _is_single_cycle(h):
        return ("cycle", k)
    if e == k * (k - 1) // 2 and all(d == k - 1 for d in active):
        return ("complete", k)
    return ("general",)


def _is_single_cycle(h: Motif) -> bool:
    nbrs = h.neighbor_lists()
    start = next(i for i in range(h.vertex_count) if nbrs[i])
    if len(nbrs[start]) != 2:
        return False
    prev, cur = start, nbrs[start][0]
    seen = {start}
    count = 1
    while cur != start:
        if cur in seen:
            return False
        seen.add(cur)
        nxt = [x for x in nbrs[cur] if x != prev]
        if len(nxt) != 1:
            return False
        prev, cur = cur, nxt[0]
        count += 1
    return count == h.edge_count


# -- homomorphism counting ---------------------------------------------------


def count_homomorphisms(h: Motif, g: Graph) -> int:
    """Number of maps V(H) -> V(G) sending every edge of H to an edge of G.

    Exact brute force with pruning on partial assignments; the guard refuses
    instances with |V(G)|^|V(H)| above 10^9.
    """
    if g.n**h.vertex_count > HOM_MAP_GUARD:
        raise InstanceTooLargeError(
            f"instance too large: |V(G)|^|V(H)| = {g.n}^{h.vertex_count} "
            f"exceeds the {HOM_MAP_GUARD} map guard"
        )
    levels = _search_levels(h, [], range(h.vertex_count), lambda e: 0)
    return _count_extensions(levels, (g.rows,), [0] * len(levels), 0, (1 << g.n) - 1)


def _search_levels(h: Motif, order: list[int], vertices, table) -> list[list[tuple[int, int]]]:
    """Plan of the bitset recursion below over the given motif vertices.

    Extends order by the other vertices, those with a placed neighbor first
    and high degree first so pruning bites early. Lists, for each position,
    the motif edges back to earlier positions as (earlier position,
    table(edge index)), table naming the row table the edge must land in.
    """
    nbrs = h.neighbor_lists()
    order = list(order)
    remaining = [v for v in vertices if v not in order]
    while remaining:
        anchored = [v for v in remaining if any(u in order for u in nbrs[v])]
        v = max(anchored or remaining, key=lambda x: len(nbrs[x]))
        order.append(v)
        remaining.remove(v)
    pos = {v: d for d, v in enumerate(order)}
    levels: list[list[tuple[int, int]]] = [[] for _ in order]
    for e, (u, w) in enumerate(h.edges):
        a, b = sorted((pos[u], pos[w]))
        levels[b].append((a, table(e)))
    return levels


def _count_extensions(levels, tables, images: list[int], depth: int, full: int) -> int:
    """Extensions of the images fixed at positions < depth to every position,
    each back edge landing in an edge of its row table (bitset recursion)."""
    cand = full
    for pos, t in levels[depth]:
        cand &= tables[t][images[pos]]
        if not cand:
            return 0
    if depth == len(levels) - 1:
        return cand.bit_count()
    total = 0
    while cand:
        low = cand & -cand
        cand ^= low
        images[depth] = low.bit_length() - 1
        total += _count_extensions(levels, tables, images, depth + 1, full)
    return total


def hom_count_fast(h: Motif, g: Graph) -> int:
    """Homomorphism count using a closed form when the shape allows one."""
    return _term(h).count(g)


# -- model terms: count, change statistic, batch count -------------------------


class _Term:
    """One motif as a model term; this base class handles the general shape.

    count(g) is the homomorphism count; delta(g, i, j) its exact change when
    edge ij goes from absent to present; batch(bits, n) the counts of the
    rows of an edge-indicator matrix (columns: vertex pairs in lexicographic
    order); statistic(b, g) is b times the density and exponent(b, g, i, j)
    n^2 times its change, the term's share of the Glauber log-odds. g is a
    Graph or the chain state: anything with n, bitmask rows and
    triangle_count().

    The general delta is the edge-rooted count, the discrete form of the
    kernel derivative: for each motif edge k in both orientations, pin edge
    k onto (i, j), map the edges before k into G - ij and those after k into
    G + ij; the sum over k telescopes to hom(H, G + ij) - hom(H, G - ij).
    Isolated motif vertices only scale counts by n each. The edge and
    triangle classes evaluate their exponent (the triangle also its
    statistic) in a fixed float order, which fixed-seed chains depend on.
    """

    def __init__(self, motif: Motif, arg: int | None = None):
        self.motif = motif
        self.arg = arg
        self.active = [v for v, x in enumerate(motif.neighbor_lists()) if x]
        self.iso = motif.vertex_count - len(self.active)

    def count(self, g) -> int:
        return count_homomorphisms(self.motif, g)

    def delta(self, g, i: int, j: int) -> int:
        minus, plus = list(g.rows), list(g.rows)
        minus[i] &= ~(1 << j)
        minus[j] &= ~(1 << i)
        plus[i] |= 1 << j
        plus[j] |= 1 << i
        full = (1 << g.n) - 1
        total = 0
        for levels in self._rooted_levels:
            for a, b in ((i, j), (j, i)):
                images = [a, b] + [0] * (len(levels) - 2)
                total += _count_extensions(levels, (minus, plus), images, 2, full)
        return total * g.n**self.iso

    def batch(self, bits: np.ndarray, n: int) -> np.ndarray:
        pairs = list(itertools.combinations(range(n), 2))
        return np.array(
            [self.count(Graph.from_edges(n, [pairs[t] for t in np.nonzero(row)[0]])) for row in bits]
        )

    def statistic(self, b: float, g) -> float:
        return b * self.count(g) / g.n**self.motif.vertex_count

    def exponent(self, b: float, g, i: int, j: int) -> float:
        n = g.n
        return b * self.delta(g, i, j) * n**2 / n**self.motif.vertex_count

    @functools.cached_property
    def _rooted_levels(self):
        return [
            _search_levels(self.motif, [u, w], self.active, lambda e, k=k: int(e > k))
            for k, (u, w) in enumerate(self.motif.edges)
        ]


class _EdgeTerm(_Term):
    def count(self, g) -> int:
        return sum(r.bit_count() for r in g.rows) * g.n**self.iso

    def delta(self, g, i: int, j: int) -> int:
        return 2 * g.n**self.iso

    def batch(self, bits: np.ndarray, n: int) -> np.ndarray:
        return 2 * bits.sum(axis=1) * n**self.iso

    def exponent(self, b: float, g, i: int, j: int) -> float:
        return 2.0 * b


class _StarTerm(_Term):
    def count(self, g) -> int:
        return sum(r.bit_count() ** self.arg for r in g.rows) * g.n**self.iso

    def delta(self, g, i: int, j: int) -> int:
        present = g.rows[i] >> j & 1
        ai = g.rows[i].bit_count() - present
        aj = g.rows[j].bit_count() - present
        s = self.arg
        return (((ai + 1) ** s - ai**s) + ((aj + 1) ** s - aj**s)) * g.n**self.iso

    def batch(self, bits: np.ndarray, n: int) -> np.ndarray:
        inc = _vertex_pair_columns(n)
        step = max(1, _BATCH_BLOCK_ENTRIES // max(1, inc.size))
        cnt = np.empty(bits.shape[0], dtype=np.int64)
        for lo in range(0, bits.shape[0], step):
            deg = bits[lo : lo + step][:, inc].sum(axis=2, dtype=np.int64)
            cnt[lo : lo + step] = (deg**self.arg).sum(axis=1)
        return cnt * n**self.iso


@functools.lru_cache(maxsize=8)
def _vertex_pair_columns(n: int) -> np.ndarray:
    """Row v holds the columns of the n - 1 pairs that contain v, read-only."""
    inc = [[] for _ in range(n)]
    for t, (i, j) in enumerate(itertools.combinations(range(n), 2)):
        inc[i].append(t)
        inc[j].append(t)
    out = np.array(inc, dtype=np.intp).reshape(n, n - 1)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=8)
def _triangle_pair_columns(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair columns (ab, ac, bc) of every triple a < b < c, read-only."""
    pair_index = {p: t for t, p in enumerate(itertools.combinations(range(n), 2))}
    trips = list(itertools.combinations(range(n), 3))
    cols = []
    for u, w in ((0, 1), (0, 2), (1, 2)):
        col = np.array([pair_index[(t[u], t[w])] for t in trips], dtype=np.intp)
        col.flags.writeable = False
        cols.append(col)
    return tuple(cols)


class _TriangleTerm(_Term):
    def count(self, g) -> int:
        return 6 * g.triangle_count() * g.n**self.iso

    def delta(self, g, i: int, j: int) -> int:
        return 6 * (g.rows[i] & g.rows[j]).bit_count() * g.n**self.iso

    def batch(self, bits: np.ndarray, n: int) -> np.ndarray:
        ia, ib, ic = _triangle_pair_columns(n)
        step = max(1, _BATCH_BLOCK_ENTRIES // max(1, ia.size))
        cnt = np.empty(bits.shape[0], dtype=np.int64)
        for lo in range(0, bits.shape[0], step):
            rows = bits[lo : lo + step]
            cnt[lo : lo + step] = (rows[:, ia] & rows[:, ib] & rows[:, ic]).sum(axis=1)
        return 6 * cnt * n**self.iso

    def statistic(self, b: float, g) -> float:
        return b * 6.0 * g.triangle_count() / g.n**3

    def exponent(self, b: float, g, i: int, j: int) -> float:
        return 6.0 * b * (g.rows[i] & g.rows[j]).bit_count() / g.n


class _CycleTerm(_Term):
    def count(self, g) -> int:
        # closed walks tr(A^k) = sum_ij (A^h)_ij (A^(k-h))_ij, A symmetric
        a = _adjacency(g)
        x = a
        for _ in range(self.arg // 2 - 1):
            x = _exact_product(x, a)
        y = x if self.arg % 2 == 0 else _exact_product(x, a)
        return _exact_inner(x, y) * g.n**self.iso


def _python_ints(x: np.ndarray) -> np.ndarray:
    return x if x.dtype == object else x.astype(np.int64).astype(object)


def _exact_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for nonnegative integer matrices, exactly.

    A float BLAS product is exact while n max(x) max(y) < 2^53, since then
    every partial sum is an integer below 2^53; otherwise Python ints.
    """
    if x.dtype == y.dtype == float and x.shape[1] * int(x.max()) * int(y.max()) < 2**53:
        return x @ y
    return _python_ints(x) @ _python_ints(y)


def _exact_inner(x: np.ndarray, y: np.ndarray) -> int:
    """sum_ij x_ij y_ij for nonnegative integer matrices, as a Python int.

    Row sums run in int64, over blocks of about 2^16 entries, while
    n max(x) max(y) < 2^63; otherwise in Python ints.
    """
    n = x.shape[1]
    if x.dtype == y.dtype == float and n * int(x.max()) * int(y.max()) < 2**63:
        step, total = max(1, 2**16 // n), 0
        for i in range(0, len(x), step):
            block = x[i : i + step].astype(np.int64) * y[i : i + step].astype(np.int64)
            total += sum(block.sum(axis=1).tolist())
        return total
    return int((_python_ints(x) * _python_ints(y)).sum())


class _CompleteTerm(_Term):
    def count(self, g) -> int:
        levels = _search_levels(self.motif, [], self.active, lambda e: 0)
        return _count_extensions(levels, (g.rows,), [0] * self.arg, 0, (1 << g.n) - 1) * g.n**self.iso


_TERM_CLASSES = {
    "edge": _EdgeTerm,
    "star": _StarTerm,
    "triangle": _TriangleTerm,
    "cycle": _CycleTerm,
    "complete": _CompleteTerm,
    "general": _Term,
}


def _term(h: Motif) -> _Term:
    """The term object of the motif's shape (see classify_motif)."""
    kind = classify_motif(h)
    return _TERM_CLASSES[kind[0]](h, *kind[1:])


def hom_density_graph(h: Motif, g: Graph) -> float:
    """Probability that a uniformly random map V(H) -> V(G) is a homomorphism."""
    return count_homomorphisms(h, g) / g.n**h.vertex_count


def hom_density_graph_fast(h: Motif, g: Graph) -> float:
    return hom_count_fast(h, g) / g.n**h.vertex_count


# -- chromatic number --------------------------------------------------------


def chromatic_number(h: Motif) -> int:
    """Exact chromatic number by branch and bound with a clique lower bound."""
    if h.vertex_count > CHROMATIC_VERTEX_GUARD:
        raise InstanceTooLargeError(
            f"instance too large: chromatic number supports at most "
            f"{CHROMATIC_VERTEX_GUARD} vertices, got {h.vertex_count}"
        )
    nbrs = h.neighbor_lists()
    verts = [v for v in range(h.vertex_count) if nbrs[v]]
    if not verts:
        return 1

    clique = _greedy_clique(nbrs, verts)
    lower = len(clique)
    order = sorted(verts, key=lambda v: -len(nbrs[v]))
    upper = _greedy_coloring_size(nbrs, order)
    for k in range(lower, upper):
        if _colorable(nbrs, order, k):
            return k
    return upper


def _greedy_clique(nbrs, verts):
    best: list[int] = []
    for start in verts:
        clique = [start]
        cand = set(nbrs[start])
        while cand:
            v = max(cand, key=lambda x: len(cand & set(nbrs[x])))
            clique.append(v)
            cand &= set(nbrs[v])
        if len(clique) > len(best):
            best = clique
    return best


def _greedy_coloring_size(nbrs, order):
    colors: dict[int, int] = {}
    for v in order:
        used = {colors[u] for u in nbrs[v] if u in colors}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return 1 + max(colors.values())


def _colorable(nbrs, order, k):
    colors: dict[int, int] = {}

    def rec(idx):
        if idx == len(order):
            return True
        v = order[idx]
        used = {colors[u] for u in nbrs[v] if u in colors}
        cap = min(k, 1 + (max(colors.values()) + 1 if colors else 0))
        for c in range(cap):
            if c in used:
                continue
            colors[v] = c
            if rec(idx + 1):
                return True
            del colors[v]
        return False

    return rec(0)
