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
import operator
import string
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, ErgmLabError, FormatError, InstanceTooLargeError

MAX_VERTICES = 4096
CHROMATIC_VERTEX_GUARD = 12
DENSITY_VERTEX_GUARD = 8
DENSITY_SIZE_GUARD = 10**9
DELTA_VERTEX_GUARD = 6
# a contraction of rows x k^|V(H)| cells at most contracts in numpy's C einsum
# directly; a larger one along a greedy path planned once per subscript entry
DIRECT_EINSUM_MAX_CELLS = 2**16
# numpy's C einsum refuses 64 operands or more (K_{8,8} has 64 edges), so a
# wider call is replanned as a greedy path under the DIRECT_EINSUM_MAX_CELLS
# intermediate budget, which pairs them a few at a time
_EINSUM_MAX_OPERANDS = 63
# the batched star, triangle and clique counts gather rows in blocks of at most this
# many (row, index) entries, so each temporary stays near 1 MB whatever the batch
_BATCH_BLOCK_ENTRIES = 2**20
# the exact inner product (and the product it contracts) and the stacked
# adjacency matrices of a batch work in blocks of about this many matrix
# entries (256 KB of float32, 512 KB of float64)
_PRODUCT_BLOCK_ENTRIES = 2**16
# the exact inner product forms y @ z in row blocks of at least this many
# rows, however wide the matrix (2 MB of float64 at MAX_VERTICES): at
# n = 4096 the 16 rows of the entry budget ran BLAS at under half speed
_PRODUCT_MIN_ROWS = 64
# batch triangle counts take the stacked adjacency product from this n on and
# the triple gather below it: per graph, the gather takes 0.16 us and the
# product 0.21 us at n = 8, and 0.25 us against 0.22 us at n = 9
_TRIANGLE_PRODUCT_MIN_N = 9
# batch clique counts gather the pair columns of every r-set while
# C(n, r) C(r, 2) is at most this, and run the bitset recursion row by row
# beyond: per G(n, 1/2) graph, complete:4 took 0.07 us against 6.8 us at
# n = 6 and 37 us against 62 us at n = 20 (29,070 cells), and the recursion
# was the faster from 63,756 cells for r = 4 (n = 24), 43,680 for r = 5
# (n = 16) and 45,045 for r = 6 (n = 14)
_CLIQUE_GATHER_MAX_CELLS = 2**15


def _integer(value, what: str, least: int | None = None, who: str | None = None) -> int:
    """value as a Python int through operator.index, the one conversion of a
    public count, index or seed: a float or a string raises DomainError
    "<what> must be an integer, got <value>", and with least a smaller value
    "<who> needs <what> >= <least>, got <value>"."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise DomainError(f"{who} needs {what} >= {least}, got {value}")
    return value


def _check_vertex_count(n: int) -> int:
    """n as a Python int, after refusing a non-integer or a vertex count
    outside [1, MAX_VERTICES] (DomainError)."""
    n = _integer(n, "vertex count")
    if n < 1 or n > MAX_VERTICES:
        raise DomainError(f"vertex count must be in [1, {MAX_VERTICES}], got {n}")
    return n


class Graph:
    """Undirected simple graph on vertices 0..n-1.

    Instances are immutable by convention: every mutating-looking operation
    returns a new Graph, so values can be shared freely across threads.

    Every public builder checks the vertex count before it draws or
    allocates anything. Graph(n, rows) checks the rows a caller hands it;
    the rows the package builds itself go through _from_rows unchecked.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Sequence[int] | None = None):
        n = _check_vertex_count(n)
        self.n = n
        if rows is None:
            self.rows = (0,) * n
        else:
            if len(rows) != n:
                raise FormatError("adjacency row count does not match n")
            rows = tuple(_integer(r, "adjacency row") for r in rows)
            full = (1 << n) - 1
            for i, r in enumerate(rows):
                if r & ~full:
                    raise FormatError(f"row {i} has bits beyond vertex {n - 1}")
                if r >> i & 1:
                    raise FormatError(f"self-loop at vertex {i}")
            # one decode and one comparison with the transpose (a pair loop
            # over the bitmask rows does bit work growing like n^3)
            bits = _bit_matrix(n, rows)
            mismatch = bits != bits.T
            if mismatch.any():
                # the first pair in row order has i < j
                i, j = divmod(int(mismatch.argmax()), n)
                raise FormatError(f"adjacency not symmetric at ({i}, {j})")
            self.rows = rows

    # -- constructors -----------------------------------------------------

    @classmethod
    def _from_rows(cls, n: int, rows: Sequence[int]) -> "Graph":
        """The graph of n symmetric Python-int bitmask rows with no self-loop
        and no bit at n or above, which the package built itself, unchecked."""
        g = cls.__new__(cls)
        g.n, g.rows = n, tuple(rows)
        return g

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        n = _check_vertex_count(n)
        full = (1 << n) - 1
        return cls._from_rows(n, [full ^ (1 << i) for i in range(n)])

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        n = _check_vertex_count(n)
        bits = np.zeros((n, n), dtype=np.uint8)
        for i, j in edges:
            i, j = _integer(i, "vertex"), _integer(j, "vertex")
            if i == j:
                raise FormatError(f"self-loop ({i}, {j}) not allowed")
            if not (0 <= i < n and 0 <= j < n):
                raise FormatError(f"edge ({i}, {j}) out of range for n = {n}")
            bits[i, j] = bits[j, i] = 1
        return cls._from_rows(n, _bit_rows(bits))

    @classmethod
    def erdos_renyi(cls, n: int, p: float, rng) -> "Graph":
        """Each of the C(n,2) edges present independently with probability p
        in [0, 1], one uniform per pair in pair order."""
        n = _check_vertex_count(n)
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"erdos_renyi needs p in [0, 1], got {p}")
        return _indicator_graph(n, rng.random(math.comb(n, 2)) < p)

    # -- basics -----------------------------------------------------------

    def _vertices(self, i, j) -> tuple[int, int]:
        """i and j as Python ints, after refusing one outside [0, n) (DomainError)."""
        i, j = _integer(i, "vertex"), _integer(j, "vertex")
        for v in (i, j):
            if not 0 <= v < self.n:
                raise DomainError(f"vertex {v} out of range for n = {self.n}")
        return i, j

    def has_edge(self, i: int, j: int) -> bool:
        i, j = self._vertices(i, j)
        return bool(self.rows[i] >> j & 1)

    def edges(self) -> list[tuple[int, int]]:
        """The edges i < j in pair order: the adjacency bits at the _vertex_pairs columns."""
        i, j = _vertex_pairs(self.n)
        on = _bit_matrix(self.n, self.rows)[i, j].view(bool)
        return list(zip(i[on].tolist(), j[on].tolist()))

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def triangle_count(self) -> int:
        """Exact triangle count: the closed 3-walks tr(A^3) (_closed_walks),
        each triangle walked from 3 starts in 2 directions."""
        return _closed_walks(_adjacency(self), 3) // 6

    def edge_density(self) -> float:
        if self.n < 2:
            raise DomainError("edge density needs at least 2 vertices")
        return self.edge_count() / math.comb(self.n, 2)

    def with_edge_toggled(self, i: int, j: int) -> "Graph":
        i, j = self._vertices(i, j)
        if i == j:
            raise DomainError("cannot toggle a self-loop")
        rows = list(self.rows)
        rows[i] ^= 1 << j
        rows[j] ^= 1 << i
        return Graph._from_rows(self.n, rows)

    def adjacency_matrix(self):
        return _bit_matrix(self.n, self.rows).astype(float)

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
        lines = _data_lines(text)
        if not lines:
            raise FormatError("empty graph file")
        (n,) = _fields(lines[0], int, 1, "first line must be the vertex count, got {}")
        return cls.from_edges(n, [_fields(ln, int, 2, "bad edge line {}") for ln in lines[1:]])


class Motif:
    """A small finite simple graph used inside sufficient statistics.

    Must contain at least one edge. Caches its edge count and chromatic
    number, the two quantities the variational formulas consume.
    """

    __slots__ = ("vertex_count", "edges", "name", "_chromatic")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]], name: str | None = None):
        vertex_count = _integer(vertex_count, "motif vertex count")
        edges = tuple(sorted(tuple(sorted(_integer(v, "motif vertex") for v in e)) for e in edges))
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
        j = _integer(j, "j", 1, "star:j")
        return cls(j + 1, [(0, i) for i in range(1, j + 1)], name=f"star:{j}")

    @classmethod
    def cycle(cls, j: int) -> "Motif":
        j = _integer(j, "j", 3, "cycle:j")
        return cls(j, [(i, (i + 1) % j) for i in range(j)], name=f"cycle:{j}")

    @classmethod
    def complete(cls, r: int) -> "Motif":
        r = _integer(r, "r", 2, "complete:r")
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


# -- text formats ------------------------------------------------------------------


def _data_lines(text: str) -> list[str]:
    """The stripped lines of a text file that are neither blank nor # comments."""
    return [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]


def _fields(line: str, kind, count: int, what: str) -> list:
    """The count whitespace-separated fields of a data line, each converted by
    kind: one callable for every field, or a tuple of one per field.

    Raises FormatError(what.format(repr(line))) when the line has another
    number of fields or a conversion raises a bare ValueError; the package's
    own errors from a conversion pass through.
    """
    parts = line.split()
    kinds = kind if isinstance(kind, tuple) else (kind,) * len(parts)
    if len(parts) == count:
        try:
            return [k(p) for k, p in zip(kinds, parts)]
        except ErgmLabError:
            raise
        except ValueError:
            pass
    raise FormatError(what.format(repr(line)))


# -- vertex-pair order, edge masks and seeds ------------------------------------


@functools.lru_cache(maxsize=8)
def _vertex_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The vertex pairs i < j of an n-vertex graph in lexicographic order, as
    two read-only uint16 columns (i, j), 1.9 MiB at n = 1000: the one
    encoding of pair order. Column t of an edge-indicator row and bit t of
    an edge mask both stand for pair t, (i[t], j[t]), and Graph.edges lists
    a graph's edges in this order. The columns are filled in place, row by
    row, so a cold build peaks near their own size.
    """
    vertices = np.arange(n, dtype=np.uint16)
    i = np.repeat(vertices[:-1], np.arange(n - 1, 0, -1))
    j = np.empty_like(i)
    lo = 0
    for a in range(n - 1):
        j[lo : lo + n - 1 - a] = vertices[a + 1 :]
        lo += n - 1 - a
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _indicator_graph(n: int, row) -> Graph:
    """The graph whose edges are the pairs of the nonzero entries of row."""
    on, bits = np.asarray(row, dtype=bool), np.zeros((n, n), dtype=np.uint8)
    i, j = (ends[on] for ends in _vertex_pairs(n))
    bits[i, j] = bits[j, i] = 1
    return Graph._from_rows(n, _bit_rows(bits))


@functools.lru_cache(maxsize=None)
def _mask_bits(m: int) -> np.ndarray:
    """The read-only (2^m, m) int8 table whose row s holds the m bits of
    edge mask s, built once per m by unpacking the masks' bytes (480 KiB at
    m = 15, six vertices)."""
    masks = np.arange(1 << m, dtype="<u4").view(np.uint8).reshape(-1, 4)
    table = np.unpackbits(masks, axis=1, count=m, bitorder="little").view(np.int8)
    table.flags.writeable = False
    return table


def _seed_key(seed: int) -> int:
    """The 64-bit key of a seed: the seed modulo 2^64, so -1 keys 2^64 - 1.
    A seed that is not an integer, such as 2.9 or "7", raises DomainError
    (_integer) rather than keying the stream of a truncation."""
    return _integer(seed, "seed") & (2**64 - 1)


def _rng_from_seed(seed: int) -> np.random.Generator:
    """The Philox stream keyed by _seed_key(seed).

    Every seeded function of the package draws from one of these, so a seed
    and its residue modulo 2^64 give the same results everywhere.
    """
    return np.random.default_rng(np.random.Philox(key=_seed_key(seed)))


def _bit_matrix(n: int, rows) -> np.ndarray:
    """The (n, n) uint8 0/1 matrix of n bitmask rows with no bit at n or above."""
    width = (n + 7) // 8
    raw = b"".join(r.to_bytes(width, "little") for r in rows)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits.reshape(n, 8 * width)[:, :n]


def _bit_rows(bits: np.ndarray) -> list[int]:
    """The bitmask rows of a 0/1 array's last axis (bit j from column j): the inverse of _bit_matrix."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    return [int.from_bytes(r, "little") for r in packed.reshape(-1, packed.shape[-1])]


def _adjacency(g) -> np.ndarray:
    """float32 0/1 adjacency matrix of anything with n and bitmask rows, the
    width in which the exact walk products start (see _exact_product)."""
    return _bit_matrix(g.n, g.rows).astype(np.float32)


# -- structural classification used for fast counting paths -----------------


def classify_motif(h: Motif) -> tuple:
    """Recognize the shapes with closed-form counts.

    Returns one of ("edge",), ("star", j), ("triangle",), ("cycle", j),
    ("complete", r), or ("general",), read from the full motif: isolated
    vertices do not change the class. The term of that class counts the
    motif's active part (its vertices with an edge, relabelled in order);
    isolated vertices scale only the public count (count_homomorphisms).
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
    """Whether the edges form one cycle, for a motif whose vertices with an
    edge all have degree 2 and whose edges are as many as those vertices:
    the walk from one of them returns after edge_count steps."""
    nbrs = h.neighbor_lists()
    start = next(i for i in range(h.vertex_count) if nbrs[i])
    prev, cur, length = start, nbrs[start][0], 1
    while cur != start:
        a, b = nbrs[cur]
        prev, cur = cur, b if a == prev else a
        length += 1
    return length == h.edge_count


# -- homomorphism counting ---------------------------------------------------


def _search_levels(h: Motif, order: list[int], table) -> list[list[tuple[int, int]]]:
    """Plan of the bitset recursion below over the motif's vertices.

    Extends order by the other vertices, those with a placed neighbor first
    and high degree first so pruning bites early. Lists, for each position,
    the motif edges back to earlier positions as (earlier position,
    table(edge index)), table naming the row table the edge must land in.
    """
    nbrs = h.neighbor_lists()
    order = list(order)
    remaining = [v for v in range(h.vertex_count) if v not in order]
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


def _contraction_guard(h: Motif, k: int, vertex_guard: int):
    """Refuse a contraction of the active motif h over k blocks beyond the
    vertex guard or the k^|V(h)| cell guard."""
    if h.vertex_count > vertex_guard:
        raise InstanceTooLargeError(
            f"instance too large: motif has {h.vertex_count} vertices, "
            f"guard is {vertex_guard}"
        )
    if k**h.vertex_count > DENSITY_SIZE_GUARD:
        raise InstanceTooLargeError(
            f"instance too large: k^|V(H)| = {k}^{h.vertex_count} exceeds "
            f"the {DENSITY_SIZE_GUARD} guard"
        )


@functools.lru_cache(maxsize=256)
def _motif_subscripts(h: Motif) -> tuple:
    """Einsum subscripts of a motif's density and of each edge's delta term,
    and the classes of the delta terms that give the same array.

    Each entry holds a subscript string, its operand kinds ("v" for the
    kernel values, "w" for the block weights and "1" for a ones vector that
    puts a pinned vertex on no remaining edge among the inputs) and the
    itemgetter that picks its operands, in order, from (values, weights,
    ones); every entry has two operands or more, so it picks a tuple.
    Returns the density entry, one entry per edge (r, s): the other edges
    and vertices summed out, with r and s pinned to the output axes, and for
    each edge entry the index of the first entry of its class. The value
    subscripts lead with "...", so one entry serves a (k, k) value array and
    an (R, k, k) stack of them.

    Two entries share a class when numpy's C einsum runs the same
    computation for both: the same operand kinds in the same order and the
    same subscripts once the output letters are renamed in their order and
    the summed letters in character-code order, the order in which c_einsum
    appends the summed labels to its iteration. An entry that sums a single
    label may also swap the two letters of a value operand or of the
    output: each output cell is then a sum of the same three-factor products
    over that label in index order, the kernel is exactly symmetric
    (variational._check_kernels) and the term is symmetrized. Each entry's
    form is built once per output order, one or two, in time linear in its
    subscripts, with no search over letter permutations. So the
    triangle's three entries form one class and the k entries of star:k one;
    no two entries of cycle:4, cycle:5 or complete:4 share one (a rule that
    swapped letters where two labels are summed would merge the second and
    third entries of cycle:4, whose arrays differ in the last bits on 735
    of 840 random kernels at k = 1 to 12). An entry wider than numpy's C einsum takes is a class
    of its own, since the classes hold only on the direct call.
    """

    def entry(subscripts: str, kinds: str) -> tuple:
        return subscripts, kinds, operator.itemgetter(*map("vw1".index, kinds))

    def form(operands: list, output: str, summed: str) -> str:
        # output letters renamed in their order, then the summed ones; with
        # one summed label each operand's letters sorted
        names = dict(zip(output + summed, string.ascii_letters))
        renamed = ("".join(names[x] for x in op) for op in operands)
        return ",".join("".join(sorted(op)) if len(summed) == 1 else op for op in renamed)

    letters = string.ascii_letters[: h.vertex_count]
    density = entry(
        ",".join(["..." + letters[i] + letters[j] for i, j in h.edges] + list(letters)) + "->...",
        "v" * len(h.edges) + "w" * h.vertex_count,
    )
    terms, classes, first = [], [], {}
    for t, (r, s) in enumerate(h.edges):
        rest = [e for e in h.edges if e != (r, s)]
        subs = ["..." + letters[i] + letters[j] for i, j in rest]
        kinds = "v" * len(rest)
        for v in range(h.vertex_count):
            if v not in (r, s):
                subs.append(letters[v])
                kinds += "w"
        for v in (r, s):
            if not any(v in e for e in rest):
                subs.append(letters[v])
                kinds += "1"
        terms.append(entry(",".join(subs) + "->..." + letters[r] + letters[s], kinds))
        summed = "".join(letters[v] for v in range(h.vertex_count) if v not in (r, s))
        operands = [x.lstrip(".") for x in subs]
        forms = [form(operands, letters[r] + letters[s], summed)]
        if len(summed) == 1:
            forms.append(form(operands, letters[s] + letters[r], summed))
        key = (kinds, min(forms)) if len(kinds) <= _EINSUM_MAX_OPERANDS else t
        classes.append(first.setdefault(key, t))
    return density, tuple(terms), tuple(classes)


def _einsum_path(subscripts: str, operands) -> list:
    """einsum's greedy path, or where a step of it would take more than
    _EINSUM_MAX_OPERANDS operands, the greedy path under a
    DIRECT_EINSUM_MAX_CELLS intermediate budget; InstanceTooLargeError where
    that too has a step numpy refuses."""
    for optimize in ("greedy", ("greedy", DIRECT_EINSUM_MAX_CELLS)):
        path = np.einsum_path(subscripts, *operands, optimize=optimize)[0]
        widest = max(len(step) for step in path[1:])
        if widest <= _EINSUM_MAX_OPERANDS:
            return path
    raise InstanceTooLargeError(
        f"instance too large: an einsum of {widest} operands, numpy's takes at most {_EINSUM_MAX_OPERANDS}"
    )


class _Contraction:
    """The density and delta contractions of one motif at fixed block weights.

    Built once per call of hom_density_graphon and delta_h, per kernel
    solve, and per general graph count or batch, a graph being its n-block
    0/1 kernel with unit weights, whose density contraction is the
    homomorphism count. Every construction guards the motif's active part at
    len(weights) blocks and the given vertex guard (_contraction_guard),
    looks up its subscript entries, whose itemgetters hold the value slots,
    and binds the weight and ones operands and the most value entries a call
    contracts directly. A delta entry with no value operand (the single
    edge's) is the same at every call: the first delta call evaluates and
    symmetrizes it, and later calls add that array, so they run only the
    einsums that read the values. On the direct call, delta evaluates and
    symmetrizes each class of entries (_motif_subscripts) once, one einsum
    for the triangle and one for star:k, and adds the class's array to a
    fresh total once per entry, in entry order: the arrays and the sum are
    those of one einsum per entry, bit for bit. Along a greedy path, where
    the pairwise products of the triangle's entries differ in the last
    bits, every entry runs. density and delta take a (k, k) value array,
    or an (R, k, k) stack of them. einsum may sum a stack in another order
    than the single array, so a slice can differ from the single array's
    result; every operand is nonnegative, so each lies within a relative
    n 2^-53 of the exact sum, and the two within n 2^-52 of each other, for
    n = k^|V(H)| + |V(H)| + 2|E(H)|, which bounds the roundings on any chain
    of the sum (star:5 at k = 5 on a 5-stack: up to 136 ulps, against
    15,641 2^-52). A call
    of at most DIRECT_EINSUM_MAX_CELLS rows x k^|V(H)| runs numpy's C einsum
    directly, a larger one einsum's greedy path, planned on first use per
    subscript entry and value shape; it makes no intermediate larger than
    its largest operand. Where the direct call or a step of that path would
    take more than _EINSUM_MAX_OPERANDS operands, the call runs a greedy
    path planned under a DIRECT_EINSUM_MAX_CELLS intermediate budget instead
    (_einsum_path); only a step of that path still wider than numpy takes
    raises InstanceTooLargeError, before it runs.
    """

    __slots__ = ("_density", "_terms", "_classes", "_operands", "_direct", "_paths")

    def __init__(self, h: Motif, weights: np.ndarray, vertex_guard: int):
        h = _term(h).motif  # a density cannot see isolated vertices
        k = len(weights)
        _contraction_guard(h, k, vertex_guard)
        self._density, terms, self._classes = _motif_subscripts(h)
        self._terms = list(terms)
        self._operands = (weights, np.ones(k))
        # the most value entries a call contracts directly, k^(|V(H)| - 2) cells each
        self._direct = DIRECT_EINSUM_MAX_CELLS // k ** (h.vertex_count - 2)
        self._paths = {}

    def _run(self, entry: tuple, values: np.ndarray) -> np.ndarray:
        subscripts, kinds, pick = entry
        operands = pick((values, *self._operands))
        path = False  # numpy's C einsum, no path
        if values.size > self._direct or len(kinds) > _EINSUM_MAX_OPERANDS:
            key = (subscripts, values.shape)
            if key not in self._paths:
                self._paths[key] = _einsum_path(subscripts, operands)
            path = self._paths[key]
        return np.einsum(subscripts, *operands, optimize=path)

    def density(self, values: np.ndarray):
        """t(H, .) of the kernel (a numpy scalar), or of each kernel in a stack."""
        return self._run(self._density, values)

    def delta(self, values: np.ndarray) -> np.ndarray:
        """Delta_H of the kernel, or of each kernel in a stack (see graphons.delta_h)."""
        total = np.zeros(values.shape)
        terms = self._terms.copy()  # each class's array once this call evaluates it
        # the classes hold on the direct call; along a greedy path each entry runs
        classes = self._classes if values.size <= self._direct else range(len(terms))
        for t in classes:
            entry = terms[t]
            if not isinstance(entry, np.ndarray):  # else evaluated, or with no value operand
                term = self._run(entry, values)
                entry = terms[t] = 0.5 * (term + term.swapaxes(-1, -2))
                if "v" not in self._terms[t][1]:
                    self._terms[t] = entry
            total += entry
        return total


# -- model terms: count, change statistic, batch count -------------------------


class _Term:
    """One motif as a model term; this base class handles the general shape.

    A term counts its motif's active part: motif is the given motif without
    its isolated vertices, the others relabelled in order, since a density
    cannot see an isolated vertex. count(g) is the homomorphism count of
    that part, which count_homomorphisms alone scales by n per isolated
    vertex; delta(g, i, j) its exact change when edge ij goes from absent to
    present; batch(bits, n) the counts of the rows of an edge-indicator
    matrix (columns: vertex pairs in lexicographic order). g is anything
    with n and bitmask rows (a Graph or the chain state), and a term reads
    nothing else of it. A term holds no coefficient: a model weighs every
    term as coefficient times its density (density), and the chain's
    log-odds read delta (mcmc._log_odds).
    The edge and the triangle state their change rule, which their batch
    reads and mcmc reads in place of delta and batch: per_edge, the delta
    at every pair, and per_common, the delta per common neighbour of the
    pair; both are None on a term without such a rule.

    Stars (the edge is the 1-star), cycles (the triangle is the 3-cycle)
    and cliques have closed-form integer counts and deltas in their
    subclasses, with no size guard. The general
    count, delta and batch here serve the edge-list motifs of no such shape.
    The count contracts the motif over the graph's 0/1 adjacency with unit
    block weights (_Contraction), and the batch over the rows' stacked ones
    (_adjacency_stacks), under the guard of at most 52 active vertices and
    |V(G)|^(active vertices) <= 10^9, so every partial sum is an exact
    float64 integer. The delta is the edge-rooted count, the discrete form of
    the kernel derivative: for each motif edge k in both orientations, pin
    edge k onto (i, j), map the edges before k into G - ij and those after k
    into G + ij; the sum over k telescopes to hom(H, G + ij) - hom(H, G - ij).
    """

    _vertex_guard = len(string.ascii_letters)  # one einsum letter per vertex
    per_edge: int | None = None
    per_common: int | None = None

    def __init__(self, motif: Motif, arg: int | None = None):
        active = [v for v, x in enumerate(motif.neighbor_lists()) if x]
        self.motif = Motif(len(active), [(active.index(u), active.index(w)) for u, w in motif.edges])
        self.arg = arg

    def density(self, counts, n: int):
        """count / n^v, v the motif's vertices, rounded once: the one density
        rule. A Python int divides in Python; an array in float64 while n^v <
        2^53, where every count converts exactly, and as Python ints beyond."""
        scale = n**self.motif.vertex_count
        if scale < 2**53 or not isinstance(counts, np.ndarray):
            return counts / scale
        return np.array([c / scale for c in counts.tolist()])

    def count(self, g) -> int:
        contraction = _Contraction(self.motif, np.ones(g.n), self._vertex_guard)
        return int(contraction.density(_bit_matrix(g.n, g.rows).astype(float)))

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
        return total

    def batch(self, bits: np.ndarray, n: int) -> np.ndarray:
        contraction = _Contraction(self.motif, np.ones(n), self._vertex_guard)
        cnt = np.empty(len(bits), dtype=np.int64)
        for lo, a in _adjacency_stacks(bits, n, np.float64):
            cnt[lo : lo + len(a)] = contraction.density(a)
        return cnt

    @functools.cached_property
    def _rooted_levels(self):
        return [
            _search_levels(self.motif, [u, w], lambda e, k=k: int(e > k))
            for k, (u, w) in enumerate(self.motif.edges)
        ]


class _StarTerm(_Term):
    """hom(K_1,s, G) = sum_v d_v^s, the degree powers; delta adds the two
    rises (d + 1)^s - d^s of i and j, their degrees taken in G - ij."""

    def count(self, g) -> int:
        return sum(r.bit_count() ** self.arg for r in g.rows)

    def delta(self, g, i: int, j: int) -> int:
        present = g.rows[i] >> j & 1
        ai = g.rows[i].bit_count() - present
        aj = g.rows[j].bit_count() - present
        s = self.arg
        return ((ai + 1) ** s - ai**s) + ((aj + 1) ** s - aj**s)

    def batch(self, bits: np.ndarray, n: int) -> np.ndarray:
        # row v: the columns of the n - 1 pairs that contain v, in an order its
        # sum does not see (entry t of the stacked pair columns is pair t mod m)
        inc = np.argsort(np.concatenate(_vertex_pairs(n)), kind="stable")
        inc = np.remainder(inc, math.comb(n, 2), out=inc).reshape(n, n - 1)
        step = max(1, _BATCH_BLOCK_ENTRIES // max(1, inc.size))
        # every count is at most n (n - 1)^s: int64 below 2^63, else Python ints
        exact = n * (n - 1) ** self.arg >= 2**63
        cnt = np.empty(bits.shape[0], dtype=object if exact else np.int64)
        for lo in range(0, bits.shape[0], step):
            deg = bits[lo : lo + step][:, inc].sum(axis=2, dtype=np.int64)
            if exact:
                deg = _python_ints(deg)
            cnt[lo : lo + step] = (deg**self.arg).sum(axis=1)
        return cnt


class _EdgeTerm(_StarTerm):
    """The 1-star: _StarTerm's degree sum 2E, with delta 2 at every pair."""

    per_edge = 2  # each edge maps the motif's edge in both directions

    def batch(self, bits: np.ndarray, n: int) -> np.ndarray:
        # einsum sums short rows 2.7x as fast as sum(axis=1): 0.4 ms for the
        # 2^15 masks of six vertices
        return self.per_edge * np.einsum("ij->i", bits, dtype=np.int64)


def _cliques_by_gather(bits: np.ndarray, n: int, r: int) -> np.ndarray:
    """r-cliques of each row: the r-sets whose C(r, 2) pair columns are all 1,
    in blocks of _BATCH_BLOCK_ENTRIES // C(n, r) rows (the triangle is r = 3)."""
    cols = np.zeros((n, n), dtype=np.intp)  # entry (i, j), i < j: the column of pair ij
    cols[_vertex_pairs(n)] = np.arange(math.comb(n, 2))
    # row a: the a-th vertex of every r-set, in lexicographic order
    sets = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(n), r)), dtype=np.intp)
    sets = sets.reshape(-1, r).T
    # the pair columns of every r-set, one array per pair of its positions
    first, *rest = (cols[sets[a], sets[b]] for a, b in itertools.combinations(range(r), 2))
    step = max(1, _BATCH_BLOCK_ENTRIES // max(1, first.size))
    cnt = np.empty(bits.shape[0], dtype=np.int64)
    for lo in range(0, bits.shape[0], step):
        rows = bits[lo : lo + step]
        on = rows[:, first]
        for pair in rest:
            on &= rows[:, pair]
        cnt[lo : lo + step] = on.sum(axis=1)
    return cnt


def _adjacency_stacks(bits: np.ndarray, n: int, dtype, upper: bool = False):
    """Yield (lo, a) for rows lo, lo + 1, ... of bits, a the (rows, n, n)
    stack of their 0/1 adjacency matrices in dtype (strictly upper ones when
    upper): a view of one reused stack of max(1, _PRODUCT_BLOCK_ENTRIES // n^2).
    Column t of bits fills the cells i n + j and j n + i of pair t, in intp."""
    i, j = _vertex_pairs(n)
    cells = [a.astype(np.intp) * n + b for a, b in ([(i, j)] if upper else [(i, j), (j, i)])]
    step = max(1, _PRODUCT_BLOCK_ENTRIES // n**2)
    stack = np.zeros((min(step, len(bits)), n * n), dtype=dtype)
    for lo in range(0, len(bits), step):
        rows = bits[lo : lo + step]
        a = stack[: len(rows)]
        for flat in cells:
            a[:, flat] = rows
        yield lo, a.reshape(-1, n, n)


def _triangles_by_product(bits: np.ndarray, n: int) -> np.ndarray:
    """Triangles of each row: sum((A+ @ A+) * A+) over its strictly upper
    adjacency A+, one term A+_ab A+_bc A+_ac per triangle a < b < c, so every
    partial sum is at most C(n, 3): float32 while C(n, 3) < 2^24 (n <= 466),
    float64 beyond (below 2^53 at every n up to MAX_VERTICES)."""
    cnt = np.empty(bits.shape[0], dtype=np.int64)
    for lo, a in _adjacency_stacks(bits, n, _exact_width(math.comb(n, 3)), upper=True):
        cnt[lo : lo + len(a)] = np.einsum("kij,kij->k", a @ a, a)
    return cnt


class _CycleTerm(_Term):
    """hom(C_k, G) = tr(A^k), the closed walks of length k.

    Write A for the adjacency matrix of G - ij and the toggle as U V^T, with
    U = [e_i, e_j] and V = [e_j, e_i]. Then sum_k z^k tr((A + U V^T)^k) / k
    - sum_k z^k tr(A^k) / k = -log det(I_2 - z V^T (I - zA)^-1 U), so the
    delta depends only on the 2 x 2 blocks of walk counts M_t = V^T A^t U.
    With D(z) = det(I_2 - sum_t z^(t+1) M_t) and -log D(z) = sum_m p_m z^m
    / m, the delta is p_k, which Newton's identities give from D's integer
    coefficients. count, batch and delta share one exact walk algebra, all
    of it through _exact_product and _exact_inner in the narrowest exact
    width: count is the closed walks of A (_closed_walks), batch those of
    each block of the rows' stacked adjacency matrices (_adjacency_stacks,
    so cycle:5 on four G(1000, 1/2) rows peaks under 24 MiB traced), as
    numpy infers them from Python ints (int64 below 2^63, uint64 below
    2^64, Python ints beyond); delta steps the two walk rows of i and j
    (_walk_blocks). For k = 4 the delta reduces to 8 w3 + 4 (d_i + d_j) + 2,
    with d the degrees and w3 = (A^3)_ij = sum_{y in N(j)} |N(i) & N(y)|,
    all taken in G - ij.
    """

    def count(self, g) -> int:
        return _closed_walks(_adjacency(g), self.arg)

    def batch(self, bits: np.ndarray, n: int) -> np.ndarray:
        cnt = np.empty(len(bits), dtype=np.int64 if n**self.arg < 2**63 else object)  # counts <= n^k
        for lo, a in _adjacency_stacks(bits, n, np.float32):
            cnt[lo : lo + len(a)] = _closed_walks(a, self.arg)
        return cnt if cnt.dtype != object else _int_array(cnt.tolist())

    def delta(self, g, i: int, j: int) -> int:
        if self.arg != 4:
            return _cycle_change(_walk_blocks(g, i, j, self.arg - 1), self.arg)
        rows = g.rows
        ri, rj = rows[i] & ~(1 << j), rows[j] & ~(1 << i)
        di, dj = ri.bit_count(), rj.bit_count()
        if di < dj:
            ri, rj = rj, ri
        # w3 is symmetric in i and j: run over the smaller neighbourhood
        w3 = 0
        while rj:
            y = rj.bit_length() - 1
            w3 += (ri & rows[y]).bit_count()
            rj ^= 1 << y
        return 8 * w3 + 4 * (di + dj) + 2


class _TriangleTerm(_CycleTerm):
    """The 3-cycle: count is _CycleTerm's closed walks tr(A^3) = 6T, the
    kernel Graph.triangle_count divides by 6; delta and batch read the
    triangles directly."""

    per_common = 6  # each triangle, and each one ij closes, maps the motif in 3! ways

    def delta(self, g, i: int, j: int) -> int:
        return self.per_common * (g.rows[i] & g.rows[j]).bit_count()

    def batch(self, bits: np.ndarray, n: int) -> np.ndarray:
        if n >= _TRIANGLE_PRODUCT_MIN_N:
            return self.per_common * _triangles_by_product(bits, n)
        return self.per_common * _cliques_by_gather(bits, n, 3)


def _closed_walks(a: np.ndarray, k: int):
    """tr(A^k), the closed walks of length k >= 2, of a 0/1 adjacency matrix
    or of each of a stack, exactly (see _exact_inner): <A^h, A^(k-h)> with
    h = floor(k/2), contracting A^h against A^h A a block at a time for odd
    k. Those blocks are float32 products, in limbs once A^h A passes 2^24,
    so the only n x n matrices held are A and its powers, in the widths
    _symmetric_power forms them."""
    x = _symmetric_power(a, k // 2)
    return _exact_inner(x, x, a if k % 2 else None)


def _walk_blocks(g, i: int, j: int, top: int) -> list[tuple[int, int, int]]:
    """(A^t)_ii, (A^t)_ij and (A^t)_jj for t = 0..top, where A is the
    adjacency matrix of g with edge ij removed.

    A has no loops and no edge ij, so the blocks of t = 0 and 1 are
    (1, 0, 1) and (0, 0, 0). For t >= 2, (A^t)_xy = (e_x A^a) . (e_y A^(t-a))
    with a = floor(t / 2) >= 1, so the walk rows e_i A^a and e_j A^a run from
    rows i and j of A to a = ceil(top / 2), and one Gram product of the
    stacked walks holds every block. Walks and Gram are exact products in
    the narrowest exact width, as in count.
    """
    adj = _adjacency(g)
    adj[i, j] = adj[j, i] = 0.0
    walks = [adj[[i, j]]]
    while len(walks) < (top + 1) // 2:
        walks.append(_exact_product(walks[-1], adj))
    if walks[-1].dtype == object:
        walks = [_python_ints(w) for w in walks]
    w = np.concatenate(walks)
    # row 2a - 2 + x of w is e_x A^a, so gram[2a - 2 + x][2b - 2 + y] = (A^(a+b))_xy
    gram = _python_ints(_exact_product(w)).tolist()
    blocks = [(1, 0, 1), (0, 0, 0)]
    for t in range(2, top + 1):
        r, c = 2 * (t // 2) - 2, 2 * (t - t // 2) - 2
        blocks.append((gram[r][c], gram[r][c + 1], gram[r + 1][c + 1]))
    return blocks


def _cycle_change(blocks: list[tuple[int, int, int]], k: int) -> int:
    """p_k, where -log D(z) = sum_m p_m z^m / m and D(z) = (1 - s_ij(z))^2 -
    s_ii(z) s_jj(z), s_xy(z) = sum_t (A^t)_xy z^(t+1), from the blocks of
    t = 0..k-1 (see _CycleTerm).

    With D = 1 + c_1 z + c_2 z^2 + ..., Newton's identities read
    p_m = -m c_m - sum_{l<m} c_l p_(m-l), all in Python ints.
    """
    ii, ij, jj = ([0] + list(s) for s in zip(*blocks))
    c = [1] + [
        -2 * ij[m] + sum(ij[a] * ij[m - a] - ii[a] * jj[m - a] for a in range(1, m))
        for m in range(1, k + 1)
    ]
    p = [0]
    for m in range(1, k + 1):
        p.append(-m * c[m] - sum(c[l] * p[m - l] for l in range(1, m)))
    return p[k]


def _symmetric_power(a: np.ndarray, h: int) -> np.ndarray:
    """A^h of a symmetric nonnegative integer matrix, or of each of a stack,
    exactly: an odd power as A^(h-1) A, an even one as the square of A^(h/2),
    for one matrix its Gram product (BLAS syrk, at half the flops), for a
    stack a plain product, which numpy runs 1.2-6x faster up to n = 256."""
    if h == 1:
        return a
    if h % 2:
        return _exact_product(_symmetric_power(a, h - 1), a)
    half = _symmetric_power(a, h // 2)
    return _exact_product(half, None if half.ndim == 2 else half)


def _int_array(counts: list) -> np.ndarray:
    """Python-int counts as numpy infers them (int64 below 2^63, uint64 below
    2^64, object beyond), and int64 for no count, as for one empty graph."""
    return np.array(counts, dtype=None if counts else np.int64)


def _python_ints(x: np.ndarray) -> np.ndarray:
    return x if x.dtype == object else x.astype(np.int64).astype(object)


def _exact_width(bound: int):
    """The narrowest type that sums nonnegative integers exactly while every
    partial sum is at most bound: float32 below 2^24, float64 below 2^53,
    Python ints (object) beyond."""
    return np.float32 if bound < 2**24 else np.float64 if bound < 2**53 else object


def _in_width(x: np.ndarray, dtype) -> np.ndarray:
    """x as dtype (no copy when it already is), or as Python ints for object."""
    return _python_ints(x) if dtype is object else x.astype(dtype, copy=False)


def _exact_product(x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """x @ y, or the Gram product x @ x^T when y is None, for nonnegative
    integer matrices or stacks of them, exactly.

    Every partial sum is an integer of at most n max(x) max(y), so the
    product runs in _exact_width of that bound: float32 BLAS below 2^24,
    float64 below 2^53, Python ints beyond. The Gram product converts x once
    and multiplies it by its own transpose, which numpy hands to BLAS syrk
    at half the flops.
    """
    top = int(x.max())
    dtype = _exact_width(x.shape[-1] * top * (top if y is None else int(y.max())))
    x = _in_width(x, dtype)
    return x @ (x.swapaxes(-1, -2) if y is None else _in_width(y, dtype))


def _exact_inner(x: np.ndarray, y: np.ndarray, z: np.ndarray | None = None):
    """sum_ij x_ij w_ij for nonnegative integer matrices, w = y or y @ z: a
    Python int, or for (R, r, n) stacks one total per matrix (int64 while
    r n max(x) max(w) < 2^63, Python ints beyond).

    Works in blocks of about _PRODUCT_BLOCK_ENTRIES entries, whole matrices
    of a stack or rows of one matrix, so y @ z is formed a block at a time;
    its row blocks hold at least _PRODUCT_MIN_ROWS rows (64 rather than the
    budget's 16 at n = 4096: cycle:5 of G(4096, 1/2) takes 3.4 s with 64
    rows and 7.9 s with 16, one thread).
    Every entry and partial sum of y @ z is at most m max(y) max(z), m the
    width of y. Below 2^24 the product runs in float32 BLAS, at or beyond
    2^53 in Python ints, and between the two in float32 limbs
    (_limb_product) of the largest width b with m (2^b - 1) max(z) < 2^24
    (14 bits at n = 1000, 12 at n = 4096), so neither z nor a block of y is
    copied to float64 (8 MB for A at n = 1000, 128 MiB at n = 4096). Only
    when m max(z) >= 2^24, which leaves no limb exact, does the product run
    in float64. The row sums of x * w run in _exact_width of
    n max(x) max(w), with int64 between 2^53 and 2^63.
    """
    if x.ndim == 2:
        return int(_exact_inner(x[None], y[None], z if z is None else z[None])[0])
    r, n = x.shape[1:]
    top = int(y.max())
    if z is not None:
        span, limbs = y.shape[-1] * int(z.max()), 0  # m max(z)
        product_width = _exact_width(top * span)  # bounds every entry and partial sum of y @ z
        if product_width is np.float64 and span < 2**24:
            bits = ((2**24 - 1) // span + 1).bit_length() - 1  # the largest with span (2^bits - 1) < 2^24
            limbs, product_width = -(-top.bit_length() // bits), np.float32
        top *= span
        z = _in_width(z, product_width)
    bound = n * int(x.max()) * top
    dtype = np.int64 if 2**53 <= bound < 2**63 else _exact_width(bound)
    exact = np.int64 if r * bound < 2**63 else object
    total = np.zeros(len(x), dtype=exact)
    rows = _PRODUCT_BLOCK_ENTRIES // n
    step = max(1 if z is None else _PRODUCT_MIN_ROWS, rows)  # rows per block
    per = max(1, rows // r)  # matrices per block
    for g in range(0, len(x), per):
        for lo in range(0, r, step):
            block = np.s_[g : g + per, lo : lo + step]
            if z is None:
                w = y[block]
            elif limbs:
                w = _limb_product(y[block], z[g : g + per], bits, limbs)
            else:
                w = _in_width(y[block], product_width) @ z[g : g + per]
            xs, ws = _in_width(x[block], dtype), _in_width(w, dtype)
            sums = (xs * ws).sum(axis=2) if dtype is object else np.einsum("kij,kij->ki", xs, ws)
            total[g : g + per] += _in_width(sums, exact).sum(axis=1)
    return total


def _limb_product(y: np.ndarray, z: np.ndarray, bits: int, limbs: int) -> np.ndarray:
    """y @ z in float64 for a nonnegative integer y below 2^(bits limbs) and
    a float32 z, exactly while y @ z < 2^53 and m (2^bits - 1) max(z) < 2^24
    (m = y's width): the sum over l of 2^(bits l) (y_l @ z), with y_l the
    base-2^bits digits of y.

    Scaling by powers of two and flooring split y exactly in its own type
    (float32 stays float32; numpy's float divmod takes 15x as long). The
    digit blocks are stacked along the rows, so one float32 BLAS call
    multiplies them all (two 65-row calls took 10% longer at n = 1000).
    Each digit is below 2^bits, so every partial sum of y_l @ z stays
    below 2^24, and the float64 sum, taken from the top limb down as
    w = 2^bits w + y_l @ z, holds integers of at most the final entry.
    """
    rows = y.shape[-2]
    digits = np.empty(y.shape[:-2] + (limbs * rows, y.shape[-1]), dtype=np.float32)
    for l in range(limbs):
        high = np.floor(y * 2.0**-bits)
        digits[..., l * rows : (l + 1) * rows, :] = y - high * 2.0**bits
        y = high
    parts = digits @ z
    w = parts[..., (limbs - 1) * rows :, :].astype(np.float64)
    for l in reversed(range(limbs - 1)):
        w *= 2.0**bits
        w += parts[..., l * rows : (l + 1) * rows, :]
    return w


class _CompleteTerm(_Term):
    """hom(K_r, G) = r! times the r-cliques of G. The r-cliques that edge ij
    closes are ij plus an (r-2)-clique of G[C], C = N(i) & N(j), so the delta
    is r! times the (r-2)-cliques of G[C]: for complete:4, 24 times the edges
    of G[C]. batch gathers the pair columns of every r-set
    (_cliques_by_gather) while C(n, r) C(r, 2) <= _CLIQUE_GATHER_MAX_CELLS,
    and beyond packs each graph's rows from the stacked adjacency
    (_bit_rows) for the bitset recursion, 11x faster than a contraction for
    complete:4 at n = 100.
    """

    def count(self, g) -> int:
        return math.factorial(self.arg) * _cliques(g.rows, (1 << g.n) - 1, self.arg)

    def delta(self, g, i: int, j: int) -> int:
        r = self.arg
        return math.factorial(r) * _cliques(g.rows, g.rows[i] & g.rows[j], r - 2)

    def batch(self, bits: np.ndarray, n: int) -> np.ndarray:
        r = self.arg
        # every count is at most n! / (n - r)!, so the gather's stays in int64
        if r <= n and math.perm(n, r) < 2**63 and math.comb(n, r) * math.comb(r, 2) <= _CLIQUE_GATHER_MAX_CELLS:
            return math.factorial(r) * _cliques_by_gather(bits, n, r)
        rows = (row for _, a in _adjacency_stacks(bits, n, np.uint8) for row in _bit_rows(a))
        graphs = zip(*[rows] * n)  # each next n rows: one graph's
        return _int_array([math.factorial(r) * _cliques(g, (1 << n) - 1, r) for g in graphs])


def _cliques(rows, cand: int, s: int) -> int:
    """The s-cliques inside the bitset cand for s >= 2, each found once: from
    its highest vertex y, with the other s - 1 among the lower neighbours of y."""
    total = 0
    while cand:
        y = cand.bit_length() - 1
        cand ^= 1 << y
        inside = cand & rows[y]
        total += inside.bit_count() if s == 2 else _cliques(rows, inside, s - 1)
    return total


# each class with its size for the two shapes classify_motif names without one
_TERM_CLASSES = {
    "edge": (_EdgeTerm, 1),
    "star": (_StarTerm,),
    "triangle": (_TriangleTerm, 3),
    "cycle": (_CycleTerm,),
    "complete": (_CompleteTerm,),
    "general": (_Term,),
}


@functools.lru_cache(maxsize=256)
def _term(h: Motif) -> _Term:
    """The term object of the motif's shape (see classify_motif), one per
    motif: equal motifs share it, and with it the active part it decides."""
    kind = classify_motif(h)
    cls, *size = _TERM_CLASSES[kind[0]]
    return cls(h, *size, *kind[1:])


def count_homomorphisms(h: Motif, g: Graph) -> int:
    """Number of maps V(H) -> V(G) sending every edge of H to an edge of G.

    The term of h counts the maps of its active part, the motif vertices
    with an edge; each isolated vertex of h may go anywhere, so this count,
    and no term kernel, scales that count by |V(G)|^(isolated vertices).
    Exact at any size for edges, stars, triangles, cycles and cliques, whose
    term kernels count in closed form; the other (edge-list) shapes contract
    the motif over the adjacency matrix (_Term), whose guard refuses more
    than 52 active vertices and |V(G)|^(active vertices) above 10^9.
    """
    term = _term(h)
    return term.count(g) * g.n ** (h.vertex_count - term.motif.vertex_count)


def hom_density_graph(h: Motif, g: Graph) -> float:
    """Probability that a uniformly random map V(H) -> V(G) is a homomorphism:
    count_homomorphisms(h, g) / |V(G)|^|V(H)|, under the same guard, as the
    term's density (isolated vertices cancel exactly)."""
    term = _term(h)
    return term.density(term.count(g), g.n)


# kept only because the benchmark calls graphs.hom_count_fast; ROADMAP item 1,
# the benchmark change, deletes it
hom_count_fast = count_homomorphisms


# -- chromatic number --------------------------------------------------------


def chromatic_number(h: Motif) -> int:
    """Exact chromatic number: the least k >= 2 (a motif has an edge) for
    which a backtracking search, highest degree first, finds a proper
    k-colouring. Isolated vertices take any colour, so only the active
    part (_term(h).motif) is coloured and meets the size guard."""
    h = _term(h).motif
    nbrs = h.neighbor_lists()
    order = sorted(range(h.vertex_count), key=lambda v: -len(nbrs[v]))
    if len(order) > CHROMATIC_VERTEX_GUARD:
        raise InstanceTooLargeError(
            f"instance too large: chromatic number supports at most "
            f"{CHROMATIC_VERTEX_GUARD} active vertices, got {len(order)}"
        )
    k = 2
    while not _colorable(nbrs, order, k):
        k += 1
    return k


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
