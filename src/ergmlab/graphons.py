"""Step-function graphon algebra.

A step graphon is a symmetric kernel on [0,1]^2 that is constant on the
cells of a product partition. Everything the limit theory produces here
(constants, complete multipartite kernels, two-clump kernels) is of this
form, and step kernels admit exact evaluation of homomorphism densities,
entropy rate functionals, the cut norm, and the edge-derivative operator.
"""

from __future__ import annotations

import functools
import itertools
import math
import string
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FormatError, InstanceTooLargeError
from .graphs import Graph, Motif

WEIGHT_TOL = 1e-12
SYMMETRY_TOL = 1e-9
BOUNDARY_MERGE_TOL = 1e-9
CUT_NORM_EXACT_MAX_BLOCKS = 24
CUT_DISTANCE_EXHAUSTIVE_MAX_BLOCKS = 8
DENSITY_VERTEX_GUARD = 8
DENSITY_SIZE_GUARD = 10**9
DELTA_VERTEX_GUARD = 6
# kernels with k^|V(H)| at most this many cells contract in numpy's C einsum
# directly; larger ones along a greedy path that einsum searches per call
DIRECT_EINSUM_MAX_CELLS = 2**16
# the exact cut norm expands the low sign bits into one 0/1 table of at most
# 2^12 rows and works in blocks of at most this many float entries
_CUT_LOW_BITS = 12
_CUT_BLOCK_ENTRIES = 2**20


class StepGraphon:
    """Symmetric piecewise-constant kernel with block weights summing to 1."""

    __slots__ = ("weights", "values")

    def __init__(self, weights, values):
        w = np.asarray(weights, dtype=float)
        v = np.asarray(values, dtype=float)
        if w.ndim != 1 or len(w) == 0:
            raise DomainError("weights must be a nonempty vector")
        if np.any(w < -WEIGHT_TOL):
            raise DomainError("block weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise DomainError(f"block weights must sum to 1 (got {w.sum()!r})")
        k = len(w)
        if v.shape != (k, k):
            raise DomainError(f"values must be {k}x{k}, got {v.shape}")
        asym = np.max(np.abs(v - v.T)) if k else 0.0
        if asym > SYMMETRY_TOL:
            raise DomainError(f"values asymmetric beyond tolerance: {asym:g}")
        v = 0.5 * (v + v.T)
        if np.any(v < -1e-12) or np.any(v > 1 + 1e-12):
            raise DomainError("block values must lie in [0, 1]")
        self.weights = w
        self.values = np.clip(v, 0.0, 1.0)

    @property
    def k(self) -> int:
        return len(self.weights)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, u: float) -> "StepGraphon":
        return cls([1.0], [[u]])

    @classmethod
    def equal_blocks(cls, values) -> "StepGraphon":
        values = np.asarray(values, dtype=float)
        k = values.shape[0]
        return cls(np.full(k, 1.0 / k), values)

    @classmethod
    def random(cls, k: int, rng, equal_weights: bool = True) -> "StepGraphon":
        if equal_weights:
            w = np.full(k, 1.0 / k)
        else:
            w = rng.uniform(0.2, 1.0, size=k)
            w = w / w.sum()
        a = rng.uniform(0.0, 1.0, size=(k, k))
        return cls(w, 0.5 * (a + a.T))

    def boundaries(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(self.weights)])

    def refine_equal(self, k_new: int) -> "StepGraphon":
        """Refine an equal-block graphon into k_new equal blocks (k | k_new)."""
        if not _equal_weights(self.weights):
            raise DomainError("refine_equal requires equal block weights")
        if k_new % self.k:
            raise DomainError(f"cannot refine {self.k} equal blocks into {k_new}")
        f = k_new // self.k
        return StepGraphon(np.full(k_new, 1.0 / k_new), np.kron(self.values, np.ones((f, f))))

    def __repr__(self):
        return f"StepGraphon(k={self.k})"

    # -- text format: k, weights line, k value rows --------------------------

    def to_text(self) -> str:
        lines = [str(self.k), " ".join(f"{w:.17g}" for w in self.weights)]
        for row in self.values:
            lines.append(" ".join(f"{x:.17g}" for x in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "StepGraphon":
        lines = [ln.strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln and not ln.startswith("#")]
        if len(lines) < 2:
            raise FormatError("graphon file needs a block count and a weights line")
        try:
            k = int(lines[0])
            weights = [float(x) for x in lines[1].split()]
            rows = [[float(x) for x in ln.split()] for ln in lines[2 : 2 + k]]
        except ValueError as exc:
            raise FormatError(f"malformed graphon file: {exc}") from exc
        if len(weights) != k or len(rows) != k or any(len(r) != k for r in rows):
            raise FormatError("graphon file dimensions do not match the block count")
        v = np.asarray(rows)
        asym = np.max(np.abs(v - v.T))
        if asym > SYMMETRY_TOL:
            raise FormatError(f"graphon values asymmetric beyond 1e-9 (got {asym:g})")
        # upper triangle is authoritative
        v = np.triu(v) + np.triu(v, 1).T
        return cls(weights, v)


@dataclass
class CutNormResult:
    """Value of the cut norm of a kernel difference plus the optimizing rectangle.

    witness_s / witness_t index blocks of the common refinement. exact is
    True when the 2^k vertex enumeration ran; otherwise the value is a
    certified lower bound from alternating maximization.
    """

    value: float
    witness_s: tuple[int, ...]
    witness_t: tuple[int, ...]
    exact: bool


@dataclass
class CutDistanceResult:
    """Cut distance after optimizing over block permutations.

    exhaustive is True when all k! permutations were tried (exact within the
    step-function class); otherwise simulated annealing produced an upper
    bound.
    """

    value: float
    permutation: tuple[int, ...]
    exhaustive: bool


# -- scalar rate functions ---------------------------------------------------


def edge_entropy(u):
    """(1/2)[u log u + (1-u) log(1-u)] elementwise, with 0 log 0 = 0."""
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(u > 0.0, u * np.log(np.where(u > 0.0, u, 1.0)), 0.0)
        t2 = np.where(u < 1.0, (1.0 - u) * np.log(np.where(u < 1.0, 1.0 - u, 1.0)), 0.0)
    out = 0.5 * (t1 + t2)
    return out if out.ndim else float(out)


def relative_edge_entropy(u, p: float):
    """(1/2)[u log(u/p) + (1-u) log((1-u)/(1-p))] elementwise; p in (0,1)."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"reference density p must lie in (0, 1), got {p}")
    u = np.asarray(u, dtype=float)
    out = edge_entropy(u) - 0.5 * (u * math.log(p) + (1.0 - u) * math.log(1.0 - p))
    return out if out.ndim else float(out)


# -- densities and rates on step graphons ------------------------------------


def _contraction_guard(h: Motif, k: int, vertex_guard: int):
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
    """Einsum subscripts of a motif's density and of each edge's delta term.

    Each entry pairs a subscript string with its operand kinds: "v" for the
    kernel values, "w" for the block weights and "1" for a ones vector that
    puts a pinned vertex on no remaining edge among the inputs. Returns the
    density entry and one entry per edge (r, s): the other edges and
    vertices summed out, with r and s pinned to the output axes.
    """
    letters = string.ascii_lowercase[: h.vertex_count]
    density = (
        ",".join([letters[i] + letters[j] for i, j in h.edges] + list(letters)) + "->",
        "v" * len(h.edges) + "w" * h.vertex_count,
    )
    terms = []
    for r, s in h.edges:
        rest = [e for e in h.edges if e != (r, s)]
        subs = [letters[i] + letters[j] for i, j in rest]
        kinds = "v" * len(rest)
        for v in range(h.vertex_count):
            if v not in (r, s):
                subs.append(letters[v])
                kinds += "w"
        for v in (r, s):
            if not any(v in e for e in rest):
                subs.append(letters[v])
                kinds += "1"
        terms.append((",".join(subs) + "->" + letters[r] + letters[s], kinds))
    return density, tuple(terms)


def _contract(entries, g: StepGraphon, direct: bool) -> list:
    """Contract each (subscripts, kinds) entry at a step kernel.

    direct runs numpy's C einsum with no path search, which is fastest for
    small kernels; otherwise einsum searches a greedy path.
    """
    operands = {"v": g.values, "w": g.weights}
    if any("1" in kinds for _, kinds in entries):
        operands["1"] = np.ones(g.k)
    optimize = False if direct else "greedy"
    return [
        np.einsum(subscripts, *[operands[c] for c in kinds], optimize=optimize)
        for subscripts, kinds in entries
    ]


def hom_density_graphon(h: Motif, g: StepGraphon) -> float:
    """Exact homomorphism density of the motif in a step kernel.

    Evaluates the block sum of the product of kernel values over motif edges,
    weighted by block measures, via a tensor contraction.
    """
    _contraction_guard(h, g.k, DENSITY_VERTEX_GUARD)
    density, _ = _motif_subscripts(h)
    direct = g.k**h.vertex_count <= DIRECT_EINSUM_MAX_CELLS
    return float(_contract((density,), g, direct)[0])


def rate_entropy(g: StepGraphon) -> float:
    """Entropy rate functional: the block-weighted sum of edge_entropy values."""
    return float(np.einsum("a,b,ab->", g.weights, g.weights, edge_entropy(g.values)))


def rate_relative(g: StepGraphon, p: float) -> float:
    """Deviation cost from an independent-edge kernel of density p; >= 0."""
    return float(
        np.einsum("a,b,ab->", g.weights, g.weights, relative_edge_entropy(g.values, p))
    )


def to_step_graphon(g: Graph) -> StepGraphon:
    """Embed a graph as its n-equal-block 0/1 step kernel."""
    return StepGraphon.equal_blocks(g.adjacency_matrix())


# -- edge-derivative operator -------------------------------------------------


def delta_h(h: Motif, g: StepGraphon) -> np.ndarray:
    """Kernel-valued derivative of the motif density t(H, .) at a step kernel.

    Entry (a, b) sums, over edges (r, s) of H, the block average of the
    product of kernel values over the remaining edges with vertices r, s
    pinned to blocks a, b; each edge term is symmetrized over its two
    orientations, so the result is the symmetric kernel gradient that both
    the directional-derivative identity and the maximizer fixed-point
    equation consume. For a single-edge motif the result is the all-ones
    matrix (empty product convention).
    """
    _contraction_guard(h, g.k, DELTA_VERTEX_GUARD)
    _, terms = _motif_subscripts(h)
    direct = g.k**h.vertex_count <= DIRECT_EINSUM_MAX_CELLS
    total = np.zeros((g.k, g.k))
    for term in _contract(terms, g, direct):
        total += 0.5 * (term + term.T)
    return total


# -- common refinement --------------------------------------------------------


def common_refinement(f: StepGraphon, g: StepGraphon):
    """Refine both kernels to one partition; returns (weights, f_values, g_values).

    Block boundaries closer than 1e-9 are merged so floating-point drift in
    the weights does not spawn spurious micro-blocks.
    """
    cuts = np.concatenate([f.boundaries(), g.boundaries()])
    cuts = np.unique(np.clip(cuts, 0.0, 1.0))
    merged = [cuts[0]]
    for c in cuts[1:]:
        if c - merged[-1] > BOUNDARY_MERGE_TOL:
            merged.append(c)
    merged[0], merged[-1] = 0.0, 1.0
    if len(merged) > 4096:
        raise DomainError(
            "weight partitions are non-commensurable beyond tolerance 1e-9 "
            "(common refinement would exceed 4096 blocks)"
        )
    edges_new = np.asarray(merged)
    weights = np.diff(edges_new)
    mids = 0.5 * (edges_new[:-1] + edges_new[1:])

    def lookup(h: StepGraphon):
        idx = np.clip(np.searchsorted(h.boundaries(), mids, side="right") - 1, 0, h.k - 1)
        return h.values[np.ix_(idx, idx)]

    return weights, lookup(f), lookup(g)


# -- cut norm -----------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _sign_table(bits: int) -> np.ndarray:
    """Row i is the 0/1 expansion of i over `bits` bits, low bit first (read-only)."""
    idx = np.arange(1 << bits)
    table = ((idx[:, None] >> np.arange(bits)) & 1).astype(float)
    table.flags.writeable = False
    return table


def _cut_norm_exact(masses: np.ndarray):
    """Exact cut norm of each mass matrix M in a (P, k, k) stack.

    For a 0/1 row s the best 0/1 column set takes the positive (or the
    negative) entries of r = s M, so the norm is the max over the 2^k rows
    of pos = sum max(r, 0) and of neg = sum max(-r, 0) = pos - s.rowsum(M).
    The rows r of the low min(k, 12) bits come from one 0/1 table product,
    and each setting of the high bits adds one offset row to them; the work
    runs in blocks of at most _CUT_BLOCK_ENTRIES float entries. Returns each
    value, the index of its best row (bit i selects block i) and whether the
    positive side attains it; ties go to the lowest index, positive first.
    """
    count, k, _ = masses.shape
    low = min(k, _CUT_LOW_BITS)
    table, high = _sign_table(low), _sign_table(k - low)
    n_low, n_high = table.shape[0], high.shape[0]
    row_totals = masses.sum(axis=2)
    offsets = high @ masses[:, low:, :]  # (P, n_high, k)
    offset_totals = row_totals[:, low:] @ high.T  # (P, n_high)
    high_block = min(n_high, max(1, _CUT_BLOCK_ENTRIES // (n_low * k)))
    p_block = max(1, _CUT_BLOCK_ENTRIES // (n_low * k * high_block))
    if n_high > 1:
        buf = np.empty((p_block, high_block, n_low, k))
    ones = np.ones(k)
    values = np.full(count, -1.0)
    best = np.zeros(count, dtype=np.int64)
    positive = np.ones(count, dtype=bool)
    for p0 in range(0, count, p_block):
        p1 = min(p0 + p_block, count)
        rows = table @ masses[p0:p1, :low, :]  # (p, n_low, k)
        totals = row_totals[p0:p1, :low] @ table.T  # (p, n_low)
        for h0 in range(0, n_high, high_block):
            h1 = min(h0 + high_block, n_high)
            if n_high == 1:  # no high bits, so rows is not read again
                r = rows[:, None]
            else:
                r = np.add(rows[:, None], offsets[p0:p1, h0:h1, None, :], out=buf[: p1 - p0, : h1 - h0])
            pos = (np.maximum(r, 0.0, out=r) @ ones).reshape(p1 - p0, -1)
            neg = pos - (totals[:, None] + offset_totals[p0:p1, h0:h1, None]).reshape(p1 - p0, -1)
            for side, sides in ((True, pos), (False, neg)):
                i = np.argmax(sides, axis=1)
                v = sides[np.arange(p1 - p0), i]
                better = v > values[p0:p1]
                values[p0:p1][better] = v[better]
                best[p0:p1][better] = h0 * n_low + i[better]
                positive[p0:p1][better] = side
    return values, best, positive


def cut_norm_diff(f: StepGraphon, g: StepGraphon, seed: int = 0) -> CutNormResult:
    """Cut norm of f - g: sup over rectangles of the integrated difference.

    On the common refinement the supremum of the bilinear form over subsets
    is attained at 0/1 vertices, and for each vertex choice on one side the
    optimal other side is read off the sign pattern of the row sums. With k
    blocks the exact mode enumerates 2^k one-sided choices (k <= 24); larger
    instances fall back to seeded alternating maximization from 32 restarts,
    whose value is a certified lower bound.
    """
    w, fv, gv = common_refinement(f, g)
    mass = (w[:, None] * w[None, :]) * (fv - gv)
    k = len(w)
    if k <= CUT_NORM_EXACT_MAX_BLOCKS:
        values, best, positive = _cut_norm_exact(mass[None])
        s_vec = ((int(best[0]) >> np.arange(k)) & 1).astype(float)
        r = s_vec @ mass
        t_vec = (r > 0.0) if positive[0] else (r < 0.0)
        s_idx = tuple(int(i) for i in np.nonzero(s_vec)[0])
        t_idx = tuple(int(i) for i in np.nonzero(t_vec)[0])
        return CutNormResult(max(float(values[0]), 0.0), s_idx, t_idx, exact=True)

    rng = np.random.default_rng(np.random.Philox(key=seed))
    best_val, best_s, best_t = -1.0, np.zeros(k), np.zeros(k)
    for _ in range(32):
        s = (rng.random(k) < 0.5).astype(float)
        for sign in (1.0, -1.0):
            s_cur = s.copy()
            val = -1.0
            for _ in range(200):
                t_cur = (sign * (s_cur @ mass) > 0.0).astype(float)
                s_new = (sign * (mass @ t_cur) > 0.0).astype(float)
                new_val = float(sign * (s_new @ mass @ t_cur))
                if new_val <= val + 1e-15:
                    break
                s_cur, val = s_new, new_val
            if val > best_val:
                best_val, best_s, best_t = val, s_cur, t_cur
    s_idx = tuple(int(i) for i in np.nonzero(best_s)[0])
    t_idx = tuple(int(i) for i in np.nonzero(best_t)[0])
    return CutNormResult(max(best_val, 0.0), s_idx, t_idx, exact=False)


def _equal_weights(w: np.ndarray) -> bool:
    return bool(np.max(np.abs(w - 1.0 / len(w))) <= BOUNDARY_MERGE_TOL)


def cut_distance_upper(f: StepGraphon, g: StepGraphon, seed: int = 0) -> CutDistanceResult:
    """Cut distance between equal-block kernels, minimized over permutations.

    Both kernels are refined to lcm(k_f, k_g) equal blocks. Up to 8 blocks
    the k! permutations are searched exhaustively (exact within the
    step-function class, an upper bound on the continuum distance); beyond
    that, seeded simulated annealing over permutations reports an upper
    bound.
    """
    if not (_equal_weights(f.weights) and _equal_weights(g.weights)):
        raise DomainError("cut_distance_upper requires equal-weight block partitions")
    k = math.lcm(f.k, g.k)
    if k > 64:
        raise DomainError(f"common equal refinement needs {k} > 64 blocks")
    fr = f.refine_equal(k)
    gr = g.refine_equal(k)

    if k <= CUT_DISTANCE_EXHAUSTIVE_MAX_BLOCKS:
        # the mass matrices of a block of permutations go to the exact
        # kernel at once; the block keeps them within its entry budget
        ww = np.outer(fr.weights, fr.weights)
        perms = itertools.permutations(range(k))
        block = max(1, _CUT_BLOCK_ENTRIES // ((1 << k) * k))
        best, best_perm = math.inf, tuple(range(k))
        while chunk := list(itertools.islice(perms, block)):
            p = np.array(chunk)
            values = _cut_norm_exact(ww * (fr.values - gr.values[p[:, :, None], p[:, None, :]]))[0]
            i = int(np.argmin(values))
            if values[i] < best:
                best, best_perm = float(values[i]), chunk[i]
        return CutDistanceResult(best, best_perm, exhaustive=True)

    def dist_for(perm) -> float:
        perm = np.asarray(perm)
        gp = StepGraphon(gr.weights, gr.values[np.ix_(perm, perm)])
        return cut_norm_diff(fr, gp, seed=seed).value

    rng = np.random.default_rng(np.random.Philox(key=seed))
    perm = np.arange(k)
    best = cur = dist_for(perm)
    best_perm = perm.copy()
    temp = 0.1
    for step in range(2000):
        i, j = rng.integers(0, k, size=2)
        if i == j:
            continue
        cand = perm.copy()
        cand[i], cand[j] = cand[j], cand[i]
        d = dist_for(cand)
        if d < cur or rng.random() < math.exp(-(d - cur) / max(temp, 1e-9)):
            perm, cur = cand, d
            if d < best:
                best, best_perm = d, perm.copy()
        temp *= 0.997
    return CutDistanceResult(best, tuple(int(x) for x in best_perm), exhaustive=False)
