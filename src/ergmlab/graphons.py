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
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FormatError
from .graphs import (DELTA_VERTEX_GUARD, DENSITY_VERTEX_GUARD, Graph, Motif, _Contraction,
                     _data_lines, _fields, _integer, _mask_bits, _rng_from_seed, _seed_key)

WEIGHT_TOL = 1e-12
SYMMETRY_TOL = 1e-9
BOUNDARY_MERGE_TOL = 1e-9
CUT_NORM_EXACT_MAX_BLOCKS = 24
CUT_DISTANCE_EXHAUSTIVE_MAX_BLOCKS = 8
# the exact cut norm expands the low sign bits into one 0/1 table of at most
# 2^12 rows and works in blocks of at most this many float entries (1 MB;
# of 2^14 to 2^20, 2^17 timed fastest for norms at 8 to 24 blocks and
# distances at 5 to 8 blocks)
_CUT_LOW_BITS = 12
_CUT_BLOCK_ENTRIES = 2**17


class StepGraphon:
    """Symmetric piecewise-constant kernel with block weights summing to 1."""

    __slots__ = ("weights", "values")

    def __init__(self, weights, values):
        w = np.asarray(weights, dtype=float)
        v = np.asarray(values, dtype=float)
        if w.ndim != 1 or len(w) == 0:
            raise DomainError("weights must be a nonempty vector")
        if not np.isfinite(w).all():
            raise DomainError("block weights must be finite")
        if np.any(w < -WEIGHT_TOL):
            raise DomainError("block weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise DomainError(f"block weights must sum to 1 (got {w.sum()!r})")
        k = len(w)
        if v.shape != (k, k):
            raise DomainError(f"values must be {k}x{k}, got {v.shape}")
        if not np.isfinite(v).all():
            raise DomainError("block values must be finite")
        asym = np.max(np.abs(v - v.T))
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
        if k < 1:
            raise DomainError("a step graphon needs at least one block")
        return cls(np.full(k, 1.0 / k), values)

    @classmethod
    def random(cls, k: int, rng, equal_weights: bool = True) -> "StepGraphon":
        if (k := _integer(k, "k")) < 1:
            raise DomainError("a step graphon needs at least one block")
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
        if (k_new := _integer(k_new, "k_new")) < 1:
            raise DomainError("a step graphon needs at least one block")
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
        lines = _data_lines(text)
        if len(lines) < 2:
            raise FormatError("graphon file needs a block count and a weights line")
        (k,) = _fields(lines[0], int, 1, "bad graphon block count {}")
        weights = _fields(lines[1], float, k, "bad graphon weights line {}")
        rows = [_fields(ln, float, k, "bad graphon row {}") for ln in lines[2:]]
        if len(rows) != k:
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
        t1 = np.where(u > 0.0, u * np.log(u), 0.0)
        t2 = np.where(u < 1.0, (1.0 - u) * np.log(1.0 - u), 0.0)
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


def hom_density_graphon(h: Motif, g: StepGraphon) -> float:
    """Exact homomorphism density of the motif in a step kernel.

    Evaluates the block sum of the product of kernel values over the edges
    of the motif's active part, weighted by block measures, via a tensor
    contraction; isolated motif vertices, which a density cannot see, are
    dropped first, so only the active vertices meet the size guards.
    """
    return float(_Contraction(h, g.weights, DENSITY_VERTEX_GUARD).density(g.values))


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
    matrix (empty product convention). Like hom_density_graphon it reads the
    motif's active part.

    Edge terms that numpy's C einsum computes alike are evaluated once per
    class (graphs._motif_subscripts): the triangle's three and the k of
    star:k are one class each, while cycle:4, cycle:5 and complete:4 keep
    one einsum per edge. Each class's array is added once per edge, in
    edge order, so the result has the bits of one einsum per edge; a kernel
    past the direct-call limit runs every edge.
    """
    return _Contraction(h, g.weights, DELTA_VERTEX_GUARD).delta(g.values)


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
    """_mask_bits(bits) in float: row i is the 0/1 expansion of i, low bit
    first (read-only)."""
    table = _mask_bits(bits).astype(float)
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

    With more than two high blocks (15 to 24 blocks at the default budget)
    a float32 scan of each matrix's rows (_cut_scan) first estimates the
    best pos and neg of every high setting within a proven margin m, and
    the float64 loop runs only the high blocks that hold a setting whose
    estimate plus m reaches the matrix's best estimate B minus m. The
    setting of the float64 maximum V has an estimate of at least V - m, and
    B <= V + m, so its block runs. A row of a block left out has a float64
    value of at most its estimate plus m, which is below B - m, and B - m is
    at most the float64 value of the row that gave B: the row could neither
    win nor tie. The blocks that run keep their shapes, so the results are
    those of the full loop, bit for bit. A zero mass runs every block, a
    random one one or two of up to 4,096. One thread, the norm of a random
    pair takes about 12 instead of 42 ms at 20 blocks and 0.2 instead of
    0.73-0.94 s at 24, at traced peaks of 1.5 and 2.9 MB (2.5 MB before).
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
        # the scan skips high blocks; with two, it costs about the one it can
        # skip (3-30% slower at 14 blocks). With more than one, p_block is 1
        marked = None
        if n_high > 2 * high_block:
            estimates, margin = _cut_scan(masses[p0], rows[0], totals[0], offsets[p0], offset_totals[p0], buf[0])
            marked = (estimates + 2.0 * margin >= estimates.max()).any(axis=0)
        for h0 in range(0, n_high, high_block):
            h1 = min(h0 + high_block, n_high)
            if marked is not None and not marked[h0:h1].any():
                continue
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


def _cut_scan(mass, rows, totals, offsets, offset_totals, work):
    """Float32 estimates of the best pos and neg of every high setting of
    one (k, k) mass matrix in _cut_norm_exact, and their margin.

    rows, totals, offsets and offset_totals are the matrix's float64 low
    rows (2^12, k), their totals, its offsets and their totals, as the
    float64 loop builds them; work is that loop's (high_block, 2^12, k) cell
    buffer, whose float32 view holds the scan's low rows and high_block
    settings at a time. Returns the (2, n_high) estimates, pos then neg, and
    the margin, both in units of 2^e M, the power of two that puts max |M|
    in [1/2, 1) (an exact scaling).

    For a low row R and the offset O of a high setting, max(R + O, 0) =
    max(R, -O) + O column by column, so with q = sum_j max(R_j, -O_j) the
    row has pos = q + sum(O) and neg = pos - sum(R + O) = q - sum(R). The
    scan rounds the scaled R (as a column-major (k, 2^12) copy), -O and
    sum(R) to float32 and takes q of every row in float32; a setting's pos
    estimate is its largest q plus its float64 offset total, its neg
    estimate its largest q - sum(R).

    Margin. Let u = 2^-24 and S the sum of the scaled |M|. Every float64
    row, offset and total is a sum, or a sum of sums, of at most k terms, so
    by Higham's gamma_n sum|x| bound it lies within a few k 2^-53 S of its
    exact value, and so do the pos and neg of the float64 loop. Rounding R
    and -O to float32 moves each max(R_j, -O_j) by at most
    u (|R_j| + |O_j|) + 2^-150, so q by u S + k 2^-150; summing k terms in
    any order costs gamma_(k-1) S, about (k - 1) u S, and adds no underflow
    term, since float addition is exact below the normal range. Rounding
    sum(R) and subtracting it cost 3u S more. So every row's float32 value
    lies within (k + 3) u S + (k + 2) 2^-150 of the exact one, and within
    m = 8 (k + 1) u S + k^2 2^-149 of its float64 value, with room to spare
    for the rounding of m itself. A setting's estimate, a maximum of such
    values, lies as close to the float64 maximum of the same rows, and the
    caller's float64 test estimate + 2m >= B cannot flip, since rounding is
    monotone and B is a float.
    """
    k, n_low = len(mass), len(rows)
    n_high, step = len(offsets), len(work)
    space = work.reshape(-1).view(np.float32)
    low_rows = space[: k * n_low].reshape(k, n_low)
    buf = space[k * n_low : (step + 1) * k * n_low].reshape(step, k, n_low)
    e = -int(np.frexp(np.abs(mass).max())[1])
    np.ldexp(rows.T, e, out=low_rows, casting="same_kind")
    cuts = np.empty((n_high, k, 1), dtype=np.float32)  # -O
    np.negative(np.ldexp(offsets, e, out=cuts[:, :, 0], casting="same_kind"), out=cuts[:, :, 0])
    low_totals = np.ldexp(totals, e).astype(np.float32)
    shifts = np.ldexp(offset_totals, e)
    ones = np.ones(k, dtype=np.float32)
    pos_best, neg_best = np.empty((2, n_high), dtype=np.float32)
    for h0 in range(0, n_high, step):
        h1 = min(h0 + step, n_high)
        q = ones @ np.maximum(low_rows, cuts[h0:h1], out=buf[: h1 - h0])  # (h, n_low)
        q.max(axis=1, out=pos_best[h0:h1])
        np.subtract(q, low_totals, out=q).max(axis=1, out=neg_best[h0:h1])
    margin = 8 * (k + 1) * 2.0**-24 * np.abs(np.ldexp(mass, e)).sum() + k * k * 2.0**-149
    return np.stack([pos_best + shifts, neg_best]), margin


def cut_norm_diff(f: StepGraphon, g: StepGraphon, seed: int = 0) -> CutNormResult:
    """Cut norm of f - g: sup over rectangles of the integrated difference.

    On the common refinement the supremum of the bilinear form over subsets
    is attained at 0/1 vertices, and for each vertex choice on one side the
    optimal other side is read off the sign pattern of the row sums. With k
    blocks the exact mode enumerates 2^k one-sided choices (k <= 24); larger
    instances fall back to seeded alternating maximization from 32 restarts,
    whose value is a certified lower bound. Above 14 blocks a float32 scan
    rules out the high-bit settings that cannot hold the maximum, within a
    proven margin, before the float64 enumeration, with the same value and
    witness (_cut_norm_exact). The seed must be an integer on every path.
    """
    seed = _seed_key(seed)
    value, s_vec, t_vec, exact = _cut_norm_refined(*common_refinement(f, g), seed)
    s_idx, t_idx = (tuple(np.flatnonzero(v).tolist()) for v in (s_vec, t_vec))
    return CutNormResult(value, s_idx, t_idx, exact)


def _cut_norm_refined(w: np.ndarray, fv: np.ndarray, gv: np.ndarray, seed: int):
    """cut_norm_diff on a common refinement (weights, f_values, g_values):
    the value, 0/1 vectors s and t of a rectangle attaining it, and exact."""
    mass = (w[:, None] * w[None, :]) * (fv - gv)
    k = len(w)
    if k <= CUT_NORM_EXACT_MAX_BLOCKS:
        values, best, positive = _cut_norm_exact(mass[None])
        s_vec = ((int(best[0]) >> np.arange(k)) & 1).astype(float)
        r = s_vec @ mass
        return max(float(values[0]), 0.0), s_vec, (r > 0.0) if positive[0] else (r < 0.0), True

    rng = _rng_from_seed(seed)
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
    return max(best_val, 0.0), best_s, best_t, False


def _equal_weights(w: np.ndarray) -> bool:
    return bool(np.max(np.abs(w - 1.0 / len(w))) <= BOUNDARY_MERGE_TOL)


def cut_distance_upper(f: StepGraphon, g: StepGraphon, seed: int = 0) -> CutDistanceResult:
    """Cut distance between equal-block kernels, minimized over permutations.

    Both kernels are refined to lcm(k_f, k_g) equal blocks. Up to 8 blocks
    the k! permutations are searched exhaustively (exact within the
    step-function class, an upper bound on the continuum distance); beyond
    that, seeded simulated annealing over permutations, each scored on one
    common refinement as cut_norm_diff scores it, reports an upper bound.
    The seed must be an integer on every path.

    The annealer scores 2,001 exact cut norms between 9 and 24 blocks, so
    its time follows the norm's. One thread, before the float32 scan of
    _cut_norm_exact a call took about 1.2 s at 14 blocks and 4.0-4.8 s at
    16, and on norms of 0.04-0.055 s at 20 blocks and 0.7-0.9 s at 24 it
    would take about 1.5 and 25-30 minutes. With the scan it takes 1.1 s at
    14 blocks (no scan there), 2.8 s at 16 and 26 s at 20, and on norms of
    about 0.2 s at 24, about 7 minutes. No guard bounds that time.
    """
    seed = _seed_key(seed)
    if not (_equal_weights(f.weights) and _equal_weights(g.weights)):
        raise DomainError("cut_distance_upper requires equal-weight block partitions")
    k = math.lcm(f.k, g.k)
    if k > 64:
        raise DomainError(f"common equal refinement needs {k} > 64 blocks")
    fr, gr = f.refine_equal(k), g.refine_equal(k)

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

    w, fv, gv = common_refinement(fr, gr)

    def dist_for(perm) -> float:
        return _cut_norm_refined(w, fv, gv[np.ix_(perm, perm)], seed)[0]

    rng = _rng_from_seed(seed)
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
