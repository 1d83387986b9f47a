"""Limiting free energy of exponential graph models and its diagnostics.

The normalizing constant of an exponential model on dense graphs has, after
n^2 scaling, a limit given by a variational problem over kernels: maximize
the model statistic minus the entropy rate. When the non-edge coefficients
are nonnegative (and in two further certified regimes) every maximizer is a
constant kernel and the problem collapses to a one-dimensional maximization.
This module solves that scalar problem exactly, locates first-order jumps of
the maximizer (phase transitions), computes the sparse/dense degeneracy
constants, iterates the fixed-point equation that every maximizing kernel
satisfies, and produces the extremal multipartite limits reached when a
motif coefficient is driven to minus infinity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import graphs
from .errors import ConvergenceError, DomainError, FormatError, OverflowGuardError
from .graphons import (
    StepGraphon,
    delta_h,
    edge_entropy,
    hom_density_graphon,
    rate_entropy,
)
from .graphs import (DELTA_VERTEX_GUARD, DENSITY_VERTEX_GUARD, Graph, Motif, _Contraction,
                     _data_lines, _fields, _integer, _rng_from_seed, hom_density_graph)

# unused here; the benchmark's traced run (perfbench/tracing.py) wraps
# variational.hom_density_graph_fast, so the name stays importable from this module
# until ROADMAP item 1, the benchmark change, deletes it
from .graphs import hom_density_graph as hom_density_graph_fast  # noqa: F401

GRID_POINTS = 10_000
MULTIPLICITY_TOL = 1e-7
JUMP_THRESHOLD = 0.1
JUMP_LOCATION_TOL = 1e-6
FIXED_POINT_TOL = 1e-9


class ModelSpec:
    """An ordered list of (motif, coefficient) terms defining the statistic.

    The statistic of a kernel h is sum_i beta_i t(H_i, h); for a graph G the
    same formula applies with graph homomorphism densities, so the edge term
    contributes 2 beta_1 E/n^2 and a triangle term 6 beta_2 T/n^3. Every
    motif contains at least one edge and every coefficient must be finite.
    By convention term 0 is usually the single edge (a zero coefficient is
    fine). A model is stored as the tuples motifs, betas and edges (edge counts).
    """

    __slots__ = ("motifs", "betas", "edges")

    def __init__(self, terms):
        terms = tuple((m, float(b)) for m, b in terms)
        if not terms:
            raise DomainError("model needs at least one term")
        self.motifs, self.betas = zip(*terms)
        _check_finite(self.betas)
        self.edges = tuple(m.edge_count for m in self.motifs)

    @property
    def terms(self) -> tuple[tuple[Motif, float], ...]:
        return tuple(zip(self.motifs, self.betas))

    @classmethod
    def edge_triangle(cls, beta1: float, beta2: float) -> "ModelSpec":
        return cls([(Motif.edge(), beta1), (Motif.triangle(), beta2)])

    @classmethod
    def edge_only(cls, beta1: float) -> "ModelSpec":
        return cls([(Motif.edge(), beta1)])

    # text format: one "motif beta" pair per line
    @classmethod
    def from_text(cls, text: str) -> "ModelSpec":
        want = "bad model line {} (want 'motif beta')"
        terms = [_fields(ln, (Motif.parse, float), 2, want) for ln in _data_lines(text)]
        if not terms:
            raise FormatError("model file has no terms")
        return cls(terms)

    def to_text(self) -> str:
        """The 'motif beta' lines that from_text reads back, coefficients bit
        for bit. A motif without a name is written as an edge list, which
        reads back with 1 + its largest edge vertex vertices: an isolated
        vertex above that is lost, which leaves every density unchanged."""
        lines = []
        for m, b in self.terms:
            name = m.name or f"edgelist:{','.join(f'{i}-{j}' for i, j in m.edges)}"
            lines.append(f"{name} {b:.17g}")
        return "\n".join(lines) + "\n"

    def graphon_statistic(self, h: StepGraphon) -> float:
        """sum_i beta_i t(H_i, h), refused with OverflowGuardError as delta_sum is."""
        _check_coefficient_bound(self.edges, [self.betas])
        return sum(b * hom_density_graphon(m, h) for m, b in zip(self.motifs, self.betas))

    def contraction_sum(self) -> float:
        return sum(abs(b) * e * (e - 1) for e, b in zip(self.edges, self.betas))

    def delta_sum(self, h: StepGraphon) -> np.ndarray:
        """sum_i beta_i Delta_{H_i} h as a block matrix; OverflowGuardError first where
        sum_i |beta_i| e(H_i) is beyond double range, as in the kernel solvers."""
        _check_coefficient_bound(self.edges, [self.betas])
        out = np.zeros((h.k, h.k))
        for m, b in zip(self.motifs, self.betas):
            if b != 0.0:
                out += b * delta_h(m, h)
        return out

    def __repr__(self):
        inner = ", ".join(f"({m!r}, {b})" for m, b in self.terms)
        return f"ModelSpec([{inner}])"


@dataclass
class MaximizerReport:
    """Global maximizers of a variational problem with the attained value.

    maximizers holds scalars for the one-dimensional problem or StepGraphon
    values for kernel searches; every entry attains the objective within
    multiplicity_tolerance of psi. Scalar maximizers are reported at
    representable points strictly inside (0, 1).
    """

    maximizers: list
    psi: float
    stationarity_residuals: list[float]
    multiplicity_tolerance: float = MULTIPLICITY_TOL
    certified: bool = True


@dataclass
class DegeneracyReport:
    """Sparse/nearly-complete dichotomy constants for the edge-triangle model."""

    c1: float
    c2: float
    q_estimate: float
    regime: str | None = None


@dataclass
class PhaseTransition:
    beta2: float
    u_low: float
    u_high: float


@dataclass
class PhaseScanResult:
    beta1: float
    points: list[tuple[float, float, float, int]]  # (beta2, u_star, psi, multiplicity)
    jumps: list[PhaseTransition]


# -- the scalar problem -------------------------------------------------------


def _check_finite(coefs) -> None:
    """Raise DomainError unless every coefficient in coefs is finite."""
    if not np.isfinite(coefs).all():
        raise DomainError("model coefficients must be finite")


def _check_coefficient_bound(edges, coefs) -> None:
    """Raise OverflowGuardError unless each model's sum_t |coefs[m][t]| edges[t]
    is within double range, coefs[m][t] being model m's coefficient of the
    term with edge count edges[t]. On [0, 1] that sum bounds every term and
    partial sum of the scalar derivative, and of a kernel's statistic and
    sum_i beta_i Delta_{H_i} h, so no solver that checks it overflows."""
    with np.errstate(over="ignore"):
        bound = np.abs(np.asarray(coefs, dtype=float)) @ np.asarray(edges, dtype=float)
    if not (bound < math.inf).all():
        raise OverflowGuardError("a model's sum of |beta_i| e(H_i) exceeds double range")


def scalar_objective(model: ModelSpec, u) -> float:
    """sum_i beta_i u^{e(H_i)} - edge_entropy(u) on [0, 1]."""
    u = np.asarray(u, dtype=float)
    if not ((u >= 0.0) & (u <= 1.0)).all():  # so nan fails
        raise DomainError("u must lie in [0, 1]")
    val = _objective(model.edges, model.betas, u)
    return float(val) if np.ndim(val) == 0 else val


def _objective(edges, coefs, u):
    """The scalar objective of (edges, coefs) at u in [0, 1].

    A coefficient may be an array shaped like u, one value per point.
    """
    val = -edge_entropy(u)
    for e, b in zip(edges, coefs):
        val = val + b * u**e
    return val


def _objective_derivative(edges, coefs, u):
    """d/du of the scalar objective of (edges, coefs) at u in (0, 1).

    u is a float or an array; a coefficient may be an array shaped like u,
    one value per point.
    """
    val = -0.5 * np.log(u / (1.0 - u))
    for e, b in zip(edges, coefs):
        # u^0 and u^1 are exact; a higher power of a float goes through a
        # 0-d array, where numpy gives the bits it gives inside an array
        # (Python's float power can differ in the last bit)
        power = 1.0 if e == 1 else u if e == 2 else np.asarray(u) ** (e - 1)
        val = val + b * e * power
    return val


def _second_derivative(edges, coefs, x):
    """d^2/du^2 of the scalar objective of (edges, coefs) at x in (0, 1), for x
    and coefficients as in _objective_derivative. x^(e-2) is Python's float
    power, elementwise on an array, where numpy's can differ in the last bit."""

    def power(k: int):
        return x**k if k <= 1 or np.ndim(x) == 0 else np.array([v**k for v in x.tolist()])

    d2 = sum(b * e * (e - 1) * power(e - 2) for e, b in zip(edges, coefs) if e >= 2)
    return d2 - 0.5 / (x * (1.0 - x))


def _bisect(turned, lo: float, hi: float, tol: float = 0.0) -> tuple[float, float]:
    """Halve [lo, hi] towards the point where turned(x) becomes true.

    turned is false at lo and true at hi. Stops when the width is at most
    tol or the ends are adjacent floats, where the midpoint rounds to an end.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if turned(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


# The bracket grid is scanned in chunks of this many intervals; each chunk
# shares its last point with the next, so every pair of neighbouring grid
# points lies in exactly one chunk.
_CHUNK = 64
# A stack is scanned over blocks of models holding at most this many
# (model, chunk) cells, so a block whose every chunk is open evaluates at
# most _BLOCK_CELLS * (_CHUNK + 1) grid entries (2.1 MB per float array).
_BLOCK_CELLS = 2**12
# Brackets are bisected one at a time on floats below this count and in
# lockstep on arrays at or above it. A lockstep step costs about the same
# for any count, so lockstep overtook the one-at-a-time loop at about 8
# brackets for edge-triangle models and 5 for edge + cycle:4 + complete:4
# (same machine). A one-model solve has one to three brackets; a scan or a
# surface has at least one per model.
_LOCKSTEP_MIN_BRACKETS = 8


@functools.cache
def _scalar_grid() -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The bracket grid of maximize_scalar, geometric towards both endpoints,
    and the entropy part -1/2 log(u/(1-u)) of the derivative on it, cut into
    chunks by _chunked.

    Shared by every call, so every array is read-only.
    """
    tail = np.geomspace(1e-14, 0.5, max(GRID_POINTS // 2, 64))
    grid = np.unique(np.concatenate([tail, 1.0 - tail]))
    grid.flags.writeable = False
    return grid, _chunked(-0.5 * np.log(grid / (1.0 - grid)))


@functools.lru_cache(maxsize=32)
def _grid_power(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """u^k on the bracket grid, cut into chunks by _chunked."""
    return _chunked(_scalar_grid()[0] ** k)


def _chunked(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """values on the bracket grid as rows of _CHUNK + 1 points, row c from
    grid point c * _CHUNK on, with each row's min and max; all read-only.

    The last row is padded with the last value, which adds no sign drop and
    moves no min or max.
    """
    at = np.arange(0, values.size - 1, _CHUNK)[:, None] + np.arange(_CHUNK + 1)
    rows = values[np.minimum(at, values.size - 1)]
    parts = rows, rows.min(axis=1), rows.max(axis=1)
    for part in parts:
        part.flags.writeable = False
    return parts


def maximize_scalar(model: ModelSpec) -> MaximizerReport:
    """All global maximizers of the scalar objective on [0, 1].

    The derivative runs from +inf at 0 to -inf at 1, so every interior
    maximizer sits in a sign-change bracket of the derivative on a dense
    grid (geometric near the endpoints to catch spikes); each bracket is
    bisected to machine precision, then all are polished by Newton in one
    array pass (_refine_brackets). The brackets are those of the derivative
    at every grid point, found from the points of the few grid chunks where
    a bound leaves its sign open (_sign_drops). Candidates within
    machine precision of an endpoint are reported at the nearest
    representable interior point. Maximizers within 1e-7 of the best
    objective value are all reported, which is how coexistence at a
    first-order transition becomes visible.
    """
    return _maximize_stack(model.edges, [model.betas])[0]


def _maximize_stack(edges, coefs) -> list[MaximizerReport]:
    """maximize_scalar of a stack of models that share their edge counts.

    coefs[m][t] is model m's coefficient of the term with edge count
    edges[t]; every coefficient must be finite, and so must each model's
    sum_t |coefs[m][t]| edges[t], which bounds every derivative term,
    partial sum and objective on [0, 1]. Every step works elementwise with
    maximize_scalar's one-model arithmetic, so each report is the one its
    model gets alone, whatever else is in the stack. The brackets come from
    _sign_drops, and are those of the derivative at every grid point.
    """
    coefs = np.asarray(coefs, dtype=float)
    _check_finite(coefs)
    _check_coefficient_bound(edges, coefs)
    n_models = len(coefs)
    grid = _scalar_grid()[0]
    owner, col = _sign_drops(edges, coefs)
    bracket_coefs = coefs[owner]
    xs = _refine_brackets(edges, bracket_coefs, grid[col], grid[col + 1])

    # the objective of every candidate and of both endpoint fallbacks, once
    ends = (float(np.nextafter(0.0, 1.0)), float(np.nextafter(1.0, 0.0)))
    points = np.concatenate([xs, np.repeat(ends, n_models)])
    point_coefs = np.concatenate([bracket_coefs, coefs, coefs])
    objs = _objective(edges, point_coefs.T, points).tolist()

    bounds = np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=n_models))]).tolist()
    kept = []
    for m in range(n_models):
        candidates = xs[bounds[m] : bounds[m + 1]]
        cand_objs = objs[bounds[m] : bounds[m + 1]]
        # endpoint fallbacks cover maximizers within float resolution of 0 or
        # 1; they join the candidate set only when strictly better than every
        # interior root, so endpoint flatness cannot fake a coexistence
        interior_best = max(cand_objs, default=-math.inf)
        for end, at in zip(ends, (len(xs) + m, len(xs) + n_models + m)):
            end_obj = objs[at]
            if end_obj > interior_best + 1e-15:
                candidates.append(end)
                cand_objs.append(end_obj)
        psi = max(cand_objs)
        keep = sorted(
            {x for x, o in zip(candidates, cand_objs) if psi - o <= MULTIPLICITY_TOL}
        )
        # merge duplicates produced by adjacent brackets
        merged: list[float] = []
        for x in keep:
            if not merged or x - merged[-1] > 1e-9:
                merged.append(x)
        kept.append((merged, psi))

    residual_coefs = np.repeat(coefs, [len(merged) for merged, _ in kept], axis=0)
    residual_xs = np.array([x for merged, _ in kept for x in merged])
    residuals = np.abs(_objective_derivative(edges, residual_coefs.T, residual_xs)).tolist()
    reports, at = [], 0
    for merged, psi in kept:
        reports.append(MaximizerReport(merged, psi, residuals[at : at + len(merged)]))
        at += len(merged)
    return reports


def _sign_drops(edges, coefs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, col) of every sign drop of the grid derivative, d > 0 at grid
    point col and d <= 0 at col + 1, of each model of the stack coefs
    (checked by _maximize_stack), ordered by owner, then col.

    d is _objective_derivative's sum of floats on the grid: the slope, plus
    each term's float product of b * e and u^(e-1), added in term order. The
    same sum run on each part's min, and on each part's max, over a chunk
    (_chunked) bounds every d in that chunk, with no margin: each float
    product and sum is monotone in its operands. A chunk can hold a drop only
    if its upper bound is above 0 and its lower bound at or below it; only
    those chunks are evaluated, with d's own arithmetic, point by point. So
    the drops are exactly those of d on the whole grid, in the same order,
    from a few percent of its points.
    """
    slope, slope_lo, slope_hi = _scalar_grid()[1]
    powers = [_grid_power(e - 1) for e in edges]
    rows = max(1, _BLOCK_CELLS // len(slope))
    owners, cols = [], []
    for start in range(0, len(coefs), rows):
        scaled = [b[:, None] * e for e, b in zip(edges, coefs[start : start + rows].T)]
        lo, hi = slope_lo, slope_hi
        for c, (_, p_lo, p_hi) in zip(scaled, powers):
            ends = c * p_lo, c * p_hi
            lo = lo + np.minimum(*ends)
            hi = hi + np.maximum(*ends)
        cell, chunk = np.nonzero((hi > 0.0) & (lo <= 0.0))
        d = slope[chunk]
        for c, (power, _, _) in zip(scaled, powers):
            d += np.multiply(c[cell], power[chunk])
        r, k = np.nonzero((d[:, :-1] > 0.0) & (d[:, 1:] <= 0.0))
        owners.append(cell[r] + start)
        cols.append(chunk[r] * _CHUNK + k)
    return np.concatenate(owners), np.concatenate(cols)


def _refine_brackets(edges, coefs, lo: np.ndarray, hi: np.ndarray) -> list[float]:
    """Bisect each sign-drop bracket [lo[k], hi[k]] of the derivative with
    coefficients coefs[k] until its ends are adjacent floats, then polish
    its midpoint with up to four Newton steps.

    Below _LOCKSTEP_MIN_BRACKETS brackets each one is bisected alone on
    floats. At or above it all are bisected in lockstep on arrays, one
    derivative call per step serving every bracket; each bracket still
    visits the points it would visit alone, and stops where it would stop
    alone. One array pass polishes every bracket, each keeping its point
    where f'' is 0 or a step leaves the bracket by 1e-12, and stopping once
    a clamped step lands on its own start: the bits of one float loop each.
    """
    if len(lo) < _LOCKSTEP_MIN_BRACKETS:
        ends = [
            _bisect(lambda u: float(_objective_derivative(edges, row, u)) <= 0.0, a, b)
            for a, b, row in zip(lo.tolist(), hi.tolist(), coefs.tolist())
        ]
        lo, hi = np.reshape(ends, (-1, 2)).T
    else:
        while True:
            mid = 0.5 * (lo + hi)
            if not ((mid != lo) & (mid != hi)).any():
                break
            # a midpoint that rounds to an end lies on that end's side, so a
            # bracket that has stopped moving stays as it is
            turned = _objective_derivative(edges, coefs.T, mid) <= 0.0
            lo, hi = np.where(turned, lo, mid), np.where(turned, mid, hi)
    x = 0.5 * (lo + hi)
    live, low, high = np.ones(len(x), dtype=bool), lo - 1e-12, hi + 1e-12
    # an f'' of 0 makes the step +-inf, or nan where f' is 0 too, and an f''
    # of inf or nan a nan step: the bracket test drops each, unwarned
    with np.errstate(all="ignore"):
        for _ in range(4):
            d2 = _second_derivative(edges, coefs.T, x)
            step = x - _objective_derivative(edges, coefs.T, x) / d2
            live &= (low <= step) & (step <= high)
            step = np.minimum(np.maximum(step, 1e-300), 1.0 - 1e-16)
            live &= step != x
            if not live.any():
                break
            x = np.where(live, step, x)
    return x.tolist()


def psi_limit_scalar(model: ModelSpec) -> float:
    """Value of the scalar maximization; equals the limiting free energy in
    the certified regimes (see applicability_check)."""
    return maximize_scalar(model).psi


def applicability_check(model: ModelSpec) -> str:
    """Which hypothesis, if any, certifies the scalar reduction.

    Returns "nonneg_valid" when every non-edge coefficient is nonnegative,
    "nonpos_star_valid" when every non-edge motif is a star with nonpositive
    coefficient, "contraction_valid" when the coefficients are small enough
    that the fixed-point map is a contraction
    (sum |beta_i| e(H_i)(e(H_i)-1) < 2), else "unknown".
    """
    non_edge = [(m, b) for m, b in model.terms if m.edge_count >= 2]
    if all(b >= 0.0 for _, b in non_edge):
        return "nonneg_valid"
    if all(graphs.classify_motif(m)[0] == "star" and b <= 0.0 for m, b in non_edge):
        return "nonpos_star_valid"
    if model.contraction_sum() < 2.0:
        return "contraction_valid"
    return "unknown"


# -- degeneracy and phase structure -------------------------------------------

# the edge-triangle critical point: its two spinodals merge at u = 2/3, beta2 = 9/16
_CRITICAL_BETA1 = 0.5 * math.log(2.0) - 0.75


def degeneracy_constants(beta1: float, beta2: float | None = None) -> DegeneracyReport:
    """Degeneracy constants and the transition location for edge-triangle models.

    For beta1 < 0 with c1 = e^{beta1}/(1+e^{beta1}) below c2 = 1 + 1/(2 beta1),
    the global scalar maximizer never lies in (c1, c2); as beta2 grows it
    jumps from below c1 to above c2 at a threshold q, located here by
    bisection to 1e-6 on "the top maximizer exceeds c2". The top scalar
    maximizer lies on the high branch once that branch comes within
    MULTIPLICITY_TOL of the low one, which is from the tie t of the two
    branches at that offset (_edge_triangle_tie); so each test is answered
    as beta2 >= t, with no scalar solve. (Where the high maximizer lies
    beyond 1 - 2^-53, maximize_scalar admits it only when it wins by 1e-15,
    so the exact comparison can answer one 2^-20 cell lower, as at beta1 =
    -10.) If beta2 is supplied the report classifies
    it as sparse (beta2 < q - 0.01), dense (beta2 > q + 0.01), or
    near-transition.

    beta1 ranges over about (-1.1e12, -0.739): above about -0.739, c1 >= c2
    and DomainError is raised; q is about -beta1 for strong beta1, and the
    doubling loop brackets it only up to beta2 = 2^40 (1.1e12), so beyond
    that ConvergenceError is raised (beta1 = -1e12 gives q =
    1.0000000000000002e12, and beta1 = -1e13 raises).
    """
    _check_finite(beta1)
    if beta1 >= 0.0:
        raise DomainError("degeneracy constants require beta1 < 0")
    c1 = math.exp(beta1) / (1.0 + math.exp(beta1))
    c2 = 1.0 + 1.0 / (2.0 * beta1)
    if c1 >= c2:
        raise DomainError(
            f"beta1 not negative enough: c1 = {c1:.6g} >= c2 = {c2:.6g}"
        )

    tie = _edge_triangle_tie(beta1, MULTIPLICITY_TOL, 2.0**40)
    t = math.inf if tie is None else tie[0]
    hi = 1.0
    while hi < t:
        hi *= 2.0
        if hi > 2.0**40:
            raise ConvergenceError("failed to bracket the degeneracy threshold")
    lo, hi = _bisect(lambda b2: b2 >= t, 0.0, hi, JUMP_LOCATION_TOL)
    q = 0.5 * (lo + hi)
    regime = None
    if beta2 is not None:
        _check_finite(beta2)
        if beta2 < q - 0.01:
            regime = "sparse"
        elif beta2 > q + 0.01:
            regime = "dense"
        else:
            regime = "near-transition"
    return DegeneracyReport(c1, c2, q, regime)


def phase_scan(
    beta1: float, beta2_lo: float, beta2_hi: float, steps: int
) -> PhaseScanResult:
    """Global maximizer along a sweep in the triangle coefficient.

    The grid points are solved as one stack. The first-order jump is the
    beta2 where the two local-maximizer branches tie exactly
    (_edge_triangle_tie); it is reported, with the two branch maximizers
    there, when it lies in the scanned range and they differ by more than
    0.1. So the jump row does not depend on the grid, and near the
    critical point, where a steep branch moves far without a jump, no jump
    is reported. Ends that are not finite, or whose difference overflows,
    give grid points that are not finite, which the stack refuses.
    """
    steps = _integer(steps, "steps", 2, "phase_scan")
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.linspace(beta2_lo, beta2_hi, steps)
    points = []
    for b2, rep in zip(grid.tolist(), _edge_triangle_stack(np.full(steps, beta1), grid)):
        points.append((b2, max(rep.maximizers), rep.psi, len(rep.maximizers)))
    jumps = []
    lo, hi = sorted((beta2_lo, beta2_hi))
    tie = _edge_triangle_tie(beta1, 0.0, hi)
    if tie is not None and tie[0] >= lo and tie[2] - tie[1] > JUMP_THRESHOLD:
        jumps.append(PhaseTransition(*tie))
    return PhaseScanResult(beta1, points, jumps)


def _edge_triangle_stack(beta1s, beta2s) -> list[MaximizerReport]:
    """maximize_scalar of every edge-triangle model (beta1s[k], beta2s[k]),
    solved as one stack."""
    return _maximize_stack((1, 3), np.column_stack([beta1s, beta2s]))


def _edge_triangle_tie(beta1: float, offset: float, top: float):
    """(beta2, x_low, x_high) where the two local-maximizer branches of the
    edge-triangle objective f tie, f(x_high) - f(x_low) + offset = 0, with
    both branch maximizers there; None when beta1 is at or above the
    critical point, or the tie lies above top.

    f'(u) = 3u^2 (beta2 - B(u)) with B(u) = (1/2 logit u - beta1)/(3u^2), so
    the stationary points at beta2 are the solutions of B(u) = beta2, and
    local maxima where B increases, which is where
    h(u) = 1/2 logit u - 1/(4(1-u)) is below beta1. h rises up to u = 2/3
    and falls after it, with peak value the critical beta1; below it h
    crosses beta1 at two spinodals s1 < 2/3 < s2, each bisected on its
    monotone half. The low branch lives on (0, s1] for beta2 <= B(s1), the
    high branch on [s2, 1) for beta2 >= B(s2); on its bracket f' falls
    through zero once, and the branch maximizer is bisected there, or is
    the bracket's float end when the root lies beyond it, as in
    maximize_scalar. By the envelope theorem the gap g rises in beta2 with
    slope x_high^3 - x_low^3 > 0; its root is found by Newton steps in
    beta2, kept inside [B(s2), B(s1)] and replaced by bisection where a step
    leaves the bracket. Where g keeps one sign there, the result is the end
    at which its sign test turns: B(s2) when the high branch leads from its
    start, next to B(s1) when it trails until the low branch ends. Every
    step is plain float arithmetic.
    """
    if beta1 >= _CRITICAL_BETA1:
        return None
    tiny, below_one = 5e-324, 1.0 - 2.0**-53

    def h(u: float) -> float:
        return 0.5 * math.log(u / (1.0 - u)) - 0.25 / (1.0 - u)

    def b_of(u: float) -> float:
        # the square of a tiny spinodal underflows; its B is inf
        return (0.5 * math.log(u / (1.0 - u)) - beta1) / (3.0 * u) / u

    # each spinodal on the side of its bisection where h < beta1
    s1 = _bisect(lambda u: h(u) >= beta1, tiny, 2.0 / 3.0)[0]
    s2 = _bisect(lambda u: h(u) < beta1, 2.0 / 3.0, below_one)[1]

    def maximizer(b2: float, lo: float, hi: float) -> float:
        def turned(u: float) -> bool:
            return -0.5 * math.log(u / (1.0 - u)) + beta1 + 3.0 * b2 * (u * u) <= 0.0

        if turned(lo):
            return lo
        if not turned(hi):
            return hi
        a, b = _bisect(turned, lo, hi)
        return 0.5 * (a + b)

    def gap(b2: float) -> tuple[float, float, float]:
        x_low, x_high = maximizer(b2, tiny, s1), maximizer(b2, s2, below_one)
        g = _objective((1, 3), (beta1, b2), x_high) - _objective((1, 3), (beta1, b2), x_low)
        return g + offset, x_low, x_high

    lo, hi = b_of(s2), b_of(s1)
    if lo > top:
        return None
    b2 = lo
    while True:
        g, x_low, x_high = gap(b2)
        if g < 0.0:
            lo = b2
        else:
            hi = b2
        step = g / (x_high**3 - x_low**3)
        if abs(step) <= 1e-15 * b2:
            break
        nxt = b2 - step
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:
                break
        b2 = nxt
    return None if b2 > top else (b2, x_low, x_high)


# -- fixed-point equation ------------------------------------------------------


class _KernelOperator:
    """A model's kernel statistic and derivative at fixed block weights.

    Built once per kernel solve, after the scalar solver's coefficient
    bound (_check_coefficient_bound): each motif's contraction is guarded and
    bound here, the density guards of every term first when the statistic
    is asked for, then the delta guards of the terms with a nonzero
    coefficient. statistic and delta take a (k, k) value array or an
    (R, k, k) stack of them. On one array they give the bits of
    ModelSpec.graphon_statistic and ModelSpec.delta_sum, with the same
    arithmetic, so a solver's closing psi and residual come from its own
    operator; a stack slice can differ from them by the rounding bound of
    _Contraction (up to 136 ulps for star:5 at k = 5). Those two methods,
    and fixed_point_map, keep their per-term calls of hom_density_graphon
    and delta_h.
    """

    __slots__ = ("_statistic", "_delta")

    def __init__(self, model: ModelSpec, weights: np.ndarray, statistic: bool = False):
        _check_coefficient_bound(model.edges, [model.betas])
        terms = model.terms
        self._statistic = []
        if statistic:
            self._statistic = [(b, _Contraction(m, weights, DENSITY_VERTEX_GUARD)) for m, b in terms]
        self._delta = [(b, _Contraction(m, weights, DELTA_VERTEX_GUARD)) for m, b in terms if b != 0.0]

    def statistic(self, values: np.ndarray):
        """sum_i beta_i t(H_i, .) of the kernel, or of each kernel in a stack."""
        return sum(b * c.density(values) for b, c in self._statistic)

    def delta(self, values: np.ndarray) -> np.ndarray:
        """sum_i beta_i Delta_{H_i} of the kernel, or of each kernel in a stack."""
        out = np.zeros(values.shape)
        for b, c in self._delta:
            out += b * c.delta(values)
        return out


def _logistic(d: np.ndarray) -> np.ndarray:
    """exp(2 D)/(1 + exp(2 D)) elementwise. e^{-2D} overflows to inf where the
    logistic is 0, which it then reads exactly, so callers run it under
    np.errstate(over="ignore")."""
    return 1.0 / (1.0 + np.exp(-2.0 * d))


def _check_kernels(values: np.ndarray) -> None:
    """The check StepGraphon makes of a kernel's values, for one array or a
    stack: exactly symmetric and within [0, 1], so nan fails. Every iterate
    of the kernel solvers passes it, so they need not symmetrize or clip."""
    if not ((values >= 0.0) & (values <= 1.0) & (values == values.swapaxes(-1, -2))).all():
        raise DomainError("kernel values must be symmetric and lie in [0, 1]")


def fixed_point_map(model: ModelSpec, h: StepGraphon) -> StepGraphon:
    """One application of the logistic fixed-point map that maximizers satisfy:
    h <- exp(2 D)/(1 + exp(2 D)) blockwise, D = sum_i beta_i Delta_{H_i} h."""
    d = model.delta_sum(h)
    with np.errstate(over="ignore"):
        return StepGraphon(h.weights, _logistic(d))


def _fixed_point_residual(op: _KernelOperator, values: np.ndarray) -> float:
    """The sup norm of h - Phi(h) at a kernel's values, from the model's bound
    operator: the bits of fixed_point_map's."""
    with np.errstate(over="ignore"):  # for _logistic
        return float(np.max(np.abs(values - _logistic(op.delta(values)))))


def euler_lagrange_solve(
    model: ModelSpec,
    init: StepGraphon,
    damping: float = 0.5,
    max_iter: int = 20_000,
) -> tuple[StepGraphon, float]:
    """Damped fixed-point iteration h <- (1-a) h + a Phi(h).

    Stops once a step changes no value by FIXED_POINT_TOL or more, and
    returns (solution, residual) where residual is the sup norm of
    h - Phi(h). Damping preserves fixed points; outside the contraction
    regime the iteration need not converge, in which case a
    ConvergenceError carrying the last iterate is raised.

    The model's contractions are guarded and bound once, at the init's
    block weights (the edge term's derivative, which reads no kernel value,
    is evaluated once), and the loop runs on the value arrays under one
    np.errstate, checking each iterate as StepGraphon would
    (_check_kernels); a StepGraphon is built only for the solution or the
    last iterate. Every value keeps the bits of one fixed_point_map call per
    step, and the residual, taken from the bound operator, those of
    fixed_point_map at the returned kernel.
    """
    if not 0.0 < damping <= 1.0:
        raise DomainError("damping must lie in (0, 1]")
    max_iter = _integer(max_iter, "max_iter", 0, "euler_lagrange_solve")
    op = _KernelOperator(model, init.weights)
    keep = 1.0 - damping
    values = init.values
    with np.errstate(over="ignore"):  # for _logistic
        for _ in range(max_iter):
            new_values = keep * values + damping * _logistic(op.delta(values))
            _check_kernels(new_values)
            change = abs(new_values - values).max()
            values = new_values
            if change < FIXED_POINT_TOL:
                return StepGraphon(init.weights, values), _fixed_point_residual(op, values)
    h = StepGraphon(init.weights, values)
    residual = _fixed_point_residual(op, values)
    raise ConvergenceError(
        f"fixed-point iteration did not converge in {max_iter} iterations "
        f"(residual {residual:g})",
        last_iterate=h,
        residual=residual,
    )


# -- extremal limits -----------------------------------------------------------


def extremal_limit(h: Motif, beta1: float) -> tuple[StepGraphon, float]:
    """Limit kernel and free energy as the motif coefficient goes to -infinity.

    The limit is the complete (chi(H)-1)-equipartite kernel with edge value
    p = e^{2 beta1}/(1 + e^{2 beta1}), and the free energy tends to
    ((chi-2)/(2(chi-1))) log(1/(1-p)). A bipartite motif forces the single
    empty block. Where p rounds to 1, log(1/(1-p)) is 2 beta1 + log1p(e^{-2 beta1}).
    """
    _check_finite(beta1)
    chi = h.chromatic
    # p is 1.0 above beta1 = 18.4; the cap at 100 keeps e^{2 beta1} finite
    p = math.exp(2.0 * min(beta1, 100.0)) / (1.0 + math.exp(2.0 * min(beta1, 100.0)))
    r = chi - 1
    values = p * (np.ones((r, r)) - np.eye(r))
    kernel = StepGraphon(np.full(r, 1.0 / r), values)
    log_norm = (math.log(1.0 / (1.0 - p)) if p < 1.0
                else 2.0 * beta1 + math.log1p(math.exp(-2.0 * beta1)))
    psi = (chi - 2) / (2.0 * (chi - 1)) * log_norm
    return kernel, psi


def transitivity_limit(beta: float) -> StepGraphon:
    """Strong-coupling limit kernel of the two-clump transitivity model.

    The model's statistic (3b edges - 3b two-stars + b triangles) equals a
    constant plus the negated triangle density of the complemented kernel,
    an algebraic identity the tests check on random step kernels. The limit
    kernel has two equal clumps fully wired inside and density 1/2 across,
    whatever beta > 0.
    """
    if beta <= 0.0:
        raise DomainError("the transitivity model needs beta > 0")
    _check_finite(beta)
    return StepGraphon.equal_blocks([[1.0, 0.5], [0.5, 1.0]])


def transitivity_model(beta: float) -> ModelSpec:
    return ModelSpec(
        [(Motif.edge(), 3.0 * beta), (Motif.star(2), -3.0 * beta), (Motif.triangle(), beta)]
    )


# -- graph-level log-likelihood surface ----------------------------------------


def top_statistic(beta1: float, beta2: float, g: Graph) -> float:
    """Shifted log-likelihood exponent of a graph under the edge-triangle model.

    Evaluates 2 b1 E/n^2 + 6 b2 T/n^3 minus the scalar free energy, i.e. the
    infimum over u of the statistic minus the scalar objective, computed
    with the same grid-plus-Newton maximizer.
    """
    return _top_statistics([beta1], [beta2], g)[0]


def _top_statistics(beta1s, beta2s, g: Graph) -> list[float]:
    """top_statistic at every (beta1s[k], beta2s[k]), with one stacked solve."""
    if g.n < 3:
        raise DomainError("top statistic needs at least 3 vertices")
    beta1s, beta2s = np.asarray(beta1s, dtype=float), np.asarray(beta2s, dtype=float)
    edge, triangle = (hom_density_graph(m, g) for m in (Motif.edge(), Motif.triangle()))
    stat = beta1s * edge + beta2s * triangle
    psi = [rep.psi for rep in _edge_triangle_stack(beta1s, beta2s)]
    return (stat - psi).tolist()


# -- kernel search in uncertified regimes ---------------------------------------


def graphon_search(
    model: ModelSpec,
    k: int = 4,
    restarts: int = 16,
    max_iter: int = 4000,
    seed: int = 0,
) -> MaximizerReport:
    """Projected gradient ascent over k equal blocks; an uncertified lower bound.

    Half the restarts start from soft uniform random kernels and half from
    random near-0/1 block patterns; the hard starts are what escape the
    constant stationary kernel when symmetry is broken. Every run returns
    the best kernel found, with values in [1e-6, 1 - 1e-6]; psi is the
    objective at that kernel, and the residual is the sup norm of
    h - Phi(h) there. psi is a lower bound on the kernel problem's value
    and certified is always False: nothing bounds its gap. At the default
    max_iter, the edge-triangle model (0, -50) at k = 4 missed a gap below
    0.02 to its limit (1/4) log 2, or a cut distance below 0.05 to the
    bipartite kernel, for 12 of seeds 0-29 (perfbench/NOTES.md).

    The starts are drawn first, in restart order, from the seed's stream;
    the restarts then advance together as one (restarts, k, k) stack, each
    with its own step size, objective value and line search, until it stops
    improving or has taken max_iter steps. Each takes the steps it would
    take alone, up to the rounding by which a stacked contraction can differ
    from a single one (graphs._Contraction). The best restart is the first
    with the largest objective; psi and the residual are evaluated on its
    kernel alone, by the search's bound operator, with the bits of
    ModelSpec.graphon_statistic and fixed_point_map there.
    """
    k = _integer(k, "k", 1, "graphon_search")
    restarts = _integer(restarts, "restarts", 1, "graphon_search")
    max_iter = _integer(max_iter, "max_iter", 0, "graphon_search")
    rng = _rng_from_seed(seed)
    w = np.full(k, 1.0 / k)
    op = _KernelOperator(model, w, statistic=True)  # guards before any k x k array
    cell = np.outer(w, w) * (2.0 - np.eye(k))

    def objective(v: np.ndarray) -> np.ndarray:
        _check_kernels(v)
        return op.statistic(v) - np.einsum("a,b,...ab->...", w, w, edge_entropy(v))

    lo, hi = 1e-6, 1.0 - 1e-6
    starts = []
    for restart in range(restarts):
        if restart % 2 == 0:
            a = rng.uniform(0.05, 0.95, (k, k))
            starts.append(0.5 * (a + a.T))
        else:
            pattern = rng.integers(0, 2, (k, k)).astype(float)
            pattern = np.triu(pattern) + np.triu(pattern, 1).T
            starts.append(0.05 + 0.9 * pattern)
    v = np.clip(np.stack(starts), lo, hi)
    f = objective(v)
    step = np.full(restarts, 0.5)
    ascending = np.arange(restarts)
    for _ in range(max_iter):
        if not ascending.size:
            break
        va = v[ascending]
        grad = cell * (op.delta(va) - 0.5 * np.log(va / (1.0 - va)))
        # the positions in ascending whose line search is still open
        searching = np.flatnonzero(step[ascending] > 1e-14)
        improved = np.zeros(ascending.size, dtype=bool)
        while searching.size:
            rows = ascending[searching]
            vn = np.clip(va[searching] + step[rows, None, None] * grad[searching], lo, hi)
            fn = objective(vn)
            up = fn > f[rows]
            v[rows[up]], f[rows[up]] = vn[up], fn[up]
            improved[searching[up]] = True
            step[rows[~up]] *= 0.5
            searching = searching[~up][step[rows[~up]] > 1e-14]
        ascending = ascending[improved]
        step[ascending] *= 1.5
    best = StepGraphon(w, v[int(np.argmax(f))])
    # psi and the residual of the one kernel, with the bits of the model's own calls
    psi = float(op.statistic(best.values)) - rate_entropy(best)
    return MaximizerReport([best], psi, [_fixed_point_residual(op, best.values)], certified=False)


@dataclass
class SymmetryBreakingReport:
    """Comparison of the best constant kernel against a multipartite test kernel."""

    constant_value: float
    constant_u: float
    test_value: float
    broken: bool


def symmetry_breaking_check(model: ModelSpec) -> SymmetryBreakingReport:
    """Sufficient-condition check that no constant kernel is a maximizer.

    Builds the extremal multipartite kernel of the most negative non-edge
    motif (using the model's total edge coefficient) and compares the full
    objective there against the best constant. A strictly larger test value
    certifies broken symmetry; the converse direction is not decided.
    """
    non_edge = [(m, b) for m, b in model.terms if m.edge_count >= 2 and b < 0.0]
    if not non_edge:
        raise DomainError("symmetry breaking check needs a negative non-edge term")
    motif = min(non_edge, key=lambda t: t[1])[0]
    beta1 = sum(b for m, b in model.terms if m.edge_count == 1)
    kernel, _ = extremal_limit(motif, beta1)
    test_value = model.graphon_statistic(kernel) - rate_entropy(kernel)
    rep = maximize_scalar(model)
    return SymmetryBreakingReport(
        constant_value=rep.psi,
        constant_u=max(rep.maximizers),
        test_value=test_value,
        broken=test_value > rep.psi,
    )
