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
from .errors import ConvergenceError, DomainError, FormatError
from .graphons import (
    StepGraphon,
    delta_h,
    edge_entropy,
    hom_density_graphon,
    rate_entropy,
)
from .graphs import Graph, Motif, hom_density_graph_fast

GRID_POINTS = 10_000
STATIONARITY_TOL = 1e-12
MULTIPLICITY_TOL = 1e-7
JUMP_THRESHOLD = 0.1
JUMP_LOCATION_TOL = 1e-6


class ModelSpec:
    """An ordered list of (motif, coefficient) terms defining the statistic.

    The statistic of a kernel h is sum_i beta_i t(H_i, h); for a graph G the
    same formula applies with graph homomorphism densities, so the edge term
    contributes 2 beta_1 E/n^2 and a triangle term 6 beta_2 T/n^3. Every
    motif must contain at least one edge. By convention term 0 is usually
    the single edge (a zero coefficient is fine).
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        terms = tuple((m, float(b)) for m, b in terms)
        if not terms:
            raise DomainError("model needs at least one term")
        for m, _ in terms:
            if m.edge_count < 1:
                raise DomainError("every motif must contain at least one edge")
        self.terms = terms

    @classmethod
    def edge_triangle(cls, beta1: float, beta2: float) -> "ModelSpec":
        return cls([(Motif.edge(), beta1), (Motif.triangle(), beta2)])

    @classmethod
    def edge_only(cls, beta1: float) -> "ModelSpec":
        return cls([(Motif.edge(), beta1)])

    # text format: one "motif beta" pair per line
    @classmethod
    def from_text(cls, text: str) -> "ModelSpec":
        terms = []
        for ln in text.splitlines():
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            parts = ln.split()
            if len(parts) != 2:
                raise FormatError(f"bad model line {ln!r} (want 'motif beta')")
            terms.append((Motif.parse(parts[0]), float(parts[1])))
        if not terms:
            raise FormatError("model file has no terms")
        return cls(terms)

    def to_text(self) -> str:
        lines = []
        for m, b in self.terms:
            name = m.name or f"edgelist:{','.join(f'{i}-{j}' for i, j in m.edges)}"
            lines.append(f"{name} {b:.17g}")
        return "\n".join(lines) + "\n"

    def exponents(self) -> list[tuple[int, float]]:
        """(edge count, coefficient) pairs, the data the scalar problem sees."""
        return [(m.edge_count, b) for m, b in self.terms]

    def graph_statistic(self, g: Graph) -> float:
        """sum_i beta_i t(H_i, G) using closed-form counts where available."""
        return sum(b * hom_density_graph_fast(m, g) for m, b in self.terms)

    def graphon_statistic(self, h: StepGraphon) -> float:
        return sum(b * hom_density_graphon(m, h) for m, b in self.terms)

    def contraction_sum(self) -> float:
        return sum(abs(b) * m.edge_count * (m.edge_count - 1) for m, b in self.terms)

    def delta_sum(self, h: StepGraphon) -> np.ndarray:
        """sum_i beta_i Delta_{H_i} h as a block matrix."""
        out = np.zeros((h.k, h.k))
        for m, b in self.terms:
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


def scalar_objective(model: ModelSpec, u) -> float:
    """sum_i beta_i u^{e(H_i)} - edge_entropy(u) on [0, 1]."""
    u = np.asarray(u, dtype=float)
    if np.any(u < 0.0) or np.any(u > 1.0):
        raise DomainError("u must lie in [0, 1]")
    val = -edge_entropy(u)
    for e, b in model.exponents():
        val = val + b * u**e
    return float(val) if np.ndim(val) == 0 else val

def _objective_derivative(model: ModelSpec, u):
    """d/du of the scalar objective, valid on (0, 1)."""
    u = np.asarray(u, dtype=float)
    val = -0.5 * np.log(u / (1.0 - u))
    for e, b in model.exponents():
        val = val + b * e * u ** (e - 1)
    return val


@functools.lru_cache(maxsize=8)
def _scalar_grid(grid_points: int) -> np.ndarray:
    """The bracket grid of maximize_scalar: geometric towards both endpoints.

    Shared by every call (and by threads), so it is read-only.
    """
    tail = np.geomspace(1e-14, 0.5, max(grid_points // 2, 64))
    grid = np.unique(np.concatenate([tail, 1.0 - tail]))
    grid.flags.writeable = False
    return grid


def maximize_scalar(model: ModelSpec, grid_points: int = GRID_POINTS) -> MaximizerReport:
    """All global maximizers of the scalar objective on [0, 1].

    The derivative runs from +inf at 0 to -inf at 1, so every interior
    maximizer sits in a sign-change bracket of the derivative on a dense
    grid (geometric near the endpoints to catch spikes); each bracket is
    bisected to machine precision and polished by Newton. Candidates within
    machine precision of an endpoint are reported at the nearest
    representable interior point. Maximizers within 1e-7 of the best
    objective value are all reported, which is how coexistence at a
    first-order transition becomes visible.
    """
    grid = _scalar_grid(grid_points)
    dvals = _objective_derivative(model, grid)

    def derivative(u: float) -> float:
        return float(_objective_derivative(model, np.asarray(u)))

    candidates: list[float] = []
    sign_drop = np.nonzero((dvals[:-1] > 0.0) & (dvals[1:] <= 0.0))[0]
    for i in sign_drop:
        a, b = float(grid[i]), float(grid[i + 1])
        for _ in range(80):
            mid = 0.5 * (a + b)
            # a step that leaves the bracket as it was repeats forever
            if derivative(mid) > 0.0:
                if mid == a:
                    break
                a = mid
            else:
                if mid == b:
                    break
                b = mid
        x = 0.5 * (a + b)
        # Newton polish; fall back to the bisection point if it strays
        for _ in range(4):
            d1 = derivative(x)
            d2 = sum(
                b_ * e * (e - 1) * x ** (e - 2) for e, b_ in model.exponents() if e >= 2
            ) - 0.5 / (x * (1.0 - x))
            if d2 == 0.0:
                break
            step = d1 / d2
            xn = x - step
            if not (a - 1e-12 <= xn <= b + 1e-12):
                break
            x = min(max(xn, 1e-300), 1.0 - 1e-16)
        candidates.append(x)
    # endpoint fallbacks cover maximizers within float resolution of 0 or 1;
    # they join the candidate set only when strictly better than every
    # interior root, so endpoint flatness cannot fake a coexistence
    interior_best = max(
        (scalar_objective(model, x) for x in candidates), default=-math.inf
    )
    for end in (float(np.nextafter(0.0, 1.0)), float(np.nextafter(1.0, 0.0))):
        if scalar_objective(model, end) > interior_best + 1e-15:
            candidates.append(end)

    objs = [scalar_objective(model, x) for x in candidates]
    psi = max(objs)
    keep = sorted(
        {x for x, o in zip(candidates, objs) if psi - o <= MULTIPLICITY_TOL}
    )
    # merge duplicates produced by adjacent brackets
    merged: list[float] = []
    for x in keep:
        if not merged or x - merged[-1] > 1e-9:
            merged.append(x)
    residuals = [abs(derivative(x)) for x in merged]
    return MaximizerReport(merged, psi, residuals)


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


def degeneracy_constants(beta1: float, beta2: float | None = None) -> DegeneracyReport:
    """Degeneracy constants and the transition location for edge-triangle models.

    For beta1 < 0 with c1 = e^{beta1}/(1+e^{beta1}) below c2 = 1 + 1/(2 beta1),
    the global scalar maximizer never lies in (c1, c2); as beta2 grows it
    jumps from below c1 to above c2 at a threshold q, located here by
    bisection to 1e-6. If beta2 is supplied the report classifies it as
    sparse (beta2 < q - 0.01), dense (beta2 > q + 0.01), or near-transition.
    """
    if beta1 >= 0.0:
        raise DomainError("degeneracy constants require beta1 < 0")
    c1 = math.exp(beta1) / (1.0 + math.exp(beta1))
    c2 = 1.0 + 1.0 / (2.0 * beta1)
    if c1 >= c2:
        raise DomainError(
            f"beta1 not negative enough: c1 = {c1:.6g} >= c2 = {c2:.6g}"
        )

    def top_maximizer(b2: float) -> float:
        return max(maximize_scalar(ModelSpec.edge_triangle(beta1, b2)).maximizers)

    lo, hi = 0.0, 1.0
    while top_maximizer(hi) <= c2:
        hi *= 2.0
        if hi > 2.0**40:
            raise ConvergenceError("failed to bracket the degeneracy threshold")
    while hi - lo > JUMP_LOCATION_TOL:
        mid = 0.5 * (lo + hi)
        if top_maximizer(mid) > c2:
            hi = mid
        else:
            lo = mid
    q = 0.5 * (lo + hi)
    regime = None
    if beta2 is not None:
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

    Adjacent-point jumps larger than 0.1 are refined by bisection to a
    window of 1e-6 and then polished so the two branch values coexist
    within the maximizer multiplicity tolerance; each jump is reported with
    the two coexisting maximizers.
    """
    if steps < 2:
        raise DomainError("phase_scan needs at least 2 steps")
    grid = np.linspace(beta2_lo, beta2_hi, steps)
    points = []
    stars = []
    for b2 in grid:
        rep = maximize_scalar(ModelSpec.edge_triangle(beta1, float(b2)))
        u = max(rep.maximizers)
        stars.append(u)
        points.append((float(b2), u, rep.psi, len(rep.maximizers)))
    jumps = []
    for i in range(len(grid) - 1):
        if abs(stars[i + 1] - stars[i]) > JUMP_THRESHOLD:
            jumps.append(_refine_jump(beta1, float(grid[i]), float(grid[i + 1])))
    return PhaseScanResult(beta1, points, jumps)


def _refine_jump(beta1: float, lo: float, hi: float) -> PhaseTransition:
    def global_max(b2: float) -> float:
        return max(maximize_scalar(ModelSpec.edge_triangle(beta1, b2)).maximizers)

    u_lo_side = global_max(lo)

    def on_high_branch(b2: float) -> bool:
        return abs(global_max(b2) - u_lo_side) > JUMP_THRESHOLD

    a, b = lo, hi
    while b - a > JUMP_LOCATION_TOL:
        mid = 0.5 * (a + b)
        if on_high_branch(mid):
            b = mid
        else:
            a = mid
    # polish until the two branch objectives tie to high precision, so a
    # maximize_scalar call at the reported point sees both maximizers
    u_low, u_high = global_max(a), global_max(b)
    aa, bb = a, b
    for _ in range(60):
        mid = 0.5 * (aa + bb)
        model = ModelSpec.edge_triangle(beta1, mid)
        gap = scalar_objective(model, _local_maximizer(model, u_high)) - scalar_objective(
            model, _local_maximizer(model, u_low)
        )
        if gap > 0.0:
            bb = mid
        else:
            aa = mid
    return PhaseTransition(0.5 * (aa + bb), u_low, u_high)


def _local_maximizer(model: ModelSpec, seed: float) -> float:
    """Track the local maximizer of the scalar objective nearest a seed."""
    x = min(max(seed, 1e-12), 1.0 - 1e-12)
    for _ in range(200):
        d1 = float(_objective_derivative(model, np.asarray(x)))
        d2 = sum(b * e * (e - 1) * x ** (e - 2) for e, b in model.exponents() if e >= 2)
        d2 -= 0.5 / (x * (1.0 - x))
        if d2 >= 0.0:
            break
        step = d1 / d2
        xn = min(max(x - step, 1e-15), 1.0 - 1e-15)
        if abs(xn - x) < 1e-16:
            x = xn
            break
        x = xn
    return x


# -- fixed-point equation ------------------------------------------------------


def fixed_point_map(model: ModelSpec, h: StepGraphon) -> StepGraphon:
    """One application of the logistic fixed-point map that maximizers satisfy:
    h <- exp(2 D)/(1 + exp(2 D)) blockwise, D = sum_i beta_i Delta_{H_i} h."""
    d = model.delta_sum(h)
    values = 1.0 / (1.0 + np.exp(-2.0 * d))
    return StepGraphon(h.weights, values)


def euler_lagrange_solve(
    model: ModelSpec,
    init: StepGraphon,
    damping: float = 0.5,
    max_iter: int = 20_000,
    tol: float = 1e-9,
) -> tuple[StepGraphon, float]:
    """Damped fixed-point iteration h <- (1-a) h + a Phi(h).

    Returns (solution, residual) where residual is the sup norm of
    h - Phi(h). Damping preserves fixed points; outside the contraction
    regime the iteration need not converge, in which case a
    ConvergenceError carrying the last iterate is raised.
    """
    if not 0.0 < damping <= 1.0:
        raise DomainError("damping must lie in (0, 1]")
    h = init
    for _ in range(max_iter):
        phi = fixed_point_map(model, h)
        new_values = (1.0 - damping) * h.values + damping * phi.values
        change = float(np.max(np.abs(new_values - h.values)))
        h = StepGraphon(h.weights, new_values)
        if change < tol:
            residual = float(np.max(np.abs(h.values - fixed_point_map(model, h).values)))
            return h, residual
    residual = float(np.max(np.abs(h.values - fixed_point_map(model, h).values)))
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
    empty block.
    """
    chi = h.chromatic
    p = math.exp(2.0 * beta1) / (1.0 + math.exp(2.0 * beta1))
    r = chi - 1
    values = p * (np.ones((r, r)) - np.eye(r))
    kernel = StepGraphon(np.full(r, 1.0 / r), values)
    psi = (chi - 2) / (2.0 * (chi - 1)) * math.log(1.0 / (1.0 - p))
    return kernel, psi


def transitivity_limit(beta: float, verify_samples: int = 8, seed: int = 0) -> StepGraphon:
    """Strong-coupling limit kernel of the two-clump transitivity model.

    The model's statistic (3b edges - 3b two-stars + b triangles) rewrites
    as a constant plus the negated triangle density of the complemented
    kernel, which is checked here numerically on a few random step kernels;
    the limit kernel has two equal clumps fully wired inside and density 1/2
    across.
    """
    if beta <= 0.0:
        raise DomainError("the transitivity model needs beta > 0")
    model = transitivity_model(beta)
    rng = np.random.default_rng(np.random.Philox(key=seed))
    consts = []
    for _ in range(verify_samples):
        f = StepGraphon.random(3, rng)
        comp = StepGraphon(f.weights, 1.0 - f.values)
        s_val = -beta * hom_density_graphon(Motif.triangle(), comp)
        consts.append(model.graphon_statistic(f) - s_val)
    if max(consts) - min(consts) > 1e-10:
        raise ConvergenceError(
            "complement rewrite identity violated numerically: "
            f"spread {max(consts) - min(consts):g}"
        )
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
    if g.n < 3:
        raise DomainError("top statistic needs at least 3 vertices")
    stat = (
        2.0 * beta1 * g.edge_count() / g.n**2
        + 6.0 * beta2 * g.triangle_count() / g.n**3
    )
    return stat - psi_limit_scalar(ModelSpec.edge_triangle(beta1, beta2))


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
    constant stationary kernel when symmetry is broken. The report carries
    the best kernel found, its objective value, and the sup-norm residual of
    the fixed-point equation at it; certified is always False.
    """
    rng = np.random.default_rng(np.random.Philox(key=seed))
    w = np.full(k, 1.0 / k)
    cell = np.outer(w, w) * (2.0 - np.eye(k))

    def objective(v: np.ndarray) -> float:
        h = StepGraphon(w, v)
        return model.graphon_statistic(h) - rate_entropy(h)

    def gradient(v: np.ndarray) -> np.ndarray:
        h = StepGraphon(w, v)
        d = model.delta_sum(h)
        return cell * (d - 0.5 * np.log(v / (1.0 - v)))

    lo, hi = 1e-6, 1.0 - 1e-6
    best_val, best_v = -np.inf, None
    for restart in range(restarts):
        if restart % 2 == 0:
            a = rng.uniform(0.05, 0.95, (k, k))
            v = 0.5 * (a + a.T)
        else:
            pattern = rng.integers(0, 2, (k, k)).astype(float)
            pattern = np.triu(pattern) + np.triu(pattern, 1).T
            v = 0.05 + 0.9 * pattern
        v = np.clip(v, lo, hi)
        step, f0 = 0.5, objective(v)
        for _ in range(max_iter):
            grad = gradient(v)
            improved = False
            while step > 1e-14:
                vn = np.clip(v + step * grad, lo, hi)
                f1 = objective(vn)
                if f1 > f0:
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
            v, f0 = vn, f1
            step *= 1.5
        if f0 > best_val:
            best_val, best_v = f0, v
    best = StepGraphon(w, best_v)
    residual = float(np.max(np.abs(best.values - fixed_point_map(model, best).values)))
    return MaximizerReport([best], best_val, [residual], certified=False)


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
