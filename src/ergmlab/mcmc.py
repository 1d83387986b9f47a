"""Samplers, exact spectral theory, and normalizing-constant estimators.

The single-parameter independent-edge model is exactly solvable: its
Metropolis chain is a product chain whose 2^m eigenpairs, chi-square
distance to stationarity, and estimator variances are all closed forms.
Those closed forms live here next to the general-purpose Glauber sampler
and the three standard estimators of normalizing constants, so every
estimator can be tested against exact enumeration at small n and against
the spectral formulas at every n.

Scaling convention: a ModelSpec statistic T is a sum of homomorphism
densities, and the sampled law puts mass proportional to exp(n^2 T(G)) on
each graph. The single-parameter model exp(beta E(G)) corresponds to an
edge-only ModelSpec with coefficient beta/2.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from math import lgamma

import numpy as np

from .errors import (
    DomainError,
    EstimatorCollapseError,
    InstanceTooLargeError,
    OverflowGuardError,
)
from .graphs import Graph, Motif, _term

# unused here; the benchmark's traced run (perfbench/tracing.py) wraps
# mcmc.hom_density_graph_fast, so the name stays importable from this module
from .graphs import hom_density_graph_fast  # noqa: F401
from .variational import ModelSpec, maximize_scalar

ENUMERATION_MAX_VERTICES = 6
DENSE_MATRIX_MAX_PAIRS = 12
CHI_SQUARE_MAX_VERTICES = 10_000
BURN_IN_FRACTION = 0.10
# estimate_importance draws its graphs in row blocks of at most this many
# uniforms (4 MB of doubles), whatever the batch
_DRAW_BLOCK_UNIFORMS = 2**19
# chi_square_distance sums its weights in chunks this long, which stay in cache
_CHI_SQUARE_CHUNK = 2**16


def _rng_from_seed(seed: int) -> np.random.Generator:
    """Counter-based generator so chains replicate exactly from a 64-bit seed."""
    return np.random.default_rng(np.random.Philox(key=int(seed) & (2**64 - 1)))


# -- chain configuration and state ---------------------------------------------


@dataclass
class ChainConfig:
    """Where and how a single chain runs.

    start is "empty", "complete", or a Graph; steps may be None for
    estimator use, where the run length is derived from the sample request
    (10% burn-in plus thinning times the sample count). er_beta selects the
    single-parameter add/delete Metropolis chain for trace runs.
    """

    n: int
    steps: int | None = None
    seed: int = 0
    start: object = "empty"
    er_beta: float | None = None
    model: ModelSpec | None = None

    def start_graph(self) -> Graph:
        if isinstance(self.start, Graph):
            if self.start.n != self.n:
                raise DomainError("start graph size does not match chain n")
            return self.start
        if self.start == "empty":
            return Graph.empty(self.n)
        if self.start == "complete":
            return Graph.complete(self.n)
        raise DomainError(f"unknown start {self.start!r}")


class _ChainState:
    """Mutable adjacency rows with incrementally tracked edge and triangle counts.

    Reads like a Graph to the motif terms: n, rows and triangle_count().
    """

    __slots__ = ("n", "rows", "edges", "triangles")

    def __init__(self, g: Graph):
        self.n = g.n
        self.rows = list(g.rows)
        self.edges = g.edge_count()
        self.triangles = g.triangle_count()

    def triangle_count(self) -> int:
        return self.triangles

    def toggle(self, i: int, j: int):
        rows = self.rows
        sign = -1 if rows[i] >> j & 1 else 1
        rows[i] ^= 1 << j
        rows[j] ^= 1 << i
        self.edges += sign
        self.triangles += sign * (rows[i] & rows[j]).bit_count()

    def graph(self) -> Graph:
        return Graph(self.n, self.rows)


def _model_terms(model: ModelSpec):
    """(coefficient, term object) for each model term with a nonzero coefficient."""
    return [(b, _term(m)) for m, b in model.terms if b != 0.0]


# -- the chain driver ---------------------------------------------------------------


def _drive(state: _ChainState, terms, er_beta, seed: int, total: int, burn: int, every: int, record):
    """Run one chain for total steps, calling record(step) every `every`
    steps after step burn, and at the last step.

    With er_beta set this is the add/delete Metropolis chain for the law
    proportional to e^{er_beta E}; otherwise it is Glauber dynamics for the
    model terms. Each step picks a uniform vertex pair and a uniform coin;
    they are drawn in 4096-step chunks, pair indices then coins, so a seed
    gives the same chain whatever is recorded.
    """
    rng = _rng_from_seed(seed)
    pairs = list(itertools.combinations(range(state.n), 2))
    m = len(pairs)
    exponents = [(b, term.exponent) for b, term in terms]
    exp = math.exp
    exp_neg_beta = math.exp(-er_beta) if er_beta is not None else 0.0
    rows = state.rows
    next_record = min(burn + every, total)
    done = 0
    while done < total:
        count = min(4096, total - done)
        pair_idx = rng.integers(0, m, size=count).tolist()
        coins = rng.random(count).tolist()
        for idx, coin in zip(pair_idx, coins):
            i, j = pairs[idx]
            if er_beta is not None:
                if not rows[i] >> j & 1 or coin < exp_neg_beta:
                    state.toggle(i, j)
            else:
                expo = 0.0
                for b, exponent in exponents:
                    expo += exponent(b, state, i, j)
                if (coin < 1.0 / (1.0 + exp(-expo))) != rows[i] >> j & 1:
                    state.toggle(i, j)
            done += 1
            if done == next_record:
                record(done)
                next_record = min(done + every, total)


@dataclass
class TraceRecord:
    step: int
    edges: int
    triangles: int
    statistic: float


def run_chain(config: ChainConfig, record_every: int = 100) -> tuple[list[TraceRecord], Graph]:
    """Run a configured chain, recording counts every record_every steps.

    Records the initial state as step 0 and then every record_every steps,
    including the final step. Returns the trace and the final graph. An
    er_beta chain is the add/delete Metropolis chain, which needs beta >= 0;
    for negative beta run it on the complement graph at -beta instead.
    """
    if config.steps is None or config.steps < 0:
        raise DomainError("run_chain needs steps >= 0")
    if record_every < 1:
        raise DomainError("record_every must be >= 1")
    if (config.er_beta is None) == (config.model is None):
        raise DomainError("set exactly one of er_beta (Metropolis) or model (Glauber)")
    state = _ChainState(config.start_graph())
    if config.er_beta is not None and config.er_beta < 0.0:
        raise DomainError(
            "er chains require beta >= 0; apply the complement transformation"
        )
    terms = _model_terms(config.model) if config.model is not None else []
    trace = []

    def record(step: int):
        if config.model is None:
            stat = config.er_beta * state.edges / state.n**2
        else:
            stat = sum((t.statistic(b, state) for b, t in terms), 0.0)
        trace.append(TraceRecord(step, state.edges, state.triangles, stat))

    record(0)
    _drive(state, terms, config.er_beta, config.seed, config.steps, 0, record_every, record)
    return trace, state.graph()


def _auto_is_er(model: ModelSpec) -> float | None:
    """If the law is a nonnegative independent-edge law, its Metropolis beta."""
    if all(m.edge_count == 1 for m, _ in model.terms):
        beta = 2.0 * sum(b for _, b in model.terms)
        if beta >= 0.0:
            return beta
    return None


def sample_motif_densities(
    law: ModelSpec,
    motifs: list[Motif],
    n_samples: int,
    chain: ChainConfig,
    thinning: int = 1,
) -> np.ndarray:
    """Draw n_samples motif-density vectors from a chain targeting the law.

    Uses the add/delete Metropolis chain when the law is a nonnegative
    independent-edge law (where it is exactly solvable) and Glauber dynamics
    otherwise. Burn-in is 10% of the total run, then one record per
    thinning steps.
    """
    if thinning < 1:
        raise DomainError("thinning must be >= 1")
    state = _ChainState(chain.start_graph())
    er_beta = _auto_is_er(law)
    span = n_samples * thinning
    burn = math.ceil(span / 9.0)  # 10% of the total run
    out = np.empty((n_samples, len(motifs)))
    terms = [_term(mm) for mm in motifs]
    scales = [chain.n**mm.vertex_count for mm in motifs]

    def record(step: int):
        out[(step - burn) // thinning - 1] = [t.count(state) / s for t, s in zip(terms, scales)]

    _drive(state, _model_terms(law), er_beta, chain.seed, burn + span, burn, thinning, record)
    return out


# -- exact spectral theory of the independent-edge chain ---------------------------


@dataclass
class SpectralComponent:
    """One eigenpair of the add/delete chain, indexed by a 0/1 vector."""

    xi: tuple[int, ...]
    eigenvalue: float
    weight: int
    beta: float

    def evaluate(self, x) -> float:
        """Eigenfunction value at the edge-indicator vector x."""
        if len(x) != len(self.xi):
            raise DomainError("edge-indicator length does not match xi")
        dot = sum(a & b for a, b in zip(self.xi, x))
        return (-1.0) ** dot * math.exp(0.5 * self.beta * (self.weight - 2 * dot))


def er_eigen(xi, beta: float, m: int) -> SpectralComponent:
    """Eigenpair of the add/delete chain for the component pattern xi.

    The chain is a product of m two-state chains; the eigenvalue depends on
    xi only through its weight: 1 - |xi| (1 + e^{-beta})/m.
    """
    xi = tuple(int(b) for b in xi)
    if len(xi) != m:
        raise DomainError(f"xi has length {len(xi)}, expected m = {m}")
    if any(b not in (0, 1) for b in xi):
        raise DomainError("xi must be a 0/1 vector")
    weight = sum(xi)
    eigenvalue = 1.0 - weight * (1.0 + math.exp(-beta)) / m
    return SpectralComponent(xi, eigenvalue, weight, beta)


def edge_indicator(g: Graph) -> tuple[int, ...]:
    """Edge-indicator vector of a graph in lexicographic pair order."""
    return tuple(
        1 if g.has_edge(i, j) else 0 for i, j in itertools.combinations(range(g.n), 2)
    )


def er_transition_matrix(beta: float, n: int) -> np.ndarray:
    """Dense transition matrix of the add/delete chain on all 2^m graphs."""
    if beta < 0.0:
        raise DomainError("er chains require beta >= 0")
    m = math.comb(n, 2)
    if m > DENSE_MATRIX_MAX_PAIRS:
        raise InstanceTooLargeError(
            f"instance too large: dense chain matrix needs m <= {DENSE_MATRIX_MAX_PAIRS}, got {m}"
        )
    size = 1 << m
    k = np.zeros((size, size))
    del_p = math.exp(-beta)
    for s in range(size):
        for t in range(m):
            if not s >> t & 1:
                k[s, s | (1 << t)] += 1.0 / m
            else:
                k[s, s & ~(1 << t)] += del_p / m
                k[s, s] += (1.0 - del_p) / m
    return k


def er_stationary(beta: float, n: int) -> np.ndarray:
    m = math.comb(n, 2)
    sizes = np.array([int(s).bit_count() for s in range(1 << m)])
    logw = beta * sizes - m * np.logaddexp(0.0, beta)
    return np.exp(logw)


def glauber_transition_matrix(model: ModelSpec, n: int) -> np.ndarray:
    """Dense transition matrix of Glauber dynamics for an arbitrary model."""
    m = math.comb(n, 2)
    if m > DENSE_MATRIX_MAX_PAIRS:
        raise InstanceTooLargeError(
            f"instance too large: dense chain matrix needs m <= {DENSE_MATRIX_MAX_PAIRS}, got {m}"
        )
    pairs = list(itertools.combinations(range(n), 2))
    terms = _model_terms(model)
    size = 1 << m
    k = np.zeros((size, size))
    for s in range(size):
        g = _graph_from_mask(n, s, pairs)
        for t, (i, j) in enumerate(pairs):
            expo = sum((term.exponent(b, g, i, j) for b, term in terms), 0.0)
            p_on = 1.0 / (1.0 + math.exp(-expo))
            k[s, s | (1 << t)] += p_on / m
            k[s, s & ~(1 << t)] += (1.0 - p_on) / m
    return k


def _graph_from_mask(n: int, mask: int, pairs) -> Graph:
    edges = [pairs[t] for t in range(len(pairs)) if mask >> t & 1]
    return Graph.from_edges(n, edges)


def model_log_weights(model: ModelSpec, n: int) -> np.ndarray:
    """log of exp(n^2 T(G)) over all graphs, in edge-mask order."""
    m = math.comb(n, 2)
    if m > math.comb(ENUMERATION_MAX_VERTICES, 2):
        raise InstanceTooLargeError(
            f"instance too large: enumeration needs m <= "
            f"{math.comb(ENUMERATION_MAX_VERTICES, 2)}, got {m}"
        )
    pairs = list(itertools.combinations(range(n), 2))
    masks = np.arange(1 << m, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(m)[None, :]) & 1).astype(np.int8)
    dens = batch_motif_densities([mm for mm, _ in model.terms], n, bits)
    betas = np.array([b for _, b in model.terms])
    return n**2 * (dens @ betas)


# -- chi-square distance and cutoff ------------------------------------------------


_LOG_FACTORIALS = np.array([lgamma(k + 1) for k in range(64)])
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_factorial(x: np.ndarray) -> np.ndarray:
    """log(x!) of integer-valued floats x >= 0, to about 1e-15 relative.

    Below 64 it reads a table of math.lgamma values; above, it sums the
    Stirling series of lgamma(x + 1) through the 1/(1680 z^7) term, whose
    first omitted term is below 1e-19 there.
    """
    small = x < _LOG_FACTORIALS.size
    if small.all():
        return _LOG_FACTORIALS[x.astype(np.intp)]
    z = x + 1.0
    r = 1.0 / z
    r2 = r * r
    tail = r * (1 / 12 - r2 * (1 / 360 - r2 * (1 / 1260 - r2 / 1680)))
    out = (z - 0.5) * np.log(z) - z + _HALF_LOG_2PI + tail
    if small.any():
        out[small] = _LOG_FACTORIALS[x[small].astype(np.intp)]
    return out


def chi_square_distance(
    start: str, beta: float, n: int, ell: float, log: bool = False
) -> float:
    """Chi-square distance to stationarity after ell steps, in closed form.

    Sums, over component weights j = 1..m, the binomially weighted squared
    eigenfunction mass e^{+-beta j} C(m, j) |1 - j(1+e^{-beta})/m|^{2 ell},
    evaluated with log-domain binomials. Raises OverflowGuardError when the
    value exceeds double range unless log=True.
    """
    if start not in ("empty", "complete"):
        raise DomainError("start must be 'empty' or 'complete'")
    if beta < 0.0:
        raise DomainError("chi_square_distance requires beta >= 0")
    if n < 2 or n > CHI_SQUARE_MAX_VERTICES:
        raise InstanceTooLargeError(
            f"instance too large: chi_square_distance supports 2 <= n <= {CHI_SQUARE_MAX_VERTICES}"
        )
    m = math.comb(n, 2)
    sign = 1.0 if start == "empty" else -1.0
    rate = 1.0 + math.exp(-beta)
    best = -math.inf
    total_log = -math.inf
    for lo in range(1, m + 1, _CHI_SQUARE_CHUNK):
        js = np.arange(lo, min(lo + _CHI_SQUARE_CHUNK, m + 1), dtype=np.float64)
        logc = lgamma(m + 1) - (_log_factorial(js) + _log_factorial(m - js))
        base = np.abs(1.0 - js * rate / m)
        with np.errstate(divide="ignore"):
            decay = np.where(base > 0.0, 2.0 * ell * np.log(base), -np.inf)
        if ell == 0:
            decay = np.zeros_like(base)
        terms = sign * beta * js + logc + decay
        chunk_max = float(np.max(terms))
        if chunk_max == -math.inf:
            continue
        best = max(best, chunk_max)
        total_log = np.logaddexp(total_log, chunk_max + math.log(np.exp(terms - chunk_max).sum()))
    if log:
        return float(total_log)
    if total_log > 700.0:
        raise OverflowGuardError(
            f"chi-square value exp({total_log:.1f}) exceeds double range; call with log=True"
        )
    return float(math.exp(total_log))


def mixing_cutoff(n: int, beta: float, c: float) -> float:
    """Step count m(log m + c)/(2(1 + e^{-beta})) around which convergence happens."""
    if not 0.0 <= beta <= 1.0:
        warnings.warn(
            f"cutoff constants are proved for 0 <= beta <= 1; got beta = {beta}",
            stacklevel=2,
        )
    m = math.comb(n, 2)
    return m * (math.log(m) + c) / (2.0 * (1.0 + math.exp(-beta)))


def er_log_partition(beta: float, n: int) -> float:
    """log of the independent-edge normalizing constant, m log(1 + e^beta)."""
    if n < 2:
        raise DomainError("er_log_partition needs n >= 2")
    return math.comb(n, 2) * float(np.logaddexp(0.0, beta))


# -- batched statistics over edge-indicator matrices -------------------------------


def batch_motif_densities(motifs: list[Motif], n: int, bits: np.ndarray) -> np.ndarray:
    """Density vectors for a batch of graphs given as edge-indicator rows.

    bits has one row per graph and one column per vertex pair in
    lexicographic order. Edges, stars, and triangles are fully vectorized;
    other motifs fall back to a per-graph loop. The triangle count gathers
    the rows in blocks of max(1, 2^20 // C(n, 3)) rows, so each of its
    temporaries holds at most about 2^20 entries (or one row) whatever the
    number of rows; the counts stay exact integers.
    """
    m = math.comb(n, 2)
    if bits.shape[1] != m:
        raise DomainError(f"bits must have {m} columns for n = {n}")
    out = np.empty((bits.shape[0], len(motifs)))
    for col, motif in enumerate(motifs):
        out[:, col] = _term(motif).batch(bits, n) / n**motif.vertex_count
    return out


# -- exact enumeration oracle -------------------------------------------------------


def enumerate_psi_n(model: ModelSpec, n: int) -> float:
    """Exact scaled log normalizing constant by summing over all 2^C(n,2) graphs."""
    if n > ENUMERATION_MAX_VERTICES:
        raise InstanceTooLargeError(
            f"instance too large: enumeration supports n <= {ENUMERATION_MAX_VERTICES}"
        )
    logw = model_log_weights(model, n)
    return float(_logsumexp(logw)) / n**2


def _logsumexp(v: np.ndarray) -> float:
    mx = float(np.max(v))
    if mx == -math.inf:
        return -math.inf
    return mx + math.log(np.exp(v - mx).sum())


# -- estimators ---------------------------------------------------------------------


@dataclass
class EstimatorResult:
    """Outcome of a normalizing-constant estimator, kept in log domain.

    For importance sampling the target is the full normalizing sum
    sum_G exp(n^2 T(G)); for the two ratio estimators it is the ratio of the
    target model's normalizing sum to the reference model's.
    """

    estimate_log: float
    n_samples: int
    estimator_kind: str
    seed: int
    variance_bound_log: float | None = None

    def to_text(self) -> str:
        lines = [
            f"estimator {self.estimator_kind}",
            f"seed {self.seed}",
            f"n_samples {self.n_samples}",
            f"estimate_log {self.estimate_log:.12g}",
        ]
        if self.variance_bound_log is not None:
            lines.append(f"variance_bound_log {self.variance_bound_log:.12g}")
        return "\n".join(lines) + "\n"


def estimate_importance(
    model: ModelSpec,
    n: int,
    n_samples: int,
    seed: int,
    proposal_p: float | None = None,
    self_normalized: bool = False,
    batch: int = 100_000,
) -> EstimatorResult:
    """Importance-sample the normalizing sum from an independent-edge proposal.

    Draws independent graphs with every edge present with probability
    proposal_p (default: the scalar-problem maximizer, which makes the
    proposal near-optimal in the certified regimes) and averages
    exp(n^2 T(G)) / Q(G). With self_normalized=True the proposal mass is
    used only up to its normalizing constant, as when Q comes from an
    unnormalized chain law.

    batch sets only how many samples share one log-sum-exp before it is
    folded into the running total. Memory does not grow with it: the graphs
    are drawn and counted in fixed blocks of at most about 2^19 uniforms
    (4 MB), which read the generator's stream in order, so the draws are
    those of one draw per batch.
    """
    if proposal_p is None:
        proposal_p = max(maximize_scalar(model).maximizers)
    if not 0.0 < proposal_p < 1.0:
        raise DomainError("proposal_p must lie in (0, 1)")
    rng = _rng_from_seed(seed)
    m = math.comb(n, 2)
    motifs = [mm for mm, _ in model.terms]
    betas = np.array([b for _, b in model.terms])
    log_p, log_q = math.log(proposal_p), math.log1p(-proposal_p)
    num_log = -math.inf
    den_log = -math.inf
    block = max(1, _DRAW_BLOCK_UNIFORMS // m)
    remaining = n_samples
    while remaining > 0:
        take = min(batch, remaining)
        stat = np.empty(take)
        e_counts = np.empty(take, dtype=np.int64)
        for lo in range(0, take, block):
            bits = (rng.random((min(block, take - lo), m)) < proposal_p).astype(np.int8)
            dens = batch_motif_densities(motifs, n, bits)
            stat[lo : lo + block] = n**2 * (dens @ betas)
            e_counts[lo : lo + block] = bits.sum(axis=1)
        if self_normalized:
            log_qbar = e_counts * (log_p - log_q)
            num_log = np.logaddexp(num_log, _logsumexp(stat - log_qbar))
            den_log = np.logaddexp(den_log, _logsumexp(-log_qbar))
        else:
            log_mass = e_counts * log_p + (m - e_counts) * log_q
            num_log = np.logaddexp(num_log, _logsumexp(stat - log_mass))
        remaining -= take
    if self_normalized:
        estimate_log = num_log - den_log + m * math.log(2.0)
    else:
        estimate_log = num_log - math.log(n_samples)
    return EstimatorResult(float(estimate_log), n_samples, "importance", seed)


def estimate_mcmle(
    model: ModelSpec,
    model0: ModelSpec,
    n_samples: int,
    chain: ChainConfig,
    thinning: int = 1,
) -> EstimatorResult:
    """Reweighting estimate of the ratio of normalizing sums.

    Samples from a chain targeting the reference model0 and averages
    exp(n^2 (T - T0)(G)). Unbiased for the ratio (target over reference),
    but its relative standard deviation grows exponentially in n^2 for any
    fixed parameter gap; for independent-edge pairs the closed-form bound is
    attached in log domain.
    """
    _require_same_motifs(model, model0)
    motifs = [mm for mm, _ in model.terms]
    dbeta = np.array([b for _, b in model.terms]) - np.array(
        [b for _, b in model0.terms]
    )
    dens = sample_motif_densities(model0, motifs, n_samples, chain, thinning=thinning)
    logw = chain.n**2 * (dens @ dbeta)
    estimate_log = _logsumexp(logw) - math.log(n_samples)
    bound = None
    target_beta = _auto_is_er(model)
    chain_beta = _auto_is_er(model0)
    if target_beta is not None and chain_beta is not None:
        consts = er_mcmle_variance_constants(target_beta, chain_beta, chain.n)
        bound = consts.log_variance_ratio + 2.0 * consts.log_mean
    return EstimatorResult(
        float(estimate_log), n_samples, "mcmle", chain.seed, variance_bound_log=bound
    )


def estimate_acceptance_ratio(
    model: ModelSpec,
    model0: ModelSpec,
    alpha_kind: str,
    n_samples_ref: int,
    n_samples_target: int,
    chain: ChainConfig,
    thinning: int = 1,
) -> EstimatorResult:
    """Two-chain ratio estimate of the normalizing-sum ratio.

    One chain samples the reference law and weights by exp(n^2 T) alpha(G);
    the other samples the target law and weights by exp(n^2 T0) alpha(G).
    The ratio is consistent for any positive alpha; the two standard choices
    are "constant" and "geometric-mean", the inverse geometric mean of the
    two unnormalized densities (alpha = exp(-n^2 (T + T0)/2)), which evens
    out the two weight spreads and lowers the variance.
    """
    if alpha_kind not in ("constant", "geometric-mean"):
        raise DomainError("alpha_kind must be 'constant' or 'geometric-mean'")
    _require_same_motifs(model, model0)
    motifs = [mm for mm, _ in model.terms]
    betas = np.array([b for _, b in model.terms])
    betas0 = np.array([b for _, b in model0.terms])
    child_seeds = np.random.SeedSequence(chain.seed).generate_state(2, dtype=np.uint64)
    cfg_ref = ChainConfig(chain.n, seed=int(child_seeds[0]), start=chain.start)
    cfg_tgt = ChainConfig(chain.n, seed=int(child_seeds[1]), start=chain.start)
    dens_ref = sample_motif_densities(model0, motifs, n_samples_ref, cfg_ref, thinning)
    dens_tgt = sample_motif_densities(model, motifs, n_samples_target, cfg_tgt, thinning)
    n2 = chain.n**2

    def log_alpha(dens):
        if alpha_kind == "constant":
            return np.zeros(len(dens))
        return -0.5 * n2 * (dens @ (betas + betas0))

    log_num = _logsumexp(n2 * (dens_ref @ betas) + log_alpha(dens_ref)) - math.log(
        n_samples_ref
    )
    log_den = _logsumexp(n2 * (dens_tgt @ betas0) + log_alpha(dens_tgt)) - math.log(
        n_samples_target
    )
    if not np.isfinite(log_den):
        raise EstimatorCollapseError(
            "denominator sample mean collapsed to zero; the two laws are too far apart"
        )
    return EstimatorResult(
        float(log_num - log_den),
        n_samples_ref + n_samples_target,
        "acceptance_ratio",
        chain.seed,
    )


def _require_same_motifs(model: ModelSpec, model0: ModelSpec):
    if [m for m, _ in model.terms] != [m for m, _ in model0.terms]:
        raise DomainError("ratio estimators need models sharing one motif list")


# -- closed-form coefficients and variances -----------------------------------------


def fourier_coeff_exp_edges(
    a: float, beta: float, j: int, m: int, normalized: bool = False
) -> float:
    """Expansion coefficient of e^{a E(G)} against a weight-j eigenfunction.

    The unnormalized product form is (1 - e^a)^j (1 + e^{a+beta})^{m-j},
    which depends on the component pattern only through its weight j. The
    normalized=True form divides by the partition sum and restores the
    e^{beta j / 2} component factor, giving the true inner product against
    the stationary law; the two are verified against dense summation in the
    test suite.
    """
    if not 0 <= j <= m:
        raise DomainError("need 0 <= j <= m")
    raw = (1.0 - math.exp(a)) ** j * (1.0 + math.exp(a + beta)) ** (m - j)
    if not normalized:
        return raw
    return raw * math.exp(0.5 * beta * j) / (1.0 + math.exp(beta)) ** m


@dataclass
class VarianceResult:
    exact: float
    asymptotic: float
    bound: float


def variance_mcmc_mean(coefficients, eigenvalues, n_samples: int) -> VarianceResult:
    """Variance of a stationary chain average from spectral data.

    coefficients are the normalized expansion coefficients of the averaged
    function on the nonconstant eigenfunctions, aligned with their
    eigenvalues. The finite-sample weight per component is
    (N - 2 b - N b^2 + 2 b^{N+1})/(1-b)^2, which matches the stationary
    covariance double sum (and equals N at b = 0, giving variance
    ||f||^2 / N). Also returns the large-N asymptotic sum
    (1+b)/(1-b) per component and the crude bound 2 ||f||^2 / (1 - b_max).
    """
    coeffs = np.asarray(coefficients, dtype=float)
    eigs = np.asarray(eigenvalues, dtype=float)
    if coeffs.shape != eigs.shape:
        raise DomainError("coefficient and eigenvalue lists must align")
    if n_samples < 1:
        raise DomainError("need n_samples >= 1")
    if np.any(eigs >= 1.0):
        raise DomainError("eigenvalue 1 among nonconstant components: chain not ergodic")
    nn = n_samples
    w = (nn - 2.0 * eigs - nn * eigs**2 + 2.0 * eigs ** (nn + 1)) / (1.0 - eigs) ** 2
    exact = float(np.sum(coeffs**2 * w)) / nn**2
    asymptotic = float(np.sum(coeffs**2 * (1.0 + eigs) / (1.0 - eigs)))
    norm_sq = float(np.sum(coeffs**2))
    bound = 2.0 * norm_sq / (1.0 - float(np.max(eigs)))
    return VarianceResult(exact, asymptotic, bound)


@dataclass
class McmleVarianceConstants:
    """Closed-form constants behind the MCMLE impracticality bound.

    For a chain at parameter beta estimating toward beta0 in the
    independent-edge model: the per-edge mean of the reweighting factor, the
    per-edge variance growth factor, the spectral prefactor denominator
    2(1 + e^{-beta}), and the resulting relative standard deviation
    sigma/mu, all exactly as the worked bound evaluates them.
    """

    m: int
    per_edge_mean: float
    per_edge_variance_factor: float
    prefactor_denominator: float
    log_mean: float
    log_variance_ratio: float
    sigma_over_mu: float


def er_mcmle_variance_constants(
    beta_target: float, beta_chain: float, n: int
) -> McmleVarianceConstants:
    """Evaluate the MCMLE variance-bound constants for an independent-edge pair.

    sigma^2/mu^2 = (m / (2(1+e^{-beta_chain}))) (F^m - 1) with
    F = 1 + ((1 - e^{beta_target - beta_chain}) / (1 + e^{beta_target}))^2;
    the relative standard deviation explodes exponentially in m whenever the
    parameters differ.
    """
    m = math.comb(n, 2)
    a = beta_target - beta_chain
    per_edge_mean = (1.0 + math.exp(beta_target)) / (1.0 + math.exp(beta_chain))
    factor = 1.0 + ((1.0 - math.exp(a)) / (1.0 + math.exp(a + beta_chain))) ** 2
    denom = 2.0 * (1.0 + math.exp(-beta_chain))
    log_mean = m * math.log(per_edge_mean)
    log_ratio = math.log(m / denom) + _log_expm1(m * math.log(factor))
    return McmleVarianceConstants(
        m=m,
        per_edge_mean=per_edge_mean,
        per_edge_variance_factor=factor,
        prefactor_denominator=denom,
        log_mean=log_mean,
        log_variance_ratio=log_ratio,
        sigma_over_mu=math.exp(0.5 * log_ratio) if log_ratio < 1400.0 else math.inf,
    )


def _log_expm1(x: float) -> float:
    if x > 50.0:
        return x
    return math.log(math.expm1(x))
