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

import math
import warnings
from array import array
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from math import lgamma

import numpy as np

from .errors import (
    DomainError,
    EstimatorCollapseError,
    InstanceTooLargeError,
    OverflowGuardError,
)
from .graphs import (
    _PRODUCT_BLOCK_ENTRIES,
    MAX_VERTICES,
    Graph,
    Motif,
    _integer,
    _mask_bits,
    _rng_from_seed,
    _seed_key,
    _term,
    _vertex_pairs,
)

# unused here; the benchmark's traced run (perfbench/tracing.py) wraps
# mcmc.hom_density_graph_fast, so the name stays importable from this module
# until ROADMAP item 1, the benchmark change, deletes it
from .graphs import hom_density_graph as hom_density_graph_fast  # noqa: F401
from .variational import ModelSpec, _check_finite, maximize_scalar

ENUMERATION_MAX_VERTICES = 6
DENSE_MATRIX_MAX_PAIRS = 12
CHI_SQUARE_MAX_VERTICES = 10_000
# estimate_importance draws its graphs in row blocks of at most this many
# edges (512 KiB of 64-bit words, one byte an edge: _edge_bits)
_DRAW_BLOCK_EDGES = 2**19
# chi_square_distance sums its weights in chunks this long, which stay in
# cache, and stops after the first chunk past which the rest is provably below
# e^_CHI_SQUARE_TAIL_LOG of the sum so far
_CHI_SQUARE_CHUNK = 2**12
_CHI_SQUARE_TAIL_LOG = -40.0
# a Glauber chain's table of on-probabilities stops growing at this many keys
_ON_PROBABILITY_TABLE_CAP = 4096
# _count_table keeps at most this many (motif, n) tables of int64 counts, each
# of at most 2^15 entries (256 KiB at n = 6): at most 8 MiB in all
_COUNT_TABLES = 32
# the multiplier that _mask_index packs the low bits of eight bytes with
_BYTE_BITS = np.uint64(0x0102040810204080)


# -- chain configuration and state ---------------------------------------------


@dataclass
class ChainConfig:
    """Where and how a single chain runs.

    start is "empty", "complete", or a Graph. steps and one of er_beta (the
    add/delete Metropolis chain) or model (Glauber) set up a trace run. The
    estimators derive the law and the run length from their own arguments
    (10% burn-in plus thinning times the sample count) and refuse a config
    with steps, er_beta or model set.
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
    """The adjacency rows a chain's step loop toggles in place; its counts
    are loop values (_drive). A term reads this state as it reads a Graph:
    n and bitmask rows (graphs._Term)."""

    __slots__ = ("n", "rows")

    def __init__(self, g: Graph):
        self.n = g.n
        self.rows = list(g.rows)


def _model_terms(model: ModelSpec):
    """(coefficient, term object) for each model term with a nonzero coefficient."""
    return [(b, _term(m)) for m, b in zip(model.motifs, model.betas) if b != 0.0]


def _log_odds_unit(terms, n: int) -> float:
    """The power of two that _log_odds, its one caller, divides every log-odds by.

    It is 1 while n^2 sum_i |b_i|, a bound on every log-odds at n
    (delta_i <= n^(v_i)), is below double range, and otherwise brings that
    bound below 2^1020, so the scaled sum never overflows and terms of
    opposite sign never meet as inf - inf. Dividing by a power of two is
    exact away from subnormals, so a log-odds that fits in a double gets the
    same bits at every unit; only the product with the unit may overflow, to
    a signed inf.
    """
    if sum(abs(b) for b, _ in terms) * n * n < math.inf:
        return 1.0
    # max |b| < 2^e, so the bound is below 2^(e + bit_length(len(terms) n^2))
    e = math.frexp(max(abs(b) for b, _ in terms))[1] + (len(terms) * n * n).bit_length()
    return math.ldexp(1.0, e - 1020)


def _log_odds(terms, n: int):
    """The Glauber log-odds of adding edge ij to g, n^2 sum_i b_i delta_i / n^(v_i),
    as (neg_unit, constant, [(scale, term)]): the log-odds is unit times the
    sum of constant and scale * term.delta(g, i, j) over the list, in model
    order, with unit = _log_odds_unit(terms, n) = -neg_unit, scale = b /
    unit / n^(v - 2) and v the vertices of the term's motif, the active part
    (graphs._Term). This is the one place that forms the unit and the scale;
    the chain reads them with delta, the dense matrix with the batch counts
    of g + ij and g - ij, and both pass neg_unit to _on_probability. A term
    with an edge rule (term.per_edge, not None) has that delta whatever g
    and ij, so every such term is folded into the constant as scale *
    per_edge, wherever it sits in the model.
    """
    unit = _log_odds_unit(terms, n)
    scaled = [(b / unit / n ** (t.motif.vertex_count - 2), t) for b, t in terms]
    constant = sum((s * t.per_edge for s, t in scaled if t.per_edge is not None), 0.0)
    return -unit, constant, [(s, t) for s, t in scaled if t.per_edge is None]


# -- the chain driver ---------------------------------------------------------------


def _on_probability(expo: float, neg_unit: float) -> float:
    """1 / (1 + e^(expo neg_unit)), which is 0 where exp overflows: the Glauber
    on-probability of a log-odds scaled as _log_odds scales it, with neg_unit
    from _log_odds. The one place that turns a log-odds into an
    on-probability, for the chain steps (_step_loop) and the dense chain
    matrix (glauber_transition_matrix) alike."""
    return 1.0 / (1.0 + _exp_or_inf(expo * neg_unit))


def _drive(g: Graph, terms, er_beta, seed: int, total: int, burn: int, every: int, recorded,
           record_start: bool = False):
    """Run one chain from the graph g for total steps and record it every
    `every` steps after step burn, and at the last step; with
    record_start, the start too.

    With er_beta set this is the add/delete Metropolis chain for the law
    proportional to e^{er_beta E}; otherwise it is Glauber dynamics for the
    model terms. Each step picks a uniform vertex pair and a uniform coin;
    they are drawn in 4096-step chunks, pair indices then coins, so a seed
    gives the same chain whatever is recorded.

    Each chunk is one call of the chain's step loop (_step_loop) on the
    chunk's pair ends, gathered from the columns of _vertex_pairs, its coins,
    and a bytearray flag per step, 1 at each record step. The loop carries
    the chain's counts as values: the edges and triangles of g, and held,
    one count of g of the table loop's term (0 without one). On a flagged
    step it pushes the edges and triangles onto one flat array("q"), 16
    bytes a record, and calls note(held), which appends the density of each
    recorded term with no rule (neither per_edge nor per_common) to one flat
    array("d"), 8 bytes a density: held, or a count of the rows, over n^v
    as Python divides the ints (graphs._Term.density).

    Returns, after the chain, an (r, 2) int64 array of the edge and
    triangle counts at the records, the (r, len(recorded)) float64
    densities of the recorded terms (_record_densities) and the final
    graph. The k-th record after the start (k >= 1) is step burn + k every,
    capped at total.
    """
    if g.n < 2:
        raise DomainError(f"chains need n >= 2, got {g.n}")
    state = _ChainState(g)
    rng = _rng_from_seed(seed)
    pair_i, pair_j = _vertex_pairs(state.n)
    run, kept = _step_loop(state, terms, er_beta)
    counts, densities = array("q"), array("d")
    push, add = counts.append, densities.append
    # (count, n^v) of each noted term; the kept term's count is None: note reads held
    noted = [(None if t is kept else t.count, state.n**t.motif.vertex_count)
             for t in recorded if t.per_edge is None and t.per_common is None]
    note = None
    if noted:

        def note(held):
            for count, scale in noted:
                add((held if count is None else count(state)) / scale)

    edges, triangles = g.edge_count(), g.triangle_count()
    held = 0 if kept is None else kept.count(g)
    if record_start:
        push(edges)
        push(triangles)
        if note is not None:
            note(held)
    for start in range(0, total, 4096):
        count = min(4096, total - start)
        pair_idx = rng.integers(0, pair_i.size, size=count)
        coins = rng.random(count).tolist()
        # flags[f] is 1 where step start + f + 1 is burn + k every, k >= 1, or total
        first = max(burn + every - start - 1, (burn - start - 1) % every)
        flags = bytearray(count)
        flags[first::every] = b"\x01" * len(range(first, count, every))
        if start + count == total:
            flags[-1] = 1
        edges, triangles, held = run(pair_i[pair_idx].tolist(), pair_j[pair_idx].tolist(), coins, flags, edges,
                                     triangles, held, push, note)
    ends = np.frombuffer(counts, dtype=np.int64).reshape(-1, 2)
    densities = np.frombuffer(densities).reshape(len(ends), len(noted))
    return ends, _record_densities(recorded, state.n, ends, densities), Graph._from_rows(state.n, state.rows)


def _step_loop(state: _ChainState, terms, er_beta):
    """The step loop of one chain, chosen once by its step rule, and the term
    whose count it holds (None but on the table path): loop(ends_i, ends_j,
    coins, flags, edges, triangles, held, push, note) runs the steps of
    those pair ends and coins on state.rows from the edge, triangle and held
    counts _drive carries and returns the new (edges, triangles, held);
    after each step whose flag is 1 it calls push(edges) and push(triangles),
    then note(held) when note is not None. Only the table loop moves held.

    The Glauber log-odds of a step are _log_odds' constant plus its scaled
    deltas, added in model order, and the on-probability is _on_probability
    of them and _log_odds' neg_unit, the rule the dense matrix
    (glauber_transition_matrix) reads too. A chain whose every weighted term
    has a common-neighbour rule (term.per_common, not None: the triangle's
    delta is per_common c, c the pair's common neighbours), or that has no
    weighted term, reads its on-probabilities from one list of n - 1, made
    up front: entry c adds scale * (per_common c) of each term to the
    constant in model order, as a step would, for c = 0..n - 2. With one
    other term the on-probability depends on the pair only through that
    term's integer delta, so the chain keeps one table from the delta to its
    on-probability: a delta not yet in the table gets the same arithmetic
    and is stored while the table holds fewer than
    _ON_PROBABILITY_TABLE_CAP entries, so every step gets the bits the
    arithmetic gives and the table stays near 0.4 MB whatever the deltas.
    That loop moves held, the term's exact count, by the delta on each
    flip. Two or more weighted terms add the full sum at every step.

    Every loop gets bit, the list of 1 << v for v < n, built here once per
    chain: n ints of up to n bits, at most the size of a complete graph's
    rows (1.3 MB against 2.4 MB at n = 4,096, 10 kB against 12 kB at
    n = 200). A step tests presence with rows[i] & bit[j] and then takes an
    add or a drop branch, so it builds no shifted int.
    """
    rows = state.rows
    bit = [1 << v for v in range(state.n)]
    if er_beta is not None:
        return partial(_metropolis_steps, rows, bit, math.exp(-er_beta)), None
    # one multiply both scales the log-odds back and negates it
    neg_unit, constant, weighted = _log_odds(terms, state.n)
    if all(term.per_common is not None for _, term in weighted):
        on = []
        for c in range(state.n - 1):
            expo = constant
            for scale, term in weighted:
                expo += scale * (term.per_common * c)
            on.append(_on_probability(expo, neg_unit))
        return partial(_common_neighbour_steps, rows, bit, on), None
    kept, table = (weighted[0][1], {}) if len(weighted) == 1 else (None, None)
    weighted = [(scale, term.delta) for scale, term in weighted]
    return partial(_delta_steps, state, bit, constant, weighted, neg_unit, table), kept


def _metropolis_steps(rows, bit, exp_neg_beta, ends_i, ends_j, coins, flags, edges, triangles, held, push, note):
    """Add/delete Metropolis steps: an absent pair is added, a present one
    deleted with probability exp_neg_beta. A step tests presence with
    rows[i] & bit[j] and then runs its add or its drop branch, which sets or
    clears the two row bits (bit, _step_loop's list of 1 << v) and moves the
    counts by one edge and the pair's common neighbours; a toggle leaves
    rows[i] & rows[j] as it was, so the rows held before it give that count."""
    for i, j, coin, flag in zip(ends_i, ends_j, coins, flags):
        ri, bj = rows[i], bit[j]
        if not ri & bj:
            rj = rows[j]
            rows[i] = ri | bj
            rows[j] = rj | bit[i]
            edges += 1
            triangles += (ri & rj).bit_count()
        elif coin < exp_neg_beta:
            rj = rows[j]
            rows[i] = ri ^ bj
            rows[j] = rj ^ bit[i]
            edges -= 1
            triangles -= (ri & rj).bit_count()
        if flag:
            push(edges)
            push(triangles)
            if note is not None:
                note(held)
    return edges, triangles, held


def _common_neighbour_steps(rows, bit, on, ends_i, ends_j, coins, flags, edges, triangles, held, push, note):
    """Glauber steps whose on-probability is on[c], c the pair's common
    neighbours: an absent pair is added iff coin < on[c], a present one
    dropped iff not coin < on[c] (never coin >= on[c], which a nan would
    read the other way). Presence, the add and the drop branches and the
    bit list are as in _metropolis_steps."""
    for i, j, coin, flag in zip(ends_i, ends_j, coins, flags):
        ri, rj, bj = rows[i], rows[j], bit[j]
        common = (ri & rj).bit_count()
        if not ri & bj:
            if coin < on[common]:
                rows[i] = ri | bj
                rows[j] = rj | bit[i]
                edges += 1
                triangles += common
        elif not coin < on[common]:
            rows[i] = ri ^ bj
            rows[j] = rj ^ bit[i]
            edges -= 1
            triangles -= common
        if flag:
            push(edges)
            push(triangles)
            if note is not None:
                note(held)
    return edges, triangles, held


def _delta_steps(state, bit, constant, weighted, neg_unit, table, ends_i, ends_j, coins, flags, edges, triangles,
                 held, push, note):
    """Glauber steps on the scaled term deltas: one term through the table
    from its delta to the on-probability (table is a dict), two or more
    summed at every step (table is None). The on-probability p comes from
    the rows before the step; then an absent pair is added iff coin < p and
    a present one dropped iff not coin < p, in the add and drop branches of
    _metropolis_steps. The table path carries its term's count in held, an
    exact Python int that moves by the delta key on each flip. The summed
    path holds no count: its key stays 0, and held passes through."""
    rows = state.rows
    if table is not None:
        ((scale1, delta1),) = weighted
    on_probability = _on_probability
    key = 0
    for i, j, coin, flag in zip(ends_i, ends_j, coins, flags):
        if table is not None:
            key = delta1(state, i, j)
            p = table.get(key)
            if p is None:
                p = on_probability(constant + scale1 * key, neg_unit)
                if len(table) < _ON_PROBABILITY_TABLE_CAP:
                    table[key] = p
        else:
            expo = constant
            for scale, delta in weighted:
                expo += scale * delta(state, i, j)
            p = on_probability(expo, neg_unit)
        ri, bj = rows[i], bit[j]
        if not ri & bj:
            if coin < p:
                rj = rows[j]
                rows[i] = ri | bj
                rows[j] = rj | bit[i]
                edges += 1
                triangles += (ri & rj).bit_count()
                held += key
        elif not coin < p:
            rj = rows[j]
            rows[i] = ri ^ bj
            rows[j] = rj ^ bit[i]
            edges -= 1
            triangles -= (ri & rj).bit_count()
            held -= key
        if flag:
            push(edges)
            push(triangles)
            if note is not None:
                note(held)
    return edges, triangles, held


def _record_densities(recorded, n: int, ends: np.ndarray, noted: np.ndarray) -> np.ndarray:
    """The (r, len(recorded)) densities of a chain's records, built after the
    chain from its (r, 2) edge and triangle counts and the densities its
    notes appended (_drive). A term with an edge rule has the count
    per_edge E, one with a common-neighbour rule per_common T, and its
    column is its density of them (graphs._Term.density), formed 4096
    records at a time so that no temporary grows with the records. Each
    other term reads the next noted column."""
    out = np.empty((len(ends), len(recorded)))
    columns = iter(noted.T)
    for col, term in enumerate(recorded):
        if term.per_edge is not None or term.per_common is not None:
            rule, which = (term.per_edge, 0) if term.per_edge is not None else (term.per_common, 1)
            for lo in range(0, len(ends), 4096):
                out[lo : lo + 4096, col] = term.density(rule * ends[lo : lo + 4096, which], n)
        else:
            out[:, col] = next(columns)
    return out


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

    The chain pushes its counts at each record (_drive); the trace is built
    after it, with numpy over the records. The statistic of a record is
    er_beta E / n^2 for the Metropolis chain, and otherwise adds b times
    each term's density in model order, starting from 0.0, as Python adds
    floats: a product beyond double range is a signed inf, and inf - inf
    a nan, with no numpy warning.
    """
    steps = _integer(config.steps, "steps", 0, "run_chain")
    record_every = _integer(record_every, "record_every", 1, "run_chain")
    if (config.er_beta is None) == (config.model is None):
        raise DomainError("set exactly one of er_beta (Metropolis) or model (Glauber)")
    start = config.start_graph()
    if config.er_beta is not None:
        _er_beta(config.er_beta)
    terms = _model_terms(config.model) if config.model is not None else []
    ends, dens, final = _drive(start, terms, config.er_beta, config.seed, steps, 0, record_every,
                               [t for _, t in terms], record_start=True)
    with np.errstate(over="ignore", invalid="ignore"):
        if config.model is None:
            stat = config.er_beta * ends[:, 0] / start.n**2
        else:
            stat = np.zeros(len(ends))
            for col, (b, _) in enumerate(terms):
                stat += b * dens[:, col]
    record_steps = [0] + [min(k * record_every, steps) for k in range(1, len(ends))]
    trace = list(map(TraceRecord, record_steps, ends[:, 0].tolist(), ends[:, 1].tolist(), stat.tolist()))
    return trace, final


def _auto_is_er(model: ModelSpec) -> float | None:
    """If the law is a nonnegative independent-edge law, its Metropolis beta."""
    if all(e == 1 for e in model.edges):
        beta = 2.0 * sum(model.betas)
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

    The chain pushes its edge and triangle counts at each record, and notes
    the density of each motif with neither rule nor held count (_drive);
    the (n_samples, k) array is built from them once, after the chain.
    """
    n_samples = _integer(n_samples, "n_samples", 1, "sample_motif_densities")
    thinning = _integer(thinning, "thinning", 1, "sample_motif_densities")
    if any(v is not None for v in (chain.steps, chain.er_beta, chain.model)):
        raise DomainError("estimators need a chain with steps, er_beta and model unset")
    start = chain.start_graph()
    span = n_samples * thinning
    burn = math.ceil(span / 9.0)  # 10% of the total run
    recorded = [_term(m) for m in motifs]
    return _drive(start, _model_terms(law), _auto_is_er(law), chain.seed, burn + span, burn, thinning, recorded)[1]


# -- exact spectral theory of the independent-edge chain ---------------------------


def _er_beta(beta: float) -> None:
    """Refuse a non-finite beta (_check_finite), then a negative one: the
    add/delete chain's rule. For negative beta, run it on the complement at -beta."""
    _check_finite(beta)
    if beta < 0.0:
        raise DomainError(f"er chains need beta >= 0, got {beta}; apply the complement transformation")


def _bit_vector(values, what: str) -> tuple[int, ...]:
    """values as a tuple of Python ints, after refusing an entry that is not
    the integer 0 or 1 (_integer, DomainError), rather than truncating it."""
    bits = tuple(_integer(b, f"{what} entry") for b in values)
    if any(b not in (0, 1) for b in bits):
        raise DomainError(f"{what} must be a 0/1 vector")
    return bits


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
        x = _bit_vector(x, "x")
        dot = sum(a & b for a, b in zip(self.xi, x))
        power = 0.5 * self.beta * (self.weight - 2 * dot)
        try:
            return (-1.0) ** dot * math.exp(power)
        except OverflowError:
            raise OverflowGuardError(f"eigenfunction value exp({power:.6g}) exceeds double range") from None


def er_eigen(xi, beta: float, m: int) -> SpectralComponent:
    """Eigenpair of the add/delete chain for the component pattern xi.

    The chain is a product of m two-state chains; the eigenvalue depends on
    xi only through its weight: 1 - |xi| (1 + e^{-beta})/m.
    """
    _er_beta(beta)
    m = _integer(m, "m", 1, "the add/delete chain")
    xi = _bit_vector(xi, "xi")
    if len(xi) != m:
        raise DomainError(f"xi has length {len(xi)}, expected m = {m}")
    weight = sum(xi)
    eigenvalue = 1.0 - weight * (1.0 + math.exp(-beta)) / m
    return SpectralComponent(xi, eigenvalue, weight, beta)


def _checked_pairs(n: int, least: int, limit: int, what: str) -> int:
    """C(n, 2), after checking n, an integer >= least (_integer), and C(n, 2) <= limit;
    `what` names the table over all 2^C(n, 2) graphs that the caller builds."""
    m = math.comb(_integer(n, "n", least, what), 2)
    if m > limit:
        raise InstanceTooLargeError(f"instance too large: {what} needs m <= {limit}, got {m}")
    return m


def _flip_matrix(p_on: np.ndarray, p_off: np.ndarray) -> np.ndarray:
    """Dense transition matrix on the 2^m edge masks of a chain that picks a
    uniform pair t and sets it present or absent in state s with the
    probabilities p_on[s, t] and p_off[s, t], two (2^m, m) flip tables.

    Each pair adds its column of the present moves, then of the absent ones;
    an entry gets its terms in pair order, as a loop over (state, pair)
    would add them."""
    size, m = p_on.shape
    states = np.arange(size)
    k = np.zeros((size, size))
    for t in range(m):
        k[states, states | (1 << t)] += p_on[:, t] / m
        k[states, states & ~(1 << t)] += p_off[:, t] / m
    return k


def er_transition_matrix(beta: float, n: int) -> np.ndarray:
    """Dense transition matrix of the add/delete chain on all 2^m graphs."""
    m = _checked_pairs(n, 2, DENSE_MATRIX_MAX_PAIRS, "dense chain matrix")
    _er_beta(beta)
    bits = _mask_bits(m)
    del_p = math.exp(-beta)
    # an absent pair is always added; a present one is deleted with e^-beta
    return _flip_matrix(np.where(bits, 1.0 - del_p, 1.0), np.where(bits, del_p, 0.0))


def er_stationary(beta: float, n: int) -> np.ndarray:
    """Stationary law of the add/delete chain on all 2^m graphs, 1 <= n <= 6."""
    m = _checked_pairs(n, 1, math.comb(ENUMERATION_MAX_VERTICES, 2), "enumeration")
    _check_finite(beta)
    sizes = _mask_bits(m).sum(axis=1)
    logw = beta * sizes - m * np.logaddexp(0.0, beta)
    return np.exp(logw)


def glauber_transition_matrix(model: ModelSpec, n: int) -> np.ndarray:
    """Dense transition matrix of Glauber dynamics for an arbitrary model.

    The log-odds of setting pair t in state s are _log_odds' constant plus,
    for each term in model order, its scale times the term's change
    counts[s | 2^t] - counts[s & ~2^t], with counts the term's cached count
    table of all 2^m graphs (_count_table, which the exact weights read too).
    Each distinct log-odds gets its on-probability from _on_probability and
    neg_unit, as a chain step does, so every entry has the bits of the
    chain's law.
    """
    m = _checked_pairs(n, 2, DENSE_MATRIX_MAX_PAIRS, "dense chain matrix")
    neg_unit, constant, weighted = _log_odds(_model_terms(model), n)
    bits = _mask_bits(m)
    states, flips = np.arange(1 << m)[:, None], 1 << np.arange(m)
    on, off = states | flips, states & ~flips
    expo = np.full(bits.shape, constant)
    for scale, term in weighted:
        counts = _count_table(term.motif, n)
        # exact integer changes, rounded to doubles as the chain's scale * delta rounds them
        expo += scale * (counts[on] - counts[off]).astype(float)
    values, where = np.unique(expo, return_inverse=True)
    p_on = np.array([_on_probability(v, neg_unit) for v in values.tolist()])[where].reshape(expo.shape)
    return _flip_matrix(p_on, 1.0 - p_on)


def model_log_weights(model: ModelSpec, n: int) -> np.ndarray:
    """log of exp(n^2 T(G)) over all graphs, in edge-mask order: the log
    weights of each term's density of its cached count table
    (_density_table), which needs none of batch_motif_densities' checks."""
    _checked_pairs(n, 1, math.comb(ENUMERATION_MAX_VERTICES, 2), "enumeration")
    return _log_weights(_density_table(model, n), np.array(model.betas), n)


def _density_table(model: ModelSpec, n: int) -> np.ndarray:
    """The (2^C(n, 2), terms) densities of every graph in edge-mask order,
    column i the density of term i's count table (graphs._Term.density)."""
    return np.column_stack([_term(h).density(_count_table(h, n), n) for h in model.motifs])


def _count_table(motif: Motif, n: int) -> np.ndarray:
    """The read-only counts of motif's term over all 2^C(n, 2) graphs in
    edge-mask order (the rows of _mask_bits), n <= ENUMERATION_MAX_VERTICES:
    the term's own batch of the mask table, so each count has the bits of
    any batch of that graph. model_log_weights, glauber_transition_matrix and
    the table path of estimate_importance read it.

    A table is kept when its counts fit int64 (n^v < 2^63, v the vertices of
    the term's motif: v <= 24 at n = 6), at most _COUNT_TABLES of them, the
    least recently used dropped first: 8 MiB at most. The others are counted
    on every call.
    """
    term = _term(motif)
    if n**term.motif.vertex_count >= 2**63:
        return term.batch(_mask_bits(math.comb(n, 2)), n)
    return _kept_count_table(motif, n)


@lru_cache(maxsize=_COUNT_TABLES)
def _kept_count_table(motif: Motif, n: int) -> np.ndarray:
    table = _term(motif).batch(_mask_bits(math.comb(n, 2)), n)
    table.flags.writeable = False
    return table


def _log_weights(dens: np.ndarray, betas: np.ndarray, n: int) -> np.ndarray:
    """n^2 (dens @ betas), the log weights of the exact and importance sums.

    A -inf log weight is an exact zero weight and stays; a +inf or nan one
    raises OverflowGuardError, which numpy would otherwise warn about and
    carry into a nan sum.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        logw = n**2 * (dens @ betas)
    if not (logw < math.inf).all():
        raise OverflowGuardError(
            f"a log weight n^2 T(G) exceeds double range at n = {n}; the coefficients are too strong"
        )
    return logw


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
    eigenfunction mass t_j = e^{+-beta j} C(m, j) |1 - j r/m|^{2 ell} with
    r = 1 + e^{-beta}, evaluated with log-domain binomials, in chunks of
    _CHI_SQUARE_CHUNK weights. Raises DomainError unless ell is finite and
    >= 0, and OverflowGuardError when the value exceeds double range unless
    log=True.

    The sum stops early once the rest is provably negligible. Below the
    zero j* = m/r of the base, log t_j is concave in j for ell >= 0, since
    log C(m, j) and log(1 - j r/m) are; so once the last increment
    d = log t_J - log t_(J-1) of a chunk is negative, the terms left below
    j* sum to at most t_J e^d / (1 - e^d). Above j* the base is at most
    r - 1 = e^{-beta}, so the terms there sum to at most
    (1 + e^{+-beta})^m e^{-2 ell beta}. After a chunk that is not the last,
    if both bounds are below e^-40 of the sum so far, the rest is dropped:
    it would move the sum by less than 2 e^-40 = 8.5e-18 relative, below
    its float rounding. Otherwise (beta = 0, ell = 0, or ell too small for
    the second bound) every weight is summed, so m <= _CHI_SQUARE_CHUNK
    (n <= 91) is always the full one-chunk sum.
    """
    if start not in ("empty", "complete"):
        raise DomainError("start must be 'empty' or 'complete'")
    _er_beta(beta)
    if not 0.0 <= ell < math.inf:
        raise DomainError(f"chi_square_distance needs a finite step count ell >= 0, got {ell}")
    if not 2 <= (n := _integer(n, "n")) <= CHI_SQUARE_MAX_VERTICES:
        raise InstanceTooLargeError(
            f"instance too large: chi_square_distance supports 2 <= n <= {CHI_SQUARE_MAX_VERTICES}"
        )
    m = math.comb(n, 2)
    sign = 1.0 if start == "empty" else -1.0
    rate = 1.0 + math.exp(-beta)
    # log of the bound on all terms past the zero of the base (see the docstring)
    right_log = m * float(np.logaddexp(0.0, sign * beta)) - 2.0 * ell * beta
    total_log = -math.inf
    for lo in range(1, m + 1, _CHI_SQUARE_CHUNK):
        hi = min(lo + _CHI_SQUARE_CHUNK, m + 1)
        js = np.arange(lo, hi, dtype=np.float64)
        logc = lgamma(m + 1) - (_log_factorial(js) + _log_factorial(m - js))
        decay = 0.0
        if ell != 0:
            base = np.abs(1.0 - js * rate / m)
            with np.errstate(divide="ignore"):
                decay = np.where(base > 0.0, 2.0 * ell * np.log(base), -np.inf)
        terms = sign * beta * js + logc + decay
        total_log = np.logaddexp(total_log, _logsumexp(terms))
        if hi > m or not ell > 0.0:
            continue
        left_log = -math.inf
        if js[-1] * rate < m:
            d = float(terms[-1] - terms[-2])
            left_log = float(terms[-1]) + d - math.log(-math.expm1(d)) if d < 0.0 else math.inf
        cut = total_log + _CHI_SQUARE_TAIL_LOG
        if left_log < cut and right_log < cut:
            break
    if log:
        return float(total_log)
    if total_log > 700.0:
        raise OverflowGuardError(
            f"chi-square value exp({total_log:.1f}) exceeds double range; call with log=True"
        )
    return float(math.exp(total_log))


def mixing_cutoff(n: int, beta: float, c: float) -> float:
    """Step count m(log m + c)/(2(1 + e^{-beta})) around which convergence happens."""
    n = _integer(n, "n", 2, "mixing_cutoff")
    _check_finite(beta)
    if not math.isfinite(c):
        raise DomainError(f"the cutoff offset c must be finite, got {c}")
    if not 0.0 <= beta <= 1.0:
        warnings.warn(
            f"cutoff constants are proved for 0 <= beta <= 1; got beta = {beta}",
            stacklevel=2,
        )
    m = math.comb(n, 2)
    return m * (math.log(m) + c) / (2.0 * (1.0 + math.exp(-beta)))


def er_log_partition(beta: float, n: int) -> float:
    """log of the independent-edge normalizing constant, m log(1 + e^beta)."""
    n = _integer(n, "n", 2, "er_log_partition")
    _check_finite(beta)
    return math.comb(n, 2) * float(np.logaddexp(0.0, beta))


# -- batched statistics over edge-indicator matrices -------------------------------


def batch_motif_densities(motifs: list[Motif], n: int, bits: np.ndarray) -> np.ndarray:
    """Density vectors for a batch of graphs given as edge-indicator rows.

    bits has one row per graph and one column per vertex pair in
    lexicographic order. Each term's batch counts the rows exactly, in
    blocks of fixed size, so no temporary grows with the rows: stars gather
    degree columns, triangles below n = 9 the pair columns of every triple,
    cliques those of every r-set while C(n, r) C(r, 2) <= 2^15, and the
    others stack the rows' adjacency matrices A (cliques beyond pack
    bitmask rows from A, triangles sum (A+ @ A+) * A+ over its strictly
    upper part, cycles take closed walks tr(A^k), edge-list motifs contract
    A under the count's guard). Each density is the term's density of its
    count (graphs._Term.density), as hom_density_graph and the chain form it.
    An entry of bits other than 0 or 1 raises DomainError.
    """
    n = _integer(n, "n", 1, "batch_motif_densities")
    m = math.comb(n, 2)
    if np.ndim(bits) != 2:
        raise DomainError(f"bits must be a 2-D array of edge-indicator rows, got {np.ndim(bits)} dimensions")
    if bits.shape[1] != m:
        raise DomainError(f"bits must have {m} columns for n = {n}")
    step = max(1, _PRODUCT_BLOCK_ENTRIES // max(1, m))
    for lo in range(0, bits.shape[0], step):
        rows = bits[lo : lo + step]
        bad = rows[(rows != 0) & (rows != 1)]
        if bad.size:
            raise DomainError(f"bits must hold 0/1 edge indicators, got {bad[0].item()!r}")
    out = np.empty((bits.shape[0], len(motifs)))
    for col, term in enumerate(map(_term, motifs)):
        out[:, col] = term.density(term.batch(bits, n), n)
    return out


# -- exact enumeration oracle -------------------------------------------------------


def enumerate_psi_n(model: ModelSpec, n: int) -> float:
    """Exact scaled log normalizing constant by summing over all 2^C(n,2)
    graphs, n <= 6: the log-sum-exp of model_log_weights, which reads the
    cached count tables, over n^2."""
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


def _edge_bits(rng: np.random.Generator, shape, p: float) -> np.ndarray:
    """An int8 array of the given (rows, m) shape of independent edge
    indicators, each 1 with probability ceil(p 2^61) 2^-61: exactly p for
    every p >= 2^-9.

    Edge t reads byte t of ceil(rows m / 8) raw 64-bit words, taken
    little-endian so that a seed gives the same graphs on any platform. With
    p 256 = b0 + r, b0 an integer and 0 <= r < 1 (both exact), a byte below
    b0 is an edge and a byte above it is not. A byte equal to b0 (1 in 256)
    reads one more word, drawn after the block's words in edge order, and is
    an edge where that word's uniform (x >> 11) 2^-53 is below r, that is
    where x < ceil(r 2^53) 2^11. So each edge compares the uniform
    (byte + (x >> 11) 2^-53) / 256 with p exactly, reading only as many bits
    as the comparison needs (Knuth and Yao's lazy rule)."""
    rows, m = shape
    size = rows * m
    r, b0 = math.modf(p * 256.0)
    b0 = np.uint8(b0)
    words = rng.bit_generator.random_raw(-(-size // 8)).astype("<u8", copy=False)
    draws = words.view(np.uint8)[:size].reshape(shape)
    bits = draws < b0
    ties = np.flatnonzero(draws == b0)
    if ties.size:
        threshold = np.uint64(math.ceil(r * 2.0**53) << 11)
        bits.reshape(-1)[ties] = rng.bit_generator.random_raw(ties.size) < threshold
    return bits.view(np.int8)


def estimate_importance(
    model: ModelSpec,
    n: int,
    n_samples: int,
    seed: int,
    proposal_p: float | None = None,
    self_normalized: bool = False,
) -> EstimatorResult:
    """Importance-sample the normalizing sum from an independent-edge proposal.

    Draws independent graphs with every edge present with probability
    proposal_p (default: the scalar-problem maximizer, which makes the
    proposal near-optimal in the certified regimes) and averages
    exp(n^2 T(G)) / Q(G). With self_normalized=True the proposal mass is
    used only up to its normalizing constant, as when Q comes from an
    unnormalized chain law.

    The graphs are drawn, counted and folded into a running log-sum-exp in
    blocks of max(1, 2^19 // C(n, 2)) graphs, at most 2^19 edges (one byte
    each of 512 KiB of raw words), which read the generator's stream in
    order; so memory is one block whatever n_samples, and the first k
    blocks of a run are the draws of any run with the same seed and at
    least k blocks. An edge is present with probability exactly proposal_p
    where proposal_p >= 2^-9, and ceil(proposal_p 2^61) 2^-61 below it
    (_edge_bits). Each term's density (graphs._Term.density) is of per_edge
    times the rows' edge counts, which the proposal mass reads too, where
    the term has an edge rule, and of its batch count of the rows otherwise.
    A drawn graph whose log weight is +inf or nan raises OverflowGuardError.
    n must be at most graphs.MAX_VERTICES (InstanceTooLargeError).

    At n <= ENUMERATION_MAX_VERTICES with n_samples >= 2^C(n, 2), so that
    no more graphs are counted than are drawn, each block reads its rows'
    term densities and log masses by their edge masks (_mask_index) from
    tables over all 2^C(n, 2) graphs (_density_table, from the cached count
    tables) instead of counting the rows: the same floats, in a block of
    the same shape, so the block's statistic is the same matrix-vector
    product and every estimate keeps its bits. (A table of whole log
    weights would not be: the BLAS rounds the last rows of a product of
    eight or more terms, and numpy a one-row product, otherwise than the
    same rows inside a longer product.)
    """
    n = _integer(n, "n", 2, "importance sampling")
    if n > MAX_VERTICES:
        raise InstanceTooLargeError(f"instance too large: importance sampling supports n <= {MAX_VERTICES}, got {n}")
    n_samples = _integer(n_samples, "n_samples", 1, "importance sampling")
    if proposal_p is None:
        proposal_p = max(maximize_scalar(model).maximizers)
    if not 0.0 < proposal_p < 1.0:
        raise DomainError("proposal_p must lie in (0, 1)")
    rng = _rng_from_seed(seed)
    m = math.comb(n, 2)
    betas = np.array(model.betas)
    terms = [_term(motif) for motif in model.motifs]
    log_p, log_q = math.log(proposal_p), math.log1p(-proposal_p)
    if self_normalized:
        def log_mass(edges):  # up to the proposal's normalizing constant
            return edges * (log_p - log_q)
    else:
        def log_mass(edges):
            return edges * log_p + (m - edges) * log_q
    tables = None
    if n <= ENUMERATION_MAX_VERTICES and n_samples >= 1 << m:
        # the term densities and the log mass of every graph, in edge-mask order
        tables = _density_table(model, n), log_mass(np.einsum("ij->i", _mask_bits(m), dtype=np.int32))
    num_log = -math.inf
    den_log = -math.inf
    block = max(1, _DRAW_BLOCK_EDGES // m)
    for lo in range(0, n_samples, block):
        bits = _edge_bits(rng, (min(block, n_samples - lo), m), proposal_p)
        if tables is None:
            edges = np.einsum("ij->i", bits, dtype=np.int32)
            dens = np.column_stack([t.density(t.batch(bits, n) if t.per_edge is None else t.per_edge * edges, n)
                                    for t in terms])
            mass = log_mass(edges)
        else:
            masks = _mask_index(bits)
            dens, mass = (np.take(t, masks, axis=0) for t in tables)
        stat = _log_weights(dens, betas, n)
        num_log = np.logaddexp(num_log, _logsumexp(stat - mass))
        if self_normalized:
            den_log = np.logaddexp(den_log, _logsumexp(-mass))
    if self_normalized:
        estimate_log = num_log - den_log + m * math.log(2.0)
    else:
        estimate_log = num_log - math.log(n_samples)
    return EstimatorResult(float(estimate_log), n_samples, "importance", seed)


def _mask_index(bits: np.ndarray) -> np.ndarray:
    """The edge mask of each row of a C-ordered int8 0/1 matrix of 1 to 16
    columns: its row index in _mask_bits.

    Eight 0/1 bytes b_0, ..., b_7 read as the little-endian word x = sum b_i
    2^(8i) give (x * _BYTE_BITS) >> 56 = sum b_i 2^i: with _BYTE_BITS = sum
    2^(56 - 7k), k = 0..7, the product is the sum of b_i 2^(56 + 8i - 7k),
    whose exponent differs for every (i, k), so no two terms meet and
    nothing carries; k = i puts b_i on bit 56 + i (modulo 2^64, which drops
    only terms above bit 63). A row of eight or more reads its first and its
    last eight bytes; a shorter one the eight from its start, in a copy with
    eight zero bytes after the last row, of which it keeps its own.
    """
    rows, m = bits.shape
    if m >= 8:
        word = partial(np.ndarray, (rows,), "<u8", bits, strides=(m,))
        masks = word(offset=0) * _BYTE_BITS >> 56 | (word(offset=m - 8) * _BYTE_BITS >> 56) << (m - 8)
    else:
        padded = np.zeros(rows * m + 8, dtype=np.int8)
        padded[: rows * m] = bits.reshape(-1)
        masks = (np.ndarray((rows,), "<u8", padded, strides=(m,)) & (2 ** (8 * m) - 1)) * _BYTE_BITS >> 56
    return masks.view(np.int64)


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
    attached in log domain. A log weight beyond double range raises
    EstimatorCollapseError.
    """
    _require_same_motifs(model, model0)
    dbeta = np.array(model.betas) - np.array(model0.betas)
    estimate_log = _reweighted_log_mean(model0, dbeta, n_samples, chain, thinning, "reweighted")
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
    n_samples_ref = _integer(n_samples_ref, "n_samples_ref", 1, "estimate_acceptance_ratio")
    n_samples_target = _integer(n_samples_target, "n_samples_target", 1, "estimate_acceptance_ratio")
    _require_same_motifs(model, model0)
    betas, betas0 = np.array(model.betas), np.array(model0.betas)
    alpha = betas + betas0 if alpha_kind == "geometric-mean" else None
    # the reference chain runs on the first child seed, the target chain on the second
    seeds = np.random.SeedSequence(_seed_key(chain.seed)).generate_state(2, dtype=np.uint64)
    log_den = _reweighted_log_mean(model, betas0, n_samples_target, replace(chain, seed=int(seeds[1])),
                                   thinning, "denominator", alpha)
    log_num = _reweighted_log_mean(model0, betas, n_samples_ref, replace(chain, seed=int(seeds[0])),
                                   thinning, "numerator", alpha)
    return EstimatorResult(
        float(log_num - log_den),
        n_samples_ref + n_samples_target,
        "acceptance_ratio",
        chain.seed,
    )


def _reweighted_log_mean(law, coefs, n_samples, chain, thinning, side, alpha=None) -> float:
    """log of the mean weight exp(n^2 dens @ coefs) over n_samples draws of
    the law's motif densities from a chain on it, the reduction both ratio
    estimators take of each chain; alpha adds the geometric-mean factor
    exp(-n^2 dens @ alpha / 2).

    A log weight beyond double range leaves the mean at 0 or inf. numpy
    raises at the overflow instead of warning, and this turns that into an
    EstimatorCollapseError naming the side.
    """
    dens = sample_motif_densities(law, law.motifs, n_samples, chain, thinning)
    n2 = chain.n**2
    with np.errstate(over="raise", invalid="raise"):
        try:
            logw = n2 * (dens @ coefs)
            if alpha is not None:
                logw = logw + -0.5 * n2 * (dens @ alpha)
        except FloatingPointError:
            raise EstimatorCollapseError(
                f"{side} sample mean collapsed to zero or overflowed; the two laws are too far apart"
            ) from None
    return _logsumexp(logw) - math.log(n_samples)


def _require_same_motifs(model: ModelSpec, model0: ModelSpec):
    if model.motifs != model0.motifs:
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

    The coefficient is formed in log domain, as er_mcmle_variance_constants
    forms its constants, so a value within double range comes back finite
    and one beyond it raises OverflowGuardError.
    """
    _check_finite([a, beta])
    j, m = _integer(j, "j"), _integer(m, "m")
    if not 0 <= j <= m:
        raise DomainError("need 0 <= j <= m")
    # logaddexp of arguments beyond double range apart is the larger one
    with np.errstate(over="ignore"):
        if normalized:
            # log((1 + e^{a+beta}) / (1 + e^beta)) and log(e^{beta/2} / (1 + e^beta))
            rise = float(np.logaddexp(-np.logaddexp(0.0, beta), a - np.logaddexp(0.0, -beta)))
            fall = -float(np.logaddexp(-0.5 * beta, 0.5 * beta))
        else:
            rise, fall = float(np.logaddexp(0.0, a + beta)), 0.0
    # m times the mean log factor, so the two products never meet as inf - inf
    share = j / m if m else 0.0
    mean = (1.0 - share) * rise
    if j:  # (1 - e^a)^0 = 1 also at a = 0
        mean += share * (_log_gap(a) + fall)
    log_value = m * mean
    value = _exp_or_inf(log_value)
    if not value < math.inf:
        raise OverflowGuardError(f"expansion coefficient exp({log_value:.6g}) exceeds double range")
    # 1 - e^a is negative for a > 0
    return -value if a > 0.0 and j % 2 else value


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
    Every eigenvalue must lie in [-1, 1): 1 or nan is not an ergodic chain's,
    no transition matrix has one below -1, and -1, a periodic chain's, keeps
    every formula finite.
    """
    coeffs = np.asarray(coefficients, dtype=float)
    eigs = np.asarray(eigenvalues, dtype=float)
    if coeffs.shape != eigs.shape:
        raise DomainError("coefficient and eigenvalue lists must align")
    nn = _integer(n_samples, "n_samples", 1, "variance_mcmc_mean")
    if not np.isfinite(coeffs).all():
        raise DomainError("coefficients must be finite")
    if not ((-1.0 <= eigs) & (eigs < 1.0)).all():  # so nan fails
        raise DomainError("eigenvalues must lie in [-1, 1): 1 and nan are not an ergodic chain's")
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

    Every constant is formed in log domain, from log(1 + e^x) and expm1, so a
    finite pair never overflows: the logs stay finite, and a field beyond
    double range reads inf.
    """
    n = _integer(n, "n", 2, "er_mcmle_variance_constants")
    _check_finite([beta_target, beta_chain])
    m = math.comb(n, 2)
    # log F = log(1 + r^2) with r = (1 - e^a) / (1 + e^{beta_target})
    log_gap = _log_gap(beta_target - beta_chain)
    log_factor = float(np.logaddexp(0.0, 2.0 * (log_gap - np.logaddexp(0.0, beta_target))))
    log_per_edge = float(np.logaddexp(0.0, beta_target) - np.logaddexp(0.0, beta_chain))
    log_denom = math.log(2.0) + float(np.logaddexp(0.0, -beta_chain))
    log_ratio = math.log(m) - log_denom + _log_expm1(m * log_factor)
    return McmleVarianceConstants(
        m=m,
        per_edge_mean=_exp_or_inf(log_per_edge),
        per_edge_variance_factor=_exp_or_inf(log_factor),
        prefactor_denominator=_exp_or_inf(log_denom),
        log_mean=m * log_per_edge,
        log_variance_ratio=log_ratio,
        sigma_over_mu=_exp_or_inf(0.5 * log_ratio),
    )


def _log_gap(a: float) -> float:
    """log|1 - e^a|; -inf at a = 0."""
    return max(a, 0.0) + math.log(-math.expm1(-abs(a))) if a != 0.0 else -math.inf


def _log_expm1(x: float) -> float:
    """log(e^x - 1) for x >= 0; -inf at x = 0, where F = 1 and the variance is 0."""
    if x > 50.0:
        return x
    if x == 0.0:
        return -math.inf
    return math.log(math.expm1(x))


def _exp_or_inf(x: float) -> float:
    """e^x, or inf where it exceeds double range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf
