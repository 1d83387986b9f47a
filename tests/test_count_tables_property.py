"""The count tables at n <= 6 against counting every draw.

estimate_importance reads each drawn graph's term densities and log mass
from tables over all graphs (mcmc._density_table, from the cached count
tables mcmc._count_table) once its draws number at least the 2^C(n, 2)
graphs they are drawn from. The estimates must keep every bit of the
per-draw count that the sampler ran before the tables, which
_counting_importance below keeps as it was; an overflowing weight must
raise where a drawn graph holds it and nowhere else; and the kept tables
must stay within their stated memory budget.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergmlab.errors import OverflowGuardError
from ergmlab.graphs import Motif, _mask_bits, _term
from ergmlab.mcmc import (
    _COUNT_TABLES,
    _DRAW_BLOCK_EDGES,
    _count_table,
    _edge_bits,
    _kept_count_table,
    _logsumexp,
    _mask_index,
    _rng_from_seed,
    estimate_importance,
    model_log_weights,
)
from ergmlab.variational import ModelSpec, maximize_scalar

# one motif of each term class: edge, star, triangle, cycle, clique, edge list (the paw)
SPECS = ["edge", "star:2", "star:3", "triangle", "cycle:4", "cycle:5", "complete:4", "edgelist:0-1,1-2,2-0,2-3"]


def _counting_importance(model, n, n_samples, seed, proposal_p=None, self_normalized=False):
    """estimate_importance's log estimate as it counted the terms of every
    draw block, whatever n and n_samples."""
    if proposal_p is None:
        proposal_p = max(maximize_scalar(model).maximizers)
    rng = _rng_from_seed(seed)
    m = math.comb(n, 2)
    betas = np.array(model.betas)
    terms = [_term(motif) for motif in model.motifs]
    log_p, log_q = math.log(proposal_p), math.log1p(-proposal_p)
    num_log = den_log = -math.inf
    block = max(1, _DRAW_BLOCK_EDGES // m)
    for lo in range(0, n_samples, block):
        bits = _edge_bits(rng, (min(block, n_samples - lo), m), proposal_p)
        edges = np.einsum("ij->i", bits, dtype=np.int32)
        dens = np.column_stack([t.density(t.batch(bits, n) if t.per_edge is None else t.per_edge * edges, n)
                                for t in terms])
        with np.errstate(over="ignore", invalid="ignore"):
            stat = n**2 * (dens @ betas)
        if not (stat < math.inf).all():
            raise OverflowGuardError("a drawn graph's log weight exceeds double range")
        if self_normalized:
            log_qbar = edges * (log_p - log_q)
            num_log = np.logaddexp(num_log, _logsumexp(stat - log_qbar))
            den_log = np.logaddexp(den_log, _logsumexp(-log_qbar))
        else:
            log_mass = edges * log_p + (m - edges) * log_q
            num_log = np.logaddexp(num_log, _logsumexp(stat - log_mass))
    if self_normalized:
        return float(num_log - den_log + m * math.log(2.0))
    return float(num_log - math.log(n_samples))


@st.composite
def importance_cases(draw):
    n = draw(st.integers(2, 6))
    m = math.comb(n, 2)
    specs = draw(st.lists(st.sampled_from(SPECS), min_size=1, max_size=3, unique=True))
    betas = draw(st.lists(st.floats(-3.0, 3.0), min_size=len(specs), max_size=len(specs)))
    model = ModelSpec([(Motif.parse(s), b) for s, b in zip(specs, betas)])
    block = _DRAW_BLOCK_EDGES // m
    # one short of the table path, on it, and over two draw blocks, the last
    # of them one row long or longer
    n_samples = draw(st.sampled_from([2**m - 1, 2**m, block + 1, block + 2**m]))
    proposal_p = draw(st.one_of(st.none(), st.floats(0.05, 0.95)))
    return model, n, n_samples, draw(st.integers(0, 2**32)), proposal_p, draw(st.booleans())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(importance_cases())
def test_table_estimates_keep_the_bits_of_counting_every_draw(case):
    model, n, n_samples, seed, proposal_p, self_normalized = case
    got = estimate_importance(model, n, n_samples, seed, proposal_p=proposal_p, self_normalized=self_normalized)
    want = _counting_importance(model, n, n_samples, seed, proposal_p, self_normalized)
    assert got.estimate_log.hex() == want.hex()


def test_an_overflowing_weight_raises_only_where_a_graph_holding_it_is_drawn():
    # every graph with two triangles or more at n = 5 has the log weight
    # 25 (6 T / 125) 1e308 = +inf, so its table holds +inf weights; 2,000
    # draws at proposal_p = 1e-3 take the table path and hold no triangle,
    # and the estimate is the one counted draw by draw. At proposal_p = 0.5
    # the draws hold such graphs, and both raise
    model = ModelSpec.edge_triangle(0.2, 1e308)
    with pytest.raises(OverflowGuardError):
        model_log_weights(model, 5)
    got = estimate_importance(model, 5, 2_000, seed=3, proposal_p=1e-3)
    assert math.isfinite(got.estimate_log)
    assert got.estimate_log.hex() == _counting_importance(model, 5, 2_000, 3, 1e-3).hex()
    for count in (_counting_importance, lambda *a: estimate_importance(*a).estimate_log):
        with pytest.raises(OverflowGuardError):
            count(model, 5, 2_000, 3, 0.5)


def test_block_tails_of_a_ten_term_model_keep_their_bits():
    # OpenBLAS rounds the last (rows mod 4) rows of a matrix-vector product
    # of eight or more terms otherwise than the same rows inside a longer
    # product, so a table of whole log weights over all 64 graphs at n = 4
    # changed these estimates in the last bits (0x1.0eb9e46b54106p+1 for 66
    # draws): here the last draw is the one K_4 among them and its weight
    # dominates the sum. Forming each block's product from its own rows
    # keeps the counted bits on any BLAS
    specs = SPECS + ["cycle:6", "star:4"]
    betas = [-0.856, -0.983, -1.197, 0.767, 0.393, 0.519, 3.0, 1.659, 1.153, 1.07]
    model = ModelSpec([(Motif.parse(s), b) for s, b in zip(specs, betas)])
    for n_samples in (65, 66, 67):
        got = estimate_importance(model, 4, n_samples, 739477, proposal_p=0.5)
        assert got.estimate_log.hex() == _counting_importance(model, 4, n_samples, 739477, 0.5).hex()


def test_mask_index_is_the_row_of_the_mask_table():
    for m in range(1, 16):
        table = _mask_bits(m)
        rows = np.concatenate([table, table[::-1]])
        assert _mask_index(np.ascontiguousarray(rows)).tolist() == [*range(2**m), *reversed(range(2**m))]


def test_kept_tables_stay_within_their_budget():
    # 37 motifs at n = 6, each table 2^15 int64 counts (256 KiB), against a
    # cache of _COUNT_TABLES = 32: at most 8 MiB stay once all are counted
    motifs = [Motif.star(s) for s in range(2, 24)] + [Motif.cycle(k) for k in range(4, 14)]
    motifs += [Motif.edge(), Motif.triangle()] + [Motif.complete(r) for r in (4, 5, 6)]
    assert len(set(motifs)) > _COUNT_TABLES
    _kept_count_table.cache_clear()
    for h in motifs:
        _term(h)
    _mask_bits(15)
    tracemalloc.start()
    try:
        for h in motifs:
            table = _count_table(h, 6)
            assert table.dtype == np.int64 and not table.flags.writeable
        del table
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert _kept_count_table.cache_info().currsize == _COUNT_TABLES
    budget = _COUNT_TABLES * 2**15 * 8
    assert budget == 8 * 2**20
    assert retained < budget + 2**16, retained
    # a table whose counts may pass int64 (6^28 >= 2^63; K_6 has 5^28 + 5
    # closed 28-walks) is counted on every call, not kept
    kept = _kept_count_table.cache_info()
    assert _count_table(Motif.cycle(28), 6).dtype == object
    assert _kept_count_table.cache_info() == kept
