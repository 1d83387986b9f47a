"""Property tests of the chain driver against a plain per-step reference.

The reference below recomputes every Glauber on-probability from the
deltas, the way the driver did before it looked them up by delta: the
constant plus each scaled delta in model order, times _log_odds' neg_unit,
through exp, with an OverflowError read as on-probability 0. Random models
of 0 to 3 weighted terms of every motif class (edge lists included) on at
most 8 vertices, with coefficients up to +-1e308, must give the same trace,
final graph and sampled densities bit for bit; explicit examples run each
step loop past one 4096-step draw chunk, put record steps at the edges of
a chunk, and run each loop at n = 31, 61 or 100, where a row spans several
30-bit digits. Every recorded density, the law's terms' and those of one
term of each class that the law does not weight, must equal a fresh count / n^v
of the reference graph at that record, whether the chain read it from its
edge and triangle counts, from the count the one-term table path holds, or
counted it. The reference takes its pair order from itertools, not from
the code under test. More tests pin memory and work: an edge +
triangle chain, and one with two triangle-class terms, evaluate exactly
their n - 1 on-probabilities of a common-neighbour count; a chain recorded
at every step counts none of its edge-class, triangle-class or table
terms, apart from the one count that starts the held one; a cycle:8 chain
at n = 100 holds a count past 2^53 exactly; a chain whose deltas outgrow
the one-term table's
cap keeps its memory bounded, a cold chain at n = 1000 holds little more
than its pair columns, 200,000 sampled records hold about 16 bytes each
beside their output, and the stacked closed walks for a batch of cycle
rows at n = 1000 stay bounded. The last checks sampled densities whose
scales n^v reach 2^53 against Python's int division.
"""

import itertools
import math
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergmlab import graphs, mcmc
from ergmlab.graphs import Graph, Motif, _rng_from_seed, _term, hom_density_graph
from ergmlab.mcmc import (ChainConfig, TraceRecord, _auto_is_er, _log_odds, _log_odds_unit, _model_terms,
                          run_chain, sample_motif_densities)
from ergmlab.variational import ModelSpec


def reference_chain(g: Graph, terms, er_beta, seed: int, total: int, record_at, record):
    """One chain step by step, each on-probability recomputed; record(step, graph)
    at every step in record_at."""
    n = g.n
    rows = list(g.rows)
    view = SimpleNamespace(n=n, rows=rows)  # what a delta reads; the loop toggles rows in place
    rng = _rng_from_seed(seed)
    pairs = list(itertools.combinations(range(n), 2))  # pair order, apart from the code under test
    neg_unit, constant, weighted = _log_odds(terms, n)
    done = 0
    while done < total:
        count = min(4096, total - done)
        pair_idx = rng.integers(0, len(pairs), size=count).tolist()
        coins = rng.random(count).tolist()
        for idx, coin in zip(pair_idx, coins):
            i, j = pairs[idx]
            present = rows[i] >> j & 1
            if er_beta is not None:
                flip = not present or coin < math.exp(-er_beta)
            else:
                expo = constant
                for scale, term in weighted:
                    expo += scale * term.delta(view, i, j)
                try:
                    flip = (coin < 1.0 / (1.0 + math.exp(expo * neg_unit))) != present
                except OverflowError:
                    flip = present
            if flip:
                rows[i] ^= 1 << j
                rows[j] ^= 1 << i
            done += 1
            if done in record_at:
                record(done, Graph(n, list(rows)))
    return Graph(n, rows)


MOTIF_SPECS = ["star:1", "star:2", "star:3", "triangle", "cycle:4", "cycle:5", "cycle:6", "complete:4",
               "complete:5", "edgelist:0-1,1-2,2-0,2-3", "edgelist:0-1,1-2,2-3,3-4"]
COEFFICIENTS = st.one_of(
    st.floats(-2.0, 2.0, allow_nan=False),
    st.sampled_from([0.0, 1e308, -1e308, 1.7e308, -1.7e308, 1e300, -1e300]),
)


@st.composite
def models(draw):
    terms = [(Motif.edge(), draw(COEFFICIENTS))]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.integers(0, 3)):
            h = Motif.parse(draw(st.sampled_from(MOTIF_SPECS)))
        else:  # an edge list of at least two edges, isolated vertices allowed
            v = draw(st.integers(3, 5))
            edges = draw(st.lists(st.sampled_from(list(itertools.combinations(range(v), 2))), min_size=2,
                                  max_size=6, unique=True))
            h = Motif(v, edges)
        terms.append((h, draw(COEFFICIENTS)))
    return ModelSpec(terms)


# recorded beside the law's own terms: one term of each class with a
# closed-form count, which the law may not weight (an edge-list term the law
# does not weight is one drawn with coefficient 0)
UNWEIGHTED_RECORDS = [Motif.edge(), Motif.star(2), Motif.triangle(), Motif.cycle(4), Motif.complete(4)]


def _statistic(terms, g: Graph) -> float:
    return sum((b * (t.count(g) / g.n**t.motif.vertex_count) for b, t in terms), 0.0)


def _start(name: str, n: int, seed: int) -> Graph:
    if name == "random":
        return Graph.erdos_renyi(n, 0.5, _rng_from_seed(seed))
    return Graph.complete(n) if name == "complete" else Graph.empty(n)


def check_chain(model, n, start, seed, steps, every, samples, thinning):
    g = _start(start, n, seed)
    terms = _model_terms(model)
    trace, final = run_chain(ChainConfig(n, steps=steps, seed=seed, start=g, model=model), record_every=every)
    want = [TraceRecord(0, g.edge_count(), g.triangle_count(), _statistic(terms, g))]
    record_at = set(range(every, steps, every)) | {steps} if steps else set()

    def record(step, h):
        want.append(TraceRecord(step, h.edge_count(), h.triangle_count(), _statistic(terms, h)))

    assert reference_chain(g, terms, None, seed, steps, record_at, record) == final
    assert [(r.step, r.edges, r.triangles, r.statistic.hex()) for r in trace] == [
        (r.step, r.edges, r.triangles, r.statistic.hex()) for r in want]

    # sample_motif_densities: 10% burn-in, one row per thinning steps, and the
    # Metropolis chain for a nonnegative edge-only law
    motifs = [h for h, _ in model.terms] + UNWEIGHTED_RECORDS
    got = sample_motif_densities(model, motifs, samples, ChainConfig(n, seed=seed + 1, start=g), thinning)
    span = samples * thinning
    burn = math.ceil(span / 9.0)
    rows = []
    term_of = [_term(h) for h in motifs]
    reference_chain(g, terms, _auto_is_er(model), seed + 1, burn + span, set(range(burn + thinning,
                    burn + span + 1, thinning)),
                    lambda step, h: rows.append([t.count(h) / n**t.motif.vertex_count for t in term_of]))
    assert got.tolist() == rows


@settings(max_examples=200, deadline=None, derandomize=True)
@given(models(), st.integers(2, 8), st.sampled_from(["empty", "complete", "random"]), st.integers(0, 2**32 - 1),
       st.integers(1, 500), st.integers(1, 60), st.integers(1, 20), st.integers(1, 3))
# opposite strong terms: log-odds in units of a power of two, on-probabilities 0 and 1
@example(ModelSpec([(Motif.edge(), -1e308), (Motif.triangle(), 1e308)]), 6, "complete", 5, 400, 7, 10, 2)
@example(ModelSpec([(Motif.edge(), 1e308), (Motif.parse("star:2"), -1.7e308), (Motif.cycle(4), 1e300),
                    (Motif.parse("edgelist:0-1,1-2,2-0,2-3"), -1e308)]), 7, "random", 6, 500, 9, 12, 3)
# no weighted term: a zero triangle coefficient, and an edge-only Metropolis law
@example(ModelSpec([(Motif.edge(), -0.4), (Motif.triangle(), 0.0)]), 8, "random", 7, 500, 11, 15, 2)
@example(ModelSpec([(Motif.edge(), 0.3)]), 5, "empty", 8, 300, 13, 10, 1)
# a chain of no steps records its start only
@example(ModelSpec.edge_triangle(-0.3, 0.4), 4, "random", 9, 0, 5, 3, 1)
# past one 4096-step draw chunk, one example per step loop; records 4095,
# 4097 or 1 steps apart, samples thinned by 1, 3 or 13 after a burn-in that
# ends mid-chunk (1,000 or 1,012 steps)
@example(ModelSpec([(Motif.edge(), 0.3)]), 6, "random", 11, 9000, 4097, 9000, 1)  # Metropolis samples
@example(ModelSpec([(Motif.edge(), -0.4), (Motif.triangle(), 0.0)]), 8, "random", 12, 9000, 4095, 3000, 3)
@example(ModelSpec.edge_triangle(-0.3, 0.4), 7, "empty", 13, 9000, 1, 9000, 1)
@example(ModelSpec([(Motif.edge(), -0.2), (Motif.parse("star:2"), -0.1)]), 8, "random", 14, 9000, 4097, 700, 13)
@example(ModelSpec([(Motif.edge(), -0.2), (Motif.triangle(), 0.3), (Motif.cycle(4), -0.1)]), 6, "complete", 15,
         9000, 4095, 3000, 3)
# record flags at the edges of a chunk: records on each chunk's last step
# and a run that ends on a chunk end; a burn-in of 4,096 steps that ends on
# the first chunk's end; records 11 and 12 steps apart; records sparser
# than the run, which records its last step only
@example(ModelSpec.edge_triangle(-0.3, 0.4), 7, "random", 16, 8192, 4096, 40, 2)
@example(ModelSpec([(Motif.edge(), -0.4), (Motif.triangle(), 0.0)]), 8, "random", 17, 300, 7, 12288, 3)
@example(ModelSpec([(Motif.edge(), -0.2), (Motif.parse("star:2"), -0.1)]), 7, "empty", 18, 5000, 11, 800, 11)
@example(ModelSpec.edge_triangle(-0.3, 0.4), 8, "complete", 19, 5000, 12, 800, 12)
@example(ModelSpec([(Motif.edge(), 0.3)]), 6, "random", 20, 300, 500, 20, 1)
# two weighted terms with a common-neighbour rule, read from the list of n - 1
# on-probabilities: the triangle and a triangle with an isolated vertex, past
# one draw chunk; the triangle twice with opposite signs; opposite strong ones
@example(ModelSpec([(Motif.edge(), -0.3), (Motif.triangle(), 0.1), (Motif.parse("edgelist:0-1,1-3,0-3"), 0.15)]),
         8, "random", 21, 9000, 4097, 700, 3)
@example(ModelSpec([(Motif.edge(), -0.2), (Motif.triangle(), 0.7), (Motif.triangle(), -0.7)]), 6, "complete", 22,
         500, 9, 12, 2)
@example(ModelSpec([(Motif.edge(), 1e308), (Motif.triangle(), 1e308), (Motif.parse("edgelist:0-2,2-3,0-3"), -1.7e308)]),
         7, "random", 23, 400, 7, 10, 2)
# one weighted term through the on-probability table, whose count the chain
# holds and records: cycle:4 past one draw chunk, complete:4 at every step,
# an edge list with an isolated vertex, and star:3 at +-1e308
@example(ModelSpec([(Motif.edge(), -0.2), (Motif.cycle(4), 0.15)]), 8, "random", 24, 9000, 4097, 1500, 3)
@example(ModelSpec([(Motif.edge(), 0.1), (Motif.complete(4), -0.3)]), 7, "complete", 25, 600, 1, 60, 1)
@example(ModelSpec([(Motif.edge(), -0.1), (Motif.parse("edgelist:0-1,1-2,2-3,3-5"), 0.4)]), 8, "random", 26, 700, 1,
         40, 2)
@example(ModelSpec([(Motif.edge(), 1e308), (Motif.star(3), -1e308)]), 6, "random", 27, 400, 1, 20, 1)
# an edge-list term recorded but not weighted, beside a weighted cycle:5
@example(ModelSpec([(Motif.edge(), -0.3), (Motif.parse("edgelist:0-1,1-2,2-3,3-5"), 0.0), (Motif.cycle(5), 0.05)]),
         7, "random", 28, 300, 7, 20, 1)
# rows wider than one 30-bit digit: the summed loop at n = 31, the one-term
# table loop at n = 61, and at n = 100 the common-neighbour loop from the
# complete graph and the Metropolis loop (the samples of an edge-only law)
@example(ModelSpec([(Motif.edge(), -0.2), (Motif.triangle(), 0.1), (Motif.parse("star:2"), -0.1)]), 31, "random",
         29, 5000, 499, 10, 400)
@example(ModelSpec([(Motif.edge(), -0.2), (Motif.parse("star:2"), -0.1)]), 61, "random", 30, 5000, 499, 10, 400)
@example(ModelSpec.edge_triangle(-0.5, 0.2), 100, "complete", 31, 5000, 499, 10, 400)
@example(ModelSpec([(Motif.edge(), 0.3)]), 100, "random", 32, 5000, 499, 10, 400)
def test_chains_match_the_step_by_step_reference(model, n, start, seed, steps, every, samples, thinning):
    check_chain(model, n, start, seed, steps, every, samples, thinning)


def test_strong_coefficients_reach_the_unit_and_the_overflow_branch():
    # n^2 (1e300 + 1e308) is beyond double range, so the log-odds run in units
    # of a power of two; a pair with no common neighbour has log-odds -2e300,
    # whose on-probability is 0 through exp's OverflowError, any other pair
    # 6 c 1e308 / 6 > 0 and on-probability 1
    model = ModelSpec([(Motif.edge(), -1e300), (Motif.triangle(), 1e308)])
    assert _log_odds_unit(_model_terms(model), 6) > 1.0
    overflows = []
    real_exp = math.exp

    def exp(x):
        try:
            return real_exp(x)
        except OverflowError:
            overflows.append(x)
            raise

    with mock.patch.object(math, "exp", exp):
        run_chain(ChainConfig(6, steps=400, seed=5, start=Graph.erdos_renyi(6, 0.3, _rng_from_seed(5)), model=model))
    assert overflows
    check_chain(model, 6, "empty", 5, 400, 7, 10, 2)
    check_chain(model, 6, "random", 9, 400, 7, 10, 2)


def test_edge_triangle_chain_evaluates_one_on_probability_per_common_neighbour_count():
    # a triangle delta is 6 times the pair's common neighbours, 0 to n - 2,
    # so a chain at n = 12 makes its list of the 11 on-probabilities up front
    # and evaluates no other, in any number of steps; so does a chain of two
    # triangle-class terms, the triangle and one with an isolated vertex
    for model in (ModelSpec.edge_triangle(-0.3, 0.5),
                  ModelSpec([(Motif.edge(), -0.3), (Motif.triangle(), 0.1), (Motif.parse("edgelist:0-1,1-3,0-3"), 0.15)])):
        for steps in (0, 3000):
            with mock.patch.object(math, "exp", wraps=math.exp) as exp:
                run_chain(ChainConfig(12, steps=steps, seed=103, model=model))
            assert exp.call_count == 11


def test_records_count_no_rule_term_and_not_the_held_one():
    # a record pushes the edge and triangle counts, from which the edge- and
    # triangle-class terms read their densities, and the table path's term
    # reads the count the chain holds, which one count starts; only a
    # recorded term with neither (star:2 here) is counted, once a record
    calls = {}

    def counted(cls):
        real = cls.count

        def count(self, g):
            calls[cls.__name__] = calls.get(cls.__name__, 0) + 1
            return real(self, g)

        return mock.patch.object(cls, "count", count)

    also = [Motif.parse("star:1"), Motif.triangle(), Motif.parse("edgelist:0-1,1-3,0-3"), Motif.star(2)]
    laws = [(Motif.cycle(4), {"_CycleTerm": 1}), (Motif.complete(4), {"_CompleteTerm": 1}), (Motif.triangle(), {}),
            (None, {})]  # None: an edge-only law, the Metropolis chain when sampled
    for motif, held in laws:
        law = ModelSpec([(Motif.edge(), 0.2)] + ([(motif, -0.1)] if motif else []))
        with counted(graphs._EdgeTerm), counted(graphs._StarTerm), counted(graphs._TriangleTerm), \
                counted(graphs._CycleTerm), counted(graphs._CompleteTerm):
            calls.clear()
            trace, _ = run_chain(ChainConfig(12, steps=3000, seed=6, model=law), record_every=1)
            assert len(trace) == 3001 and calls == held
            calls.clear()
            dens = sample_motif_densities(law, list(law.motifs) + also, 2000, ChainConfig(12, seed=7))
            assert dens.shape == (2000, len(law.motifs) + 4) and calls == {**held, "_StarTerm": 2000}


def test_metropolis_traces_match_the_reference():
    # the Metropolis trace: the reference graph's edge and triangle counts at
    # each record and the statistic er_beta E / n^2 as Python forms it, inf
    # (and no numpy warning) where er_beta E is beyond double range
    g = Graph.erdos_renyi(7, 0.4, _rng_from_seed(3))
    for beta in (0.4, 1e308):
        trace, final = run_chain(ChainConfig(7, steps=600, seed=4, start=g, er_beta=beta), record_every=9)
        want = [(0, g.edge_count(), g.triangle_count(), beta * g.edge_count() / 49)]
        record_at = set(range(9, 600, 9)) | {600}
        assert reference_chain(g, [], beta, 4, 600, record_at, lambda step, h: want.append(
            (step, h.edge_count(), h.triangle_count(), beta * h.edge_count() / 49))) == final
        assert [(r.step, r.edges, r.triangles, r.statistic) for r in trace] == want
    assert trace[-1].statistic == math.inf


def test_a_held_count_past_two_to_the_53_stays_exact():
    # from K_100 a cycle:8 chain at coefficient 1/4 drops a few edges in 300
    # steps and keeps hom(C_8, G), near 99^8, above 2^53: the count the table
    # path holds must stay an exact int, so the last record's density (the
    # statistic times 4, exact) is hom_density_graph of the final graph
    c8 = Motif.cycle(8)
    law = ModelSpec([(c8, 0.25)])
    trace, final = run_chain(ChainConfig(100, steps=300, seed=1, start="complete", model=law), record_every=100)
    assert 4940 <= final.edge_count() < 4950
    assert _term(c8).count(final) > 2**53
    assert (4.0 * trace[-1].statistic).hex() == hom_density_graph(c8, final).hex()


def test_sampled_records_hold_about_sixteen_bytes_each():
    # 200,000 records at thinning 1 push 16 bytes each (the edge and triangle
    # counts) and the densities are built once, after the chain, into the
    # (200,000, 2) output: the run peaks near 6.7 MB traced, under 16 bytes
    # a record plus the output plus 2 MiB for the buffer's growth and one
    # draw chunk's lists; a list of two floats per record would add about
    # 128 bytes a record. One draw first imports what numpy.random loads on
    # first use (579 KiB traced), so the peak measures the chain alone
    samples = 200_000
    law = ModelSpec.edge_triangle(-0.2, 0.1)
    _rng_from_seed(8).random()
    tracemalloc.start()
    try:
        dens = sample_motif_densities(law, [Motif.edge(), Motif.triangle()], samples, ChainConfig(30, seed=8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dens.shape == (samples, 2)
    assert peak < 16 * samples + dens.nbytes + 2 * 2**20, peak


def test_chain_memory_stays_bounded_past_the_table_cap():
    # a star:3 delta is f(d_i) + f(d_j) with f cubic in the degree; from a
    # threshold graph, whose degrees span 0 to n - 1, 60,000 steps at n = 400
    # see about 50,000 distinct deltas, which would hold about 3.5 MB traced
    # without the cap; the table stops at 4,096 keys (about 0.4 MB) and the
    # chain peaks near 1.2 MB
    n = 400
    start = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if i + j >= n])
    model = ModelSpec([(Motif.edge(), -0.1), (Motif.parse("star:3"), 0.001)])
    config = ChainConfig(n, steps=60_000, seed=3, start=start, model=model)
    calls = 0
    real_exp = math.exp

    def exp(x):
        nonlocal calls
        calls += 1
        return real_exp(x)

    with mock.patch.object(math, "exp", exp):
        run_chain(config, record_every=60_000)
    assert calls > 2 * mcmc._ON_PROBABILITY_TABLE_CAP  # each miss past the cap evaluates again
    tracemalloc.start()
    try:
        run_chain(config, record_every=60_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


def test_cold_chain_at_n_1000_holds_only_its_pair_columns():
    # a chain gathers its pair ends from the two uint16 columns of
    # _vertex_pairs, 1.9 MiB at n = 1000, and this run holds about 2.6 MiB
    # traced afterwards; a tuple of the C(n, 2) pair tuples held 31.2 MiB
    graphs._vertex_pairs.cache_clear()
    model = ModelSpec.edge_triangle(-0.3, 0.2)
    tracemalloc.start()
    try:
        run_chain(ChainConfig(1000, steps=10, seed=4, model=model))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 8 * 2**20, held


def test_cycle_batch_memory_stays_bounded_at_large_n():
    # from n = 256 on a block of the stacked walks is one graph, whose inner
    # product runs in row blocks: cycle:5 on four G(1000, 1/2) rows holds the
    # pair indices, one float32 adjacency and A^2, about 17.5 MiB traced
    # (the edge-list contraction that counted them before peaked at 53 MiB),
    # under the 24 MiB the _CycleTerm docstring states
    n = 1000
    bits = (_rng_from_seed(5).random((4, n * (n - 1) // 2)) < 0.5).astype(np.int8)
    tracemalloc.start()
    try:
        _term(Motif.cycle(5)).batch(bits, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20, peak


def test_sampled_densities_divide_exactly_past_two_to_the_53():
    # at n = 500 the scales 500^v of star:5, star:6 and star:7 reach 2^53, so
    # a count need not be a double (star:7's counts pass 2^63 as well): each density
    # must be Python's correctly rounded count / 500^v. star:5 counts stay even
    # and below 2^54, so they are doubles; about a quarter of the star:6 and
    # star:7 counts round when converted to float, and dividing that float
    # rounds again
    n, samples = 500, 100
    law = ModelSpec.edge_only(0.5)  # sampled by the Metropolis chain
    g = Graph.complete(n)
    motifs = [Motif.star(5), Motif.star(6), Motif.star(7), Motif.edge()]
    got = sample_motif_densities(law, motifs, samples, ChainConfig(n, seed=3, start=g))
    burn = math.ceil(samples / 9.0)
    want = []
    reference_chain(g, [], _auto_is_er(law), 3, burn + samples, set(range(burn + 1, burn + samples + 1)),
                    lambda step, h: want.append([_term(m).count(h) / n**m.vertex_count for m in motifs]))
    assert got.tolist() == want
    assert _term(Motif.star(5)).count(g) >= 2**53
    # no motif: one empty row per sample
    empty = sample_motif_densities(law, [], 7, ChainConfig(n, seed=3))
    assert empty.shape == (7, 0) and empty.dtype == float
