import itertools
import math
import time
import tracemalloc
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from ergmlab.errors import DomainError, EstimatorCollapseError, InstanceTooLargeError, OverflowGuardError
from ergmlab.graphs import Graph, Motif
from ergmlab.mcmc import (
    ChainConfig,
    batch_motif_densities,
    chi_square_distance,
    enumerate_psi_n,
    er_eigen,
    er_log_partition,
    er_mcmle_variance_constants,
    er_stationary,
    er_transition_matrix,
    estimate_acceptance_ratio,
    estimate_importance,
    estimate_mcmle,
    fourier_coeff_exp_edges,
    glauber_transition_matrix,
    mixing_cutoff,
    model_log_weights,
    run_chain,
    sample_motif_densities,
    variance_mcmc_mean,
)
from ergmlab.graphs import (
    _BATCH_BLOCK_ENTRIES,
    _PRODUCT_BLOCK_ENTRIES,
    _TRIANGLE_PRODUCT_MIN_N,
    _indicator_graph,
    _term,
    classify_motif,
    count_homomorphisms,
    hom_density_graph,
)
from ergmlab.mcmc import (_DRAW_BLOCK_EDGES, _edge_bits, _log_factorial, _log_odds, _log_odds_unit,
                          _logsumexp, _model_terms, _on_probability, _rng_from_seed)
from ergmlab.variational import ModelSpec, maximize_scalar
from homomorphism_oracle import search_homomorphisms


def all_states(m):
    return [[(s >> t) & 1 for t in range(m)] for s in range(1 << m)]


# -- single steps ------------------------------------------------------------------


def test_metropolis_always_adds_missing_edges():
    # from the empty graph every proposed pair is missing, so each of the
    # first steps adds an edge
    for seed in range(5):
        trace, final = run_chain(ChainConfig(4, steps=1, seed=seed, er_beta=1.5))
        assert final.edge_count() == 1
        assert [r.edges for r in trace] == [0, 1]


def test_metropolis_rejects_negative_beta():
    with pytest.raises(DomainError, match="complement"):
        run_chain(ChainConfig(3, steps=1, seed=0, er_beta=-0.5))


def test_metropolis_detailed_balance_dense():
    # all 64 ordered state pairs at n = 3
    for beta in (0.0, 0.7):
        k = er_transition_matrix(beta, 3)
        pi = er_stationary(beta, 3)
        flow = pi[:, None] * k
        assert np.max(np.abs(flow - flow.T)) < 1e-15


def test_beta_zero_chain_is_symmetric_walk():
    k = er_transition_matrix(0.0, 3)
    pi = er_stationary(0.0, 3)
    assert np.allclose(pi, 1 / 8)
    assert np.allclose(k, k.T)


def test_glauber_stationarity_dense_edge_triangle():
    cases = [
        (ModelSpec.edge_triangle(-0.45, 0.2), 3),
        # motifs outside the closed forms: the chain runs on the edge-rooted
        # change statistic, the weights on batch counts
        (ModelSpec([(Motif.edge(), -0.3), (Motif.cycle(4), 0.9)]), 4),
        (ModelSpec([(Motif.edge(), -0.3), (Motif.complete(4), 1.5)]), 4),
        (ModelSpec([(Motif.edge(), -0.3), (Motif.parse("edgelist:0-1,1-2,2-3,1-3"), 0.7)]), 4),
        # every edge term folds into the log-odds' constant: one after another
        # term, one with an isolated vertex, and two of them
        (ModelSpec([(Motif.triangle(), 0.3), (Motif.edge(), -0.2)]), 4),
        (ModelSpec([(Motif(3, [(0, 1)]), -0.2), (Motif.triangle(), 0.3)]), 4),
        (ModelSpec([(Motif.edge(), -0.3), (Motif.star(2), 0.4), (Motif.edge(), 0.1)]), 4),
        # n = 5 is the largest size the dense guard allows: 2^10 states
        (ModelSpec.edge_triangle(-0.45, 0.2), 5),
        (ModelSpec([(Motif.edge(), -0.3), (Motif.star(2), 0.4), (Motif.edge(), 0.1)]), 5),
    ]
    for model, n in cases:
        k = glauber_transition_matrix(model, n)
        logw = model_log_weights(model, n)
        pi = np.exp(logw - _logsumexp(logw))
        assert 0.5 * np.abs(pi @ k - pi).sum() < 1e-12
        flow = pi[:, None] * k
        assert np.max(np.abs(flow - flow.T)) < 1e-15


def test_glauber_edge_only_on_probability():
    # conditional on-probability for the pure edge model is the closed form;
    # at n = 2 every step resamples the one edge slot from it, so the states
    # after each step are independent draws
    model = ModelSpec.edge_only(0.4)
    p_on = math.exp(0.8) / (1 + math.exp(0.8))
    trials = 4000
    trace, _ = run_chain(ChainConfig(2, steps=trials, seed=7, model=model), record_every=1)
    assert len(trace) == trials + 1
    counts = sum(r.edges for r in trace[1:])
    assert counts / trials == pytest.approx(p_on, abs=0.02)


def test_glauber_triangle_delta_is_common_neighbors():
    # toggling an edge changes the triangle count by the common neighborhood size
    r = _rng_from_seed(3)
    for _ in range(20):
        g = Graph.erdos_renyi(7, 0.5, r)
        i, j = 0, 1
        a = g.adjacency_matrix()
        c = (a @ a)[i, j]
        g2 = g.with_edge_toggled(i, j)
        sign = 1 if g2.has_edge(i, j) else -1
        assert g2.triangle_count() - g.triangle_count() == sign * c


# -- spectral decomposition ----------------------------------------------------------


def test_er_eigen_trivial_components():
    m = 6
    comp0 = er_eigen([0] * m, 0.9, m)
    assert comp0.eigenvalue == 1.0
    assert comp0.evaluate([1, 0, 1, 1, 0, 0]) == 1.0
    full = er_eigen([1] * m, 0.0, m)
    assert full.eigenvalue == pytest.approx(-1.0)


def test_er_eigen_validates():
    with pytest.raises(DomainError):
        er_eigen([0, 1], 0.5, 3)
    with pytest.raises(DomainError):
        er_eigen([0, 2, 0], 0.5, 3)


def test_spectral_completeness_n3():
    for beta in (0.0, 0.5, 1.0):
        m = 3
        k = er_transition_matrix(beta, 3)
        pi = er_stationary(beta, 3)
        states = all_states(m)
        vecs = []
        for xi in all_states(m):
            comp = er_eigen(xi, beta, m)
            psi = np.array([comp.evaluate(x) for x in states])
            assert np.max(np.abs(k @ psi - comp.eigenvalue * psi)) < 1e-12
            vecs.append(psi)
        gram = np.array([[np.sum(pi * a * b) for b in vecs] for a in vecs])
        assert np.max(np.abs(gram - np.eye(8))) < 1e-12
        formula = sorted(
            1 - j * (1 + math.exp(-beta)) / m
            for j in range(m + 1)
            for _ in range(math.comb(m, j))
        )
        dense = sorted(np.linalg.eigvals(k).real)
        assert np.max(np.abs(np.array(formula) - dense)) < 1e-10


# -- chi-square distance ----------------------------------------------------------------


def test_chi_square_at_zero_steps():
    for n, beta in ((3, 0.3), (4, 1.0)):
        m = math.comb(n, 2)
        expected = (1 + math.exp(beta)) ** m - 1
        assert chi_square_distance("empty", beta, n, 0) == pytest.approx(expected, rel=1e-12)


def test_chi_square_matches_matrix_power_oracle():
    n, m = 3, 3
    for beta in (0.0, 0.5, 1.0):
        k = er_transition_matrix(beta, n)
        pi = er_stationary(beta, n)
        for ell in range(21):
            kl = np.linalg.matrix_power(k, ell)
            for start, idx in (("empty", 0), ("complete", 7)):
                brute = float(np.sum((kl[idx] - pi) ** 2 / pi))
                assert chi_square_distance(start, beta, n, ell) == pytest.approx(
                    brute, abs=1e-10
                )


def test_chi_square_cutoff_steepness():
    n, beta, c = 30, 1.0, 5.0
    ell = mixing_cutoff(n, beta, c)
    assert chi_square_distance("empty", beta, n, ell) * 10 <= chi_square_distance(
        "empty", beta, n, ell / 2
    )


def test_chi_square_near_limit_at_n30():
    # already at n = 30 the value at the cutoff is close to its limit
    ell = mixing_cutoff(30, 1.0, 8.0)
    target = math.exp(math.exp(1.0 - 8.0)) - 1
    assert chi_square_distance("empty", 1.0, 30, ell) == pytest.approx(target, rel=0.05)


def test_chi_square_lower_bound_inequality():
    # the leading spectral term lower-bounds the full sum
    for n in (10, 30):
        for beta in (0.0, 0.5, 1.0):
            for c in (0.0, 2.0, 6.0):
                m = math.comb(n, 2)
                ell = mixing_cutoff(n, beta, c)
                lead = beta + math.log(m) + 2 * ell * math.log(1 - (1 + math.exp(-beta)) / m)
                full = chi_square_distance("empty", beta, n, ell, log=True)
                assert full >= lead - 1e-12


def test_log_factorial_matches_lgamma():
    # the geometric grid reaches past m = C(10_000, 2), the size guard's limit
    x = np.concatenate([np.arange(5001.0), np.round(np.geomspace(5001.0, 5e7, 400))])
    got = _log_factorial(x)
    for xv, g in zip(x.tolist(), got.tolist()):
        ref = math.lgamma(xv + 1)
        assert abs(g - ref) <= 1e-13 * ref, xv


# chi_square_distance values at the cutoff (beta = 0.7, c = 2), recorded with
# the per-weight math.lgamma sum it replaced. Both versions take
# log C(m, j) as a difference of lgamma values of size about 1e8, whose
# rounding is about 1e-8 absolute (at m = 4,498,500 and j = 10^6 both were
# 1.26e-8 from the exact math.log(math.comb(m, j))), so the values can agree
# only to about 1e-8 relative.
CHI_SQUARE_AT_CUTOFF = {
    (1000, "empty"): 0.3132747965321614,
    (1000, "complete"): 0.06951351206099741,
    (3000, "empty"): 0.31328388682253144,
    (3000, "complete"): 0.06951503272625406,
}


def test_chi_square_large_n_matches_recorded_values():
    for (n, start), value in CHI_SQUARE_AT_CUTOFF.items():
        ell = mixing_cutoff(n, 0.7, 2.0)
        assert chi_square_distance(start, 0.7, n, ell) == pytest.approx(value, rel=1e-8), (n, start)


def _chi_square_full_logs(beta, n, ell, chunk=2**12):
    """log chi-square of the empty and the complete start, summing every
    weight j = 1..m with no tail cut, in chunks of 2^12 weights."""
    m = math.comb(n, 2)
    rate = 1.0 + math.exp(-beta)
    logs = [-math.inf, -math.inf]
    for lo in range(1, m + 1, chunk):
        js = np.arange(lo, min(lo + chunk, m + 1), dtype=np.float64)
        logc = math.lgamma(m + 1) - (_log_factorial(js) + _log_factorial(m - js))
        decay = 0.0
        if ell != 0:
            base = np.abs(1.0 - js * rate / m)
            with np.errstate(divide="ignore"):
                decay = np.where(base > 0.0, 2.0 * ell * np.log(base), -np.inf)
        for k, sign in enumerate((1.0, -1.0)):
            logs[k] = np.logaddexp(logs[k], _logsumexp(sign * beta * js + logc + decay))
    return logs


@pytest.mark.parametrize("n", [91, 200, 1000])
def test_chi_square_tail_cut_matches_full_sum(n):
    # the early stop drops terms provably below e^-40 of the sum, so every
    # value stays within 1e-14 relative of the full sum (on the log scale for
    # values beyond double range); at n = 91 (m = 4095, one chunk) nothing can
    # be cut, and the value is the full sum's to the bit
    for beta in (0.0, 0.3, 1.0):
        for ell in (0.0, 3.0, mixing_cutoff(n, beta, 2.0)):
            for start, ref in zip(("empty", "complete"), _chi_square_full_logs(beta, n, ell)):
                got = chi_square_distance(start, beta, n, ell, log=True)
                if n == 91:
                    assert got == ref, (beta, ell, start)
                assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref)), (beta, ell, start)
                if ref < 700.0:
                    value = chi_square_distance(start, beta, n, ell)
                    assert value == pytest.approx(math.exp(ref), rel=1e-14, abs=0.0)


def test_chi_square_tail_cut_at_the_size_limit():
    # n = 10,000 (m = 49,995,000) at the cutoff: the full sum takes seconds,
    # the cut sum stops after its first chunk
    n, beta = 10_000, 0.5
    ell = mixing_cutoff(n, beta, 2.0)
    refs = _chi_square_full_logs(beta, n, ell)
    for start, ref in zip(("empty", "complete"), refs):
        t0 = time.perf_counter()
        value = chi_square_distance(start, beta, n, ell)
        assert time.perf_counter() - t0 < 1.0
        assert value == pytest.approx(math.exp(ref), rel=1e-14, abs=0.0), start


def test_chi_square_overflow_guard():
    with pytest.raises(OverflowGuardError, match="log=True"):
        chi_square_distance("empty", 1.0, 60, 0)
    assert chi_square_distance("empty", 1.0, 60, 0, log=True) == pytest.approx(
        er_log_partition(1.0, 60), rel=1e-9
    )


def test_mixing_cutoff_values_and_warning():
    m = math.comb(30, 2)
    assert mixing_cutoff(30, 0.0, 0.0) == pytest.approx(m * math.log(m) / 4)
    # the spectral gap (1 + e^{-beta})/m shrinks as beta grows, so the
    # required step count increases in beta
    assert mixing_cutoff(30, 0.0, 0.0) < mixing_cutoff(30, 0.5, 0.0) < mixing_cutoff(30, 1.0, 0.0)
    with pytest.warns(UserWarning):
        mixing_cutoff(30, 2.0, 0.0)


# -- partition function ----------------------------------------------------------------


def test_er_log_partition_enumeration():
    beta = 1.0
    logz = er_log_partition(beta, 4)
    masks = np.arange(64)
    brute = _logsumexp(beta * np.array([int(s).bit_count() for s in masks], dtype=float))
    assert logz == pytest.approx(brute, rel=1e-14)
    assert er_log_partition(0.0, 5) == pytest.approx(10 * math.log(2))
    assert er_log_partition(-60.0, 5) == pytest.approx(0.0, abs=1e-20)


def test_enumerate_psi_counting():
    for n in (3, 4, 5):
        model = ModelSpec.edge_triangle(0.0, 0.0)
        assert enumerate_psi_n(model, n) == pytest.approx(
            math.comb(n, 2) / n**2 * math.log(2)
        )


def test_enumerate_psi_matches_er_partition():
    # scaled edge statistic: n^2 T = 2 beta1 E, so the model at beta1 matches
    # the single-parameter law at 2 beta1
    n, beta1 = 4, 0.65
    psi = enumerate_psi_n(ModelSpec.edge_only(beta1), n)
    assert psi == pytest.approx(er_log_partition(2 * beta1, n) / n**2, rel=1e-12)


def test_exact_sum_keeps_zero_weights():
    # a -inf log weight is an exact zero weight: only the empty graph keeps
    # weight 1, so psi_4 = 0, and the sum reaches it without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert enumerate_psi_n(ModelSpec.edge_triangle(-1e308, 0.0), 4) == 0.0


def test_enumerate_guard():
    with pytest.raises(InstanceTooLargeError):
        enumerate_psi_n(ModelSpec.edge_only(0.0), 7)


def test_size_guards_raise_before_any_draw():
    model = ModelSpec.edge_triangle(0.2, 0.1)
    # one vertex leaves no pair to pick, even for a chain of zero steps
    with pytest.raises(DomainError, match="n >= 2"):
        run_chain(ChainConfig(1, steps=0, seed=0, model=model))
    with pytest.raises(DomainError, match="n >= 2"):
        sample_motif_densities(model, [Motif.edge()], 10, ChainConfig(1, seed=0))
    with pytest.raises(DomainError, match="n >= 2"):
        estimate_mcmle(model, model, 10, ChainConfig(1, seed=0))
    with pytest.raises(DomainError, match="n >= 2"):
        estimate_importance(model, 1, 10, seed=0)
    for n in (0, -1):
        with pytest.raises(DomainError, match="n >= 1"):
            enumerate_psi_n(model, n)
    # the one graph on one vertex has no edges, so psi_1 = 0
    assert enumerate_psi_n(model, 1) == 0.0
    # size, range and finiteness guards of the dense laws, the closed forms
    # and the batch counts
    nan = math.nan
    chain = ChainConfig(4, seed=0)
    for error, match, call in [
        (InstanceTooLargeError, "dense chain matrix", lambda: er_transition_matrix(0.5, 6)),
        (InstanceTooLargeError, "dense chain matrix", lambda: glauber_transition_matrix(model, 6)),
        # every table over the 2^C(n, 2) graphs checks n from below too: a
        # dense matrix needs a pair to pick, enumeration one vertex
        (DomainError, "dense chain matrix needs n >= 2", lambda: er_transition_matrix(0.5, 1)),
        (DomainError, "dense chain matrix needs n >= 2", lambda: glauber_transition_matrix(model, 1)),
        (DomainError, "dense chain matrix needs n >= 2", lambda: glauber_transition_matrix(model, 0)),
        (DomainError, "dense chain matrix needs n >= 2", lambda: er_transition_matrix(0.5, -2)),
        (DomainError, "enumeration needs n >= 1", lambda: er_stationary(0.5, -1)),
        (DomainError, "enumeration needs n >= 1", lambda: er_stationary(0.5, 0)),
        (DomainError, "m >= 1", lambda: er_eigen([], 0.5, 0)),
        (DomainError, "beta >= 0", lambda: er_transition_matrix(-0.5, 3)),
        (DomainError, "start", lambda: chi_square_distance("middle", 0.5, 10, 5)),
        (DomainError, "beta >= 0", lambda: chi_square_distance("empty", -0.5, 10, 5)),
        (InstanceTooLargeError, "2 <= n", lambda: chi_square_distance("empty", 0.5, 1, 5)),
        (InstanceTooLargeError, "2 <= n", lambda: chi_square_distance("empty", 0.5, 10_001, 5)),
        (DomainError, "columns", lambda: batch_motif_densities([Motif.edge()], 4, np.zeros((2, 5)))),
        # rows of 2s once read as a triangle density of 0.75
        (DomainError, "0/1 edge indicators, got 2",
         lambda: batch_motif_densities([Motif.triangle()], 4, np.full((2, 6), 2, dtype=np.int8))),
        (DomainError, "0/1 edge indicators, got -1",
         lambda: batch_motif_densities([Motif.edge()], 4, np.array([[0, 1, 0, 0, 1, 1], [1, 0, -1, 0, 0, 0]]))),
        # n past the vertex cap once asked numpy for a 3.64 TiB draw block
        (InstanceTooLargeError, "importance sampling supports n <= 4096",
         lambda: estimate_importance(model, 1_000_000, 1, 0)),
        (DomainError, "finite", lambda: er_transition_matrix(nan, 3)),
        (DomainError, "finite", lambda: chi_square_distance("empty", nan, 10, 5)),
        (DomainError, "finite", lambda: run_chain(ChainConfig(6, steps=200, seed=1, er_beta=nan))),
        (DomainError, "finite", lambda: run_chain(ChainConfig(6, steps=200, seed=1, er_beta=math.inf))),
        # a 2^21-row table at n = 7, and 2^28 rows (about 60 GB) at n = 8
        (InstanceTooLargeError, "enumeration", lambda: er_stationary(0.5, 7)),
        # the argument checks of the chain driver and the estimators
        (DomainError, "steps >= 0", lambda: run_chain(ChainConfig(6, steps=-1, seed=1, model=model))),
        (DomainError, "record_every", lambda: run_chain(ChainConfig(6, steps=10, seed=1, model=model), 0)),
        (DomainError, "thinning", lambda: sample_motif_densities(model, [Motif.edge()], 10, chain, 0)),
        (DomainError, r"proposal_p must lie in \(0, 1\)", lambda: estimate_importance(model, 4, 10, 0, 0.0)),
        (DomainError, r"proposal_p must lie in \(0, 1\)", lambda: estimate_importance(model, 4, 10, 0, 1.0)),
        (DomainError, "alpha_kind", lambda: estimate_acceptance_ratio(model, model, "median", 10, 10, chain)),
        # a -1e308 edge coefficient overflows the target draws' log weights,
        # so the denominator's log mean is not finite; the overflow is caught
        # where it happens, before numpy can warn
        (EstimatorCollapseError, "denominator sample mean collapsed", lambda: estimate_acceptance_ratio(
            model, ModelSpec.edge_triangle(-1e308, 0.0), "geometric-mean", 200, 200, ChainConfig(4, seed=1))),
        # MCMLE reweights by the same reduction, so its overflow raises the same way
        (EstimatorCollapseError, "reweighted sample mean collapsed", lambda: estimate_mcmle(
            ModelSpec.edge_triangle(-1e308, 0.0), model, 200, ChainConfig(4, seed=1))),
        # a +inf log weight in the exact and importance sums would read nan
        (OverflowGuardError, "exceeds double range",
         lambda: enumerate_psi_n(ModelSpec.edge_triangle(1e308, 0.0), 4)),
        (OverflowGuardError, "exceeds double range",
         lambda: estimate_importance(ModelSpec.edge_triangle(1e308, 0.0), 4, 200, 0, 0.5)),
        # e^{beta |xi| / 2} overflows once 1.5 beta > 709.78
        (OverflowGuardError, "eigenfunction value", lambda: er_eigen((1, 1, 1), 500.0, 3).evaluate((0, 0, 0))),
        # the step count of the chi-square distance is finite and >= 0
        (DomainError, "ell >= 0", lambda: chi_square_distance("empty", 0.5, 10, -5)),
        (DomainError, "ell >= 0", lambda: chi_square_distance("empty", 0.5, 10, nan)),
        (DomainError, "ell >= 0", lambda: chi_square_distance("empty", 0.5, 10, math.inf)),
        (DomainError, "start graph size",
         lambda: run_chain(ChainConfig(5, steps=0, start=Graph.empty(4), model=model))),
        (DomainError, "unknown start 'middle'",
         lambda: run_chain(ChainConfig(5, steps=0, start="middle", model=model))),
        (DomainError, "edge-indicator length", lambda: er_eigen((0, 1, 0), 0.5, 3).evaluate((0, 1))),
        (DomainError, "n >= 2", lambda: er_log_partition(0.5, 1)),
        (DomainError, "0 <= j <= m", lambda: fourier_coeff_exp_edges(0.1, 0.5, -1, 3)),
        # the closed forms need two vertices and finite inputs, and take the
        # chain's beta >= 0
        (DomainError, "n >= 2", lambda: mixing_cutoff(1, 0.5, 2.0)),
        (DomainError, "offset c must be finite", lambda: mixing_cutoff(10, 0.5, nan)),
        (DomainError, "n >= 2", lambda: er_mcmle_variance_constants(0.1, 0.2, 1)),
        (DomainError, "finite", lambda: er_mcmle_variance_constants(nan, 0.2, 4)),
        (DomainError, "finite", lambda: fourier_coeff_exp_edges(nan, 0.5, 1, 3)),
        (DomainError, "beta >= 0", lambda: er_eigen([0, 1, 0], -800.0, 3)),
        # (1 - e^800) (1 + e^800.5)^2 = -e^2401.0 is beyond double range
        (OverflowGuardError, "exceeds double range", lambda: fourier_coeff_exp_edges(800.0, 0.5, 1, 3)),
        (DomainError, "must align", lambda: variance_mcmc_mean([0.1, 0.2], [0.5], 10)),
        (DomainError, "n_samples >= 1", lambda: variance_mcmc_mean([0.1], [0.5], 0)),
        # no transition matrix has an eigenvalue below -1; -2 once gave a
        # negative asymptotic variance, -inf nan variances
        (DomainError, r"must lie in \[-1, 1\)", lambda: variance_mcmc_mean([1.0], [-2.0], 3)),
        (DomainError, r"must lie in \[-1, 1\)", lambda: variance_mcmc_mean([1.0], [-math.inf], 3)),
        # one beta rule for the add/delete chain, finite then >= 0: -inf once
        # read "beta >= 0" in the chain and the matrix, "finite" elsewhere
        (DomainError, "finite", lambda: run_chain(ChainConfig(6, steps=200, seed=1, er_beta=-math.inf))),
        (DomainError, "finite", lambda: er_transition_matrix(-math.inf, 3)),
        (DomainError, "finite", lambda: chi_square_distance("empty", -math.inf, 10, 5)),
        (DomainError, "beta >= 0", lambda: run_chain(ChainConfig(6, steps=200, seed=1, er_beta=-0.5))),
        # the estimators once ignored a config's steps, er_beta and model
        (DomainError, "a chain with steps, er_beta and model unset",
         lambda: sample_motif_densities(model, [Motif.edge()], 10, ChainConfig(4, steps=50, seed=0))),
        (DomainError, "a chain with steps, er_beta and model unset",
         lambda: estimate_mcmle(model, model, 10, ChainConfig(4, seed=0, er_beta=0.5))),
        (DomainError, "a chain with steps, er_beta and model unset",
         lambda: estimate_acceptance_ratio(model, model, "constant", 10, 10, ChainConfig(4, seed=0, model=model))),
    ]:
        # every guard raises without a numpy RuntimeWarning first
        with pytest.raises(error, match=match), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            call()
    # the closed forms of the independent-edge chain take only a finite beta
    for beta in (nan, math.inf, -math.inf):
        for call in [
            lambda: er_stationary(beta, 3),
            lambda: er_eigen((0, 1, 0), beta, 3),
            lambda: mixing_cutoff(30, beta, 0.0),
            lambda: er_log_partition(beta, 4),
        ]:
            with pytest.raises(DomainError, match="finite"):
                call()


def test_seeds_are_integers():
    # a seed went through int(), so 2.9 keyed seed 2's stream and returned its
    # estimate bit for bit; Python and numpy integers keep their streams
    model = ModelSpec.edge_triangle(-0.3, 0.2)
    for seed in (2.9, 2.0, "2"):
        with pytest.raises(DomainError, match=f"seed must be an integer, got {seed!r}"):
            estimate_importance(model, 6, 100, seed)
        with pytest.raises(DomainError, match="seed must be an integer"):
            run_chain(ChainConfig(6, steps=100, seed=seed, model=model))
    want = estimate_importance(model, 6, 100, 2).estimate_log
    chain = run_chain(ChainConfig(6, steps=300, seed=2, model=model))
    for seed in (np.int64(2), np.uint8(2), 2 + 2**64):
        assert estimate_importance(model, 6, 100, seed).estimate_log == want
        assert run_chain(ChainConfig(6, steps=300, seed=seed, model=model)) == chain


def test_counts_are_integers():
    # a float count once raised a raw TypeError from range(), and a bool step
    # count ended the trace at step=True
    model = ModelSpec.edge_triangle(-0.3, 0.2)
    chain = ChainConfig(6, seed=1)
    for match, call in [
        ("steps must be an integer, got 100.0", lambda: run_chain(ChainConfig(6, steps=100.0, model=model))),
        ("record_every must be an integer, got 2.5", lambda: run_chain(ChainConfig(6, steps=10, model=model), 2.5)),
        ("n_samples must be an integer, got 10.0", lambda: sample_motif_densities(model, model.motifs, 10.0, chain)),
        ("thinning must be an integer, got 1.5", lambda: sample_motif_densities(model, model.motifs, 10, chain, 1.5)),
        ("n_samples must be an integer, got '10'", lambda: estimate_mcmle(model, model, "10", chain)),
        ("thinning must be an integer, got 1.5", lambda: estimate_mcmle(model, model, 10, chain, 1.5)),
        ("n_samples_ref must be an integer, got 10.0",
         lambda: estimate_acceptance_ratio(model, model, "constant", 10.0, 10, chain)),
        ("n_samples_target must be an integer, got '10'",
         lambda: estimate_acceptance_ratio(model, model, "constant", 10, "10", chain)),
        ("thinning must be an integer, got 1.5",
         lambda: estimate_acceptance_ratio(model, model, "constant", 10, 10, chain, 1.5)),
        ("n_samples must be an integer, got 10.0", lambda: estimate_importance(model, 6, 10.0, 1)),
        ("vertex count must be an integer, got 6.0", lambda: run_chain(ChainConfig(6.0, steps=10, model=model))),
        # each of these raised a raw TypeError or returned a value
        ("n must be an integer, got 30.0", lambda: estimate_importance(model, 30.0, 10, 1)),
        ("n must be an integer, got 4.0", lambda: enumerate_psi_n(model, 4.0)),
        ("n must be an integer, got 3.0", lambda: er_stationary(0.5, 3.0)),
        ("n must be an integer, got 30.0", lambda: mixing_cutoff(30.0, 0.5, 1.0)),
        ("n must be an integer, got 30.0", lambda: er_log_partition(0.5, 30.0)),
        ("n must be an integer, got 30.0", lambda: chi_square_distance("empty", 0.5, 30.0, 10)),
        ("n must be an integer, got 30.0", lambda: er_mcmle_variance_constants(0.5, 0.4, 30.0)),
        ("m must be an integer, got 3.0", lambda: er_eigen((1, 0, 0), 0.5, 3.0)),
        ("j must be an integer, got 1.0", lambda: fourier_coeff_exp_edges(0.1, 0.5, 1.0, 3)),
        ("m must be an integer, got 3.0", lambda: fourier_coeff_exp_edges(0.1, 0.5, 1, 3.0)),
        ("n_samples must be an integer, got 10.5", lambda: variance_mcmc_mean([1.0], [0.5], 10.5)),
        ("x entry must be an integer, got 1.0", lambda: er_eigen((1, 0, 0), 0.5, 3).evaluate((1.0, 0, 0))),
        # these truncated: xi read 0.7 as 0, and evaluate read 2 as its low bit 0
        ("xi entry must be an integer, got 0.7", lambda: er_eigen((0.7, 1, 0), 0.5, 3)),
        ("x must be a 0/1 vector", lambda: er_eigen((1, 0, 0), 0.5, 3).evaluate((2, 0, 0))),
        # these raised a raw TypeError from math.comb and an IndexError
        ("n must be an integer, got 4.0",
         lambda: batch_motif_densities([Motif.edge()], 4.0, np.zeros((1, 6), np.int8))),
        ("bits must be a 2-D array", lambda: batch_motif_densities([Motif.edge()], 4, np.zeros(6, np.int8))),
    ]:
        with pytest.raises(DomainError, match=match):
            call()
    # numpy integers give what Python ints give at each of these sites
    comp = er_eigen((1, 0, 1), 0.5, 3)
    for call, args in [
        (lambda n, k, seed: estimate_importance(model, n, k, seed), (6, 100, 2)),
        (lambda n: enumerate_psi_n(model, n), (4,)),
        (lambda n: er_stationary(0.5, n), (3,)),
        (lambda n: mixing_cutoff(n, 0.5, 1.0), (30,)),
        (lambda n: er_log_partition(0.5, n), (30,)),
        (lambda n: chi_square_distance("empty", 0.5, n, 10), (30,)),
        (lambda n: er_mcmle_variance_constants(0.5, 0.4, n), (30,)),
        (lambda m: er_eigen((1, 0, 1), 0.5, m), (3,)),
        (lambda *xi: er_eigen(xi, 0.5, 3), (1, 0, 1)),
        (lambda *x: comp.evaluate(x), (0, 1, 1)),
        (lambda j, m: fourier_coeff_exp_edges(0.1, 0.5, j, m), (1, 3)),
        (lambda k: variance_mcmc_mean([1.0], [0.5], k), (10,)),
        (lambda n: batch_motif_densities([Motif.triangle()], n, np.ones((2, 6), np.int8)), (4,)),
    ]:
        want, got = call(*args), call(*map(np.int64, args))
        assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want
    trace, _ = run_chain(ChainConfig(6, steps=True, seed=1, model=model))
    assert [type(r.step) for r in trace] == [int, int] and trace[-1].step == 1
    # numpy integers give what Python ints give
    assert run_chain(ChainConfig(np.int64(6), steps=np.int64(300), seed=1, model=model), np.int16(7)) == run_chain(
        ChainConfig(6, steps=300, seed=1, model=model), 7)
    dens = sample_motif_densities(model, model.motifs, np.int32(50), chain, np.uint8(3))
    assert dens.tobytes() == sample_motif_densities(model, model.motifs, 50, chain, 3).tobytes()
    for est, args in [(estimate_mcmle, (ModelSpec.edge_triangle(-0.25, 0.2), model)),
                      (estimate_acceptance_ratio, (ModelSpec.edge_triangle(-0.25, 0.2), model, "constant", 50))]:
        got = est(*args, np.int64(50), chain, np.int64(2))
        assert got.estimate_log == est(*args, 50, chain, 2).estimate_log
    want = estimate_importance(model, 6, 100, 1).estimate_log
    assert estimate_importance(model, 6, np.int64(100), 1).estimate_log == want


def test_strong_negative_coefficients_switch_edges_off():
    # e^-expo overflows a double below expo = -709.8: the on-probability is 0
    model = ModelSpec.edge_only(-400.0)
    trace, final = run_chain(ChainConfig(5, steps=500, seed=3, model=model), record_every=50)
    assert final == Graph.empty(5)
    assert all(rec.edges == 0 for rec in trace)
    k = glauber_transition_matrix(model, 3)
    assert np.all(np.isfinite(k))
    assert np.allclose(k.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    # no move adds an edge
    masks = np.arange(8)
    assert np.all(k[(masks[None, :] & ~masks[:, None]) != 0] == 0.0)


def test_opposite_strong_coefficients_give_a_finite_glauber_matrix():
    # edge -1e308 + triangle 1e308: the log-odds -2e308 + 1.5e308 c at c common
    # neighbours (n = 4) once summed -inf + inf = nan in 34 entries of 10 rows
    model = ModelSpec([(Motif.edge(), -1e308), (Motif.triangle(), 1e308)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        k = glauber_transition_matrix(model, 4)
    assert np.all(np.isfinite(k))
    assert np.allclose(k.sum(axis=1), 1.0, rtol=0, atol=1e-15)


def test_log_odds_in_units_keep_their_bits():
    # n^2 (|b_1| + |b_2|) = 9.9e308 is beyond double range, so the log-odds
    # are summed in units of a power of two; each still equals the unscaled
    # sum 2 b_1 + (b_2 / n) 6c to the bit
    n, b1, b2 = 30, -1e305, 1e306
    terms = _model_terms(ModelSpec([(Motif.edge(), b1), (Motif.triangle(), b2)]))
    unit = _log_odds_unit(terms, n)
    neg_unit, constant, [(scale, _)] = _log_odds(terms, n)
    assert unit > 1.0 and neg_unit == -unit
    for c in range(n - 1):
        assert unit * (constant + scale * (6 * c)) == 2 * b1 + b2 / n * (6 * c)


def test_dense_glauber_matrix_is_the_chain_step_law_entry_by_entry():
    # the entry of every move that toggles pair t in state s is p / m, with p
    # the chain step's on-probability from the terms' delta methods on s (1 - p
    # where the pair is present), to the bit: the dense matrix's batch-count
    # changes and the chain's deltas give the same log-odds
    n = 4
    pairs = list(itertools.combinations(range(n), 2))  # pair order, apart from the code under test
    m = len(pairs)
    cases = [
        (ModelSpec([(Motif.edge(), 0.3), (Motif.triangle(), 0.0)]), 0),
        (ModelSpec.edge_triangle(-0.45, 0.7), 1),
        (ModelSpec([(Motif.edge(), -0.2), (Motif.star(2), 0.4), (Motif.cycle(4), -0.3)]), 2),
        (ModelSpec([(Motif.edge(), -0.2), (Motif.triangle(), 0.3), (Motif.star(2), -0.1),
                    (Motif.complete(4), 0.5)]), 3),
        # n^2 (1e300 + 1e308) is beyond double range: the log-odds run in
        # units, and a pair with no common neighbour overflows exp (p = 0)
        (ModelSpec([(Motif.edge(), -1e300), (Motif.triangle(), 1e308)]), 1),
        # every log-odds near -800 overflows exp at unit 1
        (ModelSpec([(Motif.edge(), -400.0), (Motif.star(2), 1.0)]), 1),
    ]
    neg_units, probabilities = set(), set()
    for model, width in cases:
        terms = _model_terms(model)
        neg_unit, constant, weighted = _log_odds(terms, n)
        neg_units.add(neg_unit)
        assert len(weighted) == width
        k = glauber_transition_matrix(model, n)
        for s in range(1 << m):
            g = Graph.from_edges(n, [pairs[t] for t in range(m) if s >> t & 1])
            for t, (i, j) in enumerate(pairs):
                expo = constant
                for scale, term in weighted:
                    expo += scale * term.delta(g, i, j)
                p = _on_probability(expo, neg_unit)
                probabilities.add(p)
                want = (1.0 - p if s >> t & 1 else p) / m
                assert k[s, s ^ 1 << t] == want, (model.terms, s, t)
    # both the unit and an overflowing exp were reached
    assert min(neg_units) < -1.0 and 0.0 in probabilities


def test_enumerate_psi_at_n6():
    # n = 6 is the documented enumeration limit: m = 15, 2^15 graphs
    beta1 = 0.35
    psi = enumerate_psi_n(ModelSpec.edge_only(beta1), 6)
    assert psi == pytest.approx(er_log_partition(2 * beta1, 6) / 36, rel=1e-12)


def test_batch_densities_match_graph_densities():
    r = _rng_from_seed(11)
    n = 5
    m = math.comb(n, 2)
    bits = (r.random((40, m)) < 0.5).astype(np.int8)
    motifs = [
        Motif.edge(),
        Motif.star(2),
        Motif.triangle(),
        Motif.cycle(4),
        Motif.complete(4),
        Motif.cycle(5),
        Motif.parse("edgelist:0-2,2-3"),  # vertex 1 isolated
    ]
    dens = batch_motif_densities(motifs, n, bits)
    pairs = list(itertools.combinations(range(n), 2))
    for row, drow in zip(bits, dens):
        g = Graph.from_edges(n, [pairs[t] for t in np.nonzero(row)[0]])
        for motif, val in zip(motifs, drow):
            assert val == pytest.approx(search_homomorphisms(motif, g) / n**motif.vertex_count, abs=1e-12)


def test_batch_triangle_counts_across_row_blocks():
    tri = Motif.triangle()
    tri_iso = Motif.parse("edgelist:0-1,1-3,0-3")  # vertex 2 isolated
    assert classify_motif(tri_iso) == ("triangle",)
    r = _rng_from_seed(12)
    step = _PRODUCT_BLOCK_ENTRIES // 30**2
    k = _TRIANGLE_PRODUCT_MIN_N
    # n = 30 spans two full product blocks and a remainder; k - 1 and k sit
    # on either side of the switch from the triple gather to the product;
    # n = 2 has no triple and n = 3 one; then every n from 2 to 12
    for n, rows in ((30, 2 * step + 17), (k - 1, 500), (k, 500), (10, 500), (2, 3000), (3, 3000),
                    *((n, 200) for n in range(2, 13))):
        m = math.comb(n, 2)
        bits = (r.random((rows, m)) < 0.5).astype(np.int8)
        dens = batch_motif_densities([tri, tri_iso], n, bits)
        pairs = list(itertools.combinations(range(n), 2))
        for row, (d, d_iso) in zip(bits, dens.tolist()):
            g = Graph.from_edges(n, [pairs[t] for t in np.nonzero(row)[0]])
            assert d == search_homomorphisms(tri, g) / n**3
            assert d_iso == 6 * g.triangle_count() * n / n**4


@pytest.mark.parametrize("n", [466, 467])
def test_batch_triangle_counts_exact_across_dtype_switch(n):
    # C(466, 3) < 2^24 <= C(467, 3): the product runs in float32 at n = 466
    # and in float64 at n = 467, and must count exactly on both sides
    m = math.comb(n, 2)
    bits = np.ones((2, m), dtype=np.int8)
    bits[1] = _rng_from_seed(16).random(m) < 0.5
    g = Graph.from_edges(n, [p for p, b in zip(itertools.combinations(range(n), 2), bits[1]) if b])
    counts = _term(Motif.triangle()).batch(bits, n).tolist()
    assert counts == [n * (n - 1) * (n - 2), 6 * g.triangle_count()]


def test_batch_star_counts_across_row_blocks():
    r = _rng_from_seed(13)
    step = _BATCH_BLOCK_ENTRIES // (30 * 29)
    # n = 30 spans two full row blocks and a remainder; at n = 2 and n = 3
    # one block holds every row; then every n from 2 to 12
    for n, rows in ((30, 2 * step + 17), (2, 3000), (3, 3000), *((n, 200) for n in range(2, 13))):
        m = math.comb(n, 2)
        bits = (r.random((rows, m)) < 0.5).astype(np.int8)
        pairs = list(itertools.combinations(range(n), 2))
        graphs = [Graph.from_edges(n, [pairs[t] for t in np.nonzero(row)[0]]) for row in bits]
        # against the per-graph degree powers: the brute-force search would
        # take seconds for star:3 over the 2,400 graphs at n = 30
        for star in (Motif.star(2), Motif.star(3)):
            dens = batch_motif_densities([star], n, bits)[:, 0]
            for g, d in zip(graphs, dens.tolist()):
                assert d == count_homomorphisms(star, g) / n ** star.vertex_count


def test_batch_star_counts_exact_beyond_int64():
    # at n = 40 the complete graph has 40 * 39^11 > 2^63 star:11 maps, which
    # an int64 degree-power sum wraps to a negative density
    n = 40
    pairs = list(itertools.combinations(range(n), 2))
    bits = np.ones((2, len(pairs)), dtype=np.int8)
    bits[1] = _rng_from_seed(15).random(len(pairs)) < 0.7
    graphs = [Graph.from_edges(n, [pairs[t] for t in np.nonzero(row)[0]]) for row in bits]
    assert graphs[0].rows == Graph.complete(n).rows
    for star in (Motif.star(11), Motif.star(12)):
        counts = [_term(star).count(g) for g in graphs]
        assert max(counts) >= 2**63
        assert _term(star).batch(bits, n).tolist() == counts
        dens = batch_motif_densities([star], n, bits)[:, 0]
        assert dens.tolist() == [c / n**star.vertex_count for c in counts]


def test_batch_densities_divide_exactly_past_two_to_the_53():
    # at n = 1000 the scale n^6 of star:5 and cycle:6 passes 2^53 while the
    # counts stay int64: a count converted to float64 was rounded once there
    # and again by the division (star:5 on row 5 read 0x1.2e626611d3c6dp-1,
    # cycle:6 on row 4 0x1.0fb4a210c7f71p-1)
    n = 1000
    bits = _rng_from_seed(3).random((6, math.comb(n, 2))) < 0.9
    motifs = [Motif.star(5), Motif.cycle(6)]
    dens = batch_motif_densities(motifs, n, bits)
    for row, col in ((5, 0), (4, 1)):
        want = hom_density_graph(motifs[col], _indicator_graph(n, bits[row]))
        assert dens[row, col].hex() == want.hex()
    assert n**6 >= 2**53 and _term(motifs[0]).batch(bits[:1], n).dtype == np.int64


def test_batch_star_memory_stays_bounded():
    # degrees are summed over fixed row blocks, so the peak does not grow
    # with the rows (an int64 copy of the rows times an m x n incidence
    # matrix peaked at 71 MB here)
    bits = (_rng_from_seed(14).random((20_000, math.comb(30, 2))) < 0.5).astype(np.int8)
    tracemalloc.start()
    try:
        batch_motif_densities([Motif.star(2)], 30, bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_batch_triangle_memory_stays_bounded():
    # the adjacency products run over fixed row blocks, so the peak does not
    # grow with the rows
    bits = (_rng_from_seed(17).random((20_000, math.comb(30, 2))) < 0.5).astype(np.int8)
    tracemalloc.start()
    try:
        batch_motif_densities([Motif.triangle()], 30, bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# -- estimators -------------------------------------------------------------------------


def test_importance_memory_stays_bounded():
    # the graphs are drawn and counted in fixed blocks, so the peak does not
    # grow with the batch (one 20,000-row batch array peaked at 243 MB)
    model = ModelSpec.edge_triangle(0.2, 0.1)
    tracemalloc.start()
    try:
        estimate_importance(model, 30, 20_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_importance_memory_stays_bounded_at_large_n():
    # batch triangle counts keep no per-triple index, so n = 200 stays small
    # (3 C(200, 3) cached gather indices peaked at 135 MB here)
    model = ModelSpec.edge_triangle(0.2, 0.1)
    tracemalloc.start()
    try:
        res = estimate_importance(model, 200, 200, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    # recorded once each edge read one byte of a raw word (mcmc._edge_bits)
    assert res.estimate_log.hex() == "0x1.2b1e1acd9d56cp+14"


def test_odd_closed_walks_memory_stays_bounded_at_n_1000():
    # cycle:7 contracts A^3 against A^3 A, whose entries pass 2^24 at
    # n = 1000; formed a row block at a time in float32 limbs it holds no
    # float64 copy of A (8 MB) or of a row block, which took the traced peak
    # of a warm count to 17.7 MiB. The count is checked against int64 row
    # sums of float64 products, each exact below 2^53
    n, cycle = 1000, Motif.cycle(7)
    g = Graph.erdos_renyi(n, 0.5, _rng_from_seed(7))
    count_homomorphisms(cycle, g)
    tracemalloc.start()
    try:
        count = count_homomorphisms(cycle, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12.5 * 2**20, peak
    a = g.adjacency_matrix()
    cube = a @ a @ a
    assert count == sum(np.einsum("ij,ij->i", cube.astype(np.int64), (cube @ a).astype(np.int64)).tolist())
    assert count_homomorphisms(cycle, Graph.complete(n)) == (n - 1) ** 7 - (n - 1)


def test_importance_zero_variance_at_matched_proposal():
    model = ModelSpec.edge_only(0.7)
    u = maximize_scalar(model).maximizers[0]
    res = estimate_importance(model, 6, 200, seed=1, proposal_p=u)
    assert res.estimate_log == pytest.approx(er_log_partition(1.4, 6), rel=1e-12)


def test_importance_estimate_is_minus_inf_when_every_weight_is_zero():
    # edge -1e308 weighs each graph with an edge by exactly 0, and the 200
    # draws at proposal_p = 0.99 hold no empty graph, so the log-sum-exp of
    # the weights is that of -inf alone
    res = estimate_importance(ModelSpec.edge_only(-1e308), 4, 200, seed=1, proposal_p=0.99)
    assert res.estimate_log == -math.inf


def test_importance_matches_enumeration():
    model = ModelSpec.edge_triangle(0.2, 0.1)
    truth = 16 * enumerate_psi_n(model, 4)
    res = estimate_importance(model, 4, 100_000, seed=5)
    assert res.estimate_log == pytest.approx(truth, rel=0.01)
    res_sn = estimate_importance(model, 4, 100_000, seed=5, self_normalized=True)
    assert res_sn.estimate_log == pytest.approx(truth, rel=0.01)


def test_importance_estimate_does_not_depend_on_the_draw_blocks():
    # the draw blocks read the generator's stream in order, so one, two or
    # three and a part blocks give the log mean of the same draws, taken
    # block by block and summed in one piece, up to the rounding of the
    # log-sum-exp; at n = 6 each block reads its weights from the count
    # tables (every run draws at least the 2^15 graphs)
    model = ModelSpec.edge_triangle(0.2, 0.1)
    p = 0.4
    for n in (30, 6):
        m = math.comb(n, 2)
        block = _DRAW_BLOCK_EDGES // m
        for n_samples in (block, 2 * block, 3 * block + 17):
            rng = _rng_from_seed(7)
            bits = np.concatenate([_edge_bits(rng, (min(block, n_samples - lo), m), p)
                                   for lo in range(0, n_samples, block)])
            edges = bits.sum(axis=1)
            logw = n**2 * (batch_motif_densities(model.motifs, n, bits) @ np.array(model.betas))
            log_mass = edges * math.log(p) + (m - edges) * math.log1p(-p)
            log_qbar = edges * (math.log(p) - math.log1p(-p))
            want = _logsumexp(logw - log_mass) - math.log(n_samples)
            want_sn = _logsumexp(logw - log_qbar) - _logsumexp(-log_qbar) + m * math.log(2.0)
            got = estimate_importance(model, n, n_samples, seed=7, proposal_p=p)
            got_sn = estimate_importance(model, n, n_samples, seed=7, proposal_p=p, self_normalized=True)
            assert got.estimate_log == pytest.approx(want, rel=1e-14)
            assert got_sn.estimate_log == pytest.approx(want_sn, rel=1e-14)


EDGE_BIT_PROBABILITIES = [5e-324, 2.0**-53, 0.3, 0.5, 1.0 - 2.0**-53, 12345 * 2.0**-53]


def _edge_uniform_below_p(byte, word, p):
    """Whether the uniform (byte + (word >> 11) 2^-53) / 256 lies below p,
    in exact rational arithmetic."""
    return Fraction(byte) + Fraction(word >> 11, 2**53) < 256 * Fraction(p)


def _scripted_words(*draws):
    """A generator stand-in whose random_raw(size) returns the next of
    draws, which must hold size words; sizes lists the sizes asked for."""
    queue, sizes = list(draws), []

    def random_raw(size):
        sizes.append(size)
        words = np.array(queue.pop(0), dtype=np.uint64)
        assert words.shape == (size,)
        return words

    return SimpleNamespace(bit_generator=SimpleNamespace(random_raw=random_raw)), sizes


def _little_endian_words(draws):
    """The 64-bit words whose little-endian bytes are draws, padded to whole words."""
    return [int.from_bytes(bytes(draws[lo : lo + 8]), "little") for lo in range(0, len(draws), 8)]


@pytest.mark.parametrize("p", EDGE_BIT_PROBABILITIES)
def test_edge_bits_read_a_byte_an_edge_and_a_word_a_tie(p):
    # edge t reads byte t of the block's ceil(rows m / 8) words, taken
    # little-endian; each byte equal to b0 = floor(256 p) then reads one more
    # word, in edge order, and the stream ends where those reads leave it
    rows, m = 300, 45
    raw, twin = _rng_from_seed(11), _rng_from_seed(11)
    bits = _edge_bits(raw, (rows, m), p)
    words = twin.bit_generator.random_raw(-(-rows * m // 8)).tolist()
    draws = b"".join(w.to_bytes(8, "little") for w in words)[: rows * m]
    b0 = math.floor(256 * Fraction(p))
    ties = [t for t, byte in enumerate(draws) if byte == b0]
    assert ties
    tie_words = dict(zip(ties, twin.bit_generator.random_raw(len(ties)).tolist()))
    want = [int(_edge_uniform_below_p(byte, tie_words.get(t, 0), p)) for t, byte in enumerate(draws)]
    assert bits.dtype == np.int8 and bits.shape == (rows, m)
    assert bits.ravel().tolist() == want
    assert np.array_equal(raw.random(7), twin.random(7))


@pytest.mark.parametrize("p", EDGE_BIT_PROBABILITIES)
def test_edge_bits_split_the_words_where_the_uniforms_cross_p(p):
    # bytes below, at and above b0, and tie words next to the tie threshold
    # ceil(r 2^53) 2^11, which a short draw almost never meets: each edge is
    # the exact comparison of its uniform (byte + (word >> 11) 2^-53) / 256
    # with p, and the draw reads its bytes' words and one word a tie, no more
    scaled = 256 * Fraction(p)
    b0 = math.floor(scaled)
    edge = math.ceil((scaled - b0) * 2**53) << 11
    near = [edge + d for d in (-2049, -2048, -1, 0, 1, 2047, 2048)]
    tie_words = [w for w in near + [0, 2047, 2048, 2**64 - 1] if 0 <= w < 2**64]
    others = [b for b in (0, b0 - 1, b0 + 1, 255) if 0 <= b < 256 and b != b0]
    draws = [b0] * len(tie_words) + others * 3
    # three rows that end inside a word
    while len(draws) % 3 or len(draws) % 8 == 0:
        draws.append(others[0])
    draws = [draws[t] for t in np.random.default_rng(3).permutation(len(draws))]
    rows, m = 3, len(draws) // 3
    ties = [t for t, byte in enumerate(draws) if byte == b0]
    # the bytes past the last edge equal b0, and would ask for more words if read
    words = _little_endian_words(draws + [b0] * 7)[: -(-rows * m // 8)]
    rng, sizes = _scripted_words(words, tie_words)
    bits = _edge_bits(rng, (rows, m), p)
    tie_word = dict(zip(ties, tie_words))
    want = [int(_edge_uniform_below_p(byte, tie_word.get(t, 0), p)) for t, byte in enumerate(draws)]
    assert bits.ravel().tolist() == want
    assert sizes == [-(-rows * m // 8), len(tie_words)]


def _edge_probability(p):
    """The probability that _edge_bits draws an edge at p, summed exactly over
    the 256 byte values and, for the one byte that reads a tie word, the
    2^64 words, found as the first word that draws no edge."""
    total, tie_bytes = Fraction(0), 0
    for byte in range(256):
        rng, sizes = _scripted_words([byte], [0])
        if _edge_bits(rng, (1, 1), p)[0, 0] and len(sizes) == 1:
            total += 1
        if len(sizes) == 2:
            tie_bytes += 1
            lo, hi = 0, 2**64
            while lo < hi:
                mid = (lo + hi) // 2
                if _edge_bits(_scripted_words([byte], [mid])[0], (1, 1), p)[0, 0]:
                    lo = mid + 1
                else:
                    hi = mid
            total += Fraction(lo, 2**64)
    assert tie_bytes == 1
    return total / 256


def test_edge_bits_draw_each_edge_with_probability_p_exactly():
    # exact for every p >= 2^-9, where p 2^61 is an integer, and
    # ceil(p 2^61) 2^-61 below it
    gen = np.random.default_rng(5)
    random_doubles = gen.random(12).tolist() + (gen.random(12) * 2.0 ** -gen.uniform(9, 60, 12)).tolist()
    edge_cases = [5e-324, 2.0**-9, float(np.nextafter(2.0**-9, 0.0)), 1.0 - 2.0**-53]
    for p in edge_cases + random_doubles:
        want = Fraction(p) if p >= 2.0**-9 else Fraction(math.ceil(Fraction(p) * 2**61), 2**61)
        assert _edge_probability(p) == want, p


def test_mcmle_identity_ratio():
    model = ModelSpec.edge_triangle(0.2, 0.1)
    res = estimate_mcmle(model, model, 300, ChainConfig(4, seed=2))
    assert res.estimate_log == 0.0


def test_mcmle_requires_matching_motifs():
    with pytest.raises(DomainError):
        estimate_mcmle(
            ModelSpec.edge_only(0.1),
            ModelSpec.edge_triangle(0.1, 0.0),
            100,
            ChainConfig(4, seed=0),
        )


def test_estimators_reject_zero_samples():
    model = ModelSpec.edge_triangle(0.2, 0.1)
    with pytest.raises(DomainError, match="n_samples"):
        estimate_importance(model, 4, 0, seed=0)
    with pytest.raises(DomainError, match="n_samples"):
        estimate_mcmle(model, model, 0, ChainConfig(4, seed=0))
    for ref, target in ((0, 100), (100, 0), (-1, 100)):
        with pytest.raises(DomainError, match="n_samples"):
            estimate_acceptance_ratio(model, model, "constant", ref, target, ChainConfig(4, seed=0))


def test_acceptance_ratio_identity():
    model = ModelSpec.edge_triangle(0.1, 0.05)
    res = estimate_acceptance_ratio(model, model, "constant", 400, 400, ChainConfig(4, seed=3))
    assert res.estimate_log == pytest.approx(0.0, abs=0.05)


def test_acceptance_ratio_edge_only_closed_form():
    # ratio of partition sums for the pure edge model at 1 vs 0
    target, ref = ModelSpec.edge_only(0.5), ModelSpec.edge_only(0.0)
    truth = math.log(((1 + math.e) / 2) ** 6)
    for kind in ("constant", "geometric-mean"):
        res = estimate_acceptance_ratio(target, ref, kind, 100_000, 100_000, ChainConfig(4, seed=9))
        assert abs(math.exp(res.estimate_log - truth) - 1) < 0.02


def test_acceptance_ratio_geometric_mean_reduces_variance():
    # paired seeds: the bridge weighting beats the flat one empirically
    target, ref = ModelSpec.edge_only(0.5), ModelSpec.edge_only(0.0)
    truth = math.log(((1 + math.e) / 2) ** 6)
    errs = {}
    for kind in ("constant", "geometric-mean"):
        errs[kind] = [
            estimate_acceptance_ratio(
                target, ref, kind, 2000, 2000, ChainConfig(4, seed=s)
            ).estimate_log
            - truth
            for s in range(40)
        ]
    assert np.var(errs["geometric-mean"]) < np.var(errs["constant"])


def test_estimators_unbiased_at_n4():
    # mean over 200 seeded replications within 3 standard errors of enumeration
    n = 4
    model = ModelSpec.edge_triangle(0.2, 0.1)
    ref = ModelSpec.edge_triangle(0.0, 0.0)
    z_model = math.exp(16 * enumerate_psi_n(model, n))
    z_ref = math.exp(16 * enumerate_psi_n(ref, n))
    reps = 200

    imp = np.array(
        [
            math.exp(estimate_importance(model, n, 1000, seed=s).estimate_log)
            for s in range(reps)
        ]
    )
    se = imp.std(ddof=1) / math.sqrt(reps)
    assert abs(imp.mean() - z_model) <= 3 * se

    mc = np.array(
        [
            math.exp(
                estimate_mcmle(model, ref, 400, ChainConfig(n, seed=s)).estimate_log
            )
            for s in range(reps)
        ]
    )
    se = mc.std(ddof=1) / math.sqrt(reps)
    assert abs(mc.mean() - z_model / z_ref) <= 3 * se

    # acceptance-ratio is a ratio of unbiased estimates; check it stays within
    # a few standard errors of the truth as well
    ar = np.array(
        [
            math.exp(
                estimate_acceptance_ratio(
                    model, ref, "constant", 400, 400, ChainConfig(n, seed=s)
                ).estimate_log
            )
            for s in range(reps)
        ]
    )
    se = ar.std(ddof=1) / math.sqrt(reps)
    assert abs(ar.mean() - z_model / z_ref) <= 4 * se


def test_sampler_law_matches_model_at_n3():
    # long Glauber run's empirical edge density against the dense enumeration
    model = ModelSpec.edge_triangle(-0.45, 0.2)
    dens = sample_motif_densities(
        model, [Motif.edge()], 20_000, ChainConfig(3, seed=13), thinning=1
    )
    logw = model_log_weights(model, 3)
    pi = np.exp(logw - _logsumexp(logw))
    masks = np.arange(8)
    truth = float(
        np.sum(pi * np.array([2 * int(s).bit_count() / 9 for s in masks]))
    )
    assert dens[:, 0].mean() == pytest.approx(truth, abs=0.01)


# -- closed-form coefficients and variances ------------------------------------------------


def test_fourier_coeff_zero_tilt():
    # a = 0 makes the function constant: no mass on nonconstant components
    m = 5
    assert fourier_coeff_exp_edges(0.0, 0.8, 0, m) == pytest.approx((1 + math.exp(0.8)) ** m)
    for j in range(1, m + 1):
        assert fourier_coeff_exp_edges(0.0, 0.8, j, m) == 0.0


def test_fourier_coeff_weight_zero_is_unnormalized_mean():
    m, a, beta = 3, 0.6, 0.4
    masks = np.arange(8)
    sizes = np.array([int(s).bit_count() for s in masks])
    brute = float(np.sum(np.exp(a * sizes) * np.exp(beta * sizes)))
    assert fourier_coeff_exp_edges(a, beta, 0, m) == pytest.approx(brute, rel=1e-12)


def test_fourier_coeff_in_double_range_past_overflowing_factors():
    # (1 - e) (1 + e^801)^2 e^400 / (1 + e^800)^3 is -(e - 1) e^-398 up to a
    # factor 1 + O(e^-800), though e^801 alone is beyond double range
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value = fourier_coeff_exp_edges(1.0, 800.0, 1, 3, normalized=True)
    assert value == pytest.approx(-(math.e - 1.0) * math.exp(-398.0), rel=1e-12)


def test_fourier_coeff_normalized_matches_dense_inner_products():
    n, m = 3, 3
    a, beta = 0.7, 0.5
    pi = er_stationary(beta, n)
    states = all_states(m)
    sizes = np.array([sum(x) for x in states])
    f = np.exp(a * sizes)
    for xi in states:
        comp = er_eigen(xi, beta, m)
        psi = np.array([comp.evaluate(x) for x in states])
        brute = float(np.sum(f * psi * pi))
        closed = fourier_coeff_exp_edges(a, beta, comp.weight, m, normalized=True)
        assert closed == pytest.approx(brute, abs=1e-12)


def test_variance_single_draw_is_function_variance():
    r = _rng_from_seed(21)
    coeffs = r.uniform(-1, 1, 9)
    eigs = r.uniform(-0.95, 0.95, 9)
    res = variance_mcmc_mean(coeffs, eigs, 1)
    assert res.exact == pytest.approx(float(np.sum(coeffs**2)), rel=1e-12)


def test_variance_matches_covariance_double_sum():
    r = _rng_from_seed(22)
    coeffs = r.uniform(-1, 1, 6)
    eigs = r.uniform(-0.9, 0.9, 6)
    for n_samples in (2, 3, 10, 25):
        res = variance_mcmc_mean(coeffs, eigs, n_samples)
        direct = sum(
            c**2
            * (n_samples + 2 * sum((n_samples - d) * e**d for d in range(1, n_samples)))
            for c, e in zip(coeffs, eigs)
        ) / n_samples**2
        assert res.exact == pytest.approx(direct, rel=1e-12)


def test_variance_asymptotic_below_bound():
    r = _rng_from_seed(23)
    for _ in range(20):
        coeffs = r.uniform(-1, 1, 8)
        eigs = r.uniform(-0.99, 0.99, 8)
        res = variance_mcmc_mean(coeffs, eigs, 50)
        assert res.asymptotic <= res.bound + 1e-12


def test_variance_rejects_unit_eigenvalue():
    with pytest.raises(DomainError, match="ergodic"):
        variance_mcmc_mean([1.0, 0.5], [0.3, 1.0], 10)


def test_variance_rejects_nan_eigenvalue_and_coefficient():
    # eigs >= 1 is false for nan, which once returned a result of nans
    with pytest.raises(DomainError, match="ergodic"):
        variance_mcmc_mean([1.0], [math.nan], 10)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="coefficients must be finite"):
            variance_mcmc_mean([1.0, bad], [0.3, 0.5], 10)


def test_mcmle_variance_constants_worked_example():
    c = er_mcmle_variance_constants(2.0, 1.0, 30)
    assert c.per_edge_mean == pytest.approx(2.2562, abs=5e-4)
    assert c.prefactor_denominator == pytest.approx(2.7358, abs=5e-4)
    assert c.per_edge_variance_factor == pytest.approx(1.042, abs=5e-4)
    assert c.sigma_over_mu == pytest.approx(95_431, rel=0.01)


def test_mcmle_variance_constants_beyond_double_range():
    # e^800 overflows a double, but the constants are formed in log domain
    c = er_mcmle_variance_constants(800.0, 0.2, 4)
    exact = 6 * (800.0 + math.log1p(math.exp(-800.0)) - math.log1p(math.exp(0.2)))
    assert c.log_mean == pytest.approx(exact, rel=1e-12)
    assert math.isfinite(c.log_variance_ratio)
    assert c.per_edge_mean == math.inf
    # equal parameters reweight by 1: zero variance, not a math domain error
    same = er_mcmle_variance_constants(0.6, 0.6, 4)
    assert (same.log_mean, same.log_variance_ratio, same.sigma_over_mu) == (0.0, -math.inf, 0.0)


def test_mcmle_variance_bound_matches_high_precision():
    # log(1 + r^2) through log1p keeps the bound to a few ulps where the
    # ratio's square is far below 1 (the float log of 1 + r^2 lost 1e-10)
    from decimal import Decimal, localcontext

    for bt, bc, n in [(0.6, 0.2, 4), (2.0, 1.0, 30), (40.0, 10.0, 4), (10.0, 40.0, 12), (0.0, 5.0, 100)]:
        m = math.comb(n, 2)
        with localcontext() as ctx:
            ctx.prec = 60
            t, c, a = Decimal(bt), Decimal(bc), Decimal(bt - bc)
            factor = 1 + ((1 - a.exp()) / (1 + t.exp())) ** 2
            exact = ((m / (2 * (1 + (-c).exp()))).ln() + (factor**m - 1).ln()
                     + 2 * m * ((1 + t.exp()) / (1 + c.exp())).ln())
        consts = er_mcmle_variance_constants(bt, bc, n)
        bound = consts.log_variance_ratio + 2.0 * consts.log_mean
        assert bound == pytest.approx(float(exact), rel=1e-14), (bt, bc, n)


# -- chain runner ------------------------------------------------------------------------


def test_run_chain_trace_and_reproducibility():
    model = ModelSpec.edge_triangle(0.2, 0.1)
    cfg = ChainConfig(8, steps=500, seed=99, model=model)
    trace1, final1 = run_chain(cfg, record_every=100)
    trace2, final2 = run_chain(cfg, record_every=100)
    assert final1 == final2
    assert [(r.step, r.edges, r.triangles) for r in trace1] == [
        (r.step, r.edges, r.triangles) for r in trace2
    ]
    assert trace1[0].step == 0 and trace1[-1].step == 500
    # statistic column consistent with counts
    for rec in trace1:
        expected = 2 * 0.2 * rec.edges / 64 + 6 * 0.1 * rec.triangles / 512
        assert rec.statistic == pytest.approx(expected, abs=1e-12)


def test_run_chain_start_states():
    model = ModelSpec.edge_only(0.0)
    cfg = ChainConfig(5, steps=0, seed=0, model=model, start="complete")
    trace, final = run_chain(cfg)
    assert final == Graph.complete(5)
    # a given start graph is the chain's step-0 state, with its counts
    g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2)])
    trace, final = run_chain(ChainConfig(5, steps=0, seed=0, model=model, start=g))
    assert final == g
    assert [(r.step, r.edges, r.triangles) for r in trace] == [(0, 3, 1)]
    with pytest.raises(DomainError):
        run_chain(ChainConfig(5, steps=10, seed=0))  # neither model nor er_beta


def test_chain_counters_match_final_graph():
    # the driver tracks edge and triangle counts per toggle; the last record
    # must agree with a recount of the graph the chain ends on
    model = ModelSpec([(Motif.edge(), -0.3), (Motif.triangle(), 0.4), (Motif.cycle(4), 0.2)])
    for cfg in (
        ChainConfig(9, steps=2000, seed=21, er_beta=0.4),
        ChainConfig(9, steps=2000, seed=22, model=model),
        ChainConfig(9, steps=2000, seed=23, model=model, start="complete"),
    ):
        trace, final = run_chain(cfg, record_every=300)
        assert (trace[-1].edges, trace[-1].triangles) == (final.edge_count(), final.triangle_count())
    # sample_motif_densities runs the same chain as run_chain for the same
    # seed and step count, so the replayed final graph is the sampler's
    chain = ChainConfig(9, seed=24, start="complete")
    out = sample_motif_densities(model, [Motif.edge(), Motif.triangle()], 200, chain, thinning=3)
    steps = math.ceil(600 / 9.0) + 600
    _, final = run_chain(ChainConfig(9, steps=steps, seed=24, start="complete", model=model))
    assert out[-1].tolist() == [2 * final.edge_count() / 9**2, 6 * final.triangle_count() / 9**3]



@pytest.mark.parametrize("padded, plain", [("edgelist:0-1,1-3,0-3", "triangle"), ("edgelist:0-2,2-3", "star:2")])
def test_isolated_motif_vertices_keep_every_result_bit_identical(padded, plain):
    # a density cannot see an isolated motif vertex, and a term counts its
    # motif's active part, so a motif padded with one runs the same numbers
    bits = np.array(all_states(10), dtype=np.int8)

    def results(spec):
        h = Motif.parse(spec)
        model = ModelSpec([(Motif.edge(), -0.3), (h, 0.4)])
        return [
            run_chain(ChainConfig(8, steps=3000, seed=3, model=model), record_every=50),
            batch_motif_densities([h], 5, bits).tobytes(),
            sample_motif_densities(model, [Motif.edge(), h], 200, ChainConfig(8, seed=4), 3).tobytes(),
            enumerate_psi_n(model, 5),
            glauber_transition_matrix(model, 4).tobytes(),
            estimate_importance(model, 8, 3000, seed=2),
        ]

    assert results(padded) == results(plain)
