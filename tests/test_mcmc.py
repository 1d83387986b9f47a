import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ergmlab.errors import DomainError, InstanceTooLargeError, OverflowGuardError
from ergmlab.graphs import Graph, Motif
from ergmlab.mcmc import (
    ChainConfig,
    batch_motif_densities,
    chi_square_distance,
    edge_indicator,
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
from ergmlab.graphs import _TRIANGLE_BLOCK_ENTRIES, hom_count_fast
from ergmlab.mcmc import _log_factorial, _logsumexp, _rng_from_seed
from ergmlab.variational import ModelSpec, maximize_scalar


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
        c = g.common_neighbors(i, j)
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


def test_enumerate_guard():
    with pytest.raises(InstanceTooLargeError):
        enumerate_psi_n(ModelSpec.edge_only(0.0), 7)


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
    from ergmlab.graphs import hom_density_graph_fast

    for row, drow in zip(bits, dens):
        g = Graph.from_edges(n, [pairs[t] for t in np.nonzero(row)[0]])
        for motif, val in zip(motifs, drow):
            assert val == pytest.approx(hom_density_graph_fast(motif, g), abs=1e-12)


def test_batch_triangle_counts_across_row_blocks():
    tri = Motif.triangle()
    r = _rng_from_seed(12)
    step = _TRIANGLE_BLOCK_ENTRIES // math.comb(30, 3)
    # n = 30 spans two full row blocks and a remainder; n = 2 has no triple
    # and n = 3 one, so their blocks hold every row
    for n, rows in ((30, 2 * step + 17), (2, 3000), (3, 3000)):
        m = math.comb(n, 2)
        bits = (r.random((rows, m)) < 0.5).astype(np.int8)
        dens = batch_motif_densities([tri], n, bits)[:, 0]
        pairs = list(itertools.combinations(range(n), 2))
        for row, d in zip(bits, dens.tolist()):
            g = Graph.from_edges(n, [pairs[t] for t in np.nonzero(row)[0]])
            assert d == hom_count_fast(tri, g) / n**3


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


def test_importance_zero_variance_at_matched_proposal():
    model = ModelSpec.edge_only(0.7)
    u = maximize_scalar(model).maximizers[0]
    res = estimate_importance(model, 6, 200, seed=1, proposal_p=u)
    assert res.estimate_log == pytest.approx(er_log_partition(1.4, 6), rel=1e-12)


def test_importance_matches_enumeration():
    model = ModelSpec.edge_triangle(0.2, 0.1)
    truth = 16 * enumerate_psi_n(model, 4)
    res = estimate_importance(model, 4, 100_000, seed=5)
    assert res.estimate_log == pytest.approx(truth, rel=0.01)
    res_sn = estimate_importance(model, 4, 100_000, seed=5, self_normalized=True)
    assert res_sn.estimate_log == pytest.approx(truth, rel=0.01)


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


def test_mcmle_variance_constants_worked_example():
    c = er_mcmle_variance_constants(2.0, 1.0, 30)
    assert c.per_edge_mean == pytest.approx(2.2562, abs=5e-4)
    assert c.prefactor_denominator == pytest.approx(2.7358, abs=5e-4)
    assert c.per_edge_variance_factor == pytest.approx(1.042, abs=5e-4)
    assert c.sigma_over_mu == pytest.approx(95_431, rel=0.01)


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
    with pytest.raises(DomainError):
        run_chain(ChainConfig(5, steps=10, seed=0))  # neither model nor er_beta


def test_edge_indicator_order():
    g = Graph.from_edges(3, [(0, 2)])
    assert edge_indicator(g) == (0, 1, 0)
