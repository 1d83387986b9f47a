import contextlib
import io
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergmlab.cli import main
from ergmlab import variational
from ergmlab.errors import (ConvergenceError, DomainError, FormatError, InstanceTooLargeError,
                            OverflowGuardError)
from ergmlab.graphs import Graph, Motif, _rng_from_seed
from ergmlab.graphons import StepGraphon, edge_entropy, hom_density_graphon, rate_entropy, rate_relative
from ergmlab.variational import (
    ModelSpec,
    applicability_check,
    degeneracy_constants,
    euler_lagrange_solve,
    extremal_limit,
    fixed_point_map,
    graphon_search,
    maximize_scalar,
    phase_scan,
    psi_limit_scalar,
    scalar_objective,
    symmetry_breaking_check,
    top_statistic,
    transitivity_limit,
    transitivity_model,
)


def rng(seed=0):
    return np.random.default_rng(np.random.Philox(key=seed))


def closed_form_u(beta1):
    return math.exp(2 * beta1) / (1 + math.exp(2 * beta1))


# -- scalar objective -------------------------------------------------------------


def test_scalar_objective_edge_only():
    m = ModelSpec.edge_only(0.8)
    for u in (0.1, 0.5, 0.93):
        assert scalar_objective(m, u) == pytest.approx(0.8 * u - edge_entropy(u))


def test_scalar_objective_zero_betas_at_half():
    m = ModelSpec.edge_triangle(0.0, 0.0)
    assert scalar_objective(m, 0.5) == pytest.approx(0.5 * math.log(2))


def test_scalar_objective_edge_triangle_arithmetic():
    m = ModelSpec.edge_triangle(1.0, 0.5)
    expected = 0.9 + 0.5 * 0.9**3 - edge_entropy(0.9)
    assert scalar_objective(m, 0.9) == pytest.approx(expected)


def test_scalar_objective_domain():
    with pytest.raises(DomainError):
        scalar_objective(ModelSpec.edge_only(0.0), 1.2)


def test_scalar_objective_refuses_nan():
    # u < 0 and u > 1 are both false for nan, which once passed the range check
    model = ModelSpec.edge_only(0.0)
    for u in (math.nan, [0.5, math.nan]):
        with pytest.raises(DomainError, match=r"\[0, 1\]"):
            scalar_objective(model, u)


# -- maximization -----------------------------------------------------------------


def test_maximize_edge_only_closed_form():
    for beta1 in np.linspace(-3, 3, 25):
        rep = maximize_scalar(ModelSpec.edge_only(beta1))
        assert len(rep.maximizers) == 1
        assert rep.maximizers[0] == pytest.approx(closed_form_u(beta1), abs=1e-10)
        assert rep.stationarity_residuals[0] < 1e-12


def test_maximize_zero_model():
    rep = maximize_scalar(ModelSpec.edge_triangle(0.0, 0.0))
    assert rep.maximizers == [pytest.approx(0.5)]
    assert rep.psi == pytest.approx(0.5 * math.log(2))


def test_two_maximizers_at_transition():
    res = phase_scan(-0.45, 0.0, 2.0, 100)
    assert len(res.jumps) == 1
    jump = res.jumps[0]
    rep = maximize_scalar(ModelSpec.edge_triangle(-0.45, jump.beta2))
    assert len(rep.maximizers) == 2
    assert rep.maximizers[0] == pytest.approx(jump.u_low, abs=1e-4)
    assert rep.maximizers[1] == pytest.approx(jump.u_high, abs=1e-4)


def test_psi_dominates_objective_everywhere():
    r = rng(1)
    model = ModelSpec.edge_triangle(-0.6, 0.8)
    psi = psi_limit_scalar(model)
    us = r.uniform(0.0, 1.0, size=1000)
    assert np.all(psi + 1e-12 >= scalar_objective(model, us))


def test_stationarity_matches_constant_fixed_point():
    # the scalar stationarity condition is the fixed-point equation on constants
    r = rng(2)
    for _ in range(20):
        b1 = float(r.uniform(-1, 1))
        b2 = float(r.uniform(0, 1))
        model = ModelSpec.edge_triangle(b1, b2)
        assert applicability_check(model) == "nonneg_valid"
        for u in maximize_scalar(model).maximizers:
            expo = 2 * sum(b * e * u ** (e - 1) for e, b in list(zip(model.edges, model.betas)))
            assert u == pytest.approx(math.exp(expo) / (1 + math.exp(expo)), abs=1e-9)


@st.composite
def scalar_models(draw):
    coef = st.floats(-3.0, 3.0)
    shapes = draw(
        st.lists(
            st.sampled_from(["star:2", "star:3", "triangle", "cycle:4", "complete:4"]),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    terms = [(Motif.edge(), draw(coef))] + [(Motif.parse(s), draw(coef)) for s in shapes]
    return ModelSpec(terms)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scalar_models())
def test_maximizer_residual_within_rounding_bound(model):
    # A maximizer is a float next to the true root, so its derivative is
    # about |d2| ulp(x) plus the rounding of the derivative's own terms
    # (2^-52 times the sum of their magnitudes); a fixed absolute tolerance
    # fails near u = 1, where d2 is large.
    rep = maximize_scalar(model)
    exps = list(zip(model.edges, model.betas))
    ends = (float(np.nextafter(0.0, 1.0)), float(np.nextafter(1.0, 0.0)))
    assert len(rep.stationarity_residuals) == len(rep.maximizers)
    for x, resid in zip(rep.maximizers, rep.stationarity_residuals):
        if x in ends:
            continue
        d2 = sum(b * e * (e - 1) * x ** (e - 2) for e, b in exps if e >= 2)
        d2 -= 0.5 / (x * (1.0 - x))
        terms = 0.5 * abs(math.log(x / (1.0 - x))) + sum(
            abs(b * e * x ** (e - 1)) for e, b in exps
        )
        bound = abs(d2) * float(np.spacing(x)) + 2.0**-52 * terms
        assert resid <= 4.0 * bound, (x, resid, bound)


@pytest.mark.parametrize("beta1", [-1.0, -0.9, -1.1])
@pytest.mark.parametrize("brackets", [1, 8])
def test_newton_polish_keeps_its_point_where_f2_is_zero(beta1, brackets):
    # f''(u) = 2 beta_star - 1 / (2 u (1 - u)) is exactly 0 at u = 1/2 for a
    # 2-star coefficient of 1, so the polish's step is nan (f' = 0 at
    # beta1 = -1) or +-inf (f' of either sign), which the bracket test drops;
    # 1 bracket is bisected on floats and 8 in lockstep
    assert 1 < variational._LOCKSTEP_MIN_BRACKETS <= 8
    model = ModelSpec([(Motif.edge(), beta1), (Motif.star(2), 1.0)])
    coefs = np.repeat([model.betas], brackets, axis=0)
    half = np.full(brackets, 0.5)
    assert variational._second_derivative(model.edges, coefs.T, half).tolist() == [0.0] * brackets
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert variational._refine_brackets(model.edges, coefs, half, half.copy()) == [0.5] * brackets


# -- applicability -----------------------------------------------------------------


def test_applicability_regimes():
    assert applicability_check(ModelSpec.edge_triangle(-2.0, 0.5)) == "nonneg_valid"
    assert applicability_check(ModelSpec.edge_triangle(1.0, -0.3)) == "contraction_valid"
    stars = ModelSpec([(Motif.edge(), 0.5), (Motif.star(2), -1.0), (Motif.star(3), -2.0)])
    assert applicability_check(stars) == "nonpos_star_valid"
    assert applicability_check(ModelSpec.edge_triangle(0.0, -50.0)) == "unknown"


# -- degeneracy ---------------------------------------------------------------------


def test_degeneracy_constants_at_minus_five():
    rep = degeneracy_constants(-5.0)
    assert 0.0066 <= rep.c1 <= 0.0068
    assert rep.c2 == pytest.approx(0.9)
    lo = maximize_scalar(ModelSpec.edge_triangle(-5.0, rep.q_estimate - 0.01)).maximizers
    hi = maximize_scalar(ModelSpec.edge_triangle(-5.0, rep.q_estimate + 0.01)).maximizers
    assert max(lo) < rep.c1
    assert max(hi) > rep.c2


def test_degeneracy_regime_classification():
    rep = degeneracy_constants(-5.0, beta2=1.0)
    assert rep.regime == "sparse"
    rep2 = degeneracy_constants(-5.0, beta2=rep.q_estimate + 1.0)
    assert rep2.regime == "dense"
    rep3 = degeneracy_constants(-5.0, beta2=rep.q_estimate)
    assert rep3.regime == "near-transition"


def test_degeneracy_rejects_weak_beta1():
    with pytest.raises(DomainError, match="not negative enough"):
        degeneracy_constants(-0.1)
    with pytest.raises(DomainError):
        degeneracy_constants(0.0)


def test_degeneracy_threshold_is_bracketed_up_to_two_to_the_forty():
    # q is about -beta1 for strong beta1; the doubling loop brackets it only
    # up to beta2 = 2^40 (1.1e12)
    assert degeneracy_constants(-1e12).q_estimate == 1.0000000000000002e12
    with pytest.raises(ConvergenceError, match="failed to bracket the degeneracy threshold"):
        degeneracy_constants(-1e13)


def test_maximizer_exclusion_zone():
    # no maximizer falls strictly between the two degeneracy constants
    rep = degeneracy_constants(-5.0)
    r = rng(3)
    for _ in range(15):
        b2 = float(r.uniform(0.0, 10.0))
        for u in maximize_scalar(ModelSpec.edge_triangle(-5.0, b2)).maximizers:
            assert not (rep.c1 < u < rep.c2)


# -- phase scans --------------------------------------------------------------------


def test_phase_scan_jump_structure():
    res = phase_scan(-0.45, 0.0, 2.0, 120)
    assert len(res.jumps) == 1
    assert abs(res.jumps[0].u_high - res.jumps[0].u_low) > 0.3
    for beta1 in (-0.1, 0.2):
        assert phase_scan(beta1, 0.0, 2.0, 120).jumps == []


@pytest.mark.parametrize("steps", [5, 6, 8, 10, 200])
def test_phase_scan_finds_the_one_jump_on_coarse_and_descending_grids(steps):
    # a branch that drifts more than 0.1 inside one coarse cell is no jump,
    # and a descending grid refines its cells between their sorted ends
    for lo, hi in ((0.0, 2.0), (2.0, 0.0)):
        jumps = phase_scan(-0.45, lo, hi, steps).jumps
        assert len(jumps) == 1, (steps, lo, hi)
        assert jumps[0].beta2 == pytest.approx(0.597786, abs=1e-6)
        assert jumps[0].u_low == pytest.approx(0.4925, abs=1e-4)
        assert jumps[0].u_high == pytest.approx(0.8144, abs=1e-4)


def test_phase_scan_monotone_for_nonnegative_couplings():
    # the maximizer curve never decreases in the triangle coefficient, on
    # smooth stretches and across the upward jump alike
    for beta1 in (0.2, -0.45):
        res = phase_scan(beta1, 0.0, 2.0, 80)
        us = [p[1] for p in res.points]
        assert all(us[i + 1] >= us[i] - 1e-9 for i in range(len(us) - 1))


def test_scan_and_surface_memory_stay_bounded():
    # the stacked solve evaluates its grid derivative over fixed blocks of
    # models, so the peak does not grow with the scan or the surface; with
    # one model at a time the peaks were 0.27 MB (scan) and 0.68 MB (surface)
    runs = {
        "200-point phase_scan": lambda: phase_scan(-0.45, 0.0, 2.0, 200),
        "40 x 40 phase-diagram": lambda: main(
            ["phase-diagram", "--beta1", "-1:1:40", "--beta2", "0:2:40"]
        ),
    }
    for name, run in runs.items():
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"{name}: peak {peak / 2**20:.1f} MB"


def test_phase_scan_validates_steps():
    with pytest.raises(DomainError):
        phase_scan(0.0, 0.0, 1.0, 1)
    # a float step count once raised a raw TypeError from numpy's linspace
    with pytest.raises(DomainError, match="steps must be an integer, got 200.0"):
        phase_scan(-0.45, 0.0, 2.0, 200.0)
    assert phase_scan(-0.45, 0.0, 2.0, np.int64(20)) == phase_scan(-0.45, 0.0, 2.0, 20)


# -- fixed-point solver ----------------------------------------------------------------


def test_fixed_point_matches_scalar_maximizer():
    model = ModelSpec.edge_triangle(0.2, 0.1)
    init = StepGraphon.equal_blocks(np.full((3, 3), 0.5))
    sol, residual = euler_lagrange_solve(model, init, damping=0.5)
    u = maximize_scalar(model).maximizers[0]
    assert np.max(np.abs(sol.values - u)) < 1e-8
    assert residual < 1e-8


def test_fixed_point_edge_only_single_exact_step():
    model = ModelSpec.edge_only(0.9)
    sol, residual = euler_lagrange_solve(model, StepGraphon.constant(0.05), damping=1.0)
    assert sol.values[0, 0] == pytest.approx(closed_form_u(0.9), abs=1e-15)
    assert residual == 0.0


def test_fixed_point_stationary_at_scalar_maximizer():
    r = rng(4)
    for _ in range(10):
        model = ModelSpec.edge_triangle(float(r.uniform(-1, 1)), float(r.uniform(0, 0.5)))
        u = maximize_scalar(model).maximizers[0]
        h = StepGraphon.constant(u)
        residual = float(np.max(np.abs(h.values - fixed_point_map(model, h).values)))
        assert residual < 1e-10


def test_fixed_point_nonconvergence_error_carries_iterate():
    model = ModelSpec.edge_triangle(0.2, 0.1)
    init = StepGraphon.constant(0.5)
    with pytest.raises(ConvergenceError) as err:
        euler_lagrange_solve(model, init, damping=0.5, max_iter=2)
    assert err.value.last_iterate is not None
    assert err.value.residual > 0
    # a float iteration count once raised a raw TypeError from range(); a
    # numpy integer stops where the Python int does
    with pytest.raises(DomainError, match="max_iter must be an integer, got 10.0"):
        euler_lagrange_solve(model, init, max_iter=10.0)
    with pytest.raises(DomainError, match="euler_lagrange_solve needs max_iter >= 0, got -1"):
        euler_lagrange_solve(model, init, max_iter=-1)
    with pytest.raises(ConvergenceError) as numpy_err:
        euler_lagrange_solve(model, init, damping=0.5, max_iter=np.int64(2))
    assert numpy_err.value.residual == err.value.residual


def test_fixed_point_rejects_bad_damping():
    with pytest.raises(DomainError):
        euler_lagrange_solve(ModelSpec.edge_only(0.0), StepGraphon.constant(0.5), damping=0.0)


def test_fixed_point_map_saturates_without_warning():
    # at beta2 = -400 the exponent -2D reaches about 1,700, e^{-2D} overflows
    # to inf, and the logistic reads 0, the value it rounds to anyway
    model = ModelSpec.edge_triangle(0.0, -400.0)
    h = StepGraphon.equal_blocks([[0.9, 0.8], [0.8, 0.9]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        phi = fixed_point_map(model, h)
    assert np.all(phi.values == 0.0)


def test_kernel_operator_keeps_the_bits_of_the_model_methods():
    # a zero coefficient, a motif with an isolated vertex (2), unequal weights
    model = ModelSpec([(Motif.edge(), -0.3), (Motif.triangle(), 0.0),
                       (Motif.parse("edgelist:0-1,1-3,0-3"), 0.4), (Motif.cycle(4), -0.2)])
    r = rng(23)
    for k in (1, 2, 3, 5):
        h = StepGraphon.random(k, r, equal_weights=False)
        op = variational._KernelOperator(model, h.weights, statistic=True)
        assert op.delta(h.values).tobytes() == model.delta_sum(h).tobytes()
        assert op.statistic(h.values) == model.graphon_statistic(h)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_kernel_solvers_report_the_public_residual_and_psi(seed):
    # a random model in the contraction regime (sum |beta_i| e(e-1) < 2) and
    # a random init: the solvers' closing residual and psi, evaluated on
    # their bound operator, are the bits of the public per-term calls
    r = rng(seed)
    extra = r.choice(["star:2", "triangle", "star:3", "cycle:4", "complete:4"], r.integers(1, 4), replace=False)
    motifs = [Motif.parse(s) for s in extra]
    raw = r.uniform(-1.0, 1.0, len(motifs))
    scale = r.uniform(0.1, 1.9) / sum(abs(b) * m.edge_count * (m.edge_count - 1) for m, b in zip(motifs, raw))
    model = ModelSpec([(Motif.edge(), r.uniform(-1.0, 1.0))] + list(zip(motifs, raw * scale)))
    assert applicability_check(model) in ("nonneg_valid", "nonpos_star_valid", "contraction_valid")
    k = int(r.integers(1, 5))

    def map_residual(h):
        return float(np.max(np.abs(h.values - fixed_point_map(model, h).values)))

    sol, residual = euler_lagrange_solve(model, StepGraphon.random(k, r, equal_weights=False))
    assert type(residual) is float and residual == map_residual(sol)
    rep = graphon_search(model, k=k, restarts=4, max_iter=30, seed=seed)
    best = rep.maximizers[0]
    assert type(rep.psi) is float and rep.psi == model.graphon_statistic(best) - rate_entropy(best)
    assert rep.stationarity_residuals == [map_residual(best)]


def test_kernel_solvers_bind_each_contraction_once():
    # each solver builds one contraction per bound term and none after its
    # loop: the fixed-point solver one per term with a nonzero coefficient,
    # the search one per term for the statistic and one per such term
    model = ModelSpec([(Motif.edge(), -0.3), (Motif.triangle(), 0.2), (Motif.star(2), 0.0),
                       (Motif.cycle(4), -0.05)])
    built = []
    real_init = variational._Contraction.__init__

    def counting_init(self, motif, *args):
        built.append(motif)
        real_init(self, motif, *args)

    with mock.patch.object(variational._Contraction, "__init__", counting_init):
        euler_lagrange_solve(model, StepGraphon.random(3, rng(5)))
        assert len(built) == 3
        with pytest.raises(ConvergenceError):
            euler_lagrange_solve(model, StepGraphon.random(3, rng(5)), max_iter=2)
        assert len(built) == 6
        graphon_search(model, k=3, restarts=4, max_iter=20)
        assert len(built) == 6 + 4 + 3


def test_kernel_check_is_exact_and_refuses_nan():
    check = variational._check_kernels
    check(np.array([[0.0, 0.7], [0.7, 1.0]]))
    with pytest.raises(DomainError, match="symmetric"):
        check(np.full((3, 2, 2), np.nan))  # as in StepGraphon
    for bad in ([[0.2, 0.7], [np.nextafter(0.7, 1.0), 1.0]], [[-1e-300, 0.5], [0.5, 0.5]],
                [[0.5, 0.5], [0.5, np.nextafter(1.0, 2.0)]], [[0.5, np.nan], [0.5, 0.5]],
                [[0.5, np.nan], [np.nan, 0.5]]):
        with pytest.raises(DomainError, match="symmetric"):
            check(np.array([np.full((2, 2), 0.5), bad]))


def test_kernel_solvers_keep_their_guard_order():
    path7, path9 = (Motif(v, [(i, i + 1) for i in range(v - 1)]) for v in (7, 9))
    # the search meets every term's density guard (8 vertices) before any
    # delta guard (6 vertices)
    with pytest.raises(InstanceTooLargeError, match="guard is 8"):
        graphon_search(ModelSpec([(Motif.edge(), 0.1), (path7, -1.0), (path9, 0.1)]), k=2, restarts=2)
    with pytest.raises(InstanceTooLargeError, match="guard is 6"):
        graphon_search(ModelSpec([(Motif.edge(), 0.1), (path7, -1.0)]), k=2, restarts=2)
    # the fixed-point solver guards only the terms with a nonzero coefficient
    sol, _ = euler_lagrange_solve(ModelSpec([(Motif.edge(), 0.1), (path7, 0.0)]), StepGraphon.constant(0.5))
    assert sol.values[0, 0] == pytest.approx(closed_form_u(0.1), abs=1e-9)


def traced_peak(call) -> int:
    """The traced memory peak of call(), run once untraced first for its imports."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_guards_refuse_before_a_k_by_k_array():
    # edge-triangle at k = 1001 passes 1001^3 over the 10^9 cell guard; the
    # search's cell weights and the command's init kernel were built first,
    # a 23.7 MB and a 31.5 MB traced peak before the refusal
    model = ModelSpec([(Motif.edge(), 0.0), (Motif.triangle(), -50.0)])

    def search():
        with pytest.raises(InstanceTooLargeError, match=r"1001\^3 exceeds"):
            graphon_search(model, k=1001, restarts=2)

    assert traced_peak(search) < 2**20
    for init in ("0.5", "random"):
        argv = ["euler-lagrange", "--beta1", "0", "--beta2", "-50", "--blocks", "1001", "--init", init]

        def command():
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main(argv) == 2
            assert "instance too large: k^|V(H)| = 1001^3 exceeds" in err.getvalue()

        assert traced_peak(command) < 2**20, init


# Euler-Lagrange solutions recorded with the contraction that searched an
# einsum path on every call. The direct C einsum sums the same block
# products in another order, so each delta term can move by a few ulps and
# the 1e-9 stopping rule can end the iteration a step apart; 1e-12 allows
# for that (both solutions here came out bit-identical).
EL_RECORDED = [
    (
        ModelSpec([(Motif.edge(), -0.3), (Motif.triangle(), 0.15), (Motif.star(2), -0.1), (Motif.cycle(4), 0.04)]),
        StepGraphon([0.2, 0.3, 0.5], [[0.1, 0.7, 0.4], [0.7, 0.9, 0.2], [0.4, 0.2, 0.6]]),
        [
            [0.3507439454446798, 0.3507439458006749, 0.3507439455761113],
            [0.3507439458006749, 0.3507439459918046, 0.3507439455550888],
            [0.3507439455761113, 0.3507439455550888, 0.350743945684165],
        ],
    ),
    (
        ModelSpec([(Motif.edge(), 0.4), (Motif.complete(4), -0.1)]),
        StepGraphon.equal_blocks([[0.9, 0.1], [0.1, 0.3]]),
        [[0.6575668272906443, 0.6575668255228486], [0.6575668255228486, 0.6575668271651685]],
    ),
]


def test_fixed_point_matches_recorded_values():
    for model, init, values in EL_RECORDED:
        sol, _ = euler_lagrange_solve(model, init, damping=0.5)
        assert np.max(np.abs(sol.values - np.array(values))) <= 1e-12


# -- extremal limits ---------------------------------------------------------------------


def test_extremal_triangle_at_zero():
    kernel, psi = extremal_limit(Motif.triangle(), 0.0)
    assert kernel.k == 2
    assert np.allclose(kernel.values, [[0.0, 0.5], [0.5, 0.0]])
    assert psi == pytest.approx(0.25 * math.log(2))


def test_extremal_bipartite_motif_is_empty_kernel():
    kernel, psi = extremal_limit(Motif.cycle(4), 0.7)
    assert kernel.k == 1
    assert kernel.values[0, 0] == 0.0
    assert psi == 0.0


def test_extremal_k4_is_tripartite():
    kernel, _ = extremal_limit(Motif.complete(4), 0.3)
    assert kernel.k == 3
    p = closed_form_u(0.3)
    assert np.allclose(kernel.values, p * (np.ones((3, 3)) - np.eye(3)))


def test_extremal_consistency_properties():
    for beta1 in (-0.5, 0.0, 1.2):
        kernel, psi = extremal_limit(Motif.triangle(), beta1)
        p = closed_form_u(beta1)
        assert hom_density_graphon(Motif.triangle(), kernel) == 0.0
        chi = 3
        expected = (chi - 2) / (2 * (chi - 1)) * math.log(1 / (1 - p))
        assert rate_relative(kernel, p) == pytest.approx(expected, abs=1e-10)
        assert psi == pytest.approx(expected, abs=1e-14)


def test_extremal_limit_where_p_rounds_to_one():
    # p = e^{2 beta1}/(1 + e^{2 beta1}) is 1.0 in floats, so log(1/(1-p)) is
    # taken as 2 beta1 + log1p(e^{-2 beta1})
    for beta1, psi_want in ((20.0, (40.0 + math.log1p(math.exp(-40.0))) / 4), (1000.0, 500.0)):
        kernel, psi = extremal_limit(Motif.triangle(), beta1)
        assert kernel.values[0, 1] == 1.0 and kernel.values[0, 0] == 0.0
        assert psi == psi_want
    kernel, psi = extremal_limit(Motif.cycle(4), 1000.0)
    assert kernel.values[0, 0] == 0.0 and psi == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_every_coefficient_path_rejects_non_finite(bad):
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    for call in (
        lambda: ModelSpec.edge_triangle(0.1, bad),
        lambda: phase_scan(bad, 0.0, 1.0, 3),
        # a scan end, or a difference of ends, beyond double range once warned from numpy first
        lambda: phase_scan(-0.45, 0.0, bad, 3),
        lambda: phase_scan(-0.45, -1e308, 1e308, 3),
        lambda: top_statistic(bad, 0.0, g),
        lambda: degeneracy_constants(-5.0, bad),
        lambda: extremal_limit(Motif.triangle(), bad),
    ):
        with pytest.raises(DomainError, match="must be finite"):
            call()
    if bad > 0.0 or math.isnan(bad):
        with pytest.raises(DomainError, match="must be finite"):
            transitivity_limit(bad)


def test_scalar_solver_rejects_a_coefficient_sum_beyond_double_range():
    # sum |beta_i| e(H_i) = 1e308 + 3 * 1e308 bounds the derivative on [0, 1];
    # the solver once overflowed and reported psi 1.996e292 at u = 1, where
    # the maximum of 1e308 (u - u^3) is about 3.85e307 at u = 1/sqrt(3)
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (
            lambda: maximize_scalar(ModelSpec.edge_triangle(1e308, -1e308)),
            lambda: phase_scan(1e308, -1e308, 0.0, 3),
            lambda: top_statistic(1e308, -1e308, g),
        ):
            with pytest.raises(OverflowGuardError, match="exceeds double range"):
                call()
        # below the bound the solve runs: 1e308 + 3 * 2e307 is finite
        rep = maximize_scalar(ModelSpec.edge_triangle(1e308, -2e307))
    assert math.isfinite(rep.psi)


def test_kernel_solvers_reject_a_coefficient_sum_beyond_double_range():
    # the scalar solver's bound sum |beta_i| e(H_i) also bounds the kernel
    # statistic and sum_i beta_i Delta_{H_i} h; past it the solvers, the
    # fixed-point map and ModelSpec.delta_sum once overflowed in numpy with a
    # RuntimeWarning, and ModelSpec.graphon_statistic returned inf
    ones = StepGraphon.constant(1.0)
    below = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (
            lambda model: euler_lagrange_solve(model, StepGraphon.constant(0.5)),
            lambda model: graphon_search(model, k=2, restarts=2, max_iter=20),
            lambda model: fixed_point_map(model, ones).values.tolist(),
            lambda model: model.delta_sum(ones).tolist(),
            lambda model: model.graphon_statistic(ones),
        ):
            with pytest.raises(OverflowGuardError, match="exceeds double range"):
                call(ModelSpec.edge_triangle(1e308, 1e308))
            # below the bound all run: 1e308 + 3 * 2e307 is finite
            below.append(call(ModelSpec.edge_triangle(1e308, -2e307)))
    # on the all-ones kernel, whose triangle delta is 3
    assert below[2:] == [[[1.0]], [[1e308 + -2e307 * 3]], 1e308 + -2e307]


# -- transitivity model --------------------------------------------------------------------


def test_transitivity_limit_kernel():
    kernel = transitivity_limit(2.0)
    assert np.allclose(kernel.values, [[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(DomainError):
        transitivity_limit(0.0)


def test_transitivity_rewrite_identity():
    beta = 1.7
    model = transitivity_model(beta)
    # at the all-ones kernel the statistic collapses to the bare coefficient
    ones = StepGraphon.constant(1.0)
    assert model.graphon_statistic(ones) == pytest.approx(beta)
    r = rng(5)
    consts = []
    for _ in range(100):
        f = StepGraphon.random(3, r, equal_weights=False)
        comp = StepGraphon(f.weights, 1.0 - f.values)
        s_val = -beta * hom_density_graphon(Motif.triangle(), comp)
        consts.append(model.graphon_statistic(f) - s_val)
    assert max(consts) - min(consts) < 1e-10
    assert consts[0] == pytest.approx(beta, abs=1e-10)


# -- top statistic ------------------------------------------------------------------------


def test_top_statistic_empty_graph_zero_betas():
    assert top_statistic(0.0, 0.0, Graph.empty(6)) == pytest.approx(-0.5 * math.log(2))
    with pytest.raises(DomainError, match="at least 3 vertices"):
        top_statistic(0.0, 0.0, Graph.empty(2))


def test_top_statistic_depends_only_on_edges_when_beta2_zero():
    g1 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)])
    g2 = Graph.from_edges(5, [(0, 2), (0, 3), (1, 4)])  # same edge count, no shared triangles
    assert top_statistic(0.7, 0.0, g1) == pytest.approx(top_statistic(0.7, 0.0, g2))


def test_top_statistic_is_statistic_minus_free_energy():
    # independent route: grid infimum equals the statistic minus psi
    g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
    b1, b2 = -0.3, 0.4
    model = ModelSpec.edge_triangle(b1, b2)
    us = np.linspace(1e-9, 1 - 1e-9, 20001)
    stat = 2 * b1 * g.edge_count() / 36 + 6 * b2 * g.triangle_count() / 216
    brute = float(np.min(stat - (b1 * us + b2 * us**3 - edge_entropy(us))))
    assert top_statistic(b1, b2, g) == pytest.approx(brute, abs=1e-7)


# -- kernel search and symmetry breaking ------------------------------------------------------


def test_graphon_search_recovers_constant_regime():
    model = ModelSpec.edge_triangle(0.2, 0.1)
    rep = graphon_search(model, k=2, restarts=4, seed=1)
    u = maximize_scalar(model).maximizers[0]
    assert rep.psi == pytest.approx(psi_limit_scalar(model), abs=1e-6)
    assert np.max(np.abs(rep.maximizers[0].values - u)) < 1e-3
    assert not rep.certified


def test_graphon_search_takes_integer_seeds_only():
    # seed 0.5 once ran seed 0's search
    model = ModelSpec.edge_triangle(0.2, 0.1)
    for seed in (0.5, 0.0, "0"):
        with pytest.raises(DomainError, match=f"seed must be an integer, got {seed!r}"):
            graphon_search(model, k=2, restarts=2, max_iter=20, seed=seed)
    want = graphon_search(model, k=2, restarts=2, max_iter=20, seed=0)
    got = graphon_search(model, k=2, restarts=2, max_iter=20, seed=np.int64(0))
    assert got.psi == want.psi
    assert got.maximizers[0].values.tobytes() == want.maximizers[0].values.tobytes()
    # numpy integer counts give the Python ints' search too
    got = graphon_search(model, k=np.int64(2), restarts=np.int64(2), max_iter=np.int64(20), seed=0)
    assert got.psi == want.psi
    assert got.maximizers[0].values.tobytes() == want.maximizers[0].values.tobytes()


# graphon_search results recorded with the contraction that searched an
# einsum path on every call. The objective moves by ulps, which can flip a
# line-search comparison between nearly equal values; the ascent then takes
# other steps, so psi agrees to 1e-12 but the kernel only to the ascent's
# own accuracy (it moved by up to 8.7e-10 here; 1e-6 is allowed).
SEARCH_RECORDED = [
    (
        ModelSpec([(Motif.edge(), 2.0), (Motif.star(2), 1.0), (Motif.triangle(), -12.0)]),
        {"k": 2, "restarts": 4, "max_iter": 150, "seed": 7},
        1.2506167046503145,
        [[1e-06, 0.9975149143337079], [0.9975149143337079, 1e-06]],
    ),
    (
        ModelSpec([(Motif.edge(), 0.1), (Motif.star(2), -1.5), (Motif.triangle(), 2.0)]),
        {"k": 3, "restarts": 2, "max_iter": 100, "seed": 3},
        0.6010328332018681,
        [
            [0.9978968122289493, 0.9978968131644211, 0.997896811934635],
            [0.9978968131644211, 0.9978968122289424, 0.9978968119351963],
            [0.997896811934635, 0.9978968119351963, 0.997896812238834],
        ],
    ),
]


def test_graphon_search_matches_recorded_values():
    for model, kwargs, psi, values in SEARCH_RECORDED:
        rep = graphon_search(model, **kwargs)
        assert abs(rep.psi - psi) <= 1e-12
        assert np.max(np.abs(rep.maximizers[0].values - np.array(values))) <= 1e-6


def sequential_search(model, k, restarts, max_iter, seed):
    """The search one restart after another, each step on StepGraphon and
    the model's own methods: the reference of the lockstep search."""
    r = _rng_from_seed(seed)
    w = np.full(k, 1.0 / k)
    cell = np.outer(w, w) * (2.0 - np.eye(k))

    def objective(v):
        h = StepGraphon(w, v)
        return model.graphon_statistic(h) - rate_entropy(h)

    best_val, best_v = -np.inf, None
    for restart in range(restarts):
        if restart % 2 == 0:
            a = r.uniform(0.05, 0.95, (k, k))
            v = 0.5 * (a + a.T)
        else:
            pattern = r.integers(0, 2, (k, k)).astype(float)
            v = 0.05 + 0.9 * (np.triu(pattern) + np.triu(pattern, 1).T)
        v = np.clip(v, 1e-6, 1.0 - 1e-6)
        step, f0 = 0.5, objective(v)
        for _ in range(max_iter):
            grad = cell * (model.delta_sum(StepGraphon(w, v)) - 0.5 * np.log(v / (1.0 - v)))
            while step > 1e-14:
                vn = np.clip(v + step * grad, 1e-6, 1.0 - 1e-6)
                f1 = objective(vn)
                if f1 > f0:
                    break
                step *= 0.5
            else:
                break
            v, f0, step = vn, f1, step * 1.5
        if f0 > best_val:
            best_val, best_v = f0, v
    return best_val, best_v


def test_lockstep_search_matches_the_sequential_search():
    # a stacked contraction can move a value by a few ulps, which can flip a
    # line-search comparison between nearly equal values: psi to 1e-12 and
    # the kernel to 1e-6, as in the recorded values above
    models = [ModelSpec.edge_triangle(-0.45, 0.6), ModelSpec.edge_triangle(1.0, -5.0),
              ModelSpec([(Motif.edge(), 0.3), (Motif.cycle(4), -4.0), (Motif.star(3), 0.5)])]
    for model in models:
        for k in (1, 2, 4):
            for seed in (0, 1):
                rep = graphon_search(model, k=k, restarts=5, max_iter=60, seed=seed)
                psi, values = sequential_search(model, k, 5, 60, seed)
                assert abs(rep.psi - psi) <= 1e-12
                assert np.max(np.abs(rep.maximizers[0].values - values)) <= 1e-6


@pytest.mark.parametrize("kwargs, match", [
    ({"k": 0}, "k >= 1"),
    ({"k": -1}, "k >= 1"),
    ({"restarts": 0}, "restarts >= 1"),
    ({"restarts": -1}, "restarts >= 1"),
    # a float count once raised a raw TypeError, and a negative max_iter
    # ran no step
    ({"k": 2.0}, "k must be an integer, got 2.0"),
    ({"restarts": 2.0}, "restarts must be an integer, got 2.0"),
    ({"max_iter": 2.0}, "max_iter must be an integer, got 2.0"),
    ({"max_iter": -1}, "graphon_search needs max_iter >= 0, got -1"),
])
def test_graphon_search_rejects_an_empty_search(kwargs, match):
    with pytest.raises(DomainError, match=match):
        graphon_search(ModelSpec.edge_triangle(0.2, 0.1), **kwargs)


def test_graphon_search_negative_seed_runs_its_64_bit_residue():
    model = ModelSpec.edge_triangle(-0.45, 0.6)
    reps = [graphon_search(model, k=3, restarts=4, max_iter=100, seed=s) for s in (-1, 2**64 - 1)]
    assert reps[0].psi == reps[1].psi
    assert np.array_equal(reps[0].maximizers[0].values, reps[1].maximizers[0].values)


def test_symmetry_breaking_check_directions():
    broken = symmetry_breaking_check(ModelSpec.edge_triangle(0.0, -50.0))
    assert broken.broken
    assert broken.test_value == pytest.approx(0.25 * math.log(2))
    mild = symmetry_breaking_check(ModelSpec.edge_triangle(0.0, -0.1))
    assert not mild.broken  # the certificate does not fire in the contraction regime
    with pytest.raises(DomainError):
        symmetry_breaking_check(ModelSpec.edge_triangle(0.5, 1.0))


# -- model plumbing ----------------------------------------------------------------------------


def test_model_text_roundtrip():
    text = "edge -0.45\ntriangle 0.2\nstar:2 -3\n"
    model = ModelSpec.from_text(text)
    assert [m.name for m, _ in model.terms] == ["edge", "triangle", "star:2"]
    assert [b for _, b in model.terms] == [-0.45, 0.2, -3.0]
    again = ModelSpec.from_text(model.to_text())
    assert again.terms == model.terms


def test_model_requires_edges_and_terms():
    with pytest.raises(FormatError):
        ModelSpec.from_text("# only comments\n")
    with pytest.raises(DomainError):
        ModelSpec([])
    # a malformed coefficient names its line; a motif error keeps its own message
    with pytest.raises(FormatError, match="bad model line 'edge abc'"):
        ModelSpec.from_text("edge -0.3\nedge abc\n")
    with pytest.raises(FormatError, match="unknown motif"):
        ModelSpec.from_text("heptagon 0.5\n")
    # a non-finite coefficient has no scalar problem to solve
    for text in ("edge nan\n", "edge 0.1\ntriangle inf\n", "edge -inf\n"):
        with pytest.raises(DomainError, match="finite"):
            ModelSpec.from_text(text)


def test_contraction_sum():
    model = ModelSpec.edge_triangle(5.0, -0.3)  # edge term contributes nothing
    assert model.contraction_sum() == pytest.approx(0.3 * 6)
