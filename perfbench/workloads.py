"""Job lists of the three benchmark workloads and the oracles that check them.

A workload is a list of jobs run one after another by a single caller (a
closed loop). Every input -- model coefficients, chain seeds, step graphons,
search seeds -- is drawn from the workload seed, so the same seed gives the
same jobs. Each job makes one top-level call into the package and is checked
afterwards by an oracle; wherever an exact answer exists the oracle computes
it here with plain numpy or integer arithmetic instead of calling back into
the package.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ergmlab import cli, graphons, graphs, mcmc, variational
from ergmlab.graphs import Graph, Motif
from ergmlab.graphons import StepGraphon
from ergmlab.mcmc import ChainConfig
from ergmlab.variational import ModelSpec

WORKLOADS = ("chains", "landscape", "exact")
DEFAULT_SEED = 1

# Jobs that fail at the commit that introduced the benchmark name their
# defect and the start of the failure message it causes (Job.defect). Such
# a failure counts in `failed` but does not make the run incorrect; a
# failure with any other message is a new defect. The defects:
#   enumeration-guard: enumerate_psi_n(model, 6) raises InstanceTooLargeError,
#     because the m <= 12 dense guard fires at m = 15 although n <= 6 is
#     documented; `ergmlab psi --exact-n 6` exits with code 2.
#   cycle-float-trace: hom_count_fast(cycle:k, K_1000) rounds a float
#     trace(A^k): off by 200 at k = 6 and by 485,840 at k = 7.

# the documented errors of hom_count_fast(cycle:k, K_1000)
CYCLE_OFFSETS_K1000 = {6: 200, 7: 485_840}

# Problem sizes. "full" is what the benchmark measures; "tiny" runs every job
# type and every traced layer in a few seconds, for the self-test.
SIZES = {
    "full": dict(
        fast_steps=30_000, slow_steps=1_800, big_steps=60_000, er_steps=150_000,
        replicates=20, replicate_steps=10_000, estimator_samples=10_000,
        sample_steps=10_000, scan_points=200, degeneracy_points=30, surface_points=12, el_models=20,
        el_inits=3, search_restarts=16, search_max_iter=100, cut_norm_k=20,
        cut_distance_k=7, small_samples=100_000, n20_samples=20_000,
        n30_samples=50_000, chi_ns=(1000, 3000), walk_n=1000,
    ),
    "tiny": dict(
        fast_steps=2_000, slow_steps=100, big_steps=2_000, er_steps=5_000,
        replicates=4, replicate_steps=5_000, estimator_samples=10_000,
        sample_steps=1_000, scan_points=40, degeneracy_points=2, surface_points=3, el_models=2,
        el_inits=1, search_restarts=2, search_max_iter=20, cut_norm_k=8,
        cut_distance_k=4, small_samples=50_000, n20_samples=2_000,
        n30_samples=2_000, chi_ns=(400,), walk_n=60,
    ),
}


@dataclass
class Job:
    """One top-level call into the package and the oracle for its output.

    layer names the called function as "<module>.<function>"; it is the
    span name of the call in a traced run. check returns None when the
    output is right and a failure message otherwise. steps and samples
    count the chain steps and importance samples the call performs.
    defect, when set, is (known-defect name, start of the failure message
    that defect causes in this job). digest, when set, maps the output to
    the text whose hash must equal the reference recorded for the default
    seed.
    """

    name: str
    layer: str
    fn: object
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    check: object = None
    steps: int = 0
    samples: int = 0
    defect: tuple[str, str] | None = None
    digest: object = None


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliResult:
    """Run `ergmlab <argv>` in this process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return CliResult(code, out.getvalue(), err.getvalue())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def build(workload: str, seed: int, size: str = "full") -> list[Job]:
    """The job list of one workload, generated from its seed."""
    z = SIZES[size]
    rng = np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(workload)]))
    return {"chains": _chains, "landscape": _landscape, "exact": _exact}[workload](rng, z)


def warmup(workload: str) -> None:
    """One small call that loads the code paths a workload uses."""
    if workload == "chains":
        mcmc.run_chain(ChainConfig(10, steps=200, seed=0, model=ModelSpec.edge_triangle(0.1, 0.1)))
    elif workload == "landscape":
        variational.maximize_scalar(ModelSpec.edge_triangle(-0.45, 0.5))
    else:
        mcmc.estimate_importance(ModelSpec.edge_triangle(0.2, 0.1), 4, 1_000, seed=0)


# -- exact helpers shared by the oracles --------------------------------------


def adjacency(g: Graph) -> np.ndarray:
    return np.array([[(row >> j) & 1 for j in range(g.n)] for row in g.rows], dtype=np.int64)


def hom_count(name: str, a: np.ndarray) -> int:
    """Exact homomorphism count of a builtin motif in the graph with adjacency a."""
    deg = a.sum(axis=1)
    if name == "edge":
        return int(deg.sum())
    if name == "triangle":
        return int(np.trace(a @ a @ a))
    if name == "star:2":
        return int((deg * deg).sum())
    if name == "cycle:4":
        a2 = a @ a
        return int((a2 * a2).sum())
    if name == "complete:4":
        # each K4 holds 6 edges, and each edge sees the edge opposite it
        # inside its common neighbourhood
        total = 0
        for i, j in zip(*np.nonzero(np.triu(a))):
            c = a[i] & a[j]
            total += int(c @ a @ c) // 2
        return 24 * (total // 6)
    raise ValueError(f"no exact count for motif {name}")


def statistic(model: ModelSpec, a: np.ndarray) -> float:
    n = a.shape[0]
    return sum(b * hom_count(m.name, a) / n**m.vertex_count for m, b in model.terms)


def scalar_objective(b1: float, b2: float, u):
    """Edge-triangle scalar objective b1 u + b2 u^3 - (1/2)[u log u + (1-u) log(1-u)]."""
    u = np.asarray(u, dtype=float)
    return b1 * u + b2 * u**3 - 0.5 * (u * np.log(u) + (1.0 - u) * np.log1p(-u))


def edge_triangle_kernel(b1: float, b2: float, w: np.ndarray, v: np.ndarray) -> tuple[float, np.ndarray]:
    """Edge-triangle objective at the step kernel (w, v) and the fixed-point map there.

    The objective is b1 t(edge) + b2 t(triangle) - sum_ab w_a w_b I(v_ab);
    the map is the logistic of 2 (b1 + 3 b2 (v diag(w) v)).
    """
    r = np.sqrt(w)
    m = r[:, None] * v * r[None, :]
    ent = 0.5 * (v * np.log(v) + (1.0 - v) * np.log1p(-v))
    value = b1 * float(w @ v @ w) + b2 * float(np.trace(m @ m @ m)) - float(w @ ent @ w)
    return value, 1.0 / (1.0 + np.exp(-2.0 * (b1 + 3.0 * b2 * (v * w) @ v)))


_UGRID = np.unique(np.concatenate([
    np.geomspace(1e-12, 0.5, 20_000), 1.0 - np.geomspace(1e-12, 0.5, 20_000),
    np.linspace(1e-6, 1.0 - 1e-6, 20_000),
]))


def scalar_argmax(b1: float, b2: float) -> tuple[float, float]:
    """Grid maximizer of the edge-triangle scalar objective and its value."""
    vals = scalar_objective(b1, b2, _UGRID)
    i = int(np.argmax(vals))
    return float(_UGRID[i]), float(vals[i])


def log_partition(b1: float, b2: float, n: int) -> float:
    """log of sum_G exp(2 b1 E + 6 b2 T / n) over all graphs on n vertices."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {p: t for t, p in enumerate(pairs)}
    m = len(pairs)
    masks = np.arange(1 << m, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(m)) & 1
    tri = np.zeros(1 << m, dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                tri += bits[:, index[(i, j)]] & bits[:, index[(i, k)]] & bits[:, index[(j, k)]]
    logw = 2.0 * b1 * bits.sum(axis=1) + 6.0 * b2 * tri / n
    top = float(logw.max())
    return top + math.log(float(np.exp(logw - top).sum()))


def mean_field_bound(b1: float, b2: float, n: int) -> float:
    """Gibbs lower bound on log Z over independent-edge laws of density p."""
    m = math.comb(n, 2)
    p = np.linspace(1e-9, 1.0 - 1e-9, 400_001)
    ent = -(p * np.log(p) + (1.0 - p) * np.log1p(-p))
    return float(np.max(2.0 * b1 * m * p + 6.0 * b2 * math.comb(n, 3) * p**3 / n + m * ent))


def chi_square_dense(beta: float, start: str, ell: int) -> float:
    """Chi-square distance of the n = 3 add/delete chain by dense matrix power."""
    m = 3
    k = np.zeros((8, 8))
    for s in range(8):
        for t in range(m):
            if s >> t & 1:
                k[s, s & ~(1 << t)] += math.exp(-beta) / m
                k[s, s] += (1.0 - math.exp(-beta)) / m
            else:
                k[s, s | (1 << t)] += 1.0 / m
    pi = np.array([math.exp(beta * bin(s).count("1")) for s in range(8)])
    pi /= pi.sum()
    row = np.linalg.matrix_power(k, ell)[0 if start == "empty" else 7]
    return float(np.sum((row - pi) ** 2 / pi))


def stratified(rng, lo: float, hi: float, count: int) -> np.ndarray:
    """count uniform draws from [lo, hi], one in each of count equal slices, in random order.

    The draws follow the uniform law, but the job list's total cost varies
    less from seed to seed than with independent draws.
    """
    return rng.permutation(lo + (hi - lo) * (np.arange(count) + rng.random(count)) / count)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# -- chains ------------------------------------------------------------------


def _trace_columns(trace) -> str:
    return "".join(f"{r.edges},{r.triangles}\n" for r in trace)


def _check_chain(cfg: ChainConfig, after=None):
    def check(out):
        trace, final = out
        last = trace[-1]
        if last.step != cfg.steps:
            return f"trace ends at step {last.step}, expected {cfg.steps}"
        a = adjacency(final)
        edges, tri = int(a.sum()) // 2, hom_count("triangle", a) // 6
        if (last.edges, last.triangles) != (edges, tri):
            return f"trace counts {(last.edges, last.triangles)} != recount {(edges, tri)}"
        if cfg.model is not None:
            expect = statistic(cfg.model, a)
        else:
            expect = cfg.er_beta * edges / cfg.n**2
        if abs(last.statistic - expect) > 1e-9 * max(1.0, abs(expect)):
            return f"trace statistic {last.statistic!r} != exact {expect!r}"
        return after(edges / math.comb(cfg.n, 2)) if after else None

    return check


def _chain_job(name: str, cfg: ChainConfig, record_every: int = 100, after=None) -> Job:
    return Job(
        name, "mcmc.run_chain", mcmc.run_chain, (cfg,), {"record_every": record_every},
        check=_check_chain(cfg, after), steps=cfg.steps,
        digest=lambda out: _trace_columns(out[0]),
    )


def _chain_seed(rng) -> int:
    return int(rng.integers(0, 2**63))


def _estimator_steps(samples: int) -> int:
    return math.ceil(samples / 9.0) + samples


def _chains(rng, z) -> list[Job]:
    jobs = []
    # the complete:4 count costs about density^3 per step, so the edge
    # coefficients stay in a narrow band that holds the density near 0.27
    classes = [
        ("star2_n30", Motif.star(2), (-0.21, -0.19), z["fast_steps"]),
        ("triangle_n30", Motif.triangle(), (0.19, 0.21), z["fast_steps"]),
        ("cycle4_n30", Motif.cycle(4), (0.09, 0.11), z["slow_steps"]),
        ("complete4_n30", Motif.complete(4), (0.09, 0.11), z["slow_steps"]),
    ]
    for name, motif, (lo, hi), steps in classes:
        model = ModelSpec([(Motif.edge(), rng.uniform(-0.51, -0.49)), (motif, rng.uniform(lo, hi))])
        jobs.append(_chain_job(name, ChainConfig(30, steps=steps, seed=_chain_seed(rng), model=model)))
    for n in (100, 200):
        model = ModelSpec.edge_triangle(rng.uniform(-0.55, -0.45), rng.uniform(0.15, 0.25))
        cfg = ChainConfig(n, steps=z["big_steps"], seed=_chain_seed(rng), model=model)
        jobs.append(_chain_job(f"triangle_n{n}", cfg))
    cfg = ChainConfig(100, steps=z["er_steps"], seed=_chain_seed(rng), er_beta=float(rng.uniform(0.4, 0.6)))
    jobs.append(_chain_job("er_n100", cfg))

    # acceptance criterion 10: replicate chains whose mean final density
    # tracks the scalar maximizer
    rb1, rb2 = float(rng.uniform(0.35, 0.45)), float(rng.uniform(0.15, 0.25))
    model = ModelSpec.edge_triangle(rb1, rb2)
    densities = {}
    count = z["replicates"]

    def tracker(k):
        def after(density):
            densities[k] = density
            if len(densities) < count:
                return None
            u_star = scalar_argmax(rb1, rb2)[0]
            gap = abs(float(np.mean([densities[i] for i in range(count)])) - u_star)
            return None if gap < 0.05 else f"replicate mean density is {gap:.4f} from u* = {u_star:.4f}"
        return after

    for k in range(count):
        cfg = ChainConfig(30, steps=z["replicate_steps"], seed=_chain_seed(rng), model=model)
        jobs.append(_chain_job(f"replicate_{k:02d}", cfg, record_every=z["replicate_steps"], after=tracker(k)))

    # ratio estimators on an edge+triangle pair whose triangle coefficient is
    # zero: the law is then independent-edge and the ratio has a closed form
    b0 = float(rng.uniform(0.2, 0.3))
    model0 = ModelSpec([(Motif.edge(), b0), (Motif.triangle(), 0.0)])
    model1 = ModelSpec([(Motif.edge(), b0 + 0.01), (Motif.triangle(), 0.0)])
    exact = math.comb(30, 2) * float(np.logaddexp(0.0, 2.0 * (b0 + 0.01)) - np.logaddexp(0.0, 2.0 * b0))
    samples = z["estimator_samples"]

    # The chain moves one edge a step, so 10,000 samples hold only about 25
    # sweeps of the 435 edges: over seeds 1000-1039 and 402 the error had a
    # standard deviation of 0.072 (MCMLE) and 0.041 (acceptance ratio), and
    # reached -0.295 at seed 402. The tolerance is 7 of the larger.
    def check_ratio(res):
        err = res.estimate_log - exact
        return None if abs(err) < 0.5 else f"log ratio {res.estimate_log:.5f} is {err:+.4f} from exact {exact:.5f}"

    jobs.append(Job(
        "mcmle", "mcmc.estimate_mcmle", mcmc.estimate_mcmle,
        (model1, model0, samples, ChainConfig(30, seed=_chain_seed(rng))),
        check=check_ratio, steps=_estimator_steps(samples),
    ))
    jobs.append(Job(
        "acceptance_ratio", "mcmc.estimate_acceptance_ratio", mcmc.estimate_acceptance_ratio,
        (model1, model0, "geometric-mean", samples, samples, ChainConfig(30, seed=_chain_seed(rng))),
        check=check_ratio, steps=2 * _estimator_steps(samples),
    ))

    sb1, sb2, seed = float(rng.uniform(0.35, 0.45)), float(rng.uniform(0.15, 0.25)), _chain_seed(rng)
    steps = z["sample_steps"]
    argv = ["sample", "--n", "30", "--steps", str(steps), "--beta1", repr(sb1),
            "--beta2", repr(sb2), "--seed", str(seed)]

    def sample_rows(res):
        return [ln.split(",") for ln in res.stdout.splitlines()[4:]]

    def check_sample(res):
        if res.code != 0:
            return f"exit code {res.code}: {res.stderr.strip()}"
        if res.stdout.splitlines()[3] != "step,edges,triangles,statistic":
            return "missing CSV header"
        rows = sample_rows(res)
        if len(rows) != steps // 100 + 1:
            return f"{len(rows)} trace rows, expected {steps // 100 + 1}"
        for step, e, t, stat in rows:
            expect = 2.0 * sb1 * int(e) / 900 + 6.0 * sb2 * int(t) / 27_000
            if abs(float(stat) - expect) > 1e-10 * max(1.0, abs(expect)):
                return f"row {step}: statistic {stat} != {expect!r}"
        return None

    jobs.append(Job(
        "cli_sample", "cli.main", run_cli, (argv,), check=check_sample, steps=steps,
        digest=lambda res: "".join(f"{e},{t}\n" for _, e, t, _ in sample_rows(res)),
    ))
    return jobs


# -- landscape ---------------------------------------------------------------


def _landscape(rng, z) -> list[Job]:
    jobs = []
    for b1, want in ((-0.45, 1), (-0.1, 0), (0.2, 0)):
        def check_scan(res, want=want):
            if len(res.jumps) != want:
                return f"{len(res.jumps)} jumps at beta1 = {res.beta1}, expected {want}"
            if want and abs(res.jumps[0].u_high - res.jumps[0].u_low) <= 0.3:
                return "jump between maximizers closer than 0.3"
            return None

        jobs.append(Job(
            f"phase_scan_{b1:+.2f}", "variational.phase_scan", variational.phase_scan,
            (b1, 0.0, 2.0, z["scan_points"]), check=check_scan,
        ))

    # a sweep of equal-cost calls (each about 25 scalar solves): it also
    # gives the job list a tight cluster at its median latency
    for k, b1 in enumerate(sorted(stratified(rng, -5.0, -2.0, z["degeneracy_points"]))):
        b1 = float(b1)

        def check_degeneracy(rep, b1=b1):
            c1, c2 = math.exp(b1) / (1.0 + math.exp(b1)), 1.0 + 1.0 / (2.0 * b1)
            if abs(rep.c1 - c1) > 1e-12 or abs(rep.c2 - c2) > 1e-12:
                return f"constants {rep.c1!r}, {rep.c2!r} != {c1!r}, {c2!r}"
            below = scalar_argmax(b1, rep.q_estimate - 0.05)[0]
            above = scalar_argmax(b1, rep.q_estimate + 0.05)[0]
            if not (below < c1 and above > c2):
                return f"maximizers {below:.4g}, {above:.4g} around q do not straddle ({c1:.4g}, {c2:.4g})"
            return None

        jobs.append(Job(
            f"degeneracy_{k:02d}", "variational.degeneracy_constants",
            variational.degeneracy_constants, (b1,), check=check_degeneracy,
        ))

    pts = z["surface_points"]
    lo, hi = float(rng.uniform(-1.1, -0.9)), float(rng.uniform(0.9, 1.1))
    argv = ["phase-diagram", "--beta1", f"{lo!r}:{hi!r}:{pts}", "--beta2", f"0:2:{pts}"]

    def check_surface(res):
        if res.code != 0:
            return f"exit code {res.code}: {res.stderr.strip()}"
        rows = [ln.split(",") for ln in res.stdout.splitlines()[4:]]
        if len(rows) != pts * pts:
            return f"{len(rows)} surface rows, expected {pts * pts}"
        for b1, b2, u, psi, mult in rows:
            b1, b2, u, psi = float(b1), float(b2), float(u), float(psi)
            value = float(scalar_objective(b1, b2, u))
            best = scalar_argmax(b1, b2)[1]
            if not (0.0 < u < 1.0 and int(mult) >= 1):
                return f"row ({b1}, {b2}): maximizer {u} or multiplicity {mult} out of range"
            if abs(psi - value) > 1e-9 or value < best - 1e-9:
                return f"row ({b1}, {b2}): psi {psi} at u = {u} is not the grid maximum {best}"
        return None

    jobs.append(Job("cli_phase_surface", "cli.main", run_cli, (argv,), check=check_surface))

    # acceptance criterion 8: contraction-regime models, each solved from
    # several random block inits, must land on the scalar maximizer. The
    # motif sets take turns and the coefficients are stratified, because a
    # solve's cost depends on them.
    pool = [Motif.triangle(), Motif.star(2), Motif.star(3), Motif.cycle(4)]
    motif_sets = [[m] for m in pool] + [list(pair) for pair in itertools.combinations(pool, 2)]
    count = z["el_models"]
    beta1s, budgets = stratified(rng, -1.0, 1.0, count), stratified(rng, 0.2, 1.6, count)
    turns = rng.permutation(count)
    u_star = {}
    for k in range(count):
        beta1, budget = float(beta1s[k]), float(budgets[k])
        extras = motif_sets[turns[k] % len(motif_sets)]
        shares = rng.dirichlet(np.ones(len(extras)))
        terms = [(Motif.edge(), beta1)]
        for motif, share in zip(extras, shares):
            e = motif.edge_count
            terms.append((motif, float(rng.choice([-1, 1])) * budget * share / (e * (e - 1))))
        model = ModelSpec(terms)
        first = int(rng.integers(0, 3))
        for i in range(z["el_inits"]):
            blocks = 1 + (first + i) % 3
            a = rng.uniform(0.05, 0.95, (blocks, blocks))
            init = StepGraphon.equal_blocks(0.5 * (a + a.T))

            def check_el(out, k=k, model=model):
                if k not in u_star:
                    u_star[k] = max(variational.maximize_scalar(model).maximizers)
                dev = float(np.max(np.abs(out[0].values - u_star[k])))
                return None if dev < 1e-7 else f"solution is {dev:.2e} from the scalar maximizer"

            jobs.append(Job(
                f"euler_lagrange_{k:02d}_{i}", "variational.euler_lagrange_solve",
                variational.euler_lagrange_solve, (model, init), {"damping": 0.5}, check=check_el,
            ))

    # the criterion-9 model. At the benchmark's iteration cap the search need
    # not reach the criterion-9 bounds, so the oracle checks what holds for
    # any run: psi is the objective at the returned kernel, the residual is
    # that of the fixed-point map there, and psi stays below the extremal
    # value (1/4) log 2 (above it by at most about 1e-17 at beta2 = -50).
    sb1, sb2 = 0.0, -50.0

    def check_search(rep):
        w, v = rep.maximizers[0].weights, rep.maximizers[0].values
        if not (np.array_equal(v, v.T) and np.all((v >= 1e-6) & (v <= 1.0 - 1e-6))):
            return "kernel not symmetric in [1e-6, 1 - 1e-6]"
        value, phi = edge_triangle_kernel(sb1, sb2, w, v)
        if abs(rep.psi - value) > 1e-12:
            return f"psi {rep.psi!r} != objective {value!r} at the returned kernel"
        if rep.psi > 0.25 * math.log(2.0) + 1e-12:
            return f"psi {rep.psi!r} above the extremal value (1/4) log 2"
        residual = float(np.max(np.abs(v - phi)))
        if not abs(rep.stationarity_residuals[0] - residual) <= 1e-12:
            return f"residual {rep.stationarity_residuals[0]!r} != {residual!r}"
        return None

    jobs.append(Job(
        "graphon_search_k4", "variational.graphon_search", variational.graphon_search,
        (ModelSpec.edge_triangle(sb1, sb2),),
        {"k": 4, "restarts": z["search_restarts"], "max_iter": z["search_max_iter"],
         "seed": int(rng.integers(0, 2**32))},
        check=check_search,
    ))

    f, g = StepGraphon.random(z["cut_norm_k"], rng), StepGraphon.random(z["cut_norm_k"], rng)
    values = {}

    def check_cut(first, second, swapped):
        def check(res):
            mass = np.outer(first.weights, second.weights) * (first.values - second.values)
            witness = abs(float(mass[np.ix_(res.witness_s, res.witness_t)].sum()))
            if not res.exact or abs(witness - res.value) > 1e-12:
                return f"value {res.value!r} != witness rectangle integral {witness!r}"
            if not 0.0 <= res.value <= float(np.abs(mass).sum()):
                return f"value {res.value!r} out of range"
            values[swapped] = res.value
            if len(values) == 2 and abs(values[True] - values[False]) > 1e-12:
                return f"cut norm changes under argument swap: {values[False]!r} vs {values[True]!r}"
            return None

        return check

    jobs.append(Job("cut_norm_fg", "graphons.cut_norm_diff", graphons.cut_norm_diff, (f, g),
                    check=check_cut(f, g, False)))
    jobs.append(Job("cut_norm_gf", "graphons.cut_norm_diff", graphons.cut_norm_diff, (g, f),
                    check=check_cut(g, f, True)))

    kernel = StepGraphon.random(z["cut_distance_k"], rng)
    perm = rng.permutation(kernel.k)
    relabelled = StepGraphon(kernel.weights, kernel.values[np.ix_(perm, perm)])

    def check_distance(res):
        p = np.asarray(res.permutation)
        if not res.exhaustive or res.value > 1e-12:
            return f"distance {res.value!r} between a kernel and its relabelling"
        if not np.array_equal(relabelled.values[np.ix_(p, p)], kernel.values):
            return "returned permutation does not undo the relabelling"
        return None

    jobs.append(Job(f"cut_distance_k{kernel.k}", "graphons.cut_distance_upper", graphons.cut_distance_upper,
                    (kernel, relabelled), check=check_distance))
    return jobs


# -- exact -------------------------------------------------------------------


def _exact(rng, z) -> list[Job]:
    jobs = []
    models = {
        "a": (float(rng.uniform(0.15, 0.25)), float(rng.uniform(0.05, 0.15))),
        "b": (float(rng.uniform(-0.5, -0.4)), float(rng.uniform(0.15, 0.25))),
        "c": (float(rng.uniform(-0.1, 0.1)), float(rng.uniform(-0.25, -0.15))),
    }
    truth = {}

    def log_z(label, n):
        if (label, n) not in truth:
            truth[label, n] = log_partition(*models[label], n)
        return truth[label, n]

    # acceptance criterion 7, extended to n = 6 where enumerate_psi_n
    # should still answer
    for n in (4, 5, 6):
        for label, (b1, b2) in models.items():
            model = ModelSpec.edge_triangle(b1, b2)

            def check_importance(res, label=label, n=n):
                rel = _rel(res.estimate_log / n**2, log_z(label, n) / n**2)
                return None if rel < 0.01 else f"importance psi_{n} off by {rel:.2%} from enumeration"

            def check_enumeration(psi, label=label, n=n):
                err = abs(psi - log_z(label, n) / n**2)
                return None if err < 1e-9 else f"enumerated psi_{n} off by {err:.2e}"

            samples = z["small_samples"]
            jobs.append(Job(
                f"importance_n{n}{label}", "mcmc.estimate_importance", mcmc.estimate_importance,
                (model, n, samples), {"seed": int(rng.integers(0, 2**32))},
                check=check_importance, samples=samples,
            ))
            jobs.append(Job(
                f"enumerate_n{n}{label}", "mcmc.enumerate_psi_n", mcmc.enumerate_psi_n,
                (model, n), check=check_enumeration,
                defect=("enumeration-guard", "raised InstanceTooLargeError") if n == 6 else None,
            ))

    # larger n has no enumeration; the estimate must sit between the Gibbs
    # mean-field lower bound and 1% above it (the model is near independent)
    ab1, ab2 = models["a"]
    for n, samples in ((20, z["n20_samples"]), (30, z["n30_samples"])):
        def check_band(res, n=n):
            bound = mean_field_bound(ab1, ab2, n)
            rel = (res.estimate_log - bound) / abs(bound)
            return None if -0.002 < rel < 0.01 else f"estimate {rel:+.3%} from the mean-field bound"

        jobs.append(Job(
            f"importance_n{n}", "mcmc.estimate_importance", mcmc.estimate_importance,
            (ModelSpec.edge_triangle(ab1, ab2), n, samples), {"seed": int(rng.integers(0, 2**32))},
            check=check_band, samples=samples,
        ))

    beta3, ell3 = float(rng.uniform(0.0, 1.0)), int(rng.integers(0, 21))

    def check_n3(value):
        dense = chi_square_dense(beta3, "empty", ell3)
        return None if abs(value - dense) < 1e-10 else f"n = 3 chi-square {value!r} != dense {dense!r}"

    jobs.append(Job("chi_square_n3", "mcmc.chi_square_distance", mcmc.chi_square_distance,
                    ("empty", beta3, 3, ell3), check=check_n3))

    # acceptance criterion 6 at n = 200 and the same cutoff limits beyond it
    beta = float(rng.uniform(0.5, 1.0))
    cases = [(200, c, start) for c in (2.0, 6.0) for start in ("empty", "complete")]
    cases += [(n, 2.0, start) for n, start in zip(z["chi_ns"], ("empty", "complete"))]
    for n, c, start in cases:
        sign = 1.0 if start == "empty" else -1.0
        limit = math.exp(math.exp(sign * beta - c)) - 1.0

        def check_cutoff(value, limit=limit):
            rel = _rel(value, limit)
            return None if rel <= 0.10 else f"chi-square {value!r} is {rel:.1%} from the cutoff limit"

        jobs.append(Job(
            f"chi_square_n{n}_{start}_c{c:g}", "mcmc.chi_square_distance", mcmc.chi_square_distance,
            (start, beta, n, mcmc.mixing_cutoff(n, beta, c)), check=check_cutoff,
        ))

    betas = ",".join(repr(float(x)) for x in rng.uniform(0.0, 1.0, size=3))

    def check_spectral(res):
        lines = res.stdout.splitlines()
        if res.code != 0 or lines[-1] != "PASS":
            return f"exit code {res.code}, last line {lines[-1] if lines else ''!r}"
        return None

    jobs.append(Job("cli_spectral_check", "cli.main", run_cli,
                    (["spectral-check", "--betas", betas],), check=check_spectral))

    argv = ["estimate-z", "--method", "importance", "--beta1", repr(ab1), "--beta2", repr(ab2),
            "--n", "5", "--samples", str(z["small_samples"]), "--seed", str(int(rng.integers(0, 2**32)))]

    def check_estimate_z(res):
        if res.code != 0:
            return f"exit code {res.code}: {res.stderr.strip()}"
        value = [float(ln.split()[1]) for ln in res.stdout.splitlines() if ln.startswith("estimate_log ")]
        rel = _rel(value[0] / 25, log_z("a", 5) / 25)
        return None if rel < 0.01 else f"estimate-z psi_5 off by {rel:.2%} from enumeration"

    jobs.append(Job("cli_estimate_z", "cli.main", run_cli, (argv,), check=check_estimate_z))

    argv = ["psi", "--beta1", repr(ab1), "--beta2", repr(ab2), "--exact-n", "6"]

    def check_psi(res):
        if res.code != 0:
            return f"exit code {res.code}: {res.stderr.strip()}"
        value = [float(ln.split()[1]) for ln in res.stdout.splitlines() if ln.startswith("psi_6 ")]
        err = abs(value[0] - log_z("a", 6) / 36)
        return None if err < 1e-9 else f"psi_6 off by {err:.2e} from enumeration"

    jobs.append(Job("cli_psi_exact_n6", "cli.main", run_cli, (argv,), check=check_psi,
                    defect=("enumeration-guard", "exit code 2")))

    # closed walks in K_n: tr(A^k) = (n-1)^k + (n-1)(-1)^k
    walk_n = z["walk_n"]
    complete = Graph.complete(walk_n)
    for k in range(4, 8):
        def check_walks(count, k=k):
            exact = (walk_n - 1) ** k + (walk_n - 1) * (-1) ** k
            return None if count == exact else f"off by {count - exact}: count {count} != {exact}"

        offset = CYCLE_OFFSETS_K1000.get(k) if walk_n == 1000 else None
        jobs.append(Job(
            f"closed_walks_c{k}", "graphs.hom_count_fast", graphs.hom_count_fast,
            (Motif.cycle(k), complete), check=check_walks,
            defect=("cycle-float-trace", f"off by {offset}:") if offset else None,
        ))
    return jobs
