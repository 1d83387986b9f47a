"""Command-line interface: sweeps, samplers, estimators, and oracle checks.

Every output file starts with comment lines echoing the exact command line,
the seed in effect, and the package version, so a run can be reproduced
byte for byte. Exit codes: 0 success, 1 usage error, 2 numeric-guard or
domain error, including a malformed model or graph file.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__, mcmc, variational
from .errors import ErgmLabError
from .graphs import Graph, Motif, _mask_bits, _rng_from_seed
from .graphons import StepGraphon
from .variational import ModelSpec

DEFAULT_SEED = 20260809


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_range(spec: str) -> np.ndarray:
    """Parse 'lo:hi:steps' into a grid, or a single float into a 1-point grid."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise UsageError(f"range must be lo:hi:steps, got {spec!r}")
        try:
            lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise UsageError(f"bad range {spec!r}: {exc}")
        if steps < 2:
            raise UsageError("range needs at least 2 steps")
        with np.errstate(over="ignore", invalid="ignore"):  # the model guard refuses non-finite points
            return np.linspace(lo, hi, steps)
    try:
        return np.array([float(spec)])
    except ValueError as exc:
        raise UsageError(f"expected a number or lo:hi:steps, got {spec!r}")


def _parse_init(spec: str) -> str | float:
    """Parse --init: 'random' or a constant kernel value."""
    if spec == "random":
        return spec
    try:
        return float(spec)
    except ValueError:
        raise UsageError(f"--init must be a number or 'random', got {spec!r}")


def _parse_betas(spec: str) -> list[float]:
    """Parse --betas: comma-separated numbers."""
    try:
        return [float(x) for x in spec.split(",")]
    except ValueError:
        raise UsageError(f"--betas must be comma-separated numbers, got {spec!r}")


def _surface(beta1_grid: np.ndarray, beta2_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (beta1, beta2) pair of two grids, beta1 in the outer loop."""
    return np.repeat(beta1_grid, len(beta2_grid)), np.tile(beta2_grid, len(beta1_grid))


def _read(path: str, cls):
    """cls.from_text of a UTF-8 file: a ModelSpec or a Graph."""
    with open(path, encoding="utf-8") as fh:
        return cls.from_text(fh.read())


def _load_model(args) -> ModelSpec:
    if args.model:
        return _read(args.model, ModelSpec)
    if args.beta1 is None:
        raise UsageError("provide --model FILE or inline --beta1/--beta2")
    return ModelSpec.edge_triangle(args.beta1, args.beta2)


class _Output:
    """Write to a path or stdout with the reproducibility header."""

    def __init__(self, path: str | None, argv: list[str], seed: int | None):
        self.path = path
        self.lines: list[str] = []
        self.header = [
            f"# command: ergmlab {' '.join(argv)}",
            f"# seed: {seed if seed is not None else 'none'}",
            f"# version: {__version__}",
        ]

    def write(self, text: str):
        self.lines.extend(text.splitlines())

    def finish(self):
        body = "\n".join(self.header + self.lines) + "\n"
        if self.path:
            with open(self.path, "w", encoding="utf-8") as fh:
                fh.write(body)
        else:
            sys.stdout.write(body)


# -- subcommands -----------------------------------------------------------------


def _cmd_sample(args, out):
    model = _load_model(args)
    cfg = mcmc.ChainConfig(args.n, steps=args.steps, seed=args.seed, start=args.start, model=model)
    trace, final = mcmc.run_chain(cfg, record_every=args.record_every)
    out.write("step,edges,triangles,statistic")
    for rec in trace:
        out.write(f"{rec.step},{rec.edges},{rec.triangles},{rec.statistic:.12g}")


def _cmd_psi(args, out):
    model = _load_model(args)
    rep = variational.maximize_scalar(model)
    out.write(f"psi_limit {rep.psi:.12g}")
    out.write(f"maximizers {' '.join(f'{u:.12g}' for u in rep.maximizers)}")
    out.write(f"applicability {variational.applicability_check(model)}")
    if args.exact_n is not None:
        out.write(f"psi_{args.exact_n} {mcmc.enumerate_psi_n(model, args.exact_n):.12g}")


def _cmd_phase_diagram(args, out):
    if len(args.beta1) == 1 and len(args.beta2) > 1:  # a sweep; any other grid is a surface
        b2s = args.beta2
        res = variational.phase_scan(float(args.beta1[0]), float(b2s[0]), float(b2s[-1]), len(b2s))
        out.write("beta2,u_star,psi,multiplicity")
        rows = list(res.points)
        for jump in res.jumps:
            model = ModelSpec.edge_triangle(res.beta1, jump.beta2)
            psi = variational.scalar_objective(model, jump.u_low)
            rows.append((jump.beta2, jump.u_low, psi, 2))
        rows.sort(key=lambda r: (r[0], r[3]))
        for b2, u, psi, mult in rows:
            out.write(f"{b2:.12g},{u:.12g},{psi:.12g},{mult}")
    else:
        out.write("beta1,beta2,u_star,psi,multiplicity")
        b1s, b2s = _surface(args.beta1, args.beta2)
        for b1, b2, rep in zip(b1s, b2s, variational._edge_triangle_stack(b1s, b2s)):
            out.write(
                f"{b1:.12g},{b2:.12g},{max(rep.maximizers):.12g},{rep.psi:.12g},{len(rep.maximizers)}"
            )


def _cmd_degeneracy(args, out):
    rep = variational.degeneracy_constants(args.beta1, args.beta2)
    out.write(f"c1 {rep.c1:.12g}")
    out.write(f"c2 {rep.c2:.12g}")
    out.write(f"q_estimate {rep.q_estimate:.12g}")
    if rep.regime is not None:
        out.write(f"regime {rep.regime}")


def _cmd_estimate_z(args, out):
    model = _load_model(args)
    if args.method == "importance":
        res = mcmc.estimate_importance(
            model, args.n, args.samples, args.seed, proposal_p=args.proposal_p
        )
    else:
        if not args.model0:
            raise UsageError(f"--model0 is required for method {args.method}")
        model0 = _read(args.model0, ModelSpec)
        cfg = mcmc.ChainConfig(args.n, seed=args.seed, start=args.start)
        if args.method == "mcmle":
            res = mcmc.estimate_mcmle(model, model0, args.samples, cfg, thinning=args.thinning)
        else:
            res = mcmc.estimate_acceptance_ratio(
                model,
                model0,
                args.alpha,
                args.samples,
                args.samples if args.samples2 is None else args.samples2,
                cfg,
                thinning=args.thinning,
            )
    out.write(res.to_text())


def _residual(a, b, *inputs) -> np.ndarray:
    """[max |a - b|, the largest magnitude in a, b and the inputs they came from]."""
    return np.array([np.max(np.abs(a - b)), max(np.max(np.abs(x)) for x in (a, b, *inputs))])


def _cmd_spectral_check(args, out):
    n = 3
    m = math.comb(n, 2)
    bits = _mask_bits(m).tolist()
    # each check folds [residual, magnitude] pairs through numpy, which keeps
    # a nan that Python's max drops; a residual passes at most
    # max(1e-10, 1e-12 x the largest magnitude it compares), and nan fails
    worst = 0.0
    passed = True
    for beta in args.betas:
        k = mcmc.er_transition_matrix(beta, n)
        pi = mcmc.er_stationary(beta, n)
        flow = pi[:, None] * k
        db = _residual(flow, flow.T)
        eig = np.zeros(2)
        ortho = []
        for xi in bits:
            comp = mcmc.er_eigen(xi, beta, m)
            psi = np.array([comp.evaluate(x) for x in bits])
            # K psi sums entries of psi, so its rounding scales with max |psi|,
            # which can exceed |K psi| by 1e5 (beta = 20)
            eig = np.maximum(eig, _residual(k @ psi, comp.eigenvalue * psi, psi))
            ortho.append(psi)
        gram = np.array([[float(np.sum(pi * a * b)) for b in ortho] for a in ortho])
        orth = _residual(gram, np.eye(1 << m))
        chi = np.zeros(2)
        for ell in range(0, 21):
            kl = np.linalg.matrix_power(k, ell)
            for start, idx in (("empty", 0), ("complete", (1 << m) - 1)):
                # the closed form first: its overflow guard fires before the
                # brute-force sum divides by a pi that underflowed to 0
                closed = mcmc.chi_square_distance(start, beta, n, ell)
                brute = float(np.sum((kl[idx] - pi) ** 2 / pi))
                chi = np.maximum(chi, _residual(brute, closed))
        out.write(
            f"beta {beta}: detailed_balance {db[0]:.3g} eigen {eig[0]:.3g} "
            f"orthonormality {orth[0]:.3g} chi_square {chi[0]:.3g}"
        )
        checks = (db, eig, orth, chi)
        worst = float(np.max([worst] + [resid for resid, _ in checks]))
        passed = passed and all(resid <= max(1e-10, 1e-12 * size) for resid, size in checks)
    out.write(f"worst_residual {worst:.3g}")
    out.write("PASS" if passed else "FAIL")


def _cmd_euler_lagrange(args, out):
    model = _load_model(args)
    if args.blocks >= 1:  # a smaller count reaches StepGraphon's own check
        # the solver's guards before the k x k init is built, on a view of
        # the equal weights: nothing of size k is allocated before them
        variational._KernelOperator(model, np.broadcast_to(1.0 / args.blocks, args.blocks))
    if args.init == "random":
        init = StepGraphon.random(args.blocks, _rng_from_seed(args.seed))
    else:
        # a list, not np.full: a block count below 1 reaches equal_blocks' guard
        init = StepGraphon.equal_blocks([[args.init] * args.blocks] * args.blocks)
    sol, residual = variational.euler_lagrange_solve(
        model, init, damping=args.damping, max_iter=args.max_iter
    )
    out.write(f"residual {residual:.12g}")
    out.write(sol.to_text())


def _cmd_extremal(args, out):
    motif = Motif.parse(args.motif)
    kernel, psi = variational.extremal_limit(motif, args.beta1)
    out.write(f"chromatic_number {motif.chromatic}")
    out.write(f"psi_limit {psi:.12g}")
    out.write(kernel.to_text())


def _cmd_top_contour(args, out):
    g = _read(args.graph, Graph)
    out.write("beta1,beta2,top")
    b1s, b2s = _surface(args.beta1, args.beta2)
    for b1, b2, top in zip(b1s, b2s, variational._top_statistics(b1s, b2s, g)):
        out.write(f"{b1:.12g},{b2:.12g},{top:.12g}")


# -- wiring -----------------------------------------------------------------------


def _build_parser() -> _Parser:
    p = _Parser(prog="ergmlab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output file (default: stdout)")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=DEFAULT_SEED)
    chain = argparse.ArgumentParser(add_help=False, parents=[seed])
    chain.add_argument("--start", default="empty", choices=["empty", "complete"])
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--model", help="model file: one 'motif beta' per line")
    model.add_argument("--beta1", type=float, help="inline edge coefficient")
    model.add_argument("--beta2", type=float, default=0.0, help="inline triangle coefficient")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--beta1", type=_parse_range, required=True, help="value or lo:hi:steps")
    grid.add_argument("--beta2", type=_parse_range, required=True, help="value or lo:hi:steps")

    def command(name, fn, parents, summary):
        sp = sub.add_parser(name, parents=[out, *parents], help=summary)
        sp.set_defaults(fn=fn)
        return sp

    sp = command("sample", _cmd_sample, [model, chain], "run Glauber dynamics and emit a CSV trace")
    sp.add_argument("--n", type=int, default=30)
    sp.add_argument("--steps", type=int, default=10_000)
    sp.add_argument("--record-every", type=int, default=100)

    sp = command("psi", _cmd_psi, [model], "limiting free energy via the scalar problem")
    sp.add_argument("--exact-n", type=int, help="also enumerate psi_n exactly (1 <= n <= 6)")

    command("phase-diagram", _cmd_phase_diagram, [grid], "maximizer surface or sweep with jump rows")

    sp = command("degeneracy", _cmd_degeneracy, [], "sparse/dense dichotomy constants and q")
    sp.add_argument("--beta1", type=float, required=True)
    sp.add_argument("--beta2", type=float)

    sp = command("estimate-z", _cmd_estimate_z, [model, chain], "normalizing-constant estimators")
    sp.add_argument("--method", required=True, choices=["importance", "mcmle", "acceptance-ratio"])
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--samples", type=int, default=10_000)
    sp.add_argument("--samples2", type=int)
    sp.add_argument("--proposal-p", type=float)
    sp.add_argument("--model0", help="reference model file for ratio estimators")
    sp.add_argument("--alpha", default="constant", choices=["constant", "geometric-mean"])
    sp.add_argument("--thinning", type=int, default=1)

    sp = command("spectral-check", _cmd_spectral_check, [], "exact spectral oracle suite at n = 3")
    sp.add_argument("--betas", type=_parse_betas, default="0,0.5,1")

    sp = command("euler-lagrange", _cmd_euler_lagrange, [model, seed],
                 "damped fixed-point solve on block kernels")
    sp.add_argument("--blocks", type=int, default=1)
    sp.add_argument("--init", type=_parse_init, default="0.5", help="constant init value or 'random'")
    sp.add_argument("--damping", type=float, default=0.5)
    sp.add_argument("--max-iter", type=int, default=20_000)

    sp = command("extremal", _cmd_extremal, [], "strong-negative-coefficient limit kernel")
    sp.add_argument("--motif", required=True)
    sp.add_argument("--beta1", type=float, required=True)

    sp = command("top-contour", _cmd_top_contour, [grid], "shifted log-likelihood surface for a graph")
    sp.add_argument("--graph", required=True, help="edge-list file")

    return p


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join each single-dash token such as '-inf' or '-1:1:3' to the long
    option before it, which argparse would otherwise read as an option name.
    Every long option but --help takes one value."""
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        takes_value = prev.startswith("--") and "=" not in prev and prev != "--help"
        if takes_value and tok.startswith("-") and not tok.startswith("--"):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(_merge_negative_values(argv))
        out = _Output(args.out, argv, getattr(args, "seed", None))
        args.fn(args, out)
        out.finish()
        return 0
    except (UsageError, FileNotFoundError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ErgmLabError as exc:
        print(f"numeric guard: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
