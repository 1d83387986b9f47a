"""Command-line interface: sweeps, samplers, estimators, and oracle checks.

Every output file starts with comment lines echoing the exact command line,
the seed in effect, and the package version, so a run can be reproduced
byte for byte. Exit codes: 0 success, 1 usage error, 2 numeric-guard or
domain error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__, mcmc, variational
from .errors import (
    ConvergenceError,
    DomainError,
    ErgmLabError,
    FormatError,
    InstanceTooLargeError,
    OverflowGuardError,
)
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
        return np.linspace(lo, hi, steps)
    try:
        return np.array([float(spec)])
    except ValueError as exc:
        raise UsageError(f"expected a number or lo:hi:steps, got {spec!r}")


def _surface(beta1_grid: np.ndarray, beta2_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (beta1, beta2) pair of two grids, beta1 in the outer loop."""
    return np.repeat(beta1_grid, len(beta2_grid)), np.tile(beta2_grid, len(beta1_grid))


def _load_model(args) -> ModelSpec:
    if getattr(args, "model", None):
        with open(args.model, encoding="utf-8") as fh:
            return ModelSpec.from_text(fh.read())
    beta1 = getattr(args, "beta1", None)
    beta2 = getattr(args, "beta2", None)
    if beta1 is None:
        raise UsageError("provide --model FILE or inline --beta1/--beta2")
    return ModelSpec.edge_triangle(beta1, beta2 if beta2 is not None else 0.0)


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
        self.lines.append(text)

    def finish(self):
        body = "\n".join(self.header + self.lines) + "\n"
        if self.path:
            with open(self.path, "w", encoding="utf-8") as fh:
                fh.write(body)
        else:
            sys.stdout.write(body)


# -- subcommands -----------------------------------------------------------------


def _cmd_sample(args, argv):
    model = _load_model(args)
    out = _Output(args.out, argv, args.seed)
    cfg = mcmc.ChainConfig(args.n, steps=args.steps, seed=args.seed, start=args.start, model=model)
    trace, final = mcmc.run_chain(cfg, record_every=args.record_every)
    out.write("step,edges,triangles,statistic")
    for rec in trace:
        out.write(f"{rec.step},{rec.edges},{rec.triangles},{rec.statistic:.12g}")
    out.finish()
    return 0


def _cmd_psi(args, argv):
    model = _load_model(args)
    out = _Output(args.out, argv, None)
    rep = variational.maximize_scalar(model)
    out.write(f"psi_limit {rep.psi:.12g}")
    out.write(f"maximizers {' '.join(f'{u:.12g}' for u in rep.maximizers)}")
    out.write(f"applicability {variational.applicability_check(model)}")
    if args.exact_n:
        out.write(f"psi_{args.exact_n} {mcmc.enumerate_psi_n(model, args.exact_n):.12g}")
    out.finish()
    return 0


def _cmd_phase_diagram(args, argv):
    beta1_grid = _parse_range(args.beta1)
    beta2_grid = _parse_range(args.beta2)
    out = _Output(args.out, argv, None)
    if len(beta1_grid) == 1:
        res = variational.phase_scan(
            float(beta1_grid[0]),
            float(beta2_grid[0]),
            float(beta2_grid[-1]),
            len(beta2_grid),
        )
        out.write("beta2,u_star,psi,multiplicity")
        rows = [
            (b2, u, psi, mult) for (b2, u, psi, mult) in res.points
        ]
        for jump in res.jumps:
            model = ModelSpec.edge_triangle(res.beta1, jump.beta2)
            psi = variational.scalar_objective(model, jump.u_low)
            rows.append((jump.beta2, jump.u_low, psi, 2))
        rows.sort(key=lambda r: (r[0], r[3]))
        for b2, u, psi, mult in rows:
            out.write(f"{b2:.12g},{u:.12g},{psi:.12g},{mult}")
    else:
        out.write("beta1,beta2,u_star,psi,multiplicity")
        b1s, b2s = _surface(beta1_grid, beta2_grid)
        for b1, b2, rep in zip(b1s, b2s, variational._edge_triangle_stack(b1s, b2s)):
            out.write(
                f"{b1:.12g},{b2:.12g},{max(rep.maximizers):.12g},{rep.psi:.12g},{len(rep.maximizers)}"
            )
    out.finish()
    return 0


def _cmd_degeneracy(args, argv):
    out = _Output(args.out, argv, None)
    rep = variational.degeneracy_constants(args.beta1, args.beta2)
    out.write(f"c1 {rep.c1:.12g}")
    out.write(f"c2 {rep.c2:.12g}")
    out.write(f"q_estimate {rep.q_estimate:.12g}")
    if rep.regime is not None:
        out.write(f"regime {rep.regime}")
    out.finish()
    return 0


def _cmd_estimate_z(args, argv):
    model = _load_model(args)
    out = _Output(args.out, argv, args.seed)
    if args.method == "importance":
        res = mcmc.estimate_importance(
            model, args.n, args.samples, args.seed, proposal_p=args.proposal_p
        )
    else:
        if not args.model0:
            raise UsageError(f"--model0 is required for method {args.method}")
        with open(args.model0, encoding="utf-8") as fh:
            model0 = ModelSpec.from_text(fh.read())
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
    for ln in res.to_text().splitlines():
        out.write(ln)
    out.finish()
    return 0


def _cmd_spectral_check(args, argv):
    out = _Output(args.out, argv, None)
    betas = [float(x) for x in args.betas.split(",")]
    n = 3
    m = math.comb(n, 2)
    bits = _mask_bits(m).tolist()
    worst = 0.0
    for beta in betas:
        k = mcmc.er_transition_matrix(beta, n)
        pi = mcmc.er_stationary(beta, n)
        flow = pi[:, None] * k
        db = float(np.max(np.abs(flow - flow.T)))
        eig_resid = 0.0
        ortho = []
        for xi in bits:
            comp = mcmc.er_eigen(xi, beta, m)
            psi = np.array([comp.evaluate(x) for x in bits])
            eig_resid = max(eig_resid, float(np.max(np.abs(k @ psi - comp.eigenvalue * psi))))
            ortho.append(psi)
        gram = np.array([[float(np.sum(pi * a * b)) for b in ortho] for a in ortho])
        ortho_resid = float(np.max(np.abs(gram - np.eye(1 << m))))
        chi_resid = 0.0
        for ell in range(0, 21):
            kl = np.linalg.matrix_power(k, ell)
            for start, idx in (("empty", 0), ("complete", (1 << m) - 1)):
                brute = float(np.sum((kl[idx] - pi) ** 2 / pi))
                closed = mcmc.chi_square_distance(start, beta, n, ell)
                chi_resid = max(chi_resid, abs(brute - closed))
        out.write(
            f"beta {beta}: detailed_balance {db:.3g} eigen {eig_resid:.3g} "
            f"orthonormality {ortho_resid:.3g} chi_square {chi_resid:.3g}"
        )
        worst = max(worst, db, eig_resid, ortho_resid, chi_resid)
    out.write(f"worst_residual {worst:.3g}")
    out.write("PASS" if worst < 1e-10 else "FAIL")
    out.finish()
    return 0


def _cmd_euler_lagrange(args, argv):
    model = _load_model(args)
    out = _Output(args.out, argv, args.seed)
    if args.init == "random":
        init = StepGraphon.random(args.blocks, _rng_from_seed(args.seed))
    else:
        init = StepGraphon.equal_blocks(np.full((args.blocks, args.blocks), float(args.init)))
    sol, residual = variational.euler_lagrange_solve(
        model, init, damping=args.damping, max_iter=args.max_iter
    )
    out.write(f"residual {residual:.12g}")
    for ln in sol.to_text().splitlines():
        out.write(ln)
    out.finish()
    return 0


def _cmd_extremal(args, argv):
    out = _Output(args.out, argv, None)
    motif = Motif.parse(args.motif)
    kernel, psi = variational.extremal_limit(motif, args.beta1)
    out.write(f"chromatic_number {motif.chromatic}")
    out.write(f"psi_limit {psi:.12g}")
    for ln in kernel.to_text().splitlines():
        out.write(ln)
    out.finish()
    return 0


def _cmd_top_contour(args, argv):
    with open(args.graph, encoding="utf-8") as fh:
        g = Graph.from_text(fh.read())
    beta1_grid = _parse_range(args.beta1)
    beta2_grid = _parse_range(args.beta2)
    out = _Output(args.out, argv, None)
    out.write("beta1,beta2,top")
    b1s, b2s = _surface(beta1_grid, beta2_grid)
    for b1, b2, top in zip(b1s, b2s, variational._top_statistics(b1s, b2s, g)):
        out.write(f"{b1:.12g},{b2:.12g},{top:.12g}")
    out.finish()
    return 0


# -- wiring -----------------------------------------------------------------------


def _build_parser() -> _Parser:
    p = _Parser(prog="ergmlab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_model_flags(sp):
        sp.add_argument("--model", help="model file: one 'motif beta' per line")
        sp.add_argument("--beta1", type=float, help="inline edge coefficient")
        sp.add_argument("--beta2", type=float, help="inline triangle coefficient")

    sp = sub.add_parser("sample", help="run Glauber dynamics and emit a CSV trace")
    add_model_flags(sp)
    sp.add_argument("--n", type=int, default=30)
    sp.add_argument("--steps", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--start", default="empty", choices=["empty", "complete"])
    sp.add_argument("--record-every", type=int, default=100)
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_sample)

    sp = sub.add_parser("psi", help="limiting free energy via the scalar problem")
    add_model_flags(sp)
    sp.add_argument("--exact-n", type=int, help="also enumerate psi_n exactly (n <= 6)")
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_psi)

    sp = sub.add_parser("phase-diagram", help="maximizer surface or sweep with jump rows")
    sp.add_argument("--beta1", required=True, help="value or lo:hi:steps")
    sp.add_argument("--beta2", required=True, help="value or lo:hi:steps")
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_phase_diagram)

    sp = sub.add_parser("degeneracy", help="sparse/dense dichotomy constants and q")
    sp.add_argument("--beta1", type=float, required=True)
    sp.add_argument("--beta2", type=float)
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_degeneracy)

    sp = sub.add_parser("estimate-z", help="normalizing-constant estimators")
    add_model_flags(sp)
    sp.add_argument("--method", required=True, choices=["importance", "mcmle", "acceptance-ratio"])
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--samples", type=int, default=10_000)
    sp.add_argument("--samples2", type=int)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--proposal-p", type=float)
    sp.add_argument("--model0", help="reference model file for ratio estimators")
    sp.add_argument("--alpha", default="constant", choices=["constant", "geometric-mean"])
    sp.add_argument("--thinning", type=int, default=1)
    sp.add_argument("--start", default="empty", choices=["empty", "complete"])
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_estimate_z)

    sp = sub.add_parser("spectral-check", help="exact spectral oracle suite at n = 3")
    sp.add_argument("--betas", default="0,0.5,1")
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_spectral_check)

    sp = sub.add_parser("euler-lagrange", help="damped fixed-point solve on block kernels")
    add_model_flags(sp)
    sp.add_argument("--blocks", type=int, default=1)
    sp.add_argument("--init", default="0.5", help="constant init value or 'random'")
    sp.add_argument("--damping", type=float, default=0.5)
    sp.add_argument("--max-iter", type=int, default=20_000)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_euler_lagrange)

    sp = sub.add_parser("extremal", help="strong-negative-coefficient limit kernel")
    sp.add_argument("--motif", required=True)
    sp.add_argument("--beta1", type=float, required=True)
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_extremal)

    sp = sub.add_parser("top-contour", help="shifted log-likelihood surface for a graph")
    sp.add_argument("--graph", required=True, help="edge-list file")
    sp.add_argument("--beta1", required=True, help="value or lo:hi:steps")
    sp.add_argument("--beta2", required=True, help="value or lo:hi:steps")
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_top_contour)

    return p


_VALUE_FLAGS = {"--beta1", "--beta2", "--proposal-p", "--init", "--damping"}


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join value flags with following tokens like '-1:1:3' that argparse
    would otherwise read as option names."""
    out = []
    skip = False
    for idx, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        nxt = argv[idx + 1] if idx + 1 < len(argv) else None
        if tok in _VALUE_FLAGS and nxt is not None and len(nxt) > 1 and nxt[0] == "-" and (
            nxt[1].isdigit() or nxt[1] == "."
        ):
            out.append(f"{tok}={nxt}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(_merge_negative_values(argv))
        return args.fn(args, argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (InstanceTooLargeError, DomainError, OverflowGuardError, FormatError, ConvergenceError) as exc:
        print(f"numeric guard: {exc}", file=sys.stderr)
        return 2
    except ErgmLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
