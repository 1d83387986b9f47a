import math
import warnings

import numpy as np
import pytest

from ergmlab import mcmc
from ergmlab.cli import main
from ergmlab.graphs import Graph
from ergmlab.graphons import StepGraphon


def run(out_path, argv):
    code = main(argv + ["--out", str(out_path)])
    text = out_path.read_text() if out_path.exists() else ""
    return code, text


def body_lines(text):
    return [ln for ln in text.splitlines() if not ln.startswith("#")]


def test_header_contract(tmp_path):
    out = tmp_path / "psi.txt"
    code, text = run(out, ["psi", "--beta1", "0", "--beta2", "0"])
    assert code == 0
    head = text.splitlines()[:3]
    assert head[0].startswith("# command: ergmlab psi")
    assert head[1].startswith("# seed:")
    assert head[2].startswith("# version:")


def test_psi_zero_model(tmp_path):
    out = tmp_path / "psi.txt"
    code, text = run(out, ["psi", "--beta1", "0", "--beta2", "0", "--exact-n", "4"])
    assert code == 0
    vals = dict(ln.split(None, 1) for ln in body_lines(text))
    assert float(vals["psi_limit"]) == pytest.approx(0.5 * math.log(2))
    assert float(vals["psi_4"]) == pytest.approx(6 / 16 * math.log(2))


def test_psi_exact_n6(tmp_path):
    # n = 6 is the documented enumeration limit
    out = tmp_path / "psi.txt"
    code, text = run(out, ["psi", "--beta1", "0", "--beta2", "0", "--exact-n", "6"])
    assert code == 0
    vals = dict(ln.split(None, 1) for ln in body_lines(text))
    assert float(vals["psi_6"]) == pytest.approx(15 / 36 * math.log(2))


def test_psi_model_file(tmp_path):
    model = tmp_path / "model.txt"
    model.write_text("edge 0\ntriangle 0\nstar:2 0\n")
    out = tmp_path / "psi.txt"
    code, text = run(out, ["psi", "--model", str(model)])
    assert code == 0
    vals = dict(ln.split(None, 1) for ln in body_lines(text))
    assert float(vals["psi_limit"]) == pytest.approx(0.5 * math.log(2))


def test_phase_diagram_jump_row(tmp_path):
    out = tmp_path / "pd.csv"
    code, text = run(out, ["phase-diagram", "--beta1", "-0.45", "--beta2", "0:2:200"])
    assert code == 0
    rows = body_lines(text)
    assert rows[0] == "beta2,u_star,psi,multiplicity"
    jump_rows = [r for r in rows[1:] if r.split(",")[3] == "2"]
    assert len(jump_rows) == 1
    grid_rows = [r for r in rows[1:] if r.split(",")[3] != "2"]
    assert len(grid_rows) == 200


def test_phase_diagram_descending_sweep_prints_the_ascending_body(tmp_path):
    bodies = []
    for grid in ("0:2:5", "2:0:5"):
        code, text = run(tmp_path / "pd.csv", ["phase-diagram", "--beta1", "-0.45", "--beta2", grid])
        assert code == 0
        bodies.append(body_lines(text))
    assert bodies[0] == bodies[1]
    assert [r for r in bodies[0] if r.endswith(",2")] == [bodies[0][3]]
    assert bodies[0][3].startswith("0.5977")


def test_phase_diagram_surface(tmp_path):
    out = tmp_path / "surface.csv"
    code, text = run(out, ["phase-diagram", "--beta1", "-1:0:3", "--beta2", "0:1:4"])
    assert code == 0
    rows = body_lines(text)
    assert rows[0] == "beta1,beta2,u_star,psi,multiplicity"
    assert len(rows) == 1 + 12


def test_phase_diagram_single_point_is_a_surface(tmp_path):
    # a 1 x 1 grid once reached the sweep and its "steps >= 2" guard (exit 2);
    # it prints the surface header and the row the 2 x 1 surface prints for it
    code, text = run(tmp_path / "point.csv", ["phase-diagram", "--beta1", "-0.45", "--beta2", "0.3"])
    assert code == 0
    rows = body_lines(text)
    assert rows[0] == "beta1,beta2,u_star,psi,multiplicity" and len(rows) == 2
    code, text = run(tmp_path / "column.csv", ["phase-diagram", "--beta1", "-0.45:0:2", "--beta2", "0.3"])
    assert code == 0 and body_lines(text)[:2] == rows


def test_degeneracy_values(tmp_path):
    out = tmp_path / "deg.txt"
    code, text = run(out, ["degeneracy", "--beta1", "-5"])
    assert code == 0
    vals = dict(ln.split(None, 1) for ln in body_lines(text))
    assert float(vals["c1"]) == pytest.approx(0.0067, abs=1e-4)
    assert float(vals["c2"]) == pytest.approx(0.9)
    assert code == 0


def test_degeneracy_guard_exit_code(tmp_path):
    out = tmp_path / "deg.txt"
    code = main(["degeneracy", "--beta1", "-0.1", "--out", str(out)])
    assert code == 2


@pytest.mark.parametrize("method", ["importance", "mcmle", "acceptance-ratio"])
def test_estimate_z_zero_samples_exit_code(tmp_path, method, capsys):
    model = tmp_path / "model.txt"
    model.write_text("edge 0.2\ntriangle 0.1\n")
    argv = ["estimate-z", "--method", method, "--model", str(model), "--model0", str(model),
            "--n", "4", "--out", str(tmp_path / "est.txt")]
    assert main(argv + ["--samples", "0"]) == 2
    assert capsys.readouterr().err.startswith("numeric guard:")
    if method == "acceptance-ratio":
        # a zero second chain is rejected, not replaced by --samples steps
        assert main(argv + ["--samples", "500", "--samples2", "0"]) == 2
        assert capsys.readouterr().err.startswith("numeric guard:")


def test_estimator_collapse_exit_code(tmp_path, capsys):
    # a -1e308 edge coefficient collapses the geometric-mean denominator;
    # the overflow is caught where it happens, so numpy prints no warning
    model, model0 = tmp_path / "model.txt", tmp_path / "model0.txt"
    model.write_text("edge 0.2\ntriangle 0.1\n")
    model0.write_text("edge -1e308\ntriangle 0\n")
    argv = ["estimate-z", "--method", "acceptance-ratio", "--model", str(model), "--model0", str(model0),
            "--n", "4", "--samples", "200", "--seed", "1", "--alpha", "geometric-mean",
            "--out", str(tmp_path / "est.txt")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "numeric guard: denominator sample mean collapsed" in capsys.readouterr().err


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 1
    assert main(["psi"]) == 1  # neither model nor inline betas
    assert main(["psi", "--model", "/does/not/exist"]) == 1


INPUT_FILES = {
    "bad_edge.txt": "3\n0 x\n",
    "bad_model.txt": "edge abc\n",
    "nan_model.txt": "edge nan\n",
    "inf_model.txt": "edge inf\n",
    "model.txt": "edge 0.2\ntriangle 0.1\n",
    "graph.txt": "4\n0 1\n1 2\n2 0\n2 3\n",
    "huge_model.txt": "edge 1e308\ntriangle 0\n",
    "tiny_model.txt": "edge -1e308\ntriangle 0\n",
}

# each case once ended in a traceback, in exit 0 with a wrong or missing
# answer, or ran no test of its guard; code 1 is a usage error, 2 a numeric
# guard, and the message is part of the stderr line
FINITE = "model coefficients must be finite"
BLOCKS = "a step graphon needs at least one block"
INPUT_ERRORS = [
    pytest.param("top-contour --graph bad_edge.txt --beta1 0 --beta2 0", 2, "bad edge line '0 x'",
                 id="graph-bad-number"),
    pytest.param("psi --model bad_model.txt", 2, "bad model line 'edge abc'", id="model-bad-number"),
    pytest.param("psi --beta1 nan", 2, FINITE, id="psi-nan-beta"),
    pytest.param("degeneracy --beta1 nan", 2, FINITE, id="degeneracy-nan-beta"),
    pytest.param("psi --model nan_model.txt", 2, FINITE, id="model-nan"),
    pytest.param("psi --model inf_model.txt", 2, FINITE, id="model-inf"),
    pytest.param("sample --n 1 --beta1 0.1", 2, "n >= 2", id="sample-n1"),
    pytest.param("estimate-z --method importance --beta1 0.1 --n 1 --samples 10", 2, "n >= 2",
                 id="importance-n1"),
    # once a numpy memory error asking for a 3.64 TiB draw block
    pytest.param("estimate-z --method importance --beta1 0.2 --beta2 0.1 --n 1000000 --samples 1", 2,
                 "importance sampling supports n <= 4096", id="importance-n-too-large"),
    pytest.param("estimate-z --method mcmle --model model.txt --model0 model.txt --n 1 --samples 10",
                 2, "n >= 2", id="mcmle-n1"),
    pytest.param("estimate-z --method acceptance-ratio --model model.txt --model0 model.txt --n 1 "
                 "--samples 10", 2, "n >= 2", id="acceptance-ratio-n1"),
    pytest.param("psi --beta1 0.1 --exact-n 0", 2, "n >= 1", id="exact-n0"),
    pytest.param("psi --beta1 0.1 --exact-n -1", 2, "n >= 1", id="exact-n-negative"),
    pytest.param("euler-lagrange --beta1 0.1 --init x", 1, "--init must be a number",
                 id="init-not-a-number"),
    pytest.param("euler-lagrange --beta1 0.1 --init nan", 2, "must be finite", id="init-nan"),
    pytest.param("spectral-check --betas x", 1, "comma-separated numbers", id="betas-not-numbers"),
    pytest.param("phase-diagram --beta1 nan --beta2 0:1:3", 2, FINITE, id="sweep-nan-beta1"),
    pytest.param("phase-diagram --beta1 -1:0:3 --beta2 nan", 2, FINITE, id="surface-nan-beta2"),
    pytest.param("phase-diagram --beta1 inf --beta2 0:1:3", 2, FINITE, id="sweep-inf-beta1"),
    pytest.param("top-contour --graph graph.txt --beta1 nan --beta2 0", 2, FINITE, id="contour-nan-beta1"),
    # a range with an infinite end once warned from numpy before the guard
    pytest.param("phase-diagram --beta1 -0.45 --beta2 0:inf:3", 2, FINITE, id="sweep-inf-range"),
    pytest.param("phase-diagram --beta1 inf:0:3 --beta2 0:1:2", 2, FINITE, id="surface-inf-range"),
    pytest.param("top-contour --graph graph.txt --beta1 0:-inf:3 --beta2 0.1", 2, FINITE,
                 id="contour-minus-inf-range"),
    pytest.param("degeneracy --beta1 -5 --beta2 nan", 2, FINITE, id="degeneracy-nan-beta2"),
    pytest.param("degeneracy --beta1 -5 --beta2 inf", 2, FINITE, id="degeneracy-inf-beta2"),
    # q is about -beta1, beyond the 2^40 that the doubling loop brackets
    pytest.param("degeneracy --beta1 -1e13", 2, "failed to bracket the degeneracy threshold",
                 id="degeneracy-unbracketed"),
    pytest.param("extremal --motif triangle --beta1 nan", 2, FINITE, id="extremal-nan-beta"),
    pytest.param("spectral-check --betas nan", 2, FINITE, id="spectral-nan-beta"),
    pytest.param("euler-lagrange --beta1 0.1 --blocks 0", 2, BLOCKS, id="zero-blocks"),
    pytest.param("euler-lagrange --beta1 0.1 --blocks -2", 2, BLOCKS, id="negative-blocks"),
    pytest.param("euler-lagrange --beta1 0.1 --blocks 0 --init random", 2, BLOCKS, id="zero-random-blocks"),
    # a negative or non-finite value reaches its guard, whatever its spelling
    pytest.param("psi --beta1 -inf", 2, FINITE, id="psi-minus-inf-beta1"),
    pytest.param("psi --beta1 0.1 --beta2 -nan", 2, FINITE, id="psi-minus-nan-beta2"),
    pytest.param("spectral-check --betas -1,0", 2, "beta >= 0", id="spectral-negative-beta"),
    pytest.param("estimate-z --method mcmle --model tiny_model.txt --model0 model.txt --n 4 --samples 200 --seed 1",
                 2, "reweighted sample mean collapsed", id="mcmle-collapse"),
    pytest.param("psi --model huge_model.txt --exact-n 4", 2, "exceeds double range", id="exact-weight-overflow"),
    pytest.param("estimate-z --method importance --model huge_model.txt --n 4 --samples 200 --proposal-p 0.5",
                 2, "exceeds double range", id="importance-weight-overflow"),
    pytest.param("spectral-check --betas 500", 2, "eigenfunction value", id="spectral-eigenfunction-overflow"),
    pytest.param("spectral-check --betas 400", 2, "chi-square value", id="spectral-chi-square-overflow"),
    # sum |beta_i| e(H_i) = 1e308 + 3e308 is beyond double range
    pytest.param("psi --beta1 1e308 --beta2 -1e308", 2, "exceeds double range", id="scalar-bound-overflow"),
    pytest.param("phase-diagram --beta1 1e308:1e308:2 --beta2 -1e308", 2, "exceeds double range",
                 id="surface-bound-overflow"),
    pytest.param("euler-lagrange --beta1 1e308 --beta2 1e308", 2, "exceeds double range",
                 id="kernel-bound-overflow"),
    pytest.param("psi --beta1 --beta2 0.3", 1, "--beta1: expected one argument", id="flag-as-value"),
    pytest.param("phase-diagram --beta1 0:1 --beta2 0", 1, "range must be lo:hi:steps", id="range-two-parts"),
    pytest.param("phase-diagram --beta1 a:1:3 --beta2 0", 1, "bad range 'a:1:3'", id="range-bad-number"),
    pytest.param("phase-diagram --beta1 0:1:1 --beta2 0", 1, "at least 2 steps", id="range-one-step"),
    pytest.param("phase-diagram --beta1 x --beta2 0", 1, "expected a number or lo:hi:steps",
                 id="range-not-a-number"),
]


@pytest.mark.parametrize("command, code, message", INPUT_ERRORS)
def test_input_errors_exit_without_traceback(tmp_path, monkeypatch, capsys, command, code, message):
    monkeypatch.chdir(tmp_path)
    for name, text in INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    assert main(command.split()) == code
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error:" if code == 1 else "numeric guard:")
    assert message in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_strong_coefficients_exit_zero(tmp_path):
    code, text = run(tmp_path / "s.csv", ["sample", "--n", "5", "--steps", "10", "--beta1", "-400"])
    assert code == 0
    assert body_lines(text)[1:] == ["0,0,0,0", "10,0,0,0"]
    code, text = run(tmp_path / "e.txt", ["extremal", "--motif", "triangle", "--beta1", "1000"])
    assert code == 0
    assert "psi_limit 500" in body_lines(text)


# each once printed a nan or -inf estimate, or a traceback or a guard only
# after numpy warnings
WEIGHT_GUARDS = [param for param in INPUT_ERRORS if param.id in (
    "mcmle-collapse", "exact-weight-overflow", "importance-weight-overflow",
    "spectral-eigenfunction-overflow", "spectral-chi-square-overflow", "scalar-bound-overflow",
    "surface-bound-overflow",
)]


@pytest.mark.parametrize("command, code, message", WEIGHT_GUARDS)
def test_weight_guards_print_no_warning(tmp_path, monkeypatch, command, code, message):
    monkeypatch.chdir(tmp_path)
    for name, text in INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(command.split()) == code
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_strong_coefficients_in_ratio_and_exact_sums(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "edge400.txt").write_text("edge 400\n")
    (tmp_path / "edge01.txt").write_text("edge 0.1\n")
    (tmp_path / "tiny_model.txt").write_text(INPUT_FILES["tiny_model.txt"])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # e^800 lies beyond double range, but the MCMLE bound is formed in log domain
        code, text = run(tmp_path / "m.txt", ["estimate-z", "--method", "mcmle", "--model", "edge400.txt",
                                              "--model0", "edge01.txt", "--n", "4", "--samples", "200"])
        assert code == 0
        vals = dict(ln.split(None, 1) for ln in body_lines(text))
        assert math.isfinite(float(vals["variance_bound_log"]))
        # one law on both sides has weight 1 and variance 0
        code, text = run(tmp_path / "s.txt", ["estimate-z", "--method", "mcmle", "--model", "edge01.txt",
                                              "--model0", "edge01.txt", "--n", "4", "--samples", "200"])
        assert code == 0
        assert "variance_bound_log -inf" in body_lines(text)
        # every graph with an edge has weight exactly 0, so psi_4 = 0
        code, text = run(tmp_path / "p.txt", ["psi", "--model", "tiny_model.txt", "--exact-n", "4"])
        assert code == 0
        assert "psi_4 0" in body_lines(text)


def test_opposite_strong_coefficients_sample_without_nan(tmp_path):
    # a triangle-free state once weighed -inf * 0 = nan into the statistic and
    # the first log-odds, so the chain never left the empty graph
    model = tmp_path / "strong.txt"
    model.write_text("edge 1e308\ntriangle -1e308\n")
    code, text = run(tmp_path / "s.csv", ["sample", "--model", str(model), "--n", "5", "--steps", "20"])
    assert code == 0
    rows = [row.split(",") for row in body_lines(text)[1:]]
    assert rows[0] == ["0", "0", "0", "0"]
    assert all(math.isfinite(float(row[3])) for row in rows)
    assert int(rows[-1][1]) > 0


def test_opposite_strong_coefficients_keep_the_complete_graph(tmp_path):
    # in K_5 every pair has 3 common neighbours, where the log-odds of
    # edge -1e308 + triangle 1e308 is 2e308 (0.6 * 3 - 1) = 1.6e308 > 0; its two
    # parts once met as -inf + inf = nan, which emptied the graph in 30 steps
    model = tmp_path / "strong.txt"
    model.write_text("edge -1e308\ntriangle 1e308\n")
    code, text = run(tmp_path / "s.csv", ["sample", "--model", str(model), "--n", "5", "--steps", "40",
                                          "--record-every", "10", "--start", "complete"])
    assert code == 0
    rows = [row.split(",") for row in body_lines(text)[1:]]
    assert [row[1] for row in rows] == ["10"] * 5


def test_top_contour_at_a_strong_edge_coefficient(tmp_path):
    # 1e308 (2 E / n^2) - psi = 1e308 (4 / 16) - 1e308; 2 * 1e308 once overflowed to top inf
    gpath = tmp_path / "g.txt"
    gpath.write_text("4\n0 1\n1 2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run(tmp_path / "t.txt", ["top-contour", "--graph", str(gpath), "--beta1", "1e308",
                                              "--beta2", "0"])
    assert code == 0
    assert body_lines(text)[-1] == "1e+308,0,-7.5e+307"


def test_spectral_check_passes_at_strong_beta(tmp_path):
    # at beta = 20 the chi-square residual is 8.25e11 on values near 1.1e26
    code, text = run(tmp_path / "c.txt", ["spectral-check", "--betas", "5,20"])
    assert code == 0
    assert body_lines(text)[-2:] == ["worst_residual 8.25e+11", "PASS"]


def test_spectral_check_fails_on_a_relative_error(tmp_path, monkeypatch):
    # a closed form off by 1e-9 relative fails where its values are large
    closed = mcmc.chi_square_distance
    monkeypatch.setattr(mcmc, "chi_square_distance", lambda *args: closed(*args) * (1.0 + 1e-9))
    code, text = run(tmp_path / "c.txt", ["spectral-check", "--betas", "20"])
    assert code == 0
    assert body_lines(text)[-1] == "FAIL"


def test_spectral_check_fails_on_a_nan_residual(tmp_path, monkeypatch):
    # Python's max drops a nan that comes after a number; the fold must not
    monkeypatch.setattr(mcmc, "chi_square_distance", lambda *args: math.nan)
    code, text = run(tmp_path / "c.txt", ["spectral-check", "--betas", "0.5"])
    assert code == 0
    assert body_lines(text)[-2:] == ["worst_residual nan", "FAIL"]


def test_sample_trace_and_byte_reproducibility(tmp_path):
    args = [
        "sample", "--n", "12", "--steps", "400", "--beta1", "0.2", "--beta2", "0.1",
        "--seed", "4", "--record-every", "100",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    a, b = out1.read_text(), out2.read_text()
    assert a.replace(str(out1), "X") == b.replace(str(out2), "X")
    rows = body_lines(a)
    assert rows[0] == "step,edges,triangles,statistic"
    assert rows[1].startswith("0,0,0,")
    assert len(rows) == 1 + 1 + 4  # header + step 0 + 4 records


def test_estimate_z_importance(tmp_path):
    out = tmp_path / "est.txt"
    code, text = run(
        out,
        ["estimate-z", "--method", "importance", "--beta1", "0.2", "--beta2", "0.1",
         "--n", "4", "--samples", "20000", "--seed", "5"],
    )
    assert code == 0
    vals = dict(ln.split(None, 1) for ln in body_lines(text))
    from ergmlab.mcmc import enumerate_psi_n
    from ergmlab.variational import ModelSpec

    truth = 16 * enumerate_psi_n(ModelSpec.edge_triangle(0.2, 0.1), 4)
    assert float(vals["estimate_log"]) == pytest.approx(truth, rel=0.02)


def test_motif_with_isolated_vertices_runs_at_its_active_size(tmp_path):
    # 5 of the 10 motif vertices carry an edge: the map guard reads 12^5,
    # which the chain and the importance sampler stay within at n = 12
    model = tmp_path / "model.txt"
    model.write_text("edge -0.3\nedgelist:0-1,1-2,2-0,2-3,3-9 0.2\n")
    for argv in (["sample", "--n", "12", "--steps", "3000"],
                 ["estimate-z", "--method", "importance", "--n", "12", "--samples", "2000"]):
        code, text = run(tmp_path / "out.txt", argv + ["--model", str(model)])
        assert code == 0, argv
        assert body_lines(text)


def test_graphon_commands_read_the_active_part_of_a_motif(tmp_path):
    # with vertex 13 (and the isolated 3..12, or 4..12) dropped, each motif
    # is an isolated-vertex-free one, whose output it must print bit for bit
    padded, plain = tmp_path / "padded.txt", tmp_path / "plain.txt"
    padded.write_text("edge -0.3\nedgelist:0-1,1-2,2-0,2-3,3-13 0.2\n")
    plain.write_text("edge -0.3\nedgelist:0-1,1-2,2-0,2-3,3-4 0.2\n")
    outputs = {}
    for argv in (["extremal", "--motif", "edgelist:0-1,1-2,2-0,2-13", "--beta1", "-2"],
                 ["extremal", "--motif", "edgelist:0-1,1-2,2-0,2-3", "--beta1", "-2"],
                 ["euler-lagrange", "--model", str(padded), "--blocks", "2"],
                 ["euler-lagrange", "--model", str(plain), "--blocks", "2"]):
        code, text = run(tmp_path / "out.txt", argv)
        assert code == 0, argv
        outputs.setdefault(argv[0], []).append(body_lines(text))
    for command, (first, second) in outputs.items():
        assert first == second, command
    assert outputs["extremal"][0][0] == "chromatic_number 3"


def test_estimate_z_mcmle_requires_model0(tmp_path):
    out = tmp_path / "est.txt"
    code = main(
        ["estimate-z", "--method", "mcmle", "--beta1", "0.1", "--n", "4", "--out", str(out)]
    )
    assert code == 1


@pytest.mark.parametrize(
    "method, kind, n_samples",
    [("mcmle", "mcmle", 20000), ("acceptance-ratio", "acceptance_ratio", 40000)],
)
def test_estimate_z_ratio_methods(tmp_path, method, kind, n_samples):
    from ergmlab.mcmc import enumerate_psi_n
    from ergmlab.variational import ModelSpec

    model = tmp_path / "model.txt"
    model.write_text("edge 0.2\ntriangle 0.1\n")
    model0 = tmp_path / "model0.txt"
    model0.write_text("edge -0.1\ntriangle 0\n")
    out = tmp_path / "est.txt"
    code, text = run(
        out,
        ["estimate-z", "--method", method, "--model", str(model), "--model0", str(model0),
         "--n", "4", "--samples", "20000", "--seed", "5"],
    )
    assert code == 0
    vals = dict(ln.split(None, 1) for ln in body_lines(text))
    assert vals["estimator"] == kind
    # the acceptance ratio runs a second chain of --samples2 (default --samples) steps
    assert int(vals["n_samples"]) == n_samples
    truth = 16 * (
        enumerate_psi_n(ModelSpec.edge_triangle(0.2, 0.1), 4)
        - enumerate_psi_n(ModelSpec.edge_triangle(-0.1, 0.0), 4)
    )
    # over seeds 0..29 at 20,000 samples the error's standard deviation was
    # 0.024 (mcmle) and 0.015 (acceptance ratio); 0.15 is six of the larger
    assert float(vals["estimate_log"]) == pytest.approx(truth, abs=0.15)


def test_spectral_check_passes(tmp_path):
    out = tmp_path / "spec.txt"
    code, text = run(out, ["spectral-check"])
    assert code == 0
    assert body_lines(text) == [
        "beta 0.0: detailed_balance 0 eigen 5.55e-17 orthonormality 2.22e-16 chi_square 6.22e-15",
        "beta 0.5: detailed_balance 3.47e-18 eigen 2.22e-16 orthonormality 4.44e-16 chi_square 1.07e-14",
        "beta 1.0: detailed_balance 1.39e-17 eigen 1.11e-15 orthonormality 2.22e-16 chi_square 1.42e-14",
        "worst_residual 1.42e-14",
        "PASS",
    ]


def test_euler_lagrange_output(tmp_path):
    out = tmp_path / "el.txt"
    code, text = run(
        out,
        ["euler-lagrange", "--beta1", "0.2", "--beta2", "0.1", "--blocks", "2",
         "--init", "0.5"],
    )
    assert code == 0
    lines = body_lines(text)
    assert lines[0].startswith("residual ")
    kernel = StepGraphon.from_text("\n".join(lines[1:]))
    assert kernel.k == 2


def test_euler_lagrange_random_init_reproducible(tmp_path):
    argv = ["euler-lagrange", "--beta1", "-0.3", "--beta2", "0.2", "--blocks", "3",
            "--init", "random", "--seed", "7"]
    out = tmp_path / "el.txt"
    code, text = run(out, argv)
    assert code == 0
    # the header names --out, so both runs write the same path
    assert run(out, argv) == (0, text)
    lines = body_lines(text)
    kernel = StepGraphon.from_text("\n".join(lines[1:]))
    # a random init draws 3 blocks, not a constant kernel
    assert kernel.k == 3 and np.ptp(kernel.values) > 0.0


@pytest.mark.parametrize("command", ["euler-lagrange", "estimate-z"])
def test_negative_seed_runs_its_64_bit_residue(tmp_path, command):
    # seed -1 keys the Philox stream of 2^64 - 1, as in every seeded function
    if command == "euler-lagrange":
        argv = ["euler-lagrange", "--beta1", "-0.3", "--beta2", "0.2", "--blocks", "3",
                "--init", "random"]
    else:
        model = tmp_path / "model.txt"
        model.write_text("edge 0.2\ntriangle 0.1\n")
        model0 = tmp_path / "model0.txt"
        model0.write_text("edge -0.1\ntriangle 0\n")
        argv = ["estimate-z", "--method", "acceptance-ratio", "--model", str(model),
                "--model0", str(model0), "--n", "4", "--samples", "500"]
    runs = [run(tmp_path / "out.txt", argv + ["--seed", seed]) for seed in ("-1", str(2**64 - 1))]
    assert runs[0][0] == runs[1][0] == 0
    lines, residue = (body_lines(text) for _, text in runs)
    if command == "estimate-z":
        # the body names the seed as given; the estimate is the residue's
        assert lines[1] == "seed -1" and residue[1] == f"seed {2**64 - 1}"
        del lines[1], residue[1]
    assert lines == residue


def test_extremal_output(tmp_path):
    out = tmp_path / "ext.txt"
    code, text = run(out, ["extremal", "--motif", "triangle", "--beta1", "0"])
    assert code == 0
    lines = body_lines(text)
    vals = dict(ln.split(None, 1) for ln in lines[:2])
    assert float(vals["psi_limit"]) == pytest.approx(0.25 * math.log(2))
    kernel = StepGraphon.from_text("\n".join(lines[2:]))
    assert np.allclose(kernel.values, [[0, 0.5], [0.5, 0]])


def test_top_contour(tmp_path):
    gpath = tmp_path / "g.txt"
    gpath.write_text(Graph.complete(5).to_text())
    out = tmp_path / "top.csv"
    code, text = run(
        out, ["top-contour", "--graph", str(gpath), "--beta1", "-1:1:3", "--beta2", "0:1:2"]
    )
    assert code == 0
    rows = body_lines(text)
    assert rows[0] == "beta1,beta2,top"
    assert len(rows) == 1 + 6
