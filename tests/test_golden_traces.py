"""Fixed-seed chain outputs pinned to sha256 digests, fixed-seed
importance estimates pinned bit for bit, and the scalar free-energy layer
(phase scan, degeneracy constants, phase-diagram and psi CLI output) pinned
bit for bit.

The digests were recorded before the motif statistics and the chain loop
were rewritten around one term object per motif, so they check that a seed
still gives the same chain: the same pair and coin draws and the same
accept/reject decision at every step, for every motif class. The importance
estimates were recorded before the sampler drew and counted its graphs in
fixed blocks, so they check that the blocks read the same draws and give
the same counts. The scalar values were recorded before the bisection in
maximize_scalar stopped at its fixed point and its grid was cached, so they
check that both changes leave every maximizer and psi value as it was. The
dense transition matrices were recorded while they were still built one
(state, pair) entry at a time, so they check that the per-pair flip table
gives every entry the same bits. The Metropolis densities and the ratio
estimates were recorded while each sampled record still wrote its
densities into a numpy row, so they check that the counts gathered in one
buffer and divided once give the same densities.
"""

import contextlib
import hashlib
import io

from ergmlab.cli import main
from ergmlab.graphs import Motif
from ergmlab.mcmc import (ChainConfig, er_transition_matrix, estimate_acceptance_ratio, estimate_importance,
                          estimate_mcmle, glauber_transition_matrix, run_chain, sample_motif_densities)
from ergmlab.variational import ModelSpec, degeneracy_constants, phase_scan

PAW = "edgelist:0-1,1-2,2-3,1-3"


def _model(motif: str, b: float) -> ModelSpec:
    return ModelSpec([(Motif.edge(), -0.2), (Motif.parse(motif), b)])


STAR_TRIANGLE = ModelSpec([(Motif.edge(), 0.1), (Motif.parse("star:2"), -0.15), (Motif.triangle(), 0.2)])

CHAINS = {
    "er": ChainConfig(12, steps=3000, seed=101, er_beta=0.5),
    "star2": ChainConfig(12, steps=3000, seed=102, model=_model("star:2", -0.6), start="complete"),
    "triangle": ChainConfig(12, steps=3000, seed=103, model=ModelSpec.edge_triangle(-0.3, 0.5)),
    "cycle4": ChainConfig(12, steps=3000, seed=104, model=_model("cycle:4", 0.4)),
    "complete4": ChainConfig(12, steps=3000, seed=105, model=_model("complete:4", 0.8)),
    "edgelist": ChainConfig(12, steps=3000, seed=106, model=_model(PAW, 0.5)),
    # recorded while cycle:k and complete:r still ran the edge-rooted search
    "cycle5": ChainConfig(12, steps=3000, seed=109, model=_model("cycle:5", 0.6)),
    "cycle6": ChainConfig(12, steps=3000, seed=110, model=_model("cycle:6", 0.7)),
    "complete5": ChainConfig(12, steps=3000, seed=111, model=_model("complete:5", 6.0)),
    # recorded while every Glauber step still recomputed its on-probability:
    # no weighted term (a zero triangle coefficient), two terms and three
    "triangle0": ChainConfig(12, steps=3000, seed=112, model=ModelSpec.edge_triangle(0.3, 0.0)),
    "star_triangle": ChainConfig(12, steps=3000, seed=113, model=STAR_TRIANGLE),
    "three_terms": ChainConfig(12, steps=3000, seed=114, model=ModelSpec(
        [(Motif.edge(), -0.2), (Motif.triangle(), 0.3), (Motif.parse("star:2"), -0.1), (Motif.cycle(4), 0.2)])),
}

GOLDEN = {
    "er": "b113cc837b482f77845703c81baec5044dcc726c254a5db8a635990442efed41",
    "star2": "0f53e0ea446da6a178fddbc7b93f4e1ca34cfe768eaad2a4adbfeba1603800ef",
    "triangle": "f3b32e7036ff33e361fa105c27513f5c38dd09840dd1003dbdf7e9e83c86360d",
    "cycle4": "eda17b5e69bfe76b61d58000f7b3b7cee79f699a408220b1df280aeed2ca7df8",
    "complete4": "bc6ab57e6a62f005cbfca6e712871d76ab35f5740ed4a8982160ce93828108b6",
    "edgelist": "6906b0b35ea2b985dd3d738601537a360c980a7170657e092db35a6cc9644eba",
    "cycle5": "4b93c517700a5ca274b10a67530c8c6645b770760258d0ea3712aed7fb01e531",
    "cycle6": "f4497611f3d35bd8c20449d6d44844c82822060f8485d0125cac622fe7a38a4d",
    "complete5": "dd4b0efb34ef862c58ebba26804198603d962f1895b29e046649cbd88bf40717",
    "triangle0": "cb6187f094129e0ad3aff6b1d848057099cdba85366e920413d3a5a79a48568c",
    "star_triangle": "54b6ece7c453bee5a0fc3b69b5f26701278170ed7793a75ff2ea1567d89d6ec5",
    "three_terms": "2c7f1e63c05fc940fa974c27549b1498f8586f068f73535c0b6f7c4d4652012d",
    "densities": "5519b7f2857eece6a648dae1351dd090e3bacb20275323ece040b09f3186ce88",
    "cli_sample": "395c05d8a2458b3cbebac51e34095d11267c3cd26333e584da58fcf053335185",
    # recorded while each record wrote its densities into a numpy row
    "metropolis_densities": "4e8f95620aa9153a5480bcf72a601bd4eba5d9aac7c4499dd414ce54e6a0b8b2",
}

# recorded while each record wrote its densities into a numpy row and a
# triangle step counted the pair's common neighbours twice: the two ratio
# estimators on an edge + zero-triangle pair at thinning 1 (chains with no
# weighted term) and on a pair with weighted triangles at thinning 3, each
# at n = 30 with 2,000 samples; (target, reference, thinning, seed) and the
# MCMLE and acceptance-ratio estimate_log
RATIO = {
    "zero_triangle": ((ModelSpec.edge_triangle(0.26, 0.0), ModelSpec.edge_triangle(0.25, 0.0), 1, 115),
                      ("0x1.4d68ff0d0bc48p+2", "0x1.326905a6841dap+2")),
    "weighted_triangle": ((ModelSpec.edge_triangle(-0.45, 0.22), ModelSpec.edge_triangle(-0.5, 0.2), 3, 116),
                          ("0x1.cbe4a03301ad7p+3", "0x1.a0a6ff5257aa8p+3")),
}


# 3,000 samples at n = 30 span three draw blocks of 1,205 graphs, each
# counted in several triangle row blocks; n = 6 draws its 100,000 samples in
# three draw blocks. Recorded once each edge read one byte of a raw word
# (and a whole word on a tie, mcmc._edge_bits)
IMPORTANCE = {
    "n30_three_blocks": (dict(model=ModelSpec.edge_triangle(0.2, 0.1), n=30, n_samples=3_000,
                              seed=31), "0x1.a11c2a7941b10p+8"),
    "n6_self_normalized": (dict(model=ModelSpec.edge_triangle(-0.3, 0.2), n=6, n_samples=100_000,
                                seed=32, self_normalized=True), "0x1.b17a50b953774p+2"),
    "n8_star": (dict(model=STAR_TRIANGLE, n=8, n_samples=5_000, seed=33),
                "0x1.548e29bfc1d24p+4"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def chain_digest(name: str) -> str:
    trace, _ = run_chain(CHAINS[name], record_every=50)
    return _sha("".join(f"{r.step},{r.edges},{r.triangles}\n" for r in trace).encode())


def densities_digest() -> str:
    motifs = [Motif.parse(s) for s in ("edge", "star:2", "triangle", "cycle:4", "complete:4", PAW)]
    law = ModelSpec.edge_triangle(-0.3, 0.5)
    out = sample_motif_densities(law, motifs, 200, ChainConfig(10, seed=107), thinning=5)
    return _sha(out.tobytes())


def metropolis_densities_digest() -> str:
    # an edge-only law with a nonnegative coefficient runs the Metropolis chain
    motifs = [Motif.parse(s) for s in ("edge", "star:2", "triangle", "cycle:4", "complete:4", PAW)]
    out = sample_motif_densities(ModelSpec.edge_only(0.3), motifs, 200, ChainConfig(10, seed=117), thinning=1)
    return _sha(out.tobytes())


def cli_sample_digest() -> str:
    argv = ["sample", "--n", "12", "--steps", "3000", "--beta1", "-0.3", "--beta2", "0.5", "--seed", "108"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return _sha(buf.getvalue().encode())


def test_chain_traces_match_golden():
    for name in CHAINS:
        assert chain_digest(name) == GOLDEN[name], name


# recorded while each step shifted out its presence bit and built 1 << j and
# 1 << i on every toggle: chains whose rows span several 30-bit digits (the
# Metropolis loop at n = 100, the common-neighbour loop at n = 200 from the
# complete graph) and the one-term table loop at n = 30; the digest covers
# the trace columns, each statistic's bits and the final rows
WIDE_CHAINS = {
    "er_n100": (ChainConfig(100, steps=20_000, seed=401, er_beta=0.5),
                "be28475751552cfab9ed9c4fa80e6ae73dd60b9c7099055942c55e4b1f62ac6b"),
    "triangle_n200_complete": (ChainConfig(200, steps=20_000, seed=402, start="complete",
                                           model=ModelSpec.edge_triangle(-0.5, 0.2)),
                               "6ee883003119da40900826d60da4f62759e9898064f689e162edf62b51221815"),
    "star2_n30": (ChainConfig(30, steps=20_000, seed=403,
                              model=ModelSpec([(Motif.edge(), -0.5), (Motif.star(2), -0.2)])),
                  "28dc702f0c6cae08bb185aee7f017c15beebec1a0226671847564dd7bf0c7935"),
}


def wide_chain_digest(config: ChainConfig) -> str:
    trace, final = run_chain(config, record_every=100)
    text = "".join(f"{r.step},{r.edges},{r.triangles},{r.statistic.hex()}\n" for r in trace)
    return _sha((text + "".join(f"{row:x}\n" for row in final.rows)).encode())


def test_wide_chain_traces_match_golden():
    for name, (config, golden) in WIDE_CHAINS.items():
        assert wide_chain_digest(config) == golden, name


def test_sampled_densities_match_golden():
    assert densities_digest() == GOLDEN["densities"]


def test_metropolis_densities_match_golden():
    assert metropolis_densities_digest() == GOLDEN["metropolis_densities"]


def test_ratio_estimates_match_golden():
    for name, ((model, model0, thinning, seed), (mcmle, ratio)) in RATIO.items():
        chain = ChainConfig(30, seed=seed)
        got = estimate_mcmle(model, model0, 2000, chain, thinning=thinning)
        assert got.estimate_log.hex() == mcmle, name
        got = estimate_acceptance_ratio(model, model0, "geometric-mean", 2000, 2000, chain, thinning=thinning)
        assert got.estimate_log.hex() == ratio, name


def test_cli_sample_matches_golden():
    assert cli_sample_digest() == GOLDEN["cli_sample"]


def test_importance_estimates_match_golden():
    for name, (kwargs, golden) in IMPORTANCE.items():
        assert estimate_importance(**kwargs).estimate_log.hex() == golden, name


PHASE_SCAN_POINTS = "09b32c7a50d016425cb0cc46ef075f35a72e64fa3f857d635d155b60972a693e"
# re-recorded when the jump moved from a per-cell bisection, which left it up
# to 6e-7 below the tie and its branch values dependent on the grid, to the
# exact tie of the two branches; it was ("0x1.32110a004c1fep-1",
# "0x1.f847ef635a8cep-2", "0x1.a0fcf9ea3218ep-1")
PHASE_SCAN_JUMPS = [("0x1.32110a004c1fdp-1", "0x1.f8486582e22a2p-2", "0x1.a0fcf1cfc9818p-1")]
DEGENERACY = {
    -5.0: ("0x1.b69f67d638f8fp-8", "0x1.ccccccccccccdp-1", "0x1.40005e0000000p+2"),
    -3.0: ("0x1.848343c905446p-5", "0x1.aaaaaaaaaaaabp-1", "0x1.8028740000000p+1"),
    -1.5: ("0x1.759b8355a1bafp-3", "0x1.5555555555556p-1", "0x1.85fb180000000p+0"),
}
CLI_SCALAR = {
    "67813291c12077c1de7cbac68d1dd843ca7f58f4c053f9f92cfdd4b72536a437":
        ["phase-diagram", "--beta1", "-1:1:12", "--beta2", "0:2:12"],
    "57f6a2f36a9005b4e8ee2d72ea882abb442914c641efc854c1437f29f8d7e246":
        ["psi", "--beta1", "-0.3", "--beta2", "0.4"],
    # recorded before the threshold bisection ran through a tie-estimate
    # window; the first prints "regime near-transition"
    "6881f9de1ae11fbf894274b046ceadba8e96c2f1c745e4513bbff899a2968d9c":
        ["degeneracy", "--beta1", "-3", "--beta2", "3.0"],
    "b7e6a71bd23449d421d0b7c44cce638330b3031dd5c90bc43ef9e99a0b2c9d66":
        ["degeneracy", "--beta1", "-1.5"],
}


def test_phase_scan_matches_golden():
    res = phase_scan(-0.45, 0.0, 2.0, 200)
    text = "".join(f"{b.hex()},{u.hex()},{psi.hex()},{m}\n" for b, u, psi, m in res.points)
    assert _sha(text.encode()) == PHASE_SCAN_POINTS
    assert [(j.beta2.hex(), j.u_low.hex(), j.u_high.hex()) for j in res.jumps] == PHASE_SCAN_JUMPS


def test_degeneracy_constants_match_golden():
    for beta1, golden in DEGENERACY.items():
        rep = degeneracy_constants(beta1)
        assert (rep.c1.hex(), rep.c2.hex(), rep.q_estimate.hex()) == golden, beta1


def test_cli_scalar_output_matches_golden():
    for golden, argv in CLI_SCALAR.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        assert _sha(buf.getvalue().encode()) == golden, argv[0]


# recorded before the scans and surfaces solved their models in one batched
# pass: the 1-D phase-diagram path with its jump rows, and the top-contour
# surface of a fixed 8-vertex graph with two triangles. PHASE_DIAGRAM_SWEEP
# was re-recorded when the jump row moved to the exact branch tie (see
# PHASE_SCAN_JUMPS): its u_star column went from 0.492461910667 to
# 0.492463670839; it was 55e2f163b7b5bcffed9de4b892f0e9e0d90c96bbfe5b451ac6f3a47e5e44eacc
PHASE_DIAGRAM_SWEEP = "a406855cbded1f0ab51a6f65329df6a325e50c7353ea89a1eca204ffb7e3e8d7"
TOP_CONTOUR = "08e493454dd376220d602d772620b25f45e0d729243d72dfbcd38a76035b0e00"
CONTOUR_GRAPH = "8\n0 1\n0 2\n1 2\n1 3\n2 3\n3 4\n4 5\n5 6\n6 7\n7 0\n2 5\n"


def _cli_digest(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return _sha(buf.getvalue().encode())


def test_cli_phase_sweep_matches_golden():
    argv = ["phase-diagram", "--beta1", "-0.45", "--beta2", "0:2:200"]
    assert _cli_digest(argv) == PHASE_DIAGRAM_SWEEP


# recorded before the CLI declared its shared flags once and parsed every
# flag value in the parser, for the commands no other pin runs
CLI_COMMANDS = {
    "e55471a0c3748222d48febcf261a64b1a1535d2e4d64d9ffd7418b19af926839":
        "degeneracy --beta1 -5 --beta2 3",
    "60e794cd9e30d8d6fe7574a9fa8d850bc005a714348f44748da8079e5c284b93":
        "extremal --motif triangle --beta1 0",
    "7905a28b7a18f4222754804630f69a8cb5aa9885d6e8daec4c72c5c847806469":
        "euler-lagrange --beta1 -0.3 --beta2 0.2 --blocks 3 --init random --seed 7",
    # recorded once each importance edge read one byte of a raw word
    "8b3b39ecd311f47d893a2e3f7dc9910960bb8c0eb9433dda60a7f22c82d712b9":
        "estimate-z --method importance --beta1 0.2 --beta2 0.1 --n 4 --samples 2000 --seed 5",
    "3e57416f5339e2a2226bd3728649cd41cc30484861b7272febc140dce93038fc":
        "estimate-z --method mcmle --model model.txt --model0 model0.txt --n 4 --samples 2000 --seed 5",
    "441399aa23a11d1e887b6c74cd54ed7e0a6c49b85e62a228ae51c274adc76b6c":
        "estimate-z --method acceptance-ratio --model model.txt --model0 model0.txt --n 4 "
        "--samples 2000 --seed 5",
    "dcd995ce7defd574c198d0e483f53b998eda840b8cd8d4537a73e87f1a2489fd":
        "psi --model psi_model.txt --exact-n 5",
}
CLI_FILES = {
    "model.txt": "edge 0.2\ntriangle 0.1\n",
    "model0.txt": "edge -0.1\ntriangle 0\n",
    "psi_model.txt": "# a comment\nedge -0.3\n\ntriangle 0.4\nstar:2 0.1\n",
}


def test_cli_commands_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in CLI_FILES.items():
        (tmp_path / name).write_text(text)
    for golden, command in CLI_COMMANDS.items():
        assert _cli_digest(command.split()) == golden, command


def test_cli_top_contour_matches_golden(tmp_path, monkeypatch):
    # a relative graph path keeps the command header the same in every run
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text(CONTOUR_GRAPH)
    argv = ["top-contour", "--graph", "g.txt", "--beta1", "-1:0.5:12", "--beta2", "-0.5:2:12"]
    assert _cli_digest(argv) == TOP_CONTOUR


# recorded while the dense chain matrices were built one (state, pair) entry
# at a time from per-state graphs and the change statistics
ER_MATRICES = {
    (0.0, 3): "97e7116ad419ff67c6dbed17f7a2af11e43185e6ef0e684cd90bb93bd54b2e03",
    (0.5, 3): "272119935f022419e6b0ec0a6c648e1a0fe1a7f4e92dd20287019a9903e05156",
    (20.0, 5): "b2344991b84de55502589b57c9e99f2645aa902ba4a86188920631635fb1c3e9",
}
GLAUBER_MATRICES = {
    "edge_triangle_n5": (ModelSpec.edge_triangle(-0.45, 0.2), 5,
                         "fb03168799d6e022ca88389858fdd30bd6e3d29354f09fbd03a7075ee068b80c"),
    "cycle4_n4": (ModelSpec([(Motif.edge(), -0.3), (Motif.cycle(4), 0.9)]), 4,
                  "a7c2abab421c02bc7afcb9a4f7c8e0da7b303b28dbe286a7ec11637a64bcc6ea"),
    # two interacting terms whose log-odds numpy's vector exp rounds
    # differently from the chain's libm exp on some hosts
    "star3_triangle_n5": (ModelSpec([(Motif.star(3), 0.5), (Motif.triangle(), -0.7), (Motif.edge(), 0.2)]), 5,
                          "16cebab67cd6dfd58157e3b857f10edebfe82f7665df8dd3684a5a0aa534e852"),
    # log-odds beyond double range in both directions: on-probabilities 0 and 1
    "opposite_n5": (ModelSpec.edge_triangle(-1e308, 1e308), 5,
                    "ac72b004723b1ece137164f92de56e6b03daa9385d7e2e7753b867f29723c6b7"),
}


def test_er_transition_matrices_match_golden():
    for (beta, n), golden in ER_MATRICES.items():
        assert _sha(er_transition_matrix(beta, n).tobytes()) == golden, (beta, n)


def test_glauber_transition_matrices_match_golden():
    for name, (model, n, golden) in GLAUBER_MATRICES.items():
        assert _sha(glauber_transition_matrix(model, n).tobytes()) == golden, name
