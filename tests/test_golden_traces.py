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
check that both changes leave every maximizer and psi value as it was.
"""

import contextlib
import hashlib
import io

from ergmlab.cli import main
from ergmlab.graphs import Motif
from ergmlab.mcmc import ChainConfig, estimate_importance, run_chain, sample_motif_densities
from ergmlab.variational import ModelSpec, degeneracy_constants, phase_scan

PAW = "edgelist:0-1,1-2,2-3,1-3"


def _model(motif: str, b: float) -> ModelSpec:
    return ModelSpec([(Motif.edge(), -0.2), (Motif.parse(motif), b)])


CHAINS = {
    "er": ChainConfig(12, steps=3000, seed=101, er_beta=0.5),
    "star2": ChainConfig(12, steps=3000, seed=102, model=_model("star:2", -0.6), start="complete"),
    "triangle": ChainConfig(12, steps=3000, seed=103, model=ModelSpec.edge_triangle(-0.3, 0.5)),
    "cycle4": ChainConfig(12, steps=3000, seed=104, model=_model("cycle:4", 0.4)),
    "complete4": ChainConfig(12, steps=3000, seed=105, model=_model("complete:4", 0.8)),
    "edgelist": ChainConfig(12, steps=3000, seed=106, model=_model(PAW, 0.5)),
}

GOLDEN = {
    "er": "b113cc837b482f77845703c81baec5044dcc726c254a5db8a635990442efed41",
    "star2": "0f53e0ea446da6a178fddbc7b93f4e1ca34cfe768eaad2a4adbfeba1603800ef",
    "triangle": "f3b32e7036ff33e361fa105c27513f5c38dd09840dd1003dbdf7e9e83c86360d",
    "cycle4": "eda17b5e69bfe76b61d58000f7b3b7cee79f699a408220b1df280aeed2ca7df8",
    "complete4": "bc6ab57e6a62f005cbfca6e712871d76ab35f5740ed4a8982160ce93828108b6",
    "edgelist": "6906b0b35ea2b985dd3d738601537a360c980a7170657e092db35a6cc9644eba",
    "densities": "5519b7f2857eece6a648dae1351dd090e3bacb20275323ece040b09f3186ce88",
    "cli_sample": "395c05d8a2458b3cbebac51e34095d11267c3cd26333e584da58fcf053335185",
}


STAR_TRIANGLE = ModelSpec([(Motif.edge(), 0.1), (Motif.parse("star:2"), -0.15), (Motif.triangle(), 0.2)])

# n = 30 with batch 1000 spans three batches, each counted in several
# triangle row blocks; n = 6 draws its one batch in three draw blocks
IMPORTANCE = {
    "n30_batch1000": (dict(model=ModelSpec.edge_triangle(0.2, 0.1), n=30, n_samples=3_000,
                           seed=31, batch=1000), "0x1.a11e116d0b0c3p+8"),
    "n6_self_normalized": (dict(model=ModelSpec.edge_triangle(-0.3, 0.2), n=6, n_samples=100_000,
                                seed=32, self_normalized=True), "0x1.b2186dc87f448p+2"),
    "n8_star_batch777": (dict(model=STAR_TRIANGLE, n=8, n_samples=5_000, seed=33, batch=777),
                         "0x1.547d7f5e278e2p+4"),
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


def cli_sample_digest() -> str:
    argv = ["sample", "--n", "12", "--steps", "3000", "--beta1", "-0.3", "--beta2", "0.5", "--seed", "108"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return _sha(buf.getvalue().encode())


def test_chain_traces_match_golden():
    for name in CHAINS:
        assert chain_digest(name) == GOLDEN[name], name


def test_sampled_densities_match_golden():
    assert densities_digest() == GOLDEN["densities"]


def test_cli_sample_matches_golden():
    assert cli_sample_digest() == GOLDEN["cli_sample"]


def test_importance_estimates_match_golden():
    for name, (kwargs, golden) in IMPORTANCE.items():
        assert estimate_importance(**kwargs).estimate_log.hex() == golden, name


PHASE_SCAN_POINTS = "09b32c7a50d016425cb0cc46ef075f35a72e64fa3f857d635d155b60972a693e"
PHASE_SCAN_JUMPS = [("0x1.32110a004c1fep-1", "0x1.f847ef635a8cep-2", "0x1.a0fcf9ea3218ep-1")]
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
