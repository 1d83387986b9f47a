"""Fixed-seed chain outputs pinned to sha256 digests.

The digests were recorded before the motif statistics and the chain loop
were rewritten around one term object per motif, so they check that a seed
still gives the same chain: the same pair and coin draws and the same
accept/reject decision at every step, for every motif class.
"""

import contextlib
import hashlib
import io

from ergmlab.cli import main
from ergmlab.graphs import Motif
from ergmlab.mcmc import ChainConfig, run_chain, sample_motif_densities
from ergmlab.variational import ModelSpec

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
