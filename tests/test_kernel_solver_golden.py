"""The kernel solvers pinned bit for bit.

The pins were recorded while euler_lagrange_solve built and checked a
StepGraphon every iteration and graphon_search ran its restarts one after
another, each contraction guarded and looked up per call. They check that
the array-level loop and the lockstep search, which bind each model's
contractions once per solve, give the same bits.

Euler-Lagrange: the landscape motif pool (triangle, star:2, star:3,
cycle:4), alone and in pairs, next to an edge term, each solved with
damping 0.5 from 1-, 2- and 3-block inits (the 3-block init has unequal
weights); each digest covers the float.hex of every solution value and
residual, and of the last iterate and residual of a max_iter=2 run.
Search: the edge-triangle model (0, -50) at k = 4 with 16 restarts, seeds
0-4, at max_iter 100 and at the default; psi is pinned as float.hex, the
kernel as a digest of its float.hex values.
"""

import hashlib
import itertools

import numpy as np
import pytest

from ergmlab.errors import ConvergenceError
from ergmlab.graphons import StepGraphon
from ergmlab.graphs import Motif
from ergmlab.variational import ModelSpec, euler_lagrange_solve, graphon_search

POOL = ["triangle", "star:2", "star:3", "cycle:4"]
EL_SETS = [(m,) for m in POOL] + list(itertools.combinations(POOL, 2))


def el_model(i: int, names) -> ModelSpec:
    """Edge coefficient -0.4 + 0.08 i; each motif a share of the contraction
    budget 0.6 with alternating sign, so every model is contraction_valid."""
    terms = [(Motif.edge(), -0.4 + 0.08 * i)]
    for j, name in enumerate(names):
        m = Motif.parse(name)
        e = m.edge_count
        terms.append((m, (-1) ** (i + j) * 0.6 / (len(names) * e * (e - 1))))
    return ModelSpec(terms)


def el_inits(i: int) -> list[StepGraphon]:
    rng = np.random.default_rng(i)
    return [StepGraphon.random(k, rng, equal_weights=k < 3) for k in (1, 2, 3)]


def _hex(values) -> str:
    return " ".join(float(x).hex() for x in np.ravel(values))


def el_digest(i: int) -> str:
    model = el_model(i, EL_SETS[i])
    lines = []
    for init in el_inits(i):
        sol, residual = euler_lagrange_solve(model, init, damping=0.5)
        lines.append(_hex(sol.values) + " " + residual.hex())
        with pytest.raises(ConvergenceError) as err:
            euler_lagrange_solve(model, init, damping=0.5, max_iter=2)
        lines.append(_hex(err.value.last_iterate.values) + " " + err.value.residual.hex())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def search_record(seed: int, max_iter: int | None) -> tuple[str, str]:
    kwargs = {} if max_iter is None else {"max_iter": max_iter}
    rep = graphon_search(ModelSpec.edge_triangle(0.0, -50.0), k=4, restarts=16, seed=seed, **kwargs)
    kernel = hashlib.sha256(_hex(rep.maximizers[0].values).encode()).hexdigest()
    return rep.psi.hex(), kernel


EL_GOLDEN = [
    "9c464b5d099d6f434141c05d4a46c65cf6ccde27dfb1bfed2089ff5068f3cffb",  # triangle
    "468356790df8b12253b8596565aed858f8138654b0c709f11d4e7856deb9e270",  # star:2
    "4906ef4b4832402fea922fe126e2d10dfa375d22043a6908f9add197d30ed35f",  # star:3
    "b7e55779f58234af2c73bff97575a134e5b2912bf41972f75bffb9fedeffa7fe",  # cycle:4
    "2d4909f2e1a142ddad693aaf6a7aa2611be89e96c86d9667cd94873abbb1b147",  # triangle+star:2
    "fb4e2e17223ba020452a174932a2177905632e3cfbb641c8b0b65a20ddfb1c1d",  # triangle+star:3
    "0d6fe72cc4627f1ea480b2f9fe674fb8eeeee67d075b88d2e39ea4bb63092ffe",  # triangle+cycle:4
    "267b12d5a902155ccb32c1a1dc3a26683500dac2fcaf8b42be3a968be6052a6b",  # star:2+star:3
    "0d988703ab8410862487c9769fc6b3e55aa0671367957ea35af6c5b253d7c219",  # star:2+cycle:4
    "8bf8ded86028cc5e8bbc662372f9c939ee58032b46ddb16001990fb7afa4924c",  # star:3+cycle:4
]

SEARCH_GOLDEN = {
    (0, 100): ("0x1.d68231f5bd2b3p-4", "98c4f1c9ee8229d714ae8d08618dbcb1ee63c8e272512ddb2911c558ed463c64"),
    (1, 100): ("0x1.62e136dd82fcbp-3", "b9e856fe7e24dac7daee34167b14c74a9fa7339e10500a8aa8a0d90947c01047"),
    (2, 100): ("0x1.62e136dd82fcbp-3", "2c8925f1859376a993874a05210c7bb13e5a35d15495372e46631dc80e0180e5"),
    (3, 100): ("0x1.1ba539c79f790p-3", "ce1743b64812629e1d940b8f9998cad0f24a661179c36f93a95a40ba5261a638"),
    (4, 100): ("0x1.d68231f5bd2b3p-4", "9eb7827e8d8b8ccc4cabfff1adff88fb2480cc19d41d168b7af5acb05a3f083b"),
    (0, None): ("0x1.d68231f5bd2b3p-4", "98c4f1c9ee8229d714ae8d08618dbcb1ee63c8e272512ddb2911c558ed463c64"),
    (1, None): ("0x1.62e136dd82fcdp-3", "1211add87351d101982f91c248a9c21bcd09cd7b03d1762bc935679f48f139dd"),
    (2, None): ("0x1.62e136dd82fcbp-3", "2c8925f1859376a993874a05210c7bb13e5a35d15495372e46631dc80e0180e5"),
    (3, None): ("0x1.62e136dd82fccp-3", "dd8d58ec44970cf02a2d2aa2e0a742c744622effae478c07b53ac8b3e98f3ce7"),
    (4, None): ("0x1.d68231f5bd2b3p-4", "9eb7827e8d8b8ccc4cabfff1adff88fb2480cc19d41d168b7af5acb05a3f083b"),
}


@pytest.mark.parametrize("i", range(len(EL_SETS)), ids=["+".join(s) for s in EL_SETS])
def test_euler_lagrange_matches_golden(i):
    assert el_digest(i) == EL_GOLDEN[i]


@pytest.mark.parametrize("seed, max_iter", list(SEARCH_GOLDEN))
def test_graphon_search_matches_golden(seed, max_iter):
    assert search_record(seed, max_iter) == SEARCH_GOLDEN[seed, max_iter]
