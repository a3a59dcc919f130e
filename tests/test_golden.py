"""Golden outputs: sha256 of CLI and synthesis outputs that must stay byte-identical.

A refactor that changes any of these bytes changes what users get: the
circuit text of every synthesizable graph type, the gate-count table, the
W_8 PageRank CSV on both backends and two statevector dumps.  When a change
of output is intended, recompute the digest and say why in CHANGES.md.
"""

import hashlib

import pytest

from szwalk import cli, markov
from szwalk.cli import main
from szwalk.gates import to_text

SYNTH_SPECS = {
    "cycle": ({"n": 8},
              "9c0064df1d785501d06ecf7831c623f377f1eaf1087e58099f4e44a3950d5bb0"),
    "complete": ({"n": 8},
                 "b21d3b4e57f3e2e528760c7b5bceb8c05f43be540bda036766d59f4717a2d112"),
    "bipartite": ({"n1": 4, "n2": 2},
                  "55cc6e8123ab52db6a80971b26cdcce141cc736e0f47139dd25b71361ba047b0"),
    "crown": ({"n": 4},
              "c774ea12ab98bc35f4087189b8fee3038dc8992e1c4a55775a73dcd4c95116a6"),
    "wheel": ({"n": 4},
              "c1b142577cb630cfae163340ad9dae1f2fc57cc1a72a2ebfd700b81c453a30c1"),
    "wheel_directed": ({"n": 4, "alpha": 0.7},
                       "521efe1c0abe30c0135227b77ef1246a9ddf8cb16736da17dc25473cfc6e18cc"),
    "win": ({"n1": 8, "n2": 4},
            "80cbcde368a00b284704e5ffd7389a9e89a856b94d9641c8bd1dae8c880e40fe"),
    "k2": ({},
           "0dab97380daddf93113a538f1399e62b893a5b9f657adaa40ea65a3aa37fe540"),
    "directed8": ({},
                  "99d57a1f28ea123570fdefc156858f184e9c5e40024b6990980b367b36994071"),
    "circulant": ({"column": [0.1, 0.2, 0.3, 0.4], "offset_x": 3},
                  "f19e6289aadfc62c0525573f3e20d5141d866d0c8b7b8d84d858d8829f1c0cb2"),
}

# Larger sizes of the partitioned families, where the register-1 control
# patterns have more than one fixed bit (win 32/4 fixes three).
LARGER_SYNTH_SPECS = [
    ("win", {"n1": 16, "n2": 4},
     "20b73750f961693166d02060655add2b9a6322fe85c0337c9c9c1b58d1871baa"),
    ("win", {"n1": 32, "n2": 4},
     "446b86c8336ff2b15c294c38d528a22a690a0892efbe5f38983accbd1a935208"),
    ("bipartite", {"n1": 16, "n2": 2},
     "fe10619ec3950ce91bcf2b74cfeba33770d7d346ff084cfd2b9b5b7391632a56"),
    ("bipartite", {"n1": 8, "n2": 1},
     "22270a3aa730f2fa9bce5d55231021aff535628bf6159dab35c24735fe53080e"),
    ("wheel", {"n": 32},
     "8d634cfd5abdef0454f0f0a3e241760439529422e33985bcf6bca43c4de4aec9"),
    ("wheel_directed", {"n": 16, "alpha": 0.7},
     "fc94963fdc29ed9b3e61507b5f68a3769bb23c13327d826c30b10f7e13d3bf5a"),
    ("directed8", {"alpha": 0.0},
     "fbc0b277f3ff602db21846577f9df86cd65eb3ff55e78beccb3326049ab044fc"),
]

CLI_OUTPUTS = [
    (["gatecount", "--n-max", "6"],
     "e8a42865ff6fb754ef142bfb2ed00d6db90e82a17e67aa3b3707b7c6918e7742"),
    (["pagerank", "--graph", "wheel", "--n", "8", "--steps", "50",
      "--backend", "circuit"],
     "6a3a1d3f0cb62d7f984c04b4da4d7eeaf49e51ed69eb354ee064f8f5578a8116"),
    (["pagerank", "--graph", "wheel", "--n", "8", "--steps", "50",
      "--backend", "oracle"],
     "6a3a1d3f0cb62d7f984c04b4da4d7eeaf49e51ed69eb354ee064f8f5578a8116"),
    (["simulate", "--graph", "k2"],
     "45d6c6fd576f5af3b210f2abdc627a51d6982487345b92bcd3244d8c2a03b4f7"),
    (["simulate", "--graph", "cycle", "--n", "6"],
     "c3d2eab9d24ed89d818719c671021aeab11bc9bd0b482ec5d44aa5e67554776a"),
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_synthesizable_type_is_pinned():
    assert set(SYNTH_SPECS) == set(markov.GRAPHS) - {"custom"}


@pytest.mark.parametrize("kind", SYNTH_SPECS)
def test_synth_text(kind):
    params, digest = SYNTH_SPECS[kind]
    _, _, synthesize = cli.build_walk({"type": kind, "params": params})
    assert sha256(to_text(synthesize()).encode()) == digest


@pytest.mark.parametrize("kind, params, digest", LARGER_SYNTH_SPECS,
                         ids=["-".join([kind, *map(str, params.values())])
                              for kind, params, _ in LARGER_SYNTH_SPECS])
def test_synth_text_larger_sizes(kind, params, digest):
    _, _, synthesize = cli.build_walk({"type": kind, "params": params})
    assert sha256(to_text(synthesize()).encode()) == digest


@pytest.mark.parametrize("argv, digest", CLI_OUTPUTS,
                         ids=["-".join(argv) for argv, _ in CLI_OUTPUTS])
def test_cli_output(tmp_path, argv, digest):
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == digest
