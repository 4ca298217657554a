"""Golden traces: fixed-seed ``cmab run`` output pinned by SHA-256.

A fixed seed gives byte-identical CSV, so a refactor of the policies, the
oracles or the harness that keeps these digests keeps every trace.  The
built-in environment digests were recorded before the SDCB arm state moved
to a count matrix, the utility digests while the exhaustive oracle still
scored utility rewards one set at a time; re-record them only when the
output is meant to change.
"""

import hashlib
import json

import pytest

from cmab.cli import main

POLICIES = ("sdcb", "lazy-sdcb", "lazy-sdcb-doubling", "cucb", "osm")
ENVS = ("dist1", "dist2", "dist3", "dist4")

CASES = [(p, e, "greedy", 300) for p in POLICIES for e in ENVS] + [
    ("sdcb", e, o, 200) for o in ("exhaustive", "ptas") for e in ("dist1", "dist4")
]

# (policy, env, oracle, T) -> (averaged CSV, per-run CSV); seed 42, 2 runs
DIGESTS = {
    ("sdcb", "dist1", "greedy", 300): (
        "2807f334c680bf4edcb4834003575de7f75484b16015bf3a69d1422db31721ad",
        "cfafcca706912a8438352dd74a00dbf2af47c742f9a9048cc86d10cf99044149",
    ),
    ("sdcb", "dist2", "greedy", 300): (
        "1d5332f9624fa9c3d77bc6b2c33bee7acfdd84e49db1a0388f2d7055a077dc56",
        "c55e1624631533ac9f23a2cbdc656ed64c13f861368daf13b8be2788f6805d89",
    ),
    ("sdcb", "dist3", "greedy", 300): (
        "8e90b38ec4358cf1a13a9b346b3aebc532747b1c9528dbe857174daae06428cb",
        "0373f91fc22f52b98ac514beeb4f7666357b70f0bde3bfe33bb06afdf59fc8b3",
    ),
    ("sdcb", "dist4", "greedy", 300): (
        "be7f859920877df3fa86b239b8c21895d29733f86aa2e9373a7b7fda0d9b5bac",
        "b326658f49027b734fb3f9f43c76967373d1b168a03e226fcb763d1e25e9742e",
    ),
    ("lazy-sdcb", "dist1", "greedy", 300): (
        "456e2cbe3a8191dcb4320bb38e12e7d0b7e266a3734423e9aed4ee154d8fb46d",
        "c9c6d37a3d256613c70913c4f426f46b9feee53bb0bf34fc8f8e8ac902ab53d7",
    ),
    ("lazy-sdcb", "dist2", "greedy", 300): (
        "ff4529e5a5f9a34dd2705fd2c277808aa7008fafd6bbe2f2023a57d0935ad705",
        "f1affa16c5250f6c3c0c807adadce83f5251dbcb8825c5a960cab07e7d7eb7f4",
    ),
    ("lazy-sdcb", "dist3", "greedy", 300): (
        "e40d4f1fe381e367e72edb7fed0a3b3d8907e180c970d4898a7eef1a22f7c74a",
        "876515c7ae9fe158b8a30a664a0b51fbdd33708614a974c83df7e1e1a08ba7e9",
    ),
    ("lazy-sdcb", "dist4", "greedy", 300): (
        "34303c772c64b3b8e3dc70d134ec536df37b86f3fee5bd82935f7e5024c914aa",
        "a9d7f11c2f0c46deb09f0d57e96bb9f23e89f89b25e8cfdbe50a637735d05f22",
    ),
    ("lazy-sdcb-doubling", "dist1", "greedy", 300): (
        "8b8fc22eee6a27e3ee3e28d491bdab1bc0eae0c512fa79c3f89c037b5576537c",
        "30c678c8b3cf9a0edb2ce8beaadcb73e4fd4f28687156e8366cb4853a083dc0b",
    ),
    ("lazy-sdcb-doubling", "dist2", "greedy", 300): (
        "56dc7fb712addc2b9ca8bb3357849749451ef5139159b880ece4ad250c259f4a",
        "f2f648fda3f36634e15ad922f526527e26a4eb920dcb2a746a893e1fc5b10d2f",
    ),
    ("lazy-sdcb-doubling", "dist3", "greedy", 300): (
        "8d8e8c21f151e97ffdb3fcbb53857c46cfb77af0ef9511a5cd277d9e7994f5e0",
        "594a1faf4c762842f0a27d484d3c728a6ea9fc4c4455e65cb7c792742f730eda",
    ),
    ("lazy-sdcb-doubling", "dist4", "greedy", 300): (
        "bc2df757d714263ac419308ebc16018848de94618e15298326fcbc2a9eb50f4a",
        "c98565fe10dd85cd7e2c9431da420c2a4952b7719cfae95742d3d0b5ea4b207b",
    ),
    ("cucb", "dist1", "greedy", 300): (
        "8c3d36af486d73a4e2660cbe1fb4662e235497fac0252af41d7655add7a1cb48",
        "859b92fdc22100688f30fa720ec57f9cc0b826c747c13c279823856255bf8c18",
    ),
    ("cucb", "dist2", "greedy", 300): (
        "b13717d6e8da7e4f2364e461421b7bd5eb044e8121432f8075e132c27e6635cd",
        "08afd4b3b172ff06b91c0504fe422634487f65e09a64c39eb8662c575171abd7",
    ),
    ("cucb", "dist3", "greedy", 300): (
        "f3215b26a0acfdfa07b460000e776d39501298673e186ce9331f620a920d2a3e",
        "704c3023465174bea99c5acf0259cb23a0b558092b2ac6d5841685cadd288fd0",
    ),
    ("cucb", "dist4", "greedy", 300): (
        "b2e1e42cc00167ac96b2e24b773e0eb21d8bc7e4bacb5649d65a487213107970",
        "c5b8e8cf463d0698790f05e11cf43113b7261b3533f5a259b9ff6cff57d2b106",
    ),
    ("osm", "dist1", "greedy", 300): (
        "7a4fb46535a7d88677e9717a0ca8c31b0c0bdd25336cedb1a61e261c407b9245",
        "546be62ea35d1a2ec0aad992248318aa3c0b8b9e0136ebc78e6830983b71b775",
    ),
    ("osm", "dist2", "greedy", 300): (
        "6bded015ddeb37b54e698e4ea650a9fdc6821047bfd608bb5845fe26b11ef1f8",
        "3b2b76a523d34d6a611ee9c4965946023ad1b28ca6dfe7c3fd6b707a1962f2bb",
    ),
    ("osm", "dist3", "greedy", 300): (
        "4692a043c5bd39bd74b7578e12953d3a7c8cbe3adc1bdf95b47e20fd7f94d431",
        "fa8670a74081c780f9ac4f35913b46db1eeb803825f13272a7989725816e7785",
    ),
    ("osm", "dist4", "greedy", 300): (
        "528e460a4562339f1d8c79a39ca1921d11fa38df83ca5b5117ddc2e526a9fd33",
        "3d48b22f1ad6576f2d122c5c6622589ab581d6a7e7f321105c5b106856ee357b",
    ),
    ("sdcb", "dist1", "exhaustive", 200): (
        "6e57704ab1ed82c84fe9b8a5352c507e6cf6e1b22ba595b3874c2890d87117c2",
        "608cc3286ce5e4161e8368f21b8b4eb34e1d80f148099f1dfebcaefec34eab94",
    ),
    ("sdcb", "dist4", "exhaustive", 200): (
        "420b3c710ef7499bdf970b83af4abd29a10bc7a69a1c23a715132d4ff3312780",
        "271c4009b94eb49eee7467b61ec597005fdfbef86a138d6e14f6a2d1b1469d78",
    ),
    ("sdcb", "dist1", "ptas", 200): (
        "56d9416c4ebea96c6ea64ef5597c0218022e5cdd00daad09f4dcd5e8394a676c",
        "2985ee2f625dff50669e55a93f6a186eaca99651ad861e04f6229540cec0531e",
    ),
    ("sdcb", "dist4", "ptas", 200): (
        "0d2f717f86f6d24182fcb1449480b50f82fdf37115a0a72bab6fdff5dc3cc536",
        "a7b1a514bbb31c87d78b9964e3d8670697a75a4fc6c00cb9f34485e5338b4173",
    ),
}


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_digests(tmp_path, policy, env, oracle, T, config=None):
    avg, per = tmp_path / "avg.csv", tmp_path / "per.csv"
    source = ["--env", env] if config is None else ["--config", str(config)]
    argv = [
        "run", *source, "--policy", policy, "--oracle", oracle, "--T", str(T),
        "--runs", "2", "--seed", "42", "--out", str(avg), "--per-run-out", str(per),
    ]
    assert main(argv) == 0
    return _sha(avg), _sha(per)


@pytest.mark.parametrize("case", CASES, ids=["-".join(map(str, c)) for c in CASES])
def test_trace_digest(tmp_path, capsys, case):
    assert run_digests(tmp_path, *case) == DIGESTS[case]
    capsys.readouterr()


# 9 finite arms, K = 3: three safe arms with mean 0.6, three risky {0, 1} arms with mean 0.65 and three low ones
UTILITY_ARMS = (
    [{"support": [0.4, 0.6, 0.8], "probs": [0.2, 0.6, 0.2]}] * 3
    + [{"support": [0.0, 1.0], "probs": [0.35, 0.65]}] * 3
    + [{"support": [0.2, 0.4, 0.6], "probs": [0.3, 0.4, 0.3]}] * 3
)
UTILITY_CURVES = {
    "identity": {"kind": "utility", "utility": "identity", "bound_M": 3.0},
    "sqrt": {"kind": "utility", "utility": "sqrt", "bound_M": 3**0.5},
    "table": {"kind": "utility", "utility": [[0.0, -0.5], [1.0, 0.4], [2.0, 1.0], [3.0, 1.1]], "bound_M": 1.1},
}
UTILITY_CASES = [(p, c) for p in ("sdcb", "lazy-sdcb") for c in UTILITY_CURVES]

# (policy, utility curve) -> (averaged CSV, per-run CSV); exhaustive oracle, T = 200, seed 42, 2 runs
UTILITY_DIGESTS = {
    ("sdcb", "identity"): (
        "4a5aaa1b65ac832574122ae1a95b5e6dea630a335718e2dbb7fb93b3467a202d",
        "a26393bb5529656a42fa300f7bb047b69b482e1f6a4da8ffc41410be09545722",
    ),
    ("sdcb", "sqrt"): (
        "b3c64bca5a7b288e3a9a5911b6ae4ca11c962b6a88537233548d1562c23a52bd",
        "b116fd1aace9a6a5fcea77ef4652805c3e4654b59fd2e5831f0cf6547b480fa7",
    ),
    ("sdcb", "table"): (
        "a8ee580a6392ced22f8d22a8de791b69903dffb2a3c2a89b79ea1638e4b3b263",
        "3386c44b704edc0c03e6ecf3f6679978faacf4b032020816c7c317d432e448e3",
    ),
    ("lazy-sdcb", "identity"): (
        "6efc47faeb3783c58cbeae650a4507b3e126bbd817402eb265bd0be2a88f246e",
        "14c8b68939b192cdac01f2fa3f7e39c5c465fe96f7f98ee3bf6c9dde5669843c",
    ),
    ("lazy-sdcb", "sqrt"): (
        "013286f7e46f833dda222c447912d414a3d6be969b7c0842013a73cc83b202a9",
        "0ae5109a0be6e51624c61c6bc112f47de6ae0c0c7087e11c4f53251bbb3fe506",
    ),
    ("lazy-sdcb", "table"): (
        "d9cf201ae58898532fe7056fe383145a4838319549a7339a41bcd2d6bffcd728",
        "96c7b196899537cf1577fffba27d7b6c1e784c82662ce1f18c9e6f7d04ca4da8",
    ),
}


@pytest.mark.parametrize("case", UTILITY_CASES, ids=["-".join(c) for c in UTILITY_CASES])
def test_utility_trace_digest(tmp_path, capsys, case):
    policy, curve = case
    config = tmp_path / "config.json"
    family = {"kind": "cardinality", "K": 3}
    config.write_text(json.dumps({"arms": UTILITY_ARMS, "family": family, "reward": UTILITY_CURVES[curve]}))
    assert run_digests(tmp_path, policy, None, "exhaustive", 200, config) == UTILITY_DIGESTS[case]
    capsys.readouterr()
