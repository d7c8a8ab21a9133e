"""Every report byte of two small runs, pinned by sha256.

The digests are the float bits of the host that recorded them (x86_64,
numpy 2.4), like ``perfbench/expected_seed0.json``: a different libm or
numpy build may round a sine or an exponential differently and change
them.  On the recording host a change to any digest is a change to a report
byte, which a refactor must not make.

The first config is the standard one cut to checkpoints 1000, 10000, 100000
on two workers; the second also measures the frequency-zero base mode (1, 2)
on three workers.  ``run`` reads the Weyl cocycle from the pair route's scan,
while the ``weyl`` subcommand alone scans its own p + q lifts: both must
write the pinned ``weyl.csv``.
"""

import hashlib

import pytest

from nillab.cli import main
from nillab.config import standard_config

SMALL = dict(checkpoints=(1000, 10000, 100000), sieve_bound=100000, segment_size=4096)
CONFIGS = {
    "standard-w2": dict(SMALL, workers=2),
    "xi0-w3": dict(SMALL, xi=0, base_mode=(1, 2), workers=3),
}
PINNED = {
    "standard-w2": {
        "bilinear.csv": "643035a14add79f14c3ba7194e25f743539641d0d631863b64dc57ccabbf64fe",
        "bilinear.json": "a77cd0df13ec4c7b670fc3910ca50d086fd6483ad774bc04589951f1b546e9ab",
        "coboundary.json": "1b2bd78ec789f5a4d531fe5762732e51991f5b6382a3ef8d9e94c582f01632c3",
        "constants.json": "e1ec95d027396a1051d4ce3e757d960b58a7994d4b42ea8ae0a9f96ae0be6567",
        "correlation.csv": "7c584dc59deda53b97dd3b5a019a5eb168f608931db2ece544af7961887b9c94",
        "correlation.json": "4ac8208cf25c624e4d6ac59f337b1de09cd1a8f967d737fe9772fdde046f4636",
        "davenport.csv": "1c7178abbcdaba7d3adb133bf1f979277146919c1c1cfd34b382a0e5a531116a",
        "davenport.json": "9658b7419757cafc9e093af3d1663a3f9aaed9f83074c0fb0a93449751167100",
        "weyl.csv": "bc9e0e98fb4cf3e42320a4d36ec22956ee31885610b878b94f69b8e22b3837e1",
    },
    "xi0-w3": {
        "bilinear.csv": "b75df8b6382b6cbde1f8eb1c36d232745b38b33bd0146799e4b94ca5eb0e7f4c",
        "bilinear.json": "8a4468ac99d8d6ea0c066ac5968fba372d4e27e097a5a38c56b99276f25874bf",
        "coboundary.json": "1b2bd78ec789f5a4d531fe5762732e51991f5b6382a3ef8d9e94c582f01632c3",
        "constants.json": "e1ec95d027396a1051d4ce3e757d960b58a7994d4b42ea8ae0a9f96ae0be6567",
        "correlation.csv": "a7d4b7e91225a062e2c50f466f76657d9bb88380d4a1449e2bd609de2ebeb0fc",
        "correlation.json": "84ece434988d4c6d445ec9dd79839204b79dbd3ee6713c20b571294428a9f171",
        "davenport.csv": "1c7178abbcdaba7d3adb133bf1f979277146919c1c1cfd34b382a0e5a531116a",
        "davenport.json": "9658b7419757cafc9e093af3d1663a3f9aaed9f83074c0fb0a93449751167100",
        "weyl.csv": "bc9e0e98fb4cf3e42320a4d36ec22956ee31885610b878b94f69b8e22b3837e1",
    },
}
# bilinear_reduced.csv of ``bilinear --two-route`` on standard-w2
REDUCED_PIN = "97263f249581158d82d79d82f9dc6e8fe3b5d74cd78a420750db0f81ebae6524"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _config(tmp_path, name):
    out = tmp_path / "out"
    path = tmp_path / "cfg.ini"
    path.write_text(standard_config(out_dir=str(out), **CONFIGS[name]).to_ini())
    return path, out


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_reports_keep_their_bytes(tmp_path, name, capsys):
    path, out = _config(tmp_path, name)
    assert main(["run", "--config", str(path)]) == 0
    written = {p.name for p in out.iterdir()} - {"manifest.json", "config.ini"}
    assert {f: _sha256(out / f) for f in sorted(written)} == PINNED[name]
    (out / "weyl.csv").unlink()
    assert main(["weyl", "--config", str(path)]) == 0
    assert _sha256(out / "weyl.csv") == PINNED[name]["weyl.csv"]


def test_two_route_reports_keep_their_bytes(tmp_path, capsys):
    path, out = _config(tmp_path, "standard-w2")
    assert main(["bilinear", "--two-route", "--config", str(path)]) == 0
    assert _sha256(out / "bilinear.csv") == PINNED["standard-w2"]["bilinear.csv"]
    assert _sha256(out / "bilinear_reduced.csv") == REDUCED_PIN
