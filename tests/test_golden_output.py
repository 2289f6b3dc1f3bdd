"""CLI output pinned byte for byte.

The digests are sha256 sums of stdout, recorded before the closed forms of
each regime were gathered into one row builder (verify's before its
closed-form checks ran their k grids as arrays); a refactor that changes any
printed digit fails here.
"""

import hashlib
from pathlib import Path

import pytest

from fmgame.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SWEEP = "sweep --param k --lo 0 --hi 0.32 --steps 200 --scenario"

GOLDEN = [
    ("solve", "set_a", "13b33659d0670d8a09c784132691c84cfeb36a9077579d73190e99643cc4975d"),
    ("solve", "set_b", "b8c85556bc268d7183fea9c83c7e79b29453cdf4d0ae97c20c01778fa19a432e"),
    ("policy mandate", "set_a",
     "258f0b0b1fa0f71de2fd314659058e386d3ca804422d56d10b0022f507c5f3fb"),
    ("policy integration", "set_a",
     "40b9fa8c9bd7dd475ea96ebe7b1e70b2451bda1bc0303030cd92a7f340b70a9a"),
    ("policy subsidy", "set_b",
     "913b2f441c9573a2231c8523ab5d2630fd68ea89a61d39464c9b1d5062f88ad5"),
    (f"{SWEEP} baseline", "set_a",
     "61caf12a868adb1575e4edd3e532f8aaf83147142f31f65577b25fb2bdabd57d"),
    (f"{SWEEP} baseline", "set_b",
     "a2432b268fac9c776e311f890373c691c0ac6d077e7d5f84a85c38cf6f125dc7"),
    (f"{SWEEP} mandate", "set_a",
     "51224b5301ef1e413ebdcdb36ab34102ea5b005183199da5652dc42592668bf1"),
    (f"{SWEEP} mandate", "set_b",
     "62286eca0fcbe937c532e1305a0d93217506042eeeccc6a76244dc814978db09"),
    (f"{SWEEP} integration", "set_a",
     "487077298fa5cafa62353d98ab3093577337de5c2df59fa31f912d89b67b79f2"),
    (f"{SWEEP} integration", "set_b",
     "d7e4cf0fdcbf60067f75d2537441c9984e5758816b3f766cdfac9dffb349df56"),
    (f"{SWEEP} subsidy", "set_a",
     "b8dd05bb673a239099a4119469b789e339c41a957134ed42380ed682e738a8e2"),
    (f"{SWEEP} subsidy", "set_b",
     "9ca302be5132ad256271a01d9b6425e903fefb950fb4ca154f1c5faaedd0b433"),
    ("verify", "set_a", "194b3900de1dc84b93244236d3bac780ccd20c8cc5e4995d77fb523aefe51cac"),
    ("verify", "set_b", "c4a530ecea648ea64da7a18ff4d5de2cee42f0d0a51a563590c8d433c62d1263"),
]


def _case_id(command: str, config: str) -> str:
    words = command.split()
    return "-".join(dict.fromkeys([words[0], words[-1], config]))


@pytest.mark.parametrize("command,config,digest", GOLDEN,
                         ids=[_case_id(cmd, cfg) for cmd, cfg, _ in GOLDEN])
def test_stdout_digest(command, config, digest, capsys):
    argv = command.split() + ["--config", str(CONFIGS / f"{config}.cfg")]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
