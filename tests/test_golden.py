"""Golden outputs: reports and exports must stay byte-identical for a fixed
seed.  Each digest is the sha256 of the output file as first recorded; a
change to any of them is a change of output, not a refactor."""

import hashlib

import pytest

from twistr.cli import main

GOLDEN = {
    "export rmatrix --family a2even --l 2":
        "9019af45b17d12c26717ac49cd35fe3d32db7bdf21962a7b96180baa4399a8fe",
    "export rmatrix --family d2 --l 2":
        "d1cbbe6c49547c8a4188b23c42093046a693df82784941cdcf6985f1c84c3b2f",
    "verify --family a2even --l 2 --samples 2":
        "1c9f63d2fa0de2d58c88547af3d9aad7c081b807e9226f749f89e820f97b3318",
    "verify --family a2odd --l 3 --samples 2":
        "04dce9cb88e91e16022ea8f7fdadc37c4b9e699be8fe359f376ceaf8eccae318",
    "verify --family d2 --l 2 --samples 2":
        "aaa0c85703a367baafcd2e06c3c2a04fc2b1da54960ce844328c92b2396e3ccf",
    "verify --family d2 --l 4 --samples 2":
        "a0502590bb7b4a1da2cac7ce4cd0b92f744dbcf9458e7fd839bf7961038bc610",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_output_digest_at_seed_7(command, tmp_path):
    out = tmp_path / "out"
    assert main(command.split() + ["--seed", "7", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[command]
