"""Golden wire-format files: frozen after all five methods agreed on them."""

import pathlib
import subprocess
import sys

import pytest

from pasep import closedforms

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("n", (4, 5))
def test_partition_polynomial_matches_golden(n):
    want = (GOLDEN / f"partition_n{n}.json").read_text().strip()
    assert closedforms.partition_polynomial(n).to_json() == want


@pytest.mark.parametrize("n", (4, 5))
def test_cli_emits_golden_bytes(n):
    want = (GOLDEN / f"partition_n{n}.json").read_bytes()
    out = subprocess.run(
        [sys.executable, "-m", "pasep.cli", "eval", "--method", "theorem1",
         "-n", str(n), "--format", "json"],
        capture_output=True,
        check=True,
    ).stdout
    assert out == want
