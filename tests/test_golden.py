"""Default CLI output is byte-identical to the recorded golden files.

Each case runs one command on a config in tests/golden/ and compares the
bytes it writes with the file of the case's name there. The files were
written once and are changed only on purpose, when an output is meant to
change.
"""

from pathlib import Path

import pytest

from gendyne.cli import main

GOLDEN = Path(__file__).parent / "golden"

# output file -> (config file, command arguments)
CASES = {
    "readme.bounds.json": ("readme.json", ["bounds"]),
    "readme.steady.json": ("readme.json", ["steady"]),
    "readme.check-tightness.json": ("readme.json", ["check-tightness"]),
    "readme.sweep.csv": ("readme.json", ["sweep", "--format", "csv"]),
    "readme.sweep.json": ("readme.json", ["sweep", "--format", "json"]),
    "readme_64.simulate.json": ("readme_64.json", ["simulate"]),
    "homodyne_phi.steady.json": ("homodyne_phi.json", ["steady"]),
    "unequal_baths.steady.json": ("unequal_baths.json", ["steady"]),
    "chi_sweep.sweep.csv": ("chi_sweep.json", ["sweep", "--format", "csv"]),
}


@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden(tmp_path, name):
    config, args = CASES[name]
    out = tmp_path / name
    assert main([*args, "--config", str(GOLDEN / config), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
