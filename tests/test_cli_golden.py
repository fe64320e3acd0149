"""Whole CLI outputs on the shipped scenarios, pinned byte for byte.

``data/cli_outputs.json`` holds stdout and the exit code of ``validate``,
``pages --format csv``, ``cohomology --format csv`` and, for sheaf
scenarios, ``order`` and ``verify`` on every file in ``scenarios/``, as
produced by the dense-elimination implementation that preceded the
sparse one.  Page dimensions, the limit-page bookkeeping and the FAIL
matrices of ``tampered.scn`` all have to come out identical.
"""

import json
from pathlib import Path

import pytest

from superseq import cli

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE.parent / "scenarios"
EXPECTED = json.loads((HERE / "data" / "cli_outputs.json").read_text())


def test_every_scenario_is_covered():
    covered = {key.split()[1] for key in EXPECTED}
    assert covered == {path.name for path in SCENARIOS.glob("*.scn")}


@pytest.mark.parametrize("key", sorted(EXPECTED))
def test_cli_output_unchanged(key, capsys):
    command, name, *options = key.split()
    code = cli.main([command, str(SCENARIOS / name), *options])
    assert capsys.readouterr().out == EXPECTED[key]["stdout"]
    assert code == EXPECTED[key]["exit"]
