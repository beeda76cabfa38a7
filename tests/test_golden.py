"""CLI golden outputs: stdout of fixed commands must stay byte-identical.

The expected files in ``tests/golden/`` were written by the command list
below.  Regenerate them (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from sftlift.cli import main

GOLDEN = Path(__file__).parent / "golden"

CA_VECTORS = {("diff", "4"): "1/8,3/8,1/8,3/8", ("sum", "5"): "3/5,1/10,1/10,1/10,1/10"}

COMMANDS = {}
for _name in ("rule102", "diff4", "sum5"):
    COMMANDS[f"degree-{_name}"] = ("degree", f"{_name}.json")
    COMMANDS[f"joining-{_name}"] = ("joining", f"{_name}.json")
    COMMANDS[f"periodic-lifts-{_name}"] = ("periodic-lifts", f"{_name}.json", "--max-period", "4")
# a memory-1 block code, and a labeled graph (its own recoding) of degree 3
COMMANDS["periodic-lifts-rule150"] = ("periodic-lifts", "rule150.json", "--max-period", "4")
COMMANDS["periodic-lifts-skew3"] = ("periodic-lifts", "skew3.json")
COMMANDS["lift-mc-rule102"] = ("lift-mc", "rule102.json", "--measure", "nu_rule102.json",
                               "--length", "50000", "--seed", "1")
for (_family, _modulus), _vector in CA_VECTORS.items():
    COMMANDS[f"ca-{_family}{_modulus}"] = ("ca", "--family", _family, "--modulus", _modulus,
                                           "--vector", _vector, "--length", "50000")


def run_cli(argv):
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(name):
    code, out = run_cli(COMMANDS[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text()


if __name__ == "__main__":
    for name, argv in sorted(COMMANDS.items()):
        code, out = run_cli(argv)
        if code != 0:
            sys.exit(f"{name} exited {code}")
        (GOLDEN / f"{name}.out").write_text(out)
