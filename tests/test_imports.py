"""numpy is the package's only runtime dependency, and runs import no more
of it than they use."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sftlift"
GOLDEN = Path(__file__).parent / "golden"


def test_numpy_is_the_only_third_party_import():
    modules = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module)
    assert modules, "no imports parsed"
    third_party = {m for m in modules
                   if m.split(".")[0] not in sys.stdlib_module_names | {"numpy", "sftlift"}}
    assert not third_party, f"third-party imports besides numpy: {sorted(third_party)}"


def test_markov_lift_mc_leaves_numpy_ma_unimported(tmp_path):
    # np.unique without return flags imports numpy.ma (about 1 MB) on its
    # first call; the Markov sampler sorts its interval breaks without it
    measure = tmp_path / "nu.json"
    measure.write_text(json.dumps({"type": "markov", "states": ["0", "1"], "transitions": {
        "0": {"0": "1/2", "1": "1/2"}, "1": {"0": "1/3", "1": "2/3"}}}))
    args = ["lift-mc", str(GOLDEN / "rule102.json"), "--measure", str(measure), "--length", "5000"]
    child = ("import contextlib, io, sys\n"
             "from sftlift.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    assert main({args!r}) == 0\n"
             "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
