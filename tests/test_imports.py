"""numpy is the package's only runtime dependency, runs import no more of
it than they use, one function expands successor lists, and one module
builds the 1-block recodings every code is read through and tells code kinds
apart."""

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


class _Calls(ast.NodeVisitor):
    """The innermost enclosing function of every call ``match`` accepts, as
    module.function (module.module for a call outside any function)."""

    def __init__(self, module, match):
        self.scopes, self.callers, self.match = [module], [], match

    def visit_FunctionDef(self, node):
        self.scopes.append(node.name)
        self.generic_visit(node)
        self.scopes.pop()

    def visit_Call(self, node):
        if self.match(node):
            self.callers.append(f"{self.scopes[0]}.{self.scopes[-1]}")
        self.generic_visit(node)


def _callers(match):
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        visitor = _Calls(path.stem, match)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        callers += visitor.callers
    return callers


def _names(node):
    """The names a name, an attribute or a tuple of them refers to."""
    if isinstance(node, ast.Tuple):
        return {n for elt in node.elts for n in _names(elt)}
    return {getattr(node, "id", None) or getattr(node, "attr", None)}


def test_np_repeat_is_called_only_in_the_gather():
    # every successor-list expansion of the package goes through graphs._gather
    callers = _callers(lambda node: isinstance(node.func, ast.Attribute)
                       and node.func.attr == "repeat")
    assert callers and set(callers) == {"graphs._gather"}, callers


def _type_tests(name):
    """The callers of ``isinstance(_, name)``, name alone or in a tuple."""
    return _callers(lambda node: "isinstance" in _names(node.func) and len(node.args) == 2
                    and name in _names(node.args[1]))


def test_recodings_are_built_in_graphs_and_told_apart_only_by_unwrap():
    # every code is read through its OneBlockRecoding: graphs builds them all,
    # graphs._unwrap is the one place that asks whether it holds one, and no
    # module outside graphs asks whether a code is a graph or a block code
    built = _callers(lambda node: "OneBlockRecoding" in _names(node.func))
    assert built and {c.split(".")[0] for c in built} == {"graphs"}, built
    assert _type_tests("OneBlockRecoding") == ["graphs._unwrap"]
    kinds = _type_tests("LabeledGraph") + _type_tests("SlidingBlockCode")
    assert kinds and {c.split(".")[0] for c in kinds} == {"graphs"}, kinds


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
