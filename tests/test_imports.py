"""numpy is the package's only runtime dependency."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sftlift"


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
