"""Guard against dead code: every function and method that src/ratdyn
defines must be named somewhere besides its own def."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_defined_name_is_used_somewhere():
    sources = sorted((ROOT / "src" / "ratdyn").glob("*.py"))
    defs = Counter()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defs[node.name] += 1
    readers = sources + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    words = Counter()
    for path in readers + [ROOT / "README.md"]:
        words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    # each def contributes one occurrence of its own name
    unused = sorted(name for name, n in defs.items() if words[name] <= n)
    assert unused == []
