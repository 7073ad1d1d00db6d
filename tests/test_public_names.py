"""Each public function and class of chromint has a caller outside its own
unit test: its name is loaded somewhere in src/, scripts/ or perfbench/."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def trees(*dirs: str):
    for top in dirs:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def test_every_public_name_has_a_caller():
    # a name counts as used where it is read (a Name or an Attribute in
    # load context), not where it is imported or spelled in a string
    loaded = set()
    for _, tree in trees("src", "scripts", "perfbench"):
        for node in ast.walk(tree):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                if isinstance(node, ast.Name):
                    loaded.add(node.id)
                elif isinstance(node, ast.Attribute):
                    loaded.add(node.attr)
    public = [(path.stem, node.name) for path, tree in trees("src/chromint")
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    assert public
    assert [f"{module}.{name}" for module, name in public if name not in loaded] == []
