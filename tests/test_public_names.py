"""Each public function and class of chromint has a caller outside its own
unit test: its name is loaded somewhere in src/, scripts/ or perfbench/.
Each private one is read in src/, so a helper a refactor orphans fails here."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def trees(*dirs: str):
    for top in dirs:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def loaded_names(*dirs: str) -> set[str]:
    # a name counts as used where it is read (a Name or an Attribute in
    # load context), not where it is imported or spelled in a string
    loaded = set()
    for _, tree in trees(*dirs):
        for node in ast.walk(tree):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                if isinstance(node, ast.Name):
                    loaded.add(node.id)
                elif isinstance(node, ast.Attribute):
                    loaded.add(node.attr)
    return loaded


def test_every_public_name_has_a_caller():
    loaded = loaded_names("src", "scripts", "perfbench")
    public = [(path.stem, node.name) for path, tree in trees("src/chromint")
              for node in tree.body
              if isinstance(node, DEFINITIONS) and not node.name.startswith("_")]
    assert public
    assert [f"{module}.{name}" for module, name in public if name not in loaded] == []


def test_every_private_name_is_read_in_the_package():
    # module-level functions and classes and the methods of those classes;
    # dunder methods are called by the language, not by name
    loaded = loaded_names("src")
    private = [(path.stem, node.name) for path, tree in trees("src/chromint")
               for top in tree.body if isinstance(top, DEFINITIONS)
               for node in [top, *(top.body if isinstance(top, ast.ClassDef) else [])]
               if isinstance(node, DEFINITIONS)
               and node.name.startswith("_") and not node.name.endswith("__")]
    assert private
    assert [f"{module}.{name}" for module, name in private if name not in loaded] == []
