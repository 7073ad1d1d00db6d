"""Each public function and class of chromint has a caller outside its own
unit test: its name is loaded somewhere in src/, scripts/ or perfbench/.
Each private one is read in src/, so a helper a refactor orphans fails here.
So does an import or a module-level constant that nothing reads."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def trees(*dirs: str):
    for top in dirs:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def reads(tree: ast.AST) -> set[str]:
    # a name counts as used where it is read (a Name or an Attribute in
    # load context), not where it is imported or spelled in a string
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(getattr(node, "ctx", None), ast.Load):
            if isinstance(node, ast.Name):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    return loaded


def loaded_names(*dirs: str) -> set[str]:
    return set().union(*(reads(tree) for _, tree in trees(*dirs)))


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


def test_every_import_and_constant_is_read():
    # an imported name is read in its own module, or, re-exported, read
    # through that module (erasure.DetectorSetting); a constant anywhere
    everywhere = ("src", "scripts", "perfbench")
    through = {(node.value.id, node.attr) for _, tree in trees(*everywhere)
               for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and isinstance(node.ctx, ast.Load)}
    unread = []
    for path, tree in trees("src/chromint"):
        read = reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                unread += [f"{path.stem} imports {name}" for name in
                           (alias.asname or alias.name.partition(".")[0]
                            for alias in node.names)
                           if name not in read and (path.stem, name) not in through]
    assert unread == []
    loaded = loaded_names(*everywhere)
    constants = [(path.stem, target.id) for path, tree in trees("src/chromint")
                 for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for target in (node.targets if isinstance(node, ast.Assign)
                                else [node.target])
                 if isinstance(target, ast.Name) and not target.id.endswith("__")]
    assert constants
    assert [f"{module}.{name}" for module, name in constants if name not in loaded] == []
