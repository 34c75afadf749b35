"""The oldest supported Python (``requires-python``) must parse every file."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OLDEST = (3, 10)


def test_every_file_parses_under_the_oldest_supported_grammar():
    files = sorted(path for folder in ("src", "tests", "demos", "perfbench")
                   for path in (ROOT / folder).rglob("*.py"))
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(), filename=str(path),
                  feature_version=OLDEST)


def _unused_imports(path: Path) -> list[str]:
    """Names bound by an import in ``path`` that no expression reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(alias.asname or alias.name).split(".")[0]
                      for alias in node.names]
    return [name for name in bound if name not in used]


def test_every_imported_name_is_used():
    files = sorted(path for folder in ("src/sumkit", "tests", "demos")
                   for path in (ROOT / folder).rglob("*.py"))
    assert len(files) > 20
    unused = {str(path.relative_to(ROOT)): names for path in files
              if (names := _unused_imports(path))}
    assert unused == {}


def _named(tree: ast.AST) -> set[str]:
    """Every name ``tree`` reads: a bare name, an attribute, or a string
    constant (the tracer patches by string)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _registered(node: ast.AST) -> bool:
    """Whether ``@criterion(...)`` registers the definition ``node``."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "criterion" for d in node.decorator_list)


# no caller yet; ROADMAP items 2 and 5 give them one or remove them
AWAITING_CALLERS = {"catalog.p1_rel_branch", "catalog.t2s2_two_fiber"}


def test_every_module_level_definition_is_used():
    package = ROOT / "src/sumkit"
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(package.glob("*.py"))}
    used = set().union(*map(_named, modules.values()), *(
        _named(ast.parse(path.read_text(), filename=str(path)))
        for folder in ("demos", "perfbench")
        for path in (ROOT / folder).rglob("*.py")))
    defined = [f"{stem}.{node.name}" for stem, tree in modules.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not _registered(node)]
    assert len(defined) > 50
    dead = [name for name in defined
            if name.split(".")[1] not in used and name not in AWAITING_CALLERS]
    assert dead == []
