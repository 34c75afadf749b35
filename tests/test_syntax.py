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
    # the package __init__ imports only to re-export
    files = sorted(path for folder in ("src/sumkit", "tests", "demos")
                   for path in (ROOT / folder).rglob("*.py")
                   if path != ROOT / "src/sumkit/__init__.py")
    assert len(files) > 20
    unused = {str(path.relative_to(ROOT)): names for path in files
              if (names := _unused_imports(path))}
    assert unused == {}
