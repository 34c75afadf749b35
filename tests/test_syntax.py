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
