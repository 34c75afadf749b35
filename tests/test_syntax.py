"""The oldest supported Python (``requires-python``) must parse every file."""

import ast
from pathlib import Path

import pytest

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


# no caller yet; ROADMAP items 2 and 5 give them one or remove them, and
# the change that does drops the name here
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
    dead = {name for name in defined if name.split(".")[1] not in used}
    assert dead - AWAITING_CALLERS == set()
    # an exemption whose definition gained a caller, or is gone, is stale
    assert AWAITING_CALLERS - dead == set()


# the modules that may import sumkit.oracles: the oracles themselves, the
# checks that compare the engine with them, and the CLI front end
ORACLE_USERS = {"oracles", "checks", "cli"}
# an engine module that still imports an oracle; ROADMAP item 7's elliptic
# half removes the import, and the change that does drops the name here
AWAITING_OWN_ROUTE = {"elliptic"}


def _imports_oracles(tree: ast.AST) -> bool:
    """Whether ``tree`` imports ``sumkit.oracles`` or a name from it, by an
    absolute or a package-relative import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[:2] == ["sumkit", "oracles"]
                   for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            path = node.module.split(".") if node.module else []
            if not node.level:
                if path[:1] != ["sumkit"]:
                    continue
                path = path[1:]
            if path[:1] == ["oracles"] or (not path and any(
                    alias.name == "oracles" for alias in node.names)):
                return True
    return False


@pytest.mark.parametrize("source, imports", [
    ("from sumkit.oracles import divisor_sum", True),
    ("from sumkit import catalog, oracles", True),
    ("import sumkit.oracles as o", True),
    ("from . import oracles", True),
    ("from .oracles import branch_count_rh", True),
    ("from sumkit import series", False),
    ("from sumkit.series import Series", False),
    ("import sumkit", False),
    ("from sumkitx import oracles", False),
    ("from .contacts import partitions", False),
])
def test_oracle_imports_are_recognized(source, imports):
    assert _imports_oracles(ast.parse(source)) is imports


def test_the_engine_does_not_import_the_oracles():
    package = ROOT / "src/sumkit"
    importers = {path.stem for path in sorted(package.glob("*.py"))
                 if _imports_oracles(ast.parse(path.read_text(),
                                               filename=str(path)))}
    assert importers - ORACLE_USERS - AWAITING_OWN_ROUTE == set()
    # an exemption whose module no longer imports the oracles is stale
    assert AWAITING_OWN_ROUTE - importers == set()


# Each ContactMultiset and each RelKey is the one live object of its value,
# and only the two functions that write the live tables build one; a raw
# __new__ anywhere else could mint a second object for a value, which would
# hash apart.
LIVE_TYPES = {"ContactMultiset", "RelKey"}
LIVE_CONSTRUCTORS = {"contacts._live_multiset", "gluing._live_key"}


def _raw_new(call: ast.Call, in_live_class: bool) -> bool:
    """Whether ``call`` is ``tuple.__new__``, ``object.__new__`` or
    ``super().__new__`` on a live type: named, or as ``cls`` or
    ``type(...)`` inside a live class."""
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr == "__new__"
            and call.args):
        return False
    owner = func.value
    if not ((isinstance(owner, ast.Name) and owner.id in ("tuple", "object"))
            or (isinstance(owner, ast.Call) and isinstance(owner.func, ast.Name)
                and owner.func.id == "super")):
        return False
    first = call.args[0]
    if isinstance(first, ast.Name) and first.id in LIVE_TYPES:
        return True
    return in_live_class and (
        (isinstance(first, ast.Name) and first.id == "cls")
        or (isinstance(first, ast.Call) and isinstance(first.func, ast.Name)
            and first.func.id == "type"))


def _raw_live_news(tree: ast.AST, module: str) -> list[str]:
    """``module.scope:line`` of each raw ``__new__`` of a live type in
    ``tree`` outside the two live constructors, the writers of the live
    tables."""
    found = []

    def visit(node, scope, in_live_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name], child.name in LIVE_TYPES)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name], in_live_class)
                continue
            if isinstance(child, ast.Call) and _raw_new(child, in_live_class):
                where = ".".join([module] + scope)
                if where not in LIVE_CONSTRUCTORS:
                    found.append(f"{where}:{child.lineno}")
            visit(child, scope, in_live_class)

    visit(tree, [], False)
    return found


@pytest.mark.parametrize("module, source, found", [
    ("contacts", "def _live_multiset(items):\n"
     "    return tuple.__new__(ContactMultiset, items)", []),
    ("contacts", "def merge(a):\n    return tuple.__new__(ContactMultiset, a)",
     ["contacts.merge:2"]),
    ("gluing", "class RelKey:\n    def __new__(cls):\n"
     "        object.__new__(cls)", ["gluing.RelKey.__new__:3"]),
    ("gluing", "class RelKey:\n    @classmethod\n    def make(cls):\n"
     "        return object.__new__(cls)", ["gluing.RelKey.make:4"]),
    ("gluing", "class RelKey:\n    def copy(self):\n"
     "        return super().__new__(type(self))", ["gluing.RelKey.copy:3"]),
    ("series", "x = object.__new__(RelKey)", ["series:1"]),
    ("series", "class Table:\n    def _trusted(cls):\n"
     "        object.__new__(cls)", []),
    ("series", "y = tuple.__new__(tuple, ())", []),
    ("gluing", "def _live_key(fields):\n    return object.__new__(RelKey)",
     []),
])
def test_raw_live_news_are_recognized(module, source, found):
    assert _raw_live_news(ast.parse(source), module) == found


def test_only_the_live_constructors_build_live_objects():
    package = ROOT / "src/sumkit"
    assert [where for path in sorted(package.glob("*.py"))
            for where in _raw_live_news(
                ast.parse(path.read_text(), filename=str(path)),
                path.stem)] == []
