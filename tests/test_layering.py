"""Layering guard over the package source: one owner per format, one
representation per channel, and no code that nothing runs.

Only exact.py may touch ExactMatrix internals (the numerators `_num`, the
denominator `_den` and the raw constructor `_raw`), and no module reads a
`.matrix` attribute: a channel carries its unitary as a quaternion pair and
builds a matrix with ChannelElement.operator where one is needed.  Only
freerot.py defines the quaternion product `hamilton` and the basis
`UNIT_QUATERNIONS` it is read off.  The test oracles stay off the matrix
internals and off the kernel product `_matmul_int`, so they share no code
with what they check.

Every non-dunder function, method and class in the package must be reached
from a module-level statement or a `[project.scripts]` entry point.
Test-only helpers belong in tests/oracles.py.  The guard matches names, so
it does not see operators: a dunder is never reported.  Nor does it see
through a name that two definitions share, as a load of either reaches both,
so the shared names are pinned.  The package `__init__` binds only
`__version__`: a name has one import path, its module.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "freeops").glob("*.py"))
INTERNALS = re.compile(r"\._(?:num|den|raw)\b")
KERNEL = re.compile(r"\._(?:num|den|raw)\b|\b_matmul_int\b")
MATRIX_ATTRIBUTE = re.compile(r"\.matrix\b")
# exact.py owns the ExactMatrix representation.
NOT_EXACT = [p for p in SOURCES if p.name != "exact.py"]
ORACLES = [ROOT / "tests" / "oracles.py", ROOT / "tests" / "corpus.py"]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# freerot.py owns the quaternion format.
QUATERNION_FORMAT = {"hamilton", "UNIT_QUATERNIONS"}


def offending_lines(path, pattern):
    return [
        f"{path.name}:{n}: {line.strip()}"
        for n, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]


def test_sources_found():
    assert "exact.py" in {p.name for p in SOURCES} and len(NOT_EXACT) == len(SOURCES) - 1


@pytest.mark.parametrize("path", NOT_EXACT, ids=lambda p: p.name)
def test_exact_matrix_internals_stay_in_exact(path):
    assert offending_lines(path, INTERNALS) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_matrix_attribute(path):
    assert offending_lines(path, MATRIX_ATTRIBUTE) == []


@pytest.mark.parametrize("path", ORACLES, ids=lambda p: p.name)
def test_oracles_stay_off_kernel_internals(path):
    assert offending_lines(path, KERNEL) == []


def defined_names(text):
    """Every name a module binds by a definition or an assignment, at any depth."""
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DEFINITIONS):
            yield node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_quaternion_format_has_one_owner(path):
    defined = QUATERNION_FORMAT & set(defined_names(path.read_text()))
    assert defined == (QUATERNION_FORMAT if path.name == "freerot.py" else set())


def bound_names(text):
    """Every name a module binds: definitions, assignments and imports."""
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from ((a.asname or a.name).split(".")[0] for a in node.names)
    yield from defined_names(text)


def test_package_init_binds_only_the_version():
    reexport = "from .exact import ExactMatrix as M\nimport freeops.cli\n__version__ = '0'\n"
    assert set(bound_names(reexport)) == {"M", "freeops", "__version__"}
    init = ROOT / "src" / "freeops" / "__init__.py"
    assert set(bound_names(init.read_text())) == {"__version__"}


# --- reachability ---------------------------------------------------------------


def _is_dunder(name):
    return len(name) > 4 and name.startswith("__") and name.endswith("__")


def _loaded_names(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            yield n.attr


def unreached(sources, entry_points=()):
    """Sorted "module.qualname" of every non-dunder function, method and
    class in `sources` (module name -> source text) that nothing reaches.

    A definition is reached when its name is loaded, as a name or an
    attribute, at module level or inside a definition that is itself
    reached, iterated to a fixed point; names are matched, not bindings.
    Decorators, defaults and base classes count where the definition
    stands, and a dunder's body counts as part of its enclosing class.
    The `entry_points` count as reached; the names `__init__` imports do
    not, since importing a name does not load it.
    """
    definitions = []  # (label, name, names loaded in its body)

    def visit(nodes, names, prefix):
        for node in nodes:
            if not isinstance(node, DEFINITIONS):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    names.update(_loaded_names(node))
                else:
                    visit(ast.iter_child_nodes(node), names, prefix)
                continue
            header = list(node.decorator_list)
            if isinstance(node, ast.ClassDef):
                header += node.bases + [k.value for k in node.keywords]
            else:
                header += node.args.defaults + [d for d in node.args.kw_defaults if d is not None]
            for part in header:
                names.update(_loaded_names(part))
            body = names
            if not _is_dunder(node.name):
                body = set()
                definitions.append((prefix + node.name, node.name, body))
            visit(node.body, body, f"{prefix}{node.name}.")

    reached = set(entry_points)
    for module, text in sources.items():
        visit(ast.parse(text).body, reached, f"{module}.")
    pending = definitions
    while True:
        hit = [d for d in pending if d[1] in reached]
        if not hit:
            return sorted(label for label, _, _ in pending)
        pending = [d for d in pending if d[1] not in reached]
        for _, _, names in hit:
            reached |= names


def script_entry_points():
    """Function names of the `[project.scripts]` table in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    table = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    return re.findall(r'^\s*[\w.-]+\s*=\s*"[\w.]+:(\w+)"', table.group(1), re.M)


def test_every_source_definition_is_reached():
    assert script_entry_points() == ["entry"]
    sources = {p.stem: p.read_text() for p in SOURCES}
    assert unreached(sources, script_entry_points()) == []


# Names that more than one module or class defines; the reachability guard
# counts a load of any of them as reaching every one.  entry: cli.entry and
# ExactMatrix.entry; to_dot: ReachGraph and QuotientDAG; to_json_dict:
# ExactMatrix, GeneratorSet, QuotientDAG, MonotoneTable and MonotoneFamily.
SHARED_NAMES = {"entry", "to_dot", "to_json_dict"}


def shared_names(sources):
    """The non-dunder names that two or more owners define: a module its
    module-level functions and classes, a class its methods and properties."""
    owners = {}
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if not isinstance(node, DEFINITIONS):
                continue
            owners.setdefault(node.name, set()).add(module)
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, DEFINITIONS):
                        owners.setdefault(member.name, set()).add(f"{module}.{node.name}")
    return {name for name, where in owners.items() if len(where) > 1 and not _is_dunder(name)}


def test_shared_definition_names_are_pinned():
    sources = {p.stem: p.read_text() for p in SOURCES}
    assert shared_names(sources) == SHARED_NAMES


def test_shared_names_catch_a_new_method_of_an_existing_name():
    """A `size` method on ReachGraph would share QuotientDAG.size's name."""
    sources = {p.stem: p.read_text() for p in SOURCES}
    anchor = "    def named(self)"
    assert sources["resourcegraph"].count(anchor) == 1
    sources["resourcegraph"] = sources["resourcegraph"].replace(
        anchor, "    def size(self):\n        return len(self.nodes)\n\n" + anchor
    )
    assert shared_names(sources) == SHARED_NAMES | {"size"}
    two = {"a": "def f():\n    pass\n", "b": "class K:\n    def f(self):\n        pass\n"}
    assert shared_names(two) == {"f"}
    assert shared_names({"a": two["a"], "b": "class K:\n    def __init__(self):\n        pass\n"}) == set()


def test_guard_flags_an_uncalled_function():
    sources = {"m": "def used():\n    pass\n\ndef unused():\n    pass\n\nused()\n"}
    assert unreached(sources) == ["m.unused"]


def test_guard_flags_a_function_called_only_from_an_uncalled_one():
    sources = {
        "m": "def root():\n    helper()\n\ndef helper():\n    pass\n\n"
        "class K:\n    def method(self):\n        return helper()\n",
    }
    assert unreached(sources) == ["m.K", "m.K.method", "m.helper", "m.root"]
    sources["m"] += "\nroot()\n"
    assert unreached(sources) == ["m.K", "m.K.method"]


def test_guard_counts_entry_points_not_init_exports():
    sources = {
        "__init__": "from .m import Exported\n",
        "m": "class Exported:\n    def method(self):\n        pass\n\n"
        "def entry():\n    return Exported()\n",
    }
    # An export alone reaches nothing; the entry point reaches what it calls.
    assert unreached(sources) == ["m.Exported", "m.Exported.method", "m.entry"]
    assert unreached(sources, ["entry"]) == ["m.Exported.method"]


def test_guard_skips_dunders_and_reads_their_bodies():
    sources = {
        "m": "K()\n\nclass K:\n    def __post_init__(self):\n        self.check()\n\n"
        "    def check(self):\n        pass\n\n"
        "    def __repr__(self):\n        return 'K'\n",
    }
    assert unreached(sources) == []
    # Unreached class: its dunder is not reported, and what it calls is not reached.
    assert unreached({"m": sources["m"].replace("K()\n", "")}) == ["m.K", "m.K.check"]
