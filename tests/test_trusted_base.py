"""The trusted base: the definitions a certificate's verdict rests on.

A certificate is only as good as the code that builds it, the code that
writes it, and the rule that reads its claim.  This test finds, with
``ast`` alone, every module-level function and class of the package
reachable by name from those roots, and pins the sorted list.  The walk
over-approximates, which is the safe side: a name counts wherever it
occurs in a reached definition, also where a local variable shadows it,
and a module-level assignment is walked through (``int_repr =
_int_repr`` reaches ``_int_repr``) though only functions and classes are
listed.  Imports from the package are followed into the module they
name, and a name imported inside a reached definition is reached whether
or not it is read.

A definition that enters or leaves the list is a stated change: edit
``TRUSTED_BASE`` in the same change and say why.  ``TRUSTED_LINES`` pins
the base's size in code lines, which leave out blank lines, comment-only
lines and docstrings, so that a change reports how the base grew or
shrank from this test.  ``PACKAGE_LINES`` pins every module of the
package by the same rule, module docstrings left out too.
"""

import ast
from pathlib import Path

import modiag

PACKAGE = Path(modiag.__file__).resolve().parent

ROOTS = (
    ("grading", "replay_proof"),
    ("grading", "certificate_to_json"),
    ("grading", "certificate_to_text"),
    ("grading", "claim"),
)

TRUSTED_BASE = """
    diagonals.Ambient diagonals._Record diagonals._as_int diagonals._as_ints
    diagonals._int_repr diagonals._live_images diagonals._orbit_signs
    diagonals._require_in diagonals.normalize_twist grading.Certificate
    grading.PigeonholeOutcome grading.Step grading._cohomology_step
    grading._formal_steps grading._grading_steps grading._is_survivor
    grading._iter_bounded grading._kunneth_survivors grading._rank
    grading._shadow_support grading._to_json grading.certificate_to_json
    grading.certificate_to_text grading.claim
    grading.prove_empty_pigeonhole grading.replay_proof
    grading.weight_from_eigenvalue
""".split()
TRUSTED_LINES = 362
PACKAGE_LINES = 939

# The oracle calculus and the command line: no verdict may rest on them.
UNTRUSTED = ("cycles", "exact", "cohomology", "cli")


class _Module:
    """The names one module binds at top level: its definitions and
    assignments, and what its imports from the package bind."""

    def __init__(self, path: Path):
        self.bound: dict[str, ast.AST] = {}
        self.imported: dict[str, tuple[str, str]] = {}
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.bound[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    self.bound.update((leaf.id, node) for leaf in ast.walk(target) if isinstance(leaf, ast.Name))
            elif isinstance(node, ast.ImportFrom):
                self.imported.update(_package_names(node))


def _package_names(node: ast.ImportFrom) -> dict[str, tuple[str, str]]:
    """What a ``from`` import of the package binds, relative or spelled
    ``modiag.x``: each local name with the package module and the name it
    comes from; ``from . import x`` binds the module x itself, as (x, "")."""
    if node.level:
        module = node.module
    elif node.module == "modiag" or (node.module or "").startswith("modiag."):
        module = node.module.partition(".")[2] or None
    else:
        return {}
    return {alias.asname or alias.name: (module, alias.name) if module else (alias.name, "") for alias in node.names}


def reachable(roots, package: Path = PACKAGE) -> list[str]:
    """The sorted ``module.name`` of every function and class of the modules
    in ``package`` reachable by name from ``roots``, (module, name) pairs."""
    modules: dict[str, _Module] = {}
    seen: set[tuple[str, str]] = set()
    todo = list(roots)
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        home, name = key
        module = modules.setdefault(home, _Module(package / f"{home}.py"))
        node = module.bound.get(name)
        if node is None:  # a name bound by an import, or a whole module
            if name in module.imported:
                todo.append(module.imported[name])
            continue
        leaves = list(ast.walk(node))
        names = dict(module.imported)
        for leaf in leaves:  # an import inside a definition is reached, and binds for all of it
            if isinstance(leaf, ast.ImportFrom):
                names.update(_package_names(leaf))
                todo.extend(_package_names(leaf).values())
        for leaf in leaves:
            if isinstance(leaf, ast.Name):
                if leaf.id in module.bound:
                    todo.append((home, leaf.id))
                if leaf.id in names:
                    todo.append(names[leaf.id])
            elif isinstance(leaf, ast.Attribute) and isinstance(leaf.value, ast.Name):
                target = names.get(leaf.value.id)
                if target and not target[1]:  # read from a package module imported whole
                    todo.append((target[0], leaf.attr))
    return sorted(
        f"{home}.{name}"
        for home, name in seen
        if isinstance(modules[home].bound.get(name), (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    )


def _docstring_lines(node: ast.AST) -> set[int]:
    """The line numbers of the docstrings of node and of every module, class
    and function inside it."""
    docs = set()
    for inner in ast.walk(node):
        scopes = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        if isinstance(inner, scopes) and ast.get_docstring(inner) is not None:
            docs.update(range(inner.body[0].lineno, inner.body[0].end_lineno + 1))
    return docs


def _count(lines: list[str], numbers: range, docs: set[int]) -> int:
    """The numbered lines that are neither blank, comment-only nor docstring."""
    count = 0
    for number in numbers:
        text = lines[number - 1].strip()
        count += bool(text) and not text.startswith("#") and number not in docs
    return count


def code_lines(names, package: Path = PACKAGE) -> int:
    """The code lines of the named definitions, ``module.name`` each: the
    lines each spans, less blank lines, comment-only lines and the lines
    of its own docstring and of every definition's docstring inside it."""
    count = 0
    for name in names:
        home, _, top = name.partition(".")
        path = package / f"{home}.py"
        node = _Module(path).bound[top]
        start = min([node.lineno] + [d.lineno for d in node.decorator_list])
        lines = path.read_text(encoding="utf-8").splitlines()
        count += _count(lines, range(start, node.end_lineno + 1), _docstring_lines(node))
    return count


def package_lines(package: Path = PACKAGE) -> int:
    """The code lines of every module of the package, by the rule of
    ``code_lines``, module docstrings left out too."""
    count = 0
    for path in package.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        count += _count(lines, range(1, len(lines) + 1), _docstring_lines(ast.parse(text)))
    return count


def test_trusted_base_is_pinned():
    base = reachable(ROOTS)
    assert base == TRUSTED_BASE
    assert not [name for name in base if name.split(".")[0] in UNTRUSTED]
    assert code_lines(base) == TRUSTED_LINES
    assert package_lines() == PACKAGE_LINES


def test_the_walk_follows_imports_and_assignments(tmp_path):
    # A module of its own, so that the walk is checked on every form it
    # follows and not only on the forms the package uses today.
    (tmp_path / "a.py").write_text(
        "from .b import f as g\n"
        "from . import c\n"
        "alias = g\n"
        "def root():\n"
        "    from modiag.d import h, unused_here\n"
        "    return alias, c.k, h\n"
        "def unused():\n"
        "    pass\n"
    )
    (tmp_path / "b.py").write_text("class f:\n    def m(self):\n        return helper()\ndef helper():\n    pass\n")
    (tmp_path / "c.py").write_text("def k():\n    pass\ndef other():\n    pass\n")
    (tmp_path / "d.py").write_text("def h():\n    pass\ndef unused_here():\n    pass\n")
    assert reachable([("a", "root")], tmp_path) == ["a.root", "b.f", "b.helper", "c.k", "d.h", "d.unused_here"]


def test_code_lines_leave_out_blanks_comments_and_docstrings(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""Module docstring."""\n'
        "import functools\n"
        "@functools.cache\n"
        "def f(x):\n"
        '    """One line,\n'
        '    and another."""\n'
        "\n"
        "    # a comment\n"
        "    return (x  # a trailing comment\n"
        '            + len("""not a docstring"""))\n'
        "class C:\n"
        '    """Class docstring."""\n'
        "    def m(self):\n"
        '        """Method docstring."""\n'
        "        return 1\n"
    )
    assert code_lines(["a.f"], tmp_path) == 4
    assert code_lines(["a.C"], tmp_path) == 3
    assert package_lines(tmp_path) == 1 + 4 + 3  # the import, f and C
