"""Every public module-level function, class and ALL-CAPS constant of
kpert is named somewhere in the package, the scripts or the benchmarks
outside its own definition: code that only its own tests reach is
deleted, not kept."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kpert"

# name -> why it stays although nothing outside the tests names it
ALLOWED = {
    "corollary47_bound": "the Corollary 4.7 constant; ROADMAP item 9 gives "
                         "it a certify front door",
    "restrict": "the reference that tests compare MatrixSliceProblem with",
    "save_discrete_problem": "the writer of the discrete problem format, "
                             "which tests round-trip",
}


def _names(node):
    """Identifiers a statement mentions: names, attributes, imports and
    string constants that spell an identifier (getattr-style lookups)."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.rsplit(".", 1)[-1]
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and n.value.isidentifier():
            yield n.value


def _defined(stmt):
    """Public names a module-level statement defines: a function, a class
    or ALL-CAPS constants (NAME = ... or NAME: type = ...)."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = {stmt.name}
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) \
            else [stmt.target]
        names = {t.id for t in targets
                 if isinstance(t, ast.Name) and t.id.isupper()}
    else:
        names = set()
    return {n for n in names if not n.startswith("_")}


def test_every_public_name_is_reached():
    files = sorted(PACKAGE.glob("*.py")) + \
        sorted((ROOT / "scripts").rglob("*.py")) + \
        sorted((ROOT / "benchmarks").rglob("*.py"))
    public, named = {}, set()
    for path in files:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = _defined(stmt)
            if path.parent == PACKAGE:
                public.update(dict.fromkeys(own, path.name))
            named.update(n for n in _names(stmt) if n not in own)
    unreached = sorted(f"{public[n]}:{n}" for n in public
                       if n not in named and n not in ALLOWED)
    assert not unreached, f"named only by their own definition: {unreached}"
    assert set(ALLOWED) <= set(public), "an allowed name no longer exists"
