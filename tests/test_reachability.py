"""Every public module-level function and class of kpert is named
somewhere in the package, the scripts or the benchmarks outside its own
definition: code that only its own tests reach is deleted, not kept."""
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


def test_every_public_name_is_reached():
    files = sorted(PACKAGE.glob("*.py")) + \
        sorted((ROOT / "scripts").rglob("*.py")) + \
        sorted((ROOT / "benchmarks").rglob("*.py"))
    public, named = {}, set()
    for path in files:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = stmt.name if isinstance(
                stmt, (ast.FunctionDef, ast.ClassDef)) else None
            if own and path.parent == PACKAGE and not own.startswith("_"):
                public[own] = path.name
            named.update(n for n in _names(stmt) if n != own)
    unreached = sorted(f"{public[n]}:{n}" for n in public
                       if n not in named and n not in ALLOWED)
    assert not unreached, f"named only by their own definition: {unreached}"
    assert set(ALLOWED) <= set(public), "an allowed name no longer exists"
