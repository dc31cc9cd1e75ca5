"""Every public module-level function, class and ALL-CAPS constant of
kpert is named somewhere in the package, the scripts or the benchmarks
outside its own definition, and so is every public method; every
defaulted parameter is passed by some call there.  Code that only its own
tests reach is deleted, not kept, and a parameter that no caller sets is
a constant."""
import ast
import fnmatch
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kpert"

# name -> why it stays although nothing outside the tests names it
ALLOWED = {
    "corollary47_bound": "the Corollary 4.7 constant; ROADMAP item 11 gives "
                         "it a certify front door",
    "restrict": "the reference that tests compare MatrixSliceProblem with",
    "save_discrete_problem": "the writer of the discrete problem format, "
                             "which tests round-trip",
}

# Class.method -> why it stays although only tests name it
ALLOWED_METHODS = {
    "MultiAtomOperator.iterate_ratio_at": "one iterate of the atom "
                                          "operator, which tests sum "
                                          "against series_at",
}

# function(parameter) pattern (Class(...) for __init__, Class.method(...)
# for a method) -> why it keeps its default although no call passes it
ALLOWED_PARAMETERS = {
    "criterion_*(seed)": "run_all passes it to every criterion as fn(seed)",
    "save_discrete_problem(f)": "the optional control vector of the "
                                "discrete problem format",
    "corollary47_bound(n_samples)": "see corollary47_bound in ALLOWED",
    "corollary47_bound(seed)": "see corollary47_bound in ALLOWED",
    "corollary47_bound(quad_tol)": "see corollary47_bound in ALLOWED",
    "weyl_half_derivative(form)": "the difference form, the reference "
                                  "that tests compare the derivative "
                                  "form with",
}


def _files():
    return sorted(PACKAGE.glob("*.py")) + \
        sorted((ROOT / "scripts").rglob("*.py")) + \
        sorted((ROOT / "benchmarks").rglob("*.py"))


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


def _functions(tree):
    """(node, key, callee, first) for every function of a module: key
    names it as the allow-lists do, callee is the name a call uses (the
    class for __init__) and first the index of the first argument a call
    passes (1 past a method's self or cls)."""
    methods = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    methods[item] = node.name
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        cls = methods.get(node)
        if cls is None:
            yield node, node.name, node.name, 0
        elif node.name == "__init__":
            yield node, cls, cls, 1
        else:
            yield node, f"{cls}.{node.name}", node.name, 1


def _passed(trees):
    """callee name -> (most positional arguments any call passes, the
    keywords any call passes); *args counts as every position."""
    out = {}
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            name = f.id if isinstance(f, ast.Name) else \
                f.attr if isinstance(f, ast.Attribute) else None
            if name is None:
                continue
            npos = float("inf") if any(isinstance(a, ast.Starred)
                                       for a in call.args) else len(call.args)
            most, kws = out.setdefault(name, (0, set()))
            kws.update(k.arg for k in call.keywords if k.arg)
            out[name] = (max(most, npos), kws)
    return out


def test_every_public_name_is_reached():
    public, named = {}, set()
    for path in _files():
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = _defined(stmt)
            if path.parent == PACKAGE:
                public.update(dict.fromkeys(own, path.name))
            named.update(n for n in _names(stmt) if n not in own)
    unreached = sorted(f"{public[n]}:{n}" for n in public
                       if n not in named and n not in ALLOWED)
    assert not unreached, f"named only by their own definition: {unreached}"
    assert set(ALLOWED) <= set(public), "an allowed name no longer exists"


def test_every_public_method_is_named():
    named, methods = Counter(), {}
    for path in _files():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named.update(_names(tree))
        if path.parent != PACKAGE:
            continue
        for fn, key, callee, _ in _functions(tree):
            if "." in key and not callee.startswith("_"):
                methods[key] = (callee, Counter(_names(fn)))
    unnamed = sorted(k for k, (callee, own) in methods.items()
                     if named[callee] == own[callee]
                     and k not in ALLOWED_METHODS)
    assert not unnamed, f"methods named only by tests: {unnamed}"
    assert set(ALLOWED_METHODS) <= set(methods), \
        "an allowed method no longer exists"


def test_every_defaulted_parameter_is_passed():
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in _files()}
    passed = _passed(trees.values())
    defaulted, unpassed = [], []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for fn, key, callee, first in _functions(tree):
            a = fn.args
            pos = a.posonlyargs + a.args
            most, kws = passed.get(callee, (0, set()))
            params = [(arg, i - first) for i, arg in enumerate(pos)
                      if i >= len(pos) - len(a.defaults)]
            params += [(arg, float("inf")) for arg, d   # keyword-only
                       in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            for arg, at in params:
                if arg.arg.startswith("_"):     # closure bindings
                    continue
                name = f"{key}({arg.arg})"
                defaulted.append(name)
                if arg.arg in kws or most > at:
                    continue
                if not any(fnmatch.fnmatchcase(name, pattern)
                           for pattern in ALLOWED_PARAMETERS):
                    unpassed.append(f"{path.name}:{name}")
    assert not unpassed, f"defaulted parameters no call passes: {unpassed}"
    stale = [pattern for pattern in ALLOWED_PARAMETERS
             if not fnmatch.filter(defaulted, pattern)]
    assert not stale, f"allowed parameters that no longer exist: {stale}"
