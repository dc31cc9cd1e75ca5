"""Every public module-level function, class and ALL-CAPS constant of
kpert is named somewhere in the package or the benchmarks outside its
own definition, and so is every public method; every
defaulted parameter, and every defaulted field of a public frozen
dataclass, is passed by some call there, and no defaulted parameter
gets the same literal from every call.  Code that only its own tests
reach is deleted, not kept, and a parameter or field that no caller sets,
or that every caller sets to one value, is a constant."""
import ast
import fnmatch
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kpert"

# name -> why it stays although nothing outside the tests names it
ALLOWED = {
    "restrict": "the reference that tests compare MatrixSliceProblem with",
    "save_discrete_problem": "the writer of the discrete problem format, "
                             "which tests round-trip",
}

# Class.method -> why it stays although only tests name it
ALLOWED_METHODS = {}

# function(parameter) pattern (Class(...) for __init__, Class.method(...)
# for a method) -> why it keeps its default although no call passes it, or
# every call passes the same literal
ALLOWED_PARAMETERS = {
    "criterion_*(seed)": "run_all passes it to every criterion as fn(seed)",
    "save_discrete_problem(f)": "the optional control vector of the "
                                "discrete problem format",
    "check_geometric_decay(n_max)": "benchmarks/child.py passes it by "
                                    "keyword, as criterion 2 does",
    "weyl_half_derivative(form)": "the difference form, the reference "
                                  "that tests compare the derivative "
                                  "form with",
}


def _files():
    return sorted(PACKAGE.glob("*.py")) + \
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


def _defaulted(fn, first):
    """(name, position a call passes it at, default) for every defaulted
    parameter of fn but closure bindings (a leading underscore);
    keyword-only parameters sit at position inf."""
    a = fn.args
    pos = a.posonlyargs + a.args
    skip = len(pos) - len(a.defaults)
    params = [(arg, i - first, d) for i, (arg, d)
              in enumerate(zip(pos[skip:], a.defaults), start=skip)]
    params += [(arg, float("inf"), d)
               for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return [(arg.arg, at, d) for arg, at, d in params
            if not arg.arg.startswith("_")]


def _allowed(name):
    return any(fnmatch.fnmatchcase(name, pattern)
               for pattern in ALLOWED_PARAMETERS)


def _calls(trees):
    """callee name -> every call that names it, as f(...) or x.f(...)."""
    out = defaultdict(list)
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            name = f.id if isinstance(f, ast.Name) else \
                f.attr if isinstance(f, ast.Attribute) else None
            if name is not None:
                out[name].append(call)
    return out


def _passed(trees):
    """callee name -> (most positional arguments any call passes, the
    keywords any call passes); *args counts as every position."""
    out = {}
    for name, calls in _calls(trees).items():
        most = max(float("inf") if any(isinstance(a, ast.Starred)
                                       for a in call.args)
                   else len(call.args) for call in calls)
        out[name] = (most, {k.arg for call in calls
                            for k in call.keywords if k.arg})
    return out


def _argument(call, name, at, default):
    """The expression a call binds to the parameter (its default when the
    call omits it); None where *args or **kwargs hide it."""
    kws = {k.arg: k.value for k in call.keywords}
    if name in kws:
        return kws[name]
    if any(isinstance(a, ast.Starred) for a in call.args):
        return None
    if at < len(call.args):
        return call.args[at]
    return None if None in kws else default


def _literal(node):
    """repr of the literal an expression spells; None for any other
    expression."""
    try:
        return repr(ast.literal_eval(node)) if node is not None else None
    except (ValueError, TypeError, SyntaxError):
        return None


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
            most, kws = passed.get(callee, (0, set()))
            for arg, at, _ in _defaulted(fn, first):
                name = f"{key}({arg})"
                defaulted.append(name)
                if arg not in kws and not most > at and not _allowed(name):
                    unpassed.append(f"{path.name}:{name}")
    assert not unpassed, f"defaulted parameters no call passes: {unpassed}"
    stale = [pattern for pattern in ALLOWED_PARAMETERS
             if not fnmatch.filter(defaulted, pattern)]
    assert not stale, f"allowed parameters that no longer exist: {stale}"


def test_no_defaulted_parameter_takes_one_value():
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in _files()}
    calls = _calls(trees.values())
    one_valued = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for fn, key, callee, first in _functions(tree):
            for arg, at, default in _defaulted(fn, first):
                name = f"{key}({arg})"
                values = {_literal(_argument(call, arg, at, default))
                          for call in calls.get(callee, ())}
                if len(values) == 1 and None not in values \
                        and not _allowed(name):
                    one_valued.append(f"{path.name}:{name} = {values.pop()}")
    assert not one_valued, \
        f"defaulted parameters every call sets to one literal: {one_valued}"


def _frozen_dataclasses(tree):
    """Public classes of a module decorated @dataclass(frozen=True)."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_") \
                and any(isinstance(d, ast.Call)
                        and getattr(d.func, "id", None) == "dataclass"
                        and any(k.arg == "frozen"
                                and getattr(k.value, "value", False)
                                for k in d.keywords)
                        for d in node.decorator_list):
            yield node


def test_every_defaulted_dataclass_field_is_passed():
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in _files()}
    passed = _passed(trees.values())
    unpassed = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for cls in _frozen_dataclasses(tree):
            most, kws = passed.get(cls.name, (0, set()))
            fields = [stmt for stmt in cls.body
                      if isinstance(stmt, ast.AnnAssign)
                      and isinstance(stmt.target, ast.Name)]
            for at, stmt in enumerate(fields):
                name = stmt.target.id
                if stmt.value is not None and name not in kws \
                        and not most > at:
                    unpassed.append(f"{path.name}:{cls.name}.{name}")
    assert not unpassed, f"defaulted fields no call passes: {unpassed}"
