"""Layout rules of the library source, checked on its syntax tree: imports
sit at module level, no module imports scipy's integrate or optimize
packages (nor does a fresh interpreter that runs one trial of each regime
load them), and only the module that defines the model classes dispatches
on them; every other module calls the models' own methods. The model
classes share one `predict`. Every public top-level function and class has
a user besides its unit tests, and so has every defaulted parameter of a
public function or method and every field of a public dataclass. No module
imports `threading`: a sweep runs on the calling thread, and no library
state is shared across threads. Every name that a `from ... import` binds is
read by its module."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import roblaw

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "roblaw").glob("*.py"))
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"
#: the code whose calls give a defaulted parameter a user: the library, the
#: release criteria and the benchmark
CALLERS = [*SOURCES, ACCEPTANCE, *sorted((ROOT / "bench").rglob("*.py"))]
#: scipy packages no roblaw process loads: the library integrates with its
#: own Gauss-Legendre rule, and scipy.integrate would pull in scipy.optimize
BANNED_MODULES = ("scipy.integrate", "scipy.optimize")
MODEL_CLASSES = {"LinearModel", "KernelModel", "FeatureModel"}


def _functions(path):
    """(name, node) of every function and method in the module at path."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [(node.name, node) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _imported_modules(node):
    """The dotted names an import statement loads: each `import a.b`, and
    `m` and `m.name` for each name of a `from m import name`."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    if isinstance(node, ast.ImportFrom) and node.module and not node.level:
        return {node.module} | {f"{node.module}.{alias.name}" for alias in node.names}
    return set()


def _within(name, modules):
    return any(name == m or name.startswith(m + ".") for m in modules)


def _banned(name):
    return _within(name, BANNED_MODULES)


def _source_imports(modules):
    """'file:line imports name' for each import of one of modules, or of a
    submodule, in the library source."""
    return [f"{path.name}:{node.lineno} imports {name}"
            for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            for name in sorted(_imported_modules(node)) if _within(name, modules)]


def _checked_names(call):
    """The class names an `isinstance(obj, classes)` call tests against."""
    if not (isinstance(call.func, ast.Name) and call.func.id == "isinstance"
            and len(call.args) == 2):
        return set()
    classes = call.args[1]
    nodes = classes.elts if isinstance(classes, ast.Tuple) else [classes]
    return {node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            for node in nodes}


def _read_names(tree, skip=None):
    """Every name that tree reads, as a bare name or an attribute, outside
    the subtree `skip`."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _public_functions(tree):
    """(node, is_method) of each public top-level function and each public
    method of a public top-level class; a static method takes no self."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    yield fn, not any(getattr(d, "id", None) == "staticmethod"
                                      for d in fn.decorator_list)


def _defaulted(fn, is_method):
    """{name: index} of fn's parameters with a default, the index being the
    parameter's position among a call's arguments, None for keyword-only."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = {p.arg: i - is_method for i, p in enumerate(positional) if i >= first}
    out.update({p.arg: None for p, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None})
    return out


def _passes(call, name, index):
    """Whether call passes the parameter `name` at position `index`: by
    keyword, by position, through `**kwargs`, or through a `*args` that
    starts at or before it."""
    if any(k.arg in (None, name) for k in call.keywords):
        return True
    return index is not None and any(
        isinstance(arg, ast.Starred) or i == index for i, arg in enumerate(call.args[:index + 1]))


def test_sources_are_found():
    assert {"fit.py", "kernels.py", "sobolev.py", "sweep.py"} <= {p.name for p in SOURCES}


def test_every_public_definition_has_a_user():
    """Each public top-level function or class is read by another module
    (re-exports in __init__ aside), by code of its own module outside its
    definition, or by an acceptance test."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    used_by_acceptance = _read_names(ast.parse(ACCEPTANCE.read_text(encoding="utf-8")))
    found = []
    for module, tree in trees.items():
        used_elsewhere = used_by_acceptance.union(
            *(_read_names(t) for m, t in trees.items() if m not in (module, "__init__.py")))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and module != "__init__.py"
                    and not node.name.startswith("_") and node.name not in used_elsewhere
                    and node.name not in _read_names(tree, skip=node)):
                found.append(f"{module}:{node.name}")
    assert found == []


def test_every_defaulted_parameter_is_passed():
    """Each defaulted parameter of a public function or method is passed by
    some call of that name in the library, the release criteria or the
    benchmark; calls are matched by name alone. `cli.main(argv)` is exempt:
    its default reads the command line."""
    calls = {}
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                calls.setdefault(getattr(func, "id", getattr(func, "attr", None)), []).append(node)
    found = [f"{path.name}:{fn.name}({name})"
             for path in SOURCES
             for fn, is_method in _public_functions(ast.parse(path.read_text(encoding="utf-8")))
             if (path.name, fn.name) != ("cli.py", "main")
             for name, index in _defaulted(fn, is_method).items()
             if not any(_passes(call, name, index) for call in calls.get(fn.name, []))]
    assert found == []


def _dataclass_fields(tree):
    """(class name, field names, whether the class reads them all itself) of
    each public top-level dataclass; a class reads them all when one of its
    comprehensions runs over every `fields(self)`, as a CSV row does."""
    for node in tree.body:
        if (isinstance(node, ast.ClassDef) and not node.name.startswith("_")
                and any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
                        for d in node.decorator_list)):
            names = [s.target.id for s in node.body
                     if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
            reads_all = any(
                isinstance(gen.iter, ast.Call) and getattr(gen.iter.func, "id", None) == "fields"
                and [getattr(a, "id", None) for a in gen.iter.args] == ["self"] and not gen.ifs
                for gen in ast.walk(node) if isinstance(gen, ast.comprehension))
            yield node.name, names, reads_all


def test_every_dataclass_field_is_read():
    """Each field of a public dataclass is read as an attribute by the
    library, the release criteria or the benchmark, or by its own class
    through `fields(self)`."""
    read = {node.attr for path in CALLERS
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    found = [f"{path.name}:{name}.{field}"
             for path in SOURCES
             for name, names, reads_all in _dataclass_fields(
                 ast.parse(path.read_text(encoding="utf-8")))
             if not reads_all
             for field in names if field not in read]
    assert found == []


def test_no_import_inside_a_function():
    found = [f"{path.name}:{node.lineno} in {name}"
             for path in SOURCES for name, fn in _functions(path)
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def _unread_imports(path):
    """'file:line name' for each name that a `from ... import` binds in the
    module at path and that the module never reads as a bare name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{node.lineno} {alias.asname or alias.name}"
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names if (alias.asname or alias.name) not in read]


def test_every_from_import_is_read(tmp_path):
    """Each name bound by a `from ... import` in the library or its tests is
    read in its own module. `__init__.py` is exempt, since its imports are
    the package's exports, and so are `import a.b` statements, which load
    submodules. A planted module shows that the check sees unread names."""
    planted = tmp_path / "planted.py"
    planted.write_text("from math import pi, tau\nfrom os import path as p\nprint(tau)\n")
    assert _unread_imports(planted) == ["planted.py:1 pi", "planted.py:2 p"]
    found = [entry for path in [*SOURCES, *sorted(Path(__file__).parent.glob("*.py"))]
             if path.name != "__init__.py" for entry in _unread_imports(path)]
    assert found == []


def test_no_type_dispatch_on_models_outside_fit():
    found = [f"{path.name}:{node.lineno} in {name}"
             for path in SOURCES if path.name != "fit.py"
             for name, fn in _functions(path)
             for node in ast.walk(fn)
             if isinstance(node, ast.Call) and _checked_names(node) & MODEL_CLASSES]
    assert found == []


def test_model_classes_share_one_predict():
    assert [name for path in SOURCES for name, _ in _functions(path)].count("predict") == 1
    assert len({getattr(roblaw.fit, name).predict for name in MODEL_CLASSES}) == 1


def test_no_import_of_scipy_integrate_or_optimize():
    assert _source_imports(BANNED_MODULES) == []


def test_no_module_imports_threading():
    assert _source_imports(("threading",)) == []


def test_banned_import_check_sees_every_spelling():
    spellings = ["import scipy.integrate", "from scipy.integrate import quad",
                 "from scipy import optimize", "import scipy.optimize.linesearch as ls"]
    for code in spellings:
        [node] = ast.parse(code).body
        assert any(_banned(name) for name in _imported_modules(node)), code
    [node] = ast.parse("from scipy import linalg, special").body
    assert not any(_banned(name) for name in _imported_modules(node))


#: imports the package, its sweep and its CLI, runs one small trial of each
#: regime, and prints the banned modules then loaded and each trial's reason
_FRESH_PROCESS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import roblaw, roblaw.cli, roblaw.sweep
from roblaw.sweep import REGIMES, TrialCell, run_trial
reasons = {regime: run_trial([TrialCell(regime=regime, activation="relu", n=8, d=6, k=10,
                                        lam=1e-3, zeta=0.1, dataset_seed=1, weight_seed=2,
                                        mc_samples=200)])[0].reason
           for regime in REGIMES}
loaded = sorted(m for m in sys.modules if m.startswith(tuple(sys.argv[2:])))
print(json.dumps({"loaded": loaded, "reasons": reasons}))
"""


def test_fresh_process_loads_no_scipy_integrate_or_optimize():
    src = str(Path(roblaw.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _FRESH_PROCESS, src, *BANNED_MODULES],
                          capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["reasons"] == {regime: "" for regime in roblaw.sweep.REGIMES}
    assert result["loaded"] == []
