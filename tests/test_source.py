"""Layout rules of the library source, checked on its syntax tree: imports
sit at module level, and only the module that defines the model classes
dispatches on them; every other module calls the models' own methods."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "roblaw").glob("*.py"))
MODEL_CLASSES = {"LinearModel", "TwoLayerModel", "KernelModel", "FeatureModel"}
#: (module, function) whose type check on a model class guards its argument
MODEL_GUARDS = {("sobolev.py", "sobolev_exact_linear")}


def _functions(path):
    """(name, node) of every function and method in the module at path."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [(node.name, node) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _checked_names(call):
    """The class names an `isinstance(obj, classes)` call tests against."""
    if not (isinstance(call.func, ast.Name) and call.func.id == "isinstance"
            and len(call.args) == 2):
        return set()
    classes = call.args[1]
    nodes = classes.elts if isinstance(classes, ast.Tuple) else [classes]
    return {node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            for node in nodes}


def test_sources_are_found():
    assert {"fit.py", "kernels.py", "sobolev.py", "sweep.py"} <= {p.name for p in SOURCES}


def test_no_import_inside_a_function():
    found = [f"{path.name}:{node.lineno} in {name}"
             for path in SOURCES for name, fn in _functions(path)
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_no_type_dispatch_on_models_outside_fit():
    found = [f"{path.name}:{node.lineno} in {name}"
             for path in SOURCES if path.name != "fit.py"
             for name, fn in _functions(path) if (path.name, name) not in MODEL_GUARDS
             for node in ast.walk(fn)
             if isinstance(node, ast.Call) and _checked_names(node) & MODEL_CLASSES]
    assert found == []
