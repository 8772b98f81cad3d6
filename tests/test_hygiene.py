"""Source hygiene checks that need only the standard library."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lorentzlab"


def _exported(tree: ast.Module) -> set[str]:
    """Names listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def unused_imports(source: str) -> list[str]:
    """Module-level imported names that the module neither uses nor exports."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = set(imported) - used - _exported(tree)
    return sorted(f"line {imported[name]}: {name}" for name in unused)


def test_the_scan_sees_an_unused_import():
    src = "import math\nimport os\nfrom typing import Any, Optional\n__all__ = ['Any']\nmath.pi\n"
    assert unused_imports(src) == ["line 2: os", "line 3: Optional"]


def test_no_unused_module_level_imports():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue  # its imports are the package's re-exports
        bad = unused_imports(path.read_text())
        if bad:
            found[path.name] = bad
    assert found == {}


def classes_without(source: str, base: str, method: str) -> list[str]:
    """Module-level subclasses of ``base`` that do not define ``method`` themselves."""
    return sorted(
        node.name
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef)
        and any(isinstance(b, ast.Name) and b.id == base for b in node.bases)
        and not any(isinstance(f, ast.FunctionDef) and f.name == method for f in node.body)
    )


def test_the_scan_sees_a_class_without_the_method():
    src = "class A(W):\n    def m(self): pass\nclass B(W):\n    x = 1\nclass C:\n    pass\n"
    assert classes_without(src, "W", "m") == ["B"]


def test_every_weight_kind_has_its_own_cumulative_pairs():
    # every batched build (product_cumulative, the prefixes of a zeta build)
    # goes through cumulative_pairs, and the base class only raises
    # NotImplementedError; a kind integrated one pair at a time would pay one
    # exact integral per point there
    missing = classes_without((PACKAGE / "weights.py").read_text(), "Weight", "cumulative_pairs")
    assert missing == []


def test_every_weight_kind_has_its_own_head_and_tail_power():
    # the limit rule at 0+ and infinity reads these exponents, and the base
    # class only raises NotImplementedError
    source = (PACKAGE / "weights.py").read_text()
    assert classes_without(source, "Weight", "head_power") == []
    assert classes_without(source, "Weight", "tail_power") == []


def numpy_reductions(source: str) -> list[str]:
    """Calls ``np.any(...)`` or ``np.all(...)``, as 'line N: np.name'."""
    return sorted(
        f"line {node.lineno}: np.{node.func.attr}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("any", "all")
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "np"
    )


def test_the_scan_sees_a_numpy_reduction():
    src = "import numpy as np\nnp.any(x)\nx.any()\ny = np.all(x > 0)\nnp.max(x)\n"
    assert numpy_reductions(src) == ["line 2: np.any", "line 4: np.all"]


def test_no_numpy_reductions_on_the_small_array_paths():
    # np.any(x) and np.all(x) go through NumPy's Python-level dispatch, about
    # 5 us a call against 1 us for x.any(); the step-function code calls them
    # on every construction and evaluation
    found = {
        name: numpy_reductions((PACKAGE / name).read_text())
        for name in ("funcs.py", "rearrangement.py", "weights.py")
    }
    assert found == {"funcs.py": [], "rearrangement.py": [], "weights.py": []}


def _public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def public_kwargs_functions(source: str) -> list[str]:
    """Public module-level functions and public methods of public classes
    that take ``**kwargs``, as 'line N: name'."""
    found = []
    for node in ast.parse(source).body:
        public_class = isinstance(node, ast.ClassDef) and _public(node.name)
        methods = [(node.name + ".", m) for m in node.body] if public_class else []
        for prefix, fn in [("", node), *methods]:
            if isinstance(fn, ast.FunctionDef) and _public(fn.name) and fn.args.kwarg is not None:
                found.append(f"line {fn.lineno}: {prefix}{fn.name}")
    return sorted(found)


def test_the_scan_sees_a_public_kwargs_function():
    src = (
        "def f(**kw): pass\n"
        "def _g(**kw): pass\n"
        "class A:\n"
        "    def m(self, *, x=1, **kw): pass\n"
        "    def __init__(self, **kw): pass\n"
        "    def _h(self, **kw): pass\n"
        "class _B:\n"
        "    def m(self, **kw): pass\n"
        "def k(*args, x=1): pass\n"
    )
    assert public_kwargs_functions(src) == ["line 1: f", "line 4: A.m", "line 5: A.__init__"]


def test_no_public_function_passes_options_through():
    # a **kwargs pass-through hides which options exist and lets ones that
    # no caller sets survive; private helpers such as cli._payload are exempt
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        bad = public_kwargs_functions(path.read_text())
        if bad:
            found[path.name] = bad
    assert found == {}


def _private(name: str) -> bool:
    return name.startswith("_") and not _public(name)


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants of the modules in
    ``sources`` (module name -> source) that no module reads: neither the
    defining module by name, nor another one through ``from .module import``
    (which the unused-import scan then requires to be used), as 'module.name'."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined.extend((module, n) for n in names if _private(n))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add((module, node.id))
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                used.update((node.module, alias.name) for alias in node.names)
    return sorted(f"{m}.{n}" for m, n in defined if (m, n) not in used)


def test_the_scan_sees_an_unreferenced_private_name():
    sources = {
        "a": "_K = 1\n_UNUSED = 2\ndef _f(): return _K\ndef _g(): pass\nclass _C: pass\n",
        "b": "from .a import _g\n_g()\n",
    }
    assert unreferenced_private_names(sources) == ["a._C", "a._UNUSED", "a._f"]


def test_every_private_module_level_name_is_referenced():
    # a private helper that nothing calls is a leftover of an old path, such
    # as a wrapper whose callers moved to the kernel it wrapped
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_names(sources) == []
