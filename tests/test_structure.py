"""Source-structure rules for the package, checked on its syntax trees.

* no module imports an underscore name from another bergshift module;
* no function body imports a bergshift module;
* only :func:`gamma_ratio.working_precision` assigns mpmath ``.prec`` or
  ``.dps`` (everything else uses that scope or mpmath's ``workprec``);
* only ``gamma_ratio`` uses the interval context ``iv``, imports from
  ``mpmath.libmp`` or binds an ``mpi_*`` name, so a second certified path
  cannot come back through the raw interval primitives;
* no ``assert`` statement carries control flow;
* no ``tuple(<generator expression>)``: on hot paths the generator frames
  fragment the small-object allocator and raise peak memory, so tuples are
  built from lists;
* ``solver`` binds no certified-numerics name: it is exact throughout;
* ``iv.gamma`` appears once, in the memoized lookup of one precision pass,
  so no second Gamma evaluation path can come back;
* ``solver`` imports only ``exact_algebra`` and ``gamma_ratio`` from the
  package: it decides from its own parameters, not through the operator
  algebra or the symbol layer;
* no package module calls ``solver.build_system``: the explicit expansion
  is the tests' oracle, so no solver path costs time linear in K;
* only ``exact_algebra`` calls the raw ``Polynomial(...)`` constructor, so
  the canonical form that polynomial equality rests on is built in one
  place.
"""

import ast
from pathlib import Path

import bergshift

PACKAGE = Path(bergshift.__file__).parent
SCOPE = ("gamma_ratio", "working_precision")
CERTIFIED_NUMERICS = {"mpmath", "ball_ratio", "eval_ball", "working_precision"}
GAMMA_SITE = ("gamma_ratio", "_IntervalMemo", "gamma")
SOLVER_IMPORTS = {"exact_algebra", "gamma_ratio"}


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def _is_package_import(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "bergshift"
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "bergshift" for a in node.names)
    return False


def _functions(tree):
    return [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _assigned_attributes(node):
    targets = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    stack = list(targets)
    while stack:
        t = stack.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            stack.extend(t.elts)
        elif isinstance(t, ast.Attribute):
            yield t.attr


def test_no_private_imports_across_modules():
    bad = [f"{mod}:{node.lineno} imports {alias.name}"
           for mod, tree in _modules()
           for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and _is_package_import(node)
           for alias in node.names if alias.name.startswith("_")]
    assert bad == []


def test_no_function_local_package_imports():
    bad = [f"{mod}.{fn.name}:{node.lineno}"
           for mod, tree in _modules()
           for fn in _functions(tree)
           for node in ast.walk(fn) if _is_package_import(node)]
    assert bad == []


def test_precision_is_set_only_by_the_scope():
    bad = []
    for mod, tree in _modules():
        allowed = set()
        for fn in _functions(tree):
            if (mod, fn.name) == SCOPE:
                allowed |= {id(n) for n in ast.walk(fn)}
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if any(attr in ("prec", "dps") for attr in _assigned_attributes(node)):
                bad.append(f"{mod}:{node.lineno}")
    assert bad == []


def _is_interval_name(name: str) -> bool:
    return name == "iv" or name == "libmp" or name.startswith("mpi_")


def _uses_interval_numerics(node) -> bool:
    if isinstance(node, ast.Name):
        return _is_interval_name(node.id)
    if isinstance(node, ast.Attribute):
        return _is_interval_name(node.attr)
    if isinstance(node, ast.alias):
        return any(_is_interval_name(part) for part in node.name.split(".")) or (
            node.asname is not None and _is_interval_name(node.asname))
    if isinstance(node, ast.ImportFrom):
        return "libmp" in (node.module or "").split(".")
    return False


def test_interval_context_only_in_gamma_ratio():
    bad = [f"{mod}:{node.lineno}"
           for mod, tree in _modules() if mod != "gamma_ratio"
           for node in ast.walk(tree) if _uses_interval_numerics(node)]
    assert bad == []


def test_no_assert_statements():
    bad = [f"{mod}:{node.lineno}"
           for mod, tree in _modules()
           for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert bad == []


def test_no_tuple_of_generator():
    bad = [f"{mod}:{node.lineno}"
           for mod, tree in _modules()
           for node in ast.walk(tree)
           if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
           and node.func.id == "tuple" and node.args
           and isinstance(node.args[0], ast.GeneratorExp)]
    assert bad == []


def test_solver_binds_no_certified_numerics():
    tree = dict(_modules())["solver"]
    bad = [f"solver:{node.lineno}"
           for node in ast.walk(tree)
           if (isinstance(node, ast.Name) and node.id in CERTIFIED_NUMERICS)
           or (isinstance(node, ast.Attribute) and node.attr in CERTIFIED_NUMERICS)
           or (isinstance(node, ast.alias) and node.name.split(".")[0] in CERTIFIED_NUMERICS)
           or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mpmath")]
    assert bad == []


def _is_interval_gamma(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "gamma"
            and ((isinstance(node.value, ast.Name) and node.value.id == "iv")
                 or (isinstance(node.value, ast.Attribute) and node.value.attr == "iv")))


def test_interval_gamma_only_in_the_memo():
    mod, cls, method = GAMMA_SITE
    sites = [(name, node.lineno) for name, tree in _modules()
             for node in ast.walk(tree) if _is_interval_gamma(node)]
    tree = dict(_modules())[mod]
    [memo] = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == cls]
    [lookup] = [n for n in memo.body if isinstance(n, ast.FunctionDef) and n.name == method]
    allowed = [(mod, node.lineno) for node in ast.walk(lookup) if _is_interval_gamma(node)]
    assert len(allowed) == 1
    assert sites == allowed


def test_solver_imports_only_exact_algebra_and_gamma_ratio():
    tree = dict(_modules())["solver"]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_package_import(node):
            module = (node.module or "").removeprefix("bergshift").lstrip(".")
            imported |= {module} if module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import) and _is_package_import(node):
            imported |= {alias.name.partition(".")[2] for alias in node.names}
    assert imported <= SOLVER_IMPORTS, sorted(imported - SOLVER_IMPORTS)


def _calls(node, name: str) -> bool:
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (isinstance(f, ast.Name) and f.id == name) or (
        isinstance(f, ast.Attribute) and f.attr == name)


def test_build_system_is_called_by_no_package_module():
    bad = [f"{mod}:{node.lineno}"
           for mod, tree in _modules()
           for node in ast.walk(tree) if _calls(node, "build_system")]
    assert bad == []


def test_raw_polynomial_constructor_only_in_exact_algebra():
    bad = [f"{mod}:{node.lineno}"
           for mod, tree in _modules() if mod != "exact_algebra"
           for node in ast.walk(tree) if _calls(node, "Polynomial")]
    assert bad == []
