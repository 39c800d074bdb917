"""Source-structure rules for the package, checked on its syntax trees.

* no module imports an underscore name from another bergshift module;
* no function body imports a bergshift module;
* only :func:`gamma_ratio.working_precision` assigns mpmath ``.prec`` or
  ``.dps`` (everything else uses that scope or mpmath's ``workprec``);
* only ``gamma_ratio`` uses the interval context ``iv``, imports from
  ``mpmath.libmp`` or binds an ``mpi_*`` name, so a second certified path
  cannot come back through the raw interval primitives;
* no module defines ``ball_ratio`` or ``RatioCheck`` or imports from
  ``mpmath.libmp``: identities are decided exactly, and the sampled ratio
  check on ``iv`` objects is the tests' oracle (``tests/iv_oracle.py``);
* no ``assert`` statement carries control flow;
* no ``tuple(<generator expression>)``: on hot paths the generator frames
  fragment the small-object allocator and raise peak memory, so tuples are
  built from lists;
* ``solver`` and ``identities`` bind no certified-numerics name: they are
  exact throughout;
* ``iv.gamma`` appears once, in the memoized lookup of one precision pass,
  so no second Gamma evaluation path can come back;
* ``solver`` imports only ``exact_algebra`` and ``gamma_ratio`` from the
  package: it decides from its own parameters, not through the operator
  algebra or the symbol layer;
* no package module calls ``solver.build_system``: the explicit expansion
  is the tests' oracle, so no solver path costs time linear in K;
* no package module calls ``solver.match_root_power``: a settled cell's
  proportionality comes from its floor's proof, and a cell above its
  floor has no basis to match;
* the commutant kernel is integer: the pins and the rows of (3)
  (``solver._mixed_rows``) and the elimination (``_echelon``) construct
  no ``Fraction`` and divide only with ``//``.  The closed-form basis of
  a settled cell is built in its own function, ``_floor_basis``, outside
  the kernel, and no ``_eliminate`` back-substitutes in the package;
* only ``exact_algebra`` calls the raw ``Polynomial(...)`` constructor, so
  the canonical form that polynomial equality rests on is built in one
  place;
* no package module defines a pseudo-remainder sequence: no function
  named for a pseudo-remainder (``_int_prem``) or a polynomial
  ``divmod``, and no ``while`` loop in ``exact_algebra.poly_gcd``, whose
  root tests run over the given roots.  Every denominator is split, and
  the general gcd is the tests' oracle (``tests/prs_oracle.py``);
* no package module defines the rational-function parser, the JSON
  weight reader or the operator equality, and ``exact_algebra`` defines
  no ``MAX_POWER``: those are test-side round-trip and oracle helpers
  (``tests/rf_text.py``, ``tests/test_shift_algebra.py``), so no
  denominator that does not split can enter the package through text;
* the package has one adaptive integrator, ``quadrature.integrate_adaptive``,
  which takes the polynomial and no callable, and no module defines an
  mpf panel: every function named for a panel, the power ladder and the
  halving use no ``mp``/``mpmath`` name, since they run on fixed-point
  integers.  The mpf integrator is the tests' reference
  (``tests/quadrature_oracle.py``);
* no package module calls ``json.dumps`` or ``json.dump``: the CLI writes
  its indented report directly, and ``json.dumps(indent=2)`` is the tests'
  oracle for that writer;
* the command-line grammar is declared once, in ``cli.GRAMMAR``: both
  ``build_parser`` and ``_read_argv`` read it, every ``--flag`` literal of
  ``cli`` lies inside it, and no ``add_argument`` call names a flag
  literally.
"""

import ast
from pathlib import Path

import bergshift

PACKAGE = Path(bergshift.__file__).parent
SCOPE = ("gamma_ratio", "working_precision")
CERTIFIED_NUMERICS = {"mpmath", "ball_ratio", "eval_ball", "BallValue", "working_precision"}
GAMMA_SITE = ("gamma_ratio", "_GammaMemo", "gamma")
SOLVER_IMPORTS = {"exact_algebra", "gamma_ratio"}
INTEGER_KERNEL = {"_mixed_rows", "_echelon"}
TEST_SIDE = {"parse_rational_function", "parse_rational", "_ExprParser", "_power",
             "weight_from_jsonable", "op_equal", "EqualityVerdict"}


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


def _certified_numerics_sites(mod: str) -> list[str]:
    tree = dict(_modules())[mod]
    return [f"{mod}:{node.lineno}"
            for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id in CERTIFIED_NUMERICS)
            or (isinstance(node, ast.Attribute) and node.attr in CERTIFIED_NUMERICS)
            or (isinstance(node, ast.alias) and node.name.split(".")[0] in CERTIFIED_NUMERICS)
            or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mpmath")]


def test_solver_binds_no_certified_numerics():
    assert _certified_numerics_sites("solver") == []


def test_identities_binds_no_certified_numerics():
    assert _certified_numerics_sites("identities") == []


def test_no_sampled_ratio_check_in_the_package():
    bad = [f"{mod}:{node.lineno}"
           for mod, tree in _modules()
           for node in ast.walk(tree)
           if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name in ("ball_ratio", "RatioCheck"))
           or (isinstance(node, ast.ImportFrom) and "libmp" in (node.module or "").split("."))
           or (isinstance(node, ast.Import) and any("libmp" in a.name.split(".") for a in node.names))]
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


def test_match_root_power_is_called_by_no_package_module():
    bad = [f"{mod}:{node.lineno}"
           for mod, tree in _modules()
           for node in ast.walk(tree) if _calls(node, "match_root_power")]
    assert bad == []


def _makes_rationals(node) -> bool:
    """A Fraction constructed, or a true division."""
    return _calls(node, "Fraction") or (
        isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div))


def test_commutant_kernel_is_integer():
    tree = dict(_modules())["solver"]
    defs = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    required = INTEGER_KERNEL | {"_floor_basis"}
    assert required <= set(defs), sorted(required - set(defs))
    assert "_eliminate" not in defs
    bad = [f"solver.{name}:{node.lineno}"
           for name in sorted(INTEGER_KERNEL)
           for node in ast.walk(defs[name]) if _makes_rationals(node)]
    assert bad == []


def test_raw_polynomial_constructor_only_in_exact_algebra():
    bad = [f"{mod}:{node.lineno}"
           for mod, tree in _modules() if mod != "exact_algebra"
           for node in ast.walk(tree) if _calls(node, "Polynomial")]
    assert bad == []


def test_no_pseudo_remainder_sequence_in_the_package():
    bad = [f"{mod}.{fn.name}:{fn.lineno}"
           for mod, tree in _modules()
           for fn in _functions(tree) if "prem" in fn.name or fn.name == "divmod"]
    tree = dict(_modules())["exact_algebra"]
    [gcd] = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "poly_gcd"]
    bad += [f"exact_algebra.poly_gcd:{node.lineno}" for node in ast.walk(gcd) if isinstance(node, ast.While)]
    assert bad == []


def _defines(tree, names) -> list[int]:
    """Lines where a function, class or module-level name in ``names`` is defined."""
    lines = [n.lineno for n in ast.walk(tree)
             if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name in names]
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        lines += [node.lineno for t in targets if isinstance(t, ast.Name) and t.id in names]
    return lines


def test_test_side_helpers_are_defined_in_no_package_module():
    bad = [f"{mod}:{line}" for mod, tree in _modules() for line in _defines(tree, TEST_SIDE)]
    bad += [f"exact_algebra:{line}" for line in _defines(dict(_modules())["exact_algebra"], {"MAX_POWER"})]
    assert bad == []


def test_one_adaptive_integrator_on_fixed_point_integers():
    integrators = [f"{mod}.{fn.name}" for mod, tree in _modules()
                   for fn in _functions(tree) if fn.name.startswith("integrate")]
    assert integrators == ["quadrature.integrate_adaptive"]
    tree = dict(_modules())["quadrature"]
    [integrate] = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "integrate_adaptive"]
    params = {a.arg for a in integrate.args.args}
    bad = [f"quadrature.integrate_adaptive:{a.lineno} takes a callable {a.arg}"
           for a in integrate.args.args if a.annotation is not None and "Callable" in ast.unparse(a.annotation)]
    bad += [f"quadrature.integrate_adaptive:{node.lineno} calls {node.func.id}"
            for node in ast.walk(integrate)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in params]
    bad += [f"{mod}.{fn.name}:{node.lineno}"
            for mod, tree in _modules() for fn in _functions(tree)
            if "panel" in fn.name or fn.name in ("_fixed_power", "recurse")
            for node in ast.walk(fn) if isinstance(node, ast.Name) and node.id in ("mp", "mpmath")]
    assert bad == []


def test_no_package_module_calls_json_dump():
    bad = [f"{mod}:{node.lineno}"
           for mod, tree in _modules() for node in ast.walk(tree)
           if isinstance(node, ast.Attribute) and node.attr in ("dumps", "dump")
           and isinstance(node.value, ast.Name) and node.value.id == "json"]
    bad += [f"{mod}:{node.lineno}"
            for mod, tree in _modules() for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "json"
            and {a.name for a in node.names} & {"dumps", "dump"}]
    assert bad == []


def test_the_command_line_grammar_is_declared_once():
    tree = dict(_modules())["cli"]
    [grammar] = [node for node in tree.body if isinstance(node, ast.Assign)
                 and [ast.unparse(t) for t in node.targets] == ["GRAMMAR"]]
    inside = {id(node) for node in ast.walk(grammar)}
    bad = [f"cli:{node.lineno} {node.value!r} outside GRAMMAR"
           for node in ast.walk(tree)
           if isinstance(node, ast.Constant) and isinstance(node.value, str)
           and node.value.startswith("--") and node.value[2:3].isalpha()
           and id(node) not in inside]
    bad += [f"cli:{node.lineno} add_argument names its flag"
            for node in ast.walk(tree)
            if _calls(node, "add_argument") and node.args and isinstance(node.args[0], ast.Constant)]
    defs = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    bad += [f"cli.{name} does not read GRAMMAR" for name in ("build_parser", "_read_argv")
            if not any(isinstance(node, ast.Name) and node.id == "GRAMMAR"
                       for node in ast.walk(defs[name]))]
    assert bad == []
