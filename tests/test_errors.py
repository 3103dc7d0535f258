"""The error contract: typed raise sites, and exit codes that only typed
errors reach.

A ValidationError (or its subclass ConfigurationError) exits 2, a
NumericalError or LinAlgError 3, a HypothesisViolationError 4; any other
exception is a bug and propagates with its traceback.
"""

import ast
import json
import math
import pathlib
import re
import sys
import warnings

import pytest

import conescale
import conescale.cli
from conescale.cli import main, parse_problem
from test_cli import linear_problem, write

SRC = pathlib.Path(conescale.__file__).parent
README = pathlib.Path(__file__).parents[1] / "README.md"

# (module, function) of the only handlers allowed to catch ValueError or
# Exception: the mapping of LAPACK failures to EigenSolverError, and the
# problem-file reader, where the json module reports undecodable bytes and
# over-long integers as ValueError
ALLOWED_HANDLERS = {("cli.py", "load_problem"),
                    ("pencil.py", "_companion_eig")}


def _names(node):
    if node is None:
        return set()
    nodes = node.elts if isinstance(node, ast.Tuple) else [node]
    return {n.id for n in nodes if isinstance(n, ast.Name)}


def _offences(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if "ValueError" in _names(exc):
                found.append(f"{path.name}:{node.lineno} raise ValueError")
        if (isinstance(node, ast.ExceptHandler)
                and ({"ValueError", "Exception"} & _names(node.type)
                     or node.type is None)
                and (path.name, function) not in ALLOWED_HANDLERS):
            found.append(f"{path.name}:{node.lineno} broad except in "
                         f"{function}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_no_untyped_raise_or_broad_except():
    files = sorted(SRC.glob("*.py"))
    assert {"cli.py", "pencil.py", "solver.py"} <= {f.name for f in files}
    assert [o for f in files for o in _offences(f)] == []


def test_lint_sees_an_offence(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(x):\n    try:\n        g()\n"
                   "    except (KeyError, ValueError):\n"
                   "        raise ValueError(x)\n", encoding="utf-8")
    assert _offences(bad) == ["bad.py:4 broad except in f",
                              "bad.py:5 raise ValueError"]


def _module_scipy_imports(path):
    """Imports of scipy that run when the module loads: every one outside
    a function body.  A function-local import loads scipy on first call."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        if any(name == "scipy" or name.startswith("scipy.")
               for name in names):
            found.append(f"{path.name}:{node.lineno} module-level scipy "
                         f"import")
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(path.read_text(encoding="utf-8")))
    return found


def test_no_module_level_scipy_import():
    files = sorted(SRC.glob("*.py"))
    assert "pencil.py" in {f.name for f in files}
    assert [o for f in files for o in _module_scipy_imports(f)] == []


def test_scipy_lint_sees_an_offence(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import scipy.linalg\nfrom scipy import sparse\n"
                   "import scipyx\nfrom .scipy import x\n"
                   "try:\n    import numpy, scipy as sp\n"
                   "except ImportError:\n    pass\n"
                   "class C:\n    from scipy.linalg import eig\n"
                   "def f():\n    import scipy.linalg\n"
                   "    from scipy import fft\n", encoding="utf-8")
    assert _module_scipy_imports(bad) == [
        "bad.py:1 module-level scipy import",
        "bad.py:2 module-level scipy import",
        "bad.py:6 module-level scipy import",
        "bad.py:10 module-level scipy import"]


EIGENSOLVERS = {"eig", "eigvals", "eigh", "eigvalsh"}
# (module, qualified function) -> the eigensolvers it may call: the one
# eigensolve of every pencil, and the nested-norm check of the norm forms
ALLOWED_EIGENSOLVES = {
    ("pencil.py", "_companion_eig"): {"eig", "eigh"},
    ("pencil.py", "MatrixPencil.__post_init__"): {"eigvalsh"},
}


def _eigensolves(path):
    """Calls of an eigensolver (np.linalg.eig, scipy.linalg.eigvals, a
    bare eigh, ...) outside the functions allowed to make them, and every
    import of one by name, which could hide a call under an alias."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.ImportFrom):
            found.extend(f"{path.name}:{node.lineno} import of {alias.name}"
                         for alias in node.names
                         if alias.name in EIGENSOLVERS)
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else func.id if isinstance(func, ast.Name) else None)
            if (name in EIGENSOLVERS and name not in
                    ALLOWED_EIGENSOLVES.get((path.name, scope), ())):
                found.append(f"{path.name}:{node.lineno} {name} in {scope}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_one_eigensolve_site():
    files = sorted(SRC.glob("*.py"))
    assert "pencil.py" in {f.name for f in files}
    assert [o for f in files for o in _eigensolves(f)] == []


def test_eigensolve_lint_sees_an_offence(tmp_path):
    bad = tmp_path / "pencil.py"
    bad.write_text("import numpy as np\n"
                   "from scipy.linalg import eigh as solve\n"
                   "def _companion_eig(a):\n"
                   "    return np.linalg.eigvals(a), np.linalg.eigh(a)\n"
                   "class MatrixPencil:\n"
                   "    def __post_init__(self):\n"
                   "        np.linalg.eigvalsh(self)\n"
                   "        np.linalg.eig(self)\n"
                   "def f(a, b):\n"
                   "    import scipy.linalg\n"
                   "    return (scipy.linalg.eig(a, b), np.linalg.svd(a),\n"
                   "            solve(a), eigvals(a))\n", encoding="utf-8")
    assert _eigensolves(bad) == [
        "pencil.py:2 import of eigh",
        "pencil.py:4 eigvals in _companion_eig",
        "pencil.py:8 eig in MatrixPencil.__post_init__",
        "pencil.py:11 eig in f",
        "pencil.py:12 eigvals in f"]


# (module, function) of the only code that may name an FFT module: the
# one transform kernel, which runs both passes, and the inverse-FFT helper
# it takes for the inverse pass
ALLOWED_FFT = {("transform.py", "_apply_kernel"),
               ("transform.py", "_ifft_sums")}


def _fft_uses(path):
    """Every use of an FFT module (np.fft, numpy.fft, scipy.fft, ...: a
    call or a reference, which could make the call under another name)
    outside the functions allowed to make one, and every import of one."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{name}" for name in names]
            found.extend(f"{path.name}:{node.lineno} import of {name}"
                         for name in names if "fft" in name)
        if (isinstance(node, ast.Attribute) and "fft" in node.attr
                and isinstance(node.value, ast.Name)
                and (path.name, scope) not in ALLOWED_FFT):
            found.append(f"{path.name}:{node.lineno} "
                         f"{node.value.id}.{node.attr} in {scope}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_one_fft_site():
    files = sorted(SRC.glob("*.py"))
    assert "transform.py" in {f.name for f in files}
    assert [o for f in files for o in _fft_uses(f)] == []


def test_fft_lint_sees_an_offence(tmp_path):
    bad = tmp_path / "transform.py"
    bad.write_text("import numpy as np\n"
                   "import numpy.fft\n"
                   "from numpy import fft as dft\n"
                   "def _apply_kernel(x, pre, post, fft=np.fft.fft):\n"
                   "    return fft(x, axis=0)\n"
                   "def _ifft_sums(y, axis):\n"
                   "    return np.fft.ifft(y, axis=axis, norm='forward')\n"
                   "def _apply_kernel_adjoint(y):\n"
                   "    return np.fft.ifft(y, axis=0)\n"
                   "class TransformContext:\n"
                   "    def inverse(self, y):\n"
                   "        sums = numpy.fft.ifft\n"
                   "        return scipy.fft.ifft(y), sums(y)\n",
                   encoding="utf-8")
    assert _fft_uses(bad) == [
        "transform.py:2 import of numpy.fft",
        "transform.py:3 import of numpy.fft",
        "transform.py:9 np.fft in _apply_kernel_adjoint",
        "transform.py:12 numpy.fft in TransformContext.inverse",
        "transform.py:13 scipy.fft in TransformContext.inverse"]


# (module, qualified function) -> the %.17g formats it may spell out:
# Report's two renderers, which print every report number, and the
# numbers set inside report text, where no renderer sees them
ALLOWED_17G = {
    ("cli.py", "Report.meta"): 1,
    ("cli.py", "Report.table"): 1,
    # the complex weight echo, its real and its signed imaginary part
    ("cli.py", "_echo_config"): 2,
    # the two continuation diagnostics: the reached energy and a ray's psi
    ("cli.py", "_verify_continuation"): 2,
}


def _number_formats(path):
    """Every .17g format (a %-string, a format spec, an f-string's spec)
    in a function that may spell out fewer than it does."""
    found = {}

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and ".17g" in node.value):
            found.setdefault(scope, []).append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return [f"{path.name}:{line} .17g in {scope}"
            for scope, lines in found.items()
            if len(lines) > ALLOWED_17G.get((path.name, scope), 0)
            for line in lines]


def test_one_number_format():
    files = sorted(SRC.glob("*.py"))
    assert "cli.py" in {f.name for f in files}
    assert [o for f in files for o in _number_formats(f)] == []


def test_number_format_lint_sees_an_offence(tmp_path):
    bad = tmp_path / "cli.py"
    bad.write_text("class Report:\n"
                   "    def meta(self, key, value):\n"
                   "        return '%.17g' % value\n"
                   "def _echo_config(report, z):\n"
                   "    report.meta('weight', f'{z.real:.17g}{z.imag:+.17g}j')\n"
                   "def _verify_continuation(report, psi):\n"
                   "    report.meta('phi', f'{psi:.17g}')\n"
                   "def _fmt(x):\n"
                   "    return format(x, '.17g')\n"
                   "def cmd_solve(report, r):\n"
                   "    report.meta('residual', '{:.17g}'.format(r))\n"
                   "    report.meta('deviation', f'{r:.17g}' + f'{r:.3e}')\n",
                   encoding="utf-8")
    assert _number_formats(bad) == [
        "cli.py:9 .17g in _fmt",
        "cli.py:11 .17g in cmd_solve",
        "cli.py:12 .17g in cmd_solve"]


def _dead_code(paths):
    """Unused imports (outside __init__.py, whose imports are the package's
    API), and module-private top-level functions or classes that no module
    in ``paths`` names."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in paths}
    used = {path: {node.id for node in ast.walk(tree)
                   if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)}
            for path, tree in trees.items()}
    named = set().union(*used.values()) | {
        alias.name for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) for alias in node.names}
    found = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and path.name != "__init__.py"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used[path]:
                        found.append(f"{path.name}:{node.lineno} unused "
                                     f"import {name}")
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")
                    and node.name not in named):
                found.append(f"{path.name}:{node.lineno} unreferenced "
                             f"{node.name}")
    return found


def test_no_dead_code():
    files = sorted(SRC.glob("*.py"))
    assert "__init__.py" in {f.name for f in files}
    assert _dead_code(files) == []


def test_dead_code_check_sees_an_offence(tmp_path):
    (tmp_path / "a.py").write_text(
        "import os\nimport numpy as np\nfrom math import pi, tau\n\n"
        "def _used():\n    return np.pi, pi\n\n"
        "def _shared():\n    pass\n\n"
        "def _dead():\n    pass\n\n"
        "class _Gone:\n    pass\n\nprint(_used())\n", encoding="utf-8")
    (tmp_path / "b.py").write_text("from a import _shared\n_shared()\n",
                                   encoding="utf-8")
    assert _dead_code(sorted(tmp_path.glob("*.py"))) == [
        "a.py:1 unused import os", "a.py:3 unused import tau",
        "a.py:11 unreferenced _dead", "a.py:14 unreferenced _Gone"]


# Exports that no command reaches, with the reason each one stays
# (project_halfline, also criterion 7, is reached through the idempotence
# check)
REACH_ROOTS = {
    "cauchy_reconstruct": "acceptance criterion 6",
    "projection_idempotence_check": "acceptance criterion 7",
    "PoleRhs": "acceptance criterion 9",
    "localize_traces": "acceptance criterion 10",
    "verify_growth_condition": "the resolvent growth probe; no suite yet",
}


def _unreached_exports(paths, roots):
    """Names that __init__.py imports but that nothing reaches from
    ``main`` or from ``roots``.  Name-level: a reached name reaches every
    top-level function, class or assignment of that name in ``paths``, and
    with it every name its source mentions (a class's methods included)."""
    defs, exports = {}, set()
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if path.name == "__init__.py":
                if isinstance(node, ast.ImportFrom):
                    exports |= {alias.name for alias in node.names}
                continue
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                defs.setdefault(name, []).append(node)
    reached, todo = set(), ["main", *roots]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in defs.get(name, ()):
            todo.extend(n.id if isinstance(n, ast.Name) else n.attr
                        for n in ast.walk(node)
                        if isinstance(n, (ast.Name, ast.Attribute)))
    return sorted(exports - reached)


def test_every_export_is_reached():
    files = sorted(SRC.glob("*.py"))
    assert {"__init__.py", "cli.py"} <= {f.name for f in files}
    assert _unreached_exports(files, REACH_ROOTS) == []
    # no root is stale: without it, it is unreached
    for root in REACH_ROOTS:
        rest = set(REACH_ROOTS) - {root}
        assert root in _unreached_exports(files, rest)


def test_reachability_check_sees_an_offence(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "from .lib import Shape, planted, rooted, spare\n"
        "from .cli import main\n", encoding="utf-8")
    (tmp_path / "lib.py").write_text(
        "SIDES = 4\n\n"
        "def _side():\n    return SIDES\n\n"
        "class Shape:\n    def area(self):\n        return _side() ** 2\n\n"
        "def rooted():\n    pass\n\n"
        "def planted():\n    return spare()\n\n"
        "def spare():\n    pass\n", encoding="utf-8")
    (tmp_path / "cli.py").write_text(
        "from .lib import Shape\n\n"
        "def main():\n    return Shape().area()\n", encoding="utf-8")
    paths = sorted(tmp_path.glob("*.py"))
    assert _unreached_exports(paths, {"rooted": "a reason"}) == [
        "planted", "spare"]
    assert _unreached_exports(paths, {}) == ["planted", "rooted", "spare"]


# Defaulted parameters that no call sets, with the reason each one stays:
# all are problem data, which a user states and the code does not fix
UNSET_DEFAULTS = {
    "constant_problem(psi)": "problem data: the ray angle",
    "projection_idempotence_check(v)": "problem data: the cut point",
    "localize_traces(orientation)": "problem data: the cone orientation",
    "PoleRhs(order)": "problem data: the pole order",
    "PoleRhs(window)": "problem data: the window width",
    "PoleRhs(amplitude)": "problem data: the amplitude",
    "PoleRhs(cross_section)": "problem data: the cross-section vector",
}


def _defaulted(tree):
    """(label, names, parameter, position) of each defaulted parameter of
    the functions and methods in ``tree``: a class's __init__ is labelled
    by the class and called by its name or as __init__, and ``position``
    (None for keyword-only ones) does not count a method's self or cls."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                shift = 0 if cls is None or static else 1
                if cls is not None and child.name == "__init__":
                    label, names = cls, (cls, child.name)
                else:
                    label = child.name if cls is None else f"{cls}.{child.name}"
                    names = (child.name,)
                args = child.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], first):
                    found.append((label, names, arg.arg, i - shift))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((label, names, arg.arg, None))
                visit(child, None)
            else:
                visit(child, cls)

    visit(tree, None)
    return found


def _unset_defaults(paths, callers):
    """Defaulted parameters of the functions and methods in ``paths`` that
    no call in ``callers`` sets, by keyword or by position.  Name-level: a
    call of ``f`` or ``x.f`` counts for every function or method named f,
    and a call of a class name (or of __init__) for its __init__.  A call
    with ``*args`` sets every position, one with ``**kwargs`` every
    keyword."""
    positions, keywords = {}, {}
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            count = math.inf if starred else len(node.args)
            positions[name] = max(positions.get(name, 0), count)
            for kw in node.keywords:
                keywords.setdefault(name, set()).add(kw.arg)
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for label, names, param, position in _defaulted(tree):
            given = set().union(*(keywords.get(n, set()) for n in names))
            passed = max(positions.get(n, 0) for n in names)
            if (param in given or None in given
                    or (position is not None and position < passed)):
                continue
            found.append(f"{label}({param})")
    return sorted(found)


def test_every_default_is_set():
    files = sorted(SRC.glob("*.py"))
    root = SRC.parents[1]
    callers = [path for part in ("src", "tests", "bench")
               for path in sorted((root / part).rglob("*.py"))]
    assert _unset_defaults(files, callers) == sorted(UNSET_DEFAULTS)


def test_unset_default_check_sees_an_offence(tmp_path):
    (tmp_path / "lib.py").write_text(
        "def scale(x, by=1.0, shift=0.0, *, clip=None):\n"
        "    return x * by + shift\n\n"
        "class Box:\n"
        "    def __init__(self, size=1.0, label=None):\n"
        "        self.size = size\n\n"
        "    def grow(self, by=2.0):\n"
        "        return self.size * by\n\n"
        "    @staticmethod\n"
        "    def unit(size=1.0):\n"
        "        return Box(size)\n\n"
        "def pad(x, width=0):\n    return x\n\n"
        "def trim(x, side=None):\n    return x\n", encoding="utf-8")
    (tmp_path / "use.py").write_text(
        "from lib import Box, pad, scale, trim\n\n"
        "scale(1.0, 2.0, clip=3.0)\n"
        "Box(2.0).grow()\n"
        "Box.unit(3.0)\n"
        "pad(*[1, 2])\n"
        "trim(1, **{'side': 'left'})\n", encoding="utf-8")
    paths = sorted(tmp_path.glob("*.py"))
    assert _unset_defaults(paths, paths) == [
        "Box(label)", "Box.grow(by)", "scale(shift)"]


def run(tmp_path, data, argv):
    return main(argv[:1] + [write(tmp_path, data)] + argv[1:])


NEUMANN = {"rhs": {"kind": "shifted_gaussian", "center": [5.0, 0.0]},
           "perturbation": {"kind": "rational_decay"}}


@pytest.mark.parametrize("overrides, grid_count, argv, message", [
    ({"rhs": {"kind": "bump"}}, None, ["solve", "--scaled", "0.3"],
     "scaled solves need an analytic right-hand-side evaluator"),
    ({"rhs": {"kind": "bump"}}, None, ["verify", "--suite", "continuation"],
     "certificates need an analytic right-hand-side evaluator"),
    ({}, 3, ["solve"], "grid too short for stencil: 3 nodes < 9"),
    ({}, 8, ["verify", "--suite", "continuation"],
     "grid too short for stencil: 8 nodes < 9"),
    (NEUMANN, 16, ["solve"],
     "segment too short for the requested stencil width"),
], ids=["scaled_bump", "continuation_bump", "solve_count_3",
        "continuation_count_8", "neumann_count_16"])
def test_precondition_exits_2(tmp_path, capsys, overrides, grid_count, argv,
                              message):
    data = linear_problem()
    data.update(overrides)
    if grid_count is not None:
        data["grid"]["count"] = grid_count
    assert run(tmp_path, data, argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


NOT_FINITE = "expected a finite number"
NOT_POSITIVE = "must be positive"
CONTINUATION = ["verify", "--suite", "continuation"]


# (argv, message) of each refused float option value
BAD_FLOATS = [
    *[([command, "--radius", value], f"--radius: {message}")
      for command in ("spectrum", "clearance")
      for value, message in (("-1", NOT_POSITIVE), ("0", NOT_POSITIVE),
                             ("nan", NOT_FINITE), ("inf", NOT_FINITE))],
    *[(argv + [value], f"{argv[-1]}: {NOT_FINITE}")
      for argv in (["solve", "--scaled"], CONTINUATION + ["--phi"],
                   CONTINUATION + ["--offset"],
                   ["demo-cylinder", "--n", "1", "--phi"])
      for value in ("nan", "inf")],
]


@pytest.mark.parametrize("argv, message", BAD_FLOATS,
                         ids=[" ".join(argv) for argv, _ in BAD_FLOATS])
def test_bad_float_option_exits_2(tmp_path, capsys, argv, message):
    if argv[0] == "demo-cylinder":
        demo = tmp_path / "demo.json"
        assert main(argv + ["--out-problem", str(demo)]) == 2
        assert not demo.exists()
    else:
        assert run(tmp_path, linear_problem(), argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("suite, option, value, reader", [
    (suite, option, value, reader)
    for option, value, reader in (
        ("--side", "forward-support", "paley-wiener"),
        ("--phi", "0.3", "continuation"),
        ("--offset", "0.5", "continuation"))
    for suite in ("parseval", "hardy", "paley-wiener", "continuation")
    if suite != reader])
def test_unread_verify_option_exits_2(tmp_path, capsys, suite, option, value,
                                      reader):
    argv = ["verify", "--suite", suite, option, value]
    assert run(tmp_path, linear_problem(), argv) == 2
    assert (capsys.readouterr().err == f"error: {option}: --suite {suite} "
            f"does not read it; only --suite {reader} does\n")


@pytest.mark.parametrize("rhs, perturbation, field", [
    ({"kind": "gaussian", "rate": 5, "half_width": 3, "values": [1, 2]},
     None, "rhs.rate"),
    ({"kind": "gaussian", "values": [1, 2]}, None, "rhs.values"),
    ({"kind": "sampled", "values": [[1.0, 0.0]] * 2048,
      "cross_section": [[1.0, 0.0]]}, None, "rhs.cross_section"),
    ({"kind": "shifted_gaussian", "center": [5.0, 0.0], "rate": 2}, None,
     "rhs.rate"),
    ({"kind": "bump", "width": 2}, None, "rhs.width"),
    ({"kind": "gaussian"}, {"kind": "none", "epsilon": 7},
     "perturbation.epsilon"),
], ids=["gaussian_extra_fields", "gaussian_values", "sampled_cross_section",
        "shifted_rate", "bump_width", "none_epsilon"])
def test_field_of_another_kind_exits_2(tmp_path, capsys, rhs, perturbation,
                                       field):
    data = linear_problem()
    data["rhs"] = rhs
    if perturbation is not None:
        data["perturbation"] = perturbation
    assert run(tmp_path, data, ["solve"]) == 2
    assert (capsys.readouterr().err
            == f"error: {field}: unknown field (strict mode)\n")


@pytest.mark.parametrize("content, message", [
    (b"\xff", "'utf-8' codec can't decode byte 0xff"),
    pytest.param(b'{"schema_version": ' + b"9" * 5000 + b"}",
                 "Exceeds the limit (4300 digits)", id="int_5000_digits",
                 marks=pytest.mark.skipif(
                     not hasattr(sys, "get_int_max_str_digits"),
                     reason="this Python has no int-digit limit")),
], ids=["not_utf8", "int_5000_digits"])
def test_unreadable_problem_file_exits_2(tmp_path, capsys, content, message):
    path = tmp_path / "problem.json"
    path.write_bytes(content)
    assert main(["spectrum", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid JSON: ") and message in err


@pytest.mark.parametrize("phi, option", [(0.1, "--out-problem"),
                                         (0.1, "--out"),
                                         (math.pi / 2, "--out")],
                         ids=["out_problem", "out", "out_after_violation"])
def test_unwritable_demo_output_exits_2(tmp_path, capsys, phi, option):
    # at phi = pi/2 the cone reaches the spectrum; the partial report still
    # goes to --out, and an unwritable --out then exits 2, not 4
    paths = {"--out-problem": tmp_path / "p.json", "--out": tmp_path / "r.csv"}
    paths[option] = tmp_path / "missing" / paths[option].name
    what = "problem file" if option == "--out-problem" else "report"
    argv = ["demo-cylinder", "--n", "2", "--phi", str(phi)]
    for name, path in paths.items():
        argv += [name, str(path)]
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", f"error: {option}: cannot write {what}: [Errno 2] No such file "
        f"or directory: '{paths[option]}'\n")


def test_plain_value_error_propagates(tmp_path, monkeypatch):
    # a ValueError no raise site typed is a bug, not bad input
    def fail(*args, **kwargs):
        raise ValueError("untyped")

    monkeypatch.setattr(conescale.cli, "solve_const", fail)
    with pytest.raises(ValueError, match="untyped"):
        run(tmp_path, linear_problem(), ["solve"])


def test_readme_library_sketch_runs(capsys):
    # the sketch shows the VariableProblem contract; running it keeps the
    # README from drifting off the code
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exec(compile(block, "README.md", "exec"), {})
    ratio, verdict, parseval = capsys.readouterr().out.splitlines()
    assert float(ratio) <= 0.5 and verdict.startswith("holds ")
    assert float(parseval) <= 1e-6


def test_readme_problem_file_parses():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```jsonc\n(.*?)```", text, re.S).group(1)
    data = json.loads(re.sub(r"//[^\n]*", "", block))
    assert parse_problem(data).perturbation["kind"] == "rational_decay"
