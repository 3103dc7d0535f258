"""Command-line front end: problem files in, deterministic reports out.

Problem files are JSON with schema_version 1; complex numbers are always
[re, im] pairs and unknown fields are rejected.  Reports are UTF-8 CSV with
"\\n" line endings: a #-prefixed metadata block first (tool version, config
echo, scalar results), then one or more tables introduced by "# table="
markers.  Every float is printed with 17 significant digits and rows are
deterministically ordered, so identical inputs give identical bytes.

Exit codes: 0 success, 2 ValidationError (ConfigurationError included),
3 NumericalError or numpy's LinAlgError, 4 HypothesisViolationError
(spectrum in the way, non-contractive perturbation).  Any other exception
is a bug and propagates with its traceback.
"""

import argparse
import json
import math
import sys
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import __version__
from .errors import (ConescaleError, ConfigurationError,
                     HypothesisViolationError, ValidationError)
from .geometry import TIME, Cone, Disk, Grid, Ray, derivative_energy
from .hardy import ConeFunction, membership_scan, paley_wiener_check
from .pencil import (MatrixPencil, certify_spectrum, cone_clearance,
                     search_radius, spectrum)
from .rhs import BumpRhs, GaussianRhs, OneSidedExpRhs, SampledRhs
from .solver import (MAX_ITER, RES_TOL, SCALE_TOL, VariableProblem,
                     constant_problem, continuation_certificate, solve_const,
                     solve_scaled, solve_variable)
from .transform import TransformContext, parseval_check

SCHEMA_VERSION = 1

# each kind's (required, optional) fields besides "kind"; any other is refused
_RHS_FIELDS = {
    "gaussian": ((), ("center", "width", "amplitude", "cross_section")),
    "shifted_gaussian": (("center",), ("width", "amplitude", "cross_section")),
    "one_sided_exp": ((), ("rate", "cross_section")),
    "bump": ((), ("half_width", "cross_section")),
    "sampled": (("values",), ()),
}
_PERTURBATION_FIELDS = {"none": ((), ()),
                        "rational_decay": ((), ("epsilon", "pole_scale"))}
# _complex_array's axis labels for an n x n matrix
_MATRIX_LABELS = ("rows", "entries")


# report numbers of these types print with %.17g, every other value as str()
_NUMERIC = (int, float, np.floating)


def _require_keys(obj, path, required, optional=()):
    if not isinstance(obj, dict):
        raise ValidationError("expected an object", path)
    for key in required:
        if key not in obj:
            raise ValidationError("missing required field", f"{path}.{key}")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise ValidationError("unknown field (strict mode)", f"{path}.{key}")


def _require_kind(obj, path, fields):
    """obj["kind"], once obj's fields match fields[kind]."""
    if not isinstance(obj, dict) or "kind" not in obj:
        _require_keys(obj, path, ("kind",))  # raises, naming the defect
    kind = obj["kind"]
    if kind not in tuple(fields):
        raise ValidationError(f"unknown kind {kind!r} (expected one of "
                              f"{', '.join(fields)})", f"{path}.kind")
    required, optional = fields[kind]
    _require_keys(obj, path, ("kind",) + required, optional)
    return kind


def _complex_pair(value, path):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValidationError("expected a [re, im] pair", path)
    re, im = value
    # JSON true/false arrive as bool, which is an int subclass
    if (not isinstance(re, (int, float)) or isinstance(re, bool)
            or not isinstance(im, (int, float)) or isinstance(im, bool)):
        raise ValidationError("expected a [re, im] pair", path)
    if not (_is_finite(re) and _is_finite(im)):
        raise ValidationError("expected finite numbers", path)
    return complex(re, im)


def _is_finite(value):
    # an int past the float range makes math.isfinite raise OverflowError
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _number(value, path, kind=float, positive=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"expected a {kind.__name__}", path)
    if not _is_finite(value):
        raise ValidationError("expected a finite number", path)
    if kind is int and not float(value).is_integer():
        raise ValidationError("expected an integer", path)
    value = kind(value)
    if positive and not value > 0:
        raise ValidationError("must be positive", path)
    return value


def _complex_array(value, shape, path, labels, row_form=False):
    """A nested list of [re, im] pairs as a complex array of this shape.

    Read as one float array when every level is a list of the length
    ``shape`` asks for, every pair a list of two numbers and every number a
    plain int or float (numpy would also take bools and numeric strings);
    any other input goes to _complex_walk, which names the bad field.
    """
    level = [value]
    for n in shape + (2,):
        if set(map(type, level)) != {list} or set(map(len, level)) != {n}:
            break
        level = list(chain.from_iterable(level))
    else:
        # an int past the float range raises OverflowError
        with suppress(OverflowError):
            if set(map(type, level)) <= {int, float}:
                arr = np.array(level, dtype=float)
                if np.all(np.isfinite(arr)):
                    # the pairs' (re, im) floats are exactly a complex array
                    return arr.view(complex).reshape(shape)
    return _complex_walk(value, shape, path, labels, row_form)


def _complex_walk(value, shape, path, labels, row_form=False):
    """_complex_array entry by entry; the first bad field raises "expected
    <n> <label>" (one label per axis) or a pair error.  With ``row_form``,
    a row (second axis) whose first entry is no list is a pair in a row's
    place and is refused whole."""
    def walk(node, depth, at):
        if depth == len(shape):
            return _complex_pair(node, at)
        if (not isinstance(node, list) or len(node) != shape[depth]
                or row_form and depth == 1 and not isinstance(node[0], list)):
            raise ValidationError(f"expected {shape[depth]} {labels[depth]}",
                                  at)
        return [walk(v, depth + 1, f"{at}[{i}]") for i, v in enumerate(node)]

    return np.array(walk(value, 0, path), dtype=complex)


def parse_problem(data):
    """Validate a problem dict; returns a structured Problem object."""
    _require_keys(data, "problem",
                  ("schema_version", "pencil", "geometry", "grid", "rhs"),
                  ("perturbation", "solver"))
    if data["schema_version"] != SCHEMA_VERSION:
        raise ValidationError(f"unsupported version {data['schema_version']}",
                              "problem.schema_version")

    pd = data["pencil"]
    _require_keys(pd, "pencil", ("degree", "dim", "coefficients"), ("norm_forms",))
    degree = _number(pd["degree"], "pencil.degree", int)
    dim = _number(pd["dim"], "pencil.dim", int)
    if degree < 1 or dim < 1:
        raise ValidationError("degree and dim must be >= 1", "pencil")
    coeffs = pd["coefficients"]
    if not isinstance(coeffs, list) or len(coeffs) != degree + 1:
        raise ValidationError(f"expected {degree + 1} coefficient matrices",
                              "pencil.coefficients")
    matrices = [_complex_array(c, (dim, dim), f"pencil.coefficients[{k}]",
                               _MATRIX_LABELS) for k, c in enumerate(coeffs)]
    forms = None
    if "norm_forms" in pd:
        nf = pd["norm_forms"]
        if not isinstance(nf, list) or len(nf) != degree + 1:
            raise ValidationError(f"expected {degree + 1} norm forms",
                                  "pencil.norm_forms")
        forms = [_complex_array(h, (dim, dim), f"pencil.norm_forms[{k}]",
                                _MATRIX_LABELS) for k, h in enumerate(nf)]
    try:
        pencil = MatrixPencil(tuple(matrices),
                              tuple(forms) if forms is not None else None)
    except ValidationError as exc:
        raise ValidationError(str(exc), "pencil")

    gd = data["geometry"]
    _require_keys(gd, "geometry", ("cone", "weight"))
    cd = gd["cone"]
    _require_keys(cd, "geometry.cone", ("angle", "vertex", "orientation"))
    angle = _number(cd["angle"], "geometry.cone.angle", float, positive=True)
    vertex = _complex_pair(cd["vertex"], "geometry.cone.vertex")
    orientation = _number(cd["orientation"], "geometry.cone.orientation", int)
    try:
        cone = Cone(angle, vertex, orientation)
    except ValidationError as exc:
        raise ValidationError(str(exc), "geometry.cone")
    zeta = _complex_pair(gd["weight"], "geometry.weight")

    grd = data["grid"]
    _require_keys(grd, "grid", ("half_width", "count"))
    half_width = _number(grd["half_width"], "grid.half_width", float, True)
    count = _number(grd["count"], "grid.count", int)
    try:
        grid = Grid(half_width, count)
    except ValidationError as exc:
        raise ValidationError(str(exc), "grid")

    rhs = _parse_rhs(data["rhs"], dim, grid)

    pert = None
    if "perturbation" in data:
        pert = _parse_perturbation(data["perturbation"])

    sd = data.get("solver", {})
    _require_keys(sd, "solver", (),
                  ("res_tol", "scale_tol", "max_iter", "phi_list"))
    solver_cfg = {
        "res_tol": _number(sd.get("res_tol", RES_TOL), "solver.res_tol",
                           float, True),
        "scale_tol": _number(sd.get("scale_tol", SCALE_TOL), "solver.scale_tol",
                             float, True),
        "max_iter": _number(sd.get("max_iter", MAX_ITER), "solver.max_iter",
                            int, True),
        "phi_list": [_number(x, "solver.phi_list", float)
                     for x in sd.get("phi_list", [])],
    }
    if len(solver_cfg["phi_list"]) > 1:
        raise ConfigurationError("only one angle is read, got "
                                 f"{len(solver_cfg['phi_list'])}",
                                 "solver.phi_list")
    return Problem(pencil, cone, zeta, grid, rhs, pert, solver_cfg,
                   data["rhs"]["kind"])


def _parse_rhs(rd, dim, grid):
    kind = _require_kind(rd, "rhs", _RHS_FIELDS)
    cross = None
    if "cross_section" in rd:
        cross = _complex_array(rd["cross_section"], (dim,),
                               "rhs.cross_section", ("entries",))
    elif dim > 1 and kind != "sampled":
        raise ValidationError("vector problems need rhs.cross_section", "rhs")
    if kind in ("gaussian", "shifted_gaussian"):
        center = _complex_pair(rd["center"], "rhs.center") if "center" in rd else 0j
        width = _number(rd.get("width", 1.0), "rhs.width", float, True)
        amp = _complex_pair(rd.get("amplitude", (1.0, 0.0)), "rhs.amplitude")
        return GaussianRhs(center, width, amp, cross)
    if kind == "one_sided_exp":
        return OneSidedExpRhs(_number(rd.get("rate", 1.0), "rhs.rate", float),
                              cross)
    if kind == "bump":
        return BumpRhs(_number(rd.get("half_width", 1.0), "rhs.half_width",
                               float, True), cross)
    values = rd["values"]
    # a row is a row of pairs when its first entry is a list, else one
    # [re, im] pair; one component takes either form, as its first row has
    # it, and more components take rows of pairs
    first = values[0] if isinstance(values, list) and values else None
    pairs = dim == 1 and not (isinstance(first, list) and first
                              and isinstance(first[0], list))
    shape = (grid.count,) if pairs else (grid.count, dim)
    arr = _complex_array(values, shape, "rhs.values",
                         ("sample rows", "components"), row_form=True)
    return SampledRhs(arr.reshape(grid.count, dim))


def _parse_perturbation(pd):
    if _require_kind(pd, "perturbation", _PERTURBATION_FIELDS) == "none":
        return None
    eps = _number(pd.get("epsilon", 0.05), "perturbation.epsilon", float)
    scale = _number(pd.get("pole_scale", 3.0), "perturbation.pole_scale",
                    float, True)
    return {"kind": "rational_decay", "epsilon": eps, "pole_scale": scale}


@dataclass(frozen=True)
class Problem:
    pencil: MatrixPencil
    cone: Cone
    zeta: complex
    grid: Grid
    rhs: object
    perturbation: dict
    solver_cfg: dict
    rhs_kind: str

    def constant(self):
        return constant_problem(self.pencil, self.rhs, self.grid,
                                zeta=self.zeta)

    def variable(self):
        """Neumann setup for the rational perturbation.

        Q_0 is one term, the profile eps / (z^2 + pole_scale^2) times the
        identity, and Q_1, ..., Q_m vanish; the projection cut sits in the
        far left tail of the window (where every function has decayed); Q_0
        is holomorphic off its poles +- i*pole_scale.
        """
        cfg = self.perturbation
        eps, scale = cfg["epsilon"], cfg["pole_scale"]
        eye, m = np.eye(self.pencil.dim), self.pencil.degree

        def coefficients(z):
            return [[(eps / (z ** 2 + scale ** 2), eye)]] + [None] * m

        return VariableProblem(self.constant(), coefficients,
                               sector_start=-0.6 * self.grid.half_width)


def load_problem(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read problem file: {exc}")
    except ValueError as exc:
        # JSONDecodeError, UnicodeDecodeError and the int-digit limit
        raise ValidationError(f"invalid JSON: {exc}")
    return parse_problem(data)


class Report:
    """Deterministic CSV assembly: metadata block, then marked tables."""

    def __init__(self, command):
        self.lines = [f"# conescale={__version__}", f"# command={command}"]
        # one %-format string per tuple of cell types renders a whole row
        self._row_formats = {}

    def meta(self, key, value):
        if isinstance(value, _NUMERIC):
            value = "%.17g" % value
        self.lines.append(f"# {key}={value}")

    def table(self, name, header, rows):
        self.lines.append(f"# table={name}")
        self.lines.append(",".join(header))
        for row in rows:
            row = tuple(row)
            types = tuple(map(type, row))
            fmt = self._row_formats.get(types)
            if fmt is None:
                fmt = self._row_formats[types] = ",".join(
                    "%.17g" if issubclass(t, _NUMERIC) else "%s" for t in types)
            self.lines.append(fmt % row)

    def render(self):
        return "\n".join(self.lines) + "\n"


def _echo_config(report, problem):
    report.meta("pencil.degree", problem.pencil.degree)
    report.meta("pencil.dim", problem.pencil.dim)
    report.meta("grid.half_width", problem.grid.half_width)
    report.meta("grid.count", problem.grid.count)
    report.meta("cone.angle", problem.cone.angle)
    report.meta("cone.orientation", problem.cone.orientation)
    report.meta("weight", f"{problem.zeta.real:.17g}{problem.zeta.imag:+.17g}j")
    report.meta("rhs.kind", problem.rhs_kind)


def cmd_spectrum(problem, args, report):
    region = Disk(0j, args.radius) if args.radius is not None else None
    spec = spectrum(problem.pencil, region=region)
    residuals, notes = certify_spectrum(problem.pencil, region=region)
    for note in notes:
        report.meta("note", note)
    report.table("spectrum", ("re", "im", "multiplicity", "residual"),
                 [(lam.real, lam.imag, mult, res) for lam, mult, res
                  in zip(spec.eigenvalues, spec.multiplicities, residuals)])


def cmd_clearance(problem, args, report):
    radius = args.radius if args.radius is not None else \
        search_radius(problem.pencil, problem.cone.vertex)
    clearance = cone_clearance(problem.pencil, problem.cone, radius)
    # the note on dropped infinite eigenvalues, as the spectrum report has it
    for note in problem.pencil.clusters[0]:
        report.meta("note", note)
    report.meta("search_radius", radius)
    report.meta("verdict", clearance.verdict)
    report.table("violations", ("re", "im"),
                 [(lam.real, lam.imag) for lam in clearance.violations])


def _solution_rows(u):
    """Rows (t, re_0, im_0, re_1, im_1, ...) as lists of Python floats."""
    parts = np.stack([u.values.real, u.values.imag], axis=2)
    return np.column_stack([u.grid.nodes,
                            parts.reshape(u.grid.count, -1)]).tolist()


def _solution_header(dim):
    header = ["t"]
    for comp in range(dim):
        header.extend((f"re_{comp}", f"im_{comp}"))
    return tuple(header)


def _scaled_meta(report, scaling):
    """The scaled solve's residuals and deviations, as solve and the demo
    report them."""
    report.meta("residual", scaling.residual_unscaled)
    report.meta("residual_scaled", scaling.residual_scaled)
    report.meta("deviation", scaling.deviation)
    report.meta("deviation_continuation", scaling.deviation_continuation)


def cmd_solve(problem, args, report):
    cfg = problem.solver_cfg
    if problem.perturbation is not None:
        if args.scaled is not None:
            raise ConfigurationError("--scaled is not supported with a "
                                     "perturbation", "perturbation")
        result = solve_variable(problem.variable(), res_tol=cfg["res_tol"],
                                max_iter=cfg["max_iter"])
        u = result.u
        report.meta("mode", "variable")
        report.meta("residual", result.residuals[-1])
        report.meta("iterations", len(result.residuals))
        report.meta("contraction_ratio", result.contraction_ratio)
    elif args.scaled is not None:
        u, v, scaling = solve_scaled(problem.constant(), args.scaled,
                                     scale_tol=cfg["scale_tol"],
                                     res_tol=cfg["res_tol"])
        report.meta("mode", "scaled")
        report.meta("phi", args.scaled)
        _scaled_meta(report, scaling)
        report.table("scaled_solution", _solution_header(v.dim),
                     _solution_rows(v))
    else:
        result = solve_const(problem.constant(), res_tol=cfg["res_tol"])
        u = result.u
        report.meta("mode", "constant")
        report.meta("residual", result.residual)
    report.table("solution", _solution_header(u.dim), _solution_rows(u))


def _verify_parseval(problem, report, args):
    if not getattr(problem.rhs, "analytic", False):
        raise ValidationError("parseval sweep needs an analytic rhs kind", "rhs")
    rows = []
    worst = 0.0
    for psi in (0.0, math.pi / 16, math.pi / 8):
        for zeta in (0j, 0.3j, -0.3j):
            for w in (0j, 0.5 + 0j):
                ctx = TransformContext(psi, zeta, w, problem.grid)
                f = problem.rhs.sample(ctx.time_ray, problem.grid,
                                       weight_number=zeta)
                rep = parseval_check(ctx, f)
                worst = max(worst, rep.rel_err)
                rows.append((psi, zeta.real, zeta.imag, w.real, w.imag,
                             rep.lhs, rep.rhs, rep.rel_err, rep.lhs_tail,
                             rep.rhs_tail))
    report.meta("max_rel_err", worst)
    report.table("parseval",
                 ("psi", "zeta_re", "zeta_im", "w_re", "w_im",
                  "lhs", "rhs", "rel_err", "lhs_tail", "rhs_tail"), rows)


def _verify_hardy(problem, report, args):
    if not getattr(problem.rhs, "analytic", False):
        raise ValidationError("hardy scan needs an analytic rhs kind", "rhs")
    cone = problem.cone
    angles = np.linspace(0.0, cone.angle, 7)
    rays = []
    for psi in angles:
        ctx = TransformContext(cone.orientation * psi, problem.zeta, 0j,
                               problem.grid)
        f = problem.rhs.sample(ctx.time_ray, problem.grid,
                               weight_number=problem.zeta)
        rays.append(ctx.forward(f))
    conef = ConeFunction(cone, tuple(angles), tuple(rays),
                         0.0, rays[0].weight_number)
    scan = membership_scan(conef)
    report.meta("verdict", scan.verdict)
    report.meta("ratio", scan.ratio)
    for diag in scan.diagnostics:
        report.meta("diagnostic", diag)
    report.table("hardy", ("psi", "norm"),
                 list(zip(angles, scan.per_angle_norms)))


def _verify_paley_wiener(problem, report, args):
    side = args.side or "backward-support"
    ray = Ray(0.0, 0j, TIME)
    f = problem.rhs.sample(ray, problem.grid, weight_number=problem.zeta)
    rep = paley_wiener_check(f, side)
    report.meta("side", side)
    report.meta("support_leakage", rep.support_leakage)
    report.meta("verdict", rep.verdict)
    report.meta("opposite_verdict", rep.opposite_verdict)
    report.table("paley_wiener", ("half_plane", "offset", "norm"),
                 rep.ray_norm_table)


def _verify_continuation(problem, report, args):
    cfg = problem.solver_cfg
    phi = args.phi if args.phi is not None else (
        cfg["phi_list"][0] if cfg["phi_list"] else math.pi / 8)
    offset = 1.0 if args.offset is None else args.offset
    target = problem.constant() if problem.perturbation is None \
        else problem.variable()
    cert = continuation_certificate(target, phi, offset=offset,
                                    res_tol=cfg["res_tol"],
                                    max_iter=cfg["max_iter"])
    report.meta("phi", phi)
    report.meta("offset", offset)
    report.meta("verdict", cert.verdict)
    report.meta("ratio", cert.ratio)
    if cert.base_value == 0.0 and cert.max_value > 0.0:
        report.meta("diagnostic", f"base energy is 0 but a ray reaches "
                    f"{cert.max_value:.17g}; the ratio is unbounded")
    for psi, reason in cert.blown:
        report.meta("diagnostic", f"ray psi={psi:.17g} blew up: {reason}")
    report.table("continuation", ("psi", "energy"), cert.rows)


# each verify suite, as _verify_<suite>(problem, report, args)
_SUITES = {"parseval": _verify_parseval, "hardy": _verify_hardy,
           "paley-wiener": _verify_paley_wiener,
           "continuation": _verify_continuation}


def cmd_verify(problem, args, report):
    report.meta("suite", args.suite)
    _SUITES[args.suite](problem, report, args)


def dirichlet_laplacian(n):
    """Second-difference matrix with Dirichlet ends on (0, 1), n interior points."""
    h = 1.0 / (n + 1)
    L = (np.diag(2.0 * np.ones(n)) - np.diag(np.ones(n - 1), 1)
         - np.diag(np.ones(n - 1), -1)) / h ** 2
    return L, h


def cylinder_problem_dict(n, phi, count=4096):
    """Problem file contents for the waveguide cross-section demo.

    The recorded dual cone is the one solve_scaled checks: aperture |phi|,
    clockwise (orientation -1) for negative phi.  phi = 0 is the degenerate
    identity scaling; the cone then falls back to a small positive aperture
    so the clearance check still has a region to certify.
    """
    cone_angle = abs(phi) if phi != 0.0 else math.pi / 16
    L, h = dirichlet_laplacian(n)
    xs = (np.arange(1, n + 1)) * h
    cross = np.sin(math.pi * xs)
    cross = cross / np.linalg.norm(cross)
    as_pairs = lambda m: [[[float(m[i, j].real), float(m[i, j].imag)]
                           for j in range(n)] for i in range(n)]
    eye = np.eye(n, dtype=complex)
    zero = np.zeros((n, n), dtype=complex)
    return {
        "schema_version": 1,
        "pencil": {
            "degree": 2,
            "dim": n,
            "coefficients": [as_pairs(eye), as_pairs(zero),
                             as_pairs(L.astype(complex))],
        },
        "geometry": {
            "cone": {"angle": cone_angle, "vertex": [0.0, 0.0],
                     "orientation": -1 if phi < 0.0 else 1},
            "weight": [0.0, 0.0],
        },
        "grid": {"half_width": 20.0, "count": count},
        "rhs": {
            "kind": "gaussian",
            "cross_section": [[float(c), 0.0] for c in cross],
        },
        "solver": {"phi_list": [phi]},
    }


def _demo_problem_file(args):
    """Write the demo's problem file and return its path.  The demo reads
    it back, so it runs on exactly what a later `conescale solve` sees."""
    if args.n < 1:
        raise ValidationError("need at least one cross-section point", "n")
    if abs(args.phi) > math.pi:
        raise ValidationError("must lie in [-pi, pi]: the cone angle is |phi|",
                              "--phi")
    data = cylinder_problem_dict(args.n, args.phi)
    try:
        with open(args.out_problem, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ValidationError(f"cannot write problem file: {exc}",
                              "--out-problem")
    return args.out_problem


def cmd_demo_cylinder(problem, args, report):
    # run the whole pipeline first so the metadata block can precede every
    # table, as the report format requires
    n = args.n
    _, h = dirichlet_laplacian(n)
    closed = np.array([2.0 / h * math.sin(k * math.pi * h / 2.0)
                       for k in range(1, n + 1)])
    spec = spectrum(problem.pencil)
    residuals, _ = certify_spectrum(problem.pencil)
    rows = []
    worst = 0.0
    for lam, mult, res in zip(spec.eigenvalues, spec.multiplicities,
                              residuals):
        target = closed[int(np.argmin(np.abs(closed - abs(lam.imag))))]
        closed_im = math.copysign(target, lam.imag)
        # the whole distance to +-i target, so a real part counts too
        err = abs(lam - 1j * closed_im) / target
        worst = max(worst, err)
        rows.append((lam.real, lam.imag, mult, res, 0.0, closed_im, err))

    report.meta("n", n)
    report.meta("phi", args.phi)
    report.meta("problem_file", args.out_problem)
    report.meta("eigenvalue_max_rel_err", worst)

    clearance = cone_clearance(problem.pencil, problem.cone,
                               search_radius(problem.pencil,
                                             problem.cone.vertex))
    report.meta("clearance", clearance.verdict)
    if clearance.clear:
        cfg = problem.solver_cfg
        base = problem.constant()
        u, _, scaling = solve_scaled(base, args.phi,
                                     scale_tol=cfg["scale_tol"],
                                     res_tol=cfg["res_tol"])
        # the weighted energy of the solution on rays from psi = 0 to phi
        energies = []
        for psi in np.linspace(0.0, args.phi, 3):
            ray_u = solve_const(base.on_ray(Ray(psi, 0, TIME)),
                                res_tol=cfg["res_tol"]).u
            energies.append((psi, derivative_energy(
                ray_u, problem.pencil.norm_forms[::-1])))
        _scaled_meta(report, scaling)
    report.table("eigenvalues",
                 ("re", "im", "multiplicity", "residual",
                  "closed_re", "closed_im", "rel_err"), rows)
    if not clearance.clear:
        report.table("violations", ("re", "im"),
                     [(l.real, l.imag) for l in clearance.violations])
        # the partial report still goes out; the exit code stays 4
        _emit(report, args.out)
        raise HypothesisViolationError(
            "dual cone is not free of pencil eigenvalues")
    report.table("ray_energies", ("psi", "energy"), energies)
    report.table("solution", _solution_header(u.dim), _solution_rows(u))


def _emit(report, out):
    text = report.render()
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write report: {exc}", "--out")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="conescale",
        description="operator pencils, ray transforms, and complex scaling "
                    "at desk scale",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_problem=True):
        if with_problem:
            p.add_argument("problem", help="problem JSON file")
        p.add_argument("--out", default=None, help="report path (default stdout)")

    p = sub.add_parser("spectrum", help="finite pencil spectrum")
    common(p)
    p.add_argument("--radius", type=float, default=None,
                   help="restrict to |lambda| <= radius")

    p = sub.add_parser("clearance", help="cone clearance verdict")
    common(p)
    p.add_argument("--radius", type=float, default=None)

    p = sub.add_parser("solve", help="solve the problem on the real line")
    common(p)
    p.add_argument("--scaled", type=float, default=None, metavar="PHI",
                   help="also run the scaled solve at angle PHI "
                   "(problems without a perturbation)")

    p = sub.add_parser("verify", help="run a verification suite")
    common(p)
    p.add_argument("--suite", required=True, choices=tuple(_SUITES))
    p.add_argument("--side", choices=("backward-support", "forward-support"),
                   help="paley-wiener only (default backward-support)")
    p.add_argument("--phi", type=float, help="continuation only")
    p.add_argument("--offset", type=float, help="continuation only (default 1)")

    p = sub.add_parser("demo-cylinder", help="generate and run the cylinder demo")
    common(p, with_problem=False)
    p.add_argument("--n", type=int, required=True,
                   help="cross-section points")
    p.add_argument("--phi", type=float, required=True,
                   help="scaling angle")
    p.add_argument("--out-problem", default="cylinder_problem.json",
                   help="where to write the generated problem file")
    return parser


# the float options, and whether each must be positive
_FLOAT_OPTIONS = (("radius", True), ("scaled", False), ("phi", False),
                  ("offset", False))
# the verify options each read by one suite only
_SUITE_OPTIONS = {"side": "paley-wiener", "phi": "continuation",
                  "offset": "continuation"}


def _check_options(args):
    """Refuse a float option that is not finite, a --radius that is not
    positive, and a verify option that the chosen suite does not read."""
    for name, positive in _FLOAT_OPTIONS:
        value = getattr(args, name, None)
        if value is not None:
            _number(value, f"--{name}", float, positive)
    if args.command == "verify":
        for name, suite in _SUITE_OPTIONS.items():
            if getattr(args, name) is not None and args.suite != suite:
                raise ConfigurationError(
                    f"--suite {args.suite} does not read it; only --suite "
                    f"{suite} does", f"--{name}")


def _run(args):
    _check_options(args)
    path = (_demo_problem_file(args) if args.command == "demo-cylinder"
            else args.problem)
    problem = load_problem(path)
    report = Report(args.command)
    _echo_config(report, problem)
    # looked up on each call, so a wrapper set on a module attribute after
    # import is the one that runs
    command = {"spectrum": cmd_spectrum, "clearance": cmd_clearance,
               "solve": cmd_solve, "verify": cmd_verify,
               "demo-cylinder": cmd_demo_cylinder}[args.command]
    command(problem, args, report)
    return report


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _emit(_run(args), args.out)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypothesisViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ConescaleError, np.linalg.LinAlgError) as exc:
        # NumericalError, and any other package error; LinAlgError is a
        # numerical failure.  An untyped exception is a bug: it propagates.
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
