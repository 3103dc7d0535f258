"""Solving A(D) u = F on rays, scaled equivalents, and perturbed problems.

The constant-coefficient solve conjugates the pencil resolvent with the
ray transform: u = T [ A(lam)^{-1} (T^{-1} F) ].  Every returned solution
carries a residual that was re-checked by applying A(D) with finite
differences on the samples, never through the solve path itself.

The scaled solve realizes A(e^{i phi} D) by multiplying the coefficients
A_j by e^{i phi (m - j)} and checks, pointwise, that the scaled solution,
the solve along the rotated ray, and the analytic continuation of the
unrotated solution are one and the same function, which is the content of
the scaling equivalence.

Variable dilation-analytic coefficients are handled by a Neumann iteration
on the subsidiary equation whose perturbation acts through half-line
projections; non-contraction is a reported outcome, not silent divergence.
"""

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (ConfigurationError, ContractionFailureError,
                     LocalizationFailureError, NonFiniteSampleError,
                     NumericalError, SpectralObstructionError, ValidationError)
from .geometry import TIME, Cone, Ray, RayFunction, derivative_energy
from .hardy import halfline_projection
from .pencil import (MatrixPencil, cone_clearance, resolvent_apply_batch,
                     spectrum)
from .stencils import derivative_with_cuts
from .transform import TransformContext

RES_TOL = 1e-6
SCALE_TOL = 1e-6
CERT_BOUND = 10.0
LINE_MARGIN = 1e-9
MAX_ITER = 50

_GAMMA_MAGNITUDES = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
_GAMMA_FAN = (0.0, math.pi / 16, -math.pi / 16, math.pi / 8, -math.pi / 8)


@dataclass(frozen=True)
class ConstantProblem:
    """A(D) u = F, with F sampled in ``rhs`` along a time-side ray.

    The ray and the weight number zeta are those of ``rhs``.  ``evaluator``
    samples F on other rays (None for data that cannot leave its ray).
    """

    pencil: MatrixPencil
    rhs: RayFunction
    evaluator: object = None

    def __post_init__(self):
        if self.ray.side != TIME:
            raise ValidationError("solves run along time-side rays")
        if self.rhs.dim != self.pencil.dim:
            raise ValidationError("right-hand side dimension does not match the pencil")

    @property
    def ray(self):
        return self.rhs.ray

    @property
    def zeta(self):
        return self.rhs.weight_number

    def context(self):
        return TransformContext.of(self.rhs)

    def on_ray(self, ray):
        """The same problem with F sampled again on ``ray``."""
        rhs = self.evaluator.sample(ray, self.rhs.grid, self.rhs.weight_order,
                                    self.zeta)
        return replace(self, rhs=rhs)


def constant_problem(pencil, evaluator, grid, psi=0.0, w=0j, zeta=0j):
    """Assemble a ConstantProblem by sampling an evaluator on the ray."""
    rhs = evaluator.sample(Ray(psi, w, TIME), grid, weight_number=zeta)
    return ConstantProblem(pencil, rhs,
                           evaluator if getattr(evaluator, "analytic", False) else None)


@dataclass(frozen=True)
class SolveResult:
    u: RayFunction
    residual: float
    frequency_data: RayFunction


def apply_pencil_fd(pencil, u, cuts=()):
    """A(D) applied to samples by finite differences along the ray.

    The stencils have accuracy order 8; one stencil call returns every
    order whose coefficient is not exactly zero (by ``pencil.scalars``),
    and one product applies all the coefficients.  Returns (values,
    interior slice); the interior excludes nodes whose stencil would run
    off the grid.  ``cuts`` lets the stencils respect known kinks
    (one-sided differences on each side).
    """
    m = pencil.degree
    terms = [(m - j, c) for j, (c, scalar) in
             enumerate(zip(pencil.coefficients, pencil.scalars)) if scalar != 0]
    derivs, core = derivative_with_cuts(u.values, u.grid.spacing,
                                        [order for order, _ in terms], cuts=cuts)
    dir_inv = 1.0 / u.ray.direction
    # (n, orders, n) to match derivs' (N, n, orders) layout
    mixing = np.stack([(-1j * dir_inv) ** order * c.T for order, c in terms],
                      axis=1)
    return derivs.reshape(u.grid.count, -1) @ mixing.reshape(-1, u.dim), core


def _check_line_clear(pencil, ctx):
    spec = spectrum(pencil)
    ray = ctx.frequency_ray
    offenders = [lam for lam in spec.eigenvalues
                 if ray.distance(lam) <= LINE_MARGIN]
    if offenders:
        raise SpectralObstructionError(
            f"the solve line {ray} passes through pencil eigenvalues "
            f"{offenders}; the operator has no bounded inverse there",
            offenders,
        )


def _resolve(pencil, ctx, f):
    """u = T [ A(lam)^{-1} (T^{-1} f) ]; returns u and its frequency data."""
    fhat = ctx.forward(f)
    # the resolvent certifies every node, so its solutions are finite
    uhat = fhat._adopt_values(resolvent_apply_batch(
        pencil, ctx.frequency_points, fhat.values))
    return ctx.inverse(uhat), uhat


def _fd_residual(pencil, u, rhs, pert=None, cuts=()):
    """max |(A(D) u - pert) - F| over the stencil-valid interior, relative
    to max(1, |F|_inf), with A(D) applied by finite differences."""
    scale = max(1.0, float(np.max(np.abs(rhs.values))))
    applied, core = apply_pencil_fd(pencil, u, cuts=cuts)
    lhs = applied[core]
    if pert is not None:
        np.subtract(lhs, pert[core], out=lhs)
    gap = np.linalg.norm(np.subtract(lhs, rhs.values[core], out=lhs), axis=1)
    return float(np.max(gap)) / scale if gap.size else 0.0


def solve_const(problem, res_tol=RES_TOL):
    """Transform, invert the pencil nodewise, transform back, re-check.

    The residual is measured as max |A(D) u - F| over the stencil-valid
    interior, relative to max(1, |F|_inf), with A(D) applied by finite
    differences so the check never reuses the solve path.
    """
    ctx = problem.context()
    _check_line_clear(problem.pencil, ctx)
    u, uhat = _resolve(problem.pencil, ctx, problem.rhs)
    residual = _fd_residual(problem.pencil, u, problem.rhs)
    if residual > res_tol:
        raise NumericalError(
            f"solve residual {residual:.3e} exceeds tolerance {res_tol:.1e}"
        )
    return SolveResult(u, residual, uhat)


@dataclass(frozen=True)
class ScalingReport:
    phi: float
    residual_unscaled: float
    residual_scaled: float
    deviation: float
    deviation_continuation: float


def solve_scaled(problem, phi, scale_tol=SCALE_TOL, res_tol=RES_TOL):
    """Solve, scale, and verify the two are the same analytic function.

    Checks the scaled solve v (coefficients A_j e^{i phi (m-j)}, rhs
    F(w + e^{-i phi} t)) against two independent routes to u on the rotated
    ray: the direct solve with transform context psi = phi, and the
    analytic continuation of the unrotated solution evaluated off its ray
    from the frequency-side data (a genuinely different contour).  Signed
    phi selects the rotation side; the dual cone of aperture |phi| at
    vertex zeta must be clear (phi = 0 checks no cone).

    The first comparison is enforced: a deviation above ``scale_tol`` times
    max(1, |u|_inf) (or a non-finite one) raises NumericalError.
    ``deviation_continuation`` is report-only, and nan when no comparison is
    made: at phi = 0, where the rotated ray is the base ray and the
    continuation would only repeat the inverse transform, and when its
    shallow window holds fewer than three nodes.
    """
    if problem.evaluator is None:
        raise ConfigurationError("scaled solves need an analytic right-hand-side evaluator")
    orientation = 1 if phi >= 0 else -1
    aperture = abs(float(phi))
    if aperture > 0:
        cone = Cone(aperture, problem.zeta, orientation)
        clearance = cone_clearance(problem.pencil, cone)
        if not clearance.clear:
            raise SpectralObstructionError(
                f"dual cone of aperture {aperture:.6g} holds eigenvalues "
                f"{clearance.violations}; scaling equivalence unavailable",
                clearance.violations,
            )
    grid = problem.rhs.grid
    w = problem.ray.offset
    base = solve_const(problem, res_tol=res_tol)

    v_rhs = RayFunction(Ray(0.0, w, TIME), grid,
                        problem.evaluator(w + cmath.exp(-1j * phi) * grid.nodes),
                        problem.rhs.weight_order,
                        cmath.exp(-1j * phi) * problem.zeta)
    v = solve_const(ConstantProblem(problem.pencil.scaled(phi), v_rhs),
                    res_tol=res_tol)

    rot_ray = Ray(phi, w, TIME)
    rot = solve_const(problem.on_ray(rot_ray), res_tol=res_tol)

    deviation = float(np.max(np.abs(v.u.values - rot.u.values)))
    # relative to max(1, |u|_inf), as the solve residuals are
    rel_deviation = deviation / max(1.0, float(np.max(np.abs(rot.u.values))))
    if not rel_deviation <= scale_tol:
        raise NumericalError(
            f"scaled and rotated-ray solves deviate by {rel_deviation:.3e} "
            f"relative to max(1, |u|_inf), above scale_tol {scale_tol:.3e}"
        )
    # Continuation off the unrotated ray amplifies frequency-edge noise by
    # e^{depth * Xi}, so the different-contour cross-check is well posed
    # only at shallow depth; restrict it to nodes within that window.
    ctx0 = problem.context()
    xi_max = ctx0.dst_grid.half_width
    depth = abs(math.sin(phi))
    t_shallow = 20.0 / (xi_max * max(depth, 1e-12))
    shallow = np.abs(grid.nodes) <= t_shallow
    if phi != 0 and np.count_nonzero(shallow) >= 3:
        cont = ctx0.evaluate_continuation(base.frequency_data,
                                          rot_ray.points(grid.nodes[shallow]))
        deviation_cont = float(np.max(np.abs(v.u.values[shallow] - cont)))
    else:
        deviation_cont = math.nan

    report = ScalingReport(
        phi=float(phi),
        residual_unscaled=base.residual,
        residual_scaled=v.residual,
        deviation=deviation,
        deviation_continuation=deviation_cont,
    )
    return base.u, v.u, report


@dataclass(frozen=True)
class VariableProblem:
    """Base problem plus dilation-analytic perturbing coefficients.

    ``coefficients`` is called once per solve with the array ``z`` of the
    N ray nodes (shape (N,)).  It returns m + 1 entries, Q_j multiplying
    D^(m-j): None for Q_j = 0, or a list of (profile, matrix) terms, a
    profile of shape (N,) holding phi_r(z_k) and a matrix V_r of shape
    (n, n), with Q_j(z) = sum_r phi_r(z) V_r.  For example
    ``[[(eps / (z**2 + 9), np.eye(n))], None]``.  Each term costs one
    (N, n) x (n, n) product per application, so only a Q_j that splits
    into few terms is cheap: a general one needs n^2 terms, O(N n^4).
    The caller must ensure that the Q_j extend holomorphically to a sector
    |arg(z - sector_start)| <= alpha, with alpha in (0, pi/2) no smaller
    than the scaling angles used, and decay there; nothing checks it.  The
    perturbation acts through half-line projections of order m - j past
    the cut point, the point of parameter sector_start on the base ray,
    with the auxiliary point eta = zeta + 4i.
    """

    base: ConstantProblem
    coefficients: object
    sector_start: float


@dataclass(frozen=True)
class VariableSolveResult:
    u: RayFunction
    residuals: tuple
    contraction_ratio: float


def _prepare_perturbation(vp, grid):
    """Per Q_j, its nonzero (profile, matrix) terms sampled on the ray nodes."""
    z = vp.base.ray.points(grid.nodes)
    qs = vp.coefficients(z)
    if len(qs) != vp.base.pencil.degree + 1:
        raise ValidationError("coefficient callable must return m + 1 entries")
    square = (vp.base.pencil.dim,) * 2
    per_j = []
    for j, terms in enumerate(qs):
        if terms is not None and (not isinstance(terms, (list, tuple)) or not all(
                isinstance(t, (list, tuple)) and len(t) == 2 for t in terms)):
            raise ValidationError(f"perturbing coefficient Q_{j} must be None "
                                  "or a list of (profile, matrix) terms")
        kept = []
        for r, (profile, matrix) in enumerate(terms or ()):
            profile = np.asarray(profile, dtype=complex)
            matrix = np.asarray(matrix, dtype=complex)
            if profile.shape != z.shape or matrix.shape != square:
                raise ValidationError(
                    f"term {r} of Q_{j} has profile shape {profile.shape} and "
                    f"matrix shape {matrix.shape}; expected {z.shape}, {square}")
            if not (np.all(np.isfinite(profile)) and np.all(np.isfinite(matrix))):
                raise NonFiniteSampleError(f"term {r} of Q_{j} is not finite")
            if np.any(profile) and np.any(matrix):
                kept.append((profile, matrix))
        per_j.append(kept)
    return per_j


def _apply_perturbation(vp, per_j, u, uhat, ctx, cut):
    """sum_j Q_j P^(m-j) D^(m-j) u, with uhat = ctx.forward(u) (the
    frequency data the sweep has just inverted to u)."""
    m = vp.base.pencil.degree
    eta = vp.base.zeta + 4j
    out = np.zeros_like(u.values)
    for j, terms in enumerate(per_j):
        if not terms:
            continue
        proj = halfline_projection(u, m - j, eta=eta, v=cut, ctx=ctx,
                                   extra_power=m - j, fhat=uhat).values
        for profile, matrix in terms:
            out += profile[:, None] * (proj @ matrix.T)
    return out


def solve_variable(vp, res_tol=RES_TOL, max_iter=MAX_ITER):
    """Neumann iteration u_(k+1) = R (F + Q+ u_k) with residual logging.

    R is the constant-coefficient inverse (the transform route); the
    perturbation applies the projected derivatives and multiplies by the
    Q_j.  A sweep runs five transform passes: R is a forward and an
    inverse, and each projection starts from the frequency data that R
    has just inverted, then runs an inverse, a forward and an inverse.
    Residuals are re-checked each sweep by a finite-difference
    application of A(D) (cut-aware stencils at the projection cut).
    Geometric decay is required; two consecutive increases, or running out
    of the max_iter sweeps before res_tol, raise ContractionFailureError
    with the residual trace.
    """
    base = vp.base
    ctx = base.context()
    _check_line_clear(base.pencil, ctx)
    grid = base.rhs.grid
    per_j = _prepare_perturbation(vp, grid)
    cut = base.ray.points(np.array([vp.sector_start]))[0]
    cut_node = int(np.argmin(np.abs(grid.nodes - base.ray.parameter(cut))))

    u, uhat = _resolve(base.pencil, ctx, base.rhs)
    residuals = []
    increases = 0
    for _ in range(max_iter):
        pert = _apply_perturbation(vp, per_j, u, uhat, ctx, cut)
        residuals.append(_fd_residual(base.pencil, u, base.rhs, pert,
                                      cuts=(cut_node,)))
        if residuals[-1] <= res_tol:
            break
        if len(residuals) >= 2:
            if residuals[-1] >= residuals[-2]:
                increases += 1
                if increases >= 2:
                    raise ContractionFailureError(residuals)
            else:
                increases = 0
        if not np.isfinite(residuals[-1]) or residuals[-1] > 1e6:
            raise ContractionFailureError(residuals)
        u, uhat = _resolve(base.pencil, ctx, base.rhs._adopt_values(
            np.add(base.rhs.values, pert, out=pert)))
    else:
        raise ContractionFailureError(residuals, cap=(max_iter, res_tol))
    ratios = [residuals[k + 1] / residuals[k]
              for k in range(len(residuals) - 1) if residuals[k] > 0.0]
    q = max(ratios) if ratios else 0.0
    return VariableSolveResult(u, tuple(residuals), q)


@dataclass(frozen=True)
class Localization:
    gamma: complex
    coefficients: np.ndarray
    decay_margin: float

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        poly = np.zeros(z.shape + (self.coefficients.shape[1],), dtype=complex)
        for k, a in enumerate(self.coefficients):
            poly += np.multiply.outer(z ** k, a)
        return np.exp(self.gamma * z)[..., None] * poly

    def derivative_at_vertex(self, j):
        """D^j Phi(0) computed from the coefficients (forward application)."""
        total = np.zeros(self.coefficients.shape[1], dtype=complex)
        for k in range(min(j, self.coefficients.shape[0] - 1) + 1):
            total += (math.comb(j, k) * math.factorial(k)
                      * self.gamma ** (j - k) * self.coefficients[k])
        return (-1j) ** j * total


def _gamma_admissible(gamma, zeta, cone_angle, orientation):
    rates = []
    for psi in np.linspace(0.0, cone_angle, 9):
        direction = cmath.exp(-1j * orientation * psi)
        rates.append(((gamma - 1j * zeta) * direction).real)
    worst = max(rates)
    return worst < -1e-12, -worst


def localize_traces(traces, cone, orientation=1, zeta=0j, gamma=None):
    """Entire function e^{gamma z} sum a_k z^k matching D^j Phi(0) = d_j.

    ``cone`` is the aperture in radians of the time-side cone, swept with
    ``orientation``.  The triangular system for the a_k is solved by
    forward substitution; gamma is either supplied (and validated) or found
    by a deterministic sweep over magnitudes {1, 2, 4, ...} and a small
    angular fan, accepting the first candidate for which e^{-i zeta z} Phi
    decays on every forward ray of the time-side cone.
    """
    cone_angle = float(cone)
    traces = [np.atleast_1d(np.asarray(d, dtype=complex)) for d in traces]
    if not traces:
        raise ValidationError("need at least one trace")
    dim = traces[0].size
    if any(d.size != dim for d in traces):
        raise ValidationError("traces must share one dimension")
    if gamma is None:
        found = None
        for mag in _GAMMA_MAGNITUDES:
            for theta in _GAMMA_FAN:
                cand = -mag * cmath.exp(1j * theta)
                ok, margin = _gamma_admissible(cand, zeta, cone_angle, orientation)
                if ok:
                    found = (cand, margin)
                    break
            if found:
                break
        if not found:
            raise LocalizationFailureError(
                "no decay rate in the search set makes the localizer decay "
                "on every cone ray"
            )
        gamma, margin = found
    else:
        gamma = complex(gamma)
        ok, margin = _gamma_admissible(gamma, zeta, cone_angle, orientation)
        if not ok:
            raise LocalizationFailureError(
                f"supplied gamma {gamma} does not decay on every cone ray"
            )
    ell = len(traces)
    coeffs = np.zeros((ell, dim), dtype=complex)
    for j in range(ell):
        acc = np.zeros(dim, dtype=complex)
        for k in range(j):
            acc += (math.comb(j, k) * math.factorial(k)
                    * gamma ** (j - k) * coeffs[k])
        # d_j = (-i)^j [ acc + j! a_j ]
        coeffs[j] = (traces[j] / (-1j) ** j - acc) / math.factorial(j)
    return Localization(gamma, coeffs, margin)


@dataclass(frozen=True)
class CertificateReport:
    """Energy rows (psi, energy) and the verdict; ``blown`` holds one
    (psi, reason) pair per ray whose solve or energy failed numerically."""

    rows: tuple
    base_value: float
    max_value: float
    ratio: float
    verdict: str
    blown: tuple = ()


def continuation_certificate(problem, phi, offset=None, n_angles=9,
                             res_tol=RES_TOL, max_iter=MAX_ITER):
    """Solve along rotated rays past an offset and watch the energies.

    For each psi in [0, |phi|] the problem is re-solved along the ray
    e^{-i sign(phi) psi} R + offset and the weighted energy

        sum_j integral_{t >= 0} |e^{-i zeta z} D^j u|_{m-j}^2 dt

    is recorded.  The certificate "holds" when every ray succeeds and the
    sweep maximum stays within CERT_BOUND of the psi = 0 value (a sweep
    whose energies are all 0 has ratio 0, a zero base under a nonzero
    maximum ratio inf, and a blown-up psi = 0 ray base and ratio inf);
    per-ray numerical blow-ups (overflow, residual failures, non-finite
    samples or energies) are recorded as blow-up data, with their reasons
    in ``blown``, rather than raised.  Other
    errors propagate.  ``problem`` is a ConstantProblem, or a
    VariableProblem whose rays are Neumann solves
    (solve_variable with ``res_tol`` and ``max_iter``; the projection cut
    rides along at parameter sector_start of each ray).
    """
    variable = isinstance(problem, VariableProblem)
    const = problem.base if variable else problem
    if const.evaluator is None:
        raise ConfigurationError("certificates need an analytic right-hand-side evaluator")
    if n_angles < 1:
        raise ConfigurationError("certificates need the psi = 0 ray (n_angles >= 1)")
    orientation = 1 if phi >= 0 else -1
    aperture = abs(float(phi))
    offset = const.ray.offset if offset is None else complex(offset)
    rows = []
    blown = []
    for psi in np.linspace(0.0, aperture, n_angles):
        try:
            sub = const.on_ray(Ray(orientation * psi, offset, TIME))
            if variable:
                u = solve_variable(replace(problem, base=sub), res_tol=res_tol,
                                   max_iter=max_iter).u
            else:
                u = solve_const(sub, res_tol=res_tol).u
            value = derivative_energy(u, const.pencil.norm_forms[::-1],
                                      keep=u.grid.nodes >= 0.0)
            if not math.isfinite(value):
                raise NumericalError(f"ray energy is {value}")
        except (NumericalError, np.linalg.LinAlgError) as exc:
            rows.append((float(psi), math.inf))
            blown.append((float(psi), str(exc)))
            continue
        rows.append((float(psi), value))
    base_value = rows[0][1]  # the psi = 0 ray, inf if it blew up
    finite = [v for _, v in rows if np.isfinite(v)]
    max_value = max(finite) if finite else math.inf
    if not math.isfinite(base_value):
        ratio = math.inf
    elif base_value == 0.0:
        # nothing grew if every energy is 0, else unbounded
        ratio = 0.0 if max_value == 0.0 else math.inf
    else:
        ratio = max_value / base_value
    holds = (not blown) and np.isfinite(max_value) and ratio <= CERT_BOUND
    return CertificateReport(
        rows=tuple(rows),
        base_value=base_value,
        max_value=max_value,
        ratio=ratio,
        verdict="holds" if holds else "blow-up",
        blown=tuple(blown),
    )
