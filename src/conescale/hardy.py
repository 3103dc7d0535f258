"""Numerical certificates for Hardy-class behavior over cones.

A ConeFunction samples an analytic candidate on a fan of rays through a
cone.  The operations here never prove membership (a finite scan cannot);
they certify consistency: per-ray weighted norms stay uniformly bounded
relative to the boundary norms (membership_scan), the function is
reproduced from its boundary data by a Cauchy contour integral
(cauchy_reconstruct), half-line projections behave like projections
(project_halfline and friends), and support on a half-line corresponds to
bounded norms on lines sweeping a half-plane (paley_wiener_check).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, IllConditionedKernelError,
                     ValidationError, WeightOverflowError)
from .geometry import FREQUENCY, TIME, Cone, RayFunction, weighted_l2_report
from .transform import TransformContext, _read_only, exp_sum

RATIO_BOUND = 10.0
PW_BOUND = 1.5
# a norm integrand that has not decayed to this fraction of its peak by the
# grid ends is treated as divergent, not merely inaccurate
DIVERGENCE_TAIL = 1e-6
DIST_MIN_FACTOR = 5.0


@dataclass(frozen=True)
class ConeFunction:
    """Per-angle ray samples of a function on a frequency-side cone."""

    cone: Cone
    angles: tuple
    rays: tuple
    weight_order: float = 0.0
    weight_number: complex = 0j

    def __post_init__(self):
        angles = tuple(float(a) for a in self.angles)
        if len(angles) != len(self.rays):
            raise ValidationError("need one ray function per angle")
        if sorted(angles) != list(angles):
            raise ValidationError("angle grid must be sorted")
        if abs(angles[0]) > 1e-12 or abs(angles[-1] - self.cone.angle) > 1e-9:
            raise ValidationError("angle grid must include both boundary angles")
        dims = {rf.dim for rf in self.rays}
        if len(dims) != 1:
            raise ValidationError("all rays must share the value dimension")
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "rays", tuple(self.rays))
        object.__setattr__(self, "weight_number", complex(self.weight_number))

    @classmethod
    def from_callable(cls, cone, func, grid, n_angles=7,
                      weight_order=0.0, weight_number=0j):
        """Sample an analytic callable on n_angles rays through the cone."""
        angles = np.linspace(0.0, cone.angle, n_angles)
        rays = []
        for psi in angles:
            ray = cone.ray(psi, FREQUENCY)
            vals = func(ray.points(grid.nodes))
            rays.append(RayFunction(ray, grid, vals, weight_order, weight_number))
        return cls(cone, tuple(angles), tuple(rays), weight_order, weight_number)

    @property
    def boundary(self):
        return self.rays[0], self.rays[-1]


@dataclass(frozen=True)
class MembershipReport:
    per_angle_norms: tuple
    sup_norm: float
    boundary_norm_sum: float
    ratio: float
    verdict: str
    diagnostics: tuple = ()


def membership_scan(f):
    """Scan per-angle weighted norms and compare to the boundary norm sum.

    The verdict is only ever "member-consistent on this grid": rays whose
    integrand overflows or has not decayed inside the window count as
    divergent and force "violated"; otherwise the sup over the sampled
    angles must stay within RATIO_BOUND times the boundary norm sum.
    """
    if len(f.angles) < 5:
        raise ConfigurationError("membership scan needs at least 5 angles")
    norms = []
    diagnostics = []
    divergent = False
    for psi, rf in zip(f.angles, f.rays):
        try:
            rep = weighted_l2_report(rf)
        except WeightOverflowError as exc:
            norms.append(math.inf)
            diagnostics.append(f"psi={psi:.6g}: weight overflow ({exc})")
            divergent = True
            continue
        norms.append(rep.value)
        if rep.tail_mass > DIVERGENCE_TAIL:
            diagnostics.append(
                f"psi={psi:.6g}: integrand tail mass {rep.tail_mass:.2e}, "
                f"ray norm divergent on this window"
            )
            divergent = True
    sup_norm = max(norms)
    boundary_sum = norms[0] + norms[-1]
    if boundary_sum > 0.0:
        ratio = sup_norm / boundary_sum
    else:
        ratio = 0.0 if sup_norm == 0.0 else math.inf
    ok = (not divergent) and np.isfinite(sup_norm) and ratio <= RATIO_BOUND
    return MembershipReport(
        per_angle_norms=tuple(norms),
        sup_norm=sup_norm,
        boundary_norm_sum=boundary_sum,
        ratio=ratio,
        verdict="member-consistent" if ok else "violated",
        diagnostics=tuple(diagnostics),
    )


@dataclass(frozen=True)
class CauchyResult:
    value: np.ndarray
    tail_estimate: float


def cauchy_reconstruct(f, lam, s=0, eta=None):
    """Recover f(lam) from its boundary-ray samples by a contour integral.

    Integrates the kernel e^{i w (mu - lam)} (mu - eta)^s / (2 pi i
    (lam - eta)^s (mu - lam)) against the boundary data of the half-cone
    containing lam, oriented counterclockwise around it.  ``s`` must be an
    integer <= the weight order (the kernel gains |mu|^s decay); for s != 0
    ``eta`` must lie strictly inside the opposite half-cone.  A point within
    DIST_MIN_FACTOR node spacings of a boundary ray is refused.  Truncation
    at the grid extent is summarized in the returned tail estimate.
    """
    lam = complex(lam)
    cone = f.cone
    w = f.weight_number
    if not float(s).is_integer():
        raise ValidationError("only integer kernel orders are supported")
    s = int(s)
    if s > f.weight_order + 1e-12:
        raise ValidationError("kernel order s must not exceed the weight order")
    nappe = cone.nappe(lam)
    if nappe is None:
        raise ValidationError("reconstruction point is not strictly inside the cone")
    if s != 0:
        if eta is None:
            raise ValidationError("s != 0 needs the auxiliary point eta")
        if cone.nappe(eta) != ("-" if nappe == "+" else "+"):
            raise ValidationError("eta must lie strictly inside the opposite half-cone")
    rf0, rf1 = f.boundary
    grid = rf0.grid
    spacing = grid.spacing
    # the kernel's near-singularity 1/(mu - lam) must stay resolved
    for rf in (rf0, rf1):
        if rf.ray.distance(lam) < DIST_MIN_FACTOR * spacing:
            raise IllConditionedKernelError(
                f"point {lam} is within {DIST_MIN_FACTOR} node spacings of a "
                f"boundary ray"
            )
    sigma0 = (1 if nappe == "+" else -1) * cone.orientation
    total = np.zeros(rf0.dim, dtype=complex)
    tail = 0.0
    for rf, sigma in ((rf0, sigma0), (rf1, -sigma0)):
        contrib, edge_tail = _edge_quadrature(rf, lam, s, eta, w, nappe, sigma)
        total += contrib
        tail += edge_tail
    return CauchyResult(total, tail)


def _edge_quadrature(rf, lam, s, eta, w, nappe, sigma):
    """One boundary edge of the Cauchy contour, outward-oriented times sigma."""
    t = rf.grid.nodes
    keep = t >= 0.0 if nappe == "+" else t <= 0.0
    tt = t[keep]
    order = np.argsort(np.abs(tt))
    tt = tt[order]
    mu = rf.ray.points(tt)
    vals = rf.values[keep][order]
    kernel_log = 1j * w * (mu - lam)
    if s != 0:
        kernel_log = kernel_log + s * (np.log(mu - eta) - np.log(lam - eta))
    base = 1.0 / (2j * math.pi * (mu - lam))
    weights = np.full(tt.size, rf.grid.spacing)
    # trapezoid from a vertex node; without one the samples sit at
    # (k + 1/2) h, and the midpoint rule takes them at full weight
    if abs(tt[0]) <= 0.25 * rf.grid.spacing:
        weights[0] *= 0.5
    weights[-1] *= 0.5
    # row 0 sums the weighted integrand; row 1 keeps the far end alone for
    # a crude truncation diagnostic, |integrand| there times |t_end|
    exponents = np.full((2, tt.size), -np.inf, dtype=complex)
    exponents[0] = kernel_log + np.log(weights)
    exponents[1, -1] = kernel_log[-1]
    total, last = exp_sum(vals * base[:, None], exponents, mu)
    contrib = sigma * rf.ray.direction * total
    tail = float(np.max(np.abs(last))) * abs(tt[-1])
    return contrib, tail


def halfline_projection(F, s, eta=None, v=0j, ctx=None, extra_power=0,
                        fhat=None):
    """P^s cutting a time-side ray function to the forward half-line past v.

    s = 0 is exactly the node indicator of {t >= t_v}.  For other integer s
    the operator is realized in its factored form: divide the transform by
    (lam - eta)^s, cut with the indicator, multiply back; ``extra_power``
    additionally multiplies by lam^extra_power on the way back (used to fold
    a derivative into the same pass).  A caller that holds the transform of
    F already (``fhat``, as ctx.forward(F) would give it) saves the first of
    the four passes.  The mask and the frequency-side factors depend on the
    context, s, eta, v and extra_power alone; they are built on first use
    and kept as long as the context (_cut_plan).
    """
    if F.ray.side != TIME:
        raise ValidationError("half-line projections act on time-side ray functions")
    if not float(s).is_integer():
        raise ValidationError(f"unsupported projection order {s}: must be an integer")
    s = int(s)
    t_v = F.ray.parameter(v)
    if s == 0 and extra_power == 0:
        return F.with_values(np.where(_past(F.grid, t_v)[:, None], F.values, 0.0))
    if s != 0 and eta is None:
        raise ValidationError("s != 0 needs the auxiliary point eta")
    ctx = TransformContext.of(F) if ctx is None else ctx
    mask, before, after = _cut_plan(ctx, s, eta, t_v, extra_power)
    if fhat is None:
        fhat = ctx.forward(F)
    if before is not None:
        fhat = fhat._adopt_values(fhat.values * before[:, None])
    g = ctx.inverse(fhat)
    hhat = ctx.forward(g._adopt_values(np.where(mask[:, None], g.values, 0.0)))
    return ctx.inverse(hhat._adopt_values(hhat.values * after[:, None]))


def _past(grid, t_v):
    """The node indicator of {t >= t_v}."""
    return grid.nodes >= t_v - 1e-12 * max(1.0, abs(t_v))


def _cut_plan(ctx, s, eta, t_v, extra_power):
    """(mask, before, after) of halfline_projection on one context.

    ``mask`` is the node indicator of {t >= t_v}, ``before`` the factor
    (lam - eta)^s on the frequency nodes (None for s = 0) and ``after`` the
    factor lam^extra_power / (lam - eta)^s.  Built once per context and
    (s, eta, t_v, extra_power), with eta's position off the frequency ray
    checked then; they are kept in the context's dict of cut plans, and
    the arrays are read-only.
    """
    plans = ctx._cuts
    key = (s, eta, t_v, extra_power)
    if key not in plans:
        lam = ctx.frequency_points
        before = None
        after = np.ones_like(lam)
        if s != 0:
            if ctx.frequency_ray.distance(eta) < 1e-9:
                raise ValidationError("eta must lie off the frequency-side ray")
            before = (lam - eta) ** s
            after = after / before
        if extra_power:
            after = after * lam ** extra_power
        plans[key] = tuple(None if a is None else _read_only(a)
                           for a in (_past(ctx.src_grid, t_v), before, after))
    return plans[key]


def project_halfline(F, s, eta=None, v=0j, ctx=None):
    """Public half-line projection, restricted to integer orders s <= 0.

    Positive fractional orders would need branch cuts of (lam - eta)^s;
    only the integer, nonpositive range is part of the supported surface.
    """
    if not float(s).is_integer() or s > 0:
        raise ValidationError(f"unsupported projection order {s}: need integer s <= 0")
    return halfline_projection(F, int(s), eta=eta, v=v, ctx=ctx)


@dataclass(frozen=True)
class IdempotenceReport:
    max_deviation: float
    first_norm: float


def projection_idempotence_check(F, s, r, eta, v=0j):
    """Check P^r P^s = P^s (r <= s) on concrete data; reports the gap."""
    if r > s:
        raise ValidationError("idempotence requires r <= s")
    ctx = TransformContext.of(F)
    first = project_halfline(F, s, eta=eta, v=v, ctx=ctx)
    second = project_halfline(first, r, eta=eta, v=v, ctx=ctx)
    dev = float(np.max(np.abs(second.values - first.values)))
    return IdempotenceReport(dev, float(np.max(np.abs(first.values))))


@dataclass(frozen=True)
class PaleyWienerReport:
    support_leakage: float
    ray_norm_table: tuple
    verdict: str
    opposite_verdict: str


def paley_wiener_check(F, side):
    """Support on a half-line versus analyticity in a half-plane.

    For ``side="backward-support"`` the samples should vanish for t > 0
    and the transform should have uniformly bounded norms on lines shifted
    by up to 2 into the upper half-plane (the forward case mirrors this).
    The report carries both sweeps: the predicted side must stay within
    PW_BOUND of the boundary norm, the opposite side is expected to blow
    past it; overflow on the opposite side counts as blow-up data.
    """
    if side not in ("backward-support", "forward-support"):
        raise ValidationError(f"unknown side {side!r}")
    if F.ray.side != TIME:
        raise ValidationError("support checks act on time-side ray functions")
    ctx = TransformContext.of(F)
    t = F.grid.nodes
    mass = np.sum(np.abs(F.values) ** 2, axis=1)
    wrong = t > 0.0 if side == "backward-support" else t < 0.0
    total = float(np.sum(mass))
    leakage = math.sqrt(float(np.sum(mass[wrong])) / total) if total > 0 else 0.0
    sign = 1.0 if side == "backward-support" else -1.0
    table = []
    norms = {+1: [], -1: []}
    for direction in (+1.0, -1.0):
        for d in (0.0, 0.25, 0.5, 0.75, 1.5, 2.0):
            eta = ctx.zeta + 1j * sign * direction * d * ctx.frequency_ray.direction
            shifted = TransformContext(ctx.psi, eta, ctx.w, ctx.src_grid)
            try:
                fhat = shifted.forward(F)
                norm = weighted_l2_report(fhat, order=0.0, number=ctx.w).value
            except WeightOverflowError:
                norm = math.inf
            half = "predicted" if direction > 0 else "opposite"
            table.append((half, float(d), norm))
            norms[int(direction)].append(norm)
    boundary = norms[+1][0] if norms[+1] else 0.0
    scale = max(boundary, 1e-300)
    bounded = all(n <= PW_BOUND * scale for n in norms[+1])
    rejected = any(not np.isfinite(n) or n > PW_BOUND * scale for n in norms[-1])
    consistent = bounded and leakage < 1e-8
    return PaleyWienerReport(
        support_leakage=leakage,
        ray_norm_table=tuple(table),
        verdict="consistent" if consistent else "inconsistent",
        opposite_verdict="correctly-rejected" if rejected else "not-rejected",
    )
