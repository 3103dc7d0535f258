"""Rays, cones, grids, and weighted norms along lines in the complex plane.

Everything downstream is built on four primitives.  A Ray is a rotated,
offset copy of the real line; frequency-side rays turn counterclockwise
(points ``offset + e^{i*angle} t``) while time-side rays turn clockwise
(``offset + e^{-i*angle} t``).  A Cone is the double-napped sector swept by
such rays.  A Grid is a uniform sampling of the ray parameter, and a
RayFunction couples samples of a vector-valued function on a ray with the
weight metadata (order ``ell`` and a complex weight number) that define its
weighted norms; the ray's side signs the exponential weight (_log_weight).

Weighted L2 norms use composite trapezoid quadrature over the grid, and
report a tail mass (the integrand at the grid ends relative to its peak) so
truncation shows in the result.  The weighted derivative energy
(derivative_energy, behind the solver's ray energies) takes every
derivative order from one stencil call and uses the rectangle rule over
their common stencil-valid core; with the forms C(ell, j) I it is the
squared H^ell norm.  The L2 norms and the
derivative energy join the exponential weight to the data in log space
(exp_weighted), so overflow surfaces as a structured error instead of inf.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteSampleError, ValidationError, WeightOverflowError
from .stencils import derivative_with_cuts

# exp() overflows near 709.78 for float64; stay clear of it
LOG_OVERFLOW_BOUND = 700.0

TIME = "time"
FREQUENCY = "frequency"


def normalize_angle(psi):
    """Map an angle to the canonical interval [-pi, pi)."""
    out = math.fmod(float(psi) + math.pi, 2.0 * math.pi)
    if out < 0.0:
        out += 2.0 * math.pi
    return out - math.pi


@dataclass(frozen=True)
class Ray:
    """A line ``offset + direction * R`` with side-dependent direction.

    ``side`` resolves the rotation convention: frequency-side rays use
    direction ``e^{i*angle}``, time-side rays ``e^{-i*angle}``.
    """

    angle: float
    offset: complex = 0j
    side: str = FREQUENCY

    def __post_init__(self):
        if self.side not in (TIME, FREQUENCY):
            raise ValidationError(f"unknown ray side {self.side!r}")
        object.__setattr__(self, "angle", normalize_angle(self.angle))
        object.__setattr__(self, "offset", complex(self.offset))

    @property
    def direction(self):
        sign = 1.0 if self.side == FREQUENCY else -1.0
        return cmath.exp(1j * sign * self.angle)

    def points(self, t):
        """Complex points at ray parameters ``t``."""
        return self.offset + self.direction * np.asarray(t)

    def distance(self, z):
        """Distance from a point to the full line carrying the ray."""
        return abs(((complex(z) - self.offset) / self.direction).imag)

    def parameter(self, z):
        """Ray parameter of a point on the ray; rejects off-ray points
        (distance above 1e-9 relative to max(1, |parameter|))."""
        u = (complex(z) - self.offset) / self.direction
        if self.distance(z) > 1e-9 * max(1.0, abs(u)):
            raise ValidationError(f"point {z} is not on the ray (offset {u.imag:.3g})")
        return u.real


@dataclass(frozen=True)
class Cone:
    """Open double-napped cone with vertex, opening angle, and orientation.

    Orientation +1 sweeps counterclockwise from the real direction (local
    angles in (0, angle) mod pi), orientation -1 sweeps clockwise.  With
    angle = pi the cone is the plane slit along the line through the vertex.
    """

    angle: float
    vertex: complex = 0j
    orientation: int = 1

    def __post_init__(self):
        if not 0.0 < self.angle <= math.pi:
            raise ValidationError("cone angle must lie in (0, pi]")
        if self.orientation not in (1, -1):
            raise ValidationError("orientation must be +1 or -1")
        object.__setattr__(self, "vertex", complex(self.vertex))

    def nappe(self, lam):
        """"+" or "-" for a point strictly inside that nappe, else None."""
        turn = self.orientation * cmath.phase(complex(lam) - self.vertex)
        theta = turn % (2 * math.pi)
        if 0.0 < theta < self.angle:
            return "+"
        if math.pi < theta < math.pi + self.angle:
            return "-"
        return None

    def contains(self, lam):
        """Open membership: boundary rays and the vertex are excluded."""
        return self.nappe(lam) is not None

    def contains_closed(self, lam, margin=0.0):
        """Closed membership with an angular safety margin (radians)."""
        lam = complex(lam)
        if abs(lam - self.vertex) <= max(margin, 0.0) * max(1.0, abs(self.vertex)):
            return True
        theta = (self.orientation * cmath.phase(lam - self.vertex)) % math.pi
        return theta <= self.angle + margin or theta >= math.pi - margin

    def ray(self, psi_local, side=FREQUENCY):
        """The ray at local angle ``psi_local`` in [0, angle] through the vertex.

        The Ray's own side convention absorbs the rotation direction, so the
        same signed angle serves both the frequency cone and its time-side
        dual.
        """
        if not 0.0 <= psi_local <= self.angle + 1e-15:
            raise ValidationError("local angle outside [0, cone angle]")
        return Ray(self.orientation * psi_local, self.vertex, side)


@dataclass(frozen=True)
class Disk:
    """Closed disk |z - center| <= radius, used as a spectrum region."""

    center: complex
    radius: float

    def contains_closed(self, lam):
        return abs(complex(lam) - self.center) <= self.radius


@dataclass(frozen=True)
class Grid:
    """Uniform symmetric grid t_k = -T + k * (2T / (N-1)), k = 0..N-1."""

    half_width: float
    count: int

    def __post_init__(self):
        if self.count < 2:
            raise ValidationError("grid needs at least 2 nodes")
        if not self.half_width > 0.0:
            raise ValidationError("grid half-width must be positive")

    @property
    def spacing(self):
        return 2.0 * self.half_width / (self.count - 1)

    @property
    def nodes(self):
        return -self.half_width + self.spacing * np.arange(self.count)

    def trapezoid_weights(self):
        w = np.ones(self.count)
        w[0] = w[-1] = 0.5
        return w


@dataclass(frozen=True)
class RayFunction:
    """Samples of a vector-valued function on a ray, with weight metadata.

    ``values`` has one row per grid node; scalar data may be passed 1-D and
    is stored as a single column.  ``weight_order`` is the polynomial weight
    exponent ell, ``weight_number`` the complex number in the exponential
    weight, Parseval's: |e^{-i zeta z}| on the time side, |e^{i w lam}| on
    the frequency side (the transform pair is an isometry between them).
    """

    ray: Ray
    grid: Grid
    values: np.ndarray
    weight_order: float = 0.0
    weight_number: complex = 0j

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2 or vals.shape[0] != self.grid.count:
            raise ValidationError(
                f"values must have shape ({self.grid.count}, n), got {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            bad = int(np.argwhere(~np.isfinite(vals))[0][0])
            raise NonFiniteSampleError(f"non-finite sample at node {bad}")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "weight_number", complex(self.weight_number))
        object.__setattr__(self, "weight_order", float(self.weight_order))

    @classmethod
    def _adopt(cls, ray, grid, values, weight_order, weight_number):
        """A RayFunction that takes over ``values``, a complex
        (grid.count, n) array nobody else holds: it is made read-only, not
        checked or copied.  The transform passes build their results this
        way, after the one finiteness check of each pass.  The half-line
        projection and the Neumann sweep hand their products between
        passes over this way too: an inf among them fails the next pass's
        overflow check (WeightOverflowError) and a nan its finiteness check
        (NonFiniteSampleError)."""
        out = object.__new__(cls)
        values.flags.writeable = False
        for name, value in (("ray", ray), ("grid", grid), ("values", values),
                            ("weight_order", float(weight_order)),
                            ("weight_number", complex(weight_number))):
            object.__setattr__(out, name, value)
        return out

    def _adopt_values(self, values):
        """with_values for an array as _adopt takes it."""
        return RayFunction._adopt(self.ray, self.grid, values,
                                  self.weight_order, self.weight_number)

    @property
    def dim(self):
        return self.values.shape[1]

    @property
    def points(self):
        return self.ray.points(self.grid.nodes)

    def with_values(self, values):
        return RayFunction(self.ray, self.grid, values,
                           self.weight_order, self.weight_number)


@dataclass(frozen=True)
class NormReport:
    """A norm value together with its truncation diagnostic."""

    value: float
    tail_mass: float


def _quadratic_form(values, form):
    """<H v, v> per node, real and clipped at zero; one GEMM for a form.

    Infs are allowed to propagate: the norm overflow check downstream turns
    them into a structured error.
    """
    with np.errstate(over="ignore"):
        if form is None:
            q = np.sum(np.abs(values) ** 2, axis=1)
        else:
            q = np.real(np.sum(np.conj(values) * (values @ form.T), axis=1))
    return np.maximum(q, 0.0)


def exp_weighted(log_weight, q, points):
    """exp(log_weight) * q for q >= 0, without forming an out-of-range weight.

    Where the weight alone would over- or underflow (|log_weight| past
    LOG_OVERFLOW_BOUND) the product is formed in log space, so a zero (or
    underflowed) q contributes zero whatever its weight, and a huge q keeps
    its product with a tiny weight.  Raises WeightOverflowError naming the
    first node whose product itself exceeds LOG_OVERFLOW_BOUND.
    """
    with np.errstate(divide="ignore"):
        log_total = log_weight + np.log(q)
    if np.any(log_total > LOG_OVERFLOW_BOUND):
        k = int(np.argmax(log_total))
        raise WeightOverflowError(k, points[k], float(log_total[k]))
    out = np.exp(np.minimum(log_weight, LOG_OVERFLOW_BOUND)) * q
    wide = np.abs(log_weight) > LOG_OVERFLOW_BOUND
    if np.any(wide):
        out[wide] = np.exp(log_total[wide])
    return out


def _log_weight(f, order):
    """The log of f's weight at its points, the one place a side signs it:
    2 Im(zeta z), of |e^{-i zeta z}|^2, on the time side and -2 Im(w lam),
    of |e^{i w lam}|^2, on the frequency side (zeta or w is f's weight
    number), plus order * log(1 + |z|^2) for a nonzero ``order``."""
    z = f.points
    sign = 2.0 if f.ray.side == TIME else -2.0
    log_w = sign * np.imag(f.weight_number * z)
    if order:
        log_w += order * np.log1p(np.abs(z) ** 2)
    return log_w


def weighted_l2_report(f, order=None):
    """Weighted L2 norm of a RayFunction plus a tail-mass diagnostic.

    Computes ( integral W(z) (1+|z|^2)^ell |f(z)|^2 |dz| )^(1/2) by
    composite trapezoid along the ray, W the weight of f's side
    (_log_weight) and ell its weight order unless ``order`` is given.
    Raises WeightOverflowError naming the first node whose integrand would
    overflow.
    """
    order = f.weight_order if order is None else float(order)
    integrand = exp_weighted(_log_weight(f, order),
                             _quadratic_form(f.values, None), f.points)
    w = f.grid.trapezoid_weights()
    total = float(np.sum(w * integrand) * f.grid.spacing)
    peak = float(np.max(integrand)) if integrand.size else 0.0
    if peak > 0.0:
        tail = float(max(integrand[0], integrand[-1]) / peak)
    else:
        tail = 0.0
    return NormReport(math.sqrt(max(total, 0.0)), tail)


def derivative_energy(f, forms, keep=None):
    """Weighted derivative energy of a RayFunction along its ray.

    Evaluates

        sum_j integral |e^{-i zeta z} D^j f(z)|^2_{forms[j]} |dz|

    with e^{-i zeta z} the weight of f's side (_log_weight), D the complex
    derivative along the ray (centered differences of accuracy order 8),
    one order j per entry of ``forms`` (None is the identity form; c I
    weights an order by c).  One stencil call returns every order; each is
    summed by the rectangle rule over the one stencil-valid core (where the
    highest order's centered stencil fits), restricted to the boolean node
    mask ``keep`` if given.  The weight joins each quadratic form in log space
    (exp_weighted), so WeightOverflowError is raised only where an
    integrand itself overflows.
    """
    z = f.points
    log_w = _log_weight(f, 0.0)
    # D^j is (-i / direction)^j d^j/dt^j; the factor has modulus 1, so no
    # quadratic form sees it
    derivs, core = derivative_with_cuts(f.values, f.grid.spacing,
                                        range(len(forms)))
    mask = np.zeros(f.grid.count, dtype=bool)
    mask[core] = True
    if keep is not None:
        mask &= keep
    total = 0.0
    for j, form in enumerate(forms):
        q = np.where(mask, _quadratic_form(derivs[..., j], form), 0.0)
        integrand = exp_weighted(log_w, q, z)
        total += float(np.sum(integrand[mask]) * f.grid.spacing)
    return total
