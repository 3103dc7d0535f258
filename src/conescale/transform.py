"""Fourier-Laplace transforms along rotated, offset rays.

The transform pair implemented here maps samples on a time-side ray
``e^{-i psi} R + w`` to samples on the frequency-side ray
``e^{i psi} R + zeta`` and back:

    forward:  Fhat(lam) = e^{-i zeta w} / sqrt(2 pi) * integral e^{-i lam z} F(z) dz
    inverse:  F(z)      = e^{+i zeta w} / sqrt(2 pi) * integral e^{+i z lam} Fhat(lam) dlam

with the normalizing factor chosen so the pair is an isometry between the
weighted L2 spaces (see parseval_check).  The phase kernel separates as

    e^{-i lam z} = e^{-i xi t} * (diagonal factors in xi and t),

and the diagonal factors carry every (psi, zeta, w) dependence.  Grids are
paired commensurately (dxi * dt = 2 pi / M, see dual_grid; other
destination grids are rejected).  With node indices centred on the
symmetric grids this gives the exact integer identity

    xi_j t_k = (pi / 2M) (2j - M + 1)(2k - N + 1),

so exp(-i xi t) is a constant times diagonal phases around one length-M
DFT, each phase exp(-i pi r / 2M) with the integer r reduced mod 4M.  The
sums therefore cost one FFT per transform and carry no argument-rounding
error that grows with N.  On each side of the FFT, the weight exponent,
the DFT phase and the constant prefactor of a node are summed in log space
and applied as one complex factor per node (scaled_values: one exp per
node and one multiply per sample); only nodes whose factor alone would
leave the normal double range are scaled with a power-of-two split.  The discrete forward and inverse are exact
inverses of each other at the nodes (for M >= N), for any sampled data,
which is what the round-trip contract asks for.  The uniform quadrature
weights used here agree with composite trapezoid whenever the integrand has
decayed at the window ends, which the preconditions require.
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, NonFiniteSampleError,
                     WeightOverflowError)
from .geometry import (FREQUENCY, LOG_OVERFLOW_BOUND, TIME, Grid, Ray,
                       RayFunction, weighted_l2_norm)

_SQRT2PI = math.sqrt(2.0 * math.pi)
_LN2 = math.log(2.0)
# exp(x) is a normal double for |x| <= 700
_LOG_NORMAL = 700.0


def dual_grid(grid, count=None):
    """Frequency grid commensurate with `grid`: dxi * dt = 2 pi / count.

    Commensurate spacing makes the discrete transform pair unitary (up to
    the isometry factor), hence round trips exact at the nodes.
    """
    count = grid.count if count is None else int(count)
    dxi = 2.0 * math.pi / (count * grid.spacing)
    return Grid(half_width=0.5 * (count - 1) * dxi, count=count)


def _quarter_log_phase(r, count):
    """-i pi r / (2 count) for integers r, reduced mod 4 count first."""
    return -0.5j * math.pi / count * np.mod(r, 4 * count)


@functools.lru_cache(maxsize=32)
def _dft_phases(src_count, dst_count):
    """Log-phases (const, row, col) such that, for commensurate grids,

    exp(-i xi_j t_k) = exp(const + row_j + col_k) * exp(-2 pi i j k / M).

    Cached per (N, M); the arrays are read-only.
    """
    n, m = src_count, dst_count
    const = complex(_quarter_log_phase((m - 1) * (n - 1), m))
    row = _quarter_log_phase(-2 * (n - 1) * np.arange(m), m)
    col = _quarter_log_phase(-2 * (m - 1) * np.arange(n), m)
    row.flags.writeable = False
    col.flags.writeable = False
    return const, row, col


def _apply_kernel(src_grid, dst_grid, x, pre=0.0, post=0.0):
    """exp(post_j) * sum_k exp(-i xi_j t_k) exp(pre_k) x_k for commensurate
    grids, via one FFT.

    ``pre`` (one entry per source node) and ``post`` (one per destination
    node) are log factors; each is folded with the DFT phases into one
    scaled_values pass.  Rows of x beyond M fold onto k mod M; fewer than M
    rows are zero-padded.
    """
    n, m = src_grid.count, dst_grid.count
    const, row, col = _dft_phases(n, m)
    y = scaled_values(x, col + pre)
    if n > m:
        y = np.concatenate([y, np.zeros(((-n) % m,) + y.shape[1:], dtype=complex)])
        y = y.reshape((-1, m) + y.shape[1:]).sum(axis=0)
    return scaled_values(np.fft.fft(y, n=m, axis=0), const + row + post)


def _apply_kernel_adjoint(src_grid, dst_grid, y, pre=0.0, post=0.0):
    """exp(post_k) * sum_j exp(+i t_k xi_j) exp(pre_j) y_j for commensurate
    grids, via one FFT; ``pre`` lives on the frequency nodes, ``post`` on
    the time nodes."""
    n, m = src_grid.count, dst_grid.count
    const, row, col = _dft_phases(n, m)
    sums = np.fft.ifft(scaled_values(y, pre - row), axis=0, norm="forward")
    return scaled_values(sums[np.arange(n) % m], post - const - col)


def _require_finite(values):
    bad = ~np.isfinite(values)
    if np.any(bad):
        index = tuple(int(i) for i in np.argwhere(bad)[0])
        raise NonFiniteSampleError(
            f"non-finite sample {values[index]} at index {index}")


def scaled_values(values, exponents):
    """values * exp(exponents), one exponent per row (the leading axes).

    Each row is multiplied by its factor exp(exponents[k]), one exp per
    row.  Rows whose factor alone would leave the normal double range are
    scaled with a power-of-two split of factor and values (frexp/ldexp), so
    every representable product comes out right however large or small its
    factors are.  Zeros stay zeros whatever their exponent, a product that
    overflows is inf, and non-finite values raise NonFiniteSampleError.
    """
    values = np.asarray(values, dtype=complex)
    exponents = np.asarray(exponents, dtype=complex)
    _require_finite(values)
    pad = (1,) * (values.ndim - exponents.ndim)
    wide = np.abs(exponents.real) > _LOG_NORMAL
    out = values * np.exp(np.where(wide, 0.0, exponents)).reshape(exponents.shape + pad)
    if np.any(wide):
        v = values[wide]
        # past +-2000 every nonzero product over- or underflows either way;
        # the clip keeps the split factor finite, so zeros stay zeros
        re = np.clip(exponents.real[wide], -2000.0, 2000.0)
        p = np.rint(re / _LN2)
        unit = np.exp(re - p * _LN2 + 1j * exponents.imag[wide]).reshape((-1,) + pad)
        _, e = np.frexp(np.maximum(np.abs(v.real), np.abs(v.imag)))
        y = (np.ldexp(v.real, -e) + 1j * np.ldexp(v.imag, -e)) * unit
        shift = e + p.astype(int).reshape((-1,) + pad)
        out[wide] = np.ldexp(y.real, shift) + 1j * np.ldexp(y.imag, shift)
    return out


def exp_sum(values, exponents, points=None):
    """sum_k exp(exponents[:, k]) * values[k, :] as one exp and one GEMM.

    ``values`` is (K, C) and ``exponents`` (P, K); the result is (P, C).
    Each node's values are divided by a power of two near their largest
    component magnitude and its log is folded into the node's exponents, so
    every exp() stays representable whenever the largest product does.
    All-zero nodes are dropped first: their exponents are unconstrained.
    Raises WeightOverflowError naming the node (and its entry of
    ``points``, if given) whose largest product would exceed
    LOG_OVERFLOW_BOUND, and NonFiniteSampleError on non-finite values.

    Precision limit: a component more than about 2^1000 below its node's
    largest one falls into the subnormal range after the division and
    loses relative accuracy (a per-element log-space product does not).
    """
    values = np.asarray(values, dtype=complex)
    exponents = np.asarray(exponents, dtype=complex)
    _require_finite(values)
    top = np.max(np.maximum(np.abs(values.real), np.abs(values.imag)), axis=1)
    keep = np.flatnonzero(top > 0.0)
    if keep.size == 0:
        return np.zeros((exponents.shape[0], values.shape[1]), dtype=complex)
    _, e = np.frexp(top[keep])
    shift = e[:, None]
    unit = (np.ldexp(values.real[keep], -shift)
            + 1j * np.ldexp(values.imag[keep], -shift))
    log_scale = e * _LN2
    expo = exponents[:, keep] + log_scale
    combined = expo.real + np.log(np.max(np.abs(unit), axis=1))
    worst = float(np.max(combined))
    if worst > LOG_OVERFLOW_BOUND:
        k = int(keep[int(np.argmax(combined)) % keep.size])
        raise WeightOverflowError(k, None if points is None else points[k],
                                  worst)
    return np.exp(expo) @ unit


@dataclass(frozen=True)
class TransformContext:
    """Grids plus the (psi, zeta, w) parameters of one transform pair."""

    psi: float
    zeta: complex = 0j
    w: complex = 0j
    src_grid: Grid = None
    dst_grid: Grid = None

    def __post_init__(self):
        if self.src_grid is None:
            raise ConfigurationError("transform context needs a source grid")
        if self.dst_grid is None:
            object.__setattr__(self, "dst_grid", dual_grid(self.src_grid))
        object.__setattr__(self, "zeta", complex(self.zeta))
        object.__setattr__(self, "w", complex(self.w))
        tol = 1.0 + 1e-9
        if self.dst_grid.spacing > tol * math.pi / self.src_grid.half_width:
            raise ConfigurationError(
                "frequency spacing violates the Nyquist bound pi / T for the "
                "source grid extent"
            )
        if self.src_grid.spacing > tol * math.pi / self.dst_grid.half_width:
            raise ConfigurationError(
                "time spacing violates the Nyquist bound pi / T for the "
                "frequency grid extent"
            )
        m = self.dst_grid.count
        if abs(self.dst_grid.spacing * self.src_grid.spacing * m
               - 2.0 * math.pi) > 1e-12 * 2.0 * math.pi:
            raise ConfigurationError(
                "frequency grid is not commensurate with the source grid: "
                "dxi * dt must equal 2 pi / M (see dual_grid)"
            )

    @property
    def time_ray(self):
        return Ray(self.psi, self.w, TIME)

    @property
    def frequency_ray(self):
        return Ray(self.psi, self.zeta, FREQUENCY)

    # separable pieces of Im(lam * z) = a*xi + b*t + c on the two grids
    def _phase_slopes(self):
        dir_f = self.frequency_ray.direction
        dir_t = self.time_ray.direction
        a = (dir_f * self.w).imag
        b = (self.zeta * dir_t).imag
        c = (self.zeta * self.w).imag
        return a, b, c

    def _check_pair_overflow(self, sign, xi, t, xi_log, t_log):
        # |e^{-i lam z}| = e^{+Im(lam z)} on the forward pass (sign +1),
        # |e^{+i z lam}| = e^{-Im(lam z)} on the inverse pass (sign -1)
        a, b, c = self._phase_slopes()
        xi_part = sign * a * xi + xi_log
        t_part = sign * b * t + t_log
        worst = np.max(xi_part) + np.max(t_part) + sign * c
        if worst > LOG_OVERFLOW_BOUND:
            i = int(np.argmax(xi_part))
            k = int(np.argmax(t_part))
            raise WeightOverflowError(
                (i, k),
                (self.frequency_ray.points(xi[i]), self.time_ray.points(t[k])),
                float(worst),
            )

    def _data_log(self, values):
        mag = np.max(np.abs(values), axis=1)
        with np.errstate(divide="ignore"):
            return np.where(mag > 0, np.log(np.where(mag > 0, mag, 1.0)), -np.inf)

    def forward(self, f):
        """Time side to frequency side.

        Returns samples of the transform on the frequency ray; the weight
        order is carried over and the frequency-side weight number is w.
        """
        self._require_ray(f, self.time_ray)
        t = self.src_grid.nodes
        xi = self.dst_grid.nodes
        self._check_pair_overflow(1.0, xi, t, 0.0, self._data_log(f.values))
        dir_t = self.time_ray.direction
        dir_f = self.frequency_ray.direction
        log_prefactor = (cmath.log(self.src_grid.spacing / _SQRT2PI * dir_t)
                         - 2j * self.zeta * self.w)
        out = _apply_kernel(self.src_grid, self.dst_grid, f.values,
                            pre=-1j * self.zeta * dir_t * t,
                            post=-1j * self.w * dir_f * xi + log_prefactor)
        return RayFunction(self.frequency_ray, self.dst_grid, out,
                           f.weight_order, self.w)

    def inverse(self, fhat):
        """Frequency side back to the time side (mirror of forward)."""
        self._require_ray(fhat, self.frequency_ray)
        t = self.src_grid.nodes
        xi = self.dst_grid.nodes
        self._check_pair_overflow(-1.0, xi, t, self._data_log(fhat.values), 0.0)
        dir_t = self.time_ray.direction
        dir_f = self.frequency_ray.direction
        log_prefactor = (cmath.log(self.dst_grid.spacing / _SQRT2PI * dir_f)
                         + 2j * self.zeta * self.w)
        out = _apply_kernel_adjoint(self.src_grid, self.dst_grid, fhat.values,
                                    pre=1j * self.w * dir_f * xi,
                                    post=1j * self.zeta * dir_t * t + log_prefactor)
        return RayFunction(self.time_ray, self.src_grid, out,
                           fhat.weight_order, self.zeta)

    def pullback_spectrum(self, f):
        """Fourier transform of the weighted pullback of a time-side function.

        Returns (xi, spectrum, dxi) where spectrum samples
        (2 pi)^{-1/2} * integral e^{-i xi t} e^{-i zeta z(t)} F(z(t)) dt
        on the real frequency parameters of the destination grid.
        """
        self._require_ray(f, self.time_ray)
        t = self.src_grid.nodes
        dir_t = self.time_ray.direction
        b = (self.zeta * dir_t).imag
        log_data = self._data_log(f.values)
        worst = np.max(b * t + log_data) + (self.zeta * self.w).imag
        if worst > LOG_OVERFLOW_BOUND:
            k = int(np.argmax(b * t + log_data))
            raise WeightOverflowError(k, self.time_ray.points(t[k]), float(worst))
        spectrum = _apply_kernel(self.src_grid, self.dst_grid, f.values,
                                 pre=-1j * self.zeta * (dir_t * t + self.w),
                                 post=math.log(self.src_grid.spacing / _SQRT2PI))
        return self.dst_grid.nodes, spectrum, self.dst_grid.spacing

    def evaluate_continuation(self, fhat, z_points):
        """Inverse transform evaluated at arbitrary complex points.

        Used to analytically continue a solution off its ray from the
        frequency-side data.  Exponents are combined with the data
        magnitudes in log space, so growing phase factors are harmless
        whenever the products stay representable.
        """
        self._require_ray(fhat, self.frequency_ray)
        lam = fhat.points
        expo = 1j * np.outer(np.asarray(z_points, dtype=complex), lam)
        prefactor = (self.dst_grid.spacing / _SQRT2PI
                     * self.frequency_ray.direction
                     * np.exp(1j * self.zeta * self.w))
        return exp_sum(fhat.values, expo, lam) * prefactor

    def _require_ray(self, f, ray):
        got = f.ray
        if got.side != ray.side or abs(got.direction - ray.direction) > 1e-12 \
                or abs(got.offset - ray.offset) > 1e-12 * max(1.0, abs(ray.offset)):
            raise ConfigurationError(
                f"ray function lives on {got}, context expects {ray}"
            )


@dataclass(frozen=True)
class ParsevalReport:
    lhs: float
    rhs: float
    rel_err: float


def parseval_check(ctx, f):
    """Isometry check: frequency-side and time-side weighted norms agree.

    The frequency side carries the weight number w, the time side -zeta
    (the two sides swap roles under the transform); both norms are order 0.
    """
    fhat = ctx.forward(f)
    lhs = weighted_l2_norm(fhat, order=0.0, number=ctx.w)
    rhs = weighted_l2_norm(f, order=0.0, number=-ctx.zeta)
    denom = max(lhs, rhs)
    rel = abs(lhs - rhs) / denom if denom > 0.0 else 0.0
    return ParsevalReport(lhs, rhs, rel)


def apply_derivative_rule(ctx, fhat, j, tail_tol=1e-8):
    """Inverse transform of lam^j * Fhat, realizing D^j on the time side.

    Refuses to proceed when lam^j * Fhat has not decayed at the frequency
    window ends, since the quadrature would silently truncate it.
    """
    j = int(j)
    if j < 0:
        raise ValueError("derivative order must be nonnegative")
    lam = fhat.points
    scaled = fhat.values * (lam ** j)[:, None]
    peak = float(np.max(np.abs(scaled)))
    if peak > 0.0:
        edge = float(max(np.max(np.abs(scaled[0])), np.max(np.abs(scaled[-1]))))
        if edge > tail_tol * peak:
            raise ConfigurationError(
                f"lam^{j} * Fhat has tail mass {edge / peak:.2e} at the "
                f"frequency window ends; enlarge the grid"
            )
    return ctx.inverse(fhat.with_values(scaled))
