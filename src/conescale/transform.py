"""Fourier-Laplace transforms along rotated, offset rays.

The transform pair implemented here maps samples on a time-side ray
``e^{-i psi} R + w`` to samples on the frequency-side ray
``e^{i psi} R + zeta`` and back:

    forward:  Fhat(lam) = e^{-i zeta w} / sqrt(2 pi) * integral e^{-i lam z} F(z) dz
    inverse:  F(z)      = e^{+i zeta w} / sqrt(2 pi) * integral e^{+i z lam} Fhat(lam) dlam

with the normalizing factor chosen so the pair is an isometry between the
weighted L2 spaces (see parseval_check).  The phase kernel separates as

    e^{-i lam z} = e^{-i xi t} * (diagonal factors in xi and t),

and the diagonal factors carry every (psi, zeta, w) dependence.  The
frequency grid is always the dual of the time grid (dual_grid: N nodes
with dxi * dt = 2 pi / N).  With node indices centred on the symmetric
grids this gives the exact integer identity

    xi_j t_k = (pi / 2N) (2j - N + 1)(2k - N + 1),

so exp(-i xi t) is a constant times diagonal phases around one length-N
DFT, each phase exp(-i pi r / 2N) with the integer r reduced mod 4N.  The
sums therefore cost one FFT per transform and carry no argument-rounding
error that grows with N.  On each side of the FFT, the weight exponent,
the DFT phase and the constant prefactor of a node are summed in log space
into one complex factor per node; only nodes whose factor alone would
leave the normal double range are scaled with a power-of-two split.  These
factors depend on (psi, zeta, w) and the grids alone, so each context
builds them once, on the first forward or inverse call, and keeps them with
its nodes and rays in a plan (as an FFTW plan keeps its twiddle factors); every
call then costs one multiply per sample on each side of the FFT, while the
checks on the data still run per call.  The discrete forward and inverse
are exact inverses of each other at the nodes, for any sampled data,
which is what the round-trip contract asks for.  The uniform quadrature
weights used here agree with composite trapezoid whenever the integrand
has decayed at the window ends, which the preconditions require.
"""

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (ConfigurationError, NonFiniteSampleError,
                     WeightOverflowError)
from .geometry import (FREQUENCY, LOG_OVERFLOW_BOUND, TIME, Grid, Ray,
                       RayFunction, weighted_l2_norm)

_SQRT2PI = math.sqrt(2.0 * math.pi)
_LN2 = math.log(2.0)
# exp(x) is a normal double for |x| <= 700
_LOG_NORMAL = 700.0
# evaluate_continuation forms at most this many exponent entries (8 MiB)
# at once
_CONTINUATION_ENTRIES = 1 << 19


def dual_grid(grid):
    """Frequency grid of the transforms on `grid`: N nodes with
    dxi * dt = 2 pi / N.

    This spacing makes the discrete transform pair unitary (up to the
    isometry factor), hence round trips exact at the nodes.
    """
    count = grid.count
    dxi = 2.0 * math.pi / (count * grid.spacing)
    return Grid(half_width=0.5 * (count - 1) * dxi, count=count)


def _quarter_log_phase(r, count):
    """-i pi r / (2 count) for integers r, reduced mod 4 count first."""
    return -0.5j * math.pi / count * np.mod(r, 4 * count)


@functools.lru_cache(maxsize=32)
def _dft_phases(count):
    """Log-phases (const, phase) such that, for a grid and its dual,

    exp(-i xi_j t_k) = exp(const + phase_j + phase_k) * exp(-2 pi i j k / N).

    Cached per N; the array is read-only.
    """
    const = complex(_quarter_log_phase((count - 1) ** 2, count))
    phase = _quarter_log_phase(-2 * (count - 1) * np.arange(count), count)
    return const, _read_only(phase)


def _kernel_factors(count, pre=0.0, post=0.0):
    """Row factors (before, after the FFT) of _apply_kernel.

    ``pre`` (one log factor per time node) and ``post`` (one per frequency
    node) are folded with the DFT phases, so that the kernel computes
    exp(post_j) * sum_k exp(-i xi_j t_k) exp(pre_k) x_k.
    """
    const, phase = _dft_phases(count)
    return _row_factors(phase + pre), _row_factors(const + phase + post)


def _adjoint_factors(count, pre=0.0, post=0.0):
    """Row factors (before, after the FFT) of _apply_kernel_adjoint, which
    then computes exp(post_k) * sum_j exp(+i t_k xi_j) exp(pre_j) y_j;
    ``pre`` lives on the frequency nodes, ``post`` on the time nodes."""
    const, phase = _dft_phases(count)
    return _row_factors(pre - phase), _row_factors(post - const - phase)


def _apply_kernel(x, pre, post):
    """The sums of _kernel_factors on a grid and its dual, via one FFT.

    x must be finite (RayFunction values are); a non-finite FFT sum raises
    NonFiniteSampleError.
    """
    y = np.fft.fft(_apply_factors(x, pre), axis=0)
    return _apply_factors(_require_finite(y), post)


def _apply_kernel_adjoint(y, pre, post):
    """The sums of _adjoint_factors on a grid and its dual, via one FFT."""
    sums = np.fft.ifft(_apply_factors(y, pre), axis=0, norm="forward")
    return _apply_factors(_require_finite(sums), post)


def _require_finite(values):
    bad = ~np.isfinite(values)
    if np.any(bad):
        index = tuple(int(i) for i in np.argwhere(bad)[0])
        raise NonFiniteSampleError(
            f"non-finite sample {values[index]} at index {index}")
    return values


def _read_only(array):
    array.flags.writeable = False
    return array


class _RowFactors(NamedTuple):
    """exp(exponents) split for _apply_factors (see _row_factors)."""

    normal: np.ndarray  # exp(exponent) per row, 1 on wide rows
    wide: np.ndarray    # rows whose factor leaves the normal double range
    unit: np.ndarray    # wide rows: exp(exponent - shift * ln 2)
    shift: np.ndarray   # wide rows: the power of two split off


def _row_factors(exponents):
    """The factors exp(exponents) of scaled_values, one per row, built once
    and applicable to any number of value arrays; the arrays are read-only.
    """
    exponents = np.asarray(exponents, dtype=complex)
    wide = np.abs(exponents.real) > _LOG_NORMAL
    normal = np.exp(np.where(wide, 0.0, exponents))
    # past +-2000 every nonzero product over- or underflows either way;
    # the clip keeps the split factor finite, so zeros stay zeros
    re = np.clip(exponents.real[wide], -2000.0, 2000.0)
    p = np.rint(re / _LN2)
    unit = np.exp(re - p * _LN2 + 1j * exponents.imag[wide])
    return _RowFactors(*map(_read_only, (normal, wide, unit, p.astype(int))))


def _apply_factors(values, factors):
    """values times the row factors of _row_factors (see scaled_values)."""
    pad = (1,) * (values.ndim - factors.normal.ndim)
    out = values * factors.normal.reshape(factors.normal.shape + pad)
    if factors.unit.size:
        v = values[factors.wide]
        _, e = np.frexp(np.maximum(np.abs(v.real), np.abs(v.imag)))
        y = ((np.ldexp(v.real, -e) + 1j * np.ldexp(v.imag, -e))
             * factors.unit.reshape((-1,) + pad))
        shift = e + factors.shift.reshape((-1,) + pad)
        out[factors.wide] = np.ldexp(y.real, shift) + 1j * np.ldexp(y.imag, shift)
    return out


def scaled_values(values, exponents):
    """values * exp(exponents), one exponent per row (the leading axes).

    Each row is multiplied by its factor exp(exponents[k]), one exp per
    row.  Rows whose factor alone would leave the normal double range are
    scaled with a power-of-two split of factor and values (frexp/ldexp), so
    every representable product comes out right however large or small its
    factors are.  Zeros stay zeros whatever their exponent, a product that
    overflows is inf, and non-finite values raise NonFiniteSampleError.
    """
    values = _require_finite(np.asarray(values, dtype=complex))
    return _apply_factors(values, _row_factors(exponents))


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
    # the column selection is a copy of this call's own: shift and exp in place
    expo = exponents[:, keep]
    expo += e * _LN2
    combined = expo.real + np.log(np.max(np.abs(unit), axis=1))
    worst = float(np.max(combined))
    if worst > LOG_OVERFLOW_BOUND:
        k = int(keep[int(np.argmax(combined)) % keep.size])
        raise WeightOverflowError(k, None if points is None else points[k],
                                  worst)
    return np.exp(expo, out=expo) @ unit


def _top(values):
    """(largest entry, its index)."""
    k = int(np.argmax(values))
    return values[k], k


class _TransformPlan:
    """What one context's transforms compute from (psi, zeta, w) and the
    grids alone: the nodes, both rays, the data-independent halves of the
    pair overflow checks and, built on each pass's first use, the row
    factors on both sides of its FFT.  Arrays are read-only.
    """

    def __init__(self, ctx):
        self.src_grid, self.dst_grid = ctx.src_grid, ctx.dst_grid
        self.zeta, self.w = ctx.zeta, ctx.w
        self.t = _read_only(ctx.src_grid.nodes)
        self.xi = _read_only(ctx.dst_grid.nodes)
        self.time_ray = Ray(ctx.psi, ctx.w, TIME)
        self.frequency_ray = Ray(ctx.psi, ctx.zeta, FREQUENCY)
        # separable pieces of Im(lam * z) = a*xi + b*t + c on the two grids
        a = (self.frequency_ray.direction * self.w).imag
        b = (self.zeta * self.time_ray.direction).imag
        self.slopes = (a, b, (self.zeta * self.w).imag)
        # each check pass: (max, argmax) of its destination-side exponents
        # and the source-side exponents, to which the data's log is added
        self.forward_check = _top(a * self.xi) + (_read_only(b * self.t),)
        self.inverse_check = _top(-b * self.t) + (_read_only(-a * self.xi),)

    @functools.cached_property
    def forward(self):
        dir_t = self.time_ray.direction
        dir_f = self.frequency_ray.direction
        log_prefactor = (cmath.log(self.src_grid.spacing / _SQRT2PI * dir_t)
                         - 2j * self.zeta * self.w)
        return _kernel_factors(self.src_grid.count,
                               pre=-1j * self.zeta * dir_t * self.t,
                               post=-1j * self.w * dir_f * self.xi + log_prefactor)

    @functools.cached_property
    def inverse(self):
        dir_t = self.time_ray.direction
        dir_f = self.frequency_ray.direction
        log_prefactor = (cmath.log(self.dst_grid.spacing / _SQRT2PI * dir_f)
                         + 2j * self.zeta * self.w)
        return _adjoint_factors(self.src_grid.count,
                                pre=1j * self.w * dir_f * self.xi,
                                post=1j * self.zeta * dir_t * self.t + log_prefactor)


@dataclass(frozen=True)
class TransformContext:
    """The (psi, zeta, w) parameters of one transform pair and its time
    grid; the frequency grid is its dual (see dual_grid)."""

    psi: float
    zeta: complex
    w: complex
    src_grid: Grid

    def __post_init__(self):
        object.__setattr__(self, "zeta", complex(self.zeta))
        object.__setattr__(self, "w", complex(self.w))

    @functools.cached_property
    def dst_grid(self):
        """The frequency grid, dual_grid(src_grid)."""
        return dual_grid(self.src_grid)

    @functools.cached_property
    def _plan(self):
        """The context's _TransformPlan, built on first use."""
        return _TransformPlan(self)

    @property
    def time_ray(self):
        return self._plan.time_ray

    @property
    def frequency_ray(self):
        return self._plan.frequency_ray

    def _check_pair_overflow(self, sign, data_log):
        """Refuse a pass whose largest data-times-kernel term could pass
        LOG_OVERFLOW_BOUND.

        |e^{-i lam z}| is e^{+Im(lam z)} on the forward pass (sign +1) and
        e^{-Im(lam z)} on the inverse pass (sign -1), and Im(lam z) = a xi
        + b t + c separates on the two grids, with c = Im(zeta w).  The
        normalisation e^{-+i zeta w} carries e^{+-c} once more, so the
        destination factors hold e^{+-2c} and the test counts c twice.  The
        data (``data_log``, the log of each source row's largest magnitude)
        enter on the source side: t forward, xi inverse.  The test adds the
        largest source-side term to the largest destination-side exponent,
        even where these sit at nodes whose product is small.  That is
        deliberate: the bound covers the FFT sum's rounding error, not only
        its range.  A sum that cancels down from a large term keeps a
        rounding error of the size of that term, and the destination factor
        multiplies it.  With TransformContext(0, 40j, 0, Grid(20, 256)) and
        f = e^{-40 t - t^2}, every product of the inverse of forward(f) is
        representable, yet with this check bypassed the FFT sum cancels down
        from about e^800 and its rounding error times the destination factor
        overflows to a non-finite sample at node 0.
        """
        plan = self._plan
        top, at, base = plan.forward_check if sign > 0 else plan.inverse_check
        part = base + data_log
        k = int(np.argmax(part))
        worst = top + part[k] + 2.0 * sign * plan.slopes[2]
        if worst > LOG_OVERFLOW_BOUND:
            i, k = (at, k) if sign > 0 else (k, at)
            raise WeightOverflowError(
                (i, k),
                (plan.frequency_ray.points(plan.xi[i]),
                 plan.time_ray.points(plan.t[k])),
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
        plan = self._plan
        self._require_ray(f, plan.time_ray)
        self._check_pair_overflow(1.0, self._data_log(f.values))
        out = _apply_kernel(f.values, *plan.forward)
        return RayFunction(plan.frequency_ray, self.dst_grid, out,
                           f.weight_order, self.w)

    def inverse(self, fhat):
        """Frequency side back to the time side (mirror of forward)."""
        plan = self._plan
        self._require_ray(fhat, plan.frequency_ray)
        self._check_pair_overflow(-1.0, self._data_log(fhat.values))
        out = _apply_kernel_adjoint(fhat.values, *plan.inverse)
        return RayFunction(plan.time_ray, self.src_grid, out,
                           fhat.weight_order, self.zeta)

    def evaluate_continuation(self, fhat, z_points):
        """Inverse transform evaluated at arbitrary complex points.

        Used to analytically continue a solution off its ray from the
        frequency-side data.  Exponents are combined with the data
        magnitudes in log space, so growing phase factors are harmless
        whenever the products stay representable.  The points go through
        exp_sum in blocks of at most _CONTINUATION_ENTRIES exponents; a
        WeightOverflowError comes from the first block that overflows, so
        it names that block's worst node, not necessarily the worst over
        all points.
        """
        self._require_ray(fhat, self.frequency_ray)
        lam = fhat.points
        z = np.asarray(z_points, dtype=complex).ravel()
        prefactor = (self.dst_grid.spacing / _SQRT2PI
                     * self.frequency_ray.direction
                     * np.exp(1j * self.zeta * self.w))
        rows = max(1, _CONTINUATION_ENTRIES // lam.size)
        out = np.empty((z.size, fhat.values.shape[1]), dtype=complex)
        for start in range(0, z.size, rows):
            block = slice(start, start + rows)
            expo = 1j * np.outer(z[block], lam)
            out[block] = exp_sum(fhat.values, expo, lam) * prefactor
        return out

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
