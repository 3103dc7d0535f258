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
factors depend on (psi, zeta, w) and the grids alone, so a context builds
them on the first call of each pass and keeps them as cached properties,
beside its rays and the data-independent halves of its overflow checks (as
an FFTW plan keeps its twiddle factors).  Both passes run through one
kernel, _apply_kernel: one multiply per sample on each side of one FFT.
The checks on the data still run per call: one overflow check on the
input, which also finds input lying wholly below the normal range (the
kernel then lifts it by a power of two, taken back off the post factors,
so its sums keep relative precision), and one finiteness check on the
output, whose array the result takes over.
The discrete forward and inverse are exact inverses of each other at the
nodes, for any sampled data, which is what the round-trip contract asks
for.  The uniform quadrature weights used here agree with composite
trapezoid whenever the integrand has decayed at the window ends, which the
preconditions require.
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
                       RayFunction, weighted_l2_report)

_SQRT2PI = math.sqrt(2.0 * math.pi)
_LN2 = math.log(2.0)
# exp(x) is a normal double for |x| <= 700
_LOG_NORMAL = 700.0
# log of the smallest normal double, 2^-1022
_LOG_TINY = -1022 * _LN2
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


def _apply_kernel(x, pre, post, fft=np.fft.fft, lift=0):
    """exp(post) * fft(exp(pre) * x) along the node axis, the one kernel
    of both passes.

    ``pre`` and ``post`` are row factors with the DFT phases folded in:
    with the forward FFT this is exp(post_j) * sum_k exp(-i xi_j t_k)
    exp(pre_k) x_k, with _ifft_sums the mirror sum over exp(+i t_k xi_j).
    A nonzero ``lift`` multiplies the FFT input by 2^lift and the post
    factors by 2^-lift (_times_pow2, exact), so input lying wholly below
    the normal range is summed with relative, not absolute, rounding.

    x must be finite (RayFunction values are).  The result is the one
    array a pass checks: a non-finite FFT sum stays non-finite through the
    post factors, so it raises NonFiniteSampleError here, as does a post
    factor that overflows.
    """
    if lift:
        pre, post = _times_pow2(pre, lift), _times_pow2(post, -lift)
    sums = fft(_apply_factors(x, pre), axis=0)
    # a non-finite sum raises below, not as a warning from its product
    with np.errstate(invalid="ignore", over="ignore"):
        return _require_finite(_apply_factors(sums, post, out=sums))


def _ifft_sums(y, axis):
    """sum_j exp(+2 pi i j k / N) y_j, the FFT of the inverse pass."""
    return np.fft.ifft(y, axis=axis, norm="forward")


def _require_finite(values):
    finite = np.isfinite(values)
    if not finite.all():
        index = tuple(int(i) for i in np.argwhere(~finite)[0])
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
    """The factors exp(exponents), one per row (the leading axes), built
    once and applicable to any number of value arrays; the arrays are
    read-only.

    A row whose factor alone would leave the normal double range keeps it
    as a power-of-two split, applied with the values' own (frexp/ldexp),
    so every representable product comes out right however large or small
    its factors are; zeros stay zeros whatever their exponent.
    """
    exponents = np.asarray(exponents, dtype=complex)
    wide = np.abs(exponents.real) > _LOG_NORMAL
    normal = np.exp(np.where(wide, 0.0, exponents))
    # the clip keeps the split factor finite, so zeros stay zeros; unlifted,
    # a nonzero product past +-2000 over- or underflows anyway, and the
    # wider bound keeps _apply_kernel's lifts exact up to +-2^20
    re = np.clip(exponents.real[wide], -2.0 ** 20, 2.0 ** 20)
    p = np.rint(re / _LN2)
    unit = np.exp(re - p * _LN2 + 1j * exponents.imag[wide])
    return _RowFactors(*map(_read_only, (normal, wide, unit, p.astype(int))))


def _apply_factors(values, factors, out=None):
    """values times the row factors of _row_factors, into ``out`` if given
    (which may be ``values``); a product that overflows is inf, and a
    non-finite value stays non-finite."""
    pad = (1,) * (values.ndim - factors.normal.ndim)
    out = np.multiply(values, factors.normal.reshape(factors.normal.shape + pad),
                      out=out)
    if factors.unit.size:
        v = values[factors.wide]
        _, e = np.frexp(np.maximum(np.abs(v.real), np.abs(v.imag)))
        y = ((np.ldexp(v.real, -e) + 1j * np.ldexp(v.imag, -e))
             * factors.unit.reshape((-1,) + pad))
        shift = e + factors.shift.reshape((-1,) + pad)
        out[factors.wide] = np.ldexp(y.real, shift) + 1j * np.ldexp(y.imag, shift)
    return out


def _times_pow2(factors, s):
    """The row factors times 2^s, every row through the power-of-two split
    of _apply_factors, so the scaling is exact."""
    unit = factors.normal.copy()
    unit[factors.wide] = factors.unit
    shift = np.full(unit.shape, s)
    shift[factors.wide] += factors.shift
    return _RowFactors(np.ones_like(unit), np.ones(unit.shape, dtype=bool),
                       unit, shift)


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


class _PassCheck(NamedTuple):
    """The data-independent half of one pass's pair overflow check."""

    top: float          # the largest destination-side exponent
    at: int             # its node
    base: np.ndarray    # source-side exponents, one per source node
    base_top: float     # the largest of them
    base_bottom: float  # the smallest of them


def _pass_check(dst_exponents, src_exponents):
    """The _PassCheck of a pass with these exponents on its two grids."""
    at = int(np.argmax(dst_exponents))
    return _PassCheck(float(dst_exponents[at]), at, _read_only(src_exponents),
                      float(np.max(src_exponents)),
                      float(np.min(src_exponents)))


def _source_top(values, check, slack):
    """(k, part): the source row k where check.base[k] + log max_c
    |values[k, c]| (the log of the pass's FFT input) is largest, and that
    sum; or (None, bound), a bound on every such sum that is at most
    ``slack``, when the data's peak shows that no row exceeds ``slack``
    and that some row lies in the normal range; (None, -inf) for zeros.

    That first test needs no complex modulus and no log per node: every
    |v| is at most sqrt(2) max(|Re v|, |Im v|), and the bound takes twice
    that maximum, whose margin of log sqrt(2) covers the rounding of the
    sums; the peak's row lies at least at check.base_bottom plus its log.
    Other data (or an inf or a nan) take the log of every row.
    """
    peak = float(np.max(np.abs(values.ravel().view(float))))
    if peak == 0.0:
        return None, -math.inf
    bound = check.base_top + math.log(2.0 * peak)
    if bound <= slack and check.base_bottom + math.log(peak) >= _LOG_TINY:
        return None, bound
    with np.errstate(divide="ignore"):  # a zero row's log is -inf
        parts = check.base + np.log(np.max(np.abs(values), axis=1))
    # a row holding a nan is left to the pass's output check
    parts[np.isnan(parts)] = -np.inf
    k = int(np.argmax(parts))
    return k, float(parts[k])


@dataclass(frozen=True)
class TransformContext:
    """The (psi, zeta, w) parameters of one transform pair and its time
    grid; the frequency grid is its dual (see dual_grid).  What the passes
    compute from these alone (rays, frequency points, overflow checks, row
    factors, hardy's cut plans) is built on first use and kept as long as
    the context; arrays are read-only."""

    psi: float
    zeta: complex
    w: complex
    src_grid: Grid

    def __post_init__(self):
        object.__setattr__(self, "zeta", complex(self.zeta))
        object.__setattr__(self, "w", complex(self.w))

    @classmethod
    def of(cls, f):
        """The context whose time side is that of ``f``: its ray, weight
        number and grid.  A time-side Ray already encodes the clockwise
        convention in its side, so its stored angle is exactly psi."""
        return cls(f.ray.angle, f.weight_number, f.ray.offset, f.grid)

    @functools.cached_property
    def dst_grid(self):
        """The frequency grid, dual_grid(src_grid)."""
        return dual_grid(self.src_grid)

    @functools.cached_property
    def time_ray(self):
        return Ray(self.psi, self.w, TIME)

    @functools.cached_property
    def frequency_ray(self):
        return Ray(self.psi, self.zeta, FREQUENCY)

    @functools.cached_property
    def frequency_points(self):
        """The frequency nodes lam on the frequency ray (the points of every
        forward result); read-only."""
        return _read_only(self.frequency_ray.points(self.dst_grid.nodes))

    @functools.cached_property
    def _slopes(self):
        """(a, b, c): Im(lam * z) = a*xi + b*t + c on the two grids."""
        a = (self.frequency_ray.direction * self.w).imag
        b = (self.zeta * self.time_ray.direction).imag
        return a, b, (self.zeta * self.w).imag

    @functools.cached_property
    def _checks(self):
        """The _PassCheck of forward and of inverse: each pass's
        destination-side maximum and the source-side exponents, to which
        the data's log is added."""
        a, b, _ = self._slopes
        t, xi = self.src_grid.nodes, self.dst_grid.nodes
        return _pass_check(a * xi, b * t), _pass_check(-b * t, -a * xi)

    @functools.cached_property
    def _forward_factors(self):
        """_apply_kernel's (pre, post) of forward."""
        t, xi = self.src_grid.nodes, self.dst_grid.nodes
        dir_t = self.time_ray.direction
        dir_f = self.frequency_ray.direction
        log_prefactor = (cmath.log(self.src_grid.spacing / _SQRT2PI * dir_t)
                         - 2j * self.zeta * self.w)
        pre = -1j * self.zeta * dir_t * t
        post = -1j * self.w * dir_f * xi + log_prefactor
        const, phase = _dft_phases(t.size)
        return _row_factors(phase + pre), _row_factors(const + phase + post)

    @functools.cached_property
    def _inverse_factors(self):
        """_apply_kernel's (pre, post, fft) of inverse."""
        t, xi = self.src_grid.nodes, self.dst_grid.nodes
        dir_t = self.time_ray.direction
        dir_f = self.frequency_ray.direction
        log_prefactor = (cmath.log(self.dst_grid.spacing / _SQRT2PI * dir_f)
                         + 2j * self.zeta * self.w)
        pre = 1j * self.w * dir_f * xi
        post = 1j * self.zeta * dir_t * t + log_prefactor
        const, phase = _dft_phases(t.size)
        return (_row_factors(pre - phase), _row_factors(post - const - phase),
                _ifft_sums)

    @functools.cached_property
    def _cuts(self):
        """The half-line cut plans of hardy._cut_plan, filled there."""
        return {}

    def _check_pair_overflow(self, sign, values):
        """Refuse a pass whose largest data-times-kernel term could pass
        LOG_OVERFLOW_BOUND; return the pass's lift for _apply_kernel: 0, or
        the power of two that brings FFT input lying wholly below the
        normal range up to about 1.

        |e^{-i lam z}| is e^{+Im(lam z)} on the forward pass (sign +1) and
        e^{-Im(lam z)} on the inverse pass (sign -1), and Im(lam z) = a xi
        + b t + c separates on the two grids, with c = Im(zeta w).  The
        normalisation e^{-+i zeta w} carries e^{+-c} once more, so the
        destination factors hold e^{+-2c} and the test counts c twice.  The
        data (``values``, through the log of each source row's largest
        magnitude) enter on the source side: t forward, xi inverse.  The
        test adds the largest source-side term (_source_top, which tries a
        bound on the data first) to the largest destination-side exponent,
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
        check = self._checks[0 if sign > 0 else 1]
        pair = 2.0 * sign * self._slopes[2]
        k, part = _source_top(values, check,
                              LOG_OVERFLOW_BOUND - check.top - pair)
        worst = check.top + part + pair
        if worst > LOG_OVERFLOW_BOUND:
            i, k = (check.at, k) if sign > 0 else (k, check.at)
            raise WeightOverflowError(
                (i, k),
                (self.frequency_points[i],
                 self.time_ray.points(self.src_grid.nodes[k])),
                float(worst),
            )
        return int(-part / _LN2) if -math.inf < part < _LOG_TINY else 0

    def forward(self, f):
        """Time side to frequency side.

        Returns samples of the transform on the frequency ray; the weight
        order is carried over and the frequency-side weight number is w.
        """
        self._require_ray(f, self.time_ray)
        lift = self._check_pair_overflow(1.0, f.values)
        out = _apply_kernel(f.values, *self._forward_factors, lift=lift)
        return RayFunction._adopt(self.frequency_ray, self.dst_grid, out,
                                  f.weight_order, self.w)

    def inverse(self, fhat):
        """Frequency side back to the time side (mirror of forward)."""
        self._require_ray(fhat, self.frequency_ray)
        lift = self._check_pair_overflow(-1.0, fhat.values)
        out = _apply_kernel(fhat.values, *self._inverse_factors, lift=lift)
        return RayFunction._adopt(self.time_ray, self.src_grid, out,
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
    lhs_tail: float
    rhs_tail: float


def parseval_check(ctx, f):
    """Isometry check: frequency-side and time-side weighted norms agree.

    The frequency side carries the weight number w, the time side -zeta
    (the two sides swap roles under the transform); both norms are order 0.
    Each side's tail mass says whether its window truncates the integral.
    """
    fhat = ctx.forward(f)
    lhs = weighted_l2_report(fhat, order=0.0, number=ctx.w)
    rhs = weighted_l2_report(f, order=0.0, number=-ctx.zeta)
    denom = max(lhs.value, rhs.value)
    rel = abs(lhs.value - rhs.value) / denom if denom > 0.0 else 0.0
    return ParsevalReport(lhs.value, rhs.value, rel, lhs.tail_mass,
                          rhs.tail_mass)
