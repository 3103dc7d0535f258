import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import conescale.transform
from conescale import (ConfigurationError, Grid, NonFiniteSampleError,
                       NumericalError, Ray, RayFunction, TIME,
                       TransformContext, WeightOverflowError, dual_grid,
                       parseval_check)
from conescale.geometry import LOG_OVERFLOW_BOUND
from conescale.transform import (_LOG_TINY, _apply_factors, _apply_kernel,
                                 _dft_phases, _ifft_sums, _pass_check,
                                 _require_finite, _row_factors, _source_top,
                                 exp_sum)
from conftest import gaussian_on
from _oracles import (apply_derivative_rule, dense_kernel,
                      derivative_rule_deviation, exp_sum_per_component,
                      forward_per_call, forward_per_element, inverse_per_call,
                      inverse_per_element, scaled_values_per_element)

# a few units in the last place of the subnormal range
SUBNORMAL_SLACK = 8 * 2.0 ** -1074


class TestGrids:
    def test_dual_grid_commensurate(self, grid4096, ctx4096):
        dual = dual_grid(grid4096)
        assert dual.spacing * grid4096.spacing * dual.count == pytest.approx(
            2.0 * math.pi, rel=1e-14)
        assert ctx4096.dst_grid == dual

    def test_context_derives_its_frequency_grid(self, grid4096):
        fields = dataclasses.fields(TransformContext)
        assert [f.name for f in fields] == ["psi", "zeta", "w", "src_grid"]
        assert all(f.default is dataclasses.MISSING for f in fields)
        with pytest.raises(TypeError):
            TransformContext(0.0, 0j, 0j, grid4096, dual_grid(grid4096))

    @pytest.mark.parametrize("psi", [math.pi / 16, -math.pi / 8])
    def test_of_takes_the_time_side_of_its_function(self, psi):
        ctx = TransformContext(psi, 0.3j, 0.5 - 0.25j, Grid(20.0, 64))
        f = gaussian_on(ctx.src_grid, ctx.time_ray, number=ctx.zeta)
        of = TransformContext.of(f)
        assert (of.time_ray, of.zeta, of.src_grid) == (f.ray, ctx.zeta, f.grid)
        assert of.psi == pytest.approx(psi, abs=1e-15)


def bare_kernel_args(n, post=0.0):
    """_apply_kernel's arguments for the bare sums of both passes on an
    n-node grid and its dual: exp(post_j) sum_k exp(-i xi_j t_k) x_k, and
    sum_j exp(+i t_k xi_j) y_j."""
    const, phase = _dft_phases(n)
    return ((_row_factors(phase), _row_factors(const + phase + post)),
            (_row_factors(-phase), _row_factors(-const - phase), _ifft_sums))


class TestFFTAgainstDenseKernel:
    @pytest.mark.parametrize("n", [1024, 1001, 64, 65])
    def test_matches_dense_oracle(self, n):
        # one kernel runs both passes: the forward and the adjoint sums
        rng = np.random.default_rng(2 * n)
        E = dense_kernel(Grid(7.0, n))
        x = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        y = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        forward, inverse = bare_kernel_args(n)
        fwd, ref = _apply_kernel(x, *forward), E @ x
        assert np.max(np.abs(fwd - ref)) <= 1e-12 * np.max(np.abs(ref))
        adj, ref = _apply_kernel(y, *inverse), E.conj().T @ y
        assert np.max(np.abs(adj - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestForwardInverse:
    def test_zero(self, ctx4096, grid4096, real_ray):
        zero = RayFunction(real_ray, grid4096, np.zeros(grid4096.count))
        assert np.all(ctx4096.forward(zero).values == 0.0)

    def test_gaussian_self_dual(self, ctx4096, gauss4096):
        fhat = ctx4096.forward(gauss4096)
        xi = fhat.grid.nodes
        assert np.max(np.abs(fhat.values[:, 0] - np.exp(-xi ** 2 / 2))) < 1e-8

    def test_rotated_ray_continuation(self, grid4096):
        psi = math.pi / 8
        ctx = TransformContext(psi, 0j, 0j, grid4096)
        f = gaussian_on(grid4096, ctx.time_ray)
        fhat = ctx.forward(f)
        lam = fhat.points
        assert np.max(np.abs(fhat.values[:, 0] - np.exp(-lam ** 2 / 2))) < 1e-7

    def test_round_trip_gaussian(self, ctx4096, gauss4096):
        grid = Grid(40.0, 16384)
        ctx = TransformContext(0.0, 0j, 0j, grid)
        for ctx, f in ((ctx4096, gauss4096), (ctx, gaussian_on(grid))):
            back = ctx.inverse(ctx.forward(f))
            assert np.max(np.abs(back.values - f.values)) < 1e-8

    def test_round_trip_subnormal_tail(self):
        # exp(-t^2) passes through subnormal values near |t| = 27
        grid = Grid(40.0, 4096)
        ctx = TransformContext(0.0, 0j, 0j, grid)
        f = gaussian_on(grid, width=1.0)
        back = ctx.inverse(ctx.forward(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-13

    def test_row_factors_keep_non_finite(self):
        # RayFunction rejects such samples; an overflowed sum must not be
        # zeroed by the next scaling pass either, on a normal or a wide row
        factors = _row_factors(np.array([0.0, -1e4]))
        for row in (0, 1):
            values = np.ones(2, dtype=complex)
            values[row] = np.inf
            with np.errstate(invalid="ignore"):
                scaled = _apply_factors(values, factors)
            with pytest.raises(NumericalError, match="non-finite"):
                _require_finite(scaled)

    def test_round_trip_one_sided(self, ctx4096, one_sided4096):
        back = ctx4096.inverse(ctx4096.forward(one_sided4096))
        err = np.abs(back.values - one_sided4096.values)[:, 0]
        t = one_sided4096.grid.nodes
        away = np.abs(t) > 3 * one_sided4096.grid.spacing
        assert np.max(err[away]) < 1e-6

    def test_one_sided_transform_closed_form(self, ctx4096, one_sided4096):
        fhat = ctx4096.forward(one_sided4096)
        lam = fhat.grid.nodes
        closed = 1.0 / (math.sqrt(2 * math.pi) * (1.0 - 1j * lam))
        mid = np.abs(lam) < 5.0
        assert np.max(np.abs(fhat.values[mid, 0] - closed[mid])) < 2e-3

    def test_inverse_of_exact_rational_samples(self, ctx4096, grid4096):
        # window truncation of the slowly decaying transform limits pointwise
        # recovery to ~1/(pi*Xi*|t|); assert the analysis-backed bound
        lam = ctx4096.dst_grid.nodes
        fhat = RayFunction(ctx4096.frequency_ray, ctx4096.dst_grid,
                           1.0 / (math.sqrt(2 * math.pi) * (1.0 - 1j * lam)))
        f = ctx4096.inverse(fhat)
        t = grid4096.nodes
        truth = np.where(t < 0, np.exp(t), 0.0)
        err = np.abs(f.values[:, 0] - truth)
        xi_max = ctx4096.dst_grid.half_width
        away = np.abs(t) >= 3.0
        assert np.max(err[away]) < 5.0 / (math.pi * xi_max * 3.0)

    def test_linearity(self, ctx4096, gauss4096, one_sided4096):
        a, b = 1.5 - 0.5j, -0.25j
        combined = gauss4096.with_values(
            a * gauss4096.values + b * one_sided4096.values)
        lhs = ctx4096.forward(combined).values
        rhs = (a * ctx4096.forward(gauss4096).values
               + b * ctx4096.forward(one_sided4096).values)
        assert np.max(np.abs(lhs - rhs)) < 1e-13 * np.max(np.abs(lhs))

    def test_overflow_pair_detected(self, grid4096):
        ctx = TransformContext(0.0, 40j, 0j, grid4096)
        f = gaussian_on(grid4096, ctx.time_ray, number=40j)
        flat = f.with_values(np.ones_like(f.values))
        with pytest.raises(WeightOverflowError):
            ctx.forward(flat)

    def test_overflow_check_bounds_rounding(self):
        # every product of this inverse is representable, but its FFT sum
        # cancels down from about e^800: without the check, the rounding
        # error times the destination factor overflows at node 0
        grid = Grid(20.0, 256)
        ctx = TransformContext(0.0, 40j, 0j, grid)
        t = grid.nodes
        f = RayFunction(ctx.time_ray, grid, np.exp(-40.0 * t - t ** 2), 0.0, 40j)
        with pytest.raises(WeightOverflowError) as err:
            ctx.inverse(ctx.forward(f))
        assert err.value.log_magnitude == pytest.approx(800.0, abs=1.0)

    @pytest.mark.parametrize("zeta, w, side", [(20j, 20.0, "forward"),
                                               (-20j, 20.0, "inverse")],
                             ids=["forward", "inverse"])
    def test_overflow_check_counts_zeta_w_twice(self, zeta, w, side):
        # Im(zeta w) = +-400 enters the destination factors twice, through
        # Im(lam z) and through the e^{-+i zeta w} normalisation; counted
        # once, the check passed at about 420 and the FFT's post factors
        # overflowed to a non-finite sample instead
        grid = Grid(1.0, 64)
        ctx = TransformContext(0.0, zeta, w, grid)
        if side == "forward":
            f = RayFunction(ctx.time_ray, grid, np.exp(-grid.nodes ** 2),
                            0.0, zeta)
        else:
            xi = ctx.dst_grid.nodes
            f = RayFunction(ctx.frequency_ray, ctx.dst_grid, np.exp(-xi ** 2),
                            0.0, w)
        with pytest.raises(WeightOverflowError) as err:
            getattr(ctx, side)(f)
        assert err.value.log_magnitude == pytest.approx(818.0, abs=2.0)

    def test_ray_mismatch_rejected(self, ctx4096, grid4096):
        wrong = RayFunction(Ray(0.3, 0j, TIME), grid4096,
                            np.zeros(grid4096.count))
        with pytest.raises(ConfigurationError, match="context expects"):
            ctx4096.forward(wrong)


class TestParseval:
    def test_zero(self, ctx4096, grid4096, real_ray):
        zero = RayFunction(real_ray, grid4096, np.zeros(grid4096.count))
        rep = parseval_check(ctx4096, zero)
        assert rep == type(rep)(0.0, 0.0, 0.0, 0.0, 0.0)

    def test_gaussian_base(self, ctx4096, gauss4096):
        rep = parseval_check(ctx4096, gauss4096)
        assert rep.lhs == pytest.approx(math.pi ** 0.25, abs=1e-8)
        assert rep.rel_err <= 1e-8

    def test_rotated_offset(self, grid4096):
        ctx = TransformContext(math.pi / 8, 0.3j, 0j, grid4096)
        f = gaussian_on(grid4096, ctx.time_ray, number=0.3j)
        assert parseval_check(ctx, f).rel_err <= 1e-6

    @pytest.mark.parametrize("psi", [0.0, math.pi / 16, math.pi / 8])
    @pytest.mark.parametrize("zeta", [0j, 0.3j, -0.3j, 0.2 + 0.1j])
    @pytest.mark.parametrize("w", [0j, 0.5 + 0j])
    def test_sweep(self, grid4096, psi, zeta, w):
        ctx = TransformContext(psi, zeta, w, grid4096)
        f = gaussian_on(grid4096, ctx.time_ray, number=zeta)
        assert parseval_check(ctx, f).rel_err <= 1e-6


class TestDerivativeRule:
    def test_order_zero_is_inverse(self, ctx4096, gauss4096):
        fhat = ctx4096.forward(gauss4096)
        via_rule = apply_derivative_rule(ctx4096, fhat, 0)
        direct = ctx4096.inverse(fhat)
        assert np.max(np.abs(via_rule.values - direct.values)) == 0.0

    def test_first_derivative_gaussian(self, ctx4096, gauss4096, grid4096):
        fhat = ctx4096.forward(gauss4096)
        out = apply_derivative_rule(ctx4096, fhat, 1)
        t = grid4096.nodes
        expected = 1j * t * np.exp(-t ** 2 / 2)  # D = -i d/dt
        assert np.max(np.abs(out.values[:, 0] - expected)) < 1e-6

    def test_second_derivative_gaussian(self, ctx4096, gauss4096, grid4096):
        fhat = ctx4096.forward(gauss4096)
        out = apply_derivative_rule(ctx4096, fhat, 2)
        t = grid4096.nodes
        expected = (1.0 - t ** 2) * np.exp(-t ** 2 / 2)  # D^2 = -d^2/dt^2
        assert np.max(np.abs(out.values[:, 0] - expected)) < 1e-5

    def test_tail_violation_rejected(self, ctx4096, one_sided4096):
        fhat = ctx4096.forward(one_sided4096)
        with pytest.raises(ConfigurationError, match="tail"):
            apply_derivative_rule(ctx4096, fhat, 3)

    @pytest.mark.parametrize("j", [1, 2])
    def test_fd_comparison_order(self, j):
        gaps = []
        for count in (1024, 2048):
            grid = Grid(20.0, count)
            ctx = TransformContext(0.0, 0j, 0j, grid)
            f = gaussian_on(grid)
            gaps.append(derivative_rule_deviation(ctx, ctx.forward(f), j, acc=2))
        order = math.log2(gaps[0] / gaps[1])
        assert order >= 1.8


@pytest.mark.parametrize("maker", [
    lambda t: np.exp(-t ** 2 / 2),
    lambda t: np.exp(-(t - 3.0) ** 2),
    lambda t: (t ** 2 - 1.0) * np.exp(-t ** 2 / 4),
    lambda t: np.exp(-t ** 2 / 2) * np.exp(2j * t),
])
def test_round_trip_corpus(ctx4096, grid4096, real_ray, maker):
    f = RayFunction(real_ray, grid4096, maker(grid4096.nodes))
    back = ctx4096.inverse(ctx4096.forward(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-8


def transform_case(half_width, count, psi, zeta, w, seed):
    """A context plus two random data sets drawn from ``seed``."""
    grid = Grid(half_width, count)
    ctx = TransformContext(psi, zeta, w, grid)
    rng = np.random.default_rng(seed)
    shape = (2, count, 2)
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return ctx, [RayFunction(ctx.time_ray, grid, v, 0.0, ctx.zeta) for v in data]


@st.composite
def transform_cases(draw):
    """A context within the overflow bounds plus two random data sets."""
    count = draw(st.integers(8, 256))
    half_width = draw(st.floats(2.0, 20.0))
    part = st.floats(-0.5, 0.5)
    return transform_case(half_width, count,
                          draw(st.floats(-math.pi / 4, math.pi / 4)),
                          complex(draw(part), draw(part)),
                          complex(draw(part), draw(part)),
                          draw(st.integers(0, 2 ** 32 - 1)))


def _time_weight(ctx):
    """|exp(-i zeta z)| along the time ray, the weight the sums see."""
    return np.exp((ctx.zeta * ctx.time_ray.direction).imag * ctx.src_grid.nodes)[:, None]


@settings(max_examples=60, deadline=None)
@given(transform_cases())
def test_round_trip_exact_at_nodes_property(case):
    ctx, (f, _) = case
    back = ctx.inverse(ctx.forward(f))
    weight = _time_weight(ctx)
    err = np.max(np.abs(back.values - f.values) * weight)
    assert err <= 1e-12 * np.max(np.abs(f.values) * weight)


def _has_subnormal(*arrays):
    """Whether a nonzero real or imaginary part lies below 2^-1022."""
    tiny = np.finfo(float).tiny
    return any(np.any((part != 0.0) & (np.abs(part) < tiny))
               for x in arrays for part in (np.real(x), np.imag(x)))


# w = 0.5j on a dst half-width of 52.6 unweights by up to e^26: at b = 1e-300
# the frequency-side products b * forward(g) are subnormal there, at
# b = 2.2e-309 the time-side products b * g are subnormal as well
_SMALL_SCALARS_CASE = transform_case(2.0, 69, 0.0, 0j, 0.5j, 0)


@settings(max_examples=60, deadline=None)
@given(transform_cases(), st.complex_numbers(max_magnitude=2.0),
       st.complex_numbers(max_magnitude=2.0))
@example(_SMALL_SCALARS_CASE, 0j, 1e-300 + 0j)
@example(_SMALL_SCALARS_CASE, 0j, 2.2e-309 + 0j)
def test_linearity_property(case, a, b):
    ctx, (f, g) = case
    af, bg = a * f.values, b * g.values
    lhs = ctx.forward(f.with_values(af + bg)).values
    a_fhat, b_ghat = a * ctx.forward(f).values, b * ctx.forward(g).values
    rhs = a_fhat + b_ghat
    # undo the frequency-side weight so every node is compared at unit scale
    dir_f = ctx.frequency_ray.direction
    unweight = np.exp(-(ctx.w * dir_f).imag * ctx.dst_grid.nodes)[:, None]
    weight = _time_weight(ctx)
    scale = ctx.src_grid.spacing * (abs(a) * np.sum(np.abs(f.values) * weight)
                                    + abs(b) * np.sum(np.abs(g.values) * weight))
    bound = 1e-13 * scale
    if _has_subnormal(af, bg, a_fhat, b_ghat, lhs, rhs):
        # subnormal products round by whole units of 2^-1074, not relative
        # to their size: a time-side unit reaches every node through the
        # weighted sum, a frequency-side one is magnified by the unweighting
        bound = bound + SUBNORMAL_SLACK * (
            unweight + ctx.src_grid.spacing * np.sum(weight))
    assert np.all(np.abs(lhs - rhs) * unweight <= bound)


class TestPerRowScaling:
    def test_dft_phases_cached_and_read_only(self):
        const, phase = _dft_phases(80)
        assert _dft_phases(80)[1] is phase
        assert phase.shape == (80,)
        with pytest.raises(ValueError, match="read-only"):
            phase[0] = 0.0

    def test_log_space_rows_match_oracle(self):
        # |Re(-i zeta t)| = 40 |t| passes 700 for |t| > 17.5: those rows
        # take the power-of-two route on the time side of both passes; the
        # data there is e^{-40 t - t^2}, as large as e^{400} or underflowed
        # to zero.  The inverse pass gets the transform times e^{-120}, so
        # that its (sum-of-magnitudes) overflow check passes.
        grid = Grid(20.0, 256)
        ctx = TransformContext(0.0, 40j, 0j, grid)
        t = grid.nodes
        f = RayFunction(ctx.time_ray, grid, np.exp(-40.0 * t - t ** 2), 0.0, 40j)
        fhat = ctx.forward(f)
        want, sizes = forward_per_element(ctx, f)
        assert np.all(np.abs(fhat.values - want) <= 1e-12 * sizes)
        fhat = fhat.with_values(fhat.values * math.exp(-120.0))
        back = ctx.inverse(fhat)
        want, sizes = inverse_per_element(ctx, fhat)
        assert np.all(np.abs(back.values - want)
                      <= 1e-12 * sizes + SUBNORMAL_SLACK)
        # round trip, compared under the weight e^{40 t}
        gap = _apply_factors(back.values - f.values * math.exp(-120.0),
                             _row_factors(40.0 * t + 120.0))
        assert np.max(np.abs(gap)) < 1e-12

    def test_zero_rows_ignore_their_exponents(self):
        values = np.array([[0.0, 0.0], [1.0, -2.0j], [0.0, 0.0], [3.0, 1e-300]])
        got = _apply_factors(values, _row_factors(
            np.array([1e300, 0.5, -1e300, -1e300])))
        assert np.array_equal(got[[0, 2, 3]], np.zeros((3, 2)))
        assert np.allclose(got[1], np.exp(0.5) * values[1], rtol=1e-15)


@st.composite
def scaling_cases(draw):
    """Rows spread over 1e-300..1e300, some subnormal, some all-zero, with
    per-row exponents up to +-1500 (zero rows up to +-3000) whose products
    lie in [e^-800, e^700]: representable, subnormal or underflowed."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, dim = draw(st.integers(1, 40)), draw(st.integers(1, 4))
    log_mag = rng.uniform(-690.0, 690.0, (n, dim))
    sub = rng.uniform(size=n) < 0.2
    log_mag[sub] = rng.uniform(-744.0, -709.0, (int(np.sum(sub)), dim))
    values = np.exp(log_mag + 2j * math.pi * rng.uniform(size=(n, dim)))
    zero = rng.uniform(size=n) < 0.2
    values[zero] = 0.0
    lo = -800.0 - np.min(log_mag, axis=1)
    hi = 700.0 - np.max(log_mag, axis=1)
    real = rng.uniform(lo, hi)
    real[zero] = rng.uniform(-3000.0, 3000.0, int(np.sum(zero)))
    return values, real + 1j * rng.uniform(-50.0, 50.0, n)


@settings(max_examples=150, deadline=None)
@given(scaling_cases())
def test_row_factors_match_per_element_property(case):
    values, expo = case
    got = _apply_factors(values, _row_factors(expo))
    want = scaled_values_per_element(values, expo)
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + SUBNORMAL_SLACK)


def _rows_under(rng, log_cap, dim):
    """Random rows whose largest magnitude is e^{L_k}, L_k <= log_cap[k]:
    spread over 1e-300..1e300, some subnormal, some all-zero, and one row
    within e^5 of its cap (unless that is past e^690 or below e^-744)."""
    n = log_cap.size
    top = rng.uniform(-700.0, 690.0, n)
    sub = rng.uniform(size=n) < 0.15
    top[sub] = rng.uniform(-744.0, -709.0, int(np.sum(sub)))
    top = np.minimum(top, log_cap - rng.uniform(0.0, 30.0, n))
    zero = (rng.uniform(size=n) < 0.15) | (top < -744.0)
    k = rng.integers(n)
    top[k], zero[k] = min(690.0, log_cap[k] - rng.uniform(0.0, 5.0)), False
    spread = np.zeros((n, dim))
    spread[:, 1:] = rng.uniform(-40.0, 0.0, (n, dim - 1))
    values = np.exp(top[:, None] + spread
                    + 2j * math.pi * rng.uniform(size=(n, dim)))
    values[zero] = 0.0
    return values


@st.composite
def weighted_transform_cases(draw, lowered=True):
    """A context with one of zeta, w possibly far off the real axis (|Im|
    35 to 60, so that on many draws some nodes' factors leave the normal
    range), and data for each side scaled to pass the overflow checks with
    representable sums.

    Each side's weighted rows reach up to its cap or, when ``lowered``, on
    some draws only up to a level between e^-780 and e^-300: then every
    weighted sample may lie below the normal range (the pass lifts its FFT
    input), or underflow to zero.
    """
    small = st.floats(-0.5, 0.5)
    far = draw(st.sampled_from(["none", "zeta", "w"]))
    far_im = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(35.0, 60.0))
    zeta = complex(draw(small), far_im if far == "zeta" else draw(small))
    w = complex(draw(small), far_im if far == "w" else draw(small))
    count = draw(st.integers(8, 96))
    if far == "zeta":
        # |Im zeta| * T passes 700 on the time side for most draws
        t_lo, t_hi = 12.0, 20.0
    else:
        # |Im w| * Xi <= 1200 with Xi about pi N / 2T, and past 700 on the
        # frequency side for most draws with w far
        t_lo = max(5.0, math.pi * count * abs(w.imag) / 2400.0)
        t_hi = min(20.0, 2.0 * t_lo) if far == "w" else 20.0
    grid = Grid(draw(st.floats(t_lo, t_hi)), count)
    ctx = TransformContext(draw(st.floats(-math.pi / 4, math.pi / 4)), zeta,
                           w, grid)
    a, b, c = ctx._slopes
    t, xi = grid.nodes, ctx.dst_grid.nodes
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = draw(st.integers(1, 2))
    # headroom for the sums, the prefactors and the pair overflow checks
    cap_t = 680.0 - max(0.0, np.max(a * xi) + max(c, 2 * c)) - math.log(xi.size)
    cap_f = 680.0 - max(0.0, np.max(-b * t) + max(-c, -2 * c)) - math.log(t.size)
    low = st.one_of(st.none(), st.floats(-780.0, -300.0)) if lowered else st.none()
    low_t, low_f = draw(low), draw(low)
    if low_t is not None:
        cap_t = min(cap_t, low_t)
    if low_f is not None:
        cap_f = min(cap_f, low_f)
    f = RayFunction(ctx.time_ray, grid, _rows_under(rng, cap_t - b * t, dim),
                    0.0, zeta)
    fhat = RayFunction(ctx.frequency_ray, ctx.dst_grid,
                       _rows_under(rng, cap_f + a * xi, dim), 0.0, w)
    return ctx, f, fhat


def _subnormal_columns_case():
    """A draw whose column 1 lies 12 orders below column 0, all of it under
    the normal range: the oracle lifts each column by its own power of two,
    or it sums column 1 partly subnormal and misses by 1.2e-12."""
    ctx = TransformContext(0, -35j, -0.5, Grid(12, 8))
    values = np.zeros((8, 2), dtype=complex)
    values[4:] = [
        [1.08683503e-286 - 1.06675076e-286j, 5.12014441e-294 + 1.97410733e-294j],
        [-6.71658511e-316 + 1.11773283e-315j, 0],
        [-2.85509560e-174 + 9.20950795e-175j, 7.71299653e-182 - 2.57467310e-181j],
        [2.24505527e-127 + 1.83671752e-126j, 5.52049471e-138 + 1.87155615e-138j]]
    f = RayFunction(ctx.time_ray, ctx.src_grid, values, 0.0, ctx.zeta)
    fhat = RayFunction(ctx.frequency_ray, ctx.dst_grid, np.zeros((8, 2)),
                       0.0, ctx.w)
    return ctx, f, fhat


def _small_column_case(zeta, w, count, rows, at):
    """Forward data whose column 1 lies about 13 orders below column 0,
    near the subnormal range (``rows`` from row ``at`` on, zeros
    elsewhere).  A lift taken from the largest row over both columns left
    column 1's FFT input partly subnormal, off by 3e-12 against the oracle
    where that column transformed alone is off by 9e-14; each column now
    takes its own lift."""
    ctx = TransformContext(0.0, zeta, w, Grid(12.0, count))
    values = np.zeros((count, 2), dtype=complex)
    values[at:at + len(rows)] = rows
    f = RayFunction(ctx.time_ray, ctx.src_grid, values, 0.0, ctx.zeta)
    fhat = RayFunction(ctx.frequency_ray, ctx.dst_grid,
                       np.zeros((count, 2)), 0.0, ctx.w)
    return ctx, f, fhat


@settings(max_examples=100, deadline=None)
@given(weighted_transform_cases())
@example(_subnormal_columns_case())
@example(_small_column_case(35j, 0.5, 13, [
    [-7.59946293e-309 - 8.00226861e-309j, 2.86694451e-312 - 1.41222601e-312j],
    [-5.78189042e-147 + 2.27337781e-147j, 2.57187212e-160 - 7.54379295e-161j],
    [-5.34961232e-280 + 3.50197392e-283j, -1.62346855e-296 + 8.24263139e-297j],
    [-6.81162090e-295 - 6.41375095e-295j, 4.23534865e-305 - 1.30530559e-306j],
    [1.37470509e-238 - 4.56777997e-239j, -1.67442003e-252 + 4.29411825e-253j],
    [1.00428751e-267 - 2.06643619e-266j, -3.31466728e-282 + 5.36813599e-284j],
    [0, 0],
    [-2.07013506e-321 + 1.23022346e-321j, 0]], at=0))
@example(_small_column_case(-35j, -0.5, 8, [
    [-7.14187504e-313 - 2.03372666e-313j, -4.86996442e-314 + 2.37581470e-314j],
    [9.08364672e-219 + 1.43682799e-219j, -1.05502189e-234 - 2.46764709e-234j],
    [8.56336848e-314 + 2.00490387e-314j, 1.00295326e-321 - 1.47972661e-320j],
    [-2.06912768e-266 - 4.63262057e-266j, 4.11136238e-269 - 1.78838000e-269j]],
    at=4))
def test_forward_inverse_match_per_element_oracle_property(case):
    ctx, f, fhat = case
    got = ctx.forward(f).values
    want, sizes = forward_per_element(ctx, f)
    assert np.all(np.abs(got - want) <= 1e-12 * sizes + SUBNORMAL_SLACK)
    got = ctx.inverse(fhat).values
    want, sizes = inverse_per_element(ctx, fhat)
    assert np.all(np.abs(got - want) <= 1e-12 * sizes + SUBNORMAL_SLACK)


def _wide_rows_case():
    """The zeta = 40j context of test_log_space_rows_match_oracle, whose
    time-side rows past |t| = 17.5 take the power-of-two route."""
    grid = Grid(20.0, 256)
    ctx = TransformContext(0.0, 40j, 0j, grid)
    t = grid.nodes
    f = RayFunction(ctx.time_ray, grid, np.exp(-40.0 * t - t ** 2), 0.0, 40j)
    fhat = RayFunction(ctx.frequency_ray, ctx.dst_grid,
                       forward_per_call(ctx, f) * math.exp(-120.0))
    return ctx, f, fhat


@settings(max_examples=60, deadline=None)
@given(weighted_transform_cases(lowered=False))
@example(_wide_rows_case())
def test_plan_matches_per_call_route_property(case):
    # the per-call route has no lift: lifted passes are compared with the
    # per-element oracle above
    ctx, f, fhat = case
    # the second round reads the factors the first one built
    for _ in range(2):
        assert (ctx.forward(f).values.tobytes()
                == forward_per_call(ctx, f).tobytes())
        assert (ctx.inverse(fhat).values.tobytes()
                == inverse_per_call(ctx, fhat).tobytes())


class TestPlan:
    def test_second_call_builds_no_factors(self, monkeypatch):
        built = []
        build = conescale.transform._row_factors
        monkeypatch.setattr(conescale.transform, "_row_factors",
                            lambda exponents: built.append(1) or build(exponents))
        ctx = TransformContext(math.pi / 16, 0.3j, 0.5, Grid(20.0, 256))
        f = gaussian_on(ctx.src_grid, ctx.time_ray, number=ctx.zeta)
        for _ in range(2):
            ctx.inverse(ctx.forward(f))
            # two row-factor sets per pass, one on each side of its FFT
            assert len(built) == 4

    def test_each_pass_checks_only_its_fft_sums(self, monkeypatch):
        # the input is a RayFunction, checked when it was built; each pass
        # checks its FFT sums once, after the post factors, and its result
        # takes over that array without another check or copy
        checked = []
        check = conescale.transform._require_finite
        monkeypatch.setattr(conescale.transform, "_require_finite",
                            lambda values: checked.append(values)
                            or check(values))
        ctx = TransformContext(math.pi / 16, 0.3j, 0.5, Grid(20.0, 256))
        f = gaussian_on(ctx.src_grid, ctx.time_ray, number=ctx.zeta)

        def unchecked(self):
            raise AssertionError("a pass result was checked again")

        monkeypatch.setattr(RayFunction, "__post_init__", unchecked)
        fhat = ctx.forward(f)
        back = ctx.inverse(fhat)
        assert [a.shape for a in checked] == [(256, 1)] * 2
        assert checked[0] is fhat.values and checked[1] is back.values
        assert not back.values.flags.writeable

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_fft_sums_rejected(self, bad):
        n = 8
        x = np.ones((n, 1), dtype=complex)
        x[3] = bad
        with np.errstate(invalid="ignore"):
            for args in bare_kernel_args(n):
                with pytest.raises(NonFiniteSampleError, match="non-finite"):
                    _apply_kernel(x, *args)

    @pytest.mark.parametrize("bad, error", [(np.inf, WeightOverflowError),
                                            (np.nan, NonFiniteSampleError)],
                             ids=["inf", "nan"])
    def test_unchecked_input_still_raises(self, bad, error):
        # a sweep hands products between passes over unchecked: an inf
        # fails the pass's overflow check, a nan its output check
        ctx = TransformContext(0.0, 0j, 0j, Grid(20.0, 64))
        values = np.ones((64, 1), dtype=complex)
        values[5] = bad
        f = RayFunction._adopt(ctx.time_ray, ctx.src_grid, values, 0.0, 0j)
        with pytest.raises(error):
            ctx.forward(f)

    def test_overflowing_post_factor_rejected(self):
        # finite FFT sums (8e300 at the zero frequency) whose post factor
        # e^700 overflows them: the pass output is what gets checked
        n = 8
        x = np.full((n, 1), 1e300, dtype=complex)
        with pytest.raises(NonFiniteSampleError, match="non-finite"):
            _apply_kernel(x, *bare_kernel_args(n, post=700.0)[0])

    def test_cached_arrays_read_only(self):
        ctx, _, _ = _wide_rows_case()
        for name in ("time_ray", "frequency_ray", "frequency_points",
                     "_checks", "_forward_factors", "_inverse_factors"):
            assert getattr(ctx, name) is getattr(ctx, name)
        arrays = [ctx.frequency_points]
        for check in ctx._checks:
            arrays.append(check.base)
            assert check.base_top == np.max(check.base)
            assert check.base_bottom == np.min(check.base)
        pre, post, fft = ctx._inverse_factors
        assert fft is _ifft_sums
        for factors in (*ctx._forward_factors, pre, post):
            arrays.extend(factors)
        assert ctx._forward_factors[0].unit.size > 0  # wide rows were split
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0


@st.composite
def packet_cases(draw):
    """Sums of Gaussian wave packets that have decayed, with their weights,
    at both ends of both windows, so the trapezoid sums of parseval_check
    equal the exact discrete isometry."""
    grid = Grid(draw(st.floats(8.0, 20.0)), draw(st.integers(256, 1024)))
    part = st.floats(-0.5, 0.5)
    ctx = TransformContext(draw(st.floats(-math.pi / 8, math.pi / 8)),
                           complex(draw(part), draw(part)),
                           complex(draw(part), draw(part)), grid)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = draw(st.integers(1, 4))
    t = grid.nodes[:, None]
    centers = rng.uniform(-0.25, 0.25, k) * grid.half_width
    widths = rng.uniform(1.0, 1.5, k)
    kicks = rng.uniform(-0.2, 0.2, k) * ctx.dst_grid.half_width
    amps = rng.standard_normal((k, 2)) + 1j * rng.standard_normal((k, 2))
    values = np.exp(-((t - centers) / widths) ** 2 + 1j * kicks * t) @ amps
    return ctx, RayFunction(ctx.time_ray, grid, values, 0.0, ctx.zeta)


@settings(max_examples=40, deadline=None)
@given(packet_cases())
def test_parseval_property(case):
    ctx, f = case
    assert parseval_check(ctx, f).rel_err <= 1e-12


class TestExpSum:
    def test_zero_nodes_ignore_their_exponents(self):
        # exp(1e4) overflows; a zero node must not turn it into inf * 0
        values = np.array([[0.0, 0.0], [1.0, -2.0j], [0.0, 0.0]])
        expo = np.array([[1e4, 0.5, 1e4]])
        got = exp_sum(values, expo)
        assert np.all(np.isfinite(got))
        assert np.allclose(got, np.exp(0.5) * values[1])

    def test_all_zero(self):
        assert np.array_equal(exp_sum(np.zeros((3, 2)), np.full((4, 3), 1e4)),
                              np.zeros((4, 2)))

    def test_overflow_names_node_and_point(self):
        values = np.ones((3, 1))
        expo = np.array([[0.0, 710.0, 0.0], [0.0, 0.0, 720.0]])
        for points, point in ((np.array([1.0, 2.0, 3.0]), 3.0), (None, None)):
            with pytest.raises(WeightOverflowError,
                               match=rf"node 2 \(point {point}\)") as err:
                exp_sum(values, expo, points)
            assert err.value.node_index == 2
            assert err.value.point == point
            assert err.value.log_magnitude == pytest.approx(720.0)

    def test_weight_past_exp_range(self):
        # exp(750) alone overflows; its products with these values do not
        values = np.array([[1e-300, 2e-301j]])
        got = exp_sum(values, np.array([[750.0 + 0.25j]]))
        want = np.exp(750.0 + 0.25j + np.log(values[0]))
        assert np.allclose(got[0], want, rtol=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteSampleError, match="non-finite"):
            exp_sum(np.array([[1.0], [np.nan]]), np.zeros((1, 2)))


@st.composite
def exp_sum_cases(draw):
    """Component magnitudes spread over 1e-100..1e100, some all-zero nodes,
    and exponents whose largest product per node reaches up to the
    overflow bound (zero nodes get exponents far past it)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k, c, p = (draw(st.integers(1, 40)), draw(st.integers(1, 6)),
               draw(st.integers(1, 12)))
    mags = 10.0 ** rng.uniform(-100.0, 100.0, (k, c))
    values = mags * np.exp(2j * math.pi * rng.uniform(size=(k, c)))
    zero = rng.uniform(size=k) < draw(st.floats(0.0, 0.5))
    values[zero] = 0.0
    log_top = np.zeros(k)
    log_top[~zero] = np.log(np.max(np.abs(values[~zero]), axis=1))
    combined = rng.uniform(-200.0, LOG_OVERFLOW_BOUND - 1e-9, (p, k))
    if draw(st.booleans()):
        combined[:, rng.integers(k)] = LOG_OVERFLOW_BOUND - 1e-9
    real = combined - log_top
    real[:, zero] = rng.uniform(-1e4, 1e4, (p, int(np.sum(zero))))
    return values, real + 1j * rng.uniform(-50.0, 50.0, (p, k))


@settings(max_examples=100, deadline=None)
@given(exp_sum_cases())
def test_exp_sum_matches_per_component_property(case):
    values, expo = case
    want, sizes = exp_sum_per_component(values, expo)
    got = exp_sum(values, expo)
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= 1e-12 * sizes)


@st.composite
def source_top_cases(draw):
    """Rows of magnitudes spread over the whole double range (subnormals,
    zero rows and pairs with |Re| = |Im| included), source exponents
    inside the normal range or past it, and a slack within a few units of
    the data's true largest term, or far off."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 3))
    top = draw(st.sampled_from([-1074, -900, 0, 300, 1023]))
    exps = rng.integers(max(-1074, top - draw(st.sampled_from([2, 60, 2000]))),
                        top + 1, (rows, cols))
    angles = draw(st.sampled_from([None, math.pi / 4]))
    angles = (rng.uniform(-math.pi, math.pi, (rows, cols)) if angles is None
              else angles + rng.integers(0, 4, (rows, cols)) * math.pi / 2)
    values = (np.ldexp(rng.uniform(0.5, 1.0, (rows, cols)), exps)
              * np.exp(1j * angles))
    values[rng.uniform(size=rows) < 0.2] = 0.0
    limit = draw(st.sampled_from([1.0, 300.0, 700.0, 900.0]))
    base = rng.uniform(-limit, limit, rows)
    with np.errstate(divide="ignore"):
        parts = base + np.log(np.max(np.abs(values), axis=1))
    offset = draw(st.sampled_from([-1e3, -1.0, -0.3, 0.0, 0.3, 1.0, 1e3]))
    slack = float(np.max(parts)) + offset
    return values, base, slack if math.isfinite(slack) else offset


@settings(max_examples=300, deadline=None)
@given(source_top_cases())
def test_source_top_matches_log_of_every_row_property(case):
    # the bound may skip the log path only where no row exceeds the
    # slack; otherwise the result is the log path's, bit for bit.  The
    # column peaks may skip the lift's logs only where no column lies
    # wholly below the normal range; otherwise each column's lift is the
    # one its own largest log gives
    values, base, slack = case
    check = _pass_check(np.zeros(1), base)
    with np.errstate(divide="ignore"):
        parts = base + np.log(np.max(np.abs(values), axis=1))
        tops = np.max(base[:, None] + np.log(np.abs(values)), axis=0)
    k, part, lift = _source_top(values, check, slack)
    if k is None:
        # a bound (or all-zero data)
        assert np.max(parts) <= part <= slack
    else:
        top = int(np.argmax(parts))
        assert (k, part) == (top, parts[top])
    low = (-np.inf < tops) & (tops < _LOG_TINY)
    if lift is None:
        assert not low.any()
    else:
        assert lift.tolist() == [int(-t / math.log(2.0)) if is_low else 0
                                 for t, is_low in zip(tops, low)]


def test_source_top_nan_row_hides_no_other_row():
    values = np.array([[np.nan], [1e300], [1.0]], dtype=complex)
    k, part, lift = _source_top(values, _pass_check(np.zeros(1), np.zeros(3)),
                                1.0)
    assert (k, part, lift) == (1, np.log(1e300), None)


@pytest.mark.parametrize("side", ["forward", "inverse"])
def test_subnormal_fft_input_summed_at_full_precision(side):
    # every weighted sample of the source side lies below e^-735, in the
    # subnormal range, and the destination factors reach e^1400 (forward:
    # w = 47.7j on Grid(5, 96)) or e^800 (inverse: zeta = -40j on
    # Grid(20, 96)); FFT sums formed there carry absolute rounding of
    # order 2^-1074, which those factors magnified into relative errors of
    # 2e-4 here (1e-3 on the property draw that found it), until the pass
    # lifted its input by a power of two
    rng = np.random.default_rng(14)
    values = np.exp(rng.uniform(-760.0, -735.0, (96, 2))
                    + 2j * math.pi * rng.uniform(size=(96, 2)))
    if side == "forward":
        ctx = TransformContext(0.0, 0j, 47.7j, Grid(5.0, 96))
        f = RayFunction(ctx.time_ray, ctx.src_grid, values, 0.0, ctx.zeta)
        got, (want, sizes) = ctx.forward(f).values, forward_per_element(ctx, f)
    else:
        ctx = TransformContext(0.0, -40j, 0j, Grid(20.0, 96))
        f = RayFunction(ctx.frequency_ray, ctx.dst_grid, values, 0.0, ctx.w)
        got, (want, sizes) = ctx.inverse(f).values, inverse_per_element(ctx, f)
    assert np.max(sizes) > 1e20  # far above the subnormal slack
    assert np.all(np.abs(got - want) <= 1e-12 * sizes + SUBNORMAL_SLACK)


def test_lift_tracks_exponents_past_2000():
    # source exponents reach -2400 and destination ones 2194: data of
    # e^300..e^400 on the first rows weigh about e^-2000, and the forward
    # pass lifts them by 2^2562; its row factors must keep such exponents
    # (clipped at +-2000 they put the result off by e^170).  Each exp of an
    # exponent near 2400 rounds by about 2400 * 2^-53, hence 1e-11.
    ctx = TransformContext(0.0, 120j, 110j, Grid(20.0, 256))
    rng = np.random.default_rng(1)
    values = np.zeros((256, 1), dtype=complex)
    values[:15, 0] = np.exp(rng.uniform(300.0, 400.0, 15)
                            + 1j * rng.uniform(0.0, 6.0, 15))
    f = RayFunction(ctx.time_ray, ctx.src_grid, values, 0.0, ctx.zeta)
    got = ctx.forward(f).values
    want, sizes = forward_per_element(ctx, f)
    assert np.max(np.abs(got)) > 1e100
    assert np.all(np.abs(got - want) <= 1e-11 * sizes + SUBNORMAL_SLACK)


def test_continuation_overflow_names_frequency_node():
    ctx = TransformContext(0.0, 0j, 0j, Grid(20.0, 256))
    fhat = RayFunction(ctx.frequency_ray, ctx.dst_grid, np.ones(256))
    # Re(i z lam) = 100 lam at z = -100i, largest at the last node
    with pytest.raises(WeightOverflowError) as err:
        ctx.evaluate_continuation(fhat, np.array([0.0, -100j]))
    assert err.value.node_index == 255
    assert err.value.point == fhat.points[255]


class TestContinuationBlocks:
    """evaluate_continuation forms its exponents in blocks of points."""

    @staticmethod
    def packet(count):
        ctx = TransformContext(0.0, 0j, 0j, Grid(10.0, count))
        fhat = ctx.forward(gaussian_on(ctx.src_grid))
        return ctx, fhat

    def test_blocks_match_one_shot(self, monkeypatch):
        ctx, fhat = self.packet(64)
        rng = np.random.default_rng(3)
        z = rng.uniform(-2.0, 2.0, 50) + 1j * rng.uniform(-0.1, 0.1, 50)
        whole = ctx.evaluate_continuation(fhat, z)
        prefactor = ctx.dst_grid.spacing / math.sqrt(2.0 * math.pi)
        one_shot = exp_sum(fhat.values, 1j * np.outer(z, fhat.points),
                           fhat.points) * prefactor
        assert np.array_equal(whole, one_shot)
        # 7 points per block: seven full blocks and one of a single point
        monkeypatch.setattr(conescale.transform, "_CONTINUATION_ENTRIES",
                            7 * 64)
        blocked = ctx.evaluate_continuation(fhat, z)
        assert np.all(np.abs(blocked - one_shot)
                      <= 1e-14 * np.max(np.abs(one_shot)))

    def test_overflow_comes_from_first_failing_block(self, monkeypatch):
        ctx = TransformContext(0.0, 0j, 0j, Grid(20.0, 256))
        fhat = RayFunction(ctx.frequency_ray, ctx.dst_grid, np.ones(256))
        monkeypatch.setattr(conescale.transform, "_CONTINUATION_ENTRIES", 256)
        # Re(i z lam) = -Im(z) lam: the first point overflows at the first
        # node, the later, deeper one at the last node
        with pytest.raises(WeightOverflowError) as err:
            ctx.evaluate_continuation(fhat, np.array([100j, -200j]))
        assert err.value.node_index == 0

    def test_memory_stays_bounded(self):
        # 4096 points against 1024 nodes: one full exponent matrix is
        # 64 MiB, and one block 8 MiB; a block's exponents, exp_sum's copy
        # of the kept columns (shifted and exponentiated in place) and its
        # real part fit in three
        ctx, fhat = self.packet(1024)
        z = np.linspace(-5.0, 5.0, 4096) + 0.01j
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            got = ctx.evaluate_continuation(fhat, z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.shape == (4096, 1) and np.all(np.isfinite(got))
        assert peak < 3 * conescale.transform._CONTINUATION_ENTRIES * 16
