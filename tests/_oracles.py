"""Independent oracles for the test suite.

Everything here deliberately avoids the package's transform-based solve
path: closed-form integrals, adaptive quadrature of explicit solution
formulas, dense finite-difference collocation, the dense transform kernel
that the FFT factorization replaced, the uncached spectrum that the
per-pencil factorization replaced (eagerly certified, and clustered from
the full matrix of pairwise distances instead of a sweep), the per-element log-space scaling (and
the forward/inverse transforms and per-component exponential sum built on
it) that per-row factors and transform.exp_sum replaced, the transforms
with their node exponents built on every call that per-context plans
replaced, per-point sampling of perturbing coefficients, and finite
differences checked against the transform's derivative rule.
"""

import cmath
import math

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.sparse.csgraph

from conescale.pencil import SpectrumReport, _companion, evaluate
from conescale.stencils import _window, derivative_uniform, fornberg_weights
from conescale.transform import (_SQRT2PI, _dft_phases, _require_finite,
                                 apply_derivative_rule, scaled_values)

GAUSS_L2 = math.pi ** 0.25                      # (int e^{-t^2} dt)^(1/2)
GAUSS_SOBOLEV1 = (1.5 * math.sqrt(math.pi)) ** 0.5   # (int (1+t^2) e^{-t^2})^(1/2)


def dense_kernel(src_grid, dst_grid):
    """The M x N matrix exp(-i * outer(xi, t)), formed entry by entry.

    Limited to N, M <= 1024: the matrix costs 16 N M bytes.
    """
    if max(src_grid.count, dst_grid.count) > 1024:
        raise ValueError("the dense kernel oracle is limited to 1024 nodes")
    return np.exp(-1j * np.outer(dst_grid.nodes, src_grid.nodes))


def scaled_values_per_element(values, exponents):
    """values * exp(exponents), each element through its own log magnitude
    and phase, as transforms scaled their data before per-row factors.

    Exponents of lower rank than values align with its leading axes;
    exponents of higher rank broadcast against values.
    """
    values = np.asarray(values, dtype=complex)
    exponents = np.asarray(exponents, dtype=complex)
    _require_finite(values)
    # split off a power of two so magnitude and phase stay representable
    # for subnormal and near-maximal values alike
    _, e = np.frexp(np.maximum(np.abs(values.real), np.abs(values.imag)))
    unit = np.ldexp(values.real, -e) + 1j * np.ldexp(values.imag, -e)
    mag = np.abs(unit)
    nonzero = mag > 0.0
    with np.errstate(divide="ignore"):
        log_mag = np.log(mag) + e * math.log(2.0)
    phase = np.where(nonzero, unit / np.where(nonzero, mag, 1.0), 0.0)
    if exponents.ndim < values.ndim:
        exponents = exponents.reshape(exponents.shape + (1,) * (values.ndim - exponents.ndim))
    total = exponents + log_mag
    out = np.where(np.isneginf(total.real), 0.0, np.exp(np.where(np.isneginf(total.real), 0.0, total)))
    return out * phase


def _transform_per_element(kernel, values, log_pre, prefactor, log_post):
    """(values, sizes): the sums scaled element by element on both sides of
    a dense kernel, and per output entry |prefactor| * exp(Re log_post_j)
    * sum_k |inner_k|, the size against which rounding is measured."""
    inner = scaled_values_per_element(values, log_pre)
    out = scaled_values_per_element((kernel @ inner) * prefactor, log_post)
    total = np.sum(np.abs(inner), axis=0) * abs(prefactor)
    sizes = np.abs(scaled_values_per_element(
        np.broadcast_to(total, (log_post.size, total.size)), log_post.real))
    return out, sizes


def forward_per_element(ctx, f):
    """TransformContext.forward as computed before per-row factors: the data
    and the sums scaled element by element, with the dense kernel (N, M <=
    1024) in place of the FFT.  Returns (values, sizes)."""
    dir_t = ctx.time_ray.direction
    prefactor = (ctx.src_grid.spacing / _SQRT2PI * dir_t
                 * np.exp(-2j * ctx.zeta * ctx.w))
    return _transform_per_element(
        dense_kernel(ctx.src_grid, ctx.dst_grid), f.values,
        -1j * ctx.zeta * dir_t * ctx.src_grid.nodes, prefactor,
        -1j * ctx.w * ctx.frequency_ray.direction * ctx.dst_grid.nodes)


def inverse_per_element(ctx, fhat):
    """TransformContext.inverse as computed before per-row factors (see
    forward_per_element).  Returns (values, sizes)."""
    dir_f = ctx.frequency_ray.direction
    prefactor = (ctx.dst_grid.spacing / _SQRT2PI * dir_f
                 * np.exp(2j * ctx.zeta * ctx.w))
    return _transform_per_element(
        dense_kernel(ctx.src_grid, ctx.dst_grid).conj().T, fhat.values,
        1j * ctx.w * dir_f * ctx.dst_grid.nodes, prefactor,
        1j * ctx.zeta * ctx.time_ray.direction * ctx.src_grid.nodes)


def _kernel_per_call(src_grid, dst_grid, x, pre=0.0, post=0.0):
    """exp(post_j) * sum_k exp(-i xi_j t_k) exp(pre_k) x_k via one FFT, the
    node exponents folded with the DFT phases on this call."""
    n, m = src_grid.count, dst_grid.count
    const, row, col = _dft_phases(n, m)
    y = scaled_values(x, col + pre)
    if n > m:
        y = np.concatenate([y, np.zeros(((-n) % m,) + y.shape[1:], dtype=complex)])
        y = y.reshape((-1, m) + y.shape[1:]).sum(axis=0)
    return scaled_values(np.fft.fft(y, n=m, axis=0), const + row + post)


def _kernel_adjoint_per_call(src_grid, dst_grid, y, pre=0.0, post=0.0):
    """exp(post_k) * sum_j exp(+i t_k xi_j) exp(pre_j) y_j via one FFT,
    the node exponents folded with the DFT phases on this call."""
    n, m = src_grid.count, dst_grid.count
    const, row, col = _dft_phases(n, m)
    sums = np.fft.ifft(scaled_values(y, pre - row), axis=0, norm="forward")
    return scaled_values(sums[np.arange(n) % m], post - const - col)


def forward_per_call(ctx, f):
    """The values of TransformContext.forward, every node exponent built on
    this call, as before contexts kept plans; the overflow checks are left
    out.  The arithmetic is the plan's, so the two agree bit for bit."""
    t, xi = ctx.src_grid.nodes, ctx.dst_grid.nodes
    dir_t = ctx.time_ray.direction
    dir_f = ctx.frequency_ray.direction
    log_prefactor = (cmath.log(ctx.src_grid.spacing / _SQRT2PI * dir_t)
                     - 2j * ctx.zeta * ctx.w)
    return _kernel_per_call(ctx.src_grid, ctx.dst_grid, f.values,
                            pre=-1j * ctx.zeta * dir_t * t,
                            post=-1j * ctx.w * dir_f * xi + log_prefactor)


def inverse_per_call(ctx, fhat):
    """The values of TransformContext.inverse (see forward_per_call)."""
    t, xi = ctx.src_grid.nodes, ctx.dst_grid.nodes
    dir_t = ctx.time_ray.direction
    dir_f = ctx.frequency_ray.direction
    log_prefactor = (cmath.log(ctx.dst_grid.spacing / _SQRT2PI * dir_f)
                     + 2j * ctx.zeta * ctx.w)
    return _kernel_adjoint_per_call(ctx.src_grid, ctx.dst_grid, fhat.values,
                                    pre=1j * ctx.w * dir_f * xi,
                                    post=1j * ctx.zeta * dir_t * t + log_prefactor)


def pullback_per_call(ctx, f):
    """The spectrum of TransformContext.pullback_spectrum (see
    forward_per_call)."""
    t = ctx.src_grid.nodes
    dir_t = ctx.time_ray.direction
    return _kernel_per_call(ctx.src_grid, ctx.dst_grid, f.values,
                            pre=-1j * ctx.zeta * (dir_t * t + ctx.w),
                            post=math.log(ctx.src_grid.spacing / _SQRT2PI))


def derivative_rule_deviation(ctx, fhat, j, acc=2):
    """Max-abs gap between the derivative rule and finite differences.

    Compares D^j of the inverse transform (centered differences of the
    stated accuracy along the time ray) with the inverse transform of
    lam^j * Fhat, over the stencil-valid interior.
    """
    via_rule = apply_derivative_rule(ctx, fhat, j)
    base = ctx.inverse(fhat)
    deriv, core = derivative_uniform(base.values, base.grid.spacing, j, acc=acc)
    dir_inv = 1.0 / base.ray.direction
    deriv = deriv * (-1j * dir_inv) ** j
    gap = np.abs(deriv[core] - via_rule.values[core])
    return float(np.max(gap)) if gap.size else 0.0


def perturbation_per_point(coefficients, z, n):
    """Perturbing coefficients sampled one node at a time: Q_j(z_k) from
    coefficients(z[k:k+1]), stacked to (N, n, n) per j."""
    per_point = [coefficients(z[k:k + 1]) for k in range(z.size)]
    return [np.stack([np.broadcast_to(np.asarray(qs[j], dtype=complex), (1, n, n))[0]
                      for qs in per_point])
            for j in range(len(per_point[0]))]


def exp_sum_per_component(values, exponents):
    """sum_k exp(exponents[:, k]) * values[k, c], one per-element scaling
    pass per component c, as the continuations summed before exp_sum.

    Returns (sums, sizes) with sizes[p, c] = sum_k |exp(E[p, k]) v[k, c]|,
    the scale against which rounding in the sum is measured.
    """
    values = np.asarray(values, dtype=complex)
    sums = np.zeros((exponents.shape[0], values.shape[1]), dtype=complex)
    sizes = np.zeros(sums.shape)
    for comp in range(values.shape[1]):
        terms = scaled_values_per_element(values[:, comp], exponents)
        sums[:, comp] = np.sum(terms, axis=1)
        sizes[:, comp] = np.sum(np.abs(terms), axis=1)
    return sums, sizes


def cluster_pairwise(values, tol):
    """Single-linkage clusters from the full N x N matrix of distances.

    The connected components of |a - b| <= tol, ordered by their first
    member in lexsort (real part first) order, members in that order.
    """
    vals = values[np.lexsort((values.imag, values.real))]
    near = np.abs(vals[:, None] - vals[None, :]) <= tol
    _, labels = scipy.sparse.csgraph.connected_components(near,
                                                          directed=False)
    firsts = sorted(set(labels), key=lambda c: np.flatnonzero(labels == c)[0])
    return [vals[labels == c] for c in firsts]


def spectrum_uncached(p, region=None, tol_cluster=1e-7, tol_inf=1e-8):
    """The spectrum as computed before factorizations were cached.

    A fresh eigenvalue-only companion solve per call, clustered by
    cluster_pairwise, with the region filter applied before each cluster's
    SVD certificate.
    """
    raw = scipy.linalg.eigvals(*_companion(p.coefficients))
    finite = raw[np.isfinite(raw)]
    kept = finite[np.abs(finite) <= 1.0 / tol_inf]
    notes = []
    if raw.size - kept.size:
        notes.append(f"dropped {raw.size - kept.size} eigenvalue(s) at or "
                     f"near infinity")
    scale = p.coefficient_scale()
    eigenvalues, multiplicities, residuals = [], [], []
    for cluster in cluster_pairwise(kept, tol_cluster):
        lam = complex(np.mean(cluster))
        if region is not None and not region.contains_closed(lam):
            continue
        sing = np.linalg.svd(evaluate(p, lam), compute_uv=False)
        eigenvalues.append(lam)
        multiplicities.append(len(cluster))
        residuals.append(float(sing[-1]))
        if sing[-1] > 1e-8 * scale:
            notes.append(
                f"eigenvalue {lam} fails its residual certificate: smallest "
                f"singular value {sing[-1]:.3e} vs scale {scale:.3e}"
            )
        if len(cluster) > 1:
            notes.append(
                f"cluster at {lam}: multiplicity {len(cluster)} by distance; "
                f"Jordan chains unresolved, may be defective"
            )
    order = np.lexsort((np.array([v.imag for v in eigenvalues]),
                        np.array([v.real for v in eigenvalues]))) \
        if eigenvalues else []
    return SpectrumReport(
        tuple(eigenvalues[i] for i in order),
        tuple(multiplicities[i] for i in order),
        tuple(residuals[i] for i in order),
        tuple(notes),
    )


def variation_of_constants(rhs, t_values):
    """Decaying solution of (D + i) u = F, i.e. u(t) = -i int_t^inf e^{t-s} F(s) ds."""
    out = np.zeros(len(t_values), dtype=complex)
    for k, t in enumerate(t_values):
        re, _ = scipy.integrate.quad(
            lambda s: math.exp(t - s) * rhs(s).real, t, np.inf, limit=200)
        im, _ = scipy.integrate.quad(
            lambda s: math.exp(t - s) * rhs(s).imag, t, np.inf, limit=200)
        out[k] = -1j * (re + 1j * im)
    return out


def fd_laplacian_eigenvalues(n):
    """Closed-form +i branch for the Dirichlet second-difference pencil."""
    h = 1.0 / (n + 1)
    k = np.arange(1, n + 1)
    return 2.0 / h * np.sin(k * math.pi * h / 2.0)


def differentiation_matrix(n_nodes, spacing, m, acc=6, cuts=()):
    """Dense N x N matrix applying d^m/dt^m on a uniform grid.

    The collocation oracles' operator; the package itself differentiates
    with banded stencils (stencils.derivative_with_cuts).

    `cuts` are node indices where the sampled function may lose smoothness;
    stencil windows never straddle a cut (one-sided near cuts and edges), so
    piecewise-smooth functions are differentiated at full accuracy on each
    piece.
    """
    width = m + acc
    if (m + width) % 2 == 1:
        width += 1
    bounds = sorted({0, n_nodes, *[int(c) for c in cuts if 0 < c < n_nodes]})
    segments = list(zip(bounds[:-1], bounds[1:]))
    D = np.zeros((n_nodes, n_nodes))
    for k in range(n_nodes):
        start = _window(k, n_nodes, width, segments)
        xs = (np.arange(start, start + width) - k).astype(float)
        D[k, start:start + width] = fornberg_weights(0.0, xs, m)
    return D / spacing ** m


def _pins(pencil_root_imag_signs):
    left = sum(1 for s in pencil_root_imag_signs if s > 0)
    right = sum(1 for s in pencil_root_imag_signs if s < 0)
    return left, right


def collocation_constant(coeffs, grid, rhs_values, root_imag_signs, acc=6):
    """Dense FD collocation of sum A_j D^(m-j) u = F on the real line.

    ``coeffs`` are scalar pencil coefficients A_0..A_m; decaying behavior is
    imposed by pinning one boundary node per characteristic root (left for
    Im > 0 roots, right for Im < 0), which is where the corresponding
    homogeneous mode grows.
    """
    n = grid.count
    m = len(coeffs) - 1
    A = np.zeros((n, n), dtype=complex)
    for j, c in enumerate(coeffs):
        order = m - j
        if order == 0:
            A += c * np.eye(n)
        else:
            D = differentiation_matrix(n, grid.spacing, order, acc=acc)
            A += c * (-1j) ** order * D
    b = np.asarray(rhs_values, dtype=complex).copy()
    left, right = _pins(root_imag_signs)
    for k in range(left):
        A[k, :] = 0.0
        A[k, k] = 1.0
        b[k] = 0.0
    for k in range(right):
        A[n - 1 - k, :] = 0.0
        A[n - 1 - k, n - 1 - k] = 1.0
        b[n - 1 - k] = 0.0
    return np.linalg.solve(A, b)


def collocation_perturbed_first_order(q_of_t, grid, rhs_values, acc=6):
    """Dense FD solve of (D + i) u - q(t) D u = F (pinned on the right).

    This is the raw perturbed equation; with the solver's projection cut in
    the decayed tail the subsidiary and raw problems agree far below the
    comparison tolerance, so this stays a valid independent oracle.
    """
    n = grid.count
    t = grid.nodes
    D = -1j * differentiation_matrix(n, grid.spacing, 1, acc=acc)
    A = D + 1j * np.eye(n) - np.diag(q_of_t(t)) @ D
    b = np.asarray(rhs_values, dtype=complex).copy()
    A[-1, :] = 0.0
    A[-1, -1] = 1.0
    b[-1] = 0.0
    return np.linalg.solve(A, b)
