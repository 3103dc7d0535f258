"""Independent oracles for the test suite.

Everything here deliberately avoids the package's transform-based solve
path: closed-form integrals, adaptive quadrature of explicit solution
formulas, dense finite-difference collocation, the dense transform kernel
that the FFT factorization replaced, the uncached spectrum that the
per-pencil cached eigensolve replaced (certified in the same pass, and
clustered from the full matrix of pairwise distances instead of a sweep),
the QZ solve of the full companion pencil that the standard QR solve
replaced for pencils led by the identity (and the n x n root solve for
binomial pencils lam^m I + A_m), the partial-fraction triple of binomial
pencils that the modal triple replaced, the per-element log-space scaling (and
the forward/inverse transforms and per-component exponential sum built on
it) that per-row factors and transform.exp_sum replaced, the transforms
with their node exponents built on every call that per-context factors
replaced, the dense per-node perturbation Q_j(z_k) applied by matvec
that the profile x matrix terms replaced, the six-pass Neumann sweep (each
projection transforming u afresh) that the five-pass sweep replaced, the
transform's derivative rule
(the inverse transform of lam^j Fhat) that finite differences are checked
against, and the spectral Sobolev norm (from the Fourier transform of the
weighted pullback) that checks the weighted-derivative energy.  The modal
solve of the perturbed cylinder does run the package's solver, but one
1 x 1 cross-section mode at a time: it checks the n x n path against the
problem's own separation of variables.
"""

import cmath
import math
from dataclasses import replace

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.sparse.csgraph
import scipy.special

from conescale import (ConstantProblem, MatrixPencil, continuation_certificate,
                       solve_variable)
from conescale.errors import ConfigurationError
from conescale.hardy import halfline_projection
from conescale.pencil import SpectrumReport, _roots, evaluate
from conescale.rhs import AnalyticRhs
from conescale.solver import (VariableSolveResult, _check_line_clear,
                              _fd_residual, _prepare_perturbation, _resolve)
from conescale.stencils import _window, derivative_uniform, fornberg_weights
from conescale.transform import (_SQRT2PI, _apply_factors, _dft_phases,
                                 _require_finite, _row_factors, dual_grid)

GAUSS_L2 = math.pi ** 0.25                      # (int e^{-t^2} dt)^(1/2)
GAUSS_SOBOLEV1 = (1.5 * math.sqrt(math.pi)) ** 0.5   # (int (1+t^2) e^{-t^2})^(1/2)


def dense_kernel(grid):
    """The N x N matrix exp(-i * outer(xi, t)) on a time grid and its dual,
    formed entry by entry.

    Limited to N <= 1024: the matrix costs 16 N^2 bytes.
    """
    if grid.count > 1024:
        raise ValueError("the dense kernel oracle is limited to 1024 nodes")
    return np.exp(-1j * np.outer(dual_grid(grid).nodes, grid.nodes))


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


def _transform_per_element(kernel, values, log_pre, log_post):
    """(values, sizes): the sums scaled element by element on both sides of
    a dense kernel, and per output entry exp(Re log_post_j) * sum_k
    |inner_k|, the size against which rounding is measured.

    The constant prefactor is a term of log_post, so it cannot push the
    sums out of the normal range; a column whose inner products would all
    lie below it is formed 2^s larger, with s ln 2 taken off its log_post,
    so its dense sums keep relative precision there too.  Each column
    takes its own s: one taken from the largest column would leave a far
    smaller one partly subnormal."""
    with np.errstate(divide="ignore"):
        top = np.max(np.log(np.abs(values)) + log_pre.real[:, None], axis=0)
    low = (-np.inf < top) & (top < math.log(np.finfo(float).tiny))
    lift = np.where(low, np.floor(-top / math.log(2.0)) * math.log(2.0), 0.0)
    log_pre, log_post = log_pre[:, None] + lift, log_post[:, None] - lift
    inner = scaled_values_per_element(values, log_pre)
    out = scaled_values_per_element(kernel @ inner, log_post)
    total = np.sum(np.abs(inner), axis=0)
    sizes = np.abs(scaled_values_per_element(
        np.broadcast_to(total, log_post.shape), log_post.real))
    return out, sizes


def forward_per_element(ctx, f):
    """TransformContext.forward as computed before per-row factors: the data
    and the sums scaled element by element, with the dense kernel (N <=
    1024) in place of the FFT.  Returns (values, sizes)."""
    dir_t = ctx.time_ray.direction
    log_prefactor = (cmath.log(ctx.src_grid.spacing / _SQRT2PI * dir_t)
                     - 2j * ctx.zeta * ctx.w)
    return _transform_per_element(
        dense_kernel(ctx.src_grid), f.values,
        -1j * ctx.zeta * dir_t * ctx.src_grid.nodes,
        -1j * ctx.w * ctx.frequency_ray.direction * ctx.dst_grid.nodes
        + log_prefactor)


def inverse_per_element(ctx, fhat):
    """TransformContext.inverse as computed before per-row factors (see
    forward_per_element).  Returns (values, sizes)."""
    dir_f = ctx.frequency_ray.direction
    log_prefactor = (cmath.log(ctx.dst_grid.spacing / _SQRT2PI * dir_f)
                     + 2j * ctx.zeta * ctx.w)
    return _transform_per_element(
        dense_kernel(ctx.src_grid).conj().T, fhat.values,
        1j * ctx.w * dir_f * ctx.dst_grid.nodes,
        1j * ctx.zeta * ctx.time_ray.direction * ctx.src_grid.nodes
        + log_prefactor)


def _kernel_per_call(grid, x, pre, post):
    """exp(post_j) * sum_k exp(-i xi_j t_k) exp(pre_k) x_k via one FFT, on
    a time grid and its dual, the node exponents folded with the DFT phases
    on this call."""
    const, phase = _dft_phases(grid.count)
    y = _apply_factors(x, _row_factors(phase + pre))
    return _apply_factors(np.fft.fft(y, axis=0),
                          _row_factors(const + phase + post))


def _kernel_adjoint_per_call(grid, y, pre, post):
    """exp(post_k) * sum_j exp(+i t_k xi_j) exp(pre_j) y_j via one FFT,
    the node exponents folded with the DFT phases on this call."""
    const, phase = _dft_phases(grid.count)
    sums = np.fft.ifft(_apply_factors(y, _row_factors(pre - phase)), axis=0,
                       norm="forward")
    return _apply_factors(sums, _row_factors(post - const - phase))


def forward_per_call(ctx, f):
    """The values of TransformContext.forward, every node exponent built on
    this call, as before contexts kept their factors; the overflow checks
    and the lift are left out.  The arithmetic is the context's, so the two
    agree bit for bit on every pass that does not lift."""
    t, xi = ctx.src_grid.nodes, ctx.dst_grid.nodes
    dir_t = ctx.time_ray.direction
    dir_f = ctx.frequency_ray.direction
    log_prefactor = (cmath.log(ctx.src_grid.spacing / _SQRT2PI * dir_t)
                     - 2j * ctx.zeta * ctx.w)
    return _kernel_per_call(ctx.src_grid, f.values,
                            pre=-1j * ctx.zeta * dir_t * t,
                            post=-1j * ctx.w * dir_f * xi + log_prefactor)


def inverse_per_call(ctx, fhat):
    """The values of TransformContext.inverse (see forward_per_call)."""
    t, xi = ctx.src_grid.nodes, ctx.dst_grid.nodes
    dir_t = ctx.time_ray.direction
    dir_f = ctx.frequency_ray.direction
    log_prefactor = (cmath.log(ctx.dst_grid.spacing / _SQRT2PI * dir_f)
                     + 2j * ctx.zeta * ctx.w)
    return _kernel_adjoint_per_call(ctx.src_grid, fhat.values,
                                    pre=1j * ctx.w * dir_f * xi,
                                    post=1j * ctx.zeta * dir_t * t + log_prefactor)


def pullback_per_call(ctx, f):
    """Fourier transform of the weighted pullback of a time-side function:
    (2 pi)^{-1/2} * integral e^{-i xi t} e^{-i zeta z(t)} F(z(t)) dt on the
    real frequency parameters xi of the destination grid (see
    forward_per_call)."""
    t = ctx.src_grid.nodes
    dir_t = ctx.time_ray.direction
    return _kernel_per_call(ctx.src_grid, f.values,
                            pre=-1j * ctx.zeta * (dir_t * t + ctx.w),
                            post=math.log(ctx.src_grid.spacing / _SQRT2PI))


def sobolev_norm_spectral(f, ell, ctx):
    """Sobolev norm of a time-side RayFunction via its frequency content:
    (1 + xi^2)^ell integrated against the squared pullback spectrum by
    composite trapezoid.  Any real ell; for integer ell >= 0 and weight
    number 0 it is the square root of geometry.derivative_energy with the
    binomial weights C(ell, j), to quadrature accuracy."""
    xi = ctx.dst_grid.nodes
    q = np.sum(np.abs(pullback_per_call(ctx, f)) ** 2, axis=1)
    weight = (1.0 + xi ** 2) ** float(ell)
    w = ctx.dst_grid.trapezoid_weights()
    return math.sqrt(float(np.sum(w * weight * q) * ctx.dst_grid.spacing))


def apply_derivative_rule(ctx, fhat, j):
    """Inverse transform of lam^j * Fhat, realizing D^j on the time side.

    Refuses to proceed when lam^j * Fhat has not decayed to 1e-8 of its
    peak at the frequency window ends, since the quadrature would silently
    truncate it.
    """
    lam = fhat.points
    scaled = fhat.values * (lam ** j)[:, None]
    peak = float(np.max(np.abs(scaled)))
    if peak > 0.0:
        edge = float(max(np.max(np.abs(scaled[0])), np.max(np.abs(scaled[-1]))))
        if edge > 1e-8 * peak:
            raise ConfigurationError(
                f"lam^{j} * Fhat has tail mass {edge / peak:.2e} at the "
                f"frequency window ends; enlarge the grid"
            )
    return ctx.inverse(fhat.with_values(scaled))


def derivative_rule_deviation(ctx, fhat, j, acc=2):
    """Max-abs gap between the derivative rule and finite differences.

    Compares D^j of the inverse transform (centered differences of the
    stated accuracy along the time ray) with the inverse transform of
    lam^j * Fhat, over the stencil-valid interior.
    """
    via_rule = apply_derivative_rule(ctx, fhat, j)
    base = ctx.inverse(fhat)
    derivs, core = derivative_uniform(base.values, base.grid.spacing, (j,),
                                      acc=acc)
    dir_inv = 1.0 / base.ray.direction
    deriv = derivs[..., 0] * (-1j * dir_inv) ** j
    gap = np.abs(deriv[core] - via_rule.values[core])
    return float(np.max(gap)) if gap.size else 0.0


def perturbation_per_point(coefficients, z, projections):
    """sum_j Q_j(z_k) p_j(z_k) one node at a time.

    Q_j(z_k) = sum_r phi_r(z_k) V_r is formed as a dense n x n matrix from
    coefficients(z[k:k+1]) and applied by matvec to row k of
    projections[j], the (N, n) projected derivative that Q_j multiplies.
    """
    n = projections[0].shape[1]
    out = np.zeros((z.size, n), dtype=complex)
    for k in range(z.size):
        for terms, proj in zip(coefficients(z[k:k + 1]), projections):
            q = np.zeros((n, n), dtype=complex)
            for profile, matrix in terms or ():
                q += np.asarray(profile)[0] * np.asarray(matrix)
            out[k] += q @ proj[k]
    return out


def solve_variable_six_pass(vp, res_tol, max_iter=50):
    """solve_variable's Neumann iteration with six transform passes a
    sweep: each projection starts from its own forward transform of u_k
    instead of the frequency data the sweep has just inverted to u_k.

    The same resolve, perturbation terms, cut-aware residual and ratio;
    the sweep stops at res_tol, and running out of the max_iter sweeps
    raises AssertionError (the oracle is for problems that converge).
    """
    base = vp.base
    ctx = base.context()
    _check_line_clear(base.pencil, ctx)
    grid = base.rhs.grid
    per_j = _prepare_perturbation(vp, grid)
    cut = base.ray.points(np.array([vp.sector_start]))[0]
    cut_node = int(np.argmin(np.abs(grid.nodes - base.ray.parameter(cut))))
    m = base.pencil.degree
    u, _ = _resolve(base.pencil, ctx, base.rhs)
    residuals = []
    for _ in range(max_iter):
        pert = np.zeros_like(u.values)
        for j, terms in enumerate(per_j):
            if terms:
                proj = halfline_projection(u, m - j, eta=base.zeta + 4j, v=cut,
                                           ctx=ctx, extra_power=m - j).values
                for profile, matrix in terms:
                    pert += profile[:, None] * (proj @ matrix.T)
        residuals.append(_fd_residual(base.pencil, u, base.rhs, pert,
                                      cuts=(cut_node,)))
        if residuals[-1] <= res_tol:
            break
        u, _ = _resolve(base.pencil, ctx,
                        base.rhs.with_values(base.rhs.values + pert))
    else:
        raise AssertionError(f"no convergence in {max_iter} sweeps: {residuals}")
    ratios = [residuals[k + 1] / residuals[k]
              for k in range(len(residuals) - 1) if residuals[k] > 0.0]
    return VariableSolveResult(u, tuple(residuals), max(ratios, default=0.0))


class _ModeRhs(AnalyticRhs):
    """Cross-section mode w of an analytic rhs: z -> f(z) . w."""

    def __init__(self, full, w):
        super().__init__()
        self.full = full
        self.w = w

    def __call__(self, z):
        return self.full(z) @ self.w[:, None]


def modal_variable_solve(vp, phi, offset, n_angles, res_tol):
    """The perturbed cylinder solved one cross-section mode at a time.

    vp's pencil is A_0 lam^m + ... + A_(m-1) lam + L with A_0, ...,
    A_(m-1) multiples of I, L real symmetric and identity norm forms.
    With L = W diag(nu) W^T (eigh), mode k is the 1 x 1 problem with
    coefficients (A_0[0, 0], ..., nu_k) and rhs W[:, k]^T f, and each term
    (phi_r, V_r) of vp's coefficients becomes (phi_r, W[:, k]^T V_r
    W[:, k]): exact when every V_r commutes with L, wrong otherwise.  Each
    mode runs solve_variable and continuation_certificate at ``res_tol``.
    Returns W times the modal solutions on vp's ray, the per-ray energies
    summed over the modes (with identity forms and orthogonal W they add)
    and their max / psi = 0 ratio.
    """
    base = vp.base
    *lead, stiffness = base.pencil.coefficients
    nu, W = np.linalg.eigh(stiffness.real)
    us, energies = [], 0.0
    for k in range(nu.size):
        w = W[:, k]

        def coefficients(z, w=w):
            return [None if terms is None
                    else [(profile, [[w @ np.asarray(matrix) @ w]])
                          for profile, matrix in terms]
                    for terms in vp.coefficients(z)]

        pencil = MatrixPencil(tuple(a[:1, :1] for a in lead)
                              + (np.array([[nu[k]]]),))
        rhs = _ModeRhs(base.evaluator, w)
        mode_base = ConstantProblem(
            pencil, rhs.sample(base.ray, base.rhs.grid, base.rhs.weight_order,
                               base.zeta), rhs)
        mode = replace(vp, base=mode_base, coefficients=coefficients)
        us.append(solve_variable(mode, res_tol=res_tol).u.values[:, 0])
        cert = continuation_certificate(mode, phi, offset=offset,
                                        n_angles=n_angles, res_tol=res_tol)
        energies = energies + np.array([e for _, e in cert.rows])
    return np.stack(us, axis=1) @ W.T, energies, energies.max() / energies[0]


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


def _companion_blocks(p):
    """(A, B) of the block companion pencil lam B - A of p, both complex
    and formed in full, B even when A_0 is the identity."""
    coeffs = p.coefficients
    m, n = p.degree, p.dim
    A = np.zeros((m * n, m * n), dtype=complex)
    B = np.eye(m * n, dtype=complex)
    for k in range(m - 1):
        A[k * n:(k + 1) * n, (k + 1) * n:(k + 2) * n] = np.eye(n)
    for k in range(m):
        A[(m - 1) * n:, k * n:(k + 1) * n] = -coeffs[m - k]
    B[(m - 1) * n:, (m - 1) * n:] = coeffs[0]
    return A, B


def _is_identity(c):
    return np.array_equal(c, np.eye(len(c)))


def _binomial_part(p):
    """-A_m when p is lam^m I + A_m (A_0 equal to I and A_1..A_(m-1) to
    zero, entry by entry), real when A_m is; else None.  The test is this
    module's own, not the pencil's classification."""
    coeffs = p.coefficients
    if not _is_identity(coeffs[0]) or any(
            np.count_nonzero(c) for c in coeffs[1:-1]):
        return None
    c = coeffs[-1]
    return -(c.real if np.all(c.imag == 0.0) else c)


def companion_qz_eigvals(p):
    """All m n eigenvalues of the block companion pencil lam B - A of p by
    QZ (scipy.linalg.eigvals(A, B)), with B formed in full even when A_0
    is the identity, as every pencil was solved before the standard QR
    route; inf where A_0 is singular."""
    return scipy.linalg.eigvals(*_companion_blocks(p))


def partial_fraction_triple(p):
    """(w, X, Y) with A(lam)^{-1} = X diag(1 / (lam - w)) Y for a binomial
    pencil lam^m I + A_m, in the partial fractions that the modal triple
    replaced: with -A_m W = W diag(nu) and omega the m-th roots of nu, X is
    m copies of W side by side and Y stacks the blocks W^{-1} / (m
    omega^(m-1)), the residues of 1 / (lam^m - nu) at each root.  Its m
    terms per mode cancel at nodes far outside the spectrum."""
    nu, W = np.linalg.eig(_binomial_part(p))
    m, n = p.degree, p.dim
    omega = _roots(nu.astype(complex), m)
    Y = np.linalg.inv(W) / (m * omega ** (m - 1))[:, :, None]
    return omega.ravel(), np.tile(W, m), Y.reshape(m * n, n)


def spectrum_uncached(p, region=None, tol_cluster=1e-7, tol_inf=1e-8):
    """The spectrum and its certificate as computed before each pencil
    cached its eigensolve, as (SpectrumReport, (residuals, notes)).

    A fresh eigenvalue solve per call by the pencil's route, chosen by
    this module's own tests of the coefficients (the m-th roots of the
    eigenvalues of -A_m for a binomial pencil lam^m I + A_m, by eigh when
    -A_m is exactly Hermitian; else the companion by standard QR when A_0
    is the identity, QZ otherwise), clustered by cluster_pairwise, with
    the region filter applied before each cluster's SVD certificate; only
    the QZ route meets infinite eigenvalues, the pairs (alpha, beta) with
    |beta| <= tol_inf |B|_F, and drops them.
    Clusters are ordered by a walk over their real parts that starts a new
    group at each gap above tol_cluster, then by imaginary part within a
    group; notes follow the same order.
    """
    # the eigenvalues of the with-vectors solve, as the pencil computes
    # them (eigvalsh or eigvals may differ in the last digits)
    k = _binomial_part(p)
    qz = k is None and not _is_identity(p.coefficients[0])
    if k is not None:
        nu = (np.linalg.eigh(k) if np.array_equal(k, k.conj().T)
              else np.linalg.eig(k))[0]
        raw = _roots(nu.astype(complex), p.degree).ravel()
    else:
        a, b = _companion_blocks(p)
        if qz:
            # a pair with |beta| <= tol_inf |B|_F is at or near infinity
            alpha, beta = scipy.linalg.eig(a, b, right=False,
                                           homogeneous_eigvals=True)
            raw = np.full_like(alpha, np.inf)
            finite = np.abs(beta) > tol_inf * np.linalg.norm(b)
            raw[finite] = alpha[finite] / beta[finite]
        elif all(np.all(c.imag == 0.0) for c in p.coefficients):
            raw = np.linalg.eig(np.ascontiguousarray(a.real))[0]
        else:
            raw = np.linalg.eig(a)[0]
        raw = raw.astype(complex)
    kept = raw[np.isfinite(raw)]
    head = []
    if raw.size - kept.size:
        head.append(f"dropped {raw.size - kept.size} eigenvalue(s) at or "
                    f"near infinity")
    norms = [float(np.linalg.norm(c)) for c in p.coefficients]
    rows = []                # (lam, multiplicity, residual, notes)
    for cluster in cluster_pairwise(kept, tol_cluster):
        lam = complex(np.mean(cluster))
        if region is not None and not region.contains_closed(lam):
            continue
        sing = np.linalg.svd(evaluate(p, lam), compute_uv=False)
        notes = []
        # eigenvalue backward error 1e-8 (Tisseur): sum_j |lam|^(m-j) |A_j|
        bound = 1e-8 * sum(abs(lam) ** (p.degree - j) * norm
                           for j, norm in enumerate(norms))
        if sing[-1] > bound:
            notes.append(
                f"eigenvalue {lam} fails its residual certificate: smallest "
                f"singular value {sing[-1]:.3e} vs backward-error bound "
                f"{bound:.3e}"
            )
        if len(cluster) > 1:
            notes.append(
                f"cluster at {lam}: multiplicity {len(cluster)} by distance; "
                f"Jordan chains unresolved, may be defective"
            )
        rows.append((lam, len(cluster), float(sing[-1]), notes))
    rows.sort(key=lambda row: row[0].real)
    group, keyed = 0, []
    for k, row in enumerate(rows):
        if k and row[0].real - rows[k - 1][0].real > tol_cluster:
            group += 1
        keyed.append(((group, row[0].imag), row))
    rows = [row for _, row in sorted(keyed, key=lambda item: item[0])]
    report = SpectrumReport(tuple(row[0] for row in rows),
                            tuple(row[1] for row in rows))
    return report, (tuple(row[2] for row in rows),
                    tuple(head + [n for row in rows for n in row[3]]))


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


def differentiation_matrix(n_nodes, spacing, m, acc=6, cuts=(), reach=None):
    """Dense N x N matrix applying d^m/dt^m on a uniform grid.

    The collocation oracles' operator; the package itself differentiates
    with banded stencils (stencils.derivative_with_cuts).  Row k takes a
    window of m + acc nodes (m + acc + 1 for odd acc, one node at order 0)
    around k, shifted into k's segment.  Given ``reach``, only rows within
    ``reach`` of an edge or a cut do; every other row takes the centered
    stencil of 2 ((m + acc) // 2) + 1 nodes, as derivative_with_cuts does
    when ``reach`` is the half width of its widest order.

    `cuts` are node indices where the sampled function may lose smoothness;
    stencil windows never straddle a cut (one-sided near cuts and edges), so
    piecewise-smooth functions are differentiated at full accuracy on each
    piece.
    """
    width = m + acc + acc % 2 if m else 1
    half = (m + acc) // 2 if m else 0
    bounds = sorted({0, n_nodes, *[int(c) for c in cuts if 0 < c < n_nodes]})
    segments = list(zip(bounds[:-1], bounds[1:]))
    D = np.zeros((n_nodes, n_nodes))
    for k in range(n_nodes):
        lo, hi = next((a, b) for a, b in segments if a <= k < b)
        if reach is None or min(k - lo, hi - 1 - k) < reach:
            start = _window(k, n_nodes, width, segments)
            xs = (np.arange(start, start + width) - k).astype(float)
        else:
            start = k - half
            xs = np.arange(-half, half + 1, dtype=float)
        D[k, start:start + xs.size] = fornberg_weights(0.0, xs, m)
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


def cylinder_mode_solution(z, kappa, cross):
    """The whole-line solution of -u'' + kappa^2 u = e^{-z^2} c at the
    complex points z, in closed form, one row per point:

        u(z) = sqrt(pi) / (4 kappa) e^{-z^2}
               [erfcx(kappa/2 - z) + erfcx(kappa/2 + z)] c.

    erfcx is entire, so this holds on every ray.  For the demo-cylinder
    pencil lam^2 I + L_h and its rhs e^{-z^2} c, with c (``cross``) an
    eigenvector of L_h of eigenvalue kappa^2, it solves A(D) u = F exactly.
    """
    z = np.asarray(z, dtype=complex)
    mode = (math.sqrt(math.pi) / (4.0 * kappa) * np.exp(-z ** 2)
            * (scipy.special.erfcx(0.5 * kappa - z)
               + scipy.special.erfcx(0.5 * kappa + z)))
    return mode[:, None] * np.asarray(cross)[None, :]
