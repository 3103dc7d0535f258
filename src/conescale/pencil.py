"""Polynomial matrix pencils over nested finite-dimensional spaces.

A pencil is A(lam) = sum_j A_j lam^(m-j) with complex n x n coefficients
A_0..A_m and positive-definite Hermitian forms H_0..H_m that define the
nested norms |u|_j = <H_j u, u>^(1/2), |u|_j <= |u|_(j+1).  The module
provides evaluation, resolvent solves with residual certification, the full
finite spectrum, cone-clearance tests, and an empirical probe of the
resolvent growth bound

    sum_j |lam|^j |A(lam)^{-1} f|_(m-j) <= c |f|_0

over sampled lam in a closed cone pair.

Each pencil caches its factorization (``factorization``): one eigensolve,
with vectors, on first need, by one of four routes.  A binomial pencil
lam^m I + A_m (A_0 exactly I, A_1..A_(m-1) exactly zero, as for the
cylinder lam^2 I + L) is solved as the n x n standard problem
-A_m W = W diag(nu): its eigenvalues are the m-th roots of each nu,
exactly +-sqrt(nu) when m = 2.  When -A_m is exactly Hermitian (the
cylinder's self-adjoint cross-section operator) eigh gives nu and a
unitary W; otherwise Hessenberg QR does.  Any other pencil goes through
its block companion pencil lam B - A: when A_0 is exactly I, B is the
identity and the standard problem A V = V J is solved; every other
pencil, a singular or scaled A_0 included, goes through QZ, the only use
of scipy, which is imported on the first QZ solve.  Both standard
problems run Hessenberg QR, in real arithmetic when every coefficient is
real (so complex eigenvalues come in exact conjugate pairs).  The
eigenvalues are grouped once into single-linkage clusters (the connected
components of |a - b| <= TOL_CLUSTER) and put in report order.
``spectrum`` returns the cluster means and sizes and runs no SVD;
``certify_spectrum`` certifies the same clusters by one SVD each, and only
the reports that print certificates call it.  The same solve's
eigenvectors give a triple, its inverse formed when a batched resolvent
first needs it, with

    A(lam)^{-1} = X (lam^power - J)^{-1} Y:

X = V[:n] and Y = (B V)^{-1}[:, (m-1)n:] from A V = B V J (B = I for
the standard problem), power 1; or for a binomial pencil the modal form
X = W, Y = W^{-1} (W^H when W is unitary), J = diag(nu) and power m.  It
is applied to N nodes at once with two matrix products.  Each node's
residual |A(lam_k) u_k - f_k| is still certified against RESOLVENT_TOL;
nodes that fail it, and every node of a pencil without a usable triple
(singular A_0 or a singular (B V)), are solved by stacked LU instead, and
a node that fails there too by its own certified LU solve.
"""

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EigenSolverError, NearEigenvalueError, ValidationError
from .geometry import Disk

TOL_CLUSTER = 1e-7
TOL_MARGIN = 1e-9
TOL_INF = 1e-8
RESOLVENT_TOL = 1e-10
# probe points for the must-be-invertible-somewhere check; an identically
# singular det would vanish at all of them, a generic one at none
_PROBES = (0.0, 1.0, -1.0, 1j, 0.7548271 + 0.3712994j)


@dataclass(frozen=True)
class MatrixPencil:
    """Coefficients A_0..A_m (A_j multiplies lam^(m-j)) plus norm forms."""

    coefficients: tuple
    norm_forms: tuple = None

    def __post_init__(self):
        coeffs = tuple(np.asarray(c, dtype=complex) for c in self.coefficients)
        if len(coeffs) < 2:
            raise ValidationError("a pencil needs degree >= 1 (at least two coefficients)")
        n = coeffs[0].shape[0]
        for c in coeffs:
            if c.shape != (n, n):
                raise ValidationError("all coefficients must be square with a common size")
            c.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)
        if self.norm_forms is None:
            forms = tuple(np.eye(n) for _ in coeffs)
        else:
            forms = tuple(np.asarray(h, dtype=complex) for h in self.norm_forms)
            if len(forms) != len(coeffs):
                raise ValidationError("need one norm form per coefficient")
            for j, h in enumerate(forms):
                if h.shape != (n, n):
                    raise ValidationError("norm forms must match the pencil dimension")
                if np.max(np.abs(h - h.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(h))):
                    raise ValidationError(f"norm form {j} is not Hermitian")
                try:
                    np.linalg.cholesky(h)
                except np.linalg.LinAlgError:
                    raise ValidationError(f"norm form {j} is not positive definite")
                h.flags.writeable = False
            # nested-norm axiom |u|_j <= |u|_{j+1}: H_{j+1} - H_j must be PSD
            for j in range(len(forms) - 1):
                gap = np.linalg.eigvalsh(forms[j + 1] - forms[j])
                if gap[0] < -1e-10 * max(1.0, float(np.max(np.abs(forms[j + 1])))):
                    raise ValidationError(
                        f"norm forms are not nested: H_{j + 1} - H_{j} has a "
                        f"negative eigenvalue {gap[0]:.3g}"
                    )
        object.__setattr__(self, "norm_forms", forms)
        # the sign of slogdet is 0 only for an exactly singular matrix;
        # det itself under- or overflows at moderate sizes and scales
        if not any(np.linalg.slogdet(evaluate(self, lam))[0] != 0
                   for lam in _PROBES):
            raise ValidationError("pencil is singular at every probe point")

    @property
    def degree(self):
        return len(self.coefficients) - 1

    @property
    def dim(self):
        return self.coefficients[0].shape[0]

    def vector_norm(self, u, j):
        h = self.norm_forms[j]
        return math.sqrt(max(float(np.real(np.conj(u) @ (h @ u))), 0.0))

    def scaled(self, phi):
        """The pencil of A(e^{i phi} lam): coefficients A_j e^{i phi (m-j)}."""
        m = self.degree
        coeffs = tuple(c * cmath.exp(1j * phi * (m - j))
                       for j, c in enumerate(self.coefficients))
        return MatrixPencil(coeffs, self.norm_forms)

    @cached_property
    def factorization(self):
        """The companion eigendecomposition, computed on first use."""
        return PencilFactorization(self)


class PencilFactorization:
    """Eigendecomposition of one MatrixPencil, by one of four routes.

    The eigenproblem is built and solved once, with vectors, on first use.
    A binomial pencil lam^m I + A_m (A_0 exactly I, A_1..A_(m-1) exactly
    zero) is solved as the n x n problem -A_m W = W diag(nu), by one eigh
    when -A_m is exactly Hermitian (W is then unitary), by Hessenberg QR
    otherwise; its eigenvalues are the m-th roots of each nu (exactly
    +-sqrt(nu) when m = 2).  Any other pencil is solved through its block
    companion: the standard problem A V = V J when A_0 is exactly I, the
    pencil lam B - A (QZ) otherwise.  Both standard problems run Hessenberg
    QR, in real arithmetic when the coefficients are real.  ``eigenvalues``
    holds all m n of them (inf where A_0 is singular), and every read order
    gives the same bytes.  ``triple`` is (w, X, Y, power) with
    A(lam)^{-1} = X diag(1 / (lam^power - w)) Y, or None when the pencil
    has none; it reuses the solve's vectors and forms the inverse only
    when first read.  A binomial triple is modal, (nu, W, W^{-1}, m); a
    companion triple has power 1.  ``clusters`` is (head notes, cluster
    means, cluster sizes), in report order.
    """

    def __init__(self, p):
        self._coefficients = p.coefficients
        k = self._binomial = _binomial_matrix(p.coefficients)
        self._hermitian = k is not None and np.array_equal(k, k.conj().T)
        self._power = 1 if k is None else p.degree

    @cached_property
    def _modes(self):
        """(nu, V, B) from the one eigensolve of lam B - A (B None for I)."""
        a, b = (_companion(self._coefficients) if self._binomial is None
                else (self._binomial, None))
        return _companion_eig(a, b, self._hermitian) + (b,)

    @cached_property
    def eigenvalues(self):
        vals = _roots(self._modes[0], self._power).ravel()
        vals.flags.writeable = False
        return vals

    @cached_property
    def clusters(self):
        raw = self.eigenvalues
        finite = raw[np.isfinite(raw)]
        kept = finite[np.abs(finite) <= 1.0 / TOL_INF]
        head = ()
        if raw.size - kept.size:
            head = (f"dropped {raw.size - kept.size} eigenvalue(s) at or near "
                    f"infinity",)
        clusters = _cluster(kept, TOL_CLUSTER)
        # a singleton's mean is its member (+0j turns -0.0 into 0.0, as
        # np.mean's sum does)
        means = np.array([c[0] + 0j if c.size == 1 else np.mean(c)
                          for c in clusters], dtype=complex)
        order = _report_order(means)
        return (head, tuple(complex(means[k]) for k in order),
                tuple(len(clusters[k]) for k in order))

    @cached_property
    def triple(self):
        nu, V, B = self._modes
        if not np.all(np.isfinite(nu)):
            return None  # singular A_0
        if self._hermitian:
            X, Y = V, V.conj().T
        else:
            try:
                X, Y = _standard_triple(V, B, len(self._coefficients[0]))
            except np.linalg.LinAlgError:
                return None
        # shared by every later solve on this pencil
        for part in (nu, X, Y):
            part.flags.writeable = False
        return nu, X, Y, self._power


def _binomial_matrix(coefficients):
    """-A_m when the pencil is lam^m I + A_m, else None.

    That is, A_0 is exactly I and A_1..A_(m-1) are exactly zero; -A_m comes
    back real when A_m is.
    """
    n = coefficients[0].shape[0]
    if not np.array_equal(coefficients[0], np.eye(n)) or any(
            np.any(c) for c in coefficients[1:-1]):
        return None
    c = coefficients[-1]
    return -(c if np.any(c.imag) else c.real)


def _roots(nu, m):
    """The m-th roots of each nu, as an (m, len(nu)) array.

    Row r holds nu^(1/m) e^(2 pi i r / m) (principal branch); for m = 2 the
    rows are exactly sqrt(nu) and -sqrt(nu).
    """
    if m == 1:
        return nu[None]
    if m == 2:
        root = np.sqrt(nu)
        return np.stack([root, -root])
    return nu ** (1.0 / m) * np.exp(2j * np.pi * np.arange(m) / m)[:, None]


def _companion(coefficients):
    """The block companion pencil lam * B - A of A_0..A_m, as (A, B).

    When A_0 is exactly I, B is the identity and comes back as None, and A
    is real whenever every coefficient is.
    """
    m, n = len(coefficients) - 1, coefficients[0].shape[0]
    standard = np.array_equal(coefficients[0], np.eye(n))
    real = standard and not any(np.any(c.imag) for c in coefficients)
    # A holds the companion blocks and B carries the leading coefficient,
    # so a singular A_0 shows up as infinite lams
    A = np.zeros((m * n, m * n), dtype=float if real else complex)
    for k in range(m - 1):
        A[k * n:(k + 1) * n, (k + 1) * n:(k + 2) * n] = np.eye(n)
    for k in range(m):
        # row of powers: -A_m, -A_{m-1}, ..., -A_1
        c = coefficients[m - k]
        A[(m - 1) * n:, k * n:(k + 1) * n] = -(c.real if real else c)
    if standard:
        return A, None
    B = np.eye(m * n, dtype=complex)
    B[(m - 1) * n:, (m - 1) * n:] = coefficients[0]
    return A, B


def _companion_eig(A, B, hermitian):
    """Eigenvalues nu and eigenvectors V of lam B - A, both complex.

    With B None this is the standard problem: numpy.linalg.eigh when
    ``hermitian`` (A exactly Hermitian; V is then unitary), else Hessenberg
    QR (numpy.linalg.eig), for the identity-led companion or the n x n
    matrix -A_m of a binomial pencil.  Otherwise QZ (scipy.linalg.eig);
    scipy is imported here, on the first QZ solve, so a run whose pencils
    are all identity-led never loads it.  This is the module's one
    eigensolve.  LAPACK failures are raised as EigenSolverError.
    """
    try:
        if hermitian:
            out = np.linalg.eigh(A)
        elif B is None:
            out = np.linalg.eig(A)
        else:
            import scipy.linalg
            out = scipy.linalg.eig(A, B)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise EigenSolverError(
            f"companion eigenvalue solve failed: {exc}") from exc
    return tuple(a.astype(complex, copy=False) for a in out)


def _standard_triple(vecs, B, n):
    """X = V[:n] and Y = (B V)^{-1}[:, (m-1)n:] from A V = B V J.

    Then lam B - A = B V (lam - J) V^{-1}, and the first block row of its
    inverse applied to the last block column is A(lam)^{-1}.  B None stands
    for the identity.  Raises LinAlgError when the triple does not exist
    numerically.
    """
    Y = np.linalg.inv(vecs if B is None else B @ vecs)[:, -n:]
    if not np.all(np.isfinite(Y)):
        raise np.linalg.LinAlgError("(B V)^{-1} is not finite")
    return vecs[:n], Y


def evaluate(p, lam):
    """A(lam) by Horner's scheme on the matrix coefficients; lam of shape
    (K, 1, 1) gives the stack of the K matrices A(lam_k)."""
    out = np.array(p.coefficients[0], dtype=complex)
    for c in p.coefficients[1:]:
        out = out * lam + c
    return out


def evaluate_batch(p, lams, us):
    """Rows A(lam_k) u_k for nodes lams and stacked vectors us (N x n).

    Horner's scheme on the products us A_j^T: no (N, n, n) stack of
    matrices is formed.
    """
    lams = np.asarray(lams, dtype=complex)[:, None]
    out = us @ p.coefficients[0].T
    for c in p.coefficients[1:]:
        out = out * lams + us @ c.T
    return out


def resolvent_apply(p, lam, f):
    """Solve A(lam) u = f densely, certifying the residual against
    RESOLVENT_TOL |f|."""
    f = np.asarray(f, dtype=complex)
    a = evaluate(p, lam)
    try:
        u = np.linalg.solve(a, f)
    except np.linalg.LinAlgError:
        raise NearEigenvalueError(lam)
    with np.errstate(invalid="ignore", over="ignore"):
        scale = float(np.linalg.norm(f))
        residual = float(np.linalg.norm(a @ u - f))
    if not np.all(np.isfinite(u)) or residual > RESOLVENT_TOL * max(scale, 1e-300):
        raise NearEigenvalueError(lam, residual / max(scale, 1e-300))
    return u


def resolvent_apply_batch(p, lams, rhs):
    """A(lam_k)^{-1} rhs_k for every node k, certified nodewise.

    ``rhs`` has shape (len(lams), n).  With a triple (w, X, Y, power) the
    solves are U = ((F Y^T) / (lam_k^power - w_i)) X^T: the companion's
    standard triple (power 1), or for a binomial pencil the modal form
    W [(W^{-1} f) / (lam^m - nu)], n terms whose far-node rounding does
    not cancel (W^{-1} = W^H on the Hermitian route).  Each node must pass
    |A(lam_k) u_k - f_k| <= RESOLVENT_TOL |f_k| (rows with |f_k| <= 1e-280
    only need a finite residual).  Failing nodes, or all nodes when the
    pencil has no triple, go to the LU fallback (_lu_fallback).
    """
    lams = np.asarray(lams, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    triple = p.factorization.triple
    if triple is None:
        sols = np.zeros_like(rhs)
        redo = np.arange(lams.size)
    else:
        w, X, Y, power = triple
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            shifted = (lams if power == 1 else lams ** power)[:, None] - w
            sols = ((rhs @ Y.T) / shifted) @ X.T
            res = np.linalg.norm(evaluate_batch(p, lams, sols) - rhs, axis=1)
            scale = np.linalg.norm(rhs, axis=1)
        fails = (res > RESOLVENT_TOL * scale) & (scale > 1e-280)
        redo = np.nonzero(~np.isfinite(res) | fails)[0]
    if redo.size:
        _lu_fallback(p, lams, rhs, redo, sols)
    return sols


# the LU fallback stacks at most this many matrix entries (32 MiB) at once
_LU_STACK_ENTRIES = 1 << 21


def _lu_fallback(p, lams, rhs, nodes, sols):
    """Fill sols[nodes] by stacked LU, certified as in resolvent_apply.

    Nodes go in increasing order, in chunks of stacked A(lam_k).  A node
    whose stacked solve fails the certificate, or every node of a chunk
    whose stack is exactly singular, is solved alone by resolvent_apply;
    the first one that fails there raises NearEigenvalueError with its node
    index, its lam and ``partial``, the solutions of all earlier nodes.
    """
    chunk = max(1, _LU_STACK_ENTRIES // p.dim ** 2)
    for start in range(0, nodes.size, chunk):
        ks = nodes[start:start + chunk]
        mats = evaluate(p, lams[ks, None, None])
        try:
            out = np.linalg.solve(mats, rhs[ks, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            alone = ks
        else:
            with np.errstate(invalid="ignore", over="ignore"):
                res = np.linalg.norm(
                    np.einsum("kij,kj->ki", mats, out) - rhs[ks], axis=1)
                scale = np.linalg.norm(rhs[ks], axis=1)
            ok = (np.all(np.isfinite(out), axis=1)
                  & (res <= RESOLVENT_TOL * np.maximum(scale, 1e-300)))
            sols[ks[ok]] = out[ok]
            alone = ks[~ok]
        for k in alone:
            try:
                sols[k] = resolvent_apply(p, lams[k], rhs[k])
            except NearEigenvalueError as exc:
                raise NearEigenvalueError(exc.lam, exc.residual, node=int(k),
                                          partial=sols[:k]) from None


@dataclass(frozen=True)
class SpectrumReport:
    """Clustered finite eigenvalues and their multiplicities, in report order."""

    eigenvalues: tuple
    multiplicities: tuple


def _cluster(values, tol):
    """Single-linkage clusters: the connected components of |a - b| <= tol.

    Values are swept in lexsort order (real part first); each is linked to
    the earlier values within tol of it, found among those within tol in
    real part, so no N x N matrix is formed.  Clusters come in the order of
    their first member, and keep their members in lexsort order.
    """
    if not values.size:
        return []
    vals = values[np.lexsort((values.imag, values.real))]
    # labels[k]: the first position of k's cluster among those swept so far
    labels = np.arange(vals.size)
    starts = np.searchsorted(vals.real, vals.real - tol)
    for k in range(1, vals.size):
        window = slice(starts[k], k)
        linked = labels[window][np.abs(vals[window] - vals[k]) <= tol]
        if linked.size:
            first = linked.min()
            labels[:k][np.isin(labels[:k], linked)] = first
            labels[k] = first
    order = np.argsort(labels, kind="stable")
    return np.split(vals[order], np.flatnonzero(np.diff(labels[order])) + 1)


def _report_order(lams):
    """Indices of lams by real part up to TOL_CLUSTER, then imaginary part.

    Sorted real parts start a new group wherever consecutive ones differ by
    more than TOL_CLUSTER, so rounding noise in the real parts of values on
    one vertical line does not decide their order.
    """
    by_real = np.argsort(lams.real, kind="stable")
    groups = np.cumsum(np.diff(lams.real[by_real], prepend=-np.inf)
                       > TOL_CLUSTER)
    return by_real[np.lexsort((lams.imag[by_real], groups))]


def _clusters_in(p, region):
    """(head notes, means, sizes) of the pencil's clusters in the region."""
    head, lams, sizes = p.factorization.clusters
    inside = [k for k, lam in enumerate(lams)
              if region is None or region.contains_closed(lam)]
    return head, [lams[k] for k in inside], [sizes[k] for k in inside]


def spectrum(p, region=None):
    """Finite spectrum of the pencil, clustered, in report order.

    Eigenvalues beyond 1/TOL_INF in magnitude are treated as infinite and
    dropped (they appear when A_0 is singular).  Multiplicity is the size
    of a single-linkage cluster under absolute distance TOL_CLUSTER; Jordan
    structure is not resolved (``certify_spectrum`` flags clusters of size
    > 1).  Report order sorts by real part up to TOL_CLUSTER, then by
    imaginary part.  The clusters are cached on the pencil, and only the
    ``region`` filter runs per call; no SVD runs.
    """
    _, lams, sizes = _clusters_in(p, region)
    return SpectrumReport(tuple(lams), tuple(sizes))


def certify_spectrum(p, region=None):
    """(residuals, notes) certifying the clusters of spectrum(p, region).

    One SVD per cluster: residuals[k] is sigma_min(A(lam_k)) for the k-th
    eigenvalue of the report.  A residual above 1e-8 sum_j |lam|^(m-j)
    |A_j|_F, an eigenvalue backward error above 1e-8 (Tisseur, LAA 309,
    2000), fails its certificate.  The notes, in report order after the one
    on dropped infinite eigenvalues, name each failed certificate and each
    cluster of size > 1 (possibly defective).
    """
    head, lams, sizes = _clusters_in(p, region)
    norms = [float(np.linalg.norm(c)) for c in p.coefficients]
    residuals, notes = [], list(head)
    for lam, size in zip(lams, sizes):
        sigma = float(np.linalg.svd(evaluate(p, lam), compute_uv=False)[-1])
        residuals.append(sigma)
        bound = 1e-8 * float(np.polyval(norms, abs(lam)))
        if sigma > bound:
            notes.append(
                f"eigenvalue {lam} fails its residual certificate: smallest "
                f"singular value {sigma:.3e} vs backward-error bound "
                f"{bound:.3e}"
            )
        if size > 1:
            notes.append(
                f"cluster at {lam}: multiplicity {size} by distance; "
                f"Jordan chains unresolved, may be defective"
            )
    return tuple(residuals), tuple(notes)


def search_radius(p, vertex):
    """2 max |lam - vertex| + 1 over the finite spectrum (3 if it is empty).

    A clearance radius that covers every eigenvalue with room to spare.
    """
    top = max((abs(lam - vertex) for lam in spectrum(p).eigenvalues),
              default=1.0)
    return 2.0 * top + 1.0


@dataclass(frozen=True)
class ClearanceReport:
    clear: bool
    violations: tuple
    spectrum: SpectrumReport

    @property
    def verdict(self):
        return "clear" if self.clear else "violated"


def cone_clearance(p, cone, search_radius):
    """Is the closed cone free of pencil eigenvalues?

    Membership is tested against the closed cone (boundary rays and vertex
    included) widened by the angular margin TOL_MARGIN, so grazing
    eigenvalues count as violations.  Only eigenvalues within
    ``search_radius`` of the vertex are examined; the caller is responsible
    for a radius that covers every eigenvalue that could matter (>= 2x the
    largest magnitude is a safe habit).
    """
    spec = spectrum(p, region=Disk(cone.vertex, search_radius))
    violations = tuple(lam for lam in spec.eigenvalues
                       if cone.contains_closed(lam, margin=TOL_MARGIN))
    return ClearanceReport(not violations, violations, spec)


def line_distance(ray, lam):
    """Distance from a point to the full line carrying a ray."""
    u = (complex(lam) - ray.offset) / ray.direction
    return abs(u.imag)


@dataclass(frozen=True)
class GrowthReport:
    max_ratio: float
    band_maxima: tuple
    samples: tuple
    skipped: tuple
    verdict: str


def verify_growth_condition(p, cone_pair, R, sample_count=8, angle_count=5):
    """Empirically bound sum_j |lam|^j |A^{-1}(lam) f|_{m-j} / |f|_0.

    Samples lam over the two closed cones in three dyadic radius bands
    [R, 2R], [2R, 4R], [4R, 8R] and f over an H_0-orthonormal basis.  The
    verdict is "plausible" when the per-band maxima have stabilized
    (non-increasing up to 5%), "growing" otherwise.  This is an
    empirical probe, never a proof.
    """
    m = p.degree
    h0 = p.norm_forms[0]
    basis = np.linalg.inv(np.linalg.cholesky(h0)).conj().T  # H_0-orthonormal columns
    rhs = np.ascontiguousarray(basis.T)  # one basis vector per row
    band_edges = [(R, 2 * R), (2 * R, 4 * R), (4 * R, 8 * R)]
    band_maxima = []
    samples = []
    skipped = []
    spec = spectrum(p)
    for lo, hi in band_edges:
        radii = np.geomspace(lo, hi, sample_count)
        worst = 0.0
        for cone in cone_pair:
            locals_ = np.linspace(0.0, cone.angle, angle_count)
            for r in radii:
                for psi in locals_:
                    for nappe in (0.0, math.pi):
                        lam = cone.vertex + r * cmath.exp(
                            1j * (cone.orientation * psi + nappe))
                        if any(abs(lam - ev) < 10 * TOL_CLUSTER
                               for ev in spec.eigenvalues):
                            skipped.append(lam)
                            continue
                        lams = np.full(len(rhs), lam)
                        try:
                            sols = resolvent_apply_batch(p, lams, rhs)
                        except NearEigenvalueError as exc:
                            # the columns before the failing one still count
                            sols = exc.partial
                            skipped.append(lam)
                        for u, f in zip(sols, rhs):
                            num = sum(abs(lam) ** j * p.vector_norm(u, m - j)
                                      for j in range(m + 1))
                            ratio = num / max(p.vector_norm(f, 0), 1e-300)
                            worst = max(worst, ratio)
                            samples.append((lam, ratio))
        band_maxima.append(worst)
    stable = all(band_maxima[i + 1] <= band_maxima[i] * 1.05
                 for i in range(len(band_maxima) - 1))
    return GrowthReport(
        max_ratio=max(band_maxima),
        band_maxima=tuple(band_maxima),
        samples=tuple(samples),
        skipped=tuple(skipped),
        verdict="plausible" if stable else "growing",
    )
