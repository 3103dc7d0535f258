"""Exception taxonomy and the CLI's exit codes.

ValidationError (exit 2) is a bad argument or a broken data contract, and
its subclass ConfigurationError a violated precondition on a grid or a
parameter; both are ValueErrors too.  NumericalError (exit 3, as is numpy's
LinAlgError) is a failed computation, HypothesisViolationError (exit 4) a
hypothesis of the method that fails for the data.  Any other exception is a
bug and surfaces as a traceback.
"""

import math


class ConescaleError(Exception):
    """Base class for all package errors."""


class ValidationError(ConescaleError, ValueError):
    """Malformed problem data; carries the offending field path."""

    def __init__(self, message, field=None):
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)
        self.field = field


class ConfigurationError(ValidationError):
    """Grids or parameters violate a precondition (a grid too short for
    its stencil, samples that cannot be continued off their ray)."""


class NumericalError(ConescaleError):
    """A computation failed numerically."""


class NonFiniteSampleError(NumericalError):
    """A sample that must be finite (data on a ray, a summand) is inf or nan."""


class WeightOverflowError(NumericalError):
    """An exponential weight would overflow at a quadrature node."""

    def __init__(self, node_index, point, log_magnitude):
        super().__init__(
            f"weight overflow at node {node_index} (point {point}): "
            f"log-magnitude {log_magnitude:.3g} exceeds the exp() range"
        )
        self.node_index = node_index
        self.point = point
        self.log_magnitude = log_magnitude


class NearEigenvalueError(NumericalError):
    """A resolvent solve hit a point within tolerance of the spectrum.

    ``node`` is the index of the failing node in a batched solve and
    ``partial`` the solutions of the nodes before it (both None for a
    single solve); ``residual`` is the relative solve residual, inf when it
    is not finite.
    """

    def __init__(self, lam, residual=None, node=None, partial=None):
        if residual is not None and not math.isfinite(residual):
            residual = math.inf
        where = f"node {node}, " if node is not None else ""
        msg = f"pencil is singular to tolerance at {where}lambda = {lam}"
        if residual is not None:
            msg += f" (solve residual {residual:.3g})"
        super().__init__(msg)
        self.lam = lam
        self.residual = residual
        self.node = node
        self.partial = partial


class EigenSolverError(NumericalError):
    """The linearized eigenvalue solve failed."""


class IllConditionedKernelError(NumericalError):
    """A reconstruction point sits too close to the integration contour."""


class LocalizationFailureError(NumericalError):
    """No admissible decay rate found for trace localization."""


class HypothesisViolationError(ConescaleError):
    """A mathematical hypothesis of the method fails for this data (exit 4)."""


class SpectralObstructionError(HypothesisViolationError):
    """Eigenvalues sit on (or too near) the line / cone needed for a solve."""

    def __init__(self, message, offenders=()):
        super().__init__(message)
        self.offenders = tuple(offenders)


class ContractionFailureError(HypothesisViolationError):
    """Neumann iteration did not contract.

    The underlying sufficient condition asks for a perturbation that is
    small relative to the base resolvent past the cut point; with a cut of
    insufficient magnitude (or too large a perturbation) the iteration may
    legitimately diverge, and that outcome is reported here with the
    residual trace attached.  ``cap`` = (max_iter, res_tol) says instead
    that the sweeps ran out before the residual reached res_tol.
    """

    def __init__(self, residuals, cap=None):
        trace = ", ".join(f"{r:.3e}" for r in residuals)
        super().__init__(
            f"Neumann iteration is not contracting (residual trace: {trace}); "
            "the cut-point magnitude may be too small for this perturbation, "
            "or the perturbation is too large" if cap is None else
            f"Neumann iteration reached its cap of {cap[0]} sweeps before "
            f"res_tol {cap[1]:.3e} (residual trace: {trace})")
        self.residuals = tuple(residuals)
