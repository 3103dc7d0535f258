"""conescale: complex scaling of ODEs with operator coefficients.

Operator pencils and their spectra, Fourier-Laplace transforms along
rotated rays, weighted Hardy / Hardy-Sobolev norms over cones, Cauchy
reconstruction and half-line projections, Paley-Wiener support tests, and
constant- / variable-coefficient solves whose scaled equivalents are
verified numerically.
"""

__version__ = "0.1.0"

from .errors import (ConescaleError, ConfigurationError,
                     ContractionFailureError, HypothesisViolationError,
                     IllConditionedKernelError, LocalizationFailureError,
                     NearEigenvalueError, NonFiniteSampleError,
                     NumericalError, SpectralObstructionError,
                     ValidationError, WeightOverflowError)
from .geometry import (FREQUENCY, TIME, Cone, Disk, Grid, Ray, RayFunction,
                       weighted_l2_report)
from .hardy import (ConeFunction, cauchy_reconstruct, membership_scan,
                    paley_wiener_check, project_halfline,
                    projection_idempotence_check)
from .pencil import (MatrixPencil, SpectrumReport, certify_spectrum,
                     cone_clearance, evaluate, resolvent_apply_batch,
                     spectrum, verify_growth_condition)
from .rhs import BumpRhs, GaussianRhs, OneSidedExpRhs, PoleRhs, SampledRhs
from .solver import (ConstantProblem, VariableProblem, constant_problem,
                     continuation_certificate, localize_traces, solve_const,
                     solve_scaled, solve_variable)
from .transform import TransformContext, dual_grid, parseval_check

__all__ = [name for name in dir() if not name.startswith("_")]
