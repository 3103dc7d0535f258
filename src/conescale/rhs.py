"""Built-in right-hand sides.

Rotated-ray work (scaled solves, continuation certificates) needs the data
as an analytic evaluator, not just samples: arbitrary samples cannot be
continued off their ray.  The built-ins below carry an ``analytic`` flag;
non-analytic kinds (one-sided exponential, bump, raw samples) are accepted
only for solves on their own ray.
"""

import numpy as np

from .errors import ValidationError
from .geometry import RayFunction


class AnalyticRhs:
    """Base: a vector-valued evaluator z -> values, vectorized over z."""

    analytic = True

    def __init__(self, cross_section=None):
        self.cross_section = None if cross_section is None \
            else np.asarray(cross_section, dtype=complex)

    def scalar(self, z):
        raise NotImplementedError

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        base = self.scalar(z)
        if self.cross_section is None:
            return base[:, None]
        return np.outer(base, self.cross_section)

    def sample(self, ray, grid, weight_order=0.0, weight_number=0j):
        return RayFunction(ray, grid, self(ray.points(grid.nodes)),
                           weight_order, weight_number)


class GaussianRhs(AnalyticRhs):
    """amplitude * exp(-((z - center) / width)^2), entire."""

    def __init__(self, center=0.0, width=1.0, amplitude=1.0, cross_section=None):
        super().__init__(cross_section)
        self.center = complex(center)
        self.width = float(width)
        self.amplitude = complex(amplitude)

    def scalar(self, z):
        return self.amplitude * np.exp(-((z - self.center) / self.width) ** 2)


class PoleRhs(AnalyticRhs):
    """Windowed rational amplitude / (z - pole)^order, analytic off the pole.

    The Gaussian window keeps the samples integrable along the real line;
    the pole stays where it is, so rotated rays passing it blow up, which is
    what the continuation tests probe.
    """

    def __init__(self, pole, order=2, window=15.0, amplitude=1.0,
                 cross_section=None):
        super().__init__(cross_section)
        self.pole = complex(pole)
        self.order = int(order)
        self.window = float(window)
        self.amplitude = complex(amplitude)

    def scalar(self, z):
        return (self.amplitude * np.exp(-(z / self.window) ** 2)
                / (z - self.pole) ** self.order)


class OneSidedExpRhs(AnalyticRhs):
    """theta(-t) * exp(rate * t): supported on the backward half-line."""

    analytic = False

    def __init__(self, rate=1.0, cross_section=None):
        super().__init__(cross_section)
        self.rate = float(rate)

    def scalar(self, z):
        if np.any(np.abs(np.imag(z)) > 1e-12 * np.maximum(1.0, np.abs(z))):
            raise ValidationError("one-sided exponential data only exists on the real line")
        t = np.real(z)
        return np.where(t < 0.0, np.exp(self.rate * t), 0.0).astype(complex)


class BumpRhs(AnalyticRhs):
    """Smooth bump exp(-1 / (1 - (t/a)^2)) on |t| < a, zero outside."""

    analytic = False

    def __init__(self, half_width=1.0, cross_section=None):
        super().__init__(cross_section)
        self.half_width = float(half_width)

    def scalar(self, z):
        if np.any(np.abs(np.imag(z)) > 1e-12 * np.maximum(1.0, np.abs(z))):
            raise ValidationError("bump data only exists on the real line")
        t = np.real(z) / self.half_width
        inside = np.abs(t) < 1.0
        out = np.zeros(t.shape, dtype=complex)
        with np.errstate(divide="ignore", over="ignore"):
            out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
        return out


class SampledRhs:
    """Raw samples; restricted to the ray they were taken on."""

    analytic = False

    def __init__(self, values):
        self.values = np.asarray(values, dtype=complex)

    def sample(self, ray, grid, weight_order=0.0, weight_number=0j):
        return RayFunction(ray, grid, self.values, weight_order, weight_number)

    def __call__(self, z):
        raise ValidationError("sampled right-hand sides cannot be evaluated off-grid")
