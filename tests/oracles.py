"""Test-only references: a screen built from float callables and a sampled
homogeneity check of force fields.

Neither is reached by a JSON schema or the CLI, and the exact chain refuses
a screen without exact coefficients, so they live beside the tests that use
them rather than in ``projdyn``.
"""

import numpy as np

from projdyn.exactlin import FormatError
from projdyn.screens import Screen


class CustomScreen(Screen):
    """Screen from callables; homogeneity and the Euler relation are
    spot-checked by validate_at rather than assumed."""

    kind = "custom"

    def __init__(self, dim, h, grad, hess, domain=None):
        self.dim = dim
        self._h, self._grad, self._hess = h, grad, hess
        self._domain = domain or (lambda q: True)

    def value(self, q):
        return float(self._h(np.asarray(q, dtype=float)))

    def gradient(self, q):
        return np.asarray(self._grad(np.asarray(q, dtype=float)), dtype=float)

    def hessian(self, q):
        return np.asarray(self._hess(np.asarray(q, dtype=float)), dtype=float)

    def in_domain(self, q):
        q = np.asarray(q, dtype=float)
        return bool(np.isfinite(q).all()) and bool(self._domain(q))

    def validate_at(self, q, tol=1e-7):
        """Numerical sanity: h(lam q) = lam h(q) and dh|_q(q) = h(q)."""
        q = np.asarray(q, dtype=float)
        for lam in (0.5, 2.0):
            if abs(self.value(lam * q) - lam * self.value(q)) > tol * max(1.0, abs(self.value(q))):
                raise ValueError("custom screen is not positively homogeneous of degree 1")
        if abs(self.gradient(q) @ q - self.value(q)) > tol * max(1.0, abs(self.value(q))):
            raise ValueError("custom screen violates the Euler relation")

    def to_json(self):
        raise FormatError("custom screens are not serializable")


def check_homogeneity(force, q, tol=1e-8):
    """Whether force(lam q) = lam^-3 force(q) for lam in (0.5, 2, 3), to tol
    relative to the largest component of force(q)."""
    q = np.asarray(q, dtype=float)
    f1 = force(q)
    scale = max(1.0, float(np.max(np.abs(f1))))
    for lam in (0.5, 2.0, 3.0):
        if np.max(np.abs(force(lam * q) - lam**-3 * f1)) > tol * scale * lam**-3:
            return False
    return True
