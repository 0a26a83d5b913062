"""Test-only references.

* A screen built from float callables, a sampled homogeneity check of force
  fields and the directional second derivative v^T H(q) v of a screen.
  None is reached by a JSON schema or the CLI, and the exact chain refuses a
  screen without exact coefficients, so they live beside the tests that use
  them rather than in ``projdyn``.
* The P^{b,b} chain on Fractions, one plain loop per step: the polar form,
  its diagonal, the pair diagonal and the pair-antisymmetric form.  The
  library runs the same chain on one cleared integer table; these loops are
  the reference for its values and its key order.  The block exchange and
  R(v, -q) by ``Poly.substitute`` are the reference for the library's
  exponent-tuple ``swap_blocks``.
* Whole-tensor slot permutations and subspace comparisons: the independent
  reference for the group-algebra action and for the exact spans that the
  library returns.  No pipeline permutes a whole tensor or compares two
  spans, and no input format carries a multivector.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from projdyn.exactlin import FormatError, JsonValue, Multivector, Tensor, accumulate, rref, tensor_from_json
from projdyn.polynomials import Poly
from projdyn.polyintegrals import pair_tableau, q_indices, qvar, v_indices, vvar
from projdyn.screens import Screen
from projdyn.young import antisymmetrizer_element


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


def hessian_vv(screen, q, v) -> float:
    """The second derivative of h at q in direction v, v^T H(q) v, as
    ``Screen.local`` gives it; ValueError outside the validity domain."""
    geometry = screen.local(np.asarray(q, dtype=float), np.asarray(v, dtype=float))
    if geometry is None:
        raise ValueError("point outside the screen's validity domain")
    return geometry[2]


# -- the P^{b,b} chain on Fractions ----------------------------------------------


def _multiset_factor(idx) -> Fraction:
    counts = {}
    for i in idx:
        counts[i] = counts.get(i, 0) + 1
    num = 1
    for c in counts.values():
        num *= math.factorial(c)
    return Fraction(num, math.factorial(len(idx)))


def polar_form(R: Poly, dim: int, b: int) -> Tensor:
    """The polar form of a bidegree-(b, b) polynomial, one Fraction per entry."""
    if not (R.is_homogeneous_in(list(q_indices(dim)), b) and R.is_homogeneous_in(list(v_indices(dim)), b)):
        raise ValueError(f"polynomial is not bi-homogeneous of degree ({b},{b})")
    entries = {}
    for exps, coef in R.terms.items():
        q_ms = []
        for i in range(dim):
            q_ms.extend([i] * exps[i])
        v_ms = []
        for i in range(dim):
            v_ms.extend([i] * exps[dim + i])
        base = coef * _multiset_factor(q_ms) * _multiset_factor(v_ms)
        for q_idx in set(itertools.permutations(q_ms)):
            for v_idx in set(itertools.permutations(v_ms)):
                entries[q_idx + v_idx] = base
    return Tensor(dim, 2 * b, entries)


def poly_from_polar(T: Tensor, b: int) -> Poly:
    """Diagonal R(q, v) = R_S(q..q; v..v) of a block-symmetric polar tensor."""
    dim = T.dim
    out = {}
    for idx, val in T.entries.items():
        exps = [0] * (2 * dim)
        for slot, i in enumerate(idx):
            exps[i if slot < b else dim + i] += 1
        accumulate(out, tuple(exps), val)
    return Poly(2 * dim, out)


def pair_diagonal(T: Tensor, b: int) -> Poly:
    """T(q, v, q, v, ..., q, v) as a polynomial."""
    dim = T.dim
    out = {}
    for idx, val in T.entries.items():
        exps = [0] * (2 * dim)
        for k in range(b):
            exps[idx[2 * k]] += 1
            exps[dim + idx[2 * k + 1]] += 1
        accumulate(out, tuple(exps), val)
    return Poly(2 * dim, out)


def to_antisymmetric(polar: Tensor, b: int) -> Tensor:
    """The pair-antisymmetric form with the diagonal of a polar form: the
    interleaved antisymmetrizer summed product by product (entries outer,
    permutations inner), scaled by the exact ratio of its diagonal to R."""
    dim, order = polar.dim, 2 * b
    R = poly_from_polar(polar, b)
    if R.is_zero():
        return Tensor(dim, order, {})
    interleave = tuple(2 * j if j < b else 2 * (j - b) + 1 for j in range(order))
    # sigma composed with the interleave: the slot reordering acts first
    element = {tuple(sigma[i] for i in interleave): c
               for sigma, c in antisymmetrizer_element(pair_tableau(b)).items()}
    out = {}
    for jdx, val in polar.entries.items():
        for sigma, c in element.items():
            idx = [0] * order
            for k in range(order):
                idx[sigma[k]] = jdx[k]
            accumulate(out, tuple(idx), val * c)
    cand = Tensor(dim, order, out)
    diag = pair_diagonal(cand, b)
    if diag.is_zero():
        raise ArithmeticError("antisymmetrization collapsed a nonzero integral")
    key = next(iter(R.terms))
    if key not in diag.terms:
        raise ArithmeticError("candidate diagonal is not proportional to R")
    mu = diag.terms[key] / R.terms[key]
    if diag != R.scale(mu):
        raise ArithmeticError("candidate diagonal is not proportional to R")
    return cand.scale(1 / mu)


def swap_blocks(R: Poly, dim: int) -> Poly:
    """R(v, q) by substituting the variables of one block for the other's."""
    images = [vvar(i, dim) for i in range(dim)] + [qvar(i, dim) for i in range(dim)]
    return R.substitute(images)


def substitute_v_minus_q(R: Poly, dim: int) -> Poly:
    """R(v, -q)."""
    images = [vvar(i, dim) for i in range(dim)] + [-qvar(i, dim) for i in range(dim)]
    return R.substitute(images)


# -- whole-tensor slot permutations -------------------------------------------------


def permute(t: Tensor, sigma) -> Tensor:
    """Permuted form phi' with phi'(x_0,..) = phi(x_{sigma(0)},..).

    In coefficients: phi'[idx] = phi[idx o sigma], so entry jdx of phi
    lands at the idx with idx[sigma[k]] = jdx[k].
    """
    sigma = tuple(sigma)
    if len(sigma) != t.order:
        raise ValueError("permutation length mismatch")
    out = {}
    for jdx, val in t.entries.items():
        idx = [0] * t.order
        for k, pos in enumerate(sigma):
            idx[pos] = jdx[k]
        out[tuple(idx)] = val  # a bijection on index tuples: no collisions
    return Tensor._raw(t.dim, t.order, out)


def transpose_slots(t: Tensor, m: int, n: int) -> Tensor:
    """Exchange the variables in slots m and n (0-based)."""
    sigma = list(range(t.order))
    sigma[m], sigma[n] = sigma[n], sigma[m]
    return permute(t, sigma)


# -- subspaces and multivector JSON ---------------------------------------------------


def subspace_echelon(vectors):
    """Canonical echelon basis of the span of coordinate vectors (for
    comparing subspaces: equal spans give identical echelons)."""
    if not vectors:
        return []
    red, pivots = rref(vectors)
    return [red[r] for r in range(len(pivots))]


def same_subspace(a, b) -> bool:
    return subspace_echelon(a) == subspace_echelon(b)


def sum_of_spans(spans):
    """Echelon basis of the sum of subspaces."""
    rows = [v for basis in spans for v in basis]
    return subspace_echelon(rows)


def multivector_from_json(obj) -> Multivector:
    """The tensor format with strictly increasing idx lists."""
    r = JsonValue.of(obj, "multivector")
    t = tensor_from_json(r)
    if any(a >= b for idx in t.entries for a, b in zip(idx, idx[1:])):
        raise r.error("entries whose idx lists are strictly increasing", "entries")
    return Multivector._raw(t.dim, t.order, t.entries)
