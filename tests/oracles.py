"""Test-only references.

* A screen built from float callables, a sampled homogeneity check of force
  fields and the directional second derivative v^T H(q) v of a screen.
  None is reached by a JSON schema or the CLI, and the exact chain refuses a
  screen without exact coefficients, so they live beside the tests that use
  them rather than in ``projdyn``.
* The float screen layer in its plain forms: the cubic Hermite read as numpy
  expressions on whole rows, the renormalization and the central
  projection through the full geometry ``Screen.local(q, v)``, and the
  Dormand-Prince stepper with its fifth-order solution from its own weights
  and its error norm on numpy arrays.  The library computes the same
  floating-point operations in the same order with less work, so these are
  the references for its bytes.
* The builtin screens and forces without their exact structure: a copy of a
  screen with no recorded axis or identity, so every product is a dot, and
  the Kepler and inverse-cube forces by the general mu expression
  -mu * x / r^3.  They are the references for the bytes of the paths that
  read that structure.
* The P^{b,b} chain on Fractions, one plain loop per step: the polar form,
  its diagonal, the pair diagonal and the pair-antisymmetric form.  The
  library runs the same chain on one cleared integer table; these loops are
  the reference for its values (``assert_same_dict``).  The group-algebra
  engine lists its outputs in sorted code order, so only the polar form,
  which the engine does not build, is compared in the loops' key order.
  The block exchange and R(v, -q) by ``Poly.substitute`` are the reference
  for the library's exponent-tuple ``swap_blocks``.
* Whole-tensor slot permutations, the sign of a permutation and subspace
  comparisons: the independent reference for the group-algebra action and
  for the exact spans that the library returns.  No pipeline permutes a
  whole tensor or compares two spans, and no input format carries a
  multivector.
* Young-class helpers that no pipeline calls: the column identity between
  any two columns, contraction of the top boxes, the diagonal zero test and
  the split of a pair-exchange form (the lemmas the tests check), with the
  partitions of n, and the dict forms of a slot identity and of a scaled
  group-algebra element.
* The compatibility identity on ``Poly`` products (``compatibility_by_polys``)
  with its two hyperplane reformulations, and the square-root recovery by
  full intersections of the pencil spans (``recover_square_root_by_spans``,
  on ``intersect_spans``): the references for the library's integer
  compatibility check and common-line recovery.
* The exterior algebra and the curvature forms on Fractions: the wedge and
  the two contractions as plain loops over rational coordinates, the
  generator through two contractions with the volume form and the compound
  from determinants, and the flat-case form with one ``solve`` per pair.
  The library runs them on cleared integers; these are the references for
  its values and key order.  Beside them, with no library counterpart: the
  descent of a pair-antisymmetric form to bivectors, R_B(q ^ v) = R(q, v),
  and the image of a multivector under a bivector map or its wedge power.
* ``exactlin`` helpers that no library code calls: a slot contraction at
  several slots, the basis vector, span membership in a ``SparseEchelon``
  and the reader of one serialized rational.
"""

import copy
import itertools
import math
from fractions import Fraction

import numpy as np

from projdyn.curvclass import BivectorMap, CurvatureForm, _decomposable_span, _normalize
from projdyn.exactlin import (
    FormatError,
    JsonValue,
    Multivector,
    Tensor,
    accumulate,
    basis_multivector,
    clear_denominators,
    det,
    kernel,
    rat,
    rref,
    solve,
    sort_with_sign,
    tensor_from_json,
)
from projdyn.polynomials import Poly
from projdyn.polyintegrals import AntisymmetricForm, pair_tableau, q_indices, qvar, v_indices, vvar
from projdyn.screens import (
    MAX_STEPS,
    DomainExitError,
    ProjectiveForceField,
    Screen,
    StepBudgetError,
    StepUnderflowError,
    VisibilityError,
    _floats,
    flat_screen,
    homogenize_force,
)
from projdyn.young import (
    NumberingError,
    YoungTableau,
    _check_order,
    antisymmetrizer_element,
    apply_element,
    check_imAS,
    slot_identity,
)


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


def hermite_reference(traj, t):
    """TrajectorySample.interpolate on numpy: the interval by searchsorted,
    the weights on numpy scalars, the sum on whole rows."""
    ts = traj.times
    if not ts[0] <= t <= ts[-1]:
        raise ValueError(f"time {t} outside [{ts[0]}, {ts[-1]}]")
    i = int(np.searchsorted(ts, t, side="right") - 1)
    i = min(max(i, 0), len(ts) - 2)
    h = ts[i + 1] - ts[i]
    if h == 0.0:
        return traj.states[i].copy()
    s = (t - ts[i]) / h
    y0, y1 = traj.states[i], traj.states[i + 1]
    d0, d1 = traj.derivs[i], traj.derivs[i + 1]
    h00 = 2 * s**3 - 3 * s**2 + 1
    h10 = s**3 - 2 * s**2 + s
    h01 = -2 * s**3 + 3 * s**2
    h11 = s**3 - s**2
    return h00 * y0 + h10 * h * d0 + h01 * y1 + h11 * h * d1


def project_state_reference(screen, q, v):
    """Screen.project_state with both evaluations of the geometry through
    local(q, v), the Hessian term computed and dropped."""
    q, v = _floats(q), _floats(v)
    d = len(q)
    geometry = screen.local(q, v)
    if geometry is None:
        raise ValueError("point outside the screen's validity domain")
    out = np.empty(2 * d)
    q = np.divide(q, geometry[0], out=out[:d])
    geometry = screen.local(q, v)
    if geometry is None:
        raise ValueError("point outside the screen's validity domain")
    h, g, _ = geometry
    v = np.subtract(v, g.dot(v) / (h if screen.kind == "linear" else g.dot(q)) * q, out=out[d:])
    return out, max(abs(h - 1.0), abs(float(g.dot(v))))


def central_project_reference(to_screen, q, v):
    """central_project_state through local(q, v) on the target screen."""
    q, v = _floats(q), _floats(v)
    geometry = to_screen.local(q, v)
    if geometry is None or not 0.0 < geometry[0] < math.inf:
        raise VisibilityError("point is not visible on the target screen")
    k, dk, _ = geometry
    return q / k, k * v - dk.dot(v) * q


def without_exact_structure(screen):
    """A copy of a linear or quadric screen that takes the general paths: no
    recorded axis (h = phi q as a dot) and no identity flag (q G q, G q and
    v G v as dots)."""
    general = copy.copy(screen)
    if screen.kind == "linear":
        general.axis = None
    else:
        general.identity = False
    return general


def kepler_force_general(mu, center, reference_screen=None):
    """screens.kepler_force by the general expression -mu * delta / r^3 at
    every mu, without its exact components."""
    center = np.asarray(center, dtype=float)
    screen = reference_screen or flat_screen(len(center))

    def f_H(x):
        delta = x - center
        r = math.sqrt(delta.dot(delta))
        if r == 0.0:
            raise ZeroDivisionError(f"kepler force evaluated at its center {center.tolist()}")
        return -mu * delta / r**3

    return homogenize_force(f_H, screen, name="kepler", params={"mu": mu, "center": [float(c) for c in center]})


def inverse_cube_force_general(dim, mu=1.0):
    """screens.inverse_cube_force by the general expression -mu * q / r2^2 at
    every mu, without its exact components."""

    def func(q):
        r2 = float(q @ q)
        if r2 == 0.0:
            raise ZeroDivisionError("inverse-cube force evaluated at the origin")
        return -mu * q / r2**2

    return ProjectiveForceField(dim, func, name="inverse_cube", params={"mu": mu})


_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])


def dormand_prince_reference(rhs, project, y0, t0, t1, tol, stats):
    """screens._dormand_prince with y5 from the fifth-order weights and the
    error norm on numpy arrays.

    Integrate y' = rhs(t, y) from t0 to t1 with the Dormand-Prince 5(4)
    pair, mapping each accepted state back through project(y), which must
    return a new array; raises ValueError unless t0 <= t1.

    rhs(t, y, out) writes the derivative at (t, y) into the row out and raises
    DomainExitError outside the validity domain; a stage that does so halves
    the step.  The error norm is the root mean square over the len(y)
    components of the scaled difference of the embedded solutions.  Raises
    StepUnderflowError when the step falls below 1e-14 * max(t1 - t0, 1), and
    StepBudgetError when MAX_STEPS steps end short of t1.
    The derivative rhs writes must depend on the state alone: the pair is
    "first same as last", so when project(y5) returns the last stage's input
    bit for bit, that stage is the derivative at the accepted state and rhs
    is not called again.  On return sets the counters ``accepted``,
    ``rejected``, ``domain_retries``, ``last_stage_reused`` and ``min_h`` of
    stats (see TrajectorySample) and returns (times, states, derivatives) as
    lists, one entry per accepted step plus the initial one.
    """
    if not t0 <= t1:
        raise ValueError(f"time span [{t0}, {t1}] needs t0 <= t1")
    accepted = rejected = domain_retries = last_stage_reused = 0
    budget = MAX_STEPS
    min_h = math.inf
    # K[i] is stage i of the current step; K[0] is the derivative at (t, y)
    n = len(y0)
    K = np.empty((7, n))
    k0, k6 = K[0], K[6]
    # stage i: its row of A, its node c_i, its row of K and the stages before it
    stages = [(_DP_A[i], float(_DP_C[i]), K[i], K[:i]) for i in range(1, 7)]
    y = y0
    t = t0
    rhs(t, y, k0)
    # deterministic initial step from the standard scale heuristic
    scale = tol + tol * np.abs(y)
    d0 = math.sqrt(float(np.mean((y / scale) ** 2)))
    d1 = math.sqrt(float(np.mean((k0 / scale) ** 2)))
    h = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6
    h = min(h, (t1 - t0) * 0.1)

    times = [t]
    ys = [y]
    derivs = [k0.copy()]
    h_floor = max(abs(t1 - t0), 1.0) * 1e-14

    # a non-finite stage ends in a rejected step below; numpy need not warn
    with np.errstate(invalid="ignore", over="ignore"):
        while t < t1:
            if accepted + rejected + domain_retries >= budget:
                raise StepBudgetError(f"step budget of {budget} steps used up at t = {t}", t)
            h = min(h, t1 - t)
            if h < h_floor:
                raise StepUnderflowError(f"step size underflow at t = {t}", t)
            try:
                for a, c, k, k_before in stages:
                    stage_in = y + h * a.dot(k_before)
                    rhs(t + c * h, stage_in, k)
            except DomainExitError:
                # retry with a shorter step; report only if hopeless
                domain_retries += 1
                h *= 0.5
                if h < h_floor:
                    raise
                continue
            y5 = y + h * _DP_B5.dot(K)
            y4 = y + h * _DP_B4.dot(K)
            scale = tol + tol * np.maximum(np.abs(y), np.abs(y5))
            e = (y5 - y4) / scale
            err = math.sqrt(np.add.reduce(e * e) / n)
            if not math.isfinite(err):
                # a stage hit a singularity; shrink hard instead of trusting err.  A non-finite
                # y5 lands here too: inf - finite is inf over an inf scale, NaN stays NaN
                rejected += 1
                h *= 0.2
                if h < h_floor:
                    raise StepUnderflowError(f"state became non-finite at t = {t}", t)
                continue
            if err <= 1.0:
                accepted += 1
                t = t + h
                if t < t1 and h < min_h:
                    min_h = h
                y = project(y5)
                # the last stage ran at (t + 1.0 * h, stage_in), the accepted (t, y) when y is stage_in
                if y.tobytes() == stage_in.tobytes():
                    last_stage_reused += 1
                    k0[:] = k6
                else:
                    rhs(t, y, k0)
                times.append(t)
                ys.append(y)
                derivs.append(k0.copy())
            else:
                rejected += 1
            factor = 0.9 * err ** -0.2 if err > 0.0 else 5.0
            h *= min(5.0, max(0.2, factor))
    stats.update(accepted=accepted, rejected=rejected, domain_retries=domain_retries,
                 last_stage_reused=last_stage_reused, min_h=float(min_h))
    return times, ys, derivs


def assert_same_dict(got: dict, expected: dict, increasing=True):
    """got equals expected as a dict; with ``increasing`` (a tensor's entries
    or a group-algebra element), got also lists its keys in increasing order,
    the sorted code order of the group-algebra engine."""
    assert got == expected
    if increasing:
        keys = list(got)
        assert keys == sorted(keys)


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


def perm_sign(perm) -> int:
    """Sign of a permutation given as a tuple of images of 0..N-1."""
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


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


def block_symmetric(t: Tensor, b: int) -> bool:
    """t equals its transposes of adjacent slots inside each of its two blocks
    of b slots."""
    return all(transpose_slots(t, m, m + 1) == t for m in [*range(b - 1), *range(b, 2 * b - 1)])


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


def intersect_spans(spans):
    """Intersection of a list of subspaces of Q^d, each given by a basis.

    Works through annihilators: ann(S) = kernel of the matrix with the basis
    of S as rows; the intersection is the common kernel of all annihilators.
    """
    spans = list(spans)
    if not spans:
        raise ValueError("need at least one subspace")
    if not all(spans):
        return []  # intersection with the zero space
    return kernel([v for basis in spans for v in kernel(basis)], len(spans[0][0]))


def multivector_from_json(obj) -> Multivector:
    """The tensor format with strictly increasing idx lists."""
    r = JsonValue.of(obj, "multivector")
    t = tensor_from_json(r)
    if any(a >= b for idx in t.entries for a, b in zip(idx, idx[1:])):
        raise r.error("entries whose idx lists are strictly increasing", "entries")
    return Multivector._raw(t.dim, t.order, t.entries)


# -- Young-class helpers without a pipeline caller ---------------------------------


def partitions(n, cap=None):
    """The partitions of n with parts at most ``cap``, as weakly decreasing
    row lengths, largest first."""
    cap = cap or n
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def slot_element(n: int, pairs, sign) -> dict:
    """``young.slot_identity`` as a group-algebra dict {perm: coefficient}."""
    perms, coefs = slot_identity(n, pairs, sign)
    return dict(zip(map(tuple, perms.tolist()), coefs))


def scale_element(g: dict, c) -> dict:
    """c * g for a group-algebra element {perm: coefficient}."""
    return {perm: coef * c for perm, coef in g.items()} if c else {}


def bianchi_sum_AS(tableau: YoungTableau, t: Tensor, k: int, j: int) -> Tensor:
    """phi - sum_p T(p, top of column j) phi over boxes p of column k (k < j).

    Vanishes on Im AS for every non-adjacent column pair as well (the
    transitivity of the column identities).
    """
    if tableau.numbering != "vertical":
        raise NumberingError("column identities need a vertical numbering")
    _check_order(tableau, t)
    cols = tableau.column_slots()
    return apply_element(slot_element(t.order, [(p, cols[j][0]) for p in cols[k]], -1), t)


def contract_top_of_last_columns(tableau: YoungTableau, t: Tensor, p_vec, l: int):
    """Plug the vector p into the top boxes of the last l columns.

    Returns (reduced tableau, reduced tensor); the reduced tableau has those
    column lengths decreased by one (columns shrinking to zero disappear,
    and the reduced tensor is returned with a None tableau in that case).
    """
    if tableau.numbering != "vertical":
        raise NumberingError("column contraction needs a vertical numbering")
    _check_order(tableau, t)
    cols = list(tableau.columns)
    c = len(cols)
    if not 1 <= l <= c:
        raise ValueError("l out of range")
    col_slots = tableau.column_slots()
    slots = [col_slots[c - l + i][0] for i in range(l)]
    reduced = contract_slots(t, {s: p_vec for s in slots})
    new_cols = [j - 1 if i >= c - l else j for i, j in enumerate(cols)]
    new_cols = [j for j in new_cols if j > 0]
    if not new_cols:
        return None, reduced
    new_cols.sort(reverse=True)
    return YoungTableau.from_columns(new_cols), reduced


def vanishing_diagonal_test(tableau: YoungTableau, t: Tensor) -> bool:
    """True iff the diagonal evaluation phi(x1..xj1; x1..xj2; ...) is the zero
    polynomial, decided exactly on coefficients.

    For t in Im AS a True answer forces t = 0, so this doubles as a zero test
    through the diagonal.
    """
    if not check_imAS(tableau, t):
        raise ValueError("input must lie in Im AS for the vertical tableau")
    cols = tableau.column_slots()
    depth_of_slot = {}
    for slots in cols:
        for depth, s in enumerate(slots):
            depth_of_slot[s] = depth
    coeffs = {}
    for idx, val in t.entries.items():
        mono = {}
        for slot, i in enumerate(idx):
            pair = (depth_of_slot[slot], i)
            mono[pair] = mono.get(pair, 0) + 1
        accumulate(coeffs, tuple(sorted(mono.items())), val)
    return not coeffs


def example_pair_exchange_decompose(phi: Tensor):
    """Split an order-4 form with phi(x,y,z,t) = phi(z,t,x,y) and antisymmetry
    in (1,2) and (3,4) into (phi_Y, psi) with phi = phi_Y + psi/3.

    psi(x,y,z,t) = phi(x,y,z,t) + phi(y,z,x,t) + phi(z,x,y,t) is fully
    antisymmetric and phi_Y lies in Im AS of the vertical 2x2 tableau; when
    phi(x,y,x,y) vanishes identically, phi_Y = 0 and phi is itself fully
    antisymmetric (up to the factor 3).
    """
    if phi.order != 4:
        raise ValueError("order-4 form required")
    identity = (0, 1, 2, 3)
    if not apply_element({identity: 1, (2, 3, 0, 1): -1}, phi).is_zero():
        raise ValueError("pair-exchange symmetry phi(x,y,z,t)=phi(z,t,x,y) fails")
    if not all(apply_element(slot_element(4, [pair], 1), phi).is_zero() for pair in ((0, 1), (2, 3))):
        raise ValueError("pair antisymmetry fails")
    psi = apply_element({identity: 1, (1, 2, 0, 3): 1, (2, 0, 1, 3): 1}, phi)
    phi_y = phi - psi.scale(Fraction(1, 3))
    # defensive: the split must land where the decomposition says
    if not all(apply_element(slot_element(4, [pair], 1), psi).is_zero()
               for pair in itertools.combinations(range(4), 2)):
        raise ArithmeticError("cyclic sum failed to be fully antisymmetric")
    if not check_imAS(YoungTableau.from_columns([2, 2]), phi_y):
        raise ArithmeticError("projected part is not in Im AS")
    return phi_y, psi


# -- compatibility and the square-root recovery on Fractions and polynomials -------


def _image_two_form_polys(form: CurvatureForm):
    """For each destination pair (w, x), the bilinear polynomial in (q, v)
    giving that component of the form's image 2-form."""
    d = form.dim
    out = {}
    for (u, v, w, x), val in form.tensor.entries.items():
        if w >= x:
            continue
        exps = [0] * (2 * d)
        exps[u] += 1
        exps[d + v] += 1
        accumulate(out.setdefault((w, x), {}), tuple(exps), val)
    return {key: Poly(2 * d, terms) for key, terms in out.items()}


def _gradient_covector_polys(screen, d):
    """dh|_q up to positive scale, as polynomials in q (exact kinds only)."""
    if screen.kind == "linear":
        return [Poly.const(2 * d, rat(x)) for x in screen.phi_exact]
    if screen.kind == "quadratic_root":
        out = []
        for row in screen.gmat_exact:
            terms = {}
            for j, x in enumerate(row):
                exps = [0] * (2 * d)
                exps[j] = 1
                accumulate(terms, tuple(exps), rat(x))
            out.append(Poly(2 * d, terms))
        return out
    return None


def compatibility_by_polys(form: CurvatureForm, screen) -> bool:
    """The wedge of the screen gradient with the form's image 2-forms must
    vanish on the screen.

    For linear and quadratic-root screens the condition is a homogeneous
    polynomial identity in (q, v), decided exactly; any other screen has no
    exact gradient and raises TypeError.
    """
    d = form.dim
    grads = _gradient_covector_polys(screen, d)
    if grads is None:
        raise TypeError("exact compatibility needs a linear or quadratic-root screen")
    images = _image_two_form_polys(form)
    for t1, t2, t3 in itertools.combinations(range(d), 3):
        comp = (
            grads[t1] * images.get((t2, t3), Poly.zero(2 * d))
            - grads[t2] * images.get((t1, t3), Poly.zero(2 * d))
            + grads[t3] * images.get((t1, t2), Poly.zero(2 * d))
        )
        if not comp.is_zero():
            return False
    return True


def compatibility_on_tangent_pairs(form: CurvatureForm, phi) -> bool:
    """Equivalent formulation for a hyperplane screen: the form vanishes when
    the last three slots are filled from ker(phi) and the first runs free
    (decided exactly on a kernel basis)."""
    d = form.dim
    kb = kernel([[rat(x) for x in phi]])
    for ka in kb:
        for kc in kb:
            for kd in kb:
                for q0 in range(d):
                    val = Fraction(0)
                    for (u, v, w, x), tval in form.tensor.entries.items():
                        if u != q0:
                            continue
                        c = ka[v] * kc[w] * kd[x]
                        if c:
                            val += tval * c
                    if val:
                        return False
    return True


def compatibility_repeated_argument(form: CurvatureForm, phi) -> bool:
    """The weakest-looking formulation: R(q, w; u, w) = 0 with u, w tangent
    and q free, decided exactly on a kernel basis of the hyperplane."""
    d = form.dim
    kb = kernel([[rat(x) for x in phi]])
    for ku in kb:
        for kw1 in range(len(kb)):
            for kw2 in range(kw1, len(kb)):
                # polarize w over pairs of basis vectors
                for q0 in range(d):
                    val = Fraction(0)
                    for (u, v, w, x), tval in form.tensor.entries.items():
                        if u != q0:
                            continue
                        c1 = kb[kw1][v] * ku[w] * kb[kw2][x]
                        c2 = kb[kw2][v] * ku[w] * kb[kw1][x]
                        if c1 or c2:
                            val += tval * (c1 + c2)
                    if val:
                        return False
    return True


def _normalize_matrix(mat):
    """Scale so the first nonzero entry (row-major) is +1; returns (matrix, factor)."""
    lead = None
    for row in mat:
        for x in row:
            if x:
                lead = x
                break
        if lead is not None:
            break
    if lead is None:
        return [list(r) for r in mat], Fraction(1)
    return [[x / lead for x in row] for row in mat], lead


def recover_square_root_by_spans(R: BivectorMap):
    """For an invertible map of wedge-square type, recover (B, epsilon, scale)
    with R = epsilon * scale * B^2 on bivectors and B normalized; None when
    the images of the hyperplane pencils are not of the common-line type.

    The images must be decomposable (every caller has decided that): the
    span of each pencil image is read from two of its contractions."""
    d = R.dim_src
    if d == 2:
        m = R.matrix[0][0]
        if not m:
            return None
        eps = 1 if m > 0 else -1
        return [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]], eps, abs(m)
    cols, den = R.cleared()
    lines = []
    for i in range(d):
        spans = []
        for k in range(d):
            if k == i:
                continue
            col = cols[R._pair_col[(min(i, k), max(i, k))]]
            if not col:
                return None
            spans.append(_decomposable_span(col, R.dim_dst))
        inter = intersect_spans(spans)
        if len(inter) != 1:
            return None
        lines.append(_normalize(inter[0]))
    # m[(i, j)]: the multiple of line_i ^ line_j that R(e_i ^ e_j) is, read on the cleared column
    m = {}
    for i, j in itertools.combinations(range(d), 2):
        img = cols[R._pair_col[(i, j)]]
        li, lj = lines[i], lines[j]
        w = {(a, b): li[a] * lj[b] - li[b] * lj[a] for a, b in itertools.combinations(range(d), 2)}
        w = {key: val for key, val in w.items() if val}
        if not w:
            return None
        key = next(iter(w))
        ratio = img.get(key, 0) / w[key]
        if not ratio or any(img.get(pq, 0) != ratio * w.get(pq, 0) for pq in img.keys() | w.keys()):
            return None
        m[(i, j)] = ratio / den
    s = None
    for i, j in itertools.combinations(range(1, d), 2):
        s_ij = m[(0, i)] * m[(0, j)] / m[(i, j)]
        if s is None:
            s = s_ij
        elif s != s_ij:
            return None
    coeffs = [Fraction(1)] + [m[(0, j)] / s for j in range(1, d)]
    B = [[lines[j][a] * coeffs[j] for j in range(d)] for a in range(d)]  # column j = c_j w_j
    B_norm, lead = _normalize_matrix(B)
    s_norm = s * lead * lead
    eps = 1 if s_norm > 0 else -1
    return B_norm, eps, abs(s_norm)


# -- the exterior algebra and the curvature forms on Fractions ----------------------


def wedge_by_fractions(a: Multivector, b: Multivector) -> Multivector:
    """a ^ b summed term by term on the rational coordinates."""
    grade = a.grade + b.grade
    out = {}
    if grade <= a.dim:
        for ia, va in a.coords.items():
            for ib, vb in b.coords.items():
                key, sign = sort_with_sign(ia + ib)
                if sign:
                    accumulate(out, key, va * vb * sign)
    return Multivector._raw(a.dim, grade, out)


def contract_by_fractions(xi, m: Multivector) -> Multivector:
    """xi -| m summed term by term on the rational coordinates."""
    xi = [rat(c) for c in xi]
    out = {}
    for idx, val in m.coords.items():
        for pos, i in enumerate(idx):
            if xi[i]:
                accumulate(out, idx[:pos] + idx[pos + 1:], val * xi[i] * (1 if pos % 2 == 0 else -1))
    return Multivector._raw(m.dim, m.grade - 1, out)


def contract_multivector_by_fractions(pi: Multivector, omega: Multivector) -> Multivector:
    """pi -| omega summed term by term on the rational coordinates."""
    out = {}
    for s_idx, sval in pi.coords.items():
        for t_idx, tval in omega.coords.items():
            if set(s_idx).issubset(t_idx):
                rest = tuple(i for i in t_idx if i not in s_idx)
                _, sign = sort_with_sign(s_idx + rest)
                if sign:
                    accumulate(out, rest, sval * tval * sign)
    return Multivector._raw(pi.dim, omega.grade - pi.grade, out)


def curvature_by_contractions(G) -> Tensor:
    """The generated curvature form on Fractions: for each pair a < b,
    contract e_a ^ e_b into the volume form, apply the (d - 2)-th compound
    of G (its minors from ``det``), contract the image into the volume form
    again, and write the four antisymmetric copies of each entry."""
    d = len(G)
    G = [[rat(x) for x in row] for row in G]
    vol = basis_multivector(d, tuple(range(d)))
    subsets = list(itertools.combinations(range(d), d - 2))
    comp = [[det([[G[i][j] for j in T] for i in S]) for T in subsets] for S in subsets]
    column = {S: c for c, S in enumerate(subsets)}
    entries = {}
    for a, b in itertools.combinations(range(d), 2):
        omega = contract_multivector_by_fractions(basis_multivector(d, (a, b)), vol)
        coords_out = [sum((row[column[S]] * val for S, val in omega.coords.items()), Fraction(0)) for row in comp]
        sigma = Multivector(d, d - 2, {S: coords_out[i] for i, S in enumerate(subsets) if coords_out[i]})
        img = contract_multivector_by_fractions(sigma, vol)
        for (w, x), val in img.coords.items():
            for uu, vv, sgn_uv in ((a, b, 1), (b, a, -1)):
                for ww, xx, sgn_wx in ((w, x, 1), (x, w, -1)):
                    entries[(uu, vv, ww, xx)] = val * sgn_uv * sgn_wx
    return Tensor._raw(d, 4, entries)


def flat_form_by_solves(phi, g_matrix, kernel_basis) -> Tensor:
    """g(phi -| (u ^ v), phi -| (w ^ x)) on Fractions, the kernel
    coordinates of each contracted pair from its own ``solve``."""
    d = len(phi)
    phi = [rat(x) for x in phi]
    g = [[rat(x) for x in row] for row in g_matrix]
    k = len(kernel_basis)
    kmat = [[rat(kernel_basis[j][i]) for j in range(k)] for i in range(d)]
    coords = {}
    for u, v in itertools.product(range(d), repeat=2):
        vec = [Fraction(0)] * d
        vec[v] += phi[u]
        vec[u] -= phi[v]
        coords[(u, v)] = solve(kmat, vec)
        if coords[(u, v)] is None:
            raise ValueError("contracted pair left ker(phi): inconsistent witness data")
    entries = {}
    for (u, v), cu in coords.items():
        for (w, x), cw in coords.items():
            val = sum((g[a][b] * cu[a] * cw[b] for a in range(k) for b in range(k)), Fraction(0))
            if val:
                entries[(u, v, w, x)] = val
    return Tensor._raw(d, 4, entries)


def evaluate_on_bivectors(form: AntisymmetricForm, bivectors) -> Fraction:
    """The symmetric b-linear form that a pair-antisymmetric form induces on
    bivectors, one bivector per slot pair.  Each bivector is expanded over
    increasing index pairs only; the pair antisymmetry makes this the unique
    descent with R_B(q ^ v) = R(q, v)."""
    if len(bivectors) != form.b:
        raise ValueError("need one bivector per slot pair")
    total = Fraction(0)
    for idx, val in form.tensor.entries.items():
        if any(idx[2 * k] >= idx[2 * k + 1] for k in range(form.b)):
            continue
        term = val
        for k, pi in enumerate(bivectors):
            term *= pi.coords.get((idx[2 * k], idx[2 * k + 1]), Fraction(0))
        total += term
    return total


def apply_map(f, m: Multivector) -> Multivector:
    """The image of m under a ``BivectorMap`` or a ``WedgePowerMap``: the
    images of its basis multivectors, scaled by its coordinates and summed."""
    if isinstance(f, BivectorMap):
        dim, grade, image = f.dim_dst, 2, lambda pr: f.image_of_basis_pair(*pr)
    else:
        dim, grade, image = f.R.dim_dst, 2 * f.p, f.images.__getitem__
    out = Multivector(dim, grade, {})
    for idx, val in m.coords.items():
        out = out + image(idx).scale(val)
    return out


# -- exactlin helpers without a library caller ------------------------------------


def contract_slots(t: Tensor, assignment: dict) -> Tensor:
    """Plug vectors into several slots at once ({slot: vector}), dropping
    each slot from the order, the highest slot first."""
    for slot in sorted(assignment, reverse=True):
        vec = [rat(c) for c in assignment[slot]]
        out = {}
        for idx, val in t.entries.items():
            if c := vec[idx[slot]]:
                accumulate(out, idx[:slot] + idx[slot + 1:], val * c)
        t = Tensor(t.dim, t.order - 1, out)
    return t


def basis_vector(dim: int, i: int) -> Multivector:
    return Multivector(dim, 1, {(i,): Fraction(1)})


def echelon_contains(echelon, vec) -> bool:
    """Whether vec lies in the span held by a ``SparseEchelon``."""
    return echelon._reduce(vec)[1] is None


def parse_rational(s) -> Fraction:
    """A serialized rational: a 'p/q' string or a finite JSON number."""
    return JsonValue(s, "rational").rational()
