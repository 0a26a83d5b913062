"""Screens, projective force fields, and motion with radial reaction.

A screen is the level set {h = 1} of a positively homogeneous degree-1
function on a semi-conic open set.  Dynamics on a screen follows
q'' = f(q) + lambda q, the radial reaction lambda being recomputed from
(q, q') at every right-hand-side evaluation so the motion stays on the
screen; an adaptive embedded Runge-Kutta pair integrates the system in
double precision with the constraint re-imposed after every accepted step.
The same stepper, _dormand_prince, serves compat.parallel_transport_check;
it stops after MAX_STEPS steps.

Each caller computes only what it reads.  Screen.local(q, v=None) is the one
geometry kernel: h(q), dh(q) and, only when v is given, v^T H(q) v, sharing
G q among them on a quadric.  The projections call it without v.  integrate
builds one right-hand side per run.  A linear screen's reads h = phi q
inline (dh = phi, v^T H v = 0), and evaluates a force homogenized over a
linear screen of the same phi as f_H(q / h) / h^3 with that same h; every
other screen's reads local(q, v).  Dense output finds its interval by
bisect on a list of the times and sums the Hermite terms on Python floats.
These keep the floating-point operations of the plain numpy expressions, in
the same order, and so every bit.  The rule: elementwise arithmetic may move
between numpy and Python floats, as each operation is rounded alike, but
every dot stays a numpy call, because OpenBLAS dots are fused multiply-add
chains that a Python sum does not reproduce.  Small products use
ndarray.dot, the kernel of @ without its dispatch cost.  The projection of
each accepted state records its drift from the screen as it goes, so no
second pass over the samples checks it; the run's counters are plain ints
and floats.

The one exception to the rule is a product whose exact coefficients leave a
single term in each sum.  Every other term of such a chain is an exact +-0
(a zero coefficient times a finite float), so the chain's result is that
term, a zero's sign aside.  A screen reads this structure once, when it is
built.  A LinearFormScreen whose phi is a coordinate covector e_k records
``axis`` = k; its local and the linear right-hand side read h = q[k] after
the finiteness check, as a zero of either sign is outside the domain.  A
QuadraticRootScreen whose G is the identity records ``identity``; its local
reads q.q for q G q, q + 0.0 for G q (OpenBLAS writes +0.0 where q has -0.0,
and so does q + 0.0) and v.v for v G v while v.v is finite, since the NaN
of a non-finite v can carry another sign.  So the builtin flat screens and
the unit sphere take these paths, and every other screen (the hyperboloid,
a non-unit phi, any other G) keeps the dots.  The Kepler and inverse-cube
forces at mu = 1 divide by r^3 * -1.0 (r2^2 * -1.0) instead of multiplying
by -mu first: (-x) / y and x / (y * -1.0) round alike, and the product
keeps a NaN's sign as -1.0 * x does, where -y would flip it.

Each DP5(4) step does only the float work it needs, by three more rules
that keep every bit.  The fifth-order solution y5 is the last stage's input,
since that stage's row of coefficients is the fifth-order weights with a 0
for the last stage.  The error norm runs on Python floats and sums its
squares in np.add.reduce's pairwise order (_pairwise_sum).  An exact h = 1,
which a flat screen's q[axis] keeps along an orbit, skips its divisions,
since x / 1.0 is x: the linear right-hand side calls f_H(q), the oscillator
force returns -q, and project_state copies q and reads its geometry once.

The extended central projection maps states between screens while
preserving the impulsion bivector q ^ q'.  All exact algebra lives in the
sibling modules; this module is deliberately floating point and talks to
them only through tolerance-tagged comparisons.

Screens and force fields are immutable and shareable; each integration run
owns its stepper state, so independent runs may proceed concurrently.
"""

from __future__ import annotations

import bisect
import io
import math
from fractions import Fraction

import numpy as np

from projdyn.exactlin import FormatError, JsonValue, dumps, format_rational
from projdyn.polynomials import Poly, SqrtElem


class DomainExitError(RuntimeError):
    """The trajectory left the screen's validity domain; carries the exit time."""

    def __init__(self, message, t_exit):
        super().__init__(message)
        self.t_exit = t_exit


class StepUnderflowError(RuntimeError):
    """Adaptive stepping shrank below the representable scale (typically a
    force-field singularity)."""

    def __init__(self, message, t_fail):
        super().__init__(message)
        self.t_fail = t_fail


class StepBudgetError(RuntimeError):
    """The integration took MAX_STEPS steps without reaching its end time;
    carries the time it reached."""

    def __init__(self, message, t_stop):
        super().__init__(message)
        self.t_stop = t_stop


class VisibilityError(ValueError):
    """A point is not visible on the target screen (k(q) <= 0)."""


_F64 = np.dtype(np.float64)


def _floats(x):
    """x as a float64 array; x itself, without a call to np.asarray, when it is one."""
    return x if x.__class__ is np.ndarray and x.dtype is _F64 else np.asarray(x, dtype=float)


# ---------------------------------------------------------------------------
# screens

class Screen:
    kind = "abstract"

    def value(self, q) -> float:
        raise NotImplementedError

    def gradient(self, q) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, q) -> np.ndarray:
        raise NotImplementedError

    def in_domain(self, q) -> bool:
        q = np.asarray(q, dtype=float)
        with np.errstate(all="ignore"):  # only the verdict is read, not the values
            return self.local(q) is not None

    def local(self, q, v=None):
        """(h(q), dh(q), v^T H(q) v) for float arrays q, v, or None outside the
        validity domain; the gradient is read-only.  Without v the third entry
        is None and the Hessian term is not computed.  A subclass overrides
        in_domain, or local itself to share one evaluation of the geometry;
        the values must equal those of value, gradient and hessian."""
        if not self.in_domain(q):
            return None
        return self.value(q), self.gradient(q), None if v is None else v @ self.hessian(q) @ v

    def project_state(self, q, v):
        """Renormalize a nearby state onto {h = 1, dh(v) = 0}: returns one new
        array holding q / h and v - (dh(v) / dh(q)) q, and the drift
        max(|h - 1|, |dh(v)|) of that state, read from the same evaluation of
        the geometry at the new q."""
        q, v = _floats(q), _floats(v)
        d = len(q)
        geometry = self.local(q)
        if geometry is None:
            raise ValueError("point outside the screen's validity domain")
        out = np.empty(2 * d)
        if geometry[0] == 1.0:  # q / 1.0 is q, and so is its geometry
            out[:d] = q
            q = out[:d]
        else:
            q = np.divide(q, geometry[0], out=out[:d])
            geometry = self.local(q)
            if geometry is None:
                raise ValueError("point outside the screen's validity domain")
        h, g, _ = geometry
        # on a linear screen h is phi.dot(q), the g.dot(q) below
        v = np.subtract(v, g.dot(v) / (h if self.kind == "linear" else g.dot(q)) * q, out=out[d:])
        return out, max(abs(h - 1.0), abs(float(g.dot(v))))

    def on_screen(self, q, v, tol) -> bool:
        return abs(self.value(q) - 1.0) <= tol and abs(self.gradient(q) @ v) <= tol


class LinearFormScreen(Screen):
    """h(q) = <phi, q> on the half space phi > 0 (an affine chart)."""

    kind = "linear"

    def __init__(self, phi):
        self.phi_exact = tuple(Fraction(x) for x in phi)
        self.phi = np.array([float(x) for x in phi], dtype=float)
        self.phi.flags.writeable = False
        self.dim = len(self.phi)
        self._hess = np.zeros((self.dim, self.dim))
        # k when phi is the coordinate covector e_k: then phi q is q[k] for a finite q
        coords = self.phi.tolist()
        self.axis = coords.index(1.0) if coords.count(0.0) == self.dim - 1 and 1.0 in coords else None

    def value(self, q):
        return float(self.phi.dot(_floats(q)))

    def gradient(self, q):
        return self.phi.copy()

    def hessian(self, q):
        return self._hess

    def local(self, q, v=None):
        qs = q.tolist()
        if not all(map(math.isfinite, qs)):
            return None
        h = qs[self.axis] if self.axis is not None else float(self.phi.dot(q))
        return (h, self.phi, None if v is None else 0.0) if h > 0.0 else None

    def to_json(self):
        return {"kind": "linear", "dim": self.dim, "phi": [format_rational(x) for x in self.phi_exact]}


class QuadraticRootScreen(Screen):
    """h(q) = sqrt(q^T G q) on the cone {g > 0}, G symmetric.

    An optional sheet covector restricts the domain to one side (for the
    two-sheeted hyperboloid, where {g > 0} is disconnected).
    """

    kind = "quadratic_root"

    def __init__(self, gmat, sheet=None):
        self.gmat_exact = tuple(tuple(Fraction(x) for x in row) for row in gmat)
        self.gmat = np.array([[float(x) for x in row] for row in gmat], dtype=float)
        if not np.array_equal(self.gmat, self.gmat.T):
            raise ValueError("screen quadratic form must be symmetric")
        self.dim = self.gmat.shape[0]
        self.sheet = None if sheet is None else np.array([float(x) for x in sheet], dtype=float)
        # G = I: local reads q.q, q + 0.0 and v.v for q G q, G q and v G v
        self.identity = bool(np.array_equal(self.gmat, np.eye(self.dim)))

    def value(self, q):
        q = _floats(q)
        return math.sqrt(q.dot(self.gmat).dot(q))

    def gradient(self, q):
        q = np.asarray(q, dtype=float)
        return (self.gmat @ q) / self.value(q)

    def hessian(self, q):
        q = np.asarray(q, dtype=float)
        h = self.value(q)
        gq = self.gmat @ q
        return self.gmat / h - np.outer(gq, gq) / h**3

    def local(self, q, v=None):
        if not all(map(math.isfinite, q.tolist())):
            return None
        identity = self.identity
        # (q G) q as in value(): for a non-diagonal G, q G and G q can differ in the last bit
        s = q.dot(q) if identity else q.dot(self.gmat).dot(q)
        if s <= 0.0 or (self.sheet is not None and self.sheet.dot(q) <= 0.0):
            return None
        h = math.sqrt(s)
        gq = q + 0.0 if identity else self.gmat.dot(q)
        if v is None:
            return h, gq / h, None
        gqv = gq.dot(v)
        vgv = v.dot(v) if identity else None
        if vgv is None or not math.isfinite(vgv):
            vgv = v.dot(self.gmat).dot(v)
        # v^T (G/h - Gq (Gq)^T / h^3) v without forming the d x d matrix
        return h, gq / h, vgv / h - gqv * gqv / h**3

    def to_json(self):
        return {
            "kind": "quadratic_root",
            "dim": self.dim,
            "g": [[format_rational(x) for x in row] for row in self.gmat_exact],
            "sheet": None if self.sheet is None else [float(x) for x in self.sheet],
        }


def flat_screen(dim, axis=None):
    axis = dim - 1 if axis is None else axis
    phi = [Fraction(0)] * dim
    phi[axis] = Fraction(1)
    return LinearFormScreen(phi)


def sphere_screen(dim):
    return QuadraticRootScreen([[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)])


def hyperboloid_screen(dim):
    g = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim - 1):
        g[i][i] = Fraction(-1)
    g[dim - 1][dim - 1] = Fraction(1)
    sheet = [0.0] * dim
    sheet[dim - 1] = 1.0
    return QuadraticRootScreen(g, sheet=sheet)


_BUILTIN_SCREENS = {"flat": flat_screen, "sphere": sphere_screen, "hyperboloid": hyperboloid_screen}


# Largest screen dimension read from input (a builtin screen's "dim", the
# length of "phi" or the size of "g").  A screen holds dim x dim matrices (a
# dense float Hessian, an exact rational form), so a larger dim exhausts
# memory instead of giving a result; the paper works in dimensions 3 to 6.
MAX_SCREEN_DIM = 256


def _screen_length(r, key):
    """The length of the list under ``key``: a screen dimension in [2, MAX_SCREEN_DIM]."""
    n = len(r.sequence(key, at_least=2))
    if n > MAX_SCREEN_DIM:
        raise r.error(f"a list of at most {MAX_SCREEN_DIM} entries", key)
    return n


def _read_screen(obj):
    """Check a screen's JSON before anything is built: returns (dim, build),
    where build() constructs the screen."""
    r = JsonValue.of(obj, "screen")
    kind = r.choice("kind", ("linear", "quadratic_root", *_BUILTIN_SCREENS))
    if kind == "linear":
        phi = r.rationals("phi", n=_screen_length(r, "phi"))
        return len(phi), lambda: LinearFormScreen(phi)
    if kind == "quadratic_root":
        n = _screen_length(r, "g")
        g = [row.rationals(n=n) for row in r.items("g")]
        if any(g[i][j] != g[j][i] for i in range(n) for j in range(i)):
            raise r.error("a symmetric matrix", "g")
        sheet = None if r.value.get("sheet") is None else r.floats("sheet", n)
        return n, lambda: QuadraticRootScreen(g, sheet=sheet)
    dim = r.integer("dim", low=2, high=MAX_SCREEN_DIM + 1)
    return dim, lambda: _BUILTIN_SCREENS[kind](dim)


def screen_from_json(obj):
    return _read_screen(obj)[1]()


# ---------------------------------------------------------------------------
# projective force fields

class ProjectiveForceField:
    """Vector field on the semi-cone, positively homogeneous of degree -3.

    ``func`` is the double-precision evaluation; ``exact`` optionally carries
    per-component SqrtElem/Poly expressions (in the 2*dim q,v-variable space,
    v-free) for the exact modules, or a function of no arguments that builds
    them on first read; fields are defined up to a radial term.
    ``homogenized`` is (f_H, reference screen) for a field built by
    homogenize_force, else None.
    """

    homogenized = None

    def __init__(self, dim, func, exact=None, name="custom", params=None):
        self.dim = dim
        self._func = func
        self._exact = exact
        self.name = name
        self.params = params or {}

    @property
    def exact(self):
        if callable(self._exact):
            self._exact = self._exact()
        return self._exact

    def __call__(self, q):
        return _floats(self._func(_floats(q)))

    def to_json(self):
        return {"kind": self.name, **self.params}


def zero_force(dim):
    exact = [Poly.zero(2 * dim) for _ in range(dim)]
    return ProjectiveForceField(dim, lambda q: np.zeros(dim), exact=exact, name="zero")


def homogenize_force(f_H, screen, name="homogenized", exact=None, params=None):
    """Extend a screen-level field to the cone: f(q) = h(q)^-3 f_H(q / h(q)).

    The result has homogeneity degree -3 and restricts to f_H on the screen.
    It records (f_H, screen) as its ``homogenized``, so that integrate on a
    linear screen of the same phi evaluates f_H(q / h) / h^3 with the h(q)
    it has already read.
    """

    value = screen.value

    def func(q):
        h = value(q)
        if h <= 0.0:
            raise DomainExitError("homogenized force evaluated at h(q) <= 0", None)
        return _floats(f_H(q / h)) / h**3

    field = ProjectiveForceField(screen.dim, func, exact=exact, name=name, params=params)
    field.homogenized = (f_H, screen)
    return field


def kepler_force(mu, center, reference_screen=None):
    """Attraction toward a center sitting on a reference screen.

    ``center`` is an ambient point with h(center) = 1 on the reference screen
    (default: the flat screen on the last axis).  The projective field is the
    homogenization of the screen-level inverse-square field.
    """
    center = np.asarray(center, dtype=float)
    dim = len(center)
    screen = reference_screen or flat_screen(dim)
    unit = mu == 1.0

    def f_H(x):
        delta = x - center
        r = math.sqrt(delta.dot(delta))
        if r == 0.0:
            raise ZeroDivisionError(f"kepler force evaluated at its center {center.tolist()}")
        # at mu = 1 one array operation, bit for bit (module docstring)
        return delta / (r**3 * -1.0) if unit else -mu * delta / r**3

    def exact():
        # f_i = -mu (q_i - c_i h) * s / (h * S^2) with S = |q - c h|^2, h = <phi, q>
        nv = 2 * dim
        phi = [Fraction(x) for x in screen.phi_exact]
        cen = [Fraction(x).limit_denominator(10**12) for x in center]
        h = Poly(nv, {tuple(1 if k == i else 0 for k in range(nv)): phi[i] for i in range(dim) if phi[i]})
        deltas = [Poly.variable(i, nv) - h.scale(cen[i]) for i in range(dim)]
        S = Poly.zero(nv)
        for dlt in deltas:
            S = S + dlt * dlt
        mu_r = Fraction(mu).limit_denominator(10**12)
        return [SqrtElem(Poly.zero(nv), dlt.scale(-mu_r), h * S * S, S) for dlt in deltas]

    return homogenize_force(
        f_H, screen, name="kepler", exact=exact if screen.kind == "linear" else None,
        params={"mu": mu, "center": [float(c) for c in center]},
    )


def oscillator_force(dim, axis=None):
    """Homogenized linear restoring force on the flat screen (chart form
    x'' = -x); exact rational components -q_i / h^4."""
    axis = dim - 1 if axis is None else axis
    nv = 2 * dim
    h = Poly.variable(axis, nv)
    h4 = h ** 4
    exact = [
        SqrtElem(-Poly.variable(i, nv), Poly.zero(nv), h4, Poly.const(nv, 1)) if i != axis else
        SqrtElem(Poly.zero(nv), Poly.zero(nv), h4, Poly.const(nv, 1))
        for i in range(dim)
    ]

    def func(q):
        h = q[axis]
        out = -q if h == 1.0 else -q / h**4  # x / 1.0 is x
        out[axis] = 0.0
        return out

    return ProjectiveForceField(dim, func, exact=exact, name="oscillator", params={"axis": axis})


def inverse_cube_force(dim, mu=1.0):
    """Central inverse-cube attraction f = -mu q / |q|^4 (exactly rational)."""
    nv = 2 * dim
    mu_r = Fraction(mu).limit_denominator(10**12)
    norm2 = Poly.zero(nv)
    for i in range(dim):
        norm2 = norm2 + Poly.variable(i, nv) * Poly.variable(i, nv)
    D = norm2 * norm2
    exact = [
        SqrtElem(Poly.variable(i, nv).scale(-mu_r), Poly.zero(nv), D, Poly.const(nv, 1))
        for i in range(dim)
    ]

    unit = mu == 1.0

    def func(q):
        r2 = float(q @ q)
        if r2 == 0.0:
            raise ZeroDivisionError("inverse-cube force evaluated at the origin")
        # at mu = 1 one array operation, bit for bit (module docstring)
        return q / (r2**2 * -1.0) if unit else -mu * q / r2**2

    return ProjectiveForceField(dim, func, exact=exact, name="inverse_cube", params={"mu": mu})


def force_from_json(obj, dim):
    r = JsonValue.of(obj, "force")
    kind = r.choice("kind", ("zero", "kepler", "oscillator", "inverse_cube"))
    if kind == "zero":
        return zero_force(dim)
    if kind == "kepler":
        mu, center = r.finite("mu"), r.floats("center", dim)
        return kepler_force(mu, center, screen_from_json(r.key("reference")) if "reference" in r.value else None)
    if kind == "oscillator":
        return oscillator_force(dim, None if r.value.get("axis") is None else r.integer("axis", low=0, high=dim))
    return inverse_cube_force(dim, r.finite("mu") if "mu" in r.value else 1.0)


# ---------------------------------------------------------------------------
# adaptive Runge-Kutta (Dormand-Prince 5(4)) with constraint projection

# The most steps one run of _dormand_prince takes: accepted, rejected and
# halved on a domain exit, counted together.  No orbit the tests pin takes
# more than about 400, so this only ends a run whose time span asks for far
# more work than any result is read from; the span cannot tell that in advance.
MAX_STEPS = 100_000

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
# The fifth-order weights are the last stage's row of A, with 0 for K[6]: the fifth-order
# solution y5 = y + h * (b5 K) is that stage's input, byte for byte.
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])


def _pairwise_sum(xs):
    """np.add.reduce of the floats xs as one float64 array, bit for bit: numpy
    adds its reduction to 0.0 in pairwise order, left to right below 8 terms,
    on eight accumulators combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) +
    (r6 + r7)) and then the tail up to 128, and above that as the sums of two
    halves split at n / 2 rounded down to a multiple of 8."""
    n = len(xs)
    if n < 8:
        s = 0.0
        for x in xs:
            s += x
        return s
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(xs[:half]) + _pairwise_sum(xs[half:])
    r = xs[:8]
    end = n - n % 8
    for i in range(8, end, 8):
        r = [a + b for a, b in zip(r, xs[i:i + 8])]
    s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for x in xs[end:]:
        s += x
    return 0.0 + s


def _error_norm(y, y5, y4, tol):
    """The root mean square of (y5 - y4) / (tol + tol * max(|y|, |y5|)), a NaN
    in either max propagating, on Python floats: each operation is rounded as
    numpy's, and the squares are summed in np.add.reduce's order."""
    squares = []
    for yi, y5i, y4i in zip(y.tolist(), y5.tolist(), y4.tolist()):
        a, b = abs(yi), abs(y5i)
        e = (y5i - y4i) / (tol + tol * (a if a > b or a != a else b))
        squares.append(e * e)
    return math.sqrt(_pairwise_sum(squares) / len(squares))


def _dormand_prince(rhs, project, y0, t0, t1, tol, stats):
    """Integrate y' = rhs(t, y) from t0 to t1 with the Dormand-Prince 5(4)
    pair, mapping each accepted state back through project(y), which must
    return a new array; raises ValueError unless t0 <= t1 and tol is positive
    and finite.

    rhs(t, y, out) writes the derivative at (t, y) into the row out and raises
    DomainExitError outside the validity domain; a stage that does so halves
    the step.  When the halvings give up, the exit is raised again, given the
    failing stage's time if it came without one.  The error norm is the root
    mean square over the len(y) components of the scaled difference of the
    embedded solutions (_error_norm).  Raises StepUnderflowError when the step
    falls below 1e-14 * max(t1 - t0, 1), and StepBudgetError when MAX_STEPS
    steps end short of t1.
    The derivative rhs writes must depend on the state alone: the pair is
    "first same as last", its fifth-order solution y5 being the last stage's
    input, so when project(y5) leaves y5 unchanged bit for bit, that stage is
    the derivative at the accepted state and rhs is not called again.  On
    return sets the counters ``accepted``,
    ``rejected``, ``domain_retries``, ``last_stage_reused`` and ``min_h`` of
    stats (see TrajectorySample) and returns (times, states, derivatives) as
    lists, one entry per accepted step plus the initial one.
    """
    if not t0 <= t1:
        raise ValueError(f"time span [{t0}, {t1}] needs t0 <= t1")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol = {tol} must be positive and finite")
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
            except DomainExitError as exc:
                # retry with a shorter step; report only if hopeless, at the failing stage's
                # time when the exit came without one (a homogenized force's)
                domain_retries += 1
                t_stage = t + c * h
                h *= 0.5
                if h < h_floor:
                    if exc.t_exit is None:
                        exc.t_exit = t_stage
                    raise
                continue
            y5 = stage_in  # the fifth-order solution: see the note on the weights
            err = _error_norm(y, y5, y + h * _DP_B4.dot(K), tol)
            if not math.isfinite(err):
                # a stage hit a singularity; shrink hard instead of trusting err.  A non-finite
                # y5 or y4 lands here too: inf - finite is inf over an inf scale, NaN stays NaN
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
                # the last stage ran at (t + 1.0 * h, y5), the accepted (t, y) when y is y5
                if y.tobytes() == y5.tobytes():
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


class TrajectorySample:
    """Sampled trajectory on a screen: times plus (q, v) states, the rows of
    one array ``states`` (``qs`` and ``vs`` are views of its halves), with the
    stored derivatives enabling cubic Hermite interpolation between nodes;
    the first ``interpolate`` keeps the times as a list of floats for the
    reads that follow.

    ``stats`` holds what the integrator did (empty for samples built
    otherwise): ``accepted`` and ``rejected`` steps, ``rhs_evals`` (force
    evaluations), ``domain_retries`` (steps halved because a stage left the
    validity domain), ``last_stage_reused`` (accepted steps whose projection
    left the last stage's input unchanged, so that stage's force evaluation
    serves the next step's first stage), ``min_h`` (smallest accepted step
    other than the last, which is cut to land on the end time; inf when there
    is none) and ``max_drift`` (largest |h(q) - 1| or |dh(v)| over the
    samples, recorded as the projection made them).  Every value is a plain
    int or float.

    ``from_csv`` reads back what ``to_csv`` writes: at least one data row,
    every number finite and the times non-decreasing; any other row raises
    FormatError naming its line, and a file without a data row raises it too.
    """

    def __init__(self, screen, times, qs, vs, derivs=None, tol=1e-10, stats=None):
        self.screen = screen
        self.times = np.asarray(times, dtype=float)
        self.states = np.concatenate([np.asarray(qs, dtype=float), np.asarray(vs, dtype=float)], axis=-1)
        self.qs, self.vs = np.split(self.states, 2, axis=-1)
        self.derivs = None if derivs is None else np.asarray(derivs, dtype=float)
        self.tol = tol
        self.stats = {} if stats is None else stats
        self._times = None

    def __len__(self):
        return len(self.times)

    def drift(self):
        """Max |h(q) - 1| and |dh(v)| over all samples."""
        dh = 0.0
        dv = 0.0
        for q, v in zip(self.qs, self.vs):
            geometry = self.screen.local(q)
            if geometry is None:
                raise ValueError("point outside the screen's validity domain")
            h, g, _ = geometry
            dh = max(dh, abs(h - 1.0))
            dv = max(dv, abs(g.dot(v)))
        return dh, dv

    def interpolate(self, t):
        """Cubic Hermite state at time t (requires stored derivatives), as a new
        array: h00 y0 + h10 h d0 + h01 y1 + h11 h d1 on the interval that holds
        t, summed left to right on Python floats component by component."""
        if self.derivs is None:
            raise ValueError("no derivatives stored; cannot interpolate")
        if self._times is None:
            self._times = self.times.tolist()
        ts = self._times
        if not ts[0] <= t <= ts[-1]:
            raise ValueError(f"time {t} outside [{ts[0]}, {ts[-1]}]")
        t = float(t)
        i = min(max(bisect.bisect_right(ts, t) - 1, 0), len(ts) - 2)
        h = ts[i + 1] - ts[i]
        if h == 0.0:
            return self.states[i].copy()
        s = (t - ts[i]) / h
        h00 = 2 * s**3 - 3 * s**2 + 1
        h10 = (s**3 - 2 * s**2 + s) * h
        h01 = -2 * s**3 + 3 * s**2
        h11 = (s**3 - s**2) * h
        (y0, y1), (d0, d1) = self.states[i:i + 2].tolist(), self.derivs[i:i + 2].tolist()
        return np.array([h00 * a + h10 * da + h01 * b + h11 * db for a, da, b, db in zip(y0, d0, y1, d1)])

    # -- CSV ----------------------------------------------------------------

    def to_csv(self) -> str:
        d = self.qs.shape[1]
        buf = io.StringIO()
        meta = self.screen.to_json()
        buf.write(f"# screen={meta['kind']} {dumps(meta)}\n")
        cols = ["t"] + [f"q_{i}" for i in range(d)] + [f"v_{i}" for i in range(d)]
        buf.write(",".join(cols) + "\n")
        row = ",".join(["%.17g"] * (1 + 2 * d)) + "\n"
        for t, y in zip(self.times.tolist(), self.states.tolist()):
            buf.write(row % (t, *y))
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text, screen=None):
        numbered = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
        if len(numbered) < 2 or not numbered[0][1].startswith("# screen="):
            raise FormatError("trajectory csv: missing screen header line")
        header = numbered[1][1].split(",")
        if header[0] != "t" or (len(header) - 1) % 2 != 0:
            raise FormatError("trajectory csv: bad column header")
        if len(numbered) == 2:
            raise FormatError("trajectory csv: no data row")
        d = (len(header) - 1) // 2
        rows = []
        for lineno, ln in numbered[2:]:
            try:
                parts = [float(x) for x in ln.split(",")]
            except ValueError as exc:
                raise FormatError(f"trajectory csv line {lineno}: {exc}") from exc
            if len(parts) != 1 + 2 * d:
                raise FormatError(f"trajectory csv line {lineno}: ragged row")
            rows.append(parts)
        data = np.array(rows, dtype=float).reshape(len(rows), 1 + 2 * d)
        finite = np.isfinite(data).all(axis=1)
        bad = ~finite
        bad[1:] |= data[1:, 0] < data[:-1, 0]
        if bad.any():
            i = int(bad.argmax())
            what = "a number that is not finite" if not finite[i] else "a time before the previous row's"
            raise FormatError(f"trajectory csv line {numbered[2 + i][0]}: {what}")
        if screen is None:
            screen = _screen_from_header(numbered[0][1][len("# screen="):], d)
        if screen.dim != d:
            raise FormatError(f"trajectory csv: {d} coordinate columns for a screen of dimension {screen.dim}")
        return cls(screen, data[:, 0].copy(), data[:, 1:1 + d], data[:, 1 + d:])


def _screen_from_header(header, d):
    """The screen of a '<kind> <screen JSON>' header.  An old header of
    key=value Python reprs is read only as the builtin flat screen or unit sphere."""
    kind, _, meta = header.partition(" ")
    if meta.startswith("{"):
        r = JsonValue.parse(meta, "trajectory csv header")
        r.choice("kind", (kind,))
        return screen_from_json(r)
    for screen in (flat_screen(d), sphere_screen(d)):
        old = screen.to_json()
        if header == f"{old.pop('kind')} " + ";".join(f"{k}={v}" for k, v in sorted(old.items())):
            return screen
    raise FormatError("trajectory csv: an old header is read only for the builtin flat screen or unit sphere")


def integrate(screen, force, q0, v0, t_span, tol=1e-10):
    """Integrate q'' = f(q) + lambda(q, q') q on the screen.

    The initial state is renormalized onto {h = 1, dh(v) = 0}; each accepted
    step is projected back as well, so the constraint drift stays at the
    tolerance scale.  Raises ValueError unless t_span[0] <= t_span[1] and
    tol is positive and finite, DomainExitError when the trajectory leaves
    the screen's validity domain, StepUnderflowError near force singularities
    and ZeroDivisionError when the force is evaluated exactly at one,
    StepBudgetError when MAX_STEPS steps do not reach t_span[1], and
    ValueError when a projected state drifts from the screen by more than
    10 * tol + 1e-14.  The returned
    sample's ``stats`` count the work done (see TrajectorySample).
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    q0 = np.asarray(q0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if not screen.in_domain(q0):
        raise DomainExitError("initial point outside the validity domain", t_span[0])
    if not screen.on_screen(q0, v0, 1e-6):
        raise ValueError("initial state too far from the screen's tangent bundle")
    d = screen.dim
    project_state = screen.project_state
    func, homogenized = (force._func, force.homogenized) if isinstance(force, ProjectiveForceField) else (force, None)
    evals = 0

    if screen.kind == "linear":
        phi, axis = screen.phi, screen.axis
        # a force homogenized over a linear screen of this phi is read from the rhs's own h
        f_H, reference = homogenized or (None, None)
        if reference is not None and (reference.kind != "linear" or reference.phi.tobytes() != phi.tobytes()):
            f_H = None

        def rhs(t, y, out):
            """Write (v, f + lambda q) at state y into the stage row out; h = phi q
            (q[axis] on a coordinate covector) is the dh(q) of the radial
            reaction, and v^T H v is 0."""
            nonlocal evals
            q = y[:d]
            qs = q.tolist()
            h = (qs[axis] if axis is not None else float(phi.dot(q))) if all(map(math.isfinite, qs)) else 0.0
            if not h > 0.0:
                raise DomainExitError("trajectory left the validity domain", t)
            evals += 1
            # with f_H, the expression of homogenize_force's func, at the h that func would compute;
            # x / 1.0 is x, so an exact h = 1 (a flat screen's q[axis] along an orbit) skips it
            if f_H is None:
                fval = _floats(func(q))
            elif h == 1.0:
                fval = _floats(f_H(q))
            else:
                fval = _floats(f_H(q / h)) / h**3
            out[:d] = y[d:]
            # f + lambda q written in place as lambda q + f; the 0.0 is v^T H v, which fixes the
            # sign of a zero lambda
            acc = np.multiply(q, -(0.0 + phi.dot(fval)) / h, out=out[d:])
            acc += fval
    else:
        local = screen.local

        def rhs(t, y, out):
            """Write (v, f + lambda q) at state y into the stage row out."""
            nonlocal evals
            q, v = y[:d], y[d:]
            geometry = local(q, v)
            if geometry is None:
                raise DomainExitError("trajectory left the validity domain", t)
            evals += 1
            fval = _floats(func(q))
            _, g, hvv = geometry
            out[:d] = v
            # f + lambda q with the radial reaction inline, written in place as lambda q + f
            acc = np.multiply(q, -(hvv + g.dot(fval)) / g.dot(q), out=out[d:])
            acc += fval

    def project(y):
        """y renormalized onto the screen; keeps the largest drift of the states it returns."""
        nonlocal drift
        y, y_drift = project_state(y[:d], y[d:])
        drift = max(drift, y_drift)
        return y

    y0, drift = project_state(q0, v0)
    stats = {"rhs_evals": 0, "max_drift": 0.0}
    times, ys, derivs = _dormand_prince(rhs, project, y0, t0, t1, tol, stats)
    if drift > 10 * tol + 1e-14:
        raise ValueError(f"trajectory drift {drift:.3e} exceeds {10 * tol + 1e-14:.3e}")
    stats.update(rhs_evals=evals, max_drift=drift)
    ys = np.array(ys)
    return TrajectorySample(screen, times, ys[:, :d], ys[:, d:], derivs, tol=tol, stats=stats)


# ---------------------------------------------------------------------------
# central projection between screens

def central_project_state(from_screen, to_screen, q, v):
    """Send (q, v) on the source screen to (Q, Q') on the target screen with
    Q = q / k(q) and Q' = k(q) v - dk(v) q, preserving q ^ v exactly."""
    q = _floats(q)
    v = _floats(v)
    geometry = to_screen.local(q)
    if geometry is None or not 0.0 < geometry[0] < math.inf:
        if isinstance(to_screen, QuadraticRootScreen):  # its value has no real root where q^T G q < 0
            s = q.dot(to_screen.gmat).dot(q)
            k = math.copysign(math.sqrt(abs(s)), s)
        else:
            k = to_screen.value(q)
        raise VisibilityError(f"point is not visible on the target screen (k = {k:.3e})")
    k, dk, _ = geometry
    return q / k, k * v - dk.dot(v) * q


def project_visible(traj, to_screen):
    """The states (Q, Q') projected from traj's samples before the first one
    hidden from the target screen, and that one's time (None if there is none)."""
    projected = []
    for t, q, v in zip(traj.times, traj.qs, traj.vs):
        try:
            projected.append(central_project_state(traj.screen, to_screen, q, v))
        except VisibilityError:
            return projected, t
    return projected, None


def bivector_coords(q, v):
    """Upper-triangular coordinates of q ^ v."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    d = len(q)
    return np.array([q[i] * v[j] - q[j] * v[i] for i in range(d) for j in range(i + 1, d)])


class ProjectionReport:
    def __init__(self, max_deviation, tol, compared, total, exit_time=None, target=None):
        self.max_deviation = max_deviation
        self.tol = tol
        self.compared = compared
        self.total = total
        self.exit_time = exit_time
        self.target = target

    @property
    def passed(self):
        return self.compared > 0 and self.max_deviation <= self.tol

    def to_json(self):
        return {
            "passed": bool(self.passed),
            "max_deviation": float(self.max_deviation),
            "tol": float(self.tol),
            "compared_samples": int(self.compared),
            "total_samples": int(self.total),
            "visibility_exit_time": None if self.exit_time is None else float(self.exit_time),
        }


def _distance_to_trajectory(point, traj, dense_ts, dense_qs):
    """Time-free distance from a point to the interpolated position curve.

    dense_qs holds traj's positions at the times dense_ts, a table built once
    per trajectory.  The coarse scan can have several local minima (closed
    orbits pass near themselves), so both ends and every coarse local minimum
    are refined and the best wins.
    """
    n_dense = len(dense_ts)
    d = traj.qs.shape[1]
    dist = np.linalg.norm(dense_qs - point, axis=1)
    inner = dist[1:-1]
    minima = np.flatnonzero((inner <= dist[:-2]) & (inner <= dist[2:])) + 1
    candidates = [0, *minima.tolist(), n_dense - 1]

    def f(t):
        return float(np.linalg.norm(traj.interpolate(t)[:d] - point))

    best = math.inf
    for k in candidates:
        lo = dense_ts[max(k - 1, 0)]
        hi = dense_ts[min(k + 1, n_dense - 1)]
        for _ in range(80):  # ternary search on the bracket
            m1 = lo + (hi - lo) / 3
            m2 = hi - (hi - lo) / 3
            if f(m1) <= f(m2):
                hi = m2
            else:
                lo = m1
        best = min(best, f(0.5 * (lo + hi)))
    return best


def verify_projection(traj, to_screen, force, tol=1e-6):
    """Project every sample to the target screen, re-integrate there from the
    projected initial state, and measure the worst time-free distance from
    projected samples to the re-integrated curve.

    The target time span comes from quadrature of the time-change rate
    b^2 = k(q)^-2 along the source samples, lengthened by 5%.  Visibility
    loss mid-trajectory truncates the comparison and is reported.
    """
    projected, exit_time = project_visible(traj, to_screen)
    total = len(traj.times)
    if not projected:
        return ProjectionReport(math.inf, tol, 0, total, exit_time)
    n_ok = len(projected)
    rates = np.array([to_screen.value(q) ** -2 for q in traj.qs[:n_ok]])
    ts = traj.times[:n_ok]
    span = float((np.diff(ts) * (rates[1:] + rates[:-1]) / 2.0).sum())  # trapezoid rule
    span = span * 1.05 + 1e-12
    Q0, V0 = projected[0]
    target = integrate(to_screen, force, Q0, V0, (0.0, span), tol=min(traj.tol, 1e-11))
    dense_ts = np.linspace(target.times[0], target.times[-1], 2048)  # the coarse scan of every distance
    dense_qs = np.array([target.interpolate(t)[:to_screen.dim] for t in dense_ts])
    worst = 0.0
    for Q, _ in projected:
        worst = max(worst, _distance_to_trajectory(np.asarray(Q), target, dense_ts, dense_qs))
    return ProjectionReport(worst, tol, n_ok, total, exit_time, target=target)


# ---------------------------------------------------------------------------
# scenarios

def scenario_from_json(obj):
    """{"screen": {...}, "force": {...}, "q0": [...], "v0": [...],
    "t_span": [t0, t1], "tol": 1e-10} -> dict of constructed pieces, keyed
    by the parameters of integrate.

    Every number must be finite, with t0 <= t1 and tol > 0."""
    r = JsonValue.of(obj, "scenario")
    dim, build = _read_screen(r.key("screen"))
    q0, v0 = r.floats("q0", dim), r.floats("v0", dim)
    screen = build()
    force = force_from_json(r.key("force"), dim)
    t_span = tuple(r.floats("t_span", 2))
    if t_span[1] < t_span[0]:
        raise r.error("a time span [t0, t1] with t0 <= t1", "t_span")
    tol = r.finite("tol") if "tol" in r.value else 1e-10
    if tol <= 0.0:
        raise r.error("a positive finite number", "tol")
    return {"screen": screen, "force": force, "q0": q0, "v0": v0, "t_span": t_span, "tol": tol}


def builtin_scenario(screen, dim, force, mu, q0, v0, t_span):
    """scenario_from_json of a builtin screen (flat, sphere or hyperboloid)
    of dimension dim under a builtin force; a Kepler center sits at the last
    unit vector, the flat screen's origin.  The center is sized from dim only
    once the screen's JSON has passed its checks."""
    obj = {"screen": {"kind": screen, "dim": dim}, "force": {"kind": force, "mu": mu},
           "q0": q0, "v0": v0, "t_span": t_span}
    n, _ = _read_screen(JsonValue.of(obj, "scenario").key("screen"))
    obj["force"]["center"] = [0.0] * (n - 1) + [1.0]
    return scenario_from_json(obj)
