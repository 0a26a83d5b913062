"""Screens, projective force fields, and motion with radial reaction.

A screen is the level set {h = 1} of a positively homogeneous degree-1
function on a semi-conic open set.  Dynamics on a screen follows
q'' = f(q) + lambda q, the radial reaction lambda being recomputed from
(q, q') at every right-hand-side evaluation so the motion stays on the
screen; an adaptive embedded Runge-Kutta pair integrates the system in
double precision with the constraint re-imposed after every accepted step.
The same stepper, _dormand_prince, serves compat.parallel_transport_check.
The right-hand side, the projections and the drift check read h, dh and
v^T H v from one call, Screen.local(q, v), which shares G q among them on a
quadric; their small products use ndarray.dot, the kernel of @ without its
dispatch cost.

The extended central projection maps states between screens while
preserving the impulsion bivector q ^ q'.  All exact algebra lives in the
sibling modules; this module is deliberately floating point and talks to
them only through tolerance-tagged comparisons.

Screens and force fields are immutable and shareable; each integration run
owns its stepper state, so independent runs may proceed concurrently.
"""

from __future__ import annotations

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


class VisibilityError(ValueError):
    """A point is not visible on the target screen (k(q) <= 0)."""


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
            return self.local(q, q) is not None

    def local(self, q, v):
        """(h(q), dh(q), v^T H(q) v) for float arrays q, v, or None outside the
        validity domain; the gradient is read-only.  A subclass overrides
        in_domain, or local itself to share one evaluation of the geometry;
        the values must equal those of value, gradient and hessian."""
        if not self.in_domain(q):
            return None
        return self.value(q), self.gradient(q), v @ self.hessian(q) @ v

    def _local_in_domain(self, q, v):
        geometry = self.local(q, v)
        if geometry is None:
            raise ValueError("point outside the screen's validity domain")
        return geometry

    def hessian_vv(self, q, v) -> float:
        """The second derivative of h at q in direction v, v^T H(q) v."""
        return self._local_in_domain(np.asarray(q, dtype=float), np.asarray(v, dtype=float))[2]

    def project_state(self, q, v):
        """Renormalize a nearby state onto {h = 1, dh(v) = 0}."""
        q = np.asarray(q, dtype=float)
        v = np.asarray(v, dtype=float)
        q = q / self._local_in_domain(q, v)[0]
        _, g, _ = self._local_in_domain(q, v)
        return q, v - g.dot(v) / g.dot(q) * q

    def on_screen(self, q, v, tol) -> bool:
        return abs(self.value(q) - 1.0) <= tol and abs(self.gradient(q) @ v) <= tol


class LinearFormScreen(Screen):
    """h(q) = <phi, q> on the half space phi > 0 (an affine chart)."""

    kind = "linear"

    def __init__(self, phi):
        self.phi_exact = tuple(Fraction(x) if not isinstance(x, float) else Fraction(x).limit_denominator(10**12) for x in phi)
        self.phi = np.array([float(x) for x in phi], dtype=float)
        self.phi.flags.writeable = False
        self.dim = len(self.phi)
        self._hess = np.zeros((self.dim, self.dim))

    def value(self, q):
        return float(self.phi.dot(np.asarray(q, dtype=float)))

    def gradient(self, q):
        return self.phi.copy()

    def hessian(self, q):
        return self._hess

    def local(self, q, v):
        h = float(self.phi.dot(q)) if all(map(math.isfinite, q.tolist())) else 0.0
        return (h, self.phi, 0.0) if h > 0.0 else None

    def to_json(self):
        return {"kind": "linear", "dim": self.dim, "phi": [format_rational(x) for x in self.phi_exact]}


class QuadraticRootScreen(Screen):
    """h(q) = sqrt(q^T G q) on the cone {g > 0}, G symmetric.

    An optional sheet covector restricts the domain to one side (for the
    two-sheeted hyperboloid, where {g > 0} is disconnected).
    """

    kind = "quadratic_root"

    def __init__(self, gmat, sheet=None):
        self.gmat_exact = tuple(
            tuple(Fraction(x) if not isinstance(x, float) else Fraction(x).limit_denominator(10**12) for x in row)
            for row in gmat
        )
        self.gmat = np.array([[float(x) for x in row] for row in gmat], dtype=float)
        if not np.array_equal(self.gmat, self.gmat.T):
            raise ValueError("screen quadratic form must be symmetric")
        self.dim = self.gmat.shape[0]
        self.sheet = None if sheet is None else np.array([float(x) for x in sheet], dtype=float)

    def value(self, q):
        q = np.asarray(q, dtype=float)
        return math.sqrt(q @ self.gmat @ q)

    def gradient(self, q):
        q = np.asarray(q, dtype=float)
        return (self.gmat @ q) / self.value(q)

    def hessian(self, q):
        q = np.asarray(q, dtype=float)
        h = self.value(q)
        gq = self.gmat @ q
        return self.gmat / h - np.outer(gq, gq) / h**3

    def local(self, q, v):
        # (q G) q as in value(): for a non-diagonal G, q G and G q can differ in the last bit
        s = q.dot(self.gmat).dot(q) if all(map(math.isfinite, q.tolist())) else 0.0
        if s <= 0.0 or (self.sheet is not None and self.sheet.dot(q) <= 0.0):
            return None
        h = math.sqrt(s)
        gq = self.gmat.dot(q)
        gqv = gq.dot(v)
        # v^T (G/h - Gq (Gq)^T / h^3) v without forming the d x d matrix
        return h, gq / h, v.dot(self.gmat).dot(v) / h - gqv * gqv / h**3

    def to_json(self):
        return {
            "kind": "quadratic_root",
            "dim": self.dim,
            "g": [[format_rational(x) for x in row] for row in self.gmat_exact],
            "sheet": None if self.sheet is None else [float(x) for x in self.sheet],
        }


class CustomScreen(Screen):
    """Screen from callables; homogeneity and the Euler relation are
    spot-checked at use sites rather than assumed."""

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
    v-free) for the exact modules; fields are defined up to a radial term.
    """

    def __init__(self, dim, func, exact=None, name="custom", params=None):
        self.dim = dim
        self._func = func
        self.exact = exact
        self.name = name
        self.params = params or {}

    def __call__(self, q):
        q = q if q.__class__ is np.ndarray and q.dtype == np.float64 else np.asarray(q, dtype=float)
        return np.asarray(self._func(q), dtype=float)

    def check_homogeneity(self, q, tol=1e-8):
        q = np.asarray(q, dtype=float)
        f1 = self(q)
        scale = max(1.0, float(np.max(np.abs(f1))))
        for lam in (0.5, 2.0, 3.0):
            if np.max(np.abs(self(lam * q) - lam**-3 * f1)) > tol * scale * lam**-3:
                return False
        return True

    def to_json(self):
        return {"kind": self.name, **self.params}


def zero_force(dim):
    exact = [Poly.zero(2 * dim) for _ in range(dim)]
    return ProjectiveForceField(dim, lambda q: np.zeros(dim), exact=exact, name="zero")


def homogenize_force(f_H, screen, name="homogenized", exact=None, params=None):
    """Extend a screen-level field to the cone: f(q) = h(q)^-3 f_H(q / h(q)).

    The result has homogeneity degree -3 and restricts to f_H on the screen.
    """

    def func(q):
        h = screen.value(q)
        if h <= 0.0:
            raise DomainExitError("homogenized force evaluated at h(q) <= 0", None)
        return np.asarray(f_H(q / h), dtype=float) / h**3

    return ProjectiveForceField(screen.dim, func, exact=exact, name=name, params=params)


def kepler_force(mu, center, reference_screen=None):
    """Attraction toward a center sitting on a reference screen.

    ``center`` is an ambient point with h(center) = 1 on the reference screen
    (default: the flat screen on the last axis).  The projective field is the
    homogenization of the screen-level inverse-square field.
    """
    center = np.asarray(center, dtype=float)
    dim = len(center)
    screen = reference_screen or flat_screen(dim)

    def f_H(x):
        delta = x - center
        r = math.sqrt(delta.dot(delta))
        if r == 0.0:
            raise ZeroDivisionError(f"kepler force evaluated at its center {center.tolist()}")
        return -mu * delta / r**3

    exact = None
    if screen.kind == "linear":
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
        exact = [
            SqrtElem(Poly.zero(nv), dlt.scale(-mu_r), h * S * S, S)
            for dlt in deltas
        ]
    return homogenize_force(
        f_H, screen, name="kepler", exact=exact,
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
        out = -q / q[axis] ** 4
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

    def func(q):
        r2 = float(q @ q)
        if r2 == 0.0:
            raise ZeroDivisionError("inverse-cube force evaluated at the origin")
        return -mu * q / r2**2

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


def _dormand_prince(rhs, project, y0, t0, t1, tol, max_step, stats):
    """Integrate y' = rhs(t, y) from t0 to t1 with the Dormand-Prince 5(4)
    pair, mapping each accepted state back through project(y); raises
    ValueError unless t0 <= t1.

    rhs(t, y, out) writes the derivative at (t, y) into the row out and raises
    DomainExitError outside the validity domain; a stage that does so halves
    the step.  The error norm is the root mean square over the len(y)
    components of the scaled difference of the embedded solutions.  Raises
    StepUnderflowError when the step falls below 1e-14 * max(t1 - t0, 1).
    The derivative rhs writes must depend on the state alone: the pair is
    "first same as last", so when project(y5) returns the last stage's input
    bit for bit, that stage is the derivative at the accepted state and rhs
    is not called again.  Sets the counters ``accepted``, ``rejected``,
    ``domain_retries``, ``last_stage_reused`` and ``min_h`` of stats (see
    TrajectorySample) and returns (times, states, derivatives) as lists, one
    entry per accepted step plus the initial one.
    """
    if not t0 <= t1:
        raise ValueError(f"time span [{t0}, {t1}] needs t0 <= t1")
    stats.update(accepted=0, rejected=0, domain_retries=0, last_stage_reused=0, min_h=math.inf)
    # K[i] is stage i of the current step; K[0] is the derivative at (t, y)
    n = len(y0)
    K = np.empty((7, n))
    y = y0
    t = t0
    rhs(t, y, K[0])
    # deterministic initial step from the standard scale heuristic
    scale = tol + tol * np.abs(y)
    d0 = math.sqrt(float(np.mean((y / scale) ** 2)))
    d1 = math.sqrt(float(np.mean((K[0] / scale) ** 2)))
    h = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6
    h = min(h, (t1 - t0) * 0.1, max_step)

    times = [t]
    ys = [y]
    derivs = [K[0].copy()]
    h_floor = max(abs(t1 - t0), 1.0) * 1e-14

    # a non-finite stage ends in a rejected step below; numpy need not warn
    with np.errstate(invalid="ignore", over="ignore"):
        while t < t1:
            h = min(h, t1 - t)
            if h < h_floor:
                raise StepUnderflowError(f"step size underflow at t = {t}", t)
            try:
                for i in range(1, 7):
                    stage_in = y + h * _DP_A[i].dot(K[:i])
                    rhs(t + _DP_C[i] * h, stage_in, K[i])
            except DomainExitError:
                # retry with a shorter step; report only if hopeless
                stats["domain_retries"] += 1
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
                stats["rejected"] += 1
                h *= 0.2
                if h < h_floor:
                    raise StepUnderflowError(f"state became non-finite at t = {t}", t)
                continue
            if err <= 1.0:
                stats["accepted"] += 1
                t = t + h
                if t < t1:
                    stats["min_h"] = min(stats["min_h"], h)
                y = project(y5)
                # the last stage ran at (t + 1.0 * h, stage_in), the accepted (t, y) when y is stage_in
                if y.tobytes() == stage_in.tobytes():
                    stats["last_stage_reused"] += 1
                    K[0] = K[6]
                else:
                    rhs(t, y, K[0])
                times.append(t)
                ys.append(y)
                derivs.append(K[0].copy())
            else:
                stats["rejected"] += 1
            factor = 0.9 * err ** -0.2 if err > 0.0 else 5.0
            h = min(h * min(5.0, max(0.2, factor)), max_step)
    return times, ys, derivs


class TrajectorySample:
    """Sampled trajectory on a screen: times plus (q, v) states, the rows of
    one array ``states`` (``qs`` and ``vs`` are views of its halves), with the
    stored derivatives enabling cubic Hermite interpolation between nodes.

    ``stats`` holds what the integrator did (empty for samples built
    otherwise): ``accepted`` and ``rejected`` steps, ``rhs_evals`` (force
    evaluations), ``domain_retries`` (steps halved because a stage left the
    validity domain), ``last_stage_reused`` (accepted steps whose projection
    left the last stage's input unchanged, so that stage's force evaluation
    serves the next step's first stage), ``min_h`` (smallest accepted step
    other than the last, which is cut to land on the end time; inf when there
    is none) and ``max_drift`` (largest |h(q) - 1| or |dh(v)| over the
    samples).
    """

    def __init__(self, screen, times, qs, vs, derivs=None, tol=1e-10, stats=None):
        self.screen = screen
        self.times = np.asarray(times, dtype=float)
        self.states = np.concatenate([np.asarray(qs, dtype=float), np.asarray(vs, dtype=float)], axis=-1)
        self.qs, self.vs = np.split(self.states, 2, axis=-1)
        self.derivs = None if derivs is None else np.asarray(derivs, dtype=float)
        self.tol = tol
        self.stats = {} if stats is None else stats

    def __len__(self):
        return len(self.times)

    def state(self, i):
        return self.qs[i], self.vs[i]

    def drift(self):
        """Max |h(q) - 1| and |dh(v)| over all samples."""
        dh = 0.0
        dv = 0.0
        for q, v in zip(self.qs, self.vs):
            h, g, _ = self.screen._local_in_domain(q, v)
            dh = max(dh, abs(h - 1.0))
            dv = max(dv, abs(g.dot(v)))
        return dh, dv

    def check_on_screen(self, tol):
        """Raise ValueError when the drift exceeds tol; return the drift."""
        drift = max(self.drift())
        if drift > tol:
            raise ValueError(f"trajectory drift {drift:.3e} exceeds {tol:.3e}")
        return drift

    def interpolate(self, t):
        """Cubic Hermite state at time t (requires stored derivatives)."""
        if self.derivs is None:
            raise ValueError("no derivatives stored; cannot interpolate")
        ts = self.times
        if not ts[0] <= t <= ts[-1]:
            raise ValueError(f"time {t} outside [{ts[0]}, {ts[-1]}]")
        i = int(np.searchsorted(ts, t, side="right") - 1)
        i = min(max(i, 0), len(ts) - 2)
        h = ts[i + 1] - ts[i]
        if h == 0.0:
            return self.states[i].copy()
        s = (t - ts[i]) / h
        y0, y1 = self.states[i], self.states[i + 1]
        d0, d1 = self.derivs[i], self.derivs[i + 1]
        h00 = 2 * s**3 - 3 * s**2 + 1
        h10 = s**3 - 2 * s**2 + s
        h01 = -2 * s**3 + 3 * s**2
        h11 = s**3 - s**2
        return h00 * y0 + h10 * h * d0 + h01 * y1 + h11 * h * d1

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
        d = (len(header) - 1) // 2
        times, qs, vs = [], [], []
        for lineno, ln in numbered[2:]:
            try:
                parts = [float(x) for x in ln.split(",")]
            except ValueError as exc:
                raise FormatError(f"trajectory csv line {lineno}: {exc}") from exc
            if len(parts) != 1 + 2 * d:
                raise FormatError(f"trajectory csv line {lineno}: ragged row")
            times.append(parts[0])
            qs.append(parts[1:1 + d])
            vs.append(parts[1 + d:])
        if screen is None:
            screen = _screen_from_header(numbered[0][1][len("# screen="):], d)
        if screen.dim != d:
            raise FormatError(f"trajectory csv: {d} coordinate columns for a screen of dimension {screen.dim}")
        return cls(screen, times, qs, vs)


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


def integrate(screen, force, q0, v0, t_span, tol=1e-10, max_step=np.inf):
    """Integrate q'' = f(q) + lambda(q, q') q on the screen.

    The initial state is renormalized onto {h = 1, dh(v) = 0}; each accepted
    step is projected back as well, so the constraint drift stays at the
    tolerance scale.  Raises ValueError unless t_span[0] <= t_span[1],
    DomainExitError when the trajectory leaves the screen's validity domain,
    StepUnderflowError near force singularities and ZeroDivisionError when
    the force is evaluated exactly at one.  The returned sample's
    ``stats`` count the work done (see TrajectorySample).
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    q0 = np.asarray(q0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if not screen.in_domain(q0):
        raise DomainExitError("initial point outside the validity domain", t_span[0])
    if isinstance(screen, CustomScreen):
        screen.validate_at(q0)
    if not screen.on_screen(q0, v0, 1e-6):
        raise ValueError("initial state too far from the screen's tangent bundle")
    q0, v0 = screen.project_state(q0, v0)
    d = screen.dim
    stats = {"rhs_evals": 0, "max_drift": 0.0}

    def rhs(t, y, out):
        """Write (v, f + lambda q) at state y into the stage row out."""
        q, v = y[:d], y[d:]
        geometry = screen.local(q, v)
        if geometry is None:
            raise DomainExitError("trajectory left the validity domain", t)
        stats["rhs_evals"] += 1
        fval = force(q)
        _, g, hvv = geometry
        out[:d] = v
        out[d:] = fval + (-(hvv + g.dot(fval)) / g.dot(q)) * q  # the radial reaction inline

    def project(y):
        return np.concatenate(screen.project_state(y[:d], y[d:]))

    times, ys, derivs = _dormand_prince(rhs, project, np.concatenate([q0, v0]), t0, t1, tol, max_step, stats)
    ys = np.array(ys)
    traj = TrajectorySample(screen, times, ys[:, :d], ys[:, d:], derivs, tol=tol, stats=stats)
    stats["max_drift"] = traj.check_on_screen(10 * tol + 1e-14)
    return traj


# ---------------------------------------------------------------------------
# central projection between screens

def central_project_state(from_screen, to_screen, q, v):
    """Send (q, v) on the source screen to (Q, Q') on the target screen with
    Q = q / k(q) and Q' = k(q) v - dk(v) q, preserving q ^ v exactly."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    geometry = to_screen.local(q, v)
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


def verify_projection(traj, to_screen, force, tol=1e-6, time_margin=0.05):
    """Project every sample to the target screen, re-integrate there from the
    projected initial state, and measure the worst time-free distance from
    projected samples to the re-integrated curve.

    The target time span comes from quadrature of the time-change rate
    b^2 = k(q)^-2 along the source samples.  Visibility loss mid-trajectory
    truncates the comparison and is reported.
    """
    projected, exit_time = project_visible(traj, to_screen)
    total = len(traj.times)
    if not projected:
        return ProjectionReport(math.inf, tol, 0, total, exit_time)
    n_ok = len(projected)
    rates = np.array([to_screen.value(q) ** -2 for q in traj.qs[:n_ok]])
    ts = traj.times[:n_ok]
    span = float((np.diff(ts) * (rates[1:] + rates[:-1]) / 2.0).sum())  # trapezoid rule
    span = span * (1.0 + time_margin) + 1e-12
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
