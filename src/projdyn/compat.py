"""Which quadratic first integrals are the Hamiltonian for some screen?

The decision pipeline: homogenize the quadratic leading term into a
curvature-type form, quotient out its kernel (dropping to a cylindric
screen), and classify what remains; the metric case pins the screen inside
a quadric, the flat case inside a hyperplane, and the verdict carries exact
witnesses whose compatibility identity is re-verified before being
reported.  That identity is linear in the form's entries, so it is decided
on the form's integer table (its entries cleared once) and the screen's
gradient data cleared to integers, one coefficient sum per monomial, with
no polynomial products.

The chart-level half implements pre-Lagrangians for second-order systems:
the energy of a pre-Lagrangian, the presymplectic test deciding exactly,
for a polynomial integral, when its velocity-quadratic part admits a
potential completing it to a pre-Lagrangian, and quadratic_integrals, which
finds every first integral of velocity degree at most 2 of q'' = f(q) from
one exact kernel, each a QuadraticIntegral ready for the screen finder.

Every decision here is exact and made once (the screen finder leaves
decomposability and the kernel to classify_curvature_form); input that is
not exact raises TypeError.  The pipeline is pure over immutable inputs.
The one numerical cross-check, parallel_transport_check, runs on the
Dormand-Prince stepper of screens.integrate and owns its state per
invocation.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from projdyn import screens as sc
from projdyn.curvclass import (
    CurvatureForm,
    Eq91ViolationError,
    classify_curvature_form,
    witnesses_to_json,
)
from projdyn.exactlin import accumulate, clear_denominators, format_rational, kernel, rref
from projdyn.polynomials import NotPolynomialError, Poly
from projdyn.polyintegrals import (
    BiHomogeneousPoly,
    ScreenIntegral,
    homogenize_polynomial,
    impulsion_poly_basis,
    v_indices,
)


class LagrangeResidualError(ValueError):
    """The candidate function does not satisfy the Lagrange equations along
    the given second-order system."""


# ---------------------------------------------------------------------------
# chart-level systems: x_i = var i, y_i = var n + i

def xvar(i, n):
    return Poly.variable(i, 2 * n)


def yvar(i, n):
    return Poly.variable(n + i, 2 * n)


class SecondOrderSystem:
    """y_i' = F_i(x, y) with polynomial right-hand sides in an adapted chart."""

    def __init__(self, n, forces):
        self.n = n
        if len(forces) != n:
            raise ValueError("need one force component per degree of freedom")
        self.forces = list(forces)

    @classmethod
    def free(cls, n):
        return cls(n, [Poly.zero(2 * n) for _ in range(n)])

    @classmethod
    def oscillator(cls, n):
        return cls(n, [-xvar(i, n) for i in range(n)])

    def time_derivative(self, f: Poly) -> Poly:
        """d f / dt along the system: sum y_i df/dx_i + sum F_i df/dy_i."""
        n = self.n
        out = Poly.zero(2 * n)
        for i in range(n):
            out = out + f.diff(i) * yvar(i, n)
            dfy = f.diff(n + i)
            if not dfy.is_zero():
                out = out + dfy * self.forces[i]
        return out


def lagrange_residuals(L: Poly, system: SecondOrderSystem):
    """d/dt (dL/dy_i) - dL/dx_i for each i, exactly."""
    n = system.n
    return [system.time_derivative(L.diff(n + i)) - L.diff(i) for i in range(n)]


def energy_integral(L: Poly, system: SecondOrderSystem) -> Poly:
    """E = sum y_i dL/dy_i - L for a pre-Lagrangian L; raises when the
    Lagrange equations fail, and re-verifies dE/dt = 0 before returning."""
    n = system.n
    residuals = lagrange_residuals(L, system)
    if any(not r.is_zero() for r in residuals):
        raise LagrangeResidualError("Lagrange equations fail: not a pre-Lagrangian")
    E = -L
    for i in range(n):
        E = E + yvar(i, n) * L.diff(n + i)
    if not system.time_derivative(E).is_zero():
        raise ArithmeticError("energy of a pre-Lagrangian failed to be conserved")
    return E


def _potential_from_closed_gradient(sigma, n):
    """U with dU/dx_i = sigma_i for a closed velocity-free 1-form, by the
    radial homotopy: a monomial c x^a in sigma_i contributes c x^a x_i/(|a|+1)."""
    terms = {}
    for i, s in enumerate(sigma):
        for exps, coef in s.terms.items():
            new = list(exps)
            new[i] += 1
            accumulate(terms, tuple(new), coef * Fraction(1, sum(exps) + 1))
    return Poly(2 * n, terms)


def presymplectic_check(G, system: SecondOrderSystem):
    """Does the candidate integral give a preserved presymplectic structure?

    sigma_i = d/dt(dG/dy_i) - dG/dx_i must be velocity independent with a
    symmetric Jacobian, decided exactly; when it is, the returned potential U
    satisfies d/dt(dG/dy_i) = d(G + U)/dx_i and L = G + U is a
    pre-Lagrangian.  Returns (verdict, U or None); G must be a Poly.
    """
    if not isinstance(G, Poly):
        raise TypeError("the candidate integral must be an exact polynomial")
    n = system.n
    sigma = [system.time_derivative(G.diff(n + i)) - G.diff(i) for i in range(n)]
    for s in sigma:
        if s.degree_in(list(range(n, 2 * n))) > 0:
            return False, None
    for i in range(n):
        for j in range(i + 1, n):
            if sigma[i].diff(j) != sigma[j].diff(i):
                return False, None
    U = _potential_from_closed_gradient(sigma, n)
    for i in range(n):
        if U.diff(i) != sigma[i]:
            raise ArithmeticError("potential recovery failed on a closed form")
    if any(not r.is_zero() for r in lagrange_residuals(G + U, system)):
        raise ArithmeticError("G + U failed the Lagrange equations")
    return True, U


def chart_extend(poly: Poly, d: int, axis: int) -> Poly:
    """Embed a chart polynomial into the ambient doubled variables."""
    chart = [i for i in range(d) if i != axis]
    n = len(chart)
    images = [Poly.variable(chart[i], 2 * d) for i in range(n)]
    images += [Poly.variable(d + chart[i], 2 * d) for i in range(n)]
    return poly.substitute(images)


class QuadraticIntegral:
    """A quadratic first integral G = T - U of a polynomial chart system.

    T is the velocity-quadratic part and U depends on position only, both
    polynomials in the chart variables of the screen's affine chart q_k = 1
    (a linear screen h = q_k, k its ``axis``); the conservation of G along
    the system is decided exactly on construction.
    """

    def __init__(self, screen, T: Poly, U: Poly, system: SecondOrderSystem):
        if not (isinstance(T, Poly) and isinstance(U, Poly) and isinstance(system, SecondOrderSystem)):
            raise TypeError("a quadratic integral needs exact polynomials and a polynomial chart system")
        axis = getattr(screen, "axis", None)
        if axis is None or screen.phi_exact != sc.flat_screen(screen.dim, axis).phi_exact:
            raise TypeError("a quadratic integral needs a coordinate chart: a linear screen h = q_k")
        self.screen = screen
        self.T = T
        self.U = U
        self.G = T - U
        self.system = system
        n = system.n
        if not T.is_homogeneous_in(list(range(n, 2 * n)), 2):
            raise ValueError("T must be quadratic in the velocities")
        if U.degree_in(list(range(n, 2 * n))) > 0:
            raise ValueError("U must depend on the position only")
        if not system.time_derivative(self.G).is_zero():
            raise ValueError("G = T - U is not a first integral of the chart system")

    def leading_term(self) -> ScreenIntegral:
        """The velocity-quadratic part as screen-level data (ambient
        variables), ready for the screen-finder pipeline."""
        return ScreenIntegral(self.screen, chart_extend(self.T, self.screen.dim, self.screen.axis))

    def hamiltonian_test(self) -> "ScreenReport":
        return hamiltonian_test(self.leading_term())


def quadratic_integrals(system: SecondOrderSystem):
    """Every first integral of velocity degree at most 2 of q'' = f(q), over
    one exact basis: the direct method (Hietarinta, Phys. Rep. 147 (1987) 87).

    The ansatz is G = T + V.  T ranges over the Killing tensors of the chart,
    the quadratic free integrals of R^{n+1} at q_n = 1, v_n = 0, and V over
    the monomials of degree at most m + 3 in x, for a force of top degree m
    (F dT/dy = -y dV/dx bounds V's degree by that).  dG/dt = 0 is linear in
    the coefficients, one equation per monomial of dG/dt, so one kernel
    holds every integral.  Each kernel vector, in the kernel's order,
    becomes a QuadraticIntegral on the flat screen (U = -V), whose
    constructor verifies its conservation exactly.  A force component that
    depends on the velocity raises ValueError.
    """
    n = system.n
    if any(f.degree_in(range(n, 2 * n)) > 0 for f in system.forces):
        raise ValueError("the quadratic ansatz needs a force that depends on the position only")
    one, zero = Poly.const(2 * n, 1), Poly.zero(2 * n)
    chart = [xvar(i, n) for i in range(n)] + [one] + [yvar(i, n) for i in range(n)] + [zero]
    killing = [p.substitute(chart) for p in impulsion_poly_basis(n + 1, 2)]
    top = max(f.degree() for f in system.forces) + 3
    potentials = [Poly.monomial(exps + (0,) * n) for exps in itertools.product(range(top + 1), repeat=n)
                  if sum(exps) <= top]
    columns = killing + potentials
    derivatives = [system.time_derivative(c).terms for c in columns]
    monomials = dict.fromkeys(e for dt in derivatives for e in dt)
    screen, out = sc.flat_screen(n + 1), []
    for vec in kernel([[dt.get(e, 0) for dt in derivatives] for e in monomials], len(columns)):
        T = sum((c.scale(k) for c, k in zip(killing, vec) if k), zero)
        V = sum((c.scale(k) for c, k in zip(potentials, vec[len(killing):]) if k), zero)
        out.append(QuadraticIntegral(screen, T, -V, system))
    return out


# ---------------------------------------------------------------------------
# compatibility of a curvature form with a screen

def _gradient_terms(screen):
    """The screen's exact gradient cleared to integers, as the nonzero terms
    of each coordinate dh_t: [(None, phi_t)] for a linear screen (dh = phi),
    the (j, G_tj) for a quadratic-root screen (dh = G q up to a positive
    factor); None for any other screen."""
    if screen.kind == "linear":
        ints, _ = clear_denominators(screen.phi_exact)
        return [[(None, g)] if g else [] for g in ints]
    if screen.kind == "quadratic_root":
        d = len(screen.gmat_exact)
        ints, _ = clear_denominators([x for row in screen.gmat_exact for x in row])
        return [[(j, g) for j, g in enumerate(ints[r * d:(r + 1) * d]) if g] for r in range(d)]
    return None


def compatibility_check(form: CurvatureForm, screen) -> bool:
    """The wedge of the screen gradient with the form's image 2-forms must
    vanish on the screen.

    The (t1, t2, t3) component of that wedge is the polynomial
    sum_i s_i dh_{t_i} R(q, v; t_j, t_k) over the three splits of the
    3-subset (signs +, -, +), with R(q, v; w, x) = sum R[u, v, w, x] q_u v_v.
    It is linear in the form's entries, so it is decided on integers: the
    entries with w < x from the form's integer table and phi, or G, cleared
    once (the identity is homogeneous in both).  For a linear screen dh =
    phi and the coefficient of q_u v_v is summed; for a quadratic-root
    screen dh = G q and the coefficient of q_j q_u v_v is summed with (j, u)
    unordered.  The identity holds iff every sum is zero.  Any other screen
    has no exact gradient and raises TypeError.
    """
    grad = _gradient_terms(screen)
    if grad is None:
        raise TypeError("exact compatibility needs a linear or quadratic-root screen")
    images = {}  # (w, x) -> [(u, v, int)]
    for (u, v, w, x), c in zip(form.tensor.entries, form.table().vals):
        if w < x:
            images.setdefault((w, x), []).append((u, v, c))
    for t1, t2, t3 in itertools.combinations(range(form.dim), 3):
        sums = {}
        for t, pair, sign in ((t1, (t2, t3), 1), (t2, (t1, t3), -1), (t3, (t1, t2), 1)):
            image = images.get(pair, ())
            for j, g in grad[t]:
                g *= sign
                for u, v, c in image:
                    key = (u, v) if j is None else (j, u, v) if j <= u else (u, j, v)
                    sums[key] = sums.get(key, 0) + g * c
        if any(sums.values()):
            return False
    return True


# ---------------------------------------------------------------------------
# quotient through the kernel (cylindric reduction)

def quotient_form(form: CurvatureForm):
    """Quotient a curvature form by its kernel.

    Returns (kernel basis, induced form, complement indices): the induced
    form lives on the span of the standard basis vectors listed in the
    complement (a complement of the kernel), is well defined because the
    kernel annihilates every slot, and has trivial kernel by construction.
    It is the restriction of the verified form, a CurvatureForm whose class
    is not checked again.
    """
    if form.tensor.is_zero():
        raise ValueError("the zero form has no quotient reduction")
    ker = form.kernel()
    d = form.dim
    if not ker:
        return [], form, list(range(d))
    _, pivots = rref(ker)
    complement = [j for j in range(d) if j not in set(pivots)]
    return ker, form.restrict(complement), complement


# ---------------------------------------------------------------------------
# the screen reports

class ScreenReport:
    """Verdict of the screen finder with exact witnesses and a log of the
    identities verified exactly."""

    def __init__(self, verdict, witnesses=None, log=None, inner=None, kernel_basis=None):
        self.verdict = verdict
        self.witnesses = witnesses or {}
        self.log = list(log or [])
        self.inner = inner
        self.kernel_basis = kernel_basis

    def __repr__(self):
        return f"ScreenReport({self.verdict!r})"

    def to_json(self):
        out = {"verdict": self.verdict, "log": self.log, "witnesses": witnesses_to_json(self.witnesses)}
        if self.kernel_basis is not None:
            out["kernel"] = [[format_rational(x) for x in vec] for vec in self.kernel_basis]
        if self.inner is not None:
            out["inner"] = self.inner.to_json()
        return out

    def screen(self):
        """Materialize the found screen as a screens.Screen object."""
        if self.verdict == "quadric":
            return sc.QuadraticRootScreen(self.witnesses["g"])
        if self.verdict == "hyperplane":
            return sc.LinearFormScreen(self.witnesses["phi"])
        raise ValueError(f"no screen attached to verdict {self.verdict!r}")


def find_compatible_screen(form: CurvatureForm) -> ScreenReport:
    """Decide which screens make a trivial-kernel curvature form the second
    fundamental data of a parallel-transport-invariant quadratic form.

    Metric classification pins the screen inside the quadric of its bilinear
    form (with the scalar lambda normalized from the on-screen value); the
    flat classification pins it inside a hyperplane.  Both verdicts re-verify
    the compatibility identity exactly before being reported.  The
    classification decides decomposability and then the kernel: a form
    violating the decomposability condition is incompatible with every
    screen, and a nontrivial kernel raises KernelNotTrivialError (reduce
    through quotient_form first); dimension 2 carries no structure statement.
    """
    try:
        rep = classify_curvature_form(form)
    except Eq91ViolationError:
        return ScreenReport(
            "incompatible",
            witnesses={"reason": "decomposability_failed"},
            log=["image 2-forms are not all decomposable: no compatible screen exists"],
        )
    if rep.case == "dim2":
        return ScreenReport("dim2", log=["dimension 2: no structure statement"])
    found = rep.witnesses
    if rep.case == "metric":
        verdict, screen = "quadric", sc.QuadraticRootScreen(found["B"])
        witnesses = {"g": found["B"], "lambda": Fraction(found["epsilon"]) * found["scale"]}
    elif rep.case == "flat":
        verdict, screen = "hyperplane", sc.LinearFormScreen(found["phi"])
        witnesses = {"phi": found["phi"], "g": found["g"], "tangent_basis": found["kernel_of_phi"], "lambda": Fraction(1)}
    else:
        raise ArithmeticError(f"unexpected classification case {rep.case!r}")
    if not compatibility_check(form, screen):
        raise ArithmeticError(f"{verdict} screen failed the exact compatibility identity")
    log = [f"classification: {rep.case}", *rep.checks,
           f"compatibility identity re-verified exactly on the {verdict} screen"]
    return ScreenReport(verdict, witnesses, log)


def screen_find(form: CurvatureForm) -> ScreenReport:
    """Screen finder for a nonzero curvature form of any kernel: a
    nontrivial kernel is quotiented out (the cylindric reduction, with the
    verdict on the induced form attached as ``inner``), otherwise the form
    is classified directly."""
    kernel_basis, inner_form, complement = quotient_form(form)
    if not kernel_basis:
        return find_compatible_screen(form)
    return ScreenReport(
        "cylindric",
        witnesses={"complement": complement},
        log=[
            f"nontrivial kernel of dimension {len(kernel_basis)}: cylindric reduction"
            f" onto coordinates {complement}"
        ],
        inner=find_compatible_screen(inner_form),
        kernel_basis=kernel_basis,
    )


def hamiltonian_test(T, screen=None) -> ScreenReport:
    """End-to-end screen finder for a quadratic leading term on a screen.

    Pipeline: homogenize the velocity-quadratic term exactly (failure means
    the input is not the leading term of a first integral of free motion and
    yields an incompatible verdict), polarize, pass to the pair-antisymmetric
    carrier, quotient out the kernel into a cylindric reduction when present,
    and classify what remains.  The report carries the verified witnesses of
    every stage.
    """
    if isinstance(T, ScreenIntegral):
        T, screen = T.expr, T.screen
    if screen is None:
        raise ValueError("pass a ScreenIntegral or (poly, screen)")
    if not isinstance(T, Poly):
        raise TypeError("the quadratic term must be an exact polynomial")
    d = screen.dim
    if not T.is_homogeneous_in(list(v_indices(d)), 2):
        raise ValueError("the leading term must be homogeneous of degree 2 in the velocity")
    try:
        R = homogenize_polynomial(T, screen)
    except NotPolynomialError:
        return ScreenReport(
            "incompatible",
            witnesses={"reason": "leading_term_not_free_integral"},
            log=["homogenization is not polynomial: the term is not a free-motion integral"],
        )
    log = ["homogenized exactly to a biquadratic impulsion polynomial"]
    bh = BiHomogeneousPoly.from_poly(R, d, 2)
    form = CurvatureForm._member(d, 2, bh.antisymmetric().tensor)
    log.append("pair-antisymmetric carrier built; symmetry class verified")
    if form.tensor.is_zero():
        return ScreenReport(
            "incompatible",
            witnesses={"reason": "zero_form"},
            log=log + ["the homogenized term vanishes"],
        )
    report = screen_find(form)
    report.log = log + report.log
    return report


# ---------------------------------------------------------------------------
# numerical cross-checks

def parallel_transport_check(form: CurvatureForm, screen, q0, v0, w0, t_span, tol=1e-10):
    """Integrate free motion and a parallel-transported tangent vector w along
    it; returns the maximal drift of the quadratic value R(q, w, q, w), which
    stays constant on a compatible pair.

    The system is q' = v, v' = lambda_v q and w' = -(v^T H w / dh(q)) q, read
    through Screen.local (v^T H w by polarization), on the Dormand-Prince
    stepper of screens.integrate with the given tolerance.  Each accepted
    state is projected: (q, v) by Screen.project_state, and w loses its dh
    component along q, which keeps q ^ w and so R(q, w, q, w).  Raises
    ValueError unless tol is positive and finite.
    """
    d = screen.dim
    diag = form.diagonal_poly()

    def rhs(t, y, out):
        q, v, w = y[:d], y[d:2 * d], y[2 * d:]
        geometry = screen.local(q, v)
        if geometry is None:
            raise sc.DomainExitError("transport left the validity domain", t)
        _, g, hvv = geometry
        gq = g.dot(q)
        vhw = (screen.local(q, v + w)[2] - screen.local(q, v - w)[2]) / 4
        out[:d] = v
        out[d:2 * d] = (-hvv / gq) * q
        out[2 * d:] = (-vhw / gq) * q

    def project(y):
        qv, _ = screen.project_state(y[:d], y[d:2 * d])
        q, w = qv[:d], y[2 * d:]
        g = screen.local(q)[1]
        return np.concatenate([qv, w - g.dot(w) / g.dot(q) * q])

    y0 = np.concatenate([np.asarray(x, dtype=float) for x in (q0, v0, w0)])
    _, states, _ = sc._dormand_prince(rhs, project, y0, float(t_span[0]), float(t_span[1]), tol, {})
    ref = diag.evaluate_float(y0[:d].tolist() + y0[2 * d:].tolist())
    return max(abs(diag.evaluate_float(y[:d].tolist() + y[2 * d:].tolist()) - ref) for y in states)
