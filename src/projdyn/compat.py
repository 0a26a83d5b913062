"""Which quadratic first integrals are the Hamiltonian for some screen?

The decision pipeline: homogenize the quadratic leading term into a
curvature-type form, quotient out its kernel (dropping to a cylindric
screen), and classify what remains; the metric case pins the screen inside
a quadric, the flat case inside a hyperplane, and the verdict carries exact
witnesses whose compatibility identity is re-verified symbolically before
being reported.

The chart-level half implements pre-Lagrangians for second-order systems:
the energy of a pre-Lagrangian, and the presymplectic test deciding exactly,
for a polynomial integral, when its velocity-quadratic part admits a
potential completing it to a pre-Lagrangian.

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
from projdyn.exactlin import Tensor, accumulate, format_rational, kernel, rat, rref
from projdyn.polynomials import NotPolynomialError, Poly
from projdyn.polyintegrals import (
    BiHomogeneousPoly,
    ScreenIntegral,
    homogenize_polynomial,
    to_antisymmetric,
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
    polynomials in the chart variables of the screen's affine chart; the
    conservation of G along the system is decided exactly on construction.
    """

    def __init__(self, screen, T: Poly, U: Poly, system: SecondOrderSystem):
        if not (isinstance(T, Poly) and isinstance(U, Poly) and isinstance(system, SecondOrderSystem)):
            raise TypeError("a quadratic integral needs exact polynomials and a polynomial chart system")
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

    def leading_term(self, axis=None) -> ScreenIntegral:
        """The velocity-quadratic part as screen-level data (ambient
        variables), ready for the screen-finder pipeline."""
        d = self.screen.dim
        return ScreenIntegral(self.screen, chart_extend(self.T, d, d - 1 if axis is None else axis))

    def hamiltonian_test(self, axis=None) -> "ScreenReport":
        return hamiltonian_test(self.leading_term(axis))


# ---------------------------------------------------------------------------
# compatibility of a curvature form with a screen

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


def compatibility_check(form: CurvatureForm, screen) -> bool:
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


# ---------------------------------------------------------------------------
# quotient through the kernel (cylindric reduction)

def quotient_form(form: CurvatureForm):
    """Quotient a curvature form by its kernel.

    Returns (kernel basis, induced form, complement indices): the induced
    form lives on the span of the standard basis vectors listed in the
    complement (a complement of the kernel), is well defined because the
    kernel annihilates every slot, and has trivial kernel by construction.
    """
    if form.tensor.is_zero():
        raise ValueError("the zero form has no quotient reduction")
    ker = form.kernel()
    d = form.dim
    if not ker:
        return [], form, list(range(d))
    _, pivots = rref(ker)
    complement = [j for j in range(d) if j not in set(pivots)]
    m = len(complement)
    entries = {}
    for idx, val in form.tensor.entries.items():
        if all(i in complement for i in idx):
            new_idx = tuple(complement.index(i) for i in idx)
            entries[new_idx] = val
    return ker, CurvatureForm(Tensor(m, 4, entries)), complement


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
    form = CurvatureForm.from_antisymmetric(to_antisymmetric(bh))
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
    component along q, which keeps q ^ w and so R(q, w, q, w).
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
        q, v = screen.project_state(y[:d], y[d:2 * d])
        w = y[2 * d:]
        g = screen.local(q, w)[1]
        return np.concatenate([q, v, w - g.dot(w) / g.dot(q) * q])

    y0 = np.concatenate([np.asarray(x, dtype=float) for x in (q0, v0, w0)])
    _, states, _ = sc._dormand_prince(rhs, project, y0, float(t_span[0]), float(t_span[1]), tol, np.inf, {})
    ref = diag.evaluate_float(y0[:d].tolist() + y0[2 * d:].tolist())
    return max(abs(diag.evaluate_float(y[:d].tolist() + y[2 * d:].tolist()) - ref) for y in states)
