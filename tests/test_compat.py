"""Pre-Lagrangians, compatibility identities, and the screen finder."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    CustomScreen,
    compatibility_by_polys,
    compatibility_on_tangent_pairs,
    compatibility_repeated_argument,
    same_subspace,
)
from projdyn import screens as sc
from projdyn.compat import (
    LagrangeResidualError,
    SecondOrderSystem,
    compatibility_check,
    energy_integral,
    find_compatible_screen,
    hamiltonian_test,
    lagrange_residuals,
    parallel_transport_check,
    presymplectic_check,
    quadratic_integrals,
    quotient_form,
    screen_find,
    xvar,
    yvar,
)
from projdyn.curvclass import (
    CurvatureForm,
    KernelNotTrivialError,
    curvature_from_symmetric_map,
    flat_form_tensor,
    metric_form_tensor,
)
from projdyn.exactlin import SparseEchelon, Tensor, kernel, mat_inverse
from projdyn.polynomials import Poly
from projdyn.polyintegrals import ScreenIntegral, qvar, vvar


def euclid_metric(d):
    return [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]


# -- energy of a pre-Lagrangian ----------------------------------------------------

def test_oscillator_pre_lagrangians_and_energy():
    for n in (2, 3):
        Z = SecondOrderSystem.oscillator(n)
        for i in range(n):
            for j in range(i, n):
                L = yvar(i, n) * yvar(j, n) - xvar(i, n) * xvar(j, n)
                assert all(r.is_zero() for r in lagrange_residuals(L, Z))
                E = energy_integral(L, Z)
                assert E == yvar(i, n) * yvar(j, n) + xvar(i, n) * xvar(j, n)
                assert Z.time_derivative(E).is_zero()


def test_closed_one_form_gives_zero_energy():
    n = 2
    Z = SecondOrderSystem.oscillator(n)
    # eta = d(x0 x1): closed, so L = <eta, y> is a pre-Lagrangian for anything
    L = xvar(1, n) * yvar(0, n) + xvar(0, n) * yvar(1, n)
    assert energy_integral(L, Z).is_zero()


def test_flat_kinetic_energy():
    n = 2
    Zf = SecondOrderSystem.free(n)
    L = (yvar(0, n) ** 2 + yvar(1, n) ** 2).scale(Fraction(1, 2))
    assert energy_integral(L, Zf) == L


def test_energy_rejects_non_pre_lagrangian():
    n = 2
    Z = SecondOrderSystem.oscillator(n)
    with pytest.raises(LagrangeResidualError):
        energy_integral(xvar(0, n) * yvar(1, n), Z)


# -- presymplectic check --------------------------------------------------------------

def test_presymplectic_free_kinetic():
    n = 2
    ok, U = presymplectic_check(
        (yvar(0, n) ** 2 + yvar(1, n) ** 2).scale(Fraction(1, 2)), SecondOrderSystem.free(n)
    )
    assert ok and U.is_zero()


def test_presymplectic_recovers_oscillator_potential():
    n = 2
    Z = SecondOrderSystem.oscillator(n)
    T = (yvar(0, n) ** 2 + yvar(1, n) ** 2).scale(Fraction(1, 2))
    ok, U = presymplectic_check(T, Z)
    assert ok
    assert U == (xvar(0, n) ** 2 + xvar(1, n) ** 2).scale(Fraction(-1, 2))
    assert all(r.is_zero() for r in lagrange_residuals(T + U, Z))


def test_presymplectic_rejects_velocity_dependent_sigma():
    # x0 * y1 on free motion: sigma_1 = y0, velocity dependent
    n = 2
    ok, U = presymplectic_check(xvar(0, n) * yvar(1, n), SecondOrderSystem.free(n))
    assert not ok and U is None


def test_presymplectic_polynomial_force_with_potential():
    # cubic restoring force: F_i = -x_i^3; T + U with U = -sum x_i^4/4
    n = 2
    Z = SecondOrderSystem(n, [-(xvar(i, n) ** 3) for i in range(n)])
    T = (yvar(0, n) ** 2 + yvar(1, n) ** 2).scale(Fraction(1, 2))
    ok, U = presymplectic_check(T, Z)
    assert ok
    assert U == (xvar(0, n) ** 4 + xvar(1, n) ** 4).scale(Fraction(-1, 4))


# -- compatibility identities ---------------------------------------------------------------

def test_euclid_form_compatible_with_sphere():
    form = CurvatureForm(metric_form_tensor(euclid_metric(3)))
    assert compatibility_check(form, sc.sphere_screen(3))


def test_euclid_form_incompatible_with_flat_and_tilted_quadrics():
    form = CurvatureForm(metric_form_tensor(euclid_metric(3)))
    assert not compatibility_check(form, sc.flat_screen(3))
    assert not compatibility_check(form, sc.QuadraticRootScreen([[2, 0, 0], [0, 1, 0], [0, 0, 1]]))


def test_flat_form_compatible_with_its_hyperplane():
    phi = [Fraction(0), Fraction(0), Fraction(1)]
    g = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    form = CurvatureForm(flat_form_tensor(phi, g, kernel([phi])))
    assert compatibility_check(form, sc.flat_screen(3))
    assert not compatibility_check(form, sc.sphere_screen(3))


def test_compatibility_check_rejects_a_screen_without_an_exact_gradient():
    # the sphere rebuilt as a custom screen has only float callables: no
    # sampled check stands in for the exact identity
    form = CurvatureForm(metric_form_tensor(euclid_metric(3)))
    custom_sphere = CustomScreen(
        3,
        h=lambda q: float(np.linalg.norm(q)),
        grad=lambda q: q / np.linalg.norm(q),
        hess=lambda q: np.eye(3) / np.linalg.norm(q)
        - np.outer(q, q) / np.linalg.norm(q) ** 3,
        domain=lambda q: bool(q @ q > 0),
    )
    with pytest.raises(TypeError):
        compatibility_check(form, custom_sphere)


def test_three_compatibility_formulations_agree():
    phi = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    g = [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(2), Fraction(1)],
        [Fraction(0), Fraction(1), Fraction(-1)],
    ]
    good = CurvatureForm(flat_form_tensor(phi, g, kernel([phi])))
    screen = sc.LinearFormScreen(phi)
    assert compatibility_check(good, screen)
    assert compatibility_on_tangent_pairs(good, phi)
    assert compatibility_repeated_argument(good, phi)
    bad = CurvatureForm(metric_form_tensor(euclid_metric(4)))
    assert not compatibility_check(bad, screen)
    assert not compatibility_on_tangent_pairs(bad, phi)
    assert not compatibility_repeated_argument(bad, phi)


def symmetric_congruence(d, entries, diagonal, signs):
    """M^T diag(signs) M for the invertible M = L U, L unit lower and U upper
    triangular, filled row by row from ``entries`` (U's diagonal from
    ``diagonal``): full rank without a zero sign, corank one with one."""
    it = iter(entries)
    L = [[1 if i == j else (next(it) if j < i else 0) for j in range(d)] for i in range(d)]
    U = [[diagonal[i] if i == j else (next(it) if j > i else 0) for j in range(d)] for i in range(d)]
    M = [[sum(L[i][k] * U[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
    return [[Fraction(sum(M[k][i] * signs[k] * M[k][j] for k in range(d))) for j in range(d)] for i in range(d)]


def perturbed(values, at, by):
    """A copy of a vector, or of a symmetric matrix (both (i, j) and (j, i)),
    with ``by`` added at ``at``."""
    if not isinstance(values[0], (list, tuple)):
        return [x + by if k == at[0] else x for k, x in enumerate(values)]
    i, j = at
    out = [list(row) for row in values]
    out[i][j] += by
    if i != j:
        out[j][i] += by
    return out


@st.composite
def compatibility_cases(draw):
    """(form, screen) for d = 3-6.  The form comes from a random full-rank or
    corank-one symmetric G (the generator's metric or flat case) or is a
    wedge square, the metric form of a random symmetric B; the screen is the
    candidate of the form's case (the hyperplane of ker G, the quadric of
    G^-1 or of B) or a random linear or quadric screen, perturbed in one
    entry or not."""
    d = draw(st.integers(3, 6))
    small = st.integers(-2, 2)
    entries = draw(st.lists(small, min_size=d * (d - 1), max_size=d * (d - 1)))
    diagonal = draw(st.lists(st.sampled_from([1, -1, 2, 3]), min_size=d, max_size=d))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=d, max_size=d))
    kind = draw(st.sampled_from(["metric", "flat", "wedge_square"]))
    if kind == "flat":
        signs[draw(st.integers(0, d - 1))] = 0
    G = symmetric_congruence(d, entries, diagonal, signs)
    if kind == "wedge_square":
        form = CurvatureForm(metric_form_tensor(G))
        linear, quadric = G[0], G
    else:
        form = curvature_from_symmetric_map(G)
        linear, quadric = (kernel(G) or [G[0]])[0], mat_inverse(G) or G
    use_linear = kind == "flat"
    if draw(st.booleans()):
        linear = draw(st.lists(small, min_size=d, max_size=d).filter(any))
        quadric = symmetric_congruence(d, entries[::-1], diagonal, signs)
        use_linear = draw(st.booleans())
    at = (draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1)))
    by = draw(st.sampled_from([0, 0, 1, -1, Fraction(1, 3)]))
    if use_linear:
        return form, sc.LinearFormScreen(perturbed(linear, at, by))
    return form, sc.QuadraticRootScreen(perturbed(quadric, at, by))


@settings(max_examples=60, deadline=None)
@given(compatibility_cases())
def test_integer_compatibility_check_matches_the_poly_oracle(case):
    form, screen = case
    assert compatibility_check(form, screen) == compatibility_by_polys(form, screen)


def test_integer_compatibility_check_sees_both_verdicts_on_generated_forms():
    rng = random.Random(21)
    for d in (3, 4, 5, 6):
        for signs in ([1] * d, [1] * (d - 1) + [0]):
            entries = [rng.randint(-2, 2) for _ in range(d * (d - 1))]
            G = symmetric_congruence(d, entries, [1] * d, signs)
            form = curvature_from_symmetric_map(G)
            if signs[-1]:
                good, bad = sc.QuadraticRootScreen(mat_inverse(G)), sc.QuadraticRootScreen(perturbed(mat_inverse(G), (0, 1), 1))
            else:
                good, bad = sc.LinearFormScreen(kernel(G)[0]), sc.LinearFormScreen(perturbed(kernel(G)[0], (0,), 1))
            for screen, verdict in ((good, True), (bad, False)):
                assert compatibility_check(form, screen) is verdict
                assert compatibility_by_polys(form, screen) is verdict


# -- quotient reduction ------------------------------------------------------------------------

def test_quotient_trivial_kernel_is_identity():
    form = CurvatureForm(metric_form_tensor(euclid_metric(3)))
    ker, inner, complement = quotient_form(form)
    assert ker == [] and complement == [0, 1, 2]
    assert inner.tensor == form.tensor


def test_quotient_degenerate_metric():
    form = CurvatureForm(metric_form_tensor([[1, 0, 0], [0, 1, 0], [0, 0, 0]]))
    ker, inner, complement = quotient_form(form)
    assert same_subspace(ker, [[0, 0, 1]])
    assert complement == [0, 1]
    assert inner.dim == 2
    assert inner.tensor == metric_form_tensor([[1, 0], [0, 1]])
    assert not inner.kernel()


def test_quotient_rejects_zero_form():
    from projdyn.exactlin import Tensor

    with pytest.raises(ValueError):
        quotient_form(CurvatureForm(Tensor(3, 4, {})))


def test_quotient_compatibility_equivalence():
    # compatibility of the reduced pair matches the cylindric pair upstairs
    form = CurvatureForm(metric_form_tensor([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]))
    ker, inner, complement = quotient_form(form)
    # the cylinder over the unit sphere of the first three coordinates
    cyl = sc.QuadraticRootScreen([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])
    assert compatibility_check(form, cyl)
    assert compatibility_check(inner, sc.sphere_screen(3))
    assert not compatibility_check(form, sc.sphere_screen(4))


# -- the screen finder ---------------------------------------------------------------------------

def test_find_screen_metric_case():
    form = CurvatureForm(metric_form_tensor(euclid_metric(3)))
    rep = find_compatible_screen(form)
    assert rep.verdict == "quadric"
    assert rep.witnesses["g"] == euclid_metric(3)
    assert rep.witnesses["lambda"] == 1


def test_find_screen_flat_case():
    phi = [Fraction(0), Fraction(0), Fraction(1)]
    g = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    form = CurvatureForm(flat_form_tensor(phi, g, kernel([phi])))
    rep = find_compatible_screen(form)
    assert rep.verdict == "hyperplane"
    assert rep.witnesses["phi"] == phi
    assert rep.witnesses["g"] == g


def test_find_screen_incompatible_when_images_not_decomposable():
    rng = random.Random(0)
    while True:
        a = metric_form_tensor([[2, 1, 0, 0], [1, 3, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        b = metric_form_tensor([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 2, 0], [1, 0, 0, 1]])
        form = CurvatureForm(a + b)
        if not form.satisfies_decomposability() and not form.kernel():
            break
    rep = find_compatible_screen(form)
    assert rep.verdict == "incompatible"
    assert rep.witnesses["reason"] == "decomposability_failed"


def test_find_screen_requires_trivial_kernel():
    form = CurvatureForm(metric_form_tensor([[1, 0, 0], [0, 1, 0], [0, 0, 0]]))
    with pytest.raises(KernelNotTrivialError):
        find_compatible_screen(form)


# -- the end-to-end hamiltonian test ----------------------------------------------------------------

def kinetic_poly(d, chart):
    out = Poly.zero(2 * d)
    for i in chart:
        out = out + vvar(i, d) * vvar(i, d)
    return out.scale(Fraction(1, 2))


def test_hamiltonian_test_spherical_kinetic():
    rep = hamiltonian_test(ScreenIntegral(sc.sphere_screen(3), kinetic_poly(3, [0, 1, 2])))
    assert rep.verdict == "quadric"
    assert rep.witnesses["g"] == euclid_metric(3)
    assert rep.witnesses["lambda"] == Fraction(1, 2)


def test_hamiltonian_test_flat_kinetic():
    rep = hamiltonian_test(ScreenIntegral(sc.flat_screen(3), kinetic_poly(3, [0, 1])))
    assert rep.verdict == "hyperplane"
    assert rep.witnesses["phi"] == [0, 0, 1]
    assert rep.witnesses["g"] == [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]


def test_hamiltonian_test_oscillator():
    rep = hamiltonian_test(ScreenIntegral(sc.flat_screen(3), vvar(0, 3) * vvar(1, 3)))
    assert rep.verdict == "hyperplane"
    assert rep.witnesses["phi"] == [0, 0, 1]
    assert rep.witnesses["g"] == [[0, Fraction(1, 2)], [Fraction(1, 2), 0]]
    # g is the polarization of g(v) = v0 v1
    assert rep.witnesses["g"][0][1] + rep.witnesses["g"][1][0] == 1


def test_hamiltonian_test_change_of_screen():
    # a spherical-type kinetic term presented on the flat screen lands on the quadric
    x0, x1 = qvar(0, 3), qvar(1, 3)
    w0, w1 = vvar(0, 3), vvar(1, 3)
    T = (x0 * w1 - x1 * w0) ** 2 + w0 ** 2 + w1 ** 2
    rep = hamiltonian_test(ScreenIntegral(sc.flat_screen(3), T))
    assert rep.verdict == "quadric"
    assert rep.witnesses["g"] == euclid_metric(3)


def test_hamiltonian_test_rejects_non_integral():
    T = qvar(0, 3) * vvar(0, 3) * vvar(1, 3)
    rep = hamiltonian_test(ScreenIntegral(sc.flat_screen(3), T))
    assert rep.verdict == "incompatible"
    assert rep.witnesses["reason"] == "leading_term_not_free_integral"


def test_hamiltonian_test_cylindric_reduction():
    rep = hamiltonian_test(ScreenIntegral(sc.flat_screen(4), vvar(0, 4) * vvar(1, 4)))
    assert rep.verdict == "cylindric"
    assert same_subspace(rep.kernel_basis, [[0, 0, 1, 0]])
    assert rep.inner.verdict == "hyperplane"
    assert rep.inner.witnesses["g"] == [[0, Fraction(1, 2)], [Fraction(1, 2), 0]]


def test_screen_find_is_the_kernel_branch_of_hamiltonian_test():
    rep = hamiltonian_test(ScreenIntegral(sc.flat_screen(4), vvar(0, 4) * vvar(1, 4)))
    form = CurvatureForm(metric_form_tensor([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]))
    found = screen_find(form)
    assert found.verdict == "cylindric" and found.inner.verdict == "dim2"
    assert found.log == ["nontrivial kernel of dimension 2: cylindric reduction onto coordinates [0, 1]"]
    assert rep.log[-1] == "nontrivial kernel of dimension 1: cylindric reduction onto coordinates [0, 1, 3]"
    euclid = CurvatureForm(metric_form_tensor([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert screen_find(euclid).to_json() == find_compatible_screen(euclid).to_json()
    with pytest.raises(ValueError):
        screen_find(CurvatureForm(Tensor(3, 4, {})))


def test_hamiltonian_test_incompatible_pbb_element():
    # a generic biquadratic impulsion polynomial fails the decomposability
    # condition in ambient dimension 4
    rng = random.Random(1)
    from projdyn.polyintegrals import impulsion_poly_basis

    while True:
        T = Poly.zero(8)
        for p in impulsion_poly_basis(4, 2):
            T = T + p.scale(Fraction(rng.randint(-3, 3)))
        # restrict to the flat screen q3 = 1, v3 = 0 to get screen-level data
        images = [qvar(i, 4) for i in range(3)] + [Poly.const(8, 1)]
        images += [vvar(i, 4) for i in range(3)] + [Poly.zero(8)]
        T_screen = T.substitute(images)
        rep = hamiltonian_test(ScreenIntegral(sc.flat_screen(4), T_screen))
        if rep.verdict == "incompatible" and rep.witnesses.get("reason") == "decomposability_failed":
            break
        assert rep.verdict in ("quadric", "hyperplane", "cylindric", "incompatible")


def test_report_json_and_screen_materialization():
    rep = hamiltonian_test(ScreenIntegral(sc.sphere_screen(3), kinetic_poly(3, [0, 1, 2])))
    obj = rep.to_json()
    assert obj["verdict"] == "quadric"
    assert obj["witnesses"]["g"][0] == ["1/1", "0/1", "0/1"]
    screen = rep.screen()
    assert screen.kind == "quadratic_root"
    assert abs(screen.value([0.0, 0.0, 1.0]) - 1.0) < 1e-15


def test_kernel_orthogonality_on_cylindric_screens():
    # every kernel vector is annihilated by the cylindric screen differential
    form = CurvatureForm(metric_form_tensor([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]))
    ker, inner, complement = quotient_form(form)
    cyl = sc.QuadraticRootScreen([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])
    rng = np.random.default_rng(7)
    for _ in range(10):
        q = rng.standard_normal(4)
        q[3] = rng.standard_normal()
        q = q / cyl.value(q)
        dh = cyl.gradient(q)
        for k in ker:
            assert abs(dh @ np.array([float(x) for x in k])) < 1e-12


def test_parallel_transport_invariance_on_found_screens():
    # along free motion on the reported screen, the quadratic value of a
    # parallel-transported tangent vector stays constant
    rep = hamiltonian_test(ScreenIntegral(sc.sphere_screen(3), kinetic_poly(3, [0, 1, 2])))
    form_poly = None
    screen = rep.screen()
    from projdyn.curvclass import metric_form_tensor as mft
    from projdyn.curvclass import CurvatureForm as CF

    lam = rep.witnesses["lambda"]
    form = CF(mft(rep.witnesses["g"]).scale(lam))
    drift = parallel_transport_check(
        form, screen,
        q0=[0.0, 0.0, 1.0], v0=[1.0, 0.0, 0.0], w0=[0.3, 0.9, 0.0],
        t_span=(0.0, 3.0),
    )
    assert drift < 1e-9


def test_parallel_transport_drifts_on_a_mismatched_pair():
    # the metric form of diag(2, 1, 1) belongs to an ellipsoid, not to the unit sphere
    from projdyn.curvclass import metric_form_tensor as mft

    drift = parallel_transport_check(
        CurvatureForm(mft([[2, 0, 0], [0, 1, 0], [0, 0, 1]])), sc.sphere_screen(3),
        q0=[0.0, 0.0, 1.0], v0=[1.0, 0.0, 0.0], w0=[0.3, 0.9, 0.0],
        t_span=(0.0, 3.0),
    )
    assert drift > 0.1


@pytest.mark.parametrize("tol", [0.0, math.nan, math.inf, -1e-10])
def test_parallel_transport_refuses_a_tol_that_is_not_positive_and_finite(tol):
    from projdyn.curvclass import metric_form_tensor as mft

    with pytest.raises(ValueError, match=r"^tol = .* must be positive and finite$"):
        parallel_transport_check(
            CurvatureForm(mft([[1, 0, 0], [0, 1, 0], [0, 0, 1]])), sc.sphere_screen(3),
            q0=[0.0, 0.0, 1.0], v0=[1.0, 0.0, 0.0], w0=[0.3, 0.9, 0.0],
            t_span=(0.0, 1.0), tol=tol,
        )


def test_quadratic_integral_symbolic_and_pipeline():
    from projdyn.compat import QuadraticIntegral

    n = 2
    Z = SecondOrderSystem.oscillator(n)
    T = yvar(0, n) * yvar(1, n)
    U = -(xvar(0, n) * xvar(1, n))
    qi = QuadraticIntegral(sc.flat_screen(3), T, U, system=Z)
    assert Z.time_derivative(qi.G).is_zero()
    rep = qi.hamiltonian_test()
    assert rep.verdict == "hyperplane"
    assert rep.witnesses["g"] == [[0, Fraction(1, 2)], [Fraction(1, 2), 0]]


def test_quadratic_integral_rejects_fake():
    from projdyn.compat import QuadraticIntegral

    n = 2
    Z = SecondOrderSystem.oscillator(n)
    with pytest.raises(ValueError):
        QuadraticIntegral(sc.flat_screen(3), yvar(0, n) * yvar(1, n), Poly.zero(4), system=Z)


def test_quadratic_integral_rejects_a_force_field_without_a_chart_system():
    from projdyn.compat import QuadraticIntegral

    flat = sc.flat_screen(3)
    T = (vvar(0, 3) ** 2 + vvar(1, 3) ** 2).scale(Fraction(1, 2))
    with pytest.raises(TypeError):
        QuadraticIntegral(flat, T, Poly.zero(6), sc.zero_force(3))


@pytest.mark.parametrize("screen", [sc.sphere_screen(3), sc.LinearFormScreen([1, 1, 1]),
                                    sc.LinearFormScreen([0, Fraction(1, 10 ** 400), 1])])
def test_quadratic_integral_rejects_a_screen_that_is_not_a_coordinate_chart(screen):
    from projdyn.compat import QuadraticIntegral

    n = 2
    T = (yvar(0, n) ** 2 + yvar(1, n) ** 2).scale(Fraction(1, 2))
    with pytest.raises(TypeError):
        QuadraticIntegral(screen, T, Poly.zero(2 * n), SecondOrderSystem.free(n))


def test_quadratic_integral_reads_the_chart_axis_from_its_screen():
    from projdyn.compat import QuadraticIntegral

    n = 2
    qi = QuadraticIntegral(sc.flat_screen(3, axis=0), yvar(0, n) * yvar(1, n), Poly.zero(4), SecondOrderSystem.free(n))
    assert qi.leading_term().expr == vvar(1, 3) * vvar(2, 3)


# -- the quadratic integrals finder ---------------------------------------------------

def leading_rank(integrals):
    echelon = SparseEchelon()
    for integral in integrals:
        echelon.insert(integral.T.terms)
    return echelon.rank


def linear_system(M):
    """q'' = M q as a chart system."""
    n = len(M)
    return SecondOrderSystem(n, [sum((xvar(j, n).scale(M[i][j]) for j in range(n)), Poly.zero(2 * n))
                                 for i in range(n)])


def test_quadratic_integrals_are_verified_integrals_of_the_system():
    Z = linear_system([[-1, 0], [0, -4]])
    integrals = quadratic_integrals(Z)
    assert (len(integrals), leading_rank(integrals)) == (4, 3)
    for integral in integrals:
        assert integral.system is Z and integral.screen.axis == 2
        assert Z.time_derivative(integral.G).is_zero()


@pytest.mark.parametrize("epsilon, counts", [(1, (3, 2)), (6, (3, 2)), (16, (2, 1)), (2, (2, 1))])
def test_quadratic_integrals_find_the_separable_henon_heiles_cases(epsilon, counts):
    """V = (x^2 + y^2)/2 + x^2 y + epsilon y^3/3 has a second quadratic
    integral exactly when it separates: epsilon = 1 (in x + y, x - y) and
    epsilon = 6 (in parabolic coordinates).  epsilon = 16 is integrable only
    by a quartic integral."""
    n = 2
    x, y = xvar(0, n), xvar(1, n)
    integrals = quadratic_integrals(SecondOrderSystem(n, [-(x + 2 * x * y), -(y + x * x + epsilon * y * y)]))
    assert (len(integrals), leading_rank(integrals)) == counts


@pytest.mark.parametrize("system", [
    SecondOrderSystem.free(3),
    SecondOrderSystem(2, [Poly.const(4, 1), Poly.zero(4)]),
    SecondOrderSystem.oscillator(3),
    linear_system([[-1, 0], [0, -4]]),
    SecondOrderSystem(2, [-(xvar(0, 2) + 2 * xvar(0, 2) * xvar(1, 2)),
                          -(xvar(1, 2) + xvar(0, 2) * xvar(0, 2) + 6 * xvar(1, 2) * xvar(1, 2))]),
])
def test_quadratic_integral_potentials_stay_within_the_degree_bound(system):
    """grad U = 2 K f has no part whose potential has degree m + 3, so every
    U has degree at most m + 2 for a force of top degree m (-1 if zero)."""
    m = max(f.degree() for f in system.forces)
    integrals = quadratic_integrals(system)
    assert integrals
    assert all(integral.U.degree() <= m + 2 for integral in integrals)


def test_quadratic_integrals_refuse_a_velocity_dependent_force():
    n = 2
    damped = SecondOrderSystem(n, [-xvar(0, n), -xvar(1, n) - yvar(1, n)])
    with pytest.raises(ValueError):
        quadratic_integrals(damped)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([((1, 2), (4, 3)), ((1, 2, 3), (6, 5))]), st.data())
def test_quadratic_integral_counts_survive_a_linear_change_of_coordinates(case, data):
    """f(x) = A W A^-1 x is W = diag(-omega^2) in the coordinates A^-1 x, so
    it keeps the oscillator's kernel dimension and leading-term rank."""
    omegas, counts = case
    n = len(omegas)
    entry = st.fractions(-3, 3, max_denominator=3)
    A = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    inverse = mat_inverse(A)
    assume(inverse is not None)
    M = [[sum(A[i][k] * -omegas[k] ** 2 * inverse[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    integrals = quadratic_integrals(linear_system(M))
    assert (len(integrals), leading_rank(integrals)) == counts


def test_screen_integral_rejects_a_callable():
    with pytest.raises(TypeError):
        ScreenIntegral(sc.flat_screen(3), lambda x, w: float(w @ w) / 2)


def test_presymplectic_check_rejects_a_callable_integral():
    # the test is exact only: a float callable is refused, as hamiltonian_test refuses one
    with pytest.raises(TypeError):
        presymplectic_check(lambda x, y: 0.5 * float(y @ y), SecondOrderSystem.oscillator(2))


def test_hamiltonian_test_decides_each_fact_once(monkeypatch):
    # on the sphere kinetic term and on a cylindric term: the symmetry class
    # is checked once (when the carrier is built; the cylindric restriction of
    # a member is a member and is not re-checked), decomposability once (one
    # wedge-table expansion, kept on the form), the kernel twice (the
    # cylindric split, then the classification), and shear invariance once
    # (is_impulsion_invariant, called by from_poly)
    from projdyn import compat, curvclass, polyintegrals, young

    check_imAS = young.check_imAS
    calls = {}

    def count(owner, name):
        inner = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    # a Tensor's check (check_imAS) and the carrier's check on its integer
    # table both decide the class through table_in_imAS
    for module in (young, polyintegrals):
        count(module, "table_in_imAS")
    count(curvclass, "_wedge_table")
    count(CurvatureForm, "kernel")
    count(polyintegrals, "is_impulsion_invariant")
    classified = []
    find = compat.find_compatible_screen
    monkeypatch.setattr(compat, "find_compatible_screen", lambda form: classified.append(form) or find(form))
    for screen, term, verdict in [(sc.sphere_screen(3), kinetic_poly(3, [0, 1, 2]), "quadric"),
                                  (sc.flat_screen(4), vvar(0, 4) * vvar(1, 4), "cylindric")]:
        calls.update(table_in_imAS=0, _wedge_table=0, kernel=0, is_impulsion_invariant=0)
        classified.clear()
        rep = hamiltonian_test(ScreenIntegral(screen, term))
        assert rep.verdict == verdict
        assert calls == {"table_in_imAS": 1, "_wedge_table": 1, "kernel": 2, "is_impulsion_invariant": 1}
        # the oracle for the dropped re-check: the classified form is in the class
        [form] = classified
        assert check_imAS(polyintegrals.pair_tableau(2), form.tensor)
