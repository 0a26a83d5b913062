"""Screen dynamics: radial reaction, integration, central projection."""

import hashlib
import itertools
import math
import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    CustomScreen,
    central_project_reference,
    check_homogeneity,
    dormand_prince_reference,
    hermite_reference,
    hessian_vv,
    inverse_cube_force_general,
    kepler_force_general,
    project_state_reference,
    without_exact_structure,
)
from projdyn import screens as sc
from projdyn.screens import (
    DomainExitError,
    StepBudgetError,
    StepUnderflowError,
    TrajectorySample,
    VisibilityError,
    bivector_coords,
    central_project_state,
    flat_screen,
    hyperboloid_screen,
    integrate,
    kepler_force,
    sphere_screen,
    verify_projection,
    zero_force,
)


def random_sphere_state(rng, dim):
    q = np.array([rng.gauss(0, 1) for _ in range(dim)])
    q /= np.linalg.norm(q)
    v = np.array([rng.gauss(0, 1) for _ in range(dim)])
    v -= (v @ q) * q
    return q, v


# -- screen geometry ---------------------------------------------------------------

def test_screen_values_and_euler_relation():
    rng = random.Random(0)
    for screen in (flat_screen(3), sphere_screen(3), hyperboloid_screen(3)):
        for _ in range(10):
            q = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(1.0, 2.0)])
            if not screen.in_domain(q):
                continue
            h = screen.value(q)
            g = screen.gradient(q)
            assert abs(g @ q - h) < 1e-12 * max(1, abs(h))  # Euler relation
            lam = 1.7
            assert abs(screen.value(lam * q) - lam * h) < 1e-12 * max(1, abs(h))


def test_sphere_hessian_matches_finite_differences():
    rng = random.Random(1)
    screen = sphere_screen(3)
    for _ in range(5):
        q = np.array([rng.uniform(0.3, 1.0) for _ in range(3)])
        H = screen.hessian(q)
        eps = 1e-6
        for i in range(3):
            dq = np.zeros(3)
            dq[i] = eps
            fd = (screen.gradient(q + dq) - screen.gradient(q - dq)) / (2 * eps)
            assert np.max(np.abs(fd - H[:, i])) < 1e-6


# -- force fields ----------------------------------------------------------------------

def test_builtin_forces_homogeneity():
    rng = random.Random(3)
    for force in (
        zero_force(3),
        kepler_force(1.3, [0.2, 0.0, 1.0]),
        sc.oscillator_force(3),
        sc.inverse_cube_force(3, mu=0.7),
    ):
        for _ in range(5):
            q = np.array([rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4), rng.uniform(0.8, 1.5)])
            assert check_homogeneity(force, q)


def test_homogenize_force_restriction():
    # the homogenized field restricts to the original on the screen
    screen = flat_screen(3)
    c = np.array([0.7, 0.0, 0.0])

    def f_H(x):
        return c / np.linalg.norm(x) ** 2

    force = sc.homogenize_force(f_H, screen)
    q_on = np.array([0.4, -0.3, 1.0])
    assert np.allclose(force(q_on), f_H(q_on))
    # constant field on a flat screen scales as h^-3
    force_c = sc.homogenize_force(lambda x: c, screen)
    q = np.array([0.4, -0.3, 2.0])
    assert np.allclose(force_c(q), c / 2.0**3)


def test_kepler_exact_matches_numeric():
    force = kepler_force(1.5, [0.25, -0.5, 1.0])
    rng = random.Random(4)
    for _ in range(10):
        q = np.array([rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4), rng.uniform(0.7, 1.6)])
        numeric = force(q)
        exact = [comp.evaluate_float(list(q) + [0, 0, 0]) for comp in force.exact]
        assert np.max(np.abs(numeric - np.array(exact))) < 1e-12


# -- integration ---------------------------------------------------------------------------

def test_free_motion_flat_is_straight_line():
    screen = flat_screen(3)
    q0, v0 = [0.2, -0.1, 1.0], [0.4, 0.7, 0.0]
    traj = integrate(screen, zero_force(3), q0, v0, (0.0, 3.0), tol=1e-11)
    for t, q in zip(traj.times, traj.qs):
        expected = np.array(q0) + t * np.array(v0)
        assert np.max(np.abs(q - expected)) < 1e-8


def test_free_motion_sphere_is_great_circle():
    screen = sphere_screen(3)
    traj = integrate(screen, zero_force(3), [0, 0, 1.0], [1.0, 0, 0], (0.0, 5.0), tol=1e-11)
    for t, q in zip(traj.times, traj.qs):
        expected = np.array([math.sin(t), 0.0, math.cos(t)])
        assert np.max(np.abs(q - expected)) < 1e-8


def test_constraint_drift_bounded():
    rng = random.Random(5)
    screen = sphere_screen(3)
    for _ in range(3):
        q0, v0 = random_sphere_state(rng, 3)
        traj = integrate(screen, zero_force(3), q0, v0, (0.0, 4.0), tol=1e-10)
        dh, dv = traj.drift()
        assert dh <= 1e-9 and dv <= 1e-9


def test_free_motion_impulsion_constant():
    rng = random.Random(6)
    screen = sphere_screen(3)
    q0, v0 = random_sphere_state(rng, 3)
    traj = integrate(screen, zero_force(3), q0, v0, (0.0, 4.0), tol=1e-11)
    ref = bivector_coords(traj.qs[0], traj.vs[0])
    for q, v in zip(traj.qs, traj.vs):
        assert np.max(np.abs(bivector_coords(q, v) - ref)) < 1e-9


def kepler_period(mu, q0, v0, center):
    r = np.linalg.norm(np.array(q0[:2]) - np.array(center[:2]))
    energy = 0.5 * float(np.array(v0) @ np.array(v0)) - mu / r
    a = -mu / (2 * energy)
    return 2 * math.pi * math.sqrt(a**3 / mu)


def test_kepler_flat_conservation_over_ten_periods():
    mu = 1.0
    center = [0.0, 0.0, 1.0]
    q0 = [1.0, 0.0, 1.0]
    v0 = [0.0, 0.8, 0.0]
    period = kepler_period(mu, q0, v0, center)
    screen = flat_screen(3)
    force = kepler_force(mu, center)
    traj = integrate(screen, force, q0, v0, (0.0, 10 * period), tol=1e-12)

    def energy(q, v):
        return 0.5 * float(v[:2] @ v[:2]) - mu / np.linalg.norm(q[:2] - np.array(center[:2]))

    def ang_mom(q, v):
        return q[0] * v[1] - q[1] * v[0]

    e0, l0 = energy(traj.qs[0], traj.vs[0]), ang_mom(traj.qs[0], traj.vs[0])
    for q, v in zip(traj.qs, traj.vs):
        assert abs(energy(q, v) - e0) <= 1e-8 * abs(e0)
        assert abs(ang_mom(q, v) - l0) <= 1e-8 * abs(l0)
    # closure: after one period the orbit returns to the start
    qT = traj.interpolate(period)[:3]
    assert np.max(np.abs(qT - np.array(q0))) < 1e-6


def test_force_equivalence_modulo_radial():
    # f and f + gamma q generate the same trajectories on the screen
    screen = sphere_screen(3)
    base = sc.inverse_cube_force(3, mu=0.5)

    def shifted(q):
        return base(q) + 0.8 / float(q @ q) ** 2 * q

    shifted_force = sc.ProjectiveForceField(3, shifted)
    rng = random.Random(7)
    q0, v0 = random_sphere_state(rng, 3)
    t1 = integrate(screen, base, q0, v0, (0.0, 2.0), tol=1e-11)
    t2 = integrate(screen, shifted_force, q0, v0, (0.0, 2.0), tol=1e-11)
    for t in np.linspace(0.1, 1.9, 7):
        assert np.max(np.abs(t1.interpolate(t) - t2.interpolate(t))) < 1e-8


def test_domain_exit_reported():
    # flat chart restricted to the semi-conic wedge |q0| < q1: a straight
    # motion crossing the wall leaves the validity domain
    screen = CustomScreen(
        2,
        h=lambda q: q[1],
        grad=lambda q: np.array([0.0, 1.0]),
        hess=lambda q: np.zeros((2, 2)),
        domain=lambda q: q[1] > 0 and abs(q[0]) < q[1],
    )
    screen.validate_at([0.0, 1.0])
    with pytest.raises(DomainExitError) as err:
        integrate(screen, zero_force(2), [0.0, 1.0], [1.0, 0.0], (0.0, 3.0), tol=1e-10)
    assert err.value.t_exit is not None and 0.9 <= err.value.t_exit <= 1.1


# -- central projection ------------------------------------------------------------------------

def test_central_project_common_tangency_point():
    flat, sphere = flat_screen(3), sphere_screen(3)
    Q, V = central_project_state(flat, sphere, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    assert np.allclose(Q, [0, 0, 1]) and np.allclose(V, [1, 0, 0])


def test_central_project_known_point():
    flat, sphere = flat_screen(3), sphere_screen(3)
    Q, V = central_project_state(flat, sphere, [1.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    s = 1 / math.sqrt(2)
    assert np.allclose(Q, [s, 0.0, s])
    assert np.allclose(V, [s, 0.0, -s])
    assert np.allclose(bivector_coords([1, 0, 1], [1, 0, 0]), bivector_coords(Q, V))


def test_central_project_same_screen_identity():
    sphere = sphere_screen(3)
    rng = random.Random(8)
    q, v = random_sphere_state(rng, 3)
    Q, V = central_project_state(sphere, sphere, q, v)
    assert np.allclose(Q, q) and np.allclose(V, v)


def test_central_project_preserves_target_constraints_and_impulsion():
    rng = random.Random(9)
    flat, sphere = flat_screen(3), sphere_screen(3)
    for _ in range(20):
        q = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), 1.0])
        v = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), 0.0])
        Q, V = central_project_state(flat, sphere, q, v)
        assert abs(sphere.value(Q) - 1.0) < 1e-14
        assert abs(sphere.gradient(Q) @ V) < 1e-13
        assert np.max(np.abs(bivector_coords(q, v) - bivector_coords(Q, V))) < 1e-12


def test_visibility_error():
    flat = flat_screen(2)
    sphere = sphere_screen(2)
    with pytest.raises(VisibilityError):
        central_project_state(sphere, flat, [0.0, -1.0], [1.0, 0.0])


@pytest.mark.parametrize("target, q, k", [
    (flat_screen(3), [1.0, 0.0, -1.0], "-1.000e+00"),  # behind the chart
    (flat_screen(3), [1.0, 0.0, 0.0], "0.000e+00"),  # on its horizon
    (sphere_screen(3), [0.0, 0.0, 0.0], "0.000e+00"),
    (hyperboloid_screen(3), [0.0, 0.0, -1.0], "1.000e+00"),  # the other sheet
    (flat_screen(3), [math.nan, 0.0, 1.0], "nan"),
    (sphere_screen(3), [0.0, math.nan, 1.0], "nan"),
], ids=["flat-behind", "flat-horizon", "sphere-origin", "hyperboloid-sheet", "flat-nan", "sphere-nan"])
def test_central_projection_rejects_hidden_and_non_finite_points(target, q, k):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(VisibilityError) as info:
            central_project_state(sphere_screen(3), target, q, [0.0, 1.0, 0.0])
    assert str(info.value) == f"point is not visible on the target screen (k = {k})"


# -- trajectory projection round trips ------------------------------------------------------------

def test_verify_projection_line_to_great_circle():
    flat, sphere = flat_screen(3), sphere_screen(3)
    traj = integrate(flat, zero_force(3), [0.0, 0.0, 1.0], [0.6, 0.3, 0.0], (0.0, 3.0), tol=1e-11)
    report = verify_projection(traj, sphere, zero_force(3), tol=1e-6)
    assert report.passed, report.to_json()


def test_verify_projection_target_span_covers_time_change():
    # q(t) = (0.6t, 0.3t, 1) on the sphere runs for s = arctan(3 sqrt(0.45)) / sqrt(0.45)
    flat, sphere = flat_screen(3), sphere_screen(3)
    traj = integrate(flat, zero_force(3), [0.0, 0.0, 1.0], [0.6, 0.3, 0.0], (0.0, 3.0), tol=1e-11)
    report = verify_projection(traj, sphere, zero_force(3), tol=1e-6)
    exact = math.atan(3.0 * math.sqrt(0.45)) / math.sqrt(0.45)
    assert exact <= report.target.times[-1] <= 1.15 * exact


def test_verify_projection_single_point():
    flat, sphere = flat_screen(3), sphere_screen(3)
    traj = TrajectorySample(flat, [0.0], [[0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]])
    report = verify_projection(traj, sphere, zero_force(3), tol=1e-6)
    assert report.compared == 1


def test_verify_projection_reports_visibility_loss():
    # a line crossing the horizon of the target chart gets truncated
    flat = flat_screen(3)
    tilted = sc.LinearFormScreen([1, 0, 0])
    traj = integrate(flat, zero_force(3), [1.0, 0.0, 1.0], [-0.7, 0.0, 0.0], (0.0, 3.0), tol=1e-10)
    report = verify_projection(traj, tilted, zero_force(3), tol=1e-6)
    assert report.exit_time is not None
    assert report.compared < report.total


# -- serialization ---------------------------------------------------------------------------------

def test_trajectory_csv_round_trip():
    screen = sphere_screen(3)
    traj = integrate(screen, zero_force(3), [0, 0, 1.0], [1.0, 0, 0], (0.0, 1.0), tol=1e-10)
    text = traj.to_csv()
    back = TrajectorySample.from_csv(text, screen=screen)
    assert np.allclose(back.times, traj.times)
    assert np.allclose(back.qs, traj.qs)
    assert np.allclose(back.vs, traj.vs)
    assert text == back.to_csv() if back.derivs is None else True


_NON_DIAGONAL = [[2, Fraction(1, 3), 0], [Fraction(1, 3), 1, 0], [0, 0, 1]]


def _same_screen(a, b):
    """The float coefficients, byte for byte, and the exact structure read from them."""
    if a.kind == "linear":
        return b.kind == "linear" and a.phi.tobytes() == b.phi.tobytes() and a.axis == b.axis
    return b.kind == a.kind and a.gmat.tobytes() == b.gmat.tobytes() and a.identity == b.identity


# a float coefficient is kept at its exact binary value, as a JSON number is read
@pytest.mark.parametrize("screen, q0, v0", [
    (flat_screen(3), [0.0, 0.0, 1.0], [1.0, 0.5, 0.0]),
    (sc.LinearFormScreen([1, 0, Fraction(1, 2)]), [0.5, 0.0, 1.0], [0.0, 1.0, 0.0]),
    (sphere_screen(3), [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]),
    (hyperboloid_screen(3), [0.0, 0.0, 1.0], [0.5, 0.0, 0.0]),
    (sc.QuadraticRootScreen(_NON_DIAGONAL), [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]),
    (sc.LinearFormScreen([0.1 + 0.2, 0.0, 1.0]), [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]),
    (sc.LinearFormScreen([1e-20, 0.0, 1.0]), [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]),
    (sc.QuadraticRootScreen([[1.1, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]),
    (sc.QuadraticRootScreen([[1.0 + 1e-13, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), [0.0, 0.0, 1.0],
     [0.0, 1.0, 0.0]),
], ids=["flat", "linear-phi", "sphere", "hyperboloid", "non-diagonal-quadric",
        "float-phi-0.1+0.2", "float-phi-1e-20", "float-g-1.1", "float-g-1+1e-13"])
def test_trajectory_csv_round_trip_keeps_the_screen(screen, q0, v0):
    assert _same_screen(screen, sc.screen_from_json(screen.to_json()))
    traj = integrate(screen, zero_force(3), q0, v0, (0.0, 0.5), tol=1e-10)
    back = TrajectorySample.from_csv(traj.to_csv())
    assert back.screen.to_json() == screen.to_json()
    assert _same_screen(screen, back.screen)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.states, traj.states)


def test_trajectory_csv_old_header_only_for_builtin_flat_and_sphere():
    rows = "t,q_0,q_1,q_2,v_0,v_1,v_2\n0,0,0,1,1,0,0\n"
    flat = TrajectorySample.from_csv("# screen=linear dim=3;phi=['0/1', '0/1', '1/1']\n" + rows)
    assert flat.screen.to_json() == flat_screen(3).to_json()
    g = "g=[['1/1', '0/1', '0/1'], ['0/1', '1/1', '0/1'], ['0/1', '0/1', '1/1']]"
    sphere = TrajectorySample.from_csv(f"# screen=quadratic_root dim=3;{g};sheet=None\n" + rows)
    assert sphere.screen.to_json() == sphere_screen(3).to_json()
    for header in ("# screen=quadratic_root dim=3;g=[['-1/1', '0/1', '0/1'], ['0/1', '-1/1', '0/1'], "
                   "['0/1', '0/1', '1/1']];sheet=[0.0, 0.0, 1.0]",
                   "# screen=linear dim=3;phi=['1/1', '0/1', '1/2']"):
        with pytest.raises(sc.FormatError, match="old header"):
            TrajectorySample.from_csv(header + "\n" + rows)


def test_projection_onto_hyperboloid_reports_the_visibility_exit():
    # q(t) = (t, 0, 1) has q^T G q = 1 - t^2 < 0 after t = 1, where the hyperboloid's h has no real value
    traj = integrate(flat_screen(3), zero_force(3), [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], (0.0, 2.0), tol=1e-10)
    with pytest.raises(VisibilityError, match=r"k = -1\.732e\+00"):
        central_project_state(flat_screen(3), hyperboloid_screen(3), [2.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    report = verify_projection(traj, hyperboloid_screen(3), zero_force(3), tol=1e-6)
    assert 1.0 <= report.exit_time <= 2.0
    assert 0 < report.compared < report.total
    assert report.passed, report.to_json()


def test_scenario_json():
    obj = {
        "screen": {"kind": "sphere", "dim": 3},
        "force": {"kind": "kepler", "mu": 1.0, "center": [0.0, 0.0, 1.0]},
        "q0": [0.6, 0.0, 0.8],
        "v0": [0.0, 1.0, 0.0],
        "t_span": [0.0, 1.0],
        "tol": 1e-10,
    }
    scn = sc.scenario_from_json(obj)
    assert scn["screen"].kind == "quadratic_root"
    assert scn["force"].name == "kepler"
    traj = integrate(scn["screen"], scn["force"], scn["q0"], scn["v0"], scn["t_span"], scn["tol"])
    assert len(traj) > 2


def test_screen_json_round_trip():
    for screen in (flat_screen(4), sphere_screen(3), hyperboloid_screen(3)):
        back = sc.screen_from_json(screen.to_json())
        assert back.kind == screen.kind
        q = np.array([0.1, 0.2, 1.0, 1.0])[: screen.dim]
        if screen.in_domain(q):
            assert abs(back.value(q) - screen.value(q)) < 1e-14


# -- integrator internals ------------------------------------------------------------------------

def _quartic_screen():
    """h(q) = (q0^4 + q1^4 + q2^4)^(1/4) on q != 0: a non-quadratic custom screen."""

    def h(q):
        return float(np.sum(q**4)) ** 0.25

    def grad(q):
        return q**3 / h(q) ** 3

    def hess(q):
        g = grad(q)
        return np.diag(3 * q**2) / h(q) ** 3 - 3 * np.outer(g, g) / h(q)

    return CustomScreen(3, h, grad, hess, domain=lambda q: bool(np.any(q != 0)))


COORD = st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["flat", "sphere", "hyperboloid", "quartic"]),
       st.lists(COORD, min_size=3, max_size=3), st.lists(COORD, min_size=3, max_size=3))
def test_hessian_vv_matches_hessian(kind, q, v):
    screen = {"flat": flat_screen(3), "sphere": sphere_screen(3), "hyperboloid": hyperboloid_screen(3),
              "quartic": _quartic_screen()}[kind]
    q, v = np.array(q), np.array(v)
    assume(screen.in_domain(q) and screen.value(q) > 0.1)
    if isinstance(screen, CustomScreen):
        screen.validate_at(q)
    hess = screen.hessian(q)
    expected = v @ hess @ v
    # bounds the terms that cancel in either form: H = G/h - grad grad^T / h
    # for a quadratic screen
    size = float(v @ v) * (np.abs(hess).max() + np.abs(screen.gradient(q)).max() ** 2 / screen.value(q))
    assert abs(hessian_vv(screen, q, v) - expected) <= 1e-12 * size


LOCAL_SCREENS = {
    "flat": lambda: flat_screen(3),
    "sphere": lambda: sphere_screen(3),
    "hyperboloid": lambda: hyperboloid_screen(3),
    "non-diagonal": lambda: sc.QuadraticRootScreen([[2, 1, 0], [1, 3, Fraction(1, 2)], [0, Fraction(1, 2), -1]]),
    "quartic": _quartic_screen,
}
COORD_OR_NOT_FINITE = st.one_of(COORD, st.sampled_from([math.inf, -math.inf, math.nan]))


def _in_domain_reference(screen, q):
    """The validity domains written out: finite q with phi q > 0, or with
    q^T G q > 0 on the chosen sheet; a custom screen's own predicate."""
    if isinstance(screen, CustomScreen):
        return screen.in_domain(q)
    if not np.isfinite(q).all():
        return False
    if screen.kind == "linear":
        return screen.phi @ q > 0.0
    return q @ screen.gmat @ q > 0.0 and (screen.sheet is None or screen.sheet @ q > 0.0)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(LOCAL_SCREENS)),
       st.lists(COORD_OR_NOT_FINITE, min_size=3, max_size=3), st.lists(COORD, min_size=3, max_size=3))
@example("sphere", [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])  # q^T G q = 0
@example("hyperboloid", [1.0, 0.0, 0.5], [0.0, 1.0, 0.0])  # q^T G q < 0
@example("hyperboloid", [0.3, 0.0, -1.0], [0.0, 1.0, 0.0])  # the other sheet
@example("non-diagonal", [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])  # q^T G q < 0
@example("flat", [0.5, 0.0, -1.0], [1.0, 0.0, 0.0])  # behind the chart
@example("quartic", [0.0, math.nan, 1.0], [1.0, 0.0, 0.0])
def test_local_matches_the_separate_calls(kind, q, v):
    screen = LOCAL_SCREENS[kind]()
    q, v = np.array(q), np.array(v)
    # h^3 underflows near the origin, where the closed forms then divide 0 by 0
    assume(not np.isfinite(q).all() or not q.any() or np.abs(q).max() > 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        geometry = screen.local(q, v)
    assert (geometry is not None) == screen.in_domain(q) == _in_domain_reference(screen, q)
    if geometry is None:
        return
    if isinstance(screen, CustomScreen):
        screen.validate_at(q)
    h, g, hvv = geometry
    assert h == screen.value(q)
    assert np.array_equal(g, screen.gradient(q))
    h_alone, g_alone, no_hvv = screen.local(q)
    assert no_hvv is None and h_alone == h and g_alone.tobytes() == g.tobytes()
    if h > 0.1:  # the bound of test_hessian_vv_matches_hessian
        hess = screen.hessian(q)
        size = float(v @ v) * (np.abs(hess).max() + np.abs(g).max() ** 2 / h)
        assert abs(hvv - v @ hess @ v) <= 1e-12 * size


def test_kepler_circular_orbit_closes():
    screen = flat_screen(3)
    q0, v0 = np.array([1.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0])
    tol = 1e-11
    traj = integrate(screen, kepler_force(1.0, [0.0, 0.0, 1.0]), q0, v0, (0.0, 2 * math.pi), tol=tol)
    assert traj.times[-1] == 2 * math.pi
    assert np.max(np.abs(traj.qs[-1] - q0)) < 1e-8
    assert np.max(np.abs(traj.vs[-1] - v0)) < 1e-8
    assert traj.stats["max_drift"] <= 10 * tol


def test_integrate_stats_count_the_work():
    calls = [0]
    kepler = kepler_force(1.0, [0.0, 0.0, 1.0])

    def counted(q):
        calls[0] += 1
        return kepler(q)

    # an eccentric orbit at a loose tolerance, so that the controller rejects some steps
    traj = integrate(flat_screen(3), sc.ProjectiveForceField(3, counted), [1.0, 0.0, 1.0], [0.0, 0.4, 0.0],
                     (0.0, 3.0), tol=1e-8)
    stats = traj.stats
    assert stats["domain_retries"] == 0
    assert stats["accepted"] == len(traj) - 1
    assert stats["rejected"] > 0
    assert stats["rhs_evals"] == calls[0]
    # one evaluation at the start, six stages per attempted step, and one at each accepted
    # state whose projection moved the last stage's input (otherwise that stage is reused)
    assert stats["rhs_evals"] == (1 + 6 * (stats["accepted"] + stats["rejected"]) + stats["accepted"]
                                  - stats["last_stage_reused"])
    assert 0 < stats["last_stage_reused"] <= stats["accepted"]
    steps = np.diff(traj.times)
    assert stats["min_h"] == pytest.approx(np.min(steps[:-1]), rel=1e-12)
    assert stats["max_drift"] == max(traj.drift())


@pytest.mark.parametrize("force", ["kepler", "zero"])
@pytest.mark.parametrize("screen, q0", [
    (flat_screen(3), [1.0, 0.0, 1.0]),
    (sphere_screen(3), [0.6, 0.0, 0.8]),
    (hyperboloid_screen(3), [0.75, 0.0, 1.25]),
], ids=["flat", "sphere", "hyperboloid"])
def test_integrate_stats_are_plain_numbers(screen, q0, force):
    f = kepler_force(1.0, [0.0, 0.0, 1.0]) if force == "kepler" else zero_force(3)
    traj = integrate(screen, f, q0, [0.0, 0.5, 0.0], (0.0, 2.0), tol=1e-10)
    assert set(traj.stats) == {"accepted", "rejected", "rhs_evals", "domain_retries", "last_stage_reused", "min_h",
                               "max_drift"}
    for key, value in traj.stats.items():
        assert type(value) is (float if key in ("min_h", "max_drift") else int), key
    assert traj.stats["max_drift"] == max(traj.drift())


def test_integrate_raises_when_the_projection_misses_the_screen():
    # h = |q|^2 is not homogeneous of degree 1, so q / h(q) misses {h = 1}: h(q / h(q)) = 1 / h(q);
    # the start passes the 1e-6 screen check, and its projection drifts by about 5e-7
    screen = CustomScreen(2, h=lambda q: float(q @ q), grad=lambda q: 2 * q, hess=lambda q: 2 * np.eye(2),
                          domain=lambda q: bool(q.any()))
    with pytest.raises(ValueError, match=r"trajectory drift 5\.0\d\de-07 exceeds 1\.000e-09"):
        integrate(screen, zero_force(2), [0.0, 1.0 + 2.5e-7], [1.0, 0.0], (0.0, 1.0), tol=1e-10)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_force_stops_the_integration_without_warnings(bad):
    # also pins the step rejection on a non-finite y5: err is NaN there
    def func(q):
        out = np.zeros(3)
        if q[0] > 0.5:
            out[1] = bad
        return out

    force = sc.ProjectiveForceField(3, func)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepUnderflowError, match="state became non-finite") as info:
            integrate(flat_screen(3), force, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], (0.0, 2.0), tol=1e-10)
    assert 0.49 < info.value.t_fail < 0.5


def test_interpolate_at_nodes_returns_a_fresh_state():
    traj = integrate(sphere_screen(3), zero_force(3), [0, 0, 1.0], [1.0, 0, 0], (0.0, 1.0), tol=1e-10)
    assert np.shares_memory(traj.qs, traj.states) and np.shares_memory(traj.vs, traj.states)
    before = traj.states.copy()
    for i in (0, len(traj) // 2, len(traj) - 1):
        y = traj.interpolate(traj.times[i])
        assert np.array_equal(y, np.concatenate([traj.qs[i], traj.vs[i]]))
        y[:] = 7.0
    assert np.array_equal(traj.states, before)
    single = TrajectorySample(flat_screen(3), [0.0], [[0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]], derivs=[[1.0, 0, 0, 0, 0, 0]])
    single.interpolate(0.0)[:] = 7.0
    assert single.states.tolist() == [[0.0, 0.0, 1.0, 1.0, 0.0, 0.0]]


def test_integrate_time_span_direction():
    screen, force = flat_screen(3), zero_force(3)
    with pytest.raises(ValueError, match="t0 <= t1"):
        integrate(screen, force, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], (1.0, 0.0))
    traj = integrate(screen, force, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], (1.0, 1.0))
    assert len(traj) == 1 and traj.stats["accepted"] == 0 and traj.stats["rhs_evals"] == 1


@pytest.mark.parametrize("tol", [0.0, -0.0, math.nan, math.inf, -1e-10])
def test_integrate_refuses_a_tol_that_is_not_positive_and_finite(tol):
    # refused by name before any force evaluation, not as a step underflow or a drift
    # reported after the whole orbit
    kepler = kepler_force(1.0, [0, 0, 1])
    calls = []

    def force(q):
        calls.append(q)
        return kepler(q)

    with pytest.raises(ValueError, match=r"^tol = .* must be positive and finite$"):
        integrate(flat_screen(3), force, [1, 0, 1], [0, 0.5, 0], (0, 1), tol)
    assert calls == []


# -- the screen layer against its reference expressions, byte for byte -----------------

BYTE_SCREENS = {
    "flat": LOCAL_SCREENS["flat"],
    "linear": lambda: sc.LinearFormScreen([Fraction(1, 3), Fraction(-2, 7), Fraction(5, 4)]),
    "sphere": LOCAL_SCREENS["sphere"],
    "hyperboloid": LOCAL_SCREENS["hyperboloid"],
    "non-diagonal": LOCAL_SCREENS["non-diagonal"],
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(BYTE_SCREENS)), st.lists(COORD_OR_NOT_FINITE, min_size=3, max_size=3),
       st.lists(COORD, min_size=3, max_size=3))
@example("hyperboloid", [0.3, 0.0, -1.0], [0.0, 1.0, 0.0])  # the other sheet
@example("linear", [0.0, 1.0, 0.0], [1.0, 0.0, 0.0])  # behind the chart
@example("flat", [0.3, -0.2, 1.0], [0.5, 0.1, 0.2])  # h = 1 exactly: the first geometry serves
@example("sphere", [0.0, 0.0, 1.0], [0.5, 0.1, 0.2])
def test_projections_match_the_full_geometry_byte_for_byte(kind, q, v):
    screen = BYTE_SCREENS[kind]()
    q, v = np.array(q), np.array(v)
    with np.errstate(all="ignore"):  # q near the origin overflows q / h alike in both
        try:
            expected = project_state_reference(screen, q, v)
        except ValueError:
            with pytest.raises(ValueError, match="outside the screen's validity domain"):
                screen.project_state(q, v)
        else:
            y, drift = screen.project_state(q, v)
            assert y.tobytes() == expected[0].tobytes() and drift.hex() == expected[1].hex()
        try:
            expected = central_project_reference(screen, q, v)
        except VisibilityError:
            with pytest.raises(VisibilityError):
                central_project_state(sphere_screen(3), screen, q, v)
        else:
            Q, V = central_project_state(sphere_screen(3), screen, q, v)
            assert Q.tobytes() == expected[0].tobytes() and V.tobytes() == expected[1].tobytes()


ROW = st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_interpolate_matches_the_numpy_hermite_byte_for_byte(data):
    n = data.draw(st.integers(1, 6))
    steps = data.draw(st.lists(st.just(0.0) | st.floats(1e-9, 2.0), min_size=n - 1, max_size=n - 1))
    times = list(itertools.accumulate(steps, initial=data.draw(st.floats(-5.0, 5.0))))
    states, derivs = data.draw(st.lists(ROW, min_size=n, max_size=n)), data.draw(st.lists(ROW, min_size=n, max_size=n))
    traj = TrajectorySample(flat_screen(3), times, [y[:3] for y in states], [y[3:] for y in states], derivs)
    inside = st.floats(times[0], times[-1]) | st.sampled_from(times)
    for t in data.draw(st.lists(inside | inside.map(np.float64), min_size=1, max_size=8)):
        assert traj.interpolate(t).tobytes() == hermite_reference(traj, t).tobytes()
    for t in (times[0] - 1.0, times[-1] + 1.0, math.nan):
        with pytest.raises(ValueError) as expected:
            hermite_reference(traj, t)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            traj.interpolate(t)


@pytest.mark.parametrize("kind, q", [
    ("flat", [0.3, 0.2, 1.0]),
    ("linear", [0.3, 0.2, 1.0]),
    ("sphere", [0.3, 0.2, 1.0]),
    ("hyperboloid", [0.3, 0.2, 1.0]),
    ("non-diagonal", [1.0, 0.2, 0.3]),
])
def test_interpolate_on_integrated_orbits_matches_the_numpy_hermite_byte_for_byte(kind, q):
    screen = BYTE_SCREENS[kind]()
    y0, _ = screen.project_state(q, [0.1, 0.5, 0.0])
    traj = integrate(screen, sc.inverse_cube_force(3), y0[:3], y0[3:], (0.0, 1.0), tol=1e-9)
    for t in itertools.chain(traj.times, np.linspace(0.0, 1.0, 301).tolist()):
        assert traj.interpolate(t).tobytes() == hermite_reference(traj, t).tobytes()


# The orbits of the benchmark's five screen/force pairs, rotated by one angle about the last axis:
# (screen, force, start point, speed, tolerance, time span) and the SHA-256 of the bytes of times,
# states and derivatives.  No CSV holds the derivatives, so only this pins them.
_ORBIT_PINS = {
    "kepler-flat": ((flat_screen, "kepler", (1.0, 0.0, 1.0), 0.35, 1e-10, 3.0),
        "d48664bf62a2567392286ecdb616b4714e6904ca1fdded84c1db5f7c58454aa1"),
    "kepler-sphere": ((sphere_screen, "kepler", (0.6, 0.0, 1.0), 0.8, 1e-10, 2.0),
        "ac16d6577b24aa2fb698327f161d3091dfb01e3673e829e8c6ab06bc298cd10c"),
    "oscillator-flat": ((flat_screen, "oscillator", (1.0, 0.0, 1.0), 0.7, 1e-10, 6.0),
        "39595ee1397db12b4b7df0c1012e9f1d6ade1f2ac663dbfdd45b5b0e29241730"),
    "inverse-cube-sphere": ((sphere_screen, "inverse_cube", (0.3, 0.0, 1.0), 0.5, 1e-11, 1.5),
        "0bdec49dc8f3e9711d1e889b6a6aef1afe3de8ab3500b5df03f6b248ce1fd0a7"),
    "free-hyperboloid": ((hyperboloid_screen, "zero", (0.3, 0.0, 1.2), 0.5, 1e-10, 6.0),
        "6f1d76883edc7604d2ea3228826022c226e65ee1ae1a74d04a6df1c2c8c3d180"),
}


@pytest.mark.parametrize("name", list(_ORBIT_PINS))
def test_benchmark_orbits_keep_every_bit(name):
    (build, force_kind, start, speed, tol, span), digest = _ORBIT_PINS[name]
    screen = build(3)
    force = {"kepler": kepler_force(1.0, [0.0, 0.0, 1.0]), "oscillator": sc.oscillator_force(3),
             "inverse_cube": sc.inverse_cube_force(3), "zero": zero_force(3)}[force_kind]
    c, s = math.cos(1.0), math.sin(1.0)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    q0 = rot @ np.array(start)
    traj = integrate(screen, force, q0 / screen.value(q0), rot @ np.array([0.0, speed, 0.0]), (0.0, span), tol)
    data = b"".join(np.ascontiguousarray(a).tobytes() for a in (traj.times, traj.states, traj.derivs))
    assert hashlib.sha256(data).hexdigest() == digest


def test_step_budget_ends_the_run_with_the_time_it_reached(monkeypatch):
    args = (flat_screen(3), kepler_force(1.0, [0.0, 0.0, 1.0]), [1.0, 0.0, 1.0], [0.0, 0.4, 0.0], (0.0, 3.0), 1e-8)
    stats = integrate(*args).stats
    steps = stats["accepted"] + stats["rejected"] + stats["domain_retries"]
    assert stats["rejected"] > 0 and 250 * steps < sc.MAX_STEPS
    monkeypatch.setattr(sc, "MAX_STEPS", steps)
    assert integrate(*args).stats == stats
    monkeypatch.setattr(sc, "MAX_STEPS", steps - 1)
    with pytest.raises(StepBudgetError, match=f"^step budget of {steps - 1} steps used up at t = ") as info:
        integrate(*args)
    assert 0.0 < info.value.t_stop < 3.0


def _horizon_run():
    """The eccentric sphere orbit that reaches the flat screen's horizon, where
    the homogenized Kepler force stops it (``integrate --system kepler --screen
    sphere --q0 0.6,0,0.8 --v0 2.4,0,-1.8 --t-span 0,3 --tol 1e-8``)."""
    scn = sc.builtin_scenario("sphere", 3, "kepler", 1.0, [0.6, 0.0, 0.8], [2.4, 0.0, -1.8], [0.0, 3.0])
    return integrate(**{**scn, "tol": 1e-8})


def test_a_homogenized_force_s_domain_exit_carries_the_failing_stage_s_time():
    with pytest.raises(DomainExitError, match=r"^homogenized force evaluated at h\(q\) <= 0$") as info:
        _horizon_run()
    assert 0.0 < info.value.t_exit < 3.0


# -- the stepper against its reference, byte for byte ------------------------------------

_DORMAND_PRINCE = sc._dormand_prince


def _stepper_screen(kind, d):
    """The screens of the stepper comparison in dimension d: flat, a linear form
    of non-unit coefficients, the sphere, the hyperboloid and an indefinite
    quadric coupling each axis to the next."""
    if kind == "flat":
        return flat_screen(d)
    if kind == "linear":
        return sc.LinearFormScreen([Fraction(1, 3), Fraction(-2, 7), *[Fraction(1, 5)] * (d - 3), Fraction(5, 4)])
    if kind == "sphere":
        return sphere_screen(d)
    if kind == "hyperboloid":
        return hyperboloid_screen(d)
    g = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        g[i][i] = Fraction(2 if i == 0 else -1 if i == d - 1 else 3)
    for i in range(d - 1):
        g[i][i + 1] = g[i + 1][i] = Fraction(1) if i == 0 else Fraction(1, 2)
    return sc.QuadraticRootScreen(g)


# a point in each screen's domain, its middle coordinates 0: (first two, last)
_STEPPER_BASE = {"flat": (0.3, 0.1, 1.0), "linear": (0.3, 0.1, 1.0), "sphere": (0.3, 0.1, 1.0),
                 "hyperboloid": (0.3, 0.1, 1.5), "non-diagonal": (1.0, 0.2, 0.3)}


def _stepper_start(kind, d, offset):
    a, b, last = _STEPPER_BASE[kind]
    return np.array([a, b, *[0.0] * (d - 3), last]) + offset[:d]


def _stepper_force(kind, d):
    """A builtin force in dimension d; "kepler-linear" is homogenized over the
    non-unit linear screen, so that screen's rhs evaluates f_H(q / h) / h^3."""
    if kind == "kepler":
        return kepler_force(1.0, [0.0] * (d - 1) + [1.0])
    if kind == "kepler-linear":
        return kepler_force(1.0, [0.0] * (d - 1) + [0.8], reference_screen=_stepper_screen("linear", d))
    return {"oscillator": sc.oscillator_force, "inverse-cube": sc.inverse_cube_force, "zero": zero_force}[kind](d)


def _bits(x):
    """x's floats as bytes or hex strings, for a comparison bit for bit: a
    sample's times, states, derivatives and stats; a tuple part by part."""
    if isinstance(x, TrajectorySample):
        return [_bits(part) for part in (x.times, x.states, x.derivs, x.stats)]
    if isinstance(x, dict):
        return sorted((k, _bits(v)) for k, v in x.items())
    if isinstance(x, tuple):
        return [_bits(part) for part in x]
    if isinstance(x, (list, np.ndarray)):
        return np.array(x, dtype=float).tobytes()
    return x.hex() if isinstance(x, float) else x


def _run_stepper(stepper, call):
    """call() with stepper as screens._dormand_prince: what it returned or
    raised, and the bits of each stepper call's stats and (times, states,
    derivatives)."""
    runs = []

    def recording(rhs, project, y0, t0, t1, tol, stats):
        runs.append(stats)
        runs.append(stepper(rhs, project, y0, t0, t1, tol, stats))
        return runs[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sc, "_dormand_prince", recording)
        try:
            result = call()
        except (ArithmeticError, RuntimeError, ValueError) as exc:
            result = exc
    return result, [_bits(run) for run in runs]


def _assert_same_as_reference(call):
    """call() takes the same steps, bit for bit, on screens._dormand_prince and
    on its reference, and returns or raises the same; gives the library's result."""
    expected, expected_runs = _run_stepper(dormand_prince_reference, call)
    got, runs = _run_stepper(_DORMAND_PRINCE, call)
    assert runs == expected_runs
    if isinstance(expected, Exception):
        assert type(got) is type(expected) and str(got) == str(expected)
        # the library gives a homogenized force's exit the failing stage's time
        assert vars(got) == vars(expected) or (expected.t_exit is None and got.t_exit is not None)
    else:
        assert _bits(got) == _bits(expected)
    return got


_OFFSET = st.lists(st.floats(-0.2, 0.2), min_size=5, max_size=5)
_VELOCITY = st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_STEPPER_BASE)), st.integers(3, 5),
       st.sampled_from(["kepler", "kepler-linear", "oscillator", "inverse-cube", "zero"]),
       _OFFSET, _VELOCITY, st.floats(6.0, 12.0), st.floats(0.0, 1.0))
def test_integrate_steps_match_the_reference_stepper_byte_for_byte(kind, d, force_kind, offset, v, digits, span):
    screen = _stepper_screen(kind, d)
    q = _stepper_start(kind, d, offset)
    assume(screen.in_domain(q))
    y0, _ = screen.project_state(q, v[:d])
    force = _stepper_force(force_kind, d)
    _assert_same_as_reference(lambda: integrate(screen, force, y0[:d], y0[d:], (0.0, span), 10.0 ** -digits))


def test_the_reference_stepper_comparison_meets_rejected_steps_and_domain_exits():
    args = (flat_screen(3), kepler_force(1.0, [0.0, 0.0, 1.0]), [1.0, 0.0, 1.0], [0.0, 0.4, 0.0], (0.0, 3.0), 1e-8)
    stats = _assert_same_as_reference(lambda: integrate(*args)).stats
    assert stats["rejected"] > 0 and stats["last_stage_reused"] > 0
    assert isinstance(_assert_same_as_reference(_horizon_run), DomainExitError)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(_STEPPER_BASE)), st.integers(3, 5), _OFFSET, _VELOCITY, _VELOCITY,
       st.floats(6.0, 12.0))
def test_parallel_transport_steps_match_the_reference_stepper_byte_for_byte(kind, d, offset, v, w, digits):
    # the state holds q, v and w: 3 d >= 9 components, so the error norm sums on eight accumulators
    from projdyn.compat import parallel_transport_check
    from projdyn.curvclass import CurvatureForm, metric_form_tensor

    screen = _stepper_screen(kind, d)
    q = _stepper_start(kind, d, offset)
    assume(screen.in_domain(q))
    y0, _ = screen.project_state(q, v[:d])
    form = CurvatureForm(metric_form_tensor([[2 if i == j == 0 else int(i == j) for j in range(d)] for i in range(d)]))
    _assert_same_as_reference(
        lambda: parallel_transport_check(form, screen, y0[:d], y0[d:], w[:d], (0.0, 1.0), 10.0 ** -digits))


_SUMMANDS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, math.inf, -math.inf, math.nan]


def test_pairwise_sum_matches_numpy_reduce_bit_for_bit():
    """screens._pairwise_sum against np.add.reduce for n = 1 to 300, on finite
    floats of mixed magnitudes, on signed zeros and subnormals alone and with
    infinities and NaNs among them.

    This pins numpy's summation order: the stepper's error norm sums its
    squares on Python floats in that order, so that every accepted step is
    the one numpy's reduce would accept.  A numpy whose reduce sums in
    another order fails here, not silently in the orbits' bits."""
    rng = random.Random(11)
    draws = [
        lambda: rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-30, 30),
        lambda: rng.choice(_SUMMANDS[:6]),
        lambda: rng.choice(_SUMMANDS) if rng.random() < 0.1 else rng.uniform(-1.0, 1.0),
    ]
    with np.errstate(all="ignore"):
        for n in range(1, 301):
            for draw in [*draws, lambda: -0.0]:
                xs = [draw() for _ in range(n)]
                got, expected = sc._pairwise_sum(xs), float(np.add.reduce(np.array(xs)))
                assert got.hex() == expected.hex() or math.isnan(got) and math.isnan(expected), (n, xs)


# -- the paths that read a screen's or a force's exact structure, byte for byte ---------------


def test_the_exact_structure_is_recorded_only_where_it_holds():
    assert flat_screen(3).axis == 2 and flat_screen(4, axis=1).axis == 1
    assert sc.screen_from_json(flat_screen(4, axis=1).to_json()).axis == 1
    # read from the float phi: a coefficient of 1e-20 is not a zero
    for phi in ([0, 2, 0], [1, 1, 0], [0, 0, -1], [0, 0, 0], [1e-20, 0, 1]):
        assert sc.LinearFormScreen(phi).axis is None, phi
    assert sphere_screen(2).identity and sphere_screen(5).identity
    assert not hyperboloid_screen(3).identity
    assert not sc.QuadraticRootScreen([[2, 0], [0, 2]]).identity
    assert not LOCAL_SCREENS["non-diagonal"]().identity


def _rotated_start(start, speed):
    """The start point and velocity of _ORBIT_PINS, rotated by one radian about the last axis."""
    c, s = math.cos(1.0), math.sin(1.0)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return rot @ np.array(start), rot @ np.array([0.0, speed, 0.0])


def _structure_orbit(name):
    """(screen, force, the force by its general mu expression, q0, v0, time span, tolerance)."""
    if name in _ORBIT_PINS:
        (build, force_kind, start, speed, tol, span), _ = _ORBIT_PINS[name]
        forces = {"kepler": (kepler_force(1.0, [0.0, 0.0, 1.0]), kepler_force_general(1.0, [0.0, 0.0, 1.0])),
                  "oscillator": (sc.oscillator_force(3),) * 2,
                  "inverse_cube": (sc.inverse_cube_force(3), inverse_cube_force_general(3)),
                  "zero": (zero_force(3),) * 2}
        screen, (q0, v0) = build(3), _rotated_start(start, speed)
        return (screen, *forces[force_kind], q0 / screen.value(q0), v0, span, tol)
    if name == "oscillator-flat-axis-1":
        return (flat_screen(4, axis=1), sc.oscillator_force(4, axis=1), sc.oscillator_force(4, axis=1),
                [0.3, 1.0, 0.2, -0.4], [0.1, 0.0, 0.5, 0.2], 4.0, 1e-10)
    if name == "kepler-flat-axis-1":
        screen, center = flat_screen(4, axis=1), [0.0, 1.0, 0.0, 0.0]
        return (screen, kepler_force(1.0, center, screen), kepler_force_general(1.0, center, screen),
                [0.8, 1.0, 0.3, 0.1], [0.0, 0.0, 0.8, 0.2], 3.0, 1e-10)
    if name == "kepler-flat-mu-0.5":
        q0, v0 = _rotated_start((1.0, 0.0, 1.0), 0.6)
        return (flat_screen(3), kepler_force(0.5, [0.0, 0.0, 1.0]), kepler_force_general(0.5, [0.0, 0.0, 1.0]),
                q0, v0, 3.0, 1e-10)
    assert name == "inverse-cube-sphere-mu-0.5"
    q0, v0 = _rotated_start((0.3, 0.0, 1.0), 0.4)
    return (sphere_screen(3), sc.inverse_cube_force(3, mu=0.5), inverse_cube_force_general(3, mu=0.5),
            q0 / np.linalg.norm(q0), v0, 1.5, 1e-11)


@pytest.mark.parametrize("name", [*_ORBIT_PINS, "oscillator-flat-axis-1", "kepler-flat-axis-1",
                                  "kepler-flat-mu-0.5", "inverse-cube-sphere-mu-0.5"])
def test_the_exact_structure_keeps_every_bit_of_an_orbit(name):
    """Each orbit as built, and again on a copy of its screen without the
    recorded axis or identity under its force by the general mu expression:
    the same times, states, derivatives, stats and CSV bytes."""
    screen, force, general, q0, v0, span, tol = _structure_orbit(name)
    built = integrate(screen, force, q0, v0, (0.0, span), tol)
    cleared = integrate(without_exact_structure(screen), general, q0, v0, (0.0, span), tol)
    assert len(built) > 10
    assert _bits(built) == _bits(cleared) and built.to_csv() == cleared.to_csv()


def test_the_flat_axis_keeps_every_force_call_of_a_run_whose_stages_overflow():
    """A finite force so large that the stages' sums overflow: a stage's q
    turns infinite off the axis while q[axis] stays finite, which is a domain
    exit on either path.  The force sees the same arguments, bit for bit."""

    def run(screen):
        calls = []

        def func(q):
            calls.append(q.tobytes())
            return np.array([1.7e308 if q[0] > 0.5 else 0.0, 0.0, 0.0])

        try:
            integrate(screen, sc.ProjectiveForceField(3, func), [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], (0.0, 2.0), 1e-10)
        except (DomainExitError, StepUnderflowError) as exc:
            return calls, type(exc), str(exc)
        raise AssertionError("the run should stop")

    built = run(flat_screen(3))
    assert all(np.isfinite(np.frombuffer(q)).all() for q in built[0])
    assert built == run(without_exact_structure(flat_screen(3)))


# signed zeros, subnormals, magnitudes whose squares overflow, and non-finite entries of either sign
_ENTRY = st.one_of(st.floats(-3.0, 3.0), st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e300, -1e300,
     math.inf, -math.inf, math.nan, -math.nan]))


def _outcome(call):
    """What call() returns, as the type and bytes of each part, or its exception's type and message."""
    try:
        with np.errstate(all="ignore"):
            value = call()
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        return type(exc), str(exc)
    parts = value if isinstance(value, tuple) else (value,)
    return [None if x is None else (type(x), np.asarray(x).tobytes()) for x in parts]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["flat", "flat-axis-1", "sphere"]), st.integers(2, 9),
       st.lists(_ENTRY, min_size=9, max_size=9), st.lists(_ENTRY, min_size=9, max_size=9), st.sampled_from([1.0, 0.5]))
@example("sphere", 3, [-0.0, 0.6, -0.0, *[0.0] * 6], [0.5, 0.1, 0.2, *[0.0] * 6], 1.0)  # G q keeps q's -0.0 as +0.0
@example("sphere", 4, [0.6, 0.0, 0.8, *[0.0] * 6], [math.nan, -math.nan, 0.0, 0.5, *[0.0] * 5], 1.0)  # v G v's NaN
@example("flat", 3, [0.0, 0.0, math.inf, *[0.0] * 6], [0.0] * 9, 1.0)  # h = inf: r is a NaN
@example("flat", 3, [0.5, math.nan, 1.0, *[0.0] * 6], [0.0] * 9, 1.0)  # phi q is NaN, q[axis] is not
def test_the_exact_structure_keeps_every_bit_of_the_geometry_and_the_forces(kind, dim, q, v, mu):
    screen = {"flat": flat_screen, "flat-axis-1": lambda d: flat_screen(d, axis=1), "sphere": sphere_screen}[kind](dim)
    general = without_exact_structure(screen)
    q, v = np.array(q[:dim]), np.array(v[:dim])
    for call in (lambda s: s.local(q), lambda s: s.local(q, v), lambda s: central_project_state(s, s, q, v),
                 lambda s: s.project_state(q, v)):
        assert _outcome(lambda: call(screen)) == _outcome(lambda: call(general))
    center = [0.0] * (dim - 1) + [1.0]
    kepler, kepler_ref = kepler_force(mu, center), kepler_force_general(mu, center)
    for built, ref in ((kepler, kepler_ref), (kepler.homogenized[0], kepler_ref.homogenized[0]),
                       (sc.inverse_cube_force(dim, mu), inverse_cube_force_general(dim, mu))):
        assert _outcome(lambda: built(q)) == _outcome(lambda: ref(q))
