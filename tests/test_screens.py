"""Screen dynamics: radial reaction, integration, central projection."""

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from projdyn import screens as sc
from projdyn.screens import (
    DomainExitError,
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
            assert force.check_homogeneity(q)


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
    screen = sc.CustomScreen(
        2,
        h=lambda q: q[1],
        grad=lambda q: np.array([0.0, 1.0]),
        hess=lambda q: np.zeros((2, 2)),
        domain=lambda q: q[1] > 0 and abs(q[0]) < q[1],
    )
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


@pytest.mark.parametrize("screen, q0, v0", [
    (flat_screen(3), [0.0, 0.0, 1.0], [1.0, 0.5, 0.0]),
    (sc.LinearFormScreen([1, 0, Fraction(1, 2)]), [0.5, 0.0, 1.0], [0.0, 1.0, 0.0]),
    (sphere_screen(3), [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]),
    (hyperboloid_screen(3), [0.0, 0.0, 1.0], [0.5, 0.0, 0.0]),
    (sc.QuadraticRootScreen(_NON_DIAGONAL), [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]),
], ids=["flat", "linear-phi", "sphere", "hyperboloid", "non-diagonal-quadric"])
def test_trajectory_csv_round_trip_keeps_the_screen(screen, q0, v0):
    traj = integrate(screen, zero_force(3), q0, v0, (0.0, 0.5), tol=1e-10)
    back = TrajectorySample.from_csv(traj.to_csv())
    assert back.screen.to_json() == screen.to_json()
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

    return sc.CustomScreen(3, h, grad, hess, domain=lambda q: bool(np.any(q != 0)))


COORD = st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["flat", "sphere", "hyperboloid", "quartic"]),
       st.lists(COORD, min_size=3, max_size=3), st.lists(COORD, min_size=3, max_size=3))
def test_hessian_vv_matches_hessian(kind, q, v):
    screen = {"flat": flat_screen(3), "sphere": sphere_screen(3), "hyperboloid": hyperboloid_screen(3),
              "quartic": _quartic_screen()}[kind]
    q, v = np.array(q), np.array(v)
    assume(screen.in_domain(q) and screen.value(q) > 0.1)
    hess = screen.hessian(q)
    expected = v @ hess @ v
    # bounds the terms that cancel in either form: H = G/h - grad grad^T / h
    # for a quadratic screen
    size = float(v @ v) * (np.abs(hess).max() + np.abs(screen.gradient(q)).max() ** 2 / screen.value(q))
    assert abs(screen.hessian_vv(q, v) - expected) <= 1e-12 * size


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
    if isinstance(screen, sc.CustomScreen):
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
    h, g, hvv = geometry
    assert h == screen.value(q)
    assert np.array_equal(g, screen.gradient(q))
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

