"""Workload ``orbits``: integrate one orbit per request, then read it back.

The read-back projects every stored sample onto a second screen on which
the orbit stays visible, interpolates densely, and round-trips the CSV, so
a change that integrates faster but stores less pays for it here.  The
exact layers are idle once set-up ends.  The seed rotates each orbit about
the last axis (a symmetry of every screen and force used here) and jitters
the speed slightly, which keeps the steps per round nearly constant.
"""

from __future__ import annotations

import math

import numpy as np

from common import Request, check, shuffled

from projdyn import screens

DIM = 3

# (scenario, speed, tolerance, time span); one round runs each once.  With
# 15 requests per round, the median and the 90th percentile fall in the middle
# of one request's samples, not on the gap between two request kinds.
ROUND = [
    ("kepler-flat", 0.35, 1e-10, 3.0),
    ("kepler-flat", 0.50, 1e-11, 3.0),
    ("kepler-flat", 0.65, 1e-12, 3.0),
    ("kepler-flat", 0.80, 1e-10, 3.0),
    ("kepler-flat", 0.95, 1e-11, 3.0),
    ("kepler-flat", 0.45, 1e-12, 3.0),
    ("kepler-sphere", 0.80, 1e-10, 2.0),
    ("kepler-sphere", 0.90, 1e-11, 2.0),
    ("oscillator-flat", 0.70, 1e-10, 6.0),
    ("oscillator-flat", 0.50, 1e-12, 6.0),
    ("oscillator-flat", 0.60, 1e-11, 6.0),
    ("inverse-cube-sphere", 0.50, 1e-11, 1.5),
    ("inverse-cube-sphere", 0.40, 1e-12, 1.5),
    ("free-hyperboloid", 0.50, 1e-10, 6.0),
    ("free-hyperboloid", 0.40, 1e-12, 6.0),
]
TINY_ROUND = [("kepler-flat", 0.8, 1e-10, 0.5)]

DENSE_POINTS = 200


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _p(q, v):
    """Impulsion coordinates p_ij = q_i v_j - q_j v_i, i < j."""
    return np.array([q[0] * v[1] - q[1] * v[0], q[0] * v[2] - q[2] * v[0], q[1] * v[2] - q[2] * v[1]])


def _kepler_energy(q, v):
    # on the flat screen q = (x, 1) with the center at (0, 0, 1)
    return 0.5 * float(v @ v) - 1.0 / math.hypot(q[0], q[1])


def _oscillator_energy(q, v):
    return 0.5 * float(v @ v) + 0.5 * (q[0] ** 2 + q[1] ** 2)


class Workload:
    name = "orbits"

    def __init__(self, tiny=False):
        self.tiny = tiny
        flat, sphere = screens.flat_screen(DIM), screens.sphere_screen(DIM)
        kepler = screens.kepler_force(1.0, [0.0, 0.0, 1.0])
        # scenario -> (screen, force, start point, target screen, conserved quantities)
        self.scenarios = {
            "kepler-flat": (flat, kepler, (1.0, 0.0, 1.0), sphere, ("p01", "kepler_energy")),
            "kepler-sphere": (sphere, kepler, (0.6, 0.0, 1.0), flat, ("p01",)),
            "oscillator-flat": (flat, screens.oscillator_force(DIM), (1.0, 0.0, 1.0), sphere,
                                ("p01", "oscillator_energy")),
            "inverse-cube-sphere": (sphere, screens.inverse_cube_force(DIM), (0.3, 0.0, 1.0), flat, ("p",)),
            "free-hyperboloid": (screens.hyperboloid_screen(DIM), screens.zero_force(DIM), (0.3, 0.0, 1.2),
                                 flat, ("p",)),
        }

    def round(self, rng):
        return shuffled(rng, [self._orbit(rng, *spec) for spec in (TINY_ROUND if self.tiny else ROUND)])

    def _orbit(self, rng, scenario, speed, tol, span):
        screen, force, start, target, conserved = self.scenarios[scenario]
        rot = _rotation(rng.uniform(0.0, 2.0 * math.pi))
        speed *= 1.0 + rng.uniform(-0.01, 0.01)
        q0 = rot @ np.array(start)
        q0 = q0 / screen.value(q0)
        v0 = rot @ np.array([0.0, speed, 0.0])
        t_span = (0.0, span)
        dense_t = np.linspace(0.0, span, DENSE_POINTS)
        # the CSV header identifies only the builtin flat screen and unit sphere
        infer_screen = scenario.endswith(("-flat", "-sphere"))

        def run(tr):
            f = tr.counted(force, "screens.rhs_evals")
            traj = tr.call("screens.integrate", screens.integrate, screen, f, q0, v0, t_span, tol)
            tr.count("screens.steps_accepted", len(traj) - 1)
            _check_conserved(traj, conserved, scenario)

            for q, v in zip(traj.qs, traj.vs):
                Q, V = tr.call("screens.central_project_state", screens.central_project_state,
                               screen, target, q, v)
                check(abs(target.value(Q) - 1.0) < 1e-9, f"{scenario}: projection left the target")
                check(np.allclose(_p(Q, V), _p(q, v), rtol=1e-12, atol=1e-12),
                      f"{scenario}: central projection changed q ^ v")

            y_nodes = np.concatenate([traj.qs, traj.vs], axis=1)
            for i in (0, len(traj) // 2, len(traj) - 1):
                y = tr.call("screens.TrajectorySample.interpolate", traj.interpolate, traj.times[i])
                check(np.allclose(y, y_nodes[i], rtol=0, atol=1e-12), f"{scenario}: interpolation at a node")
            for t in dense_t:
                y = tr.call("screens.TrajectorySample.interpolate", traj.interpolate, t)
                check(abs(screen.value(y[:DIM]) - 1.0) < 1e-6, f"{scenario}: interpolant left the screen")

            text = tr.call("screens.TrajectorySample.to_csv", traj.to_csv)
            back = tr.call("screens.TrajectorySample.from_csv", screens.TrajectorySample.from_csv,
                           text, None if infer_screen else screen)
            check(np.array_equal(back.times, traj.times) and np.array_equal(back.qs, traj.qs)
                  and np.array_equal(back.vs, traj.vs), f"{scenario}: CSV round trip lost digits")
            check(back.screen.to_json() == screen.to_json(), f"{scenario}: CSV round trip changed the screen")

        return Request(scenario, run)


def _check_conserved(traj, conserved, scenario):
    qs, vs = traj.qs, traj.vs
    if "kepler_energy" in conserved or "oscillator_energy" in conserved:
        energy = _kepler_energy if "kepler_energy" in conserved else _oscillator_energy
        e = np.array([energy(q, v) for q, v in zip(qs, vs)])
        check(np.max(np.abs(e - e[0])) <= 1e-8 * abs(e[0]), f"{scenario}: energy drift")
    p = np.array([_p(q, v) for q, v in zip(qs, vs)])
    cols = [0] if "p01" in conserved else [0, 1, 2]
    drift = np.max(np.abs(p[:, cols] - p[0, cols]))
    check(drift <= 1e-8 * max(1.0, float(np.max(np.abs(p[0, cols])))), f"{scenario}: impulsion drift")
