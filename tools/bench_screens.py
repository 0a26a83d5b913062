"""Layer timings of the float screen layer: the stepper, dense output, the
central projection, the screen geometry and the forces, on the five orbits
of perfbench ``orbits`` and a Kepler orbit on the flat screen of dimension
4, and the parallel-transport check.

Each scenario is one of the workload's screen/force pairs (or the
four-dimensional Kepler orbit, whose state has 8 components), started at its
point rotated in the plane of the first two axes by one angle drawn from
SEED, at one of its speeds, tolerances and time spans.  Writes the medians
and quartiles in ms of:

* ``integrate``: ``screens.integrate`` of the orbit;
* ``interpolate``: 200 ``TrajectorySample.interpolate`` reads at evenly
  spaced times, on a sample built fresh outside the timer (so the lists
  that the first read builds are built in every repeat);
* ``central_project_state``: every stored state of the orbit sent to the
  workload's target screen;
* ``local``: ``Screen.local(q, v)`` and ``Screen.local(q)`` at every stored
  state of the flat, sphere and hyperboloid orbits (the hyperboloid's
  geometry takes the general quadric path, the unchanged control);
* ``force``: one call of the Kepler and of the inverse-cube force at every
  stored position of their orbits;
* ``parallel_transport_check``: ``compat.parallel_transport_check`` of the
  metric form of diag(2, 1, 1) on the unit sphere, whose state of q, v and w
  has 9 components.

Every case returns ``.tolist()`` data (times, states, derivatives and the
stats of a run; the dense reads; the projected states; the geometry and
the force values) or a float (the transport check's drift, the largest
over its states), whose float reprs round-trip, so equal digests on two
checkouts mean bit-identical floats.
Each time is the median (and quartiles) of REPEATS calls.  The run loop,
the result digests and the report are those of ``benchrun.py``: the
repeats go round all the cases, and round every checkout named by
``--src``, in turn.

    python3 tools/bench_screens.py                       # this checkout
    python3 tools/bench_screens.py --src src --out BENCH_screens.json --label "this change" \\
        --src OTHER/src --out BENCH_screens_parent.json --label "base"

``--src`` names a ``src`` directory that projdyn is imported from; the
default is the one beside this script.
"""

from __future__ import annotations

import math
import os
import random

import benchrun

HERE = os.path.dirname(os.path.abspath(__file__))
REPEATS = 31
SEED = 2028
THETA = random.Random(SEED).uniform(0.0, 2.0 * math.pi)  # the rotation of every orbit about the last axis
DENSE_POINTS = 200

# name -> (screen, force, start point, speed, tolerance, time span, target screen); the
# dimension is the start point's
SCENARIOS = {
    "kepler-flat": ("flat", "kepler", (1.0, 0.0, 1.0), 0.8, 1e-10, 3.0, "sphere"),
    "kepler-sphere": ("sphere", "kepler", (0.6, 0.0, 1.0), 0.8, 1e-10, 2.0, "flat"),
    "oscillator-flat": ("flat", "oscillator", (1.0, 0.0, 1.0), 0.6, 1e-11, 6.0, "sphere"),
    "inverse-cube-sphere": ("sphere", "inverse_cube", (0.3, 0.0, 1.0), 0.5, 1e-11, 1.5, "flat"),
    "free-hyperboloid": ("hyperboloid", "zero", (0.3, 0.0, 1.2), 0.5, 1e-10, 6.0, "flat"),
    "kepler-flat-4d": ("flat", "kepler", (1.0, 0.0, 0.3, 1.0), 0.8, 1e-10, 3.0, "sphere"),
}
# the orbits whose stored states the local and force cases read
LOCAL_SCENARIOS = ("kepler-flat", "kepler-sphere", "free-hyperboloid")
FORCE_SCENARIOS = ("kepler-flat", "inverse-cube-sphere")
# the transport check: (screen, diagonal of the metric form, q0, v0, w0, time span, tolerance)
TRANSPORT = ("sphere", (2, 1, 1), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.3, 0.9, 0.0), 3.0, 1e-10)


def integrate(screen, force, q0, v0, span, tol):
    from projdyn import screens

    traj = screens.integrate(screen, force, q0, v0, (0.0, span), tol)
    return [traj.times.tolist(), traj.states.tolist(), traj.derivs.tolist(), sorted(traj.stats.items())]


def interpolate(traj, times):
    return [traj.interpolate(t).tolist() for t in times]


def central_project_state(screen, target, qs, vs):
    from projdyn.screens import central_project_state

    return [[Q.tolist(), V.tolist()] for Q, V in (central_project_state(screen, target, q, v) for q, v in zip(qs, vs))]


def local_geometry(screen, qs, vs):
    out = []
    for q, v in zip(qs, vs):
        h, g, hvv = screen.local(q, v)
        h_alone, g_alone, _ = screen.local(q)
        out.append([float(h), g.tolist(), float(hvv), float(h_alone), g_alone.tolist()])
    return out


def force_values(field, qs):
    return [field(q).tolist() for q in qs]


def parallel_transport_check(form, screen, q0, v0, w0, span, tol):
    from projdyn.compat import parallel_transport_check

    return parallel_transport_check(form, screen, q0, v0, w0, (0.0, span), tol)


def cases():
    """((function name, scenario), function, make) tuples: make() builds the
    function's arguments fresh."""
    import numpy as np

    from projdyn import screens
    from projdyn.curvclass import CurvatureForm, metric_form_tensor

    builders = {"flat": screens.flat_screen, "sphere": screens.sphere_screen, "hyperboloid": screens.hyperboloid_screen}
    forces = {
        "kepler": lambda dim: screens.kepler_force(1.0, [0.0] * (dim - 1) + [1.0]),
        "oscillator": screens.oscillator_force,
        "inverse_cube": screens.inverse_cube_force,
        "zero": screens.zero_force,
    }
    c, s = math.cos(THETA), math.sin(THETA)
    out = []
    for name, (kind, force_kind, start, speed, tol, span, target_kind) in SCENARIOS.items():
        dim = len(start)
        screen, target, force = builders[kind](dim), builders[target_kind](dim), forces[force_kind](dim)
        rot = np.eye(dim)
        rot[:2, :2] = [[c, -s], [s, c]]
        q0 = rot @ np.array(start)
        q0 = q0 / screen.value(q0)
        v0 = rot @ np.array([0.0, speed] + [0.0] * (dim - 2))
        traj = screens.integrate(screen, force, q0, v0, (0.0, span), tol)
        dense = np.linspace(0.0, span, DENSE_POINTS).tolist()
        out.append(("integrate", name, integrate,
                    lambda screen=screen, force=force, q0=q0, v0=v0, span=span, tol=tol:
                    (screen, force, q0.copy(), v0.copy(), span, tol)))
        out.append(("interpolate", name, interpolate,
                    lambda traj=traj, dense=dense: (screens.TrajectorySample(
                        traj.screen, traj.times.copy(), traj.qs.copy(), traj.vs.copy(), traj.derivs.copy()), dense)))
        out.append(("central_project_state", name, central_project_state,
                    lambda screen=screen, target=target, traj=traj: (screen, target, traj.qs, traj.vs)))
        if name in LOCAL_SCENARIOS:
            out.append(("local", kind, local_geometry,
                        lambda screen=screen, traj=traj: (screen, list(traj.qs), list(traj.vs))))
        if name in FORCE_SCENARIOS:
            out.append(("force", force_kind, force_values, lambda force=force, traj=traj: (force, list(traj.qs))))
    kind, diagonal, q0, v0, w0, span, tol = TRANSPORT
    gmat = [[diagonal[i] if i == j else 0 for j in range(len(diagonal))] for i in range(len(diagonal))]
    form, screen = CurvatureForm(metric_form_tensor(gmat)), builders[kind](len(diagonal))
    out.append(("parallel_transport_check", kind, parallel_transport_check,
                lambda: (form, screen, q0, v0, w0, span, tol)))
    return [((fn_name, name), fn, make) for fn_name, name, fn, make in out]


if __name__ == "__main__":
    benchrun.main("tools/bench_screens.py", __doc__, cases, REPEATS, SEED,
                  os.path.join(HERE, os.pardir, "BENCH_screens.json"))
