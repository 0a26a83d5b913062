"""Command-line front end.

Every subcommand validates its input, calls exactly one library pipeline,
and writes deterministic output (JSON report or CSV trajectory): identical
inputs give byte-identical outputs.  Exit codes: 0 success, 1 negative
verdict or domain error, 2 malformed input.  The environment variable
PROJDYN_TOL overrides the default numerical tolerance of 1e-10.  Every
tolerance (PROJDYN_TOL, --tol, a scenario's "tol", --deviation-tol) must be
a positive finite number.  A time span [t0, t1] needs finite ends with
t0 <= t1.

Inline JSON is accepted wherever a file path is expected (any argument
starting with '{').  Schemas:

  tableau        {"rows": [2,2], "numbering": "horizontal"|"vertical"}
  tensor         {"dim": d, "order": N,
                  "entries": [{"idx": [i1..iN], "val": "p/q"}, ...]}
  polynomial     {"vars": ["q0",..,"v0",..], "terms":
                  [{"exps": [..], "coef": "p/q"}, ...]}
  bivector map   {"dim_src": d, "dim_dst": d, "matrix": [["p/q",..],..]}
                  (columns/rows over lexicographic index pairs)
  curvature form tensor JSON plus {"symmetry": "riemann"}
  screen         {"kind": "flat"|"sphere"|"hyperboloid", "dim": d} or
                 {"kind": "linear", "phi": ["p/q",..]} or
                 {"kind": "quadratic_root", "g": [["p/q",..],..]}
  force          {"kind": "zero"|"oscillator"} or
                 {"kind": "kepler", "mu": 1.0, "center": [..]} or
                 {"kind": "inverse_cube", "mu": 1.0}
  scenario       {"screen": .., "force": .., "q0": [..], "v0": [..],
                  "t_span": [t0,t1], "tol": 1e-10}
  leading term   {"screen": .., "T": polynomial}
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from projdyn import compat, curvclass, polyintegrals, screens, young
from projdyn.exactlin import FormatError, tensor_from_json
from projdyn.polynomials import Poly


class InputError(ValueError):
    pass


def _check_tol(tol, what):
    if not (math.isfinite(tol) and tol > 0.0):
        raise InputError(f"{what}: expected a positive finite number, got {tol!r}")
    return tol


def _default_tol():
    text = os.environ.get("PROJDYN_TOL", "1e-10")
    try:
        tol = float(text)
    except ValueError:
        raise InputError(f"PROJDYN_TOL: expected a positive finite number, got {text!r}") from None
    return _check_tol(tol, "PROJDYN_TOL")


def _load_json(arg, what):
    try:
        if arg.lstrip().startswith("{"):
            return json.loads(arg)
        with open(arg) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"{what}: {exc}") from exc


def _read_text(arg, what):
    try:
        with open(arg) as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"{what}: {exc}") from exc


def _emit(text, output):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _dump(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _parse_floats(text, what):
    try:
        return [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise InputError(f"{what}: expected comma-separated numbers") from exc


def _check_t_span(t_span, what):
    t0, t1 = t_span
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise InputError(f"{what}: time span ends must be finite")
    if t1 < t0:
        raise InputError(f"{what}: time span [{t0}, {t1}] runs backwards")


# ---------------------------------------------------------------------------
# subcommands

def cmd_young_dim(args):
    try:
        rows = [int(r) for r in args.rows.split(",")]
    except ValueError as exc:
        raise InputError("--rows: expected comma-separated integers") from exc
    tableau = young.YoungTableau(rows, args.numbering)
    if args.numbering == "vertical":
        dim = len(young.imAS_basis(tableau, args.dim))
    else:
        dim = len(young.imSA_basis(tableau, args.dim))
    _emit(str(dim), args.output)
    return 0


def cmd_young_check(args):
    tableau = young.YoungTableau.from_json(_load_json(args.tableau, "tableau"))
    tensor = tensor_from_json(_load_json(args.tensor, "tensor"))
    if tableau.numbering == "vertical":
        member = young.check_imAS(tableau, tensor)
        which = "image_of_AS"
    else:
        member = young.check_imSA(tableau, tensor)
        which = "image_of_SA"
    _emit(_dump({"class": which, "member": member}), args.output)
    return 0 if member else 1


def cmd_pbb_dim(args):
    _emit(str(polyintegrals.dim_Pbb(args.n, args.b)), args.output)
    return 0


def cmd_classify(args):
    R = curvclass.BivectorMap.from_json(_load_json(args.input, "bivector map"))
    try:
        report = curvclass.classify_bivector_map(R)
    except curvclass.DecomposabilityError as exc:
        _emit(_dump({"error": "decomposability_failed", "message": str(exc)}), args.output)
        return 1
    _emit(_dump(report.to_json()), args.output)
    return 0


def cmd_classify_curvature(args):
    form = curvclass.CurvatureForm.from_json(_load_json(args.input, "curvature form"))
    try:
        report = curvclass.classify_curvature_form(form)
    except curvclass.Eq91ViolationError as exc:
        _emit(_dump({"error": "decomposability_failed", "message": str(exc)}), args.output)
        return 1
    except curvclass.KernelNotTrivialError as exc:
        _emit(_dump({"error": "kernel_not_trivial", "message": str(exc)}), args.output)
        return 1
    _emit(_dump(report.to_json()), args.output)
    return 0


def _builtin_scenario(args):
    dim = args.dim
    screen_map = {
        "flat": screens.flat_screen,
        "sphere": screens.sphere_screen,
        "hyperboloid": screens.hyperboloid_screen,
    }
    if args.screen not in screen_map:
        raise InputError(f"unknown builtin screen {args.screen!r}")
    screen = screen_map[args.screen](dim)
    center = [0.0] * dim
    center[-1] = 1.0
    force_map = {
        "free": lambda: screens.zero_force(dim),
        "kepler": lambda: screens.kepler_force(args.mu, center),
        "oscillator": lambda: screens.oscillator_force(dim),
    }
    if args.system not in force_map:
        raise InputError(f"unknown builtin system {args.system!r}")
    force = force_map[args.system]()
    q0 = _parse_floats(args.q0, "--q0") if args.q0 else None
    v0 = _parse_floats(args.v0, "--v0") if args.v0 else None
    if q0 is None or v0 is None:
        raise InputError("builtin scenarios need --q0 and --v0")
    t_span = _parse_floats(args.t_span, "--t-span")
    if len(t_span) != 2:
        raise InputError("--t-span needs exactly two numbers")
    _check_t_span(t_span, "--t-span")
    return {
        "screen": screen,
        "force": force,
        "q0": q0,
        "v0": v0,
        "t_span": tuple(t_span),
        "tol": args.tol,
    }


def _scenario(args):
    if args.tol is not None:
        _check_tol(args.tol, "--tol")
    if args.scenario:
        scn = screens.scenario_from_json(_load_json(args.scenario, "scenario"))
        _check_t_span(scn["t_span"], "scenario")
        _check_tol(scn["tol"], "scenario 'tol'")
        if args.tol is not None:
            scn["tol"] = args.tol
        return scn
    args.tol = args.tol if args.tol is not None else _default_tol()
    return _builtin_scenario(args)


def cmd_integrate(args):
    scn = _scenario(args)
    try:
        traj = screens.integrate(
            scn["screen"], scn["force"], scn["q0"], scn["v0"], scn["t_span"], scn["tol"]
        )
    except (screens.DomainExitError, screens.StepUnderflowError) as exc:
        _emit(_dump({"error": type(exc).__name__, "message": str(exc)}), args.output)
        return 1
    _emit(traj.to_csv(), args.output)
    return 0


def cmd_project(args):
    to_screen = screens.screen_from_json(_load_json(args.to_screen, "target screen"))
    text = _read_text(args.input, "trajectory")
    traj = screens.TrajectorySample.from_csv(text)
    times, qs, vs = [], [], []
    exited = None
    for t, q, v in zip(traj.times, traj.qs, traj.vs):
        try:
            Q, V = screens.central_project_state(traj.screen, to_screen, q, v)
        except screens.VisibilityError:
            exited = t
            break
        times.append(t)
        qs.append(Q)
        vs.append(V)
    if not times:
        _emit(_dump({"error": "VisibilityError", "exit_time": exited}), args.output)
        return 1
    out = screens.TrajectorySample(to_screen, times, qs, vs)
    _emit(out.to_csv(), args.output)
    return 0


def cmd_screen_find(args):
    form = curvclass.CurvatureForm.from_json(_load_json(args.input, "curvature form"))
    if form.tensor.is_zero():
        _emit(_dump({"error": "zero_form"}), args.output)
        return 1
    report = compat.screen_find(form)
    _emit(_dump(report.to_json()), args.output)
    return 1 if report.verdict == "incompatible" else 0


def cmd_hamiltonian_test(args):
    obj = _load_json(args.input, "leading term")
    if "screen" not in obj or "T" not in obj:
        raise InputError("expected {'screen': {...}, 'T': {...}}")
    screen = screens.screen_from_json(obj["screen"])
    T = Poly.from_json(obj["T"])
    if T.nvars != 2 * screen.dim:
        raise InputError("polynomial variable count must be twice the screen dimension")
    report = compat.hamiltonian_test(T, screen=screen)
    _emit(_dump(report.to_json()), args.output)
    return 1 if report.verdict == "incompatible" else 0


def cmd_verify_projection(args):
    _check_tol(args.deviation_tol, "--deviation-tol")
    scn = _scenario(args)
    to_screen = screens.screen_from_json(_load_json(args.to_screen, "target screen"))
    traj = screens.integrate(
        scn["screen"], scn["force"], scn["q0"], scn["v0"], scn["t_span"], scn["tol"]
    )
    report = screens.verify_projection(traj, to_screen, scn["force"], tol=args.deviation_tol)
    _emit(_dump(report.to_json()), args.output)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="projdyn",
        description="screen dynamics, tensor symmetry classes, and the screen-finder test",
        epilog=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("young-dim", help="dimension of a tableau's symmetry class")
    p.add_argument("--rows", required=True, help="row lengths, e.g. 2,2")
    p.add_argument("--dim", type=int, required=True, help="dimension of the underlying space")
    p.add_argument("--numbering", choices=("horizontal", "vertical"), default="vertical")
    p.add_argument("--output")
    p.set_defaults(func=cmd_young_dim)

    p = sub.add_parser("young-check", help="membership in the symmetry class of a tableau")
    p.add_argument("--tableau", required=True, help="tableau JSON (inline or path)")
    p.add_argument("--tensor", required=True, help="tensor JSON (inline or path)")
    p.add_argument("--output")
    p.set_defaults(func=cmd_young_check)

    p = sub.add_parser("pbb-dim", help="dimension of the degree-b impulsion polynomials")
    p.add_argument("--n", type=int, required=True, help="dimension of the screen (ambient is n+1)")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_pbb_dim)

    p = sub.add_parser("classify", help="classify a decomposability-preserving bivector map")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("classify-curvature", help="classify a curvature-type form")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_classify_curvature)

    def add_scenario_args(p):
        p.add_argument("--scenario", help="scenario JSON (inline or path)")
        p.add_argument("--system", choices=("free", "kepler", "oscillator"), default="free")
        p.add_argument("--screen", choices=("flat", "sphere", "hyperboloid"), default="flat")
        p.add_argument("--dim", type=int, default=3)
        p.add_argument("--mu", type=float, default=1.0)
        p.add_argument("--q0")
        p.add_argument("--v0")
        p.add_argument("--t-span", dest="t_span", default="0,10")
        p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("integrate", help="integrate motion on a screen; writes CSV")
    add_scenario_args(p)
    p.add_argument("--output")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("project", help="project a trajectory CSV onto another screen")
    p.add_argument("--input", required=True, help="trajectory CSV path")
    p.add_argument("--to-screen", dest="to_screen", required=True, help="screen JSON")
    p.add_argument("--output")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("screen-find", help="find the screens compatible with a curvature form")
    p.add_argument("--input", required=True, help="curvature form JSON")
    p.add_argument("--output")
    p.set_defaults(func=cmd_screen_find)

    p = sub.add_parser("hamiltonian-test", help="is this quadratic term a Hamiltonian for some screen?")
    p.add_argument("--input", required=True, help="{'screen': .., 'T': polynomial} JSON")
    p.add_argument("--output")
    p.set_defaults(func=cmd_hamiltonian_test)

    p = sub.add_parser("verify-projection", help="round-trip a trajectory through a central projection")
    add_scenario_args(p)
    p.add_argument("--to-screen", dest="to_screen", required=True, help="target screen JSON")
    p.add_argument("--deviation-tol", dest="deviation_tol", type=float, default=1e-6)
    p.add_argument("--output")
    p.set_defaults(func=cmd_verify_projection)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, FormatError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except (ValueError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
