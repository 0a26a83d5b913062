"""Command-line front end.

Every subcommand validates its input, calls exactly one library pipeline,
and writes deterministic output (JSON report or CSV trajectory): identical
inputs give byte-identical outputs.  Exit codes: 0 success, 1 negative
verdict or domain error, 2 malformed input, with a message naming the JSON
path of the bad value, e.g. "scenario['force']['center'][1]".  The builtin
scenario flags (--screen, --dim, --system, --mu, --q0, --v0, --t-span) are
read as a scenario JSON.  Every tolerance (PROJDYN_TOL, which overrides the
default 1e-10, --tol, a scenario's "tol", --deviation-tol) must be a positive
finite number; a time span [t0, t1] needs finite ends with t0 <= t1.  A
screen has at most screens.MAX_SCREEN_DIM (256) dimensions, and so do a
curvature form's "dim", a bivector map's "dim_src" and "dim_dst", and
`pbb-dim --n`; `pbb-dim --b` is at most polyintegrals.MAX_PBB_DEGREE (10000).
`young-dim` caps its basis at 10^6 group-algebra products and dimension 2000.
`project` writes the samples before the first one hidden from the target
screen and, when it stops early, says so in one "note:" line on stderr.

The argument parser is built once per process, on the first call of `main`,
and reused: each call parses into a fresh namespace, and PROJDYN_TOL is read
when a command runs, so no call sees the state of an earlier one.

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
  trajectory     CSV: "# screen=<kind> <screen JSON>", then
                  "t,q_0,..,v_0,.." and one row per sample
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from projdyn import compat, curvclass, polyintegrals, screens, young
from projdyn.exactlin import FormatError, JsonValue, dumps, tensor_from_json
from projdyn.polynomials import Poly


def _check_tol(tol, what):
    if not (math.isfinite(tol) and tol > 0.0):
        raise FormatError(f"{what}: expected a positive finite number, got {tol!r}")
    return tol


def _default_tol():
    text = os.environ.get("PROJDYN_TOL", "1e-10")
    try:
        tol = float(text)
    except ValueError:
        raise FormatError(f"PROJDYN_TOL: expected a positive finite number, got {text!r}") from None
    return _check_tol(tol, "PROJDYN_TOL")


def _read_text(arg, what):
    try:
        with open(arg) as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"{what}: {exc}") from exc


def _load_json(arg, what):
    """A reader named ``what`` of inline JSON (an argument starting with '{') or of the JSON file at arg."""
    return JsonValue.parse(arg if arg.lstrip().startswith("{") else _read_text(arg, what), what)


def _emit(text, output):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _parse_list(text, what, number=float):
    try:
        return [number(x) for x in text.split(",")]
    except ValueError as exc:
        raise FormatError(f"{what}: expected comma-separated numbers, got {text!r}") from exc


# ---------------------------------------------------------------------------
# subcommands

# The largest group-algebra work and class dimension `young-dim` accepts, both
# read from the shape: the slowest accepted basis found took about 2 s on a
# shared 2-vCPU Intel Xeon, where (1^8) over dimension 9 ran for minutes.
MAX_YOUNG_PRODUCTS = 1_000_000
MAX_YOUNG_CLASS_DIM = 2_000


def cmd_young_dim(args):
    tableau = young.YoungTableau.from_json({"rows": _parse_list(args.rows, "--rows", int), "numbering": args.numbering})
    dim = JsonValue(args.dim, "--dim").integer(low=1)
    for what, size, cap in (("group-algebra products", young.basis_products(tableau, dim), MAX_YOUNG_PRODUCTS),
                            ("class dimension", young.class_dimension(tableau, dim), MAX_YOUNG_CLASS_DIM)):
        if size > cap:
            raise FormatError(f"--rows {args.rows} --dim {dim}: the basis needs {size} {what}, at most {cap}")
    basis = young.imAS_basis if args.numbering == "vertical" else young.imSA_basis
    _emit(str(len(basis(tableau, dim))), args.output)
    return 0


def cmd_young_check(args):
    tableau = young.YoungTableau.from_json(_load_json(args.tableau, "tableau"))
    tensor = tensor_from_json(_load_json(args.tensor, "tensor"))
    if tensor.order != tableau.size:
        raise FormatError(f"--tensor: expected order {tableau.size}, the tableau's box count, got {tensor.order}")
    if tableau.numbering == "vertical":
        member = young.check_imAS(tableau, tensor)
        which = "image_of_AS"
    else:
        member = young.check_imSA(tableau, tensor)
        which = "image_of_SA"
    _emit(dumps({"class": which, "member": member}), args.output)
    return 0 if member else 1


def cmd_pbb_dim(args):
    n = JsonValue(args.n, "--n").integer(low=1, high=screens.MAX_SCREEN_DIM + 1)
    b = JsonValue(args.b, "--b").integer(low=1, high=polyintegrals.MAX_PBB_DEGREE + 1)
    _emit(str(polyintegrals.dim_Pbb(n, b)), args.output)
    return 0


def cmd_classify(args):
    R = curvclass.BivectorMap.from_json(_load_json(args.input, "bivector map"))
    try:
        report = curvclass.classify_bivector_map(R)
    except curvclass.DecomposabilityError as exc:
        _emit(dumps({"error": "decomposability_failed", "message": str(exc)}), args.output)
        return 1
    _emit(dumps(report.to_json()), args.output)
    return 0


def cmd_classify_curvature(args):
    form = curvclass.CurvatureForm.from_json(_load_json(args.input, "curvature form"))
    try:
        report = curvclass.classify_curvature_form(form)
    except curvclass.Eq91ViolationError as exc:
        _emit(dumps({"error": "decomposability_failed", "message": str(exc)}), args.output)
        return 1
    except curvclass.KernelNotTrivialError as exc:
        _emit(dumps({"error": "kernel_not_trivial", "message": str(exc)}), args.output)
        return 1
    _emit(dumps(report.to_json()), args.output)
    return 0


def _scenario(args):
    """The scenario of --scenario, or the one the builtin flags describe; both
    go through screens.scenario_from_json.  --tol overrides either tolerance,
    and PROJDYN_TOL the builtin one."""
    if args.scenario:
        scn = screens.scenario_from_json(_load_json(args.scenario, "scenario"))
    else:  # a missing --q0 or --v0 stays None, which the scenario reader rejects
        scn = screens.builtin_scenario(
            args.screen, args.dim, "zero" if args.system == "free" else args.system, args.mu,
            args.q0 and _parse_list(args.q0, "--q0"), args.v0 and _parse_list(args.v0, "--v0"),
            _parse_list(args.t_span, "--t-span"))
    if args.tol is not None:
        scn["tol"] = _check_tol(args.tol, "--tol")
    elif not args.scenario:
        scn["tol"] = _default_tol()
    return scn


def cmd_integrate(args):
    scn = _scenario(args)
    try:
        traj = screens.integrate(**scn)
    except (screens.DomainExitError, screens.StepUnderflowError) as exc:
        _emit(dumps({"error": type(exc).__name__, "message": str(exc)}), args.output)
        return 1
    _emit(traj.to_csv(), args.output)
    return 0


def cmd_project(args):
    to_screen = screens.screen_from_json(_load_json(args.to_screen, "target screen"))
    traj = screens.TrajectorySample.from_csv(_read_text(args.input, "trajectory"))
    projected, exited = screens.project_visible(traj, to_screen)
    if not projected:
        _emit(dumps({"error": "VisibilityError", "exit_time": exited}), args.output)
        return 1
    qs, vs = zip(*projected)
    out = screens.TrajectorySample(to_screen, traj.times[:len(qs)], qs, vs)
    _emit(out.to_csv(), args.output)
    if exited is not None:
        sys.stderr.write(f"note: stopped at the visibility exit t = {float(exited)!r}; "
                         f"wrote {len(qs)} of {len(traj.times)} rows\n")
    return 0


def cmd_screen_find(args):
    form = curvclass.CurvatureForm.from_json(_load_json(args.input, "curvature form"))
    if form.tensor.is_zero():
        _emit(dumps({"error": "zero_form"}), args.output)
        return 1
    report = compat.screen_find(form)
    _emit(dumps(report.to_json()), args.output)
    return 1 if report.verdict == "incompatible" else 0


def cmd_hamiltonian_test(args):
    r = _load_json(args.input, "leading term")
    screen = screens.screen_from_json(r.key("screen"))
    T = Poly.from_json(r.key("T"))
    if T.nvars != 2 * screen.dim:
        raise r.error(f"a polynomial in {2 * screen.dim} variables, twice the screen dimension", "T")
    report = compat.hamiltonian_test(T, screen=screen)
    _emit(dumps(report.to_json()), args.output)
    return 1 if report.verdict == "incompatible" else 0


def cmd_verify_projection(args):
    _check_tol(args.deviation_tol, "--deviation-tol")
    scn = _scenario(args)
    to_screen = screens.screen_from_json(_load_json(args.to_screen, "target screen"))
    traj = screens.integrate(**scn)
    report = screens.verify_projection(traj, to_screen, scn["force"], tol=args.deviation_tol)
    _emit(dumps(report.to_json()), args.output)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------

@functools.cache
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except (ValueError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
