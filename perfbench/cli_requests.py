"""Workload ``cli-requests``: many small in-process calls to ``projdyn.cli.main``.

Same exact layers as ``exact-chain`` but on small inputs (dimensions 3-4,
tableaux of at most 4 boxes), so argument parsing, JSON parsing and
serialization and the validating constructors are a visible share of each
request.  Outputs go through ``--output`` into a scratch directory inside
the checkout.  Interpreter start-up is left out; ``setup_s`` covers it.

Malformed requests, whose documented exit code is 2, are not part of the
timed stream: some of them escape ``cli.main`` as tracebacks at the parent
commit, and a failing operation would void the run.  ``malformed_probe``
runs a seeded set of them once per run and reports the share that exits 2.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from fractions import Fraction

from common import (
    Request,
    Tracer,
    shuffled,
    check,
    compound,
    corank_one_symmetric,
    flat,
    hook_content_dim,
    mat_vec,
    proportional,
    random_invertible,
    random_symmetric,
)

from projdyn import cli

def call_cli(tr, argv):
    """Run ``cli.main(argv)`` in process; returns its exit code.  The span is
    named after the subcommand function that ``main`` dispatches to."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return tr.call("cli.cmd_" + argv[0].replace("-", "_"), cli.main, argv)
        except SystemExit as exc:
            return exc.code


def _fmt(x):
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _fractions(m):
    return [[Fraction(x) for x in row] for row in m]


def _tensor_json(dim, order, entries):
    return json.dumps({"dim": dim, "order": order,
                       "entries": [{"idx": list(k), "val": _fmt(v)} for k, v in sorted(entries.items())]})


def _metric_form(b):
    d = len(b)
    out = {}
    for u in range(d):
        for v in range(d):
            for w in range(d):
                for x in range(d):
                    val = b[u][w] * b[v][x] - b[u][x] * b[v][w]
                    if val:
                        out[(u, v, w, x)] = Fraction(val)
    return out


def _curvature_json(b):
    obj = json.loads(_tensor_json(len(b), 4, _metric_form(b)))
    obj["symmetry"] = "riemann"
    return json.dumps(obj)


def _poly_json(nvars, terms):
    return {"vars": [f"x{i}" for i in range(nvars)],
            "terms": [{"exps": list(e), "coef": _fmt(c)} for e, c in sorted(terms.items())]}


def _mono(nvars, *idx):
    e = [0] * nvars
    for i in idx:
        e[i] += 1
    return tuple(e)


def _read(path):
    with open(path) as fh:
        return fh.read()


def _read_csv(path):
    lines = _read(path).strip().splitlines()
    check(lines[0].startswith("# screen=") and lines[1].startswith("t,"), "trajectory CSV header")
    return [[float(x) for x in ln.split(",")] for ln in lines[2:]]


def _wedge_of_rows(rows):
    """q ^ v for CSV rows (t, q0, q1, q2, v0, v1, v2)."""
    out = []
    for r in rows:
        q, v = r[1:4], r[4:7]
        out.append([q[i] * v[j] - q[j] * v[i] for i, j in ((0, 1), (0, 2), (1, 2))])
    return out


class Workload:
    name = "cli-requests"

    def __init__(self, tmpdir, tiny=False):
        self.tmpdir = tmpdir
        self.tiny = tiny

    def _path(self, name):
        return os.path.join(self.tmpdir, name)

    def _request(self, kind, argv, oracle):
        def run(tr):
            code = call_cli(tr, argv)
            oracle(code)

        return Request(kind, run)

    # -- request builders ------------------------------------------------------

    def young_dim(self, rows, dim, numbering):
        out = self._path(f"young-dim-{'-'.join(map(str, rows))}-{dim}-{numbering}.txt")
        expected = hook_content_dim(rows, dim)

        def oracle(code):
            check(code == 0 and int(_read(out)) == expected, f"young-dim {rows} d={dim}")

        argv = ["young-dim", "--rows", ",".join(map(str, rows)), "--dim", str(dim),
                "--numbering", numbering, "--output", out]
        return self._request("young-dim", argv, oracle)

    def young_check(self, name, tableau, tensor, member):
        out = self._path(f"young-check-{name}.json")

        def oracle(code):
            rep = json.loads(_read(out))
            check(code == (0 if member else 1) and rep["member"] is member, f"young-check {name}")

        argv = ["young-check", "--tableau", json.dumps(tableau), "--tensor", tensor, "--output", out]
        return self._request("young-check", argv, oracle)

    def pbb_dim(self, n, b):
        out = self._path(f"pbb-dim-{n}-{b}.txt")
        expected = hook_content_dim((b, b), n + 1)

        def oracle(code):
            check(code == 0 and int(_read(out)) == expected, f"pbb-dim n={n} b={b}")

        return self._request("pbb-dim", ["pbb-dim", "--n", str(n), "--b", str(b), "--output", out], oracle)

    def classify(self, rng, d):
        B = random_invertible(rng, d, boost=2)
        R = {"dim_src": d, "dim_dst": d, "matrix": [[_fmt(x) for x in row] for row in compound(B, 2)]}
        out = self._path(f"classify-{d}.json")

        def oracle(code):
            rep = json.loads(_read(out))
            check(code == 0 and rep["case"] == "wedge_square"
                  and proportional(flat(_fractions(rep["witnesses"]["B"])), flat(B)), f"classify d={d}")

        return self._request("classify", ["classify", "--input", json.dumps(R), "--output", out], oracle)

    def classify_curvature(self, rng, d, degenerate):
        b = corank_one_symmetric(rng, d) if degenerate else random_symmetric(rng, d, boost=2 * d)
        out = self._path(f"classify-curvature-{d}-{degenerate}.json")

        def oracle(code):
            rep = json.loads(_read(out))
            if degenerate:
                check(code == 1 and rep["error"] == "kernel_not_trivial", "classify-curvature degenerate")
            else:
                check(code == 0 and rep["case"] == "metric"
                      and proportional(flat(_fractions(rep["witnesses"]["B"])), flat(b)),
                      f"classify-curvature d={d}")

        argv = ["classify-curvature", "--input", _curvature_json(b), "--output", out]
        return self._request("classify-curvature", argv, oracle)

    def screen_find(self, rng, d, degenerate):
        b = corank_one_symmetric(rng, d) if degenerate else random_symmetric(rng, d, boost=2 * d)
        out = self._path(f"screen-find-{d}-{degenerate}.json")

        def oracle(code):
            rep = json.loads(_read(out))
            check(code == 0, f"screen-find exit {code}")
            if degenerate:
                kernel = _fractions(rep["kernel"])
                inner = "quadric" if d > 3 else "dim2"
                check(rep["verdict"] == "cylindric" and len(kernel) == 1 and any(kernel[0])
                      and not any(mat_vec(b, kernel[0])) and rep["inner"]["verdict"] == inner,
                      "screen-find cylindric reduction")
            else:
                check(rep["verdict"] == "quadric" and proportional(flat(_fractions(rep["witnesses"]["g"])), flat(b)),
                      f"screen-find d={d}")

        argv = ["screen-find", "--input", _curvature_json(b), "--output", out]
        return self._request("screen-find", argv, oracle)

    def hamiltonian_test(self, name, screen, terms, expect_code, expect):
        out = self._path(f"hamiltonian-test-{name}.json")
        obj = {"screen": screen, "T": _poly_json(2 * screen["dim"], terms)}

        def oracle(code):
            rep = json.loads(_read(out))
            check(code == expect_code and all(rep[k] == v if k == "verdict" else rep["witnesses"][k] == v
                                              for k, v in expect.items()), f"hamiltonian-test {name}")

        argv = ["hamiltonian-test", "--input", json.dumps(obj), "--output", out]
        return self._request("hamiltonian-test", argv, oracle)

    def integrate_kepler(self, rng, t1):
        """Integrate twice with identical arguments; returns (request, CSV path)."""
        theta = rng.uniform(0.0, 2.0 * math.pi)
        speed = 0.8 * (1.0 + rng.uniform(-0.01, 0.01))
        q0 = [math.cos(theta), math.sin(theta), 1.0]
        v0 = [-speed * math.sin(theta), speed * math.cos(theta), 0.0]
        outs = [self._path("integrate-kepler-a.csv"), self._path("integrate-kepler-b.csv")]
        argvs = [["integrate", "--system", "kepler", "--screen", "flat", "--dim", "3",
                  "--q0=" + ",".join(map(repr, q0)), "--v0=" + ",".join(map(repr, v0)),
                  "--t-span", f"0,{t1}", "--tol", "1e-10", "--output", out] for out in outs]

        def run(tr):
            for argv in argvs:
                check(call_cli(tr, argv) == 0, "integrate kepler exit code")
            check(_read(outs[0]) == _read(outs[1]), "repeated integrate wrote different bytes")
            rows = _read_csv(outs[0])
            check(abs(rows[-1][0] - t1) < 1e-12, "integrate did not reach the end time")
            e = [0.5 * (r[4] ** 2 + r[5] ** 2) - 1.0 / math.hypot(r[1], r[2]) for r in rows]
            check(max(abs(x - e[0]) for x in e) <= 1e-8 * abs(e[0]), "integrate kepler energy drift")

        return Request("integrate", run), outs[0]

    def integrate_free_sphere(self, rng, t1):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        out = self._path("integrate-free-sphere.csv")
        argv = ["integrate", "--system", "free", "--screen", "sphere", "--dim", "3",
                "--q0", "0,0,1", f"--v0={math.cos(theta)!r},{math.sin(theta)!r},0",
                "--t-span", f"0,{t1}", "--tol", "1e-10", "--output", out]

        def oracle(code):
            rows = _read_csv(out)
            check(code == 0 and all(abs(math.hypot(*r[1:4]) - 1.0) < 1e-9
                                    and abs(math.hypot(*r[4:7]) - 1.0) < 1e-8 for r in rows),
                  "free motion on the sphere left the sphere or changed speed")

        return self._request("integrate", argv, oracle)

    def project(self, source):
        out = self._path("project-sphere.csv")
        argv = ["project", "--input", source, "--to-screen", '{"kind": "sphere", "dim": 3}', "--output", out]

        def oracle(code):
            rows, src = _read_csv(out), _read_csv(source)
            check(code == 0 and len(rows) == len(src), "project exit code or row count")
            check(all(abs(math.hypot(*r[1:4]) - 1.0) < 1e-12 for r in rows), "projection left the sphere")
            check(all(abs(a - b) <= 1e-12 * max(1.0, abs(b))
                      for pa, pb in zip(_wedge_of_rows(rows), _wedge_of_rows(src)) for a, b in zip(pa, pb)),
                  "projection changed q ^ v")

        return self._request("project", argv, oracle)

    # -- rounds ------------------------------------------------------------------

    def round(self, rng):
        v_tab = {"rows": [2, 2], "numbering": "vertical"}
        b3 = random_symmetric(rng, 3, boost=6)
        member = _metric_form(b3)
        broken = dict(member)
        broken[(0, 1, 0, 1)] = broken.get((0, 1, 0, 1), 0) + 1
        n = 2 if self.tiny else 4
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                a[i][j] = rng.randint(1, 5)
                a[j][i] = -a[i][j]
        s = random_symmetric(rng, n, boost=1)
        antisym = {(i, j): Fraction(a[i][j]) for i in range(n) for j in range(n) if a[i][j]}
        sym = {(i, j): Fraction(s[i][j]) for i in range(n) for j in range(n) if s[i][j]}
        nonsym = dict(sym)
        nonsym[(0, 1)] = sym.get((0, 1), 0) + 1
        flat3 = {"kind": "flat", "dim": 3}
        osc = {_mono(6, 3, 4): 1}
        not_integral = {_mono(6, 0, 3, 4): 1}
        kinetic = {_mono(6, 3 + i, 3 + i): Fraction(1, 2) for i in range(3)}
        flat_kinetic = {_mono(6, 3 + i, 3 + i): Fraction(1, 2) for i in range(2)}
        b4 = random_symmetric(rng, 4, boost=8)
        half = ["1/2", "0/1"]

        kepler, kepler_csv = self.integrate_kepler(rng, 0.5 if self.tiny else 3.0)
        project = self.project(kepler_csv)
        reqs = [
            self.young_dim((2, 2), 3, "vertical"),
            self.young_check("antisym", {"rows": [1, 1], "numbering": "vertical"},
                             _tensor_json(n, 2, antisym), True),
            self.pbb_dim(2, 2),
            self.classify(rng, 3),
            self.classify_curvature(rng, 3, False),
            self.screen_find(rng, 3, False),
            self.hamiltonian_test("oscillator", flat3, osc, 0,
                                  {"verdict": "hyperplane", "g": [half[::-1], half]}),
            kepler,
            project,
        ]
        if not self.tiny:
            reqs += [
                self.young_dim((2, 2), 4, "vertical"),
                self.young_dim((2, 2), 4, "horizontal"),
                self.young_dim((2, 1), 3, "horizontal"),
                self.young_dim((3, 1), 3, "vertical"),
                self.young_dim((2, 1, 1), 4, "vertical"),
                self.young_dim((1, 1), 4, "horizontal"),
                self.young_check("metric", v_tab, _tensor_json(3, 4, member), True),
                self.young_check("broken", v_tab, _tensor_json(3, 4, broken), False),
                self.young_check("sym", {"rows": [2], "numbering": "horizontal"}, _tensor_json(n, 2, sym), True),
                self.young_check("nonsym", {"rows": [2], "numbering": "horizontal"}, _tensor_json(n, 2, nonsym), False),
                self.pbb_dim(3, 2),
                self.pbb_dim(3, 3),
                self.classify(rng, 4),
                self.classify_curvature(rng, 4, False),
                self.classify_curvature(rng, 3, True),
                self.screen_find(rng, 4, True),
                self.hamiltonian_test("not-integral", flat3, not_integral, 1,
                                      {"verdict": "incompatible", "reason": "leading_term_not_free_integral"}),
                self.hamiltonian_test("sphere-kinetic", {"kind": "sphere", "dim": 3}, kinetic, 0,
                                      {"verdict": "quadric", "g": [["1/1" if i == j else "0/1" for j in range(3)]
                                                                    for i in range(3)]}),
                self.integrate_free_sphere(rng, 2.0),
                self.young_dim((3,), 3, "horizontal"),
                self.young_dim((2, 2), 3, "horizontal"),
                self.young_check("metric4", v_tab, _tensor_json(4, 4, _metric_form(b4)), True),
                self.pbb_dim(2, 3),
                self.classify_curvature(rng, 4, True),
                self.screen_find(rng, 3, True),
                self.hamiltonian_test("flat-kinetic", flat3, flat_kinetic, 0,
                                      {"verdict": "hyperplane", "g": [half, half[::-1]]}),
            ]
            # 35 requests (any count = 5 mod 10): the median and the 90th
            # percentile fall inside one request's samples, not between two
        # the projection reads the Kepler CSV, so it stays after the integration
        shuffled(rng, reqs)
        reqs.remove(project)
        at = reqs.index(kepler) + 1
        return reqs[:at] + [project] + reqs[at:]

    def malformed_probe(self, rng, source_csv):
        """Seeded malformed requests with their outcome: exit code or exception name."""
        good = {"dim": 2, "order": 2, "entries": [{"idx": [0, 1], "val": "1/1"}, {"idx": [1, 0], "val": "-1/1"}]}
        del good["entries"][rng.randrange(2)]["val"]
        d = rng.choice((3, 4))
        pairs = d * (d - 1) // 2
        shapes = {
            "tensor entry without val": ["young-check", "--tableau", '{"rows": [1, 1], "numbering": "vertical"}',
                                         "--tensor", json.dumps(good)],
            "flat screen without dim": ["project", "--input", source_csv, "--to-screen", '{"kind": "flat"}'],
            "non-integer row length": ["young-dim", "--rows", f"2,{rng.choice('xyz')}", "--dim", str(d)],
            "misshapen bivector map": ["classify", "--input", json.dumps(
                {"dim_src": d, "dim_dst": d, "matrix": [["1/1"] * (pairs - 1)] * pairs})],
        }
        outcome = {}
        for name, argv in shapes.items():
            argv = argv + ["--output", self._path("malformed.out")]
            try:
                outcome[name] = call_cli(Tracer(), argv)
            except Exception as exc:  # the outcome under test is the escaping exception
                outcome[name] = type(exc).__name__
        return outcome
