"""Layer timings of the curvature-form and bivector-map classifiers.

Times ten calls on fixed seeded inputs for d = 3-6, each on inputs built
fresh outside the timer (so a value memoized on a map or a form is not
reused across repeats), and writes the medians and quartiles in ms:

* ``compat.compatibility_check``: a metric form with its quadric screen and
  a flat form with its hyperplane screen (both compatible, so every
  3-subset is summed), and the metric form with the perturbed quadric;
* ``curvclass._recover_square_root``: the wedge square of an invertible B,
  and the bivector map of a metric form;
* ``curvclass._wedge_annihilator``: a wedge square (full rank, no witness)
  and a map with a common wedge factor (one witness); at d = 6 each passes
  300 rows of width 6 to ``kernel``;
* ``AntisymmetricForm.kernel``: the carriers of the metric and flat forms;
* ``curvclass.classify_curvature_form``: the metric and flat forms;
* ``compat.find_compatible_screen``: the metric and flat forms (each
  classified inside the call, as the forms are fresh);
* ``curvclass.curvature_from_symmetric_map``: the full-rank and corank-one
  G of the metric and flat forms (digested with the entries' key order);
* ``curvclass.classify_bivector_map``: the wedge square of an invertible B
  (d >= 4);
* ``exactlin.wedge``: two bivectors with every coordinate a small random
  rational (d >= 4; digested with the coordinates' key order);
* ``exactlin.kernel``: integer rows of rank d and d - 1 with 4d rows (below
  the tall-row cut-off of ``exactlin._eliminate``, 8 rows per column) and
  with 16d rows (past it).

Each call's result is also digested (sha256 of its repr), so two runs on
different checkouts can be compared for identical answers.

Each input is seeded by SEED and d; each time is the median (and
quartiles) of REPEATS calls.  The repeats go round all the cases in turn,
so each case's calls are spread over the whole run rather than caught
together in one slow or fast spell of a shared host.

    python3 tools/bench_classify.py                       # this checkout
    python3 tools/bench_classify.py --src OTHER/src --out BENCH_other.json

``--src`` names the ``src`` directory that projdyn is imported from; the
default is the one beside this script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
DIMS = (3, 4, 5, 6)
REPEATS = 21
SEED = 2026


def symmetric_congruence(rng, d, corank=0):
    """P^T diag(a) P with P unit upper triangular and the last ``corank``
    entries of a zero: symmetric of rank d - corank."""
    P = [[(1 if i == j else rng.randint(-1, 1)) if j >= i else 0 for j in range(d)] for i in range(d)]
    a = [rng.choice((1, 2, 3, -1)) if i < d - corank else 0 for i in range(d)]
    return [[Fraction(sum(P[k][i] * a[k] * P[k][j] for k in range(d))) for j in range(d)] for i in range(d)]


def invertible(rng, d):
    """Diagonally dominant, hence invertible, with a few fractions."""
    m = [[Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2, 3))) for _ in range(d)] for _ in range(d)]
    for i in range(d):
        m[i][i] = Fraction(4 * d + rng.randint(0, 2))
    return m


def integer_rows(rng, count, d, rank):
    """count small integer rows of width d spanning a space of dimension rank."""
    basis = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(rank)]
    return [[sum(rng.randint(-2, 2) * b[j] for b in basis) for j in range(d)] for _ in range(count)]


def cases(d):
    """(function name, case label, function, make) tuples: make() builds the
    function's arguments fresh."""
    from projdyn import compat, curvclass, screens
    from projdyn.exactlin import Multivector, kernel, mat_inverse, vector, wedge
    from projdyn.polyintegrals import AntisymmetricForm

    rng = random.Random(f"{SEED}:{d}")
    G_metric = symmetric_congruence(rng, d)
    G_flat = symmetric_congruence(rng, d, corank=1)
    metric = curvclass.curvature_from_symmetric_map(G_metric)
    flat = curvclass.curvature_from_symmetric_map(G_flat)
    quadric = mat_inverse(G_metric)
    tilted = [list(row) for row in quadric]
    tilted[0][0] += 1
    phi = kernel(G_flat)[0]
    B = invertible(rng, d)
    square = curvclass.BivectorMap.wedge_square(B).matrix
    w = vector(d, [rng.randint(-2, 2) or 1 for _ in range(d)])
    common = curvclass.BivectorMap.from_images(
        d, d, [wedge(w, vector(d, [rng.randint(-3, 3) for _ in range(d)])) for _ in curvclass.pair_basis(d)]).matrix

    def fresh_form(form):
        return curvclass.CurvatureForm.from_antisymmetric(AntisymmetricForm._member(d, 2, form.tensor))

    def fresh_map(matrix):
        return curvclass.BivectorMap(d, d, matrix)

    tall = {f"rows_{k}d_rank_{label}": integer_rows(rng, k * d, d, rank)
            for k in (4, 16) for label, rank in (("d", d), ("d-1", d - 1))}

    def bivector():
        return Multivector(d, 2, {pr: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                  for pr in curvclass.pair_basis(d)})

    bivectors = (bivector(), bivector())

    def generated_entries(G):
        return list(curvclass.curvature_from_symmetric_map(G).tensor.entries.items())

    return [
        ("compatibility_check", "metric_quadric",
         compat.compatibility_check, lambda: (fresh_form(metric), screens.QuadraticRootScreen(quadric))),
        ("compatibility_check", "flat_hyperplane",
         compat.compatibility_check, lambda: (fresh_form(flat), screens.LinearFormScreen(phi))),
        ("compatibility_check", "metric_tilted_quadric",
         compat.compatibility_check, lambda: (fresh_form(metric), screens.QuadraticRootScreen(tilted))),
        ("_recover_square_root", "wedge_square",
         curvclass._recover_square_root, lambda: (fresh_map(square),)),
        ("_recover_square_root", "metric_form_map",
         curvclass._recover_square_root, lambda: (fresh_form(metric).bivector_map(),)),
        ("_wedge_annihilator", "wedge_square",
         curvclass._wedge_annihilator, lambda: (fresh_map(square),)),
        ("_wedge_annihilator", "common_factor",
         curvclass._wedge_annihilator, lambda: (fresh_map(common),)),
        ("AntisymmetricForm.kernel", "metric",
         AntisymmetricForm.kernel, lambda: (fresh_form(metric).form,)),
        ("AntisymmetricForm.kernel", "flat",
         AntisymmetricForm.kernel, lambda: (fresh_form(flat).form,)),
        ("classify_curvature_form", "metric",
         curvclass.classify_curvature_form, lambda: (fresh_form(metric),)),
        ("classify_curvature_form", "flat",
         curvclass.classify_curvature_form, lambda: (fresh_form(flat),)),
        ("find_compatible_screen", "metric",
         compat.find_compatible_screen, lambda: (fresh_form(metric),)),
        ("find_compatible_screen", "flat",
         compat.find_compatible_screen, lambda: (fresh_form(flat),)),
        ("curvature_from_symmetric_map", "metric", generated_entries, lambda: (G_metric,)),
        ("curvature_from_symmetric_map", "flat", generated_entries, lambda: (G_flat,)),
    ] + [
        ("classify_bivector_map", "wedge_square", curvclass.classify_bivector_map, lambda: (fresh_map(square),)),
        ("wedge", "bivectors", wedge, lambda: bivectors),
    ] * (d >= 4) + [
        ("kernel", label, kernel, lambda rows=rows: ([list(row) for row in rows],)) for label, rows in tall.items()]


def digest(value):
    if hasattr(value, "to_json"):
        value = value.to_json()
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(HERE, os.pardir, "src"),
                        help="the src directory to import projdyn from")
    parser.add_argument("--out", default=os.path.join(HERE, os.pardir, "BENCH_classify.json"))
    parser.add_argument("--label", default="this checkout", help="names the timed checkout in the JSON")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    import numpy

    timed = [(f"d{d}", *case) for d in DIMS for case in cases(d)]
    for _, _, _, fn, make in timed:
        fn(*make())  # warm-up: lazy imports and first-call caches
    times = [[] for _ in timed]
    digests = [set() for _ in timed]
    for _ in range(REPEATS):
        for k, (_, _, _, fn, make) in enumerate(timed):
            call = make()
            start = time.perf_counter()
            value = fn(*call)
            times[k].append((time.perf_counter() - start) * 1e3)
            digests[k].add(digest(value))
    results = {}
    for (dim, name, label, _, _), case_times, case_digests in zip(timed, times, digests):
        q1, median, q3 = statistics.quantiles(case_times, n=4)
        results.setdefault(name, {}).setdefault(dim, {})[label] = {
            "median_ms": round(median, 4), "q1_ms": round(q1, 4), "q3_ms": round(q3, 4),
            "result_sha256": sorted(case_digests),
        }
    report = {
        "tool": "tools/bench_classify.py",
        "seed": SEED,
        "repeats": REPEATS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
        "label": args.label,
        "results": results,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, per in results.items():
        for dim, by_case in per.items():
            for label, case in by_case.items():
                print(f"{name:26s} {dim} {label:22s} {case['median_ms']:9.3f} ms")


if __name__ == "__main__":
    main()
