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
* ``curvclass.classify_bivector_map`` (d >= 4): the wedge square of an
  invertible B, the map with a common wedge factor (phi), the wedge square
  of B with its last row zeroed (zeta), and at d = 4 the star composition
  of the wedge square of B;
* ``exactlin.wedge``: two bivectors with every coordinate a small random
  rational (d >= 4; digested with the coordinates' key order);
* ``exactlin.kernel``: integer rows of rank d and d - 1 with 4d rows (below
  the tall-row cut-off of ``exactlin._eliminate``, 8 rows per column) and
  with 16d rows (past it).

Each input is seeded by SEED and d; each time is the median (and
quartiles) of REPEATS calls.  The run loop, the result digests and the
report are those of ``benchrun.py``: the repeats go round all the cases,
and round every checkout named by ``--src``, in turn.

    python3 tools/bench_classify.py                       # this checkout
    python3 tools/bench_classify.py --src src --out BENCH_classify.json --label "this change" \
        --src OTHER/src --out BENCH_classify_parent.json --label "base"

``--src`` names a ``src`` directory that projdyn is imported from; the
default is the one beside this script.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

import benchrun

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


def dim_cases(d):
    """(function name, case label, function, make) tuples at dimension d:
    make() builds the function's arguments fresh."""
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
    inside = curvclass.BivectorMap.wedge_square(B[:-1] + [[Fraction(0)] * d]).matrix
    star = curvclass.BivectorMap.wedge_square(B).star_compose().matrix if d == 4 else None

    def fresh_form(form):
        """The form with nothing built on it yet; an older checkout's
        CurvatureForm wraps an AntisymmetricForm."""
        if issubclass(curvclass.CurvatureForm, AntisymmetricForm):
            return curvclass.CurvatureForm._member(d, 2, form.tensor)
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
         AntisymmetricForm.kernel, lambda: (AntisymmetricForm._member(d, 2, metric.tensor),)),
        ("AntisymmetricForm.kernel", "flat",
         AntisymmetricForm.kernel, lambda: (AntisymmetricForm._member(d, 2, flat.tensor),)),
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
        ("classify_bivector_map", "phi", curvclass.classify_bivector_map, lambda: (fresh_map(common),)),
        ("classify_bivector_map", "zeta", curvclass.classify_bivector_map, lambda: (fresh_map(inside),)),
        ("wedge", "bivectors", wedge, lambda: bivectors),
    ] * (d >= 4) + [
        ("classify_bivector_map", "star", curvclass.classify_bivector_map, lambda: (fresh_map(star),)),
    ] * (d == 4) + [
        ("kernel", label, kernel, lambda rows=rows: ([list(row) for row in rows],)) for label, rows in tall.items()]


def cases():
    """The cases of every dimension, keyed (function name, "d<d>", case
    label) in the report."""
    return [((name, f"d{d}", label), fn, make) for d in DIMS for name, label, fn, make in dim_cases(d)]


if __name__ == "__main__":
    benchrun.main("tools/bench_classify.py", __doc__, cases, REPEATS, SEED,
                  os.path.join(HERE, os.pardir, "BENCH_classify.json"))
