"""Layer timings of the Young-symmetrizer group algebra and its code sums.

Times fixed inputs, each call on arguments built outside the timer, and
writes the medians and quartiles in ms:

* ``young_scalar``: one exact-chain round (perfbench ``exact-chain``: every
  shape of 4 and 5 boxes in both numberings and the nine 6-box shapes other
  than (6) and (1^6), each in a numbering drawn from SEED), and each shape
  of 4-6 boxes in both numberings and of 7 boxes numbered vertically;
* ``imAS_basis``: the seven exact-chain cases;
* ``imSA_basis`` / ``imAS_basis``: smaller versions of the three slow bases
  of the young-dim cap ((1^6), (6) and (2,2,1,1,1) at lower dimensions);
* ``check_imAS``: the Riemann-symmetric forms of symmetric maps at
  d = 3-5 on the vertical 2x2 tableau (members, so every identity runs);
* ``young-check``: the CLI on one 1,000-box row with one entry (a member);
* ``curvclass._wedge_table``: the bivector map of a metric form, d = 4-6.

Each input is seeded by SEED; each time is the median (and quartiles) of
REPEATS calls.  The run loop, the result digests and the report are those
of ``benchrun.py``: the repeats go round all the cases, and round every
checkout named by ``--src``, in turn.

    python3 tools/bench_young.py                       # this checkout
    python3 tools/bench_young.py --src src --out BENCH_young.json --label "this change" \
        --src OTHER/src --out BENCH_young_parent.json --label "base"

``--src`` names a ``src`` directory that projdyn is imported from; the
default is the one beside this script.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

import benchrun

HERE = os.path.dirname(os.path.abspath(__file__))
REPEATS = 9
SEED = 2026


def partitions(n, most=None):
    """The partitions of n as weakly decreasing row lengths, largest first."""
    most = n if most is None else most
    if n == 0:
        return [()]
    return [(k, *rest) for k in range(min(n, most), 0, -1) for rest in partitions(n - k, k)]


def symmetric_congruence(rng, d):
    """P^T diag(a) P with P unit upper triangular: symmetric of rank d."""
    P = [[(1 if i == j else rng.randint(-1, 1)) if j >= i else 0 for j in range(d)] for i in range(d)]
    a = [rng.choice((1, 2, 3, -1)) for _ in range(d)]
    return [[Fraction(sum(P[k][i] * a[k] * P[k][j] for k in range(d))) for j in range(d)] for i in range(d)]


def cases():
    """((function name, case label), function, make) tuples: make() builds
    the function's arguments fresh."""
    from projdyn import cli, curvclass, young

    rng = random.Random(SEED)
    tableau = young.YoungTableau
    round_tableaux = [tableau(rows, numbering) for n in (4, 5) for rows in partitions(n)
                      for numbering in ("horizontal", "vertical")]
    round_tableaux += [tableau(rows, rng.choice(("horizontal", "vertical")))
                       for rows in partitions(6) if 1 < len(rows) < 6]

    def exact_chain_round(tableaux):
        return [young.young_scalar(t) for t in tableaux]

    out = [("young_scalar", "exact_chain_round", exact_chain_round, lambda: (round_tableaux,))]
    for n in (4, 5, 6, 7):
        for rows in partitions(n):
            for numbering in ("horizontal", "vertical") if n < 7 else ("vertical",):
                t = tableau(rows, numbering)
                out.append(("young_scalar", f"{'x'.join(map(str, rows))}_{numbering}", young.young_scalar,
                            lambda t=t: (t,)))
    for columns, dim in (([2, 2], 3), ([2, 2], 4), ([2, 2], 5), ([2, 2, 2], 3), ([3, 2], 4), ([2, 1], 3), ([2, 1], 4)):
        t = tableau.from_columns(columns)
        out.append(("imAS_basis", f"{'x'.join(map(str, columns))}_d{dim}", young.imAS_basis, lambda t=t, dim=dim: (t, dim)))
    for rows, dim, numbering in (((1,) * 6, 9, "horizontal"), ((6,), 6, "vertical"), ((2, 2, 1, 1, 1), 6, "horizontal")):
        t = tableau(rows, numbering)
        basis = young.imAS_basis if numbering == "vertical" else young.imSA_basis
        out.append((basis.__name__, f"{'x'.join(map(str, rows))}_d{dim}", basis, lambda t=t, dim=dim: (t, dim)))
    riemann = tableau.from_columns([2, 2])
    for d in (3, 4, 5):
        form = curvclass.curvature_from_symmetric_map(symmetric_congruence(rng, d))
        out.append(("check_imAS", f"metric_d{d}", young.check_imAS, lambda form=form: (riemann, form.tensor)))
    boxes = 1000
    argv = ["young-check", "--tableau", json.dumps({"rows": [boxes], "numbering": "horizontal"}),
            "--tensor", json.dumps({"dim": 2, "order": boxes, "entries": [{"idx": [0] * boxes, "val": "1/1"}]}),
            "--output", os.devnull]
    out.append(("young-check", f"row_{boxes}", cli.main, lambda: (list(argv),)))
    for d in (4, 5, 6):
        form = curvclass.curvature_from_symmetric_map(symmetric_congruence(rng, d))
        cols, _ = form.bivector_map().cleared()
        entries = [(k, w, x, c) for k, col in enumerate(cols) for (w, x), c in col.items()]
        out.append(("_wedge_table", f"metric_d{d}", curvclass._wedge_table, lambda d=d, entries=entries: (d, d, entries)))
    return [((name, label), fn, make) for name, label, fn, make in out]


if __name__ == "__main__":
    benchrun.main("tools/bench_young.py", __doc__, cases, REPEATS, SEED, os.path.join(HERE, os.pardir, "BENCH_young.json"))
