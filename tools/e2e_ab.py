"""End-to-end A/B of one perfbench workload: a base revision against this checkout.

    python3 tools/e2e_ab.py --base HEAD~1 --workload orbits --pairs 10 --seeds 71 72 73 74 75 76 77 78 79 80

The base revision's committed files are extracted (``git archive``) into a
temporary directory, which is removed at the end.  The change side is the
working tree of the checkout that holds this script.  Each pair runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once on each
side, one process at a time, with the seed of the pair; even pairs run the
base first and odd pairs the change, so that a drift of host speed during
the run reaches both sides alike.  Pair i takes the i-th seed, going round
the list again when there are more pairs than seeds.

For every end-to-end metric of ``BENCHMARK.json`` the report gives the
per-pair values, each side's median and quartiles, the change's median over
the base's, the pairs the change wins, and a verdict against the metric's
bound:

* ``gain`` when there are at least ten pairs, the change wins at least
  nine in ten of them, ties counting for neither side, and its median is
  better than the base's by more than the base's interquartile range;
* ``unresolved`` when either side's interquartile range is wider than the
  bound, relative to the base's median, unless every run of the change
  reads better than every run of the base;
* ``regression`` when the change's median is worse than the base's by more
  than the bound, relative to the base's median;
* ``hold`` otherwise.

It also counts each side's failed requests.  The report goes to
``BENCH_e2e_<workload>.json`` at the root of this checkout (or ``--out``),
and a summary table to standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def extract(rev, into):
    """The committed files of rev, written under the directory into."""
    proc = subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT, stdout=subprocess.PIPE)
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        tar.extractall(into, filter="data")
    if proc.wait() != 0:
        sys.exit(f"e2e_ab: git archive {rev} failed")


def run(checkout, workload, seed, seconds):
    """One perfbench run: its last standard-output line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=20 * seconds + 300)
    if proc.returncode != 0:
        sys.exit(f"e2e_ab: {' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    """(q1, median, q3) of the values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(metric, base, change):
    """(pairs the change wins, its verdict) on one metric, from the per-pair
    values of both sides."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    (b1, b, b3), (c1, c, c3) = spread(base), spread(change)
    bound = metric["bound"] * abs(b)
    wins = sum(sign * (y - x) > 0 for x, y in zip(base, change))
    if len(base) >= 10 and 10 * wins >= 9 * len(base) and sign * (c - b) > b3 - b1:
        return wins, "gain"
    if max(b3 - b1, c3 - c1) > bound and min(sign * y for y in change) <= max(sign * x for x in base):
        return wins, "unresolved"
    return wins, "regression" if sign * (b - c) > bound else "hold"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the git revision to compare this checkout against")
    parser.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    parser.add_argument("--pairs", type=int, help="number of pairs of runs (default: one per seed)")
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="the perfbench seed of each pair")
    parser.add_argument("--seconds", type=float, default=35.0, help="perfbench --seconds of each run")
    parser.add_argument("--out", help="the JSON report (default: BENCH_e2e_<workload>.json at the root)")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        parser.error(f"--workload must be one of {[w['name'] for w in bench['workloads']]}")
    pairs = args.pairs or len(args.seeds)
    if pairs < 1:
        parser.error("--pairs must be at least 1")
    base_rev = git("rev-parse", args.base)
    change_rev = git("describe", "--always", "--dirty", "--abbrev=40")

    tmp = tempfile.mkdtemp(prefix="e2e-ab-")
    rows = []
    try:
        base_dir = os.path.join(tmp, "base")
        extract(base_rev, base_dir)
        sides = {"base": base_dir, "change": ROOT}
        for i in range(pairs):
            seed = args.seeds[i % len(args.seeds)]
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            row = {"seed": seed, "first": order[0]}
            for side in order:
                row[side] = run(sides[side], args.workload, seed, args.seconds)
            rows.append(row)
            print(f"pair {i + 1}/{pairs} seed {seed}: " + ", ".join(
                f"{side} ops_per_s {row[side]['metrics']['ops_per_s']['value']:.4g}" for side in ("base", "change")),
                file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = {side: [row[side]["metrics"][name]["value"] for row in rows] for side in ("base", "change")}
        wins, label = verdict(metric, values["base"], values["change"])
        (b1, b, b3), (c1, c, c3) = spread(values["base"]), spread(values["change"])
        metrics[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "base": {"median": b, "q1": b1, "q3": b3}, "change": {"median": c, "q1": c1, "q3": c3},
            "ratio": c / b if b else None, "wins": wins, "verdict": label,
        }
    import numpy

    report = {
        "tool": "tools/e2e_ab.py", "workload": args.workload, "seconds": args.seconds,
        "base": base_rev, "change": change_rev, "python": platform.python_version(), "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
        "failed": {side: sum(row[side]["failed"] for row in rows) for side in ("base", "change")},
        "pairs": [{"seed": row["seed"], "first": row["first"],
                   **{side: {name: row[side]["metrics"][name]["value"] for name in metrics}
                      for side in ("base", "change")}} for row in rows],
        "metrics": metrics,
    }
    out = args.out or os.path.join(ROOT, f"BENCH_e2e_{args.workload}.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{args.workload}: {pairs} pairs, failed base {report['failed']['base']} change {report['failed']['change']}")
    print(f"{'metric':>12s} {'base':>10s} {'change':>10s} {'ratio':>7s} {'wins':>6s}  verdict (median; bound)")
    for name, m in metrics.items():
        ratio = "-" if m["ratio"] is None else f"{m['ratio']:.3f}"
        print(f"{name:>12s} {m['base']['median']:10.4g} {m['change']['median']:10.4g} {ratio:>7s} "
              f"{m['wins']:>3d}/{pairs:<2d}  {m['verdict']} ({m['better']} is better; {m['bound']:g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
