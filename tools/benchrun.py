"""The run loop, result digest and JSON report shared by the layer benches
(``bench_classify.py``, ``bench_young.py``, ``bench_pbb.py`` and
``bench_screens.py``).

A bench gives a list of cases, each a (keys, function, make) triple: keys
is the path of the case in the report's ``results``, and make() builds the
function's arguments fresh, outside the timer, so a value memoized on an
argument is not reused across repeats.

Each ``--src`` names a ``src`` directory that projdyn is imported from, and
gets one worker process, which builds the cases once and calls each of them
once to warm up (lazy imports and first-call caches).  Each repeat then
goes round every checkout in turn, one round of all the cases in one worker
at a time, and the next repeat goes round them in the opposite order.  So
the repeats of each case are spread over the whole run, and a change of
host speed during the run reaches every checkout alike.

Each call's result is digested (sha256 of its repr, or of its JSON form),
so runs on different checkouts can be compared for identical answers.
Each checkout's medians and quartiles (in ms) and digests go to its own
``--out`` file, named by its ``--label``.  The printed table gives each
case's medians and, for every later checkout, its median's ratio to the
first checkout's.  A case is flagged ``noisy`` when, for some later
checkout, the interquartile range of it or of the first, over its own
median, is wider than |ratio - 1|: that ratio is inside the spread of the
runs and tells no difference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, os.pardir, "src")


def digest(value):
    """The first 16 hex digits of the sha256 of the value's repr, taken on
    its JSON form when it has one, on its entries when it is a list of
    tensors and on its arrays when it is a wedge table."""
    if hasattr(value, "to_json"):
        value = value.to_json()
    elif isinstance(value, list) and value and hasattr(value[0], "entries"):
        value = [list(t.entries.items()) for t in value]
    elif hasattr(value, "codes"):
        value = (value.codes.tolist(), value.values.tolist(), value.preserves)
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _worker(src, cases, conn):
    """Import projdyn from src, build and warm up the cases, then time one
    round of them for each request until a false one comes."""
    sys.path.insert(0, os.path.abspath(src))
    import numpy

    timed = cases()
    for _, fn, make in timed:
        fn(*make())
    conn.send((platform.python_version(), numpy.__version__, [keys for keys, _, _ in timed]))
    while conn.recv():
        row = []
        for _, fn, make in timed:
            call = make()
            start = time.perf_counter()
            value = fn(*call)
            row.append(((time.perf_counter() - start) * 1e3, digest(value)))
        conn.send(row)


def main(tool, doc, cases, repeats, seed, default_out, argv=None):
    """Parse the options of a bench whose module docstring is doc, time
    its cases on every checkout and write one report per checkout."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("--src", action="append",
                        help="a src directory to import projdyn from, once per checkout (default: the one "
                             "beside this script)")
    parser.add_argument("--out", action="append", help="the JSON report of each --src, in order")
    parser.add_argument("--label", action="append", help="names each --src in its report, in order")
    args = parser.parse_args(argv)
    srcs = args.src or [SRC]
    outs = args.out or ([default_out] if len(srcs) == 1 else [])
    labels = args.label or (["this checkout"] if len(srcs) == 1 else [])
    if not len(srcs) == len(outs) == len(labels):
        parser.error("give one --out and one --label for each --src")

    context = multiprocessing.get_context("spawn")
    workers = []
    for src in srcs:
        conn, child = context.Pipe()
        proc = context.Process(target=_worker, args=(src, cases, child))
        proc.start()
        workers.append((proc, conn))
    hellos = [conn.recv() for _, conn in workers]
    rows = [[] for _ in workers]
    for r in range(repeats):
        order = range(len(workers)) if r % 2 == 0 else reversed(range(len(workers)))
        for w in order:
            workers[w][1].send(True)
            rows[w].append(workers[w][1].recv())
    for proc, conn in workers:
        conn.send(False)
        proc.join()

    columns = []
    for (python, numpy_version, keys), runs, label, out in zip(hellos, rows, labels, outs):
        results, column = {}, []
        for k, path in enumerate(keys):
            times = [run[k][0] for run in runs]
            q1, median, q3 = statistics.quantiles(times, n=4)
            node = results
            for key in path[:-1]:
                node = node.setdefault(key, {})
            node[path[-1]] = {
                "median_ms": round(median, 4), "q1_ms": round(q1, 4), "q3_ms": round(q3, 4),
                "result_sha256": sorted({run[k][1] for run in runs}),
            }
            column.append((median, (q3 - q1) / median))
        columns.append(column)
        report = {"tool": tool, "seed": seed, "repeats": repeats, "python": python, "numpy": numpy_version,
                  "cpus": os.cpu_count(), "label": label, "results": results}
        with open(out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    ratios = [f"{'ratio ' + label:>12.12s}" for label in labels[1:]]
    print(" ".join([f"{label:>12.12s}" for label in labels] + ratios), "  (median ms, ratio to the first)")
    for k, path in enumerate(hellos[0][2]):
        (base, base_spread), *rest = [column[k] for column in columns]
        ratio = [median / base for median, _ in rest]
        noisy = any(max(base_spread, spread) > abs(r - 1) for (_, spread), r in zip(rest, ratio))
        print(" ".join([f"{column[k][0]:12.3f}" for column in columns] + [f"{r:12.3f}" for r in ratio]),
              "noisy" if noisy else "     ", " ".join(path))
