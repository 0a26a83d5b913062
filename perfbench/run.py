"""projdyn benchmark: one seeded workload driven by one closed-loop caller.

    python3 perfbench/run.py --workload exact-chain --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; projdyn is imported from ``src/`` of that
checkout, never from an installed copy.  The seed generates every input;
the program sees only the generated inputs.  Each workload runs whole
rounds (a fixed list of request kinds with seeded inputs) for about
``--seconds``, one request at a time in this process.

Times are scaled to a reference host speed (``common.HostSpeed``): a short
probe that does not use projdyn runs next to the requests, and each time is
multiplied by the probe's reference duration over its measured one.  The
wall-clock figures are printed beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, records a span around each of the benchmark's
calls into a projdyn module, prints the per-layer metrics and
``trace.overhead_ratio``, and writes the spans as JSON lines under
``.perfbench-out/``.  The last line of standard output is always one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("exact-chain", "orbits", "cli-requests")
SETUP_SAMPLES = 5


def import_projdyn():
    """Import projdyn from this checkout's ``src/``; exits without a result
    when the sources are missing."""
    if not (SRC / "projdyn" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'projdyn'} is missing; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import projdyn

    if Path(projdyn.__file__).resolve().parent != (SRC / "projdyn").resolve():
        sys.exit(f"perfbench: imported projdyn from {projdyn.__file__}, not from {SRC}")
    return projdyn


def build(name, seed, tmpdir, tracer, tiny=False):
    """Set-up: import projdyn, generate the first round, construct screens and
    forces, and warm every layer with one tiny round of each workload.

    Returns (workload, first round, number of failed warm-up requests)."""
    import_projdyn()
    import cli_requests
    import exact_chain
    import orbits

    def make(which, small):
        if which == "cli-requests":
            return cli_requests.Workload(tmpdir, tiny=small)
        return {"exact-chain": exact_chain.Workload, "orbits": orbits.Workload}[which](tiny=small)

    workload = make(name, tiny)
    first = workload.round(random.Random(f"{seed}:0"))
    failed = 0
    for which in WORKLOADS:
        for req in make(which, True).round(random.Random(f"{seed}:warmup")):
            failed += not run_request(req, tracer)[0]
    # work counts per round cover the workload's own rounds only
    tracer.warmup_counters, tracer.counters = tracer.counters, {}
    return workload, first, failed


def run_request(req, tracer):
    """Returns (ok, seconds, error text)."""
    tracer.request_id += 1
    for key, n in req.counts.items():
        tracer.count(key, n)
    error = None
    start = perf_counter()
    try:
        req.run(tracer)
    except Exception:  # any escape is a failed request; keep the traceback
        error = traceback.format_exc(limit=4)
    end = perf_counter()
    if tracer.enabled:
        tracer.requests.append((tracer.request_id, req.kind, start, end))
    return error is None, end - start, error


def timed_setup(args, tmpdir, tracer, start):
    """Set up; returns (workload, first round, failed warm-up requests,
    set-up seconds scaled to the reference host speed).  ``start`` is taken
    before projdyn is imported.  The speed probe runs after the set-up, so
    that it imports nothing the set-up would."""
    from common import HostSpeed

    workload, first, failed = build(args.workload, args.seed, tmpdir, tracer, args.tiny)
    elapsed = perf_counter() - start
    return workload, first, failed, elapsed * HostSpeed.REFERENCE_S / HostSpeed.probe()


def setup_only(args):
    """Child process: one set-up from a fresh interpreter."""
    start = perf_counter()
    from common import Tracer  # imports numpy, which importing projdyn would

    tmpdir = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        _, _, failed, seconds = timed_setup(args, tmpdir, Tracer(), start)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps({"setup_s": seconds, "failed": failed}))
    return 0


def setup_samples(args, count):
    out = []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            sys.exit(f"perfbench: timed set-up failed:\n{proc.stderr}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        if sample["failed"]:
            sys.exit("perfbench: timed set-up saw failed warm-up requests")
        out.append(sample["setup_s"])
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny rounds (smoke test of the benchmark)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        return setup_only(args)

    start = perf_counter()
    from common import Tracer  # imports numpy, which importing projdyn would

    tracer = Tracer()
    tracer.enabled = bool(args.trace)
    tmpdir = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        workload, first, warm_failed, setup = timed_setup(args, tmpdir, tracer, start)
        setups = [setup] + setup_samples(args, (2 if args.tiny else SETUP_SAMPLES) - 1)
        result = measure(workload, first, args, tracer)
        malformed = probe_malformed(args, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return report(args, result, setups, warm_failed, malformed, tracer)


def probe_malformed(args, tmpdir):
    import cli_requests

    probe = cli_requests.Workload(tmpdir)
    return probe.malformed_probe(random.Random(f"{args.seed}:malformed"), os.path.join(
        tmpdir, "integrate-kepler-a.csv"))


class Result:
    def __init__(self):
        self.samples = []  # (slot, wall seconds, scaled seconds), untraced rounds
        self.traced = []
        self.probes = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.rounds = 0
        self.traced_rounds = 0


def measure(workload, first, args, tracer):
    """Whole rounds for about ``--seconds``: another round starts while the
    time used plus half the last round's time is short of the budget.  With
    tracing, untraced and traced rounds alternate (at least one of each)."""
    from common import HostSpeed

    res = Result()
    speed = HostSpeed()
    reqs = first
    start = last = perf_counter()
    min_rounds = 2 if args.trace else 1
    while res.rounds < min_rounds or 1.5 * perf_counter() - 0.5 * last - start < args.seconds:
        last = perf_counter()
        tracer.enabled = bool(args.trace) and res.rounds % 2 == 1
        sink = res.traced if tracer.enabled else res.samples
        for req in reqs:
            before = speed.current()
            ok, seconds, error = run_request(req, tracer)
            after = speed.current()
            res.probes.append(after)
            res.attempted += 1
            if ok:
                sink.append((req.slot, seconds, speed.normalize(seconds, before, after)))
            else:
                res.failed += 1
                if len(res.errors) < 3:
                    res.errors.append(f"{req.kind}: {error}")
        res.rounds += 1
        res.traced_rounds += tracer.enabled
        reqs = workload.round(random.Random(f"{args.seed}:{res.rounds}"))
    tracer.enabled = False
    return res


def _ops_per_s(seconds):
    return len(seconds) / sum(seconds) if seconds else 0.0


def _slot_deciles(samples, column):
    """Deciles, across the round's requests, of each request's median time
    over the rounds; the median drops the seconds a slow host phase hits."""
    by_slot = {}
    for sample in samples:
        by_slot.setdefault(sample[0], []).append(sample[column])
    typical = [statistics.median(v) for v in by_slot.values()] or [0.0]
    return statistics.quantiles(typical, n=10) if len(typical) > 1 else typical * 9


def report(args, res, setups, warm_failed, malformed, tracer):
    import numpy
    import layers
    from common import HostSpeed

    n = len(res.samples)
    scaled = [s for _, _, s in res.samples]
    deciles = _slot_deciles(res.samples, 2)
    kinds = len({slot for slot, _, _ in res.samples})
    note = f"n={n}: {kinds} requests per round, each its median over {res.rounds} rounds"
    metrics = {
        "ops_per_s": (_ops_per_s(scaled), "1/s", f"{n} requests in {res.rounds} rounds"),
        "op_p50_ms": (1e3 * deciles[4], "ms", note),
        "op_p90_ms": (1e3 * deciles[8], "ms", note),
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} fresh interpreters"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "this process"),
    }
    exit2 = sum(code == 2 for code in malformed.values()) / len(malformed)
    if args.trace:
        metrics = layers.metrics(tracer, res.traced_rounds, exit2)
        untraced = _ops_per_s(scaled)
        metrics["trace.overhead_ratio"] = (
            _ops_per_s([s for _, _, s in res.traced]) / untraced if untraced else 0.0, "ratio",
            "traced ops/s over untraced ops/s, alternating rounds")
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        layers.write_spans(tracer, out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")

    print(f"# projdyn benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} python={sys.version.split()[0]} numpy={numpy.__version__} nproc={os.cpu_count()}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name} {value:.6g} {unit}  ({note})")
    wall = _slot_deciles(res.samples, 1)
    probe = statistics.median(res.probes) if res.probes else 0.0
    print(f"# wall clock, unscaled: ops_per_s {_ops_per_s([w for _, w, _ in res.samples]):.6g} 1/s, "
          f"op_p50_ms {1e3 * wall[4]:.6g} ms, op_p90_ms {1e3 * wall[8]:.6g} ms; "
          f"median host probe {1e3 * probe:.4g} ms, reference {1e3 * HostSpeed.REFERENCE_S:g} ms")
    print("# malformed requests (documented exit 2): "
          + ", ".join(f"{k} -> {v}" for k, v in malformed.items()))
    for err in res.errors:
        print(f"# failed request: {err}", file=sys.stderr)
    failed = res.failed + warm_failed
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
