"""Per-layer metrics from the spans and counters of a traced run.

A layer is a projdyn module.  ``busy_s`` sums the spans of the benchmark's
calls into that module, so it includes the lower layers those calls reach.
``busy_s``, ``calls``, the per-call means and the screens ratios cover the
traced rounds plus the warm-up of set-up, so a layer the workload leaves
idle shows only its warm-up calls.  Work counts are per traced round of the
workload itself, without the warm-up, and repeat exactly for a given seed.
"""

from __future__ import annotations

import json

LAYERS = ("exactlin", "young", "polynomials", "polyintegrals", "curvclass", "compat", "screens", "cli")

# metric -> (span name, scale to the unit, unit)
PER_CALL = {
    "exactlin.rref_ms": ("exactlin.rref", 1e3, "ms"),
    "exactlin.wedge_us": ("exactlin.wedge", 1e6, "us"),
    "young.scalar_ms": ("young.young_scalar", 1e3, "ms"),
    "young.basis_ms": ("young.imAS_basis", 1e3, "ms"),
    "polynomials.mul_us": ("polynomials.Poly.__mul__", 1e6, "us"),
    "polynomials.substitute_ms": ("polynomials.Poly.substitute", 1e3, "ms"),
    "polyintegrals.basis_ms": ("polyintegrals.impulsion_poly_basis", 1e3, "ms"),
    "polyintegrals.antisym_ms": ("polyintegrals.antisymmetric", 1e3, "ms"),
    "polyintegrals.homogenize_ms": ("polyintegrals.homogenize_polynomial", 1e3, "ms"),
    "polyintegrals.gdot_ms": ("polyintegrals.gdot", 1e3, "ms"),
    "curvclass.classify_form_ms": ("curvclass.classify_curvature_form", 1e3, "ms"),
    "curvclass.classify_map_ms": ("curvclass.classify_bivector_map", 1e3, "ms"),
    "curvclass.preserves_ms": ("curvclass.preserves_decomposables", 1e3, "ms"),
    "curvclass.generate_ms": ("curvclass.curvature_from_symmetric_map", 1e3, "ms"),
    "compat.hamiltonian_test_ms": ("compat.hamiltonian_test", 1e3, "ms"),
    "compat.screen_find_ms": ("compat.find_compatible_screen", 1e3, "ms"),
    "screens.integrate_ms": ("screens.integrate", 1e3, "ms"),
    "screens.project_us": ("screens.central_project_state", 1e6, "us"),
    "screens.interpolate_us": ("screens.TrajectorySample.interpolate", 1e6, "us"),
}
COUNTERS = ("exactlin.matrix_cells", "young.compose_products", "polynomials.terms_out",
            "screens.steps_accepted", "screens.rhs_evals")
CLI_SUBCOMMANDS = ("young_dim", "young_check", "pbb_dim", "classify", "classify_curvature",
                   "screen_find", "hamiltonian_test", "integrate", "project")


def _durations(tracer):
    out = {}
    for name, start, end, _ in tracer.spans:
        out.setdefault(name, []).append(end - start)
    return out


def _mean(values, scale):
    return scale * sum(values) / len(values) if values else 0.0


def metrics(tracer, traced_rounds, malformed_exit2):
    """name -> (value, unit, note) for every per-layer metric."""
    spans = _durations(tracer)
    out = {}
    for layer in LAYERS:
        mine = [d for name, ds in spans.items() if name.split(".")[0] == layer for d in ds]
        out[f"{layer}.busy_s"] = (sum(mine), "s", "sum of spans, lower layers included")
        out[f"{layer}.calls"] = (len(mine), "count", "spans")
    for metric, (name, scale, unit) in PER_CALL.items():
        out[metric] = (_mean(spans.get(name, []), scale), unit, f"mean of {len(spans.get(name, []))} calls")
    for counter in COUNTERS:
        out[counter] = (tracer.counters.get(counter, 0) / traced_rounds, "count", "per traced round")

    def total(counter):
        return tracer.counters.get(counter, 0) + tracer.warmup_counters.get(counter, 0)

    steps = total("screens.steps_accepted")
    integrate_s = sum(spans.get("screens.integrate", []))
    out["screens.rhs_per_step"] = (total("screens.rhs_evals") / steps if steps else 0.0,
                                   "ratio", "right-hand-side evaluations per accepted step")
    out["screens.steps_per_s"] = (steps / integrate_s if integrate_s else 0.0, "1/s",
                                  "accepted steps per second of integrate")
    csv = spans.get("screens.TrajectorySample.to_csv", []) + spans.get("screens.TrajectorySample.from_csv", [])
    writes = len(spans.get("screens.TrajectorySample.to_csv", []))
    out["screens.csv_ms"] = (1e3 * sum(csv) / writes if writes else 0.0, "ms", f"to_csv + from_csv, {writes} trips")
    for sub in CLI_SUBCOMMANDS:
        ds = spans.get(f"cli.cmd_{sub}", [])
        out[f"cli.{sub}_ms"] = (_mean(ds, 1e3), "ms", f"mean of {len(ds)} calls")
    out["cli.malformed_exit2_ratio"] = (malformed_exit2, "ratio", "malformed requests that exit 2")
    return out


def write_spans(tracer, path):
    kinds = {rid: kind for rid, kind, _, _ in tracer.requests}
    with open(path, "w") as fh:
        for rid, kind, start, end in tracer.requests:
            fh.write(json.dumps({"name": f"request.{kind}", "start": start, "end": end,
                                 "parent": None, "request": rid}) + "\n")
        for name, start, end, rid in tracer.spans:
            parent = f"request.{kinds[rid]}" if rid in kinds else None
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "request": rid}) + "\n")
