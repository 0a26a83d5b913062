"""CLI subcommands: exit codes, determinism, and round trips."""

import contextlib
import copy
import hashlib
import io
import json
import os
import stat
import time
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projdyn import cli, polyintegrals, screens, young
from projdyn.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_young_dim(capsys):
    code, out = run(capsys, "young-dim", "--rows", "2,2", "--dim", "4")
    assert code == 0 and out.strip() == "20"
    code, out = run(capsys, "young-dim", "--rows", "2,2", "--dim", "3")
    assert code == 0 and out.strip() == "6"


def test_young_dim_accepts_inputs_inside_both_caps(capsys):
    # (2,2) over 12: 78^2 * 16 = 97,344 products and class dimension 1716;
    # (2) over 62: 3,906 products and class dimension 1953
    code, out = run(capsys, "young-dim", "--rows", "2,2", "--dim", "12")
    assert code == 0 and out.strip() == "1716"
    code, out = run(capsys, "young-dim", "--rows", "2", "--dim", "62")
    assert code == 0 and out.strip() == "1953"


def test_pbb_dim(capsys):
    code, out = run(capsys, "pbb-dim", "--n", "2", "--b", "2")
    assert code == 0 and out.strip() == "6"
    code, out = run(capsys, "pbb-dim", "--n", "3", "--b", "2")
    assert code == 0 and out.strip() == "20"


def test_pbb_dim_at_the_largest_n_and_b_prints_the_whole_answer(capsys):
    # the largest answer stays under Python's default limit on int-to-str digits
    code, out = run(capsys, "pbb-dim", "--n", str(screens.MAX_SCREEN_DIM), "--b", str(polyintegrals.MAX_PBB_DEGREE))
    assert code == 0 and out.strip().isdigit() and len(out.strip()) == 1032


def test_young_check_member_and_non_member(capsys):
    tableau = json.dumps({"rows": [1, 1], "numbering": "vertical"})
    antisym = json.dumps({
        "dim": 2, "order": 2,
        "entries": [{"idx": [0, 1], "val": "1/1"}, {"idx": [1, 0], "val": "-1/1"}],
    })
    code, out = run(capsys, "young-check", "--tableau", tableau, "--tensor", antisym)
    assert code == 0 and json.loads(out)["member"] is True
    sym = json.dumps({"dim": 2, "order": 2, "entries": [{"idx": [0, 0], "val": "1/1"}]})
    code, out = run(capsys, "young-check", "--tableau", tableau, "--tensor", sym)
    assert code == 1 and json.loads(out)["member"] is False


def test_young_check_of_a_400_box_row_states_one_identity_per_adjacent_pair(capsys):
    # one row of 400 boxes is the symmetric class: 399 adjacent transpositions
    # decide it, where every pair would be 79,800 identities on 2**400 codes
    tableau = json.dumps({"rows": [400], "numbering": "horizontal"})
    for idx, code in (([0] * 400, 0), ([1] + [0] * 399, 1)):
        tensor = json.dumps({"dim": 2, "order": 400, "entries": [{"idx": idx, "val": "1/1"}]})
        assert run(capsys, "young-check", "--tableau", tableau, "--tensor", tensor) == (
            code, '{"class":"image_of_SA","member":%s}\n' % ("false" if code else "true"))


def test_young_check_of_a_1500_box_row_builds_one_radix(capsys):
    # past 2**62 the radix is a row of 1,500 Python ints: built once per check,
    # not once for each of the 1,499 identities, which took about 2 s
    young._radix.cache_clear()
    tableau = json.dumps({"rows": [1500], "numbering": "horizontal"})
    tensor = json.dumps({"dim": 2, "order": 1500, "entries": [{"idx": [0] * 1500, "val": "1/1"}]})
    result = run(capsys, "young-check", "--tableau", tableau, "--tensor", tensor)
    assert result == (0, '{"class":"image_of_SA","member":true}\n')
    assert young._radix.cache_info().misses == 1


def _row_check_argv(boxes, entries):
    """young-check of one row of ``boxes`` boxes against ``entries`` distinct entries."""
    tableau = json.dumps({"rows": [boxes], "numbering": "horizontal"})
    rows = [[(i >> k) & 1 for k in range(boxes)] for i in range(entries)]
    tensor = json.dumps({"dim": 2, "order": boxes, "entries": [{"idx": idx, "val": "1/1"} for idx in rows]})
    return ["young-check", "--tableau", tableau, "--tensor", tensor]


@pytest.mark.parametrize("boxes, entries, cap", [
    (cli.MAX_YOUNG_CHECK_BOXES, 1, None),
    (cli.MAX_YOUNG_CHECK_BOXES + 1, 1, cli.MAX_YOUNG_CHECK_BOXES),
    (1000, 4, None),
    (1000, 5, cli.MAX_YOUNG_CHECK_WORK),
    (4, 4, None),
], ids=["row-at-the-box-cap", "row-past-the-box-cap", "entries-at-the-work-cap", "entries-past-the-work-cap",
        "small-row"])
def test_young_check_caps_its_work_from_the_input_shape(capsys, boxes, entries, cap):
    # the caps are read before any identity is built: an over-cap input exits 2 at once
    start = time.perf_counter()
    code = main(_row_check_argv(boxes, entries))
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    if cap is None:
        assert code in (0, 1) and err == ""
    else:
        assert code == 2 and err.startswith("input error:") and f"at most {cap}" in err
        assert elapsed < 1.0


def _diagonal_metric_argv(command, dim, kernel):
    """``command`` on the metric form of diag(1, 2, ..., 0, ..., 0) over ``dim``
    coordinates, the last ``kernel`` of them in its kernel."""
    from projdyn.curvclass import CurvatureForm, metric_form_tensor

    g = [[(i + 1 if i < dim - kernel else 0) * (i == j) for j in range(dim)] for i in range(dim)]
    return [command, "--input", json.dumps(CurvatureForm(metric_form_tensor(g)).to_json())]


@pytest.mark.parametrize("command", ["classify-curvature", "screen-find"])
@pytest.mark.parametrize("dim, kernel, capped", [
    (cli.MAX_CLASSIFY_RANK, 0, False),
    (cli.MAX_CLASSIFY_RANK + 1, 0, True),
    (cli.MAX_CLASSIFY_RANK + 4, 4, False),
    (cli.MAX_CLASSIFY_RANK + 4, 3, True),
], ids=["rank-at-the-cap", "rank-past-the-cap", "rank-at-the-cap-with-a-kernel", "rank-past-the-cap-with-a-kernel"])
def test_curvature_commands_cap_the_classified_rank(capsys, command, dim, kernel, capped):
    # the rank (dim minus the kernel's dimension) is read before the bivector
    # map is built: an over-cap form exits 2 at once, and a form with a kernel
    # is capped by its rank, not its dim (screen-find classifies the quotient)
    argv = _diagonal_metric_argv(command, dim, kernel)
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    if capped:
        assert code == 2 and out == "" and err.startswith("input error:")
        assert f"rank {dim - kernel}" in err and f"at most {cli.MAX_CLASSIFY_RANK}" in err
        assert elapsed < 1.0
    else:
        verdict = json.loads(out)
        assert err == ""
        if command == "screen-find":
            assert code == 0 and verdict["verdict"] == ("cylindric" if kernel else "quadric")
        else:
            assert (code, verdict.get("case", verdict.get("error"))) == ((1, "kernel_not_trivial") if kernel else (0, "metric"))


def _dense_metric_argv(command, dim):
    """``command`` on the metric form of a G with every entry nonzero."""
    from projdyn.curvclass import CurvatureForm, metric_form_tensor

    g = [[(dim + 1 if i == j else 0) + (i + 1) * (j + 1) % 5 + 1 for j in range(dim)] for i in range(dim)]
    return [command, "--input", json.dumps(CurvatureForm(metric_form_tensor(g)).to_json())]


@pytest.mark.parametrize("command", ["classify-curvature", "screen-find"])
@pytest.mark.parametrize("dim, entries, capped", [(10, 7060, False), (12, 14424, True)],
                         ids=["entries-under-the-cap", "entries-past-the-cap"])
def test_curvature_commands_cap_the_entry_count(capsys, command, dim, entries, capped):
    # the entry count is read before the wedge table, which grows with its
    # square, is built: a dense form past the cap exits 2 at once
    argv = _dense_metric_argv(command, dim)
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    if capped:
        assert code == 2 and out == "" and err.startswith("input error:")
        assert f"{entries} entries, at most {cli.MAX_CLASSIFY_ENTRIES}" in err
        assert elapsed < 1.0
    else:
        assert code == 0 and err == ""
        verdict = json.loads(out)
        assert verdict.get("case", verdict.get("verdict")) == ("metric" if command == "classify-curvature" else "quadric")


@pytest.mark.parametrize("dim, dense, entries, capped",
                         [(10, True, 2025, False), (12, True, 4356, True), (30, False, 189225, True)],
                         ids=["map-entries-under-the-cap", "map-entries-past-the-cap", "sparse-map-past-the-cap"])
def test_classify_caps_the_map_entry_count(capsys, dim, dense, entries, capped):
    # the entries, source pairs times destination pairs, are counted from the
    # two dimensions before the rows are read: a map past the cap exits 2 at
    # once, and so does a sparse one (the identity) over a large space
    pairs = dim * (dim - 1) // 2
    rows = [[f"{(r * pairs + c) % 7 + 1}/{c % 3 + 1}" if dense else str(int(r == c)) for c in range(pairs)]
            for r in range(pairs)]
    start = time.perf_counter()
    code = main(["classify", "--input", json.dumps({"dim_src": dim, "dim_dst": dim, "matrix": rows})])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    if capped:
        assert code == 2 and out == "" and err.startswith("input error:")
        assert f"{entries} entries (source pairs times destination pairs), at most {cli.MAX_CLASSIFY_MAP_ENTRIES}" in err
        assert elapsed < 1.0
    else:
        assert (code, err) == (1, "") and json.loads(out)["error"] == "decomposability_failed"


def test_young_check_bad_schema_exits_2(capsys):
    code, _ = run(capsys, "young-check", "--tableau", '{"rows": [2,2]}', "--tensor", '{"dim": 2}')
    assert code == 2


_PAIR_TABLEAU = json.dumps({"rows": [1, 1], "numbering": "vertical"})
_TERM = {"vars": ["q0", "q1", "q2", "v0", "v1", "v2"],
         "terms": [{"exps": [0, 0, 0, 1, 1, 0], "coef": "1/1"}]}


def _tensor(*entries):
    return json.dumps({"dim": 2, "order": 2, "entries": list(entries)})


def _term_on(screen):
    return json.dumps({"screen": screen, "T": _TERM})


_ORBIT = ["integrate", "--q0", "1,0,1", "--v0", "0,1,0"]


def _scenario_spanning(t0, t1):
    return json.dumps({"screen": {"kind": "flat", "dim": 3}, "force": {"kind": "zero"},
                       "q0": [0, 0, 1], "v0": [1, 0, 0], "t_span": [t0, t1]})


def _scenario_with(**fields):
    obj = {"screen": {"kind": "flat", "dim": 3}, "force": {"kind": "zero"},
           "q0": [0, 0, 1], "v0": [1, 0, 0], "t_span": [0, 1]}
    obj.update(fields)
    return ["integrate", "--scenario", json.dumps(obj)]


def _term_with(**fields):
    return json.dumps({"screen": {"kind": "flat", "dim": 3}, "T": {**_TERM, **fields}})


# an order-2 tensor against the four boxes of the 2x2 tableau
_YOUNG_CHECK_ORDER_MISMATCH = ["young-check", "--tableau", json.dumps({"rows": [2, 2], "numbering": "vertical"}),
                               "--tensor", _tensor({"idx": [0, 1], "val": "1/1"})]
_KEPLER = {"kind": "kepler", "mu": 1.0, "center": [0, 0, 1]}
_PROJECTION = ["verify-projection", "--q0", "1,0,1", "--v0", "0,1,0", "--t-span", "0,1",
               "--to-screen", '{"kind": "sphere", "dim": 3}']


_FORM_257 = json.dumps({"dim": screens.MAX_SCREEN_DIM + 1, "order": 4, "symmetry": "riemann", "entries": [
    {"idx": idx, "val": val} for idx, val in
    (([0, 1, 0, 1], "1/1"), ([0, 1, 1, 0], "-1/1"), ([1, 0, 0, 1], "-1/1"), ([1, 0, 1, 0], "1/1"))]})


# malformed inputs, each with the key its message names
_NAMED_KEYS = [
    pytest.param(["young-check", "--tableau", _PAIR_TABLEAU, "--tensor",
                  json.dumps({"dim": 2, "order": 2, "entries": 5})], {}, "['entries']", id="scalar-tensor-entries"),
    pytest.param(["young-check", "--tableau", _PAIR_TABLEAU, "--tensor", _tensor({"idx": 5, "val": "1/1"})], {},
                 "['idx']", id="scalar-tensor-idx"),
    pytest.param(["young-check", "--tableau", _PAIR_TABLEAU, "--tensor",
                  json.dumps({"dim": "x", "order": 2, "entries": []})], {}, "['dim']", id="non-integer-tensor-dim"),
    pytest.param(["hamiltonian-test", "--input", _term_with(terms=[{"coef": "1/1"}])], {}, "'exps'",
                 id="polynomial-term-without-exps"),
    pytest.param(["hamiltonian-test", "--input", _term_with(vars=5)], {}, "['vars']", id="scalar-polynomial-vars"),
    pytest.param(["hamiltonian-test", "--input", _term_with(terms=[{"exps": [0, 0, 0, 1, -1, 0], "coef": "1/1"}])],
                 {}, "['exps']", id="negative-polynomial-exponent"),
    pytest.param(["integrate", "--dim", "0", "--q0", "1", "--v0", "0"], {}, "['dim']", id="zero-builtin-dim"),
    pytest.param(["integrate", "--dim", "1", "--q0", "1", "--v0", "0"], {}, "['dim']", id="one-builtin-dim"),
    pytest.param(["integrate", "--dim", "3", "--q0", "1,0", "--v0", "0,1,0"], {}, "['q0']", id="short-builtin-q0"),
    pytest.param(_ORBIT + ["--system", "kepler", "--mu", "nan"], {}, "['mu']", id="nan-builtin-mu"),
    pytest.param(["young-dim", "--rows", "0", "--dim", "3"], {}, "['rows']", id="zero-row-length"),
    pytest.param(["pbb-dim", "--n", "-1", "--b", "2"], {}, "--n", id="negative-pbb-n"),
    # a dim past screens.MAX_SCREEN_DIM is refused before any dim x dim matrix is built
    pytest.param(["integrate", "--dim", "300000", "--q0", "1,0,1", "--v0", "0,1,0"], {}, "['dim']",
                 id="huge-builtin-dim"),
    pytest.param(["hamiltonian-test", "--input", _term_on({"kind": "sphere", "dim": 300000})], {}, "['dim']",
                 id="huge-screen-dim"),
    pytest.param(["hamiltonian-test", "--input", _term_on({"kind": "linear", "phi": [0] * 300 + [1]})], {},
                 "['phi']", id="long-screen-phi"),
    # a curvature form or bivector map of more than screens.MAX_SCREEN_DIM dimensions is refused
    # before its entries are read
    pytest.param(["screen-find", "--input", _FORM_257], {}, "['dim']", id="curvature-form-dim-257"),
    pytest.param(["classify-curvature", "--input", _FORM_257], {}, "['dim']", id="classify-curvature-dim-257"),
    pytest.param(["classify", "--input", json.dumps({"dim_src": 257, "dim_dst": 3, "matrix": []})], {},
                 "['dim_src']", id="bivector-map-dim-src-257"),
    pytest.param(["classify", "--input", json.dumps({"dim_src": 3, "dim_dst": 257, "matrix": []})], {},
                 "['dim_dst']", id="bivector-map-dim-dst-257"),
    # an --output that cannot be written is malformed input, like an unreadable --input
    pytest.param(["pbb-dim", "--n", "3", "--b", "2", "--output", "/nonexistent/dir/x.txt"], {}, "--output",
                 id="output-in-a-missing-directory"),
    pytest.param(["pbb-dim", "--n", "3", "--b", "2", "--output", os.path.dirname(os.path.abspath(__file__))], {},
                 "--output", id="output-is-a-directory"),
]


@pytest.mark.parametrize("argv, env, key", _NAMED_KEYS)
def test_malformed_input_message_names_its_path(capsys, argv, env, key):
    assert main(argv) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("argv, env", [
    pytest.param(["young-check", "--tableau", _PAIR_TABLEAU, "--tensor", _tensor({"idx": [0, 1]})], {},
                 id="tensor-entry-without-val"),
    pytest.param(["young-check", "--tableau", _PAIR_TABLEAU, "--tensor", _tensor({"val": "1/1"})], {},
                 id="tensor-entry-without-idx"),
    pytest.param(["young-check", "--tableau", _PAIR_TABLEAU, "--tensor", _tensor({"idx": [0, 2], "val": "1/1"})], {},
                 id="tensor-index-out-of-range"),
    pytest.param(["hamiltonian-test", "--input", _term_on({"kind": "flat"})], {}, id="screen-without-dim"),
    pytest.param(["hamiltonian-test", "--input", _term_on({"kind": "linear"})], {}, id="screen-without-phi"),
    pytest.param(["hamiltonian-test", "--input", _term_on({"kind": "quadratic_root"})], {}, id="screen-without-g"),
    pytest.param(["young-dim", "--rows", "2,x", "--dim", "3"], {}, id="non-integer-row-length"),
    pytest.param(_ORBIT + ["--t-span", "1,0"], {}, id="reversed-t-span"),
    pytest.param(_ORBIT + ["--t-span", "0,inf"], {}, id="infinite-t-span"),
    pytest.param(_ORBIT + ["--t-span", "nan,1"], {}, id="nan-t-span"),
    pytest.param(["integrate", "--scenario", _scenario_spanning(1, 0)], {}, id="reversed-scenario-t-span"),
    pytest.param(_ORBIT, {"PROJDYN_TOL": "abc"}, id="non-numeric-PROJDYN_TOL"),
    pytest.param(_ORBIT, {"PROJDYN_TOL": "nan"}, id="nan-PROJDYN_TOL"),
    pytest.param(_ORBIT, {"PROJDYN_TOL": "inf"}, id="infinite-PROJDYN_TOL"),
    pytest.param(_ORBIT, {"PROJDYN_TOL": "0"}, id="zero-PROJDYN_TOL"),
    pytest.param(_ORBIT, {"PROJDYN_TOL": "-1e-10"}, id="negative-PROJDYN_TOL"),
    pytest.param(_ORBIT + ["--tol", "0"], {}, id="zero-tol"),
    pytest.param(_ORBIT + ["--tol", "-1"], {}, id="negative-tol"),
    pytest.param(_ORBIT + ["--tol", "nan"], {}, id="nan-tol"),
    pytest.param(_scenario_with(tol=0), {}, id="zero-scenario-tol"),
    pytest.param(_scenario_with(tol="x"), {}, id="non-numeric-scenario-tol"),
    pytest.param(_scenario_with(t_span=5), {}, id="scalar-scenario-t-span"),
    pytest.param(_scenario_with(q0=[0, "x", 1]), {}, id="non-numeric-q0"),
    pytest.param(_scenario_with(v0=[1, None, 0]), {}, id="non-numeric-v0"),
    pytest.param(_scenario_with(force={"kind": "kepler", "center": [0, 0, 1]}), {}, id="kepler-without-mu"),
    pytest.param(_scenario_with(force={"kind": "kepler", "mu": 1.0}), {}, id="kepler-without-center"),
    pytest.param(_scenario_with(force={**_KEPLER, "mu": "x"}), {}, id="non-numeric-kepler-mu"),
    pytest.param(_scenario_with(force={**_KEPLER, "center": [0, 1]}), {}, id="short-kepler-center"),
    pytest.param(_scenario_with(force={"kind": "oscillator", "axis": 3}), {}, id="oscillator-axis-out-of-range"),
    pytest.param(_PROJECTION + ["--deviation-tol", "0"], {}, id="zero-deviation-tol"),
    pytest.param(_PROJECTION + ["--deviation-tol=-1e-6"], {}, id="negative-deviation-tol"),
    pytest.param(["hamiltonian-test", "--input", _term_on({"kind": "flat", "dim": "x"})], {},
                 id="non-integer-screen-dim"),
    pytest.param(["hamiltonian-test", "--input", _term_on({"kind": "flat", "dim": 0})], {}, id="zero-screen-dim"),
    pytest.param(["hamiltonian-test", "--input", _term_on({"kind": "linear", "phi": 5})], {}, id="scalar-screen-phi"),
    pytest.param(["hamiltonian-test", "--input", _term_on({"kind": "quadratic_root", "g": [[1, 0, 0], [0, 1], [0, 0, 1]]})],
                 {}, id="ragged-screen-g"),
    pytest.param(_scenario_with(screen={"kind": "quadratic_root", "g": [[1, 1, 0], [0, 1, 0], [0, 0, 1]]}), {},
                 id="non-symmetric-screen-g"),
    pytest.param(["pbb-dim", "--n", "10000", "--b", "2000"], {}, id="huge-pbb-n"),
    pytest.param(["pbb-dim", "--n", "3", "--b", "10001"], {}, id="huge-pbb-b"),
    pytest.param(["young-dim", "--rows", "2,2", "--dim", "-1"], {}, id="negative-young-dim"),
    pytest.param(["young-dim", "--rows", "2,2", "--dim", "0"], {}, id="zero-young-dim"),
    pytest.param(["young-dim", "--rows", "2,2", "--dim", "24"], {}, id="young-dim-past-the-caps"),
    pytest.param(["young-dim", "--rows", "1,1,1,1,1,1,1,1", "--dim", "9"], {}, id="young-rows-past-the-product-cap"),
    pytest.param(_YOUNG_CHECK_ORDER_MISMATCH, {}, id="young-check-tensor-order-not-the-box-count"),
    *[pytest.param(*case.values[:2], id=case.id) for case in _NAMED_KEYS],
])
def test_malformed_input_exits_2(capsys, monkeypatch, argv, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code = main(argv)  # an escaping exception would fail the test with its traceback
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error:") and "Traceback" not in err
    for name in env:
        assert name in err


@pytest.mark.parametrize("argv, key", [
    (_ORBIT + ["--tol", "0"], "--tol"),
    (_scenario_with(tol=0), "'tol'"),
    (_scenario_with(t_span=5), "'t_span'"),
    (_scenario_with(q0=[0, "x", 1]), "'q0'"),
    (_scenario_with(force={"kind": "kepler", "center": [0, 0, 1]}), "'mu'"),
    (_scenario_with(force={"kind": "kepler", "mu": 1.0}), "'center'"),
    (_PROJECTION + ["--deviation-tol", "0"], "--deviation-tol"),
    (_scenario_with(screen={"kind": "quadratic_root", "g": [[1, 1, 0], [0, 1, 0], [0, 0, 1]]}), "'g'"),
    (["pbb-dim", "--n", "257", "--b", "2"], "--n"),
    (["pbb-dim", "--n", "3", "--b", "10001"], "--b"),
    (["young-dim", "--rows", "2,2", "--dim", "-1"], "--dim"),
    (["young-dim", "--rows", "2,2", "--dim", "0"], "--dim"),
    (["young-dim", "--rows", "2,2", "--dim", "24"], "--dim"),
    (["young-dim", "--rows", "1,1,1,1,1,1,1,1", "--dim", "9"], "--rows"),
    (["young-dim", "--rows", "2", "--dim", "70"], "--dim"),
    (_YOUNG_CHECK_ORDER_MISMATCH, "--tensor"),
], ids=["tol", "scenario-tol", "scenario-t-span", "scenario-q0", "kepler-mu", "kepler-center", "deviation-tol",
        "screen-g-not-symmetric", "pbb-n-past-the-screen-cap", "pbb-b-past-the-degree-cap", "negative-young-dim",
        "zero-young-dim", "young-dim-past-the-caps", "young-rows-past-the-product-cap",
        "young-dim-past-the-class-dimension-cap", "young-check-tensor-order-not-the-box-count"])
def test_malformed_input_message_names_the_key(capsys, argv, key):
    assert main(argv) == 2
    assert key in capsys.readouterr().err


def test_kepler_collision_is_one_error_line(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["integrate", "--system", "kepler", "--q0", "0,0,1", "--v0", "0,0,0", "--t-span", "0,1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_integrate_empty_time_span(capsys):
    code, out = run(capsys, *_ORBIT, "--t-span", "1,1")
    assert code == 0
    assert len(out.strip().splitlines()) == 3  # two header lines and the start state
    code, out = run(capsys, "integrate", "--scenario", _scenario_spanning(1, 1))
    assert code == 0 and len(out.strip().splitlines()) == 3


def test_project_non_numeric_csv_cell_exits_2(capsys, tmp_path):
    traj_path = tmp_path / "line.csv"
    code, _ = run(capsys, *_ORBIT, "--t-span", "0,1", "--output", str(traj_path))
    assert code == 0
    lines = traj_path.read_text().splitlines()
    cells = lines[4].split(",")
    cells[1] = "x"
    lines[4] = ",".join(cells)
    traj_path.write_text("\n".join(lines) + "\n")
    code = main(["project", "--input", str(traj_path), "--to-screen", '{"kind": "sphere", "dim": 3}'])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error:") and "line 5" in err


def _set_cell(row, column, text):
    cells = row.split(",")
    cells[column] = text
    return ",".join(cells)


# (data row, column, new cell): a row of an integrate CSV made malformed; data row 1 is line 4
_MALFORMED_CSV_ROWS = [
    pytest.param(1, 0, "inf", id="infinite-time"),
    pytest.param(1, 1, "nan", id="nan-coordinate"),
    pytest.param(1, 5, "-inf", id="infinite-velocity"),
    pytest.param(1, 2, "1e400", id="overflowing-coordinate"),
    pytest.param(2, 0, "0", id="time-before-the-previous-row"),
]


@pytest.mark.parametrize("row, column, cell", _MALFORMED_CSV_ROWS)
def test_project_malformed_csv_row_exits_2_naming_its_line(capsys, tmp_path, row, column, cell):
    path = tmp_path / "kepler.csv"
    argv, _, _ = _PINNED_ORBITS["kepler-flat"]
    assert main(["integrate", *argv, "--output", str(path)]) == 0
    lines = path.read_text().splitlines()
    lines[2 + row] = _set_cell(lines[2 + row], column, cell)
    path.write_text("\n".join(lines) + "\n")
    code = main(["project", "--input", str(path), "--to-screen", '{"kind": "sphere", "dim": 3}'])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("input error:") and f"line {3 + row}:" in err and "Traceback" not in err


@pytest.mark.parametrize("blank", ["", "\n\n"], ids=["two-header-lines", "blank-lines-after-the-header"])
def test_project_csv_without_a_data_row_exits_2(capsys, tmp_path, blank):
    # integrate writes at least the start state, so a file of only the two
    # header lines is malformed input, not a trajectory that leaves the view
    path = tmp_path / "kepler.csv"
    argv, _, _ = _PINNED_ORBITS["kepler-flat"]
    assert main(["integrate", *argv, "--output", str(path)]) == 0
    path.write_text("\n".join(path.read_text().splitlines()[:2]) + "\n" + blank)
    code = main(["project", "--input", str(path), "--to-screen", '{"kind": "sphere", "dim": 3}'])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "no data row" in err and "Traceback" not in err


def test_project_reads_repeated_times(capsys, tmp_path):
    # a step of length zero is not malformed: the times need only be non-decreasing
    path = tmp_path / "line.csv"
    path.write_text(_OLD_FLAT + "\nt,q_0,q_1,q_2,v_0,v_1,v_2\n0,0,0,1,1,0,0\n0,0,0,1,1,0,0\n")
    code, out = run(capsys, "project", "--input", str(path), "--to-screen", '{"kind": "sphere", "dim": 3}')
    assert code == 0 and out.splitlines()[2:] == ["0,0,0,1,1,0,0"] * 2


def test_classify_wedge_square(capsys, tmp_path):
    from projdyn.curvclass import BivectorMap

    R = BivectorMap.wedge_square([[1, 0, 0], [1, 2, 0], [0, 0, 1]])
    path = tmp_path / "map.json"
    path.write_text(json.dumps(R.to_json()))
    code, out = run(capsys, "classify", "--input", str(path))
    assert code == 0
    assert json.loads(out)["case"] == "wedge_square"


def test_classify_curvature_and_negative_exit(capsys):
    from projdyn.curvclass import CurvatureForm, metric_form_tensor

    euclid = CurvatureForm(metric_form_tensor([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    code, out = run(capsys, "classify-curvature", "--input", json.dumps(euclid.to_json()))
    assert code == 0 and json.loads(out)["case"] == "metric"
    degenerate = CurvatureForm(metric_form_tensor([[1, 0, 0], [0, 1, 0], [0, 0, 0]]))
    code, out = run(capsys, "classify-curvature", "--input", json.dumps(degenerate.to_json()))
    assert code == 1 and json.loads(out)["error"] == "kernel_not_trivial"


def test_classify_curvature_of_a_sparse_form_over_a_large_space(capsys):
    # four entries over dimension 96: decomposability is decided on the
    # entries, and the 4560 x 4560 bivector matrix is never built
    entries = [{"idx": idx, "val": val} for idx, val in
               (([0, 1, 0, 1], "1/1"), ([0, 1, 1, 0], "-1/1"), ([1, 0, 0, 1], "-1/1"), ([1, 0, 1, 0], "1/1"))]
    form = json.dumps({"dim": 96, "order": 4, "symmetry": "riemann", "entries": entries})
    code, out = run(capsys, "classify-curvature", "--input", form)
    assert code == 1 and json.loads(out)["error"] == "kernel_not_trivial"


def test_integrate_builtin_free_deterministic(capsys, tmp_path):
    args = ["integrate", "--system", "free", "--screen", "sphere", "--dim", "3",
            "--q0", "0,0,1", "--v0", "1,0,0", "--t-span", "0,2", "--tol", "1e-10"]
    code, out1 = run(capsys, *args)
    assert code == 0
    code, out2 = run(capsys, *args)
    assert out1 == out2  # byte-identical
    assert out1.startswith("# screen=quadratic_root")
    header = out1.splitlines()[1].split(",")
    assert header == ["t", "q_0", "q_1", "q_2", "v_0", "v_1", "v_2"]


def test_integrate_scenario_json(capsys):
    scenario = json.dumps({
        "screen": {"kind": "flat", "dim": 3},
        "force": {"kind": "zero"},
        "q0": [0.0, 0.0, 1.0],
        "v0": [0.5, 0.25, 0.0],
        "t_span": [0.0, 1.0],
        "tol": 1e-10,
    })
    code, out = run(capsys, "integrate", "--scenario", scenario)
    assert code == 0
    last = out.strip().splitlines()[-1].split(",")
    assert abs(float(last[0]) - 1.0) < 1e-12
    assert abs(float(last[1]) - 0.5) < 1e-8


def test_project_round_trip(capsys, tmp_path):
    traj_path = tmp_path / "line.csv"
    code, out = run(capsys, "integrate", "--system", "free", "--screen", "flat", "--dim", "3",
                    "--q0", "0,0,1", "--v0", "1,0,0", "--t-span", "0,1",
                    "--output", str(traj_path))
    assert code == 0
    code, out = run(capsys, "project", "--input", str(traj_path),
                    "--to-screen", '{"kind": "sphere", "dim": 3}')
    assert code == 0
    for line in out.strip().splitlines()[2:]:
        vals = [float(x) for x in line.split(",")]
        q = vals[1:4]
        assert abs(sum(x * x for x in q) - 1.0) < 1e-12


def test_screen_find(capsys):
    from projdyn.curvclass import CurvatureForm, metric_form_tensor

    euclid = CurvatureForm(metric_form_tensor([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    code, out = run(capsys, "screen-find", "--input", json.dumps(euclid.to_json()))
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "quadric"
    assert report["witnesses"]["g"] == [["1/1", "0/1", "0/1"], ["0/1", "1/1", "0/1"], ["0/1", "0/1", "1/1"]]


def test_screen_find_cylindric(capsys):
    from projdyn.curvclass import CurvatureForm, metric_form_tensor

    cyl = CurvatureForm(metric_form_tensor([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]))
    code, out = run(capsys, "screen-find", "--input", json.dumps(cyl.to_json()))
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "cylindric"
    assert report["inner"]["verdict"] == "quadric"


def test_hamiltonian_test_oscillator(capsys):
    # T = v0 v1 on the flat screen in ambient dimension 3
    T = {
        "vars": ["q0", "q1", "q2", "v0", "v1", "v2"],
        "terms": [{"exps": [0, 0, 0, 1, 1, 0], "coef": "1/1"}],
    }
    payload = json.dumps({"screen": {"kind": "flat", "dim": 3}, "T": T})
    code, out = run(capsys, "hamiltonian-test", "--input", payload)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "hyperplane"
    assert report["witnesses"]["phi"] == ["0/1", "0/1", "1/1"]
    assert report["witnesses"]["g"] == [["0/1", "1/2"], ["1/2", "0/1"]]


def test_hamiltonian_test_rejects_bad_term(capsys):
    T = {
        "vars": ["q0", "q1", "q2", "v0", "v1", "v2"],
        "terms": [{"exps": [1, 0, 0, 1, 1, 0], "coef": "1/1"}],
    }
    payload = json.dumps({"screen": {"kind": "flat", "dim": 3}, "T": T})
    code, out = run(capsys, "hamiltonian-test", "--input", payload)
    assert code == 1
    assert json.loads(out)["witnesses"]["reason"] == "leading_term_not_free_integral"


def test_verify_projection_cli(capsys):
    code, out = run(capsys, "verify-projection", "--system", "free", "--screen", "flat",
                    "--dim", "3", "--q0", "0,0,1", "--v0", "0.4,0.2,0", "--t-span", "0,2",
                    "--to-screen", '{"kind": "sphere", "dim": 3}')
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["max_deviation"] <= 1e-6


def test_verify_projection_reports_a_domain_exit_as_one_json_line(capsys):
    # the eccentric sphere orbit reaches the flat screen's horizon, where the homogenized Kepler force stops it
    code = main(["verify-projection", "--system", "kepler", "--screen", "sphere", "--dim", "3", "--q0", "0.6,0,0.8",
                 "--v0", "2.4,0,-1.8", "--t-span", "0,3", "--tol", "1e-8", "--to-screen", '{"kind":"flat","dim":3}'])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert captured.out == '{"error":"DomainExitError","message":"homogenized force evaluated at h(q) <= 0"}\n'


@pytest.mark.parametrize("command, extra", [
    ("integrate", []),
    ("verify-projection", ["--to-screen", '{"kind": "sphere", "dim": 3}']),
])
def test_the_step_budget_ends_a_run_with_one_json_line(capsys, monkeypatch, command, extra):
    monkeypatch.setattr(screens, "MAX_STEPS", 20)
    code = main([command, *_PINNED_ORBITS["kepler-flat"][0], *extra])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    report = json.loads(captured.out)
    assert report["error"] == "StepBudgetError"
    assert report["message"].startswith("step budget of 20 steps used up at t = ")


def test_unknown_file_exits_2(capsys):
    code, _ = run(capsys, "classify", "--input", "/nonexistent/file.json")
    assert code == 2


def test_json_output_round_trip(capsys, tmp_path):
    # every JSON the CLI emits is accepted by the corresponding reader
    from projdyn.curvclass import CurvatureForm, metric_form_tensor

    euclid = CurvatureForm(metric_form_tensor([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    out_path = tmp_path / "report.json"
    code, _ = run(capsys, "classify-curvature", "--input", json.dumps(euclid.to_json()),
                  "--output", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    from oracles import parse_rational

    B = [[parse_rational(x) for x in row] for row in report["witnesses"]["B"]]
    assert B == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


_OLD_FLAT = "# screen=linear dim=3;phi=['0/1', '0/1', '1/1']"
_OLD_HYPERBOLOID = ("# screen=quadratic_root dim=3;g=[['-1/1', '0/1', '0/1'], ['0/1', '-1/1', '0/1'], "
                    "['0/1', '0/1', '1/1']];sheet=[0.0, 0.0, 1.0]")


def test_project_reads_an_old_csv_header_only_for_a_builtin_screen(capsys, tmp_path):
    path = tmp_path / "old.csv"
    rows = "t,q_0,q_1,q_2,v_0,v_1,v_2\n0,0,0,1,1,0,0\n"
    path.write_text(_OLD_FLAT + "\n" + rows)
    code, out = run(capsys, "project", "--input", str(path), "--to-screen", '{"kind": "sphere", "dim": 3}')
    assert code == 0 and out.splitlines()[2] == "0,0,0,1,1,0,0"
    path.write_text(_OLD_HYPERBOLOID + "\n" + rows)
    code = main(["project", "--input", str(path), "--to-screen", '{"kind": "sphere", "dim": 3}'])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("input error:") and "old header" in err


def test_project_onto_hyperboloid_stops_at_the_visibility_exit(capsys, tmp_path):
    path = tmp_path / "line.csv"
    code, _ = run(capsys, "integrate", "--q0", "0,0,1", "--v0", "1,0,0", "--t-span", "0,2", "--output", str(path))
    assert code == 0
    code, out = run(capsys, "project", "--input", str(path), "--to-screen", '{"kind": "hyperboloid", "dim": 3}')
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith('# screen=quadratic_root {"dim":3,')
    assert 2 < len(lines) < len(path.read_text().splitlines())
    assert all(float(line.split(",")[0]) < 1.0 for line in lines[2:])


def test_project_notes_the_visibility_exit_on_stderr(capsys, tmp_path):
    path = tmp_path / "line.csv"
    assert run(capsys, "integrate", "--q0", "0,0,1", "--v0", "1,0,0", "--t-span", "0,2", "--output", str(path))[0] == 0
    argv = ["project", "--input", str(path), "--to-screen", '{"kind": "hyperboloid", "dim": 3}']
    assert main(argv) == 0
    captured = capsys.readouterr()
    rows = captured.out.splitlines()[2:]
    assert captured.err == f"note: stopped at the visibility exit t = 1.103086578651014; wrote {len(rows)} of 6 rows\n"
    # stdout is the same as with --output: the note changes only stderr
    out_path = tmp_path / "projected.csv"
    assert main(argv + ["--output", str(out_path)]) == 0
    assert out_path.read_text() == captured.out
    assert capsys.readouterr() == ("", captured.err)
    # a fully visible projection says nothing
    assert main(["project", "--input", str(path), "--to-screen", '{"kind": "sphere", "dim": 3}']) == 0
    assert capsys.readouterr().err == ""


# -- fuzzing ----------------------------------------------------------------------------------------

def _fuzz_bases():
    """(subcommand argv, {flag: JSON input}) for each fuzzed subcommand, from the inputs above."""
    from projdyn.curvclass import BivectorMap, CurvatureForm, metric_form_tensor

    euclid = CurvatureForm(metric_form_tensor([[1, 0, 0], [0, 1, 0], [0, 0, 1]])).to_json()
    scenario = {"screen": {"kind": "sphere", "dim": 3}, "force": _KEPLER,
                "q0": [0.6, 0.0, 0.8], "v0": [0.0, 1.0, 0.0], "t_span": [0, 0.1], "tol": 1e-8}
    return [
        (["young-check"], {"--tableau": json.loads(_PAIR_TABLEAU),
                           "--tensor": json.loads(_tensor({"idx": [0, 1], "val": "1/1"}, {"idx": [1, 0], "val": "-1/1"}))}),
        (["classify"], {"--input": BivectorMap.wedge_square([[1, 0, 0], [1, 2, 0], [0, 0, 1]]).to_json()}),
        (["classify-curvature"], {"--input": euclid}),
        (["screen-find"], {"--input": euclid}),
        (["hamiltonian-test"], {"--input": {"screen": {"kind": "flat", "dim": 3}, "T": _TERM}}),
        (["integrate"], {"--scenario": scenario}),
    ]


def _json_paths(value, path=()):
    """Every path to a value nested inside a JSON object or list."""
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


_FUZZ_CASES = [(argv, inputs, flag, path) for argv, inputs in _fuzz_bases()
               for flag in inputs for path in _json_paths(inputs[flag])]
_DROP = object()
# dropped, retyped, out of range (small, so that no input grows the work) and non-finite
_MUTATIONS = [_DROP, "x", None, [], {}, True, 1.5, -1, 0, 9, float("nan"), float("inf")]


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(_FUZZ_CASES), mutation=st.sampled_from(_MUTATIONS))
def test_mutated_json_inputs_exit_0_1_or_2_without_traceback_or_warning(case, mutation):
    argv, inputs, flag, path = case
    inputs = copy.deepcopy(inputs)
    parent = inputs[flag]
    for key in path[:-1]:
        parent = parent[key]
    if mutation is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = mutation
    argv = argv + [arg for flag, value in inputs.items() for arg in (flag, json.dumps(value))]
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)  # an escaping exception, a warning among them, fails the test with its traceback
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()


# -- pinned reports: the full stdout and exit code, byte for byte ----------------------

def _poly_json(dim, terms):
    """Polynomial JSON in q0.., v0.. from (q indices, v indices, coef) triples."""
    out = []
    for qs, vs, coef in terms:
        exps = [0] * (2 * dim)
        for i in qs:
            exps[i] += 1
        for i in vs:
            exps[dim + i] += 1
        out.append({"exps": exps, "coef": coef})
    return {"vars": [f"q{i}" for i in range(dim)] + [f"v{i}" for i in range(dim)], "terms": out}


# the demo's (x0 w1 - x1 w0)^2 + w0^2 + w1^2
_CHANGE_OF_SCREEN = [((0, 0), (1, 1), "1/1"), ((0, 1), (0, 1), "-2/1"), ((1, 1), (0, 0), "1/1"),
                     ((), (0, 0), "1/1"), ((), (1, 1), "1/1")]
_RATIONAL_G = [["2/1", "1/3", "0/1"], ["1/3", "1/1", "-1/2"], ["0/1", "-1/2", "3/2"]]
_HAMILTONIAN_INPUTS = {
    "flat-oscillator": ({"kind": "flat", "dim": 3}, _poly_json(3, [((), (0, 1), "1/1")])),
    "flat-change-of-screen": ({"kind": "flat", "dim": 3}, _poly_json(3, _CHANGE_OF_SCREEN)),
    "flat-not-an-integral": ({"kind": "flat", "dim": 3}, _poly_json(3, [((0,), (0, 1), "1/1")])),
    "flat-cylindric": ({"kind": "flat", "dim": 4}, _poly_json(4, [((), (0, 1), "1/1")])),
    "linear-chart": ({"kind": "linear", "phi": ["1/2", "0/1", "1/1"]}, _poly_json(3, _CHANGE_OF_SCREEN)),
    "sphere-d3": ({"kind": "sphere", "dim": 3}, _poly_json(3, [((), (i, i), "1/1") for i in range(3)])),
    "sphere-d4": ({"kind": "sphere", "dim": 4}, _poly_json(4, [((), (i, i), "1/1") for i in range(4)])),
    # w^T G w + (x0 w1 - x1 w0)^2 on the quadric q^T G q = 1
    "quadric-rational-g": ({"kind": "quadratic_root", "g": _RATIONAL_G}, _poly_json(3, [
        ((), (0, 0), "2/1"), ((), (0, 1), "2/3"), ((), (1, 1), "1/1"), ((), (1, 2), "-1/1"), ((), (2, 2), "3/2"),
        *_CHANGE_OF_SCREEN[:3]])),
}
_SCREEN_FIND_METRICS = {
    "euclid-d3": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "euclid-d4": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    "cylindric": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]],
    "rational-g": _RATIONAL_G,
}


# young-check inputs over dimension 3: (column lengths, numbering, spoiler).  The tensor is the
# sum of the class basis with coefficients 1, 2, ..., plus the spoiler: none (a member), e_(0,..,0)
# ("diagonal": breaks a column antisymmetry or a row identity) or A(e_(0,1,1,2)) ("pairs": keeps
# the pair antisymmetries and breaks the column identity)
_YOUNG_CHECK_INPUTS = {
    f"young-{'x'.join(map(str, columns))}-{numbering}-{spoiler or 'member'}": (columns, numbering, spoiler)
    for columns in ([2, 2], [2, 2, 2], [3, 2]) for numbering in ("vertical", "horizontal")
    for spoiler in (None, "diagonal")
}
_YOUNG_CHECK_INPUTS["young-2x2-vertical-pairs"] = ([2, 2], "vertical", "pairs")


def _young_check_argv(columns, numbering, spoiler):
    from projdyn import young
    from projdyn.exactlin import Tensor, basis_tensor, tensor_to_json

    tableau = young.YoungTableau.from_columns(columns)
    if numbering == "horizontal":
        tableau = young.YoungTableau(tableau.rows, "horizontal")
    basis = (young.imAS_basis if numbering == "vertical" else young.imSA_basis)(tableau, 3)
    t = Tensor(3, tableau.size, {})
    for c, element in enumerate(basis, start=1):
        t = t + element.scale(c)
    if spoiler == "diagonal":
        t = t + basis_tensor(3, (0,) * tableau.size)
    elif spoiler == "pairs":
        t = t + young.antisymmetrize_A(tableau, basis_tensor(3, (0, 1, 1, 2)))
    return ["young-check", "--tableau", json.dumps(tableau.to_json()), "--tensor", json.dumps(tensor_to_json(t))]


def _pair_map(d, images):
    """The bivector map sending the k-th source pair to images[k], each a
    {destination pair: value} dict."""
    from projdyn.curvclass import BivectorMap, pair_basis

    return BivectorMap(d, d, [[img.get(pr, 0) for img in images] for pr in pair_basis(d)])


def _classify_input(name):
    """(subcommand, JSON input) of each pinned classify and classify-curvature report."""
    from projdyn.curvclass import BivectorMap, CurvatureForm, flat_form_tensor, metric_form_tensor
    from projdyn.exactlin import kernel, vector, wedge

    F = Fraction
    if name == "classify-wedge-square-d4":
        R = BivectorMap.wedge_square([[F(1, 2), 1, 0, 2], [0, 3, F(-1, 3), 1], [1, 0, 1, 0], [2, F(5, 7), 0, 1]])
    elif name == "classify-wedge-square-d5":
        R = BivectorMap.wedge_square([[2, 0, 1, 0, F(1, 3)], [1, 1, 0, 0, 2], [0, F(-3, 2), 1, 1, 0],
                                      [1, 0, 0, 2, 1], [0, 1, F(2, 5), 0, -1]])
    elif name == "classify-star-wedge-square-d4":
        R = BivectorMap.wedge_square([[1, 2, 0, 0], [0, 1, F(1, 2), 0], [3, 0, 1, 1], [0, -1, 0, 2]]).star_compose()
    elif name == "classify-phi-degenerate":
        phi = vector(4, [1, 0, 2, 0])
        R = BivectorMap.from_images(4, 4, [wedge(phi, vector(4, [k, 1, 0, k - 2])) for k in range(6)])
    elif name == "classify-zeta-degenerate":
        R = _pair_map(4, [{(0, 1): 1}, {(0, 2): 1}, {}, {(1, 2): 1}, {}, {}])
    elif name == "classify-decomposability-failed":
        R = _pair_map(4, [{(0, 1): 1}, {(2, 3): 1}, {}, {}, {}, {(0, 1): 1}])
    else:
        g = [[2, 1, 0, 0], [1, 3, 0, 0], [0, 0, -1, F(1, 2)], [0, 0, F(1, 2), 1]]
        if name == "curvature-metric":
            t = metric_form_tensor(g)
        elif name == "curvature-flat":
            phi = [F(1), F(0), F(2), F(-1)]
            t = flat_form_tensor(phi, [[1, 0, 0], [0, -2, 0], [0, 0, F(1, 3)]], kernel([phi]))
        elif name == "curvature-kernel-not-trivial":
            t = metric_form_tensor([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]])
        else:  # a combination of two metric forms
            t = metric_form_tensor(g) + metric_form_tensor([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 2, 0], [1, 0, 0, 3]])
        return "classify-curvature", CurvatureForm(t).to_json()
    return "classify", R.to_json()


_CLASSIFY_INPUTS = ["classify-wedge-square-d4", "classify-wedge-square-d5", "classify-star-wedge-square-d4",
                    "classify-phi-degenerate", "classify-zeta-degenerate", "classify-decomposability-failed",
                    "curvature-metric", "curvature-flat", "curvature-kernel-not-trivial",
                    "curvature-decomposability-failed"]


def _pinned_argv(name):
    if name in _CLASSIFY_INPUTS:
        command, obj = _classify_input(name)
        return [command, "--input", json.dumps(obj)]
    if name in _YOUNG_CHECK_INPUTS:
        return _young_check_argv(*_YOUNG_CHECK_INPUTS[name])
    if name in _HAMILTONIAN_INPUTS:
        screen, T = _HAMILTONIAN_INPUTS[name]
        return ["hamiltonian-test", "--input", json.dumps({"screen": screen, "T": T})]
    from projdyn.curvclass import CurvatureForm, metric_form_tensor

    g = [[Fraction(x) for x in row] for row in _SCREEN_FIND_METRICS[name]]
    return ["screen-find", "--input", json.dumps(CurvatureForm(metric_form_tensor(g)).to_json())]


# the reports as the CLI prints them: a change here is a change of the CLI's output
_PINNED = {
    'flat-oscillator': (0, (
        '{"log":["homogenized exactly to a biquadratic impulsion polynomial",'
        '"pair-antisymmetric carrier built; symmetry class verified","classification: flat",'
        '"decomposability condition verified","trivial kernel verified","R(u,v;w,x) = g(phi -| (u^v),'
        ' phi -| (w^x)) verified on all basis tuples",'
        '"compatibility identity re-verified exactly on the hyperplane screen"],"verdict":"hyperplane",'
        '"witnesses":{"g":[["0/1","1/2"],["1/2","0/1"]],"lambda":"1/1","phi":["0/1","0/1","1/1"],'
        '"tangent_basis":[["1/1","0/1","0/1"],["0/1","1/1","0/1"]]}}\n'
    )),
    'flat-change-of-screen': (0, (
        '{"log":["homogenized exactly to a biquadratic impulsion polynomial",'
        '"pair-antisymmetric carrier built; symmetry class verified","classification: metric",'
        '"decomposability condition verified","trivial kernel verified","R(u,v;w,x) = eps*scale*(b(u,'
        'w)b(v,x)-b(u,x)b(v,w)) verified",'
        '"compatibility identity re-verified exactly on the quadric screen"],"verdict":"quadric",'
        '"witnesses":{"g":[["1/1","0/1","0/1"],["0/1","1/1","0/1"],["0/1","0/1","1/1"]],"lambda":"1/1"}}\n'
    )),
    'flat-not-an-integral': (1, (
        '{"log":["homogenization is not polynomial: the term is not a free-motion integral"],'
        '"verdict":"incompatible","witnesses":{"reason":"leading_term_not_free_integral"}}\n'
    )),
    'flat-cylindric': (0, (
        '{"inner":{"log":["classification: flat","decomposability condition verified",'
        '"trivial kernel verified","R(u,v;w,x) = g(phi -| (u^v),'
        ' phi -| (w^x)) verified on all basis tuples",'
        '"compatibility identity re-verified exactly on the hyperplane screen"],"verdict":"hyperplane",'
        '"witnesses":{"g":[["0/1","1/2"],["1/2","0/1"]],"lambda":"1/1","phi":["0/1","0/1","1/1"],'
        '"tangent_basis":[["1/1","0/1","0/1"],["0/1","1/1","0/1"]]}},"kernel":[["0/1","0/1","1/1",'
        '"0/1"]],"log":["homogenized exactly to a biquadratic impulsion polynomial",'
        '"pair-antisymmetric carrier built; symmetry class verified",'
        '"nontrivial kernel of dimension 1: cylindric reduction onto coordinates [0, 1, 3]"],'
        '"verdict":"cylindric","witnesses":{"complement":["0/1","1/1","3/1"]}}\n'
    )),
    'linear-chart': (0, (
        '{"log":["homogenized exactly to a biquadratic impulsion polynomial",'
        '"pair-antisymmetric carrier built; symmetry class verified","classification: metric",'
        '"decomposability condition verified","trivial kernel verified","R(u,v;w,x) = eps*scale*(b(u,'
        'w)b(v,x)-b(u,x)b(v,w)) verified",'
        '"compatibility identity re-verified exactly on the quadric screen"],"verdict":"quadric",'
        '"witnesses":{"g":[["1/1","0/1","2/5"],["0/1","4/5","0/1"],["2/5","0/1","4/5"]],'
        '"lambda":"25/16"}}\n'
    )),
    'sphere-d3': (0, (
        '{"log":["homogenized exactly to a biquadratic impulsion polynomial",'
        '"pair-antisymmetric carrier built; symmetry class verified","classification: metric",'
        '"decomposability condition verified","trivial kernel verified","R(u,v;w,x) = eps*scale*(b(u,'
        'w)b(v,x)-b(u,x)b(v,w)) verified",'
        '"compatibility identity re-verified exactly on the quadric screen"],"verdict":"quadric",'
        '"witnesses":{"g":[["1/1","0/1","0/1"],["0/1","1/1","0/1"],["0/1","0/1","1/1"]],"lambda":"1/1"}}\n'
    )),
    'sphere-d4': (0, (
        '{"log":["homogenized exactly to a biquadratic impulsion polynomial",'
        '"pair-antisymmetric carrier built; symmetry class verified","classification: metric",'
        '"decomposability condition verified","trivial kernel verified","R(u,v;w,x) = eps*scale*(b(u,'
        'w)b(v,x)-b(u,x)b(v,w)) verified",'
        '"compatibility identity re-verified exactly on the quadric screen"],"verdict":"quadric",'
        '"witnesses":{"g":[["1/1","0/1","0/1","0/1"],["0/1","1/1","0/1","0/1"],["0/1","0/1","1/1","0/1"],'
        '["0/1","0/1","0/1","1/1"]],"lambda":"1/1"}}\n'
    )),
    'quadric-rational-g': (0, (
        '{"log":["homogenized exactly to a biquadratic impulsion polynomial",'
        '"pair-antisymmetric carrier built; symmetry class verified","classification: metric",'
        '"decomposability condition verified","trivial kernel verified","R(u,v;w,x) = eps*scale*(b(u,'
        'w)b(v,x)-b(u,x)b(v,w)) verified",'
        '"compatibility identity re-verified exactly on the quadric screen"],"verdict":"quadric",'
        '"witnesses":{"g":[["1/1","1/6","0/1"],["1/6","43/92","-7/46"],["0/1","-7/46","21/46"]],'
        '"lambda":"46/7"}}\n'
    )),
    'euclid-d3': (0, (
        '{"log":["classification: metric","decomposability condition verified","trivial kernel verified",'
        '"R(u,v;w,x) = eps*scale*(b(u,w)b(v,x)-b(u,x)b(v,w)) verified",'
        '"compatibility identity re-verified exactly on the quadric screen"],"verdict":"quadric",'
        '"witnesses":{"g":[["1/1","0/1","0/1"],["0/1","1/1","0/1"],["0/1","0/1","1/1"]],"lambda":"1/1"}}\n'
    )),
    'euclid-d4': (0, (
        '{"log":["classification: metric","decomposability condition verified","trivial kernel verified",'
        '"R(u,v;w,x) = eps*scale*(b(u,w)b(v,x)-b(u,x)b(v,w)) verified",'
        '"compatibility identity re-verified exactly on the quadric screen"],"verdict":"quadric",'
        '"witnesses":{"g":[["1/1","0/1","0/1","0/1"],["0/1","1/1","0/1","0/1"],["0/1","0/1","1/1","0/1"],'
        '["0/1","0/1","0/1","1/1"]],"lambda":"1/1"}}\n'
    )),
    'cylindric': (0, (
        '{"inner":{"log":["classification: metric","decomposability condition verified",'
        '"trivial kernel verified","R(u,v;w,x) = eps*scale*(b(u,w)b(v,x)-b(u,x)b(v,w)) verified",'
        '"compatibility identity re-verified exactly on the quadric screen"],"verdict":"quadric",'
        '"witnesses":{"g":[["1/1","0/1","0/1"],["0/1","1/1","0/1"],["0/1","0/1","1/1"]],"lambda":"1/1"}},'
        '"kernel":[["0/1","0/1","0/1","1/1"]],'
        '"log":["nontrivial kernel of dimension 1: cylindric reduction onto coordinates [0, 1, 2]"],'
        '"verdict":"cylindric","witnesses":{"complement":["0/1","1/1","2/1"]}}\n'
    )),
    'rational-g': (0, (
        '{"log":["classification: metric","decomposability condition verified","trivial kernel verified",'
        '"R(u,v;w,x) = eps*scale*(b(u,w)b(v,x)-b(u,x)b(v,w)) verified",'
        '"compatibility identity re-verified exactly on the quadric screen"],"verdict":"quadric",'
        '"witnesses":{"g":[["1/1","1/6","0/1"],["1/6","1/2","-1/4"],["0/1","-1/4","3/4"]],'
        '"lambda":"4/1"}}\n'
    )),
    'classify-wedge-square-d4': (0, (
        '{"case":"wedge_square","checks":["decomposability preservation verified by full expansion","R = '
        'eps * scale * B^2 verified on the full pair basis"],"witnesses":{"B":[["1/1","2/1","0/1","4/1"],'
        '["0/1","6/1","-2/3","2/1"],["2/1","0/1","2/1","0/1"],["4/1","10/7","0/1","2/1"]],"epsilon":"1/1"'
        ',"scale":"1/4"}}\n'
    )),
    'classify-wedge-square-d5': (0, (
        '{"case":"wedge_square","checks":["decomposability preservation verified by full expansion","R = '
        'eps * scale * B^2 verified on the full pair basis"],"witnesses":{"B":[["1/1","0/1","1/2","0/1","'
        '1/6"],["1/2","1/2","0/1","0/1","1/1"],["0/1","-3/4","1/2","1/2","0/1"],["1/2","0/1","0/1","1/1",'
        '"1/2"],["0/1","1/2","1/5","0/1","-1/2"]],"epsilon":"1/1","scale":"4/1"}}\n'
    )),
    'classify-star-wedge-square-d4': (0, (
        '{"case":"star_wedge_square","checks":["decomposability preservation verified by full expansion",'
        '"R(x^y) = (C x ^ C y) -| mu verified on the full pair basis"],"witnesses":{"C":[["1/1","2/1","0/'
        '1","0/1"],["0/1","1/1","1/2","0/1"],["3/1","0/1","1/1","1/1"],["0/1","-1/1","0/1","2/1"]],"mu":{'
        '"dim":4,"entries":[{"idx":[0,1,2,3],"val":"1/1"}],"order":4}}}\n'
    )),
    'classify-phi-degenerate': (0, (
        '{"case":"phi_degenerate","checks":["decomposability preservation verified by full expansion","R('
        'pi) ^ phi = 0 verified on the full pair basis"],"witnesses":{"phi":["1/1","0/1","2/1","0/1"]}}\n'
    )),
    'classify-zeta-degenerate': (0, (
        '{"case":"zeta_degenerate","checks":["decomposability preservation verified by full expansion","z'
        'eta -| R(pi) = 0 verified on the full pair basis"],"witnesses":{"zeta":["0/1","0/1","0/1","1/1"]'
        '}}\n'
    )),
    'classify-decomposability-failed': (1, '{"error":"decomposability_failed","message":"map does not preserve decomposable bivectors"}\n'),
    'curvature-metric': (0, (
        '{"case":"metric","checks":["decomposability condition verified","trivial kernel verified","R(u,v'
        ';w,x) = eps*scale*(b(u,w)b(v,x)-b(u,x)b(v,w)) verified"],"witnesses":{"B":[["1/1","1/2","0/1","0'
        '/1"],["1/2","3/2","0/1","0/1"],["0/1","0/1","-1/2","1/4"],["0/1","0/1","1/4","1/2"]],"epsilon":"'
        '1/1","scale":"4/1"}}\n'
    )),
    'curvature-flat': (0, (
        '{"case":"flat","checks":["decomposability condition verified","trivial kernel verified","R(u,v;w'
        ',x) = g(phi -| (u^v), phi -| (w^x)) verified on all basis tuples"],"witnesses":{"g":[["1/1","0/1'
        '","0/1"],["0/1","-2/1","0/1"],["0/1","0/1","1/3"]],"kernel_of_phi":[["0/1","1/1","0/1","0/1"],["'
        '-2/1","0/1","1/1","0/1"],["1/1","0/1","0/1","1/1"]],"phi":["1/1","0/1","2/1","-1/1"]}}\n'
    )),
    'curvature-kernel-not-trivial': (1, '{"error":"kernel_not_trivial","message":"form has a nontrivial kernel; quotient first"}\n'),
    'curvature-decomposability-failed': (1, '{"error":"decomposability_failed","message":"form violates the decomposability condition"}\n'),
    'young-2x2-vertical-member': (0, '{"class":"image_of_AS","member":true}\n'),
    'young-2x2-vertical-diagonal': (1, '{"class":"image_of_AS","member":false}\n'),
    'young-2x2-horizontal-member': (0, '{"class":"image_of_SA","member":true}\n'),
    'young-2x2-horizontal-diagonal': (1, '{"class":"image_of_SA","member":false}\n'),
    'young-2x2x2-vertical-member': (0, '{"class":"image_of_AS","member":true}\n'),
    'young-2x2x2-vertical-diagonal': (1, '{"class":"image_of_AS","member":false}\n'),
    'young-2x2x2-horizontal-member': (0, '{"class":"image_of_SA","member":true}\n'),
    'young-2x2x2-horizontal-diagonal': (1, '{"class":"image_of_SA","member":false}\n'),
    'young-3x2-vertical-member': (0, '{"class":"image_of_AS","member":true}\n'),
    'young-3x2-vertical-diagonal': (1, '{"class":"image_of_AS","member":false}\n'),
    'young-3x2-horizontal-member': (0, '{"class":"image_of_SA","member":true}\n'),
    'young-3x2-horizontal-diagonal': (1, '{"class":"image_of_SA","member":false}\n'),
    'young-2x2-vertical-pairs': (1, '{"class":"image_of_AS","member":false}\n'),
}


@pytest.mark.parametrize("name", list(_HAMILTONIAN_INPUTS) + list(_SCREEN_FIND_METRICS) + list(_YOUNG_CHECK_INPUTS)
                         + _CLASSIFY_INPUTS)
def test_report_is_byte_identical_to_the_pinned_one(capsys, name):
    assert run(capsys, *_pinned_argv(name)) == _PINNED[name]


# the integrator's CSV as the CLI prints it, as (data rows, SHA-256 of stdout): a change here is a
# change of the step sequence or of a single bit of a state
_PINNED_ORBITS = {
    "free-flat": (["--system", "free", "--screen", "flat", "--q0", "0.1,0.2,1", "--v0", "0.5,-0.3,0",
                   "--t-span", "0,2"], 5, "35789a38dcbb1f2adb94f4e5509f24e239306a4f5d4e2ad4849be744c31283a1"),
    "oscillator-flat": (["--system", "oscillator", "--screen", "flat", "--q0", "1,0,1", "--v0", "0,1,0",
                         "--t-span", "0,5"], 115, "ae9fbccb57d0393dfc4a0de4bd04d2c46522c731914623267cb68c1276482792"),
    "kepler-sphere": (["--system", "kepler", "--screen", "sphere", "--q0", "0.6,0,0.8", "--v0", "0,0.9,0",
                       "--t-span", "0,3"], 371, "7cae17adbf25753ec600755331feb6648c9ce72ae750b02943d0ba2935be8574"),
    # the homogenized Kepler force, with the last stage reused on every accepted step
    "kepler-flat": (["--system", "kepler", "--screen", "flat", "--q0", "1,0,1", "--v0", "0,0.8,0",
                     "--t-span", "0,3"], 124, "80c6b0591e5253c561b7dfbff0be270f3d1ceeb0a3d25efb3337c52451d58516"),
    "free-hyperboloid": (["--system", "free", "--screen", "hyperboloid", "--q0", "0.75,0,1.25", "--v0", "0,0.5,0",
                          "--t-span", "0,6"], 74, "b6113da17dcf2863049117783c894ec3a7e48889a5e6aef1cc0103f82b58445d"),
    "inverse-cube-sphere": (["--scenario", json.dumps({
        "screen": {"kind": "sphere", "dim": 3}, "force": {"kind": "inverse_cube"},
        "q0": [0.6, 0.0, 0.8], "v0": [0.0, 0.5, 0.0], "t_span": [0, 1.5]})],
        19, "d791196f6ce1c924f37df7bad2a6f2094efe263ec1747b6fe6b0eac2690e1386"),
}


@pytest.mark.parametrize("name", list(_PINNED_ORBITS))
def test_integrate_output_is_byte_identical_to_the_pinned_one(capsys, name):
    argv, rows, digest = _PINNED_ORBITS[name]
    code, out = run(capsys, "integrate", *argv, "--tol", "1e-10")
    assert code == 0
    assert len(out.splitlines()) - 2 == rows
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_project_output_is_byte_identical_to_the_pinned_one(capsys, tmp_path):
    path = tmp_path / "kepler.csv"
    argv, rows, _ = _PINNED_ORBITS["kepler-flat"]
    assert main(["integrate", *argv, "--tol", "1e-10", "--output", str(path)]) == 0
    code, out = run(capsys, "project", "--input", str(path), "--to-screen", '{"kind": "sphere", "dim": 3}')
    assert code == 0
    assert len(out.splitlines()) - 2 == rows
    assert hashlib.sha256(out.encode()).hexdigest() == "70134baacf90bd4ed55e9bb8b82d5b7f6d1be4adfa4a9351923142d5fda771ec"


def test_the_reused_parser_carries_no_state_between_calls(capsys, monkeypatch):
    monkeypatch.delenv("PROJDYN_TOL", raising=False)
    assert cli.build_parser() is cli.build_parser()
    argv, _, digest = _PINNED_ORBITS["free-flat"]
    # an argparse error after --tol was read, then a good call
    with pytest.raises(SystemExit) as info:
        main(["integrate", *argv, "--tol", "1e-6", "--system", "bogus"])
    assert info.value.code == 2
    capsys.readouterr()
    code, out = run(capsys, "integrate", *argv, "--tol", "1e-10")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
    # --tol in one call, then the default tolerance (1e-10) in the next
    code, loose = run(capsys, "integrate", *argv, "--tol", "1e-6")
    assert code == 0 and loose != out
    code, out = run(capsys, "integrate", *argv)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


# -- --output is overwritten in place, then cut to the new length -----------------------

@pytest.mark.parametrize("name", list(_PINNED) + list(_PINNED_ORBITS))
def test_output_file_holds_the_same_bytes_on_a_fresh_path_and_over_a_longer_file(capsys, tmp_path, name):
    if name in _PINNED:
        argv, (code, out) = _pinned_argv(name), _PINNED[name]
    else:
        argv, code = ["integrate", *_PINNED_ORBITS[name][0], "--tol", "1e-10"], 0
        out = run(capsys, *argv)[1]
    fresh, over = tmp_path / "fresh", tmp_path / "over"
    over.write_bytes(b"#" * (2 * len(out) + 100))
    for path in (fresh, over):
        assert main([*argv, "--output", str(path)]) == code
        # stdout ends each report with a newline; the file holds the report as written
        text = path.read_text()
        assert text + ("" if text.endswith("\n") else "\n") == out
    assert capsys.readouterr().out == ""
    assert over.read_bytes() == fresh.read_bytes()


def test_output_over_10_kb_of_junk_holds_what_a_fresh_path_gets(tmp_path):
    fresh, junk = tmp_path / "fresh.txt", tmp_path / "junk.txt"
    junk.write_bytes(bytes(range(256)) * 40)
    for path in (fresh, junk):
        assert main(["pbb-dim", "--n", "2", "--b", "2", "--output", str(path)]) == 0
    assert junk.read_bytes() == fresh.read_bytes() == b"6"


def test_integrate_output_over_a_one_byte_file_has_the_pinned_digest(tmp_path):
    path = tmp_path / "orbit.csv"
    path.write_bytes(b"x")
    argv, rows, digest = _PINNED_ORBITS["kepler-flat"]
    assert main(["integrate", *argv, "--tol", "1e-10", "--output", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_output_to_dev_null_exits_0(capsys):
    assert main(["pbb-dim", "--n", "2", "--b", "2", "--output", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_a_new_output_has_the_permission_bits_of_a_plain_open(tmp_path, umask):
    reference, new = tmp_path / "reference.txt", tmp_path / "new.txt"
    old = os.umask(umask)
    try:
        with open(reference, "w"):
            pass
        assert main(["pbb-dim", "--n", "2", "--b", "2", "--output", str(new)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(new.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)


def test_output_is_opened_without_O_TRUNC(monkeypatch, tmp_path):
    # output bytes cannot show a truncating open, only its cost: on ext4 a file
    # truncated to zero and rewritten is flushed to disk when it is closed
    flags = []
    real_open = os.open

    def recording_open(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(cli.os, "open", recording_open)
    path = tmp_path / "out.txt"
    for _ in range(2):  # a fresh path, then over the file the first call wrote
        assert main(["pbb-dim", "--n", "2", "--b", "2", "--output", str(path)]) == 0
    assert len(flags) == 2
    assert all(flag & os.O_CREAT and not flag & os.O_TRUNC for flag in flags)
