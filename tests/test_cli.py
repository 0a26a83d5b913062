"""CLI subcommands: exit codes, determinism, and round trips."""

import json
import warnings

import pytest

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


def test_pbb_dim(capsys):
    code, out = run(capsys, "pbb-dim", "--n", "2", "--b", "2")
    assert code == 0 and out.strip() == "6"
    code, out = run(capsys, "pbb-dim", "--n", "3", "--b", "2")
    assert code == 0 and out.strip() == "20"


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


_KEPLER = {"kind": "kepler", "mu": 1.0, "center": [0, 0, 1]}
_PROJECTION = ["verify-projection", "--q0", "1,0,1", "--v0", "0,1,0", "--t-span", "0,1",
               "--to-screen", '{"kind": "sphere", "dim": 3}']


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
], ids=["tol", "scenario-tol", "scenario-t-span", "scenario-q0", "kepler-mu", "kepler-center", "deviation-tol"])
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
    from projdyn.exactlin import parse_rational

    B = [[parse_rational(x) for x in row] for row in report["witnesses"]["B"]]
    assert B == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
