import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scm_dict_a1_broken_at_point_1
from medgraph.cli import main
from medgraph.hawkes import model_to_dict, random_fig7_model
from medgraph.scm import random_separated_scm, scm_to_dict
from medgraph.survival import SimulationConfig, simulate_dataset

MEDIATION_LIG = """\
node AD baseline
node AM baseline
node M
node C
node N
AD -> N
AM -> M
C -> M
C -> N
M -> N
N o-> M
N o-> C
role treatment_direct AD
role treatment_mediated AM
role mediator M
role covariate C
role outcome N
"""

PLAIN_LIG = """\
node P baseline
node Q
node R
node S
P -> S
Q -> R
S -> Q
R -> S
"""


@pytest.fixture
def graph_file(tmp_path):
    p = tmp_path / "med.lig"
    p.write_text(MEDIATION_LIG)
    return str(p)


@pytest.fixture
def plain_file(tmp_path):
    p = tmp_path / "plain.lig"
    p.write_text(PLAIN_LIG)
    return str(p)


@pytest.fixture
def scm_file(tmp_path):
    p = tmp_path / "model.json"
    p.write_text(json.dumps(scm_to_dict(random_separated_scm(1, seed=8))))
    return str(p)


@pytest.fixture
def hawkes_file(tmp_path):
    p = tmp_path / "hawkes.json"
    p.write_text(json.dumps(model_to_dict(random_fig7_model(seed=8))))
    return str(p)


@pytest.fixture
def survival_csv(tmp_path):
    config = SimulationConfig(n_subjects=400, rho=0.3, gamma=0.5,
                              psi_values=(0.4,), visit_times=(1.0,),
                              horizon=3.0, mediator_sd=0.5)
    ds = simulate_dataset(config, seed=3)
    lines = ["id,start,stop,event,treatment,m"]
    m = ds.column("m")
    for k in range(len(ds)):
        lines.append(f"{ds.subject[k]},{ds.start[k]},{ds.stop[k]},"
                     f"{ds.event[k]},{ds.treatment[k]},{m[k]}")
    p = tmp_path / "surv.csv"
    p.write_text("\n".join(lines) + "\n")
    return str(p)


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


# -- exit codes ---------------------------------------------------------------


def test_missing_file_is_usage_error(capsys):
    assert main(["check", "/nonexistent/g.lig"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "usage"


def test_bad_arguments_are_usage_error(capsys):
    assert main(["sep"]) == 2
    assert main(["frobnicate"]) == 2


def test_domain_error_exit_code(plain_file, capsys):
    # baseline node as separation target
    code = main(["sep", plain_file, "--from", "S", "--target", "P"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "QueryError"


# -- check --------------------------------------------------------------------


def test_check_reports_assumptions(graph_file, capsys):
    assert main(["check", graph_file]) == 0
    out = _json_out(capsys)
    assert out["report"]["A1"]["status"] == "verified"
    assert out["report"]["A2_discrete"]["status"] == "verified"
    assert out["report"]["A3"]["status"] == "verified"
    assert out["report"]["A0_randomized_treatment_asserted"] is True
    assert "med.lig" in out["inputs"]


def test_check_no_a0_flag(graph_file, capsys):
    assert main(["check", graph_file, "--no-a0"]) == 0
    out = _json_out(capsys)
    assert out["report"]["A0_randomized_treatment_asserted"] is False


def test_check_deterministic_output(graph_file, capsys):
    main(["check", graph_file])
    first = capsys.readouterr().out
    main(["check", graph_file])
    assert capsys.readouterr().out == first


# -- sep ---------------------------------------------------------------------


def test_sep_delta(plain_file, capsys):
    code = main(["sep", plain_file, "--from", "S", "--target", "R",
                 "--given", "Q"])
    assert code == 0
    out = _json_out(capsys)
    assert out["separated"] is True
    assert out["query"]["flavor"] == "delta"


def test_sep_delta_witness(plain_file, capsys):
    main(["sep", plain_file, "--from", "R", "--target", "S", "--given", "Q"])
    out = _json_out(capsys)
    assert out["separated"] is False
    assert out["witness_path"] == "R -> S"


def test_sep_d_flavor_with_lagged_nodes(plain_file, capsys):
    code = main(["sep", plain_file, "--flavor", "d", "--lags", "2",
                 "--from", "S@0,S@1", "--target", "R@2",
                 "--given", "Q@0,Q@1,R@0,R@1"])
    assert code == 0
    assert _json_out(capsys)["separated"] is True


@pytest.mark.parametrize("token", ["S", "S@z"])
def test_sep_d_flavor_rejects_bad_lag_token(plain_file, capsys, token):
    code = main(["sep", plain_file, "--flavor", "d", "--from", token,
                 "--target", "R@2"])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1
    assert json.loads(err)["error"]["code"] == "QueryError"


def test_sep_granger_flavor(plain_file, capsys):
    code = main(["sep", plain_file, "--flavor", "granger",
                 "--from", "S", "--target", "R", "--given", "Q"])
    assert code == 0
    out = _json_out(capsys)
    assert out["status"] == "holds"


# -- unroll --------------------------------------------------------------------


def test_unroll_stdout(plain_file, capsys):
    assert main(["unroll", plain_file, "--lags", "1"]) == 0
    text = capsys.readouterr().out
    assert "node P@0 baseline" in text
    assert "Q@0 -> R@1" in text


def test_unroll_respects_overwrite_guard(plain_file, tmp_path, capsys):
    out = str(tmp_path / "unrolled.lig")
    assert main(["unroll", plain_file, "--lags", "2", "--out", out]) == 0
    assert main(["unroll", plain_file, "--lags", "2", "--out", out]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "--force" in err["error"]["message"]
    assert main(["unroll", plain_file, "--lags", "2", "--out", out,
                 "--force"]) == 0


# -- simulate ---------------------------------------------------------------------


def test_simulate_gformula_matches_interventional(scm_file, capsys):
    assert main(["simulate", "--scm", scm_file, "--query", "gformula",
                 "--a", "1", "--astar", "0", "--t", "1"]) == 0
    gform = _json_out(capsys)["value"]
    assert main(["simulate", "--scm", scm_file, "--query", "interventional",
                 "--a", "1", "--astar", "0", "--t", "1"]) == 0
    truth = _json_out(capsys)["value"]
    assert gform == pytest.approx(truth, abs=1e-12)


def test_simulate_assumptions(scm_file, capsys):
    assert main(["simulate", "--scm", scm_file, "--query", "assumptions"]) == 0
    rep = _json_out(capsys)["report"]
    assert rep["A1"] and rep["A2_discrete"] and rep["A3"]


def test_simulate_bad_t_is_domain_error(scm_file, capsys):
    assert main(["simulate", "--scm", scm_file, "--query", "gformula",
                 "--t", "9"]) == 1


# -- estimate ----------------------------------------------------------------------


def test_estimate_writes_artifacts(survival_csv, tmp_path, capsys):
    out_dir = str(tmp_path / "res")
    assert main(["estimate", "--data", survival_csv, "--out", out_dir]) == 0
    summary = _json_out(capsys)
    assert summary["subjects"] == 400
    fit = json.loads((tmp_path / "res" / "fit.json").read_text())
    assert fit["grad_norm"] <= 1e-8
    assert abs(fit["gamma"][0] - 0.5) < 0.5
    effects = (tmp_path / "res" / "effects.csv").read_text().splitlines()
    assert effects[0] == "t,SDE,SIE,total"
    rho = (tmp_path / "res" / "rho.csv").read_text().splitlines()
    assert rho[0] == "t,rho_hat"
    assert len(rho) > 10


def test_estimate_with_bootstrap_and_summary(survival_csv, tmp_path, capsys):
    out_dir = str(tmp_path / "res")
    assert main(["estimate", "--data", survival_csv, "--out", out_dir,
                 "--summary", "mean_all", "--boot", "5", "--seed", "1"]) == 0
    effects = (tmp_path / "res" / "effects.csv").read_text().splitlines()
    assert effects[0] == "t,SDE,SIE,total,rho_lower,rho_upper"
    fit = json.loads((tmp_path / "res" / "fit.json").read_text())
    assert fit["covariates"] == ["m_mean_all"]


# -- hawkes ------------------------------------------------------------------------


def test_hawkes_exact_identify(hawkes_file, tmp_path, capsys):
    out_dir = str(tmp_path / "hk")
    assert main(["hawkes", "--model", hawkes_file, "--identify",
                 "--out", out_dir]) == 0
    res = json.loads((tmp_path / "hk" / "identify.json").read_text())
    assert res["source"] == "exact"
    model = random_fig7_model(seed=8)
    assert res["identified"]["g_ma"] == pytest.approx(
        model.branching[1, 0], abs=1e-10)


def test_hawkes_simulation_events(hawkes_file, tmp_path, capsys):
    out_dir = str(tmp_path / "hk")
    assert main(["hawkes", "--model", hawkes_file, "--simulate", "50",
                 "--out", out_dir, "--seed", "2"]) == 0
    events = (tmp_path / "hk" / "events.csv").read_text().splitlines()
    assert events[0] == "time,process"
    assert len(events) > 10
    assert _json_out(capsys)["events"] == len(events) - 1


# -- selftest ------------------------------------------------------------------------


def test_selftest_passes_and_is_deterministic(capsys):
    assert main(["selftest", "--seed", "0"]) == 0
    first = capsys.readouterr().out
    assert first.count("PASS") == 5 and "FAIL" not in first
    assert main(["selftest", "--seed", "0"]) == 0
    assert capsys.readouterr().out == first


def test_hawkes_events_csv_is_the_full_precision_stream(hawkes_file, tmp_path,
                                                        capsys):
    from medgraph.hawkes import simulate
    out_dir = tmp_path / "hk"
    assert main(["hawkes", "--model", hawkes_file, "--simulate", "300",
                 "--out", str(out_dir), "--seed", "4"]) == 0
    model = random_fig7_model(seed=8)
    stream = simulate(model, 300.0, 4)
    expected = "time,process\n" + "".join(
        f"{format(float(t), '.17g')},{model.names[p]}\n"
        for t, p in zip(stream.times, stream.procs))
    assert (out_dir / "events.csv").read_text() == expected


# -- hostile input -------------------------------------------------------------------


def _single_error(capsys):
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return json.loads(captured.err)["error"]


@pytest.mark.parametrize("text", ["{bad", "", "[1, 2]", "\x00\xff"])
@pytest.mark.parametrize("command", ["hawkes", "simulate"])
def test_malformed_json_model_is_domain_error(command, text, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(text)
    if command == "hawkes":
        argv = ["hawkes", "--model", str(path), "--identify",
                "--out", str(tmp_path / "out")]
    else:
        argv = ["simulate", "--scm", str(path), "--query", "gformula"]
    assert main(argv) == 1
    assert _single_error(capsys)["code"] == "ConfigurationError"


def test_negative_seed_is_usage_error_before_any_output(survival_csv,
                                                        tmp_path, capsys):
    out_dir = tmp_path / "est"
    assert main(["estimate", "--data", survival_csv, "--out", str(out_dir),
                 "--boot", "3", "--seed", "-1"]) == 2
    assert _single_error(capsys)["code"] == "usage"
    assert not out_dir.exists()


@pytest.mark.parametrize("value", ["-1", "seven"])
def test_bad_seed_environment_is_usage_error(value, hawkes_file, tmp_path,
                                             capsys, monkeypatch):
    monkeypatch.setenv("MEDGRAPH_SEED", value)
    out_dir = tmp_path / "hk"
    assert main(["hawkes", "--model", hawkes_file, "--simulate", "50",
                 "--out", str(out_dir)]) == 2
    assert _single_error(capsys)["code"] == "usage"
    assert not out_dir.exists()


@pytest.mark.parametrize("fields", [
    {"mu": "x"},
    {"branching": [[0.0, 0.1], [0.2]]},
    {"decay": [[1.0, {"b": 2}], [1.0, 1.0]]},
    {"mu": None},
    {"names": 5},
])
def test_non_numeric_model_fields_are_domain_errors(fields, tmp_path, capsys):
    model = {"mu": [0.5, 0.5], "branching": [[0.0, 0.1], [0.2, 0.0]],
             "decay": [[1.0, 1.0], [1.0, 1.0]], **fields}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    assert main(["hawkes", "--model", str(path), "--simulate", "10",
                 "--out", str(tmp_path / "out")]) == 1
    assert _single_error(capsys)["code"] == "ConfigurationError"


@pytest.mark.parametrize("names", [
    ["a", "a"], ["a\nb", "c"], [1, 2], [["a"], "b"], ["D,x", "y"],
    ["\ud800", "b"],
], ids=["repeated", "newline", "numbers", "list", "comma", "surrogate"])
def test_process_names_that_events_csv_cannot_hold_are_domain_errors(
        names, tmp_path, capsys):
    model = {"mu": [0.5, 0.5], "branching": [[0.0, 0.1], [0.2, 0.0]],
             "decay": [[1.0, 1.0], [1.0, 1.0]], "names": names}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    out_dir = tmp_path / "out"
    assert main(["hawkes", "--model", str(path), "--simulate", "20",
                 "--out", str(out_dir)]) == 1
    error = _single_error(capsys)
    assert error["code"] == "ConfigurationError"
    assert repr(names[0]) in error["message"]
    assert not out_dir.exists()


def _slow_decay(model):
    model["decay"] = (np.asarray(model["decay"]) * 1e-3).tolist()


@pytest.mark.parametrize("edit, bin_width, code", [
    (_slow_decay, "0.2", "DataError"),
    (None, "nan", "ConfigurationError"),
    (None, "0", "ConfigurationError"),
], ids=["slow-decay", "bin-width-nan", "bin-width-0"])
def test_empirical_identification_inputs_are_domain_errors(
        edit, bin_width, code, tmp_path, capsys):
    model = model_to_dict(random_fig7_model(seed=8))
    if edit is not None:
        edit(model)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    out_dir = tmp_path / "out"
    assert main(["hawkes", "--model", str(path), "--simulate", "200",
                 "--identify", "--bin-width", bin_width,
                 "--out", str(out_dir)]) == 1
    assert _single_error(capsys)["code"] == code
    assert not (out_dir / "identify.json").exists()


@pytest.mark.parametrize("bin_width", ["1e-15", "5e-324", "1e-5"],
                         ids=["lags-1e-15", "lags-5e-324", "bins-1e-5"])
def test_tiny_bin_width_is_a_size_error(bin_width, hawkes_file, tmp_path,
                                        capsys):
    # the lag count (first two) or the bin counts (last) would exceed
    # EVENT_BUDGET; both are refused before anything is allocated
    out_dir = tmp_path / "out"
    assert main(["hawkes", "--model", hawkes_file, "--simulate", "200",
                 "--identify", "--bin-width", bin_width,
                 "--out", str(out_dir)]) == 1
    assert _single_error(capsys)["code"] == "SizeError"
    assert not (out_dir / "identify.json").exists()


def test_hawkes_events_csv_chunks_match_the_per_row_format(tmp_path, capsys):
    # Over 65 536 events, so the text spans more than one chunk, and names
    # holding format directives.
    model = {"mu": [400.0, 300.0], "branching": [[0.0, 0.2], [0.1, 0.0]],
             "decay": [[1.0, 1.0], [1.0, 1.0]], "names": ["A%s", "%%B"]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    out_dir = tmp_path / "hk"
    assert main(["hawkes", "--model", str(path), "--simulate", "200",
                 "--out", str(out_dir), "--seed", "6"]) == 0
    from medgraph.hawkes import model_from_dict, simulate
    stream = simulate(model_from_dict(model), 200.0, 6)
    assert len(stream) > 1 << 16
    expected = "time,process\n" + "".join(
        f"{format(float(t), '.17g')},{model['names'][p]}\n"
        for t, p in zip(stream.times, stream.procs))
    assert (out_dir / "events.csv").read_text() == expected


def _lo_hi_mediators(model):
    for spec in model["variables"]:
        if spec["name"].startswith("M"):
            spec["states"] = ["lo", "hi"] + spec["states"][2:]


HOSTILE_SCM = {
    "separated-list": lambda m: m.update(separated=["AD", "AM"]),
    "separated-no-mediated": lambda m: m.update(separated={"direct": "AD"}),
    "nan-cpt": lambda m: m["cpt"].update(AD=[float("nan"), 0.5]),
}


@pytest.mark.parametrize("case, query, code", [
    *[(case, query, "ConfigurationError") for case in HOSTILE_SCM
      for query in ("gformula", "assumptions", "interventional")],
    ("lo-hi-states", "gformula", "QueryError"),
])
def test_hostile_scm_files_are_domain_errors(case, query, code, tmp_path,
                                             capsys):
    model = scm_to_dict(random_separated_scm(2, seed=8))
    HOSTILE_SCM.get(case, _lo_hi_mediators)(model)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    assert main(["simulate", "--scm", str(path), "--query", query,
                 "--t", "2"]) == 1
    assert _single_error(capsys)["code"] == code


def test_estimate_rejects_non_finite_cell_with_its_row(survival_csv, tmp_path,
                                                       capsys):
    lines = open(survival_csv).read().splitlines()
    cells = lines[7].split(",")
    cells[-1] = "nan"
    lines[7] = ",".join(cells)
    path = tmp_path / "nan.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["estimate", "--data", str(path), "--out",
                 str(tmp_path / "res")]) == 1
    error = _single_error(capsys)
    assert error["code"] == "DataError"
    assert error["message"].startswith("row 7: non-finite cell")


def test_estimate_rejects_non_finite_effect_curves(tmp_path, capsys):
    # group 0 is separated: the Cox fit drives gamma to about -162 with the
    # gradient under tolerance, R(1.5) is about -1e7 and SDE overflows
    path = tmp_path / "separated.csv"
    path.write_text("id,start,stop,event,treatment,m\n"
                    "a,0,1,1,1,0.5\nb,0,2,0,1,0.1\n"
                    "c,0,1.5,1,0,0.2\nd,0,2,0,0,0.3\n")
    out_dir = tmp_path / "res"
    with pytest.warns(UserWarning, match="negative"):
        code = main(["estimate", "--data", str(path), "--out", str(out_dir)])
    assert code == 1
    error = _single_error(capsys)
    assert error["code"] == "EstimationError"
    assert error["message"].startswith("non-finite SDE")
    assert not out_dir.exists()


def test_estimate_csv_values_are_full_precision(tmp_path):
    from medgraph.cli import _float_csv, _fmt17
    rng = np.random.default_rng(5)
    cols = [rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500),
            np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1.0] * 71
                     + [3.0, 1e16, 0.1])]
    expected = "a,b\n" + "".join(f"{_fmt17(x)},{_fmt17(y)}\n"
                                 for x, y in zip(*cols))
    assert _float_csv("a,b", cols) == expected


def test_failed_estimate_stderr_is_one_json_object(tmp_path):
    # in its own process, so the warning is printed as it would be for a
    # user and not recorded by the test runner
    import os
    import subprocess
    import sys
    path = tmp_path / "separated.csv"
    path.write_text("id,start,stop,event,treatment,m\n"
                    "a,0,1,1,1,0.5\nb,0,2,0,1,0.1\n"
                    "c,0,1.5,1,0,0.2\nd,0,2,0,0,0.3\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "medgraph.cli", "estimate", "--data",
         str(path), "--out", str(tmp_path / "res")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1
    assert json.loads(proc.stderr)["error"]["code"] == "EstimationError"


@pytest.mark.parametrize("fails", [False, True])
def test_subcommand_stderr_is_shown_only_when_it_succeeds(
        fails, graph_file, monkeypatch, capsys):
    import sys
    from medgraph import cli
    from medgraph.errors import MedgraphError

    def noisy(args):
        sys.stderr.write("a note on stderr\n")
        if fails:
            raise MedgraphError("failed after the note")
        return 0

    monkeypatch.setattr(cli, "cmd_check", noisy)
    code = main(["check", graph_file])
    if fails:
        assert code == 1
        assert _single_error(capsys)["message"] == "failed after the note"
    else:
        assert code == 0
        assert capsys.readouterr().err == "a note on stderr\n"


def test_parser_is_built_once_and_keeps_no_state(plain_file, graph_file,
                                                monkeypatch):
    from medgraph import cli
    builds = []
    original = cli.build_parser

    def counted():
        builds.append(1)
        return original()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted)
    seen = []
    for name in ("sep", "estimate", "check"):
        monkeypatch.setattr(cli, "cmd_" + name,
                            lambda args: seen.append(vars(args)) or 0)
    sep = ["sep", plain_file, "--from", "S", "--target", "R"]
    estimate = ["estimate", "--data", "in.csv", "--out", "out"]
    argvs = [sep + ["--given", "Q", "--lags", "5", "--flavor", "d",
                    "--seed", "3", "--force"], sep,
             estimate + ["--boot", "50", "--summary", "weighted",
                         "--decay", "0.5"], estimate,
             ["check", graph_file, "--no-a0"], ["check", graph_file]]
    for argv in argvs:
        assert main(argv) == 0
    assert len(builds) == 1
    # each call sees what a freshly built parser gives: the defaults where
    # an option is left out after a call that set it
    assert seen == [vars(original().parse_args(argv)) for argv in argvs]
    assert (seen[1]["given"], seen[1]["lags"], seen[1]["flavor"],
            seen[1]["seed"], seen[1]["force"]) == ("", 2, "delta", None, False)
    assert (seen[3]["boot"], seen[3]["summary"], seen[3]["decay"]) == \
        (0, None, None)


@pytest.mark.parametrize("command", ["check", "sep"])
def test_usage_error_and_version_leave_the_next_call_unchanged(
        command, graph_file, capsys):
    argv = [command, graph_file]
    if command == "sep":
        argv += ["--from", "AM", "--target", "N", "--given", "M"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main([command, graph_file, "--bogus"]) == 2
    assert main([command]) == 2
    assert main(["--version"]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("argv", [
    ["check", "{graph}"],
    ["check", "{graph}", "--no-a0", "--seed", "4"],
    ["sep", "{plain}", "--from", "R", "--target", "S", "--given", "Q"],
    ["sep", "{plain}", "--flavor", "granger", "--from", "S", "--target", "R"],
    ["sep", "{plain}", "--flavor", "d", "--lags", "3", "--from", "S@0,S@1",
     "--target", "R@2"],
    ["sep", "--help"],
    ["--help"],
    ["sep", "{plain}", "--flavor", "x", "--from", "S", "--target", "R"],
    ["frobnicate"],
], ids=["check", "check-no-a0", "sep-delta", "sep-granger", "sep-d",
        "sep-help", "help", "sep-bad-flavor", "bad-command"])
def test_in_process_calls_match_a_fresh_process(argv, plain_file, graph_file,
                                                monkeypatch, capsys):
    # the in-process call reads the parser that earlier calls built
    import os
    import subprocess
    import sys
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the width
    argv = [a.format(plain=plain_file, graph=graph_file) for a in argv]
    main(["check", graph_file])
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "medgraph.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (code, captured.out, captured.err) == \
        (proc.returncode, proc.stdout, proc.stderr)


@pytest.mark.parametrize("argv", [
    ["check"],
    ["sep", "--from", "AM", "--target", "N"],
    ["unroll", "--lags", "2"],
], ids=["check", "sep", "unroll"])
def test_graph_commands_close_the_graph_file(argv, graph_file):
    # under -X dev an unclosed file is reported as a ResourceWarning on
    # stderr, in a process of its own as a user would see it
    import os
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "medgraph.cli", argv[0],
         graph_file, *argv[1:]],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 6, 7])
def test_float_csv_chunks_match_the_per_row_format(n, monkeypatch):
    from medgraph import cli
    monkeypatch.setattr(cli, "WRITE_CHUNK_ROWS", 3)
    rng = np.random.default_rng(n)
    cols = [rng.standard_normal(n) * 1e10, np.arange(n) / 7.0,
            np.linspace(-1.0, 1.0, n)]
    line = "%.17g,%.17g,%.17g\n"
    expected = "t,x,y\n" + "".join(line % row
                                   for row in zip(*(c.tolist() for c in cols)))
    assert cli._float_csv("t,x,y", cols) == expected


HEADER_CSV = "id,start,stop,event,treatment,m\n"
HOSTILE_CSV = {
    "undecodable byte": (HEADER_CSV.encode() + b"s0,0,1,0,1,0.5\n"
                         b"s\xff1,0,1,1,0,0.2\n", "line 3: "),
    "long cell": ((HEADER_CSV + "s0,0,1,0,1,0.5\ns1,0,1,1,0,"
                   + "1" * 200_000 + "\n").encode(),
                  "line 3: field larger than field limit"),
    # csv reads NUL as a character from Python 3.11 on and rejects the line
    # before; either way the cell does not parse
    "NUL byte": ((HEADER_CSV + "s0,0,1,0,1,0.5\ns1,0,1\0,1,0,0.2\n").encode(),
                 ("row 2: non-numeric cell", "line 3: line contains NUL")),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_CSV))
def test_hostile_csv_is_a_data_error(case, tmp_path, capsys):
    text, message = HOSTILE_CSV[case]
    path = tmp_path / "hostile.csv"
    path.write_bytes(text)
    assert main(["estimate", "--data", str(path), "--out",
                 str(tmp_path / "res")]) == 1
    error = _single_error(capsys)
    assert error["code"] == "DataError"
    assert error["message"].startswith(message)


def test_estimate_boot_over_budget_is_a_size_error(tmp_path):
    # in a process of its own: before the budget, --boot 1e8 ran until killed
    import os
    import subprocess
    import sys
    path = tmp_path / "small.csv"
    path.write_text("id,start,stop,event,treatment,m\n" + "".join(
        f"{i},0,{1 + i % 5},{i % 2},{i % 3 % 2},{i % 7 / 7}\n"
        for i in range(60)))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "medgraph.cli", "estimate", "--data",
         str(path), "--out", str(tmp_path / "res"), "--boot", "100000000"],
        env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1
    error = json.loads(proc.stderr)["error"]
    assert error["code"] == "SizeError"
    assert "bootstrap budget" in error["message"]


@pytest.mark.parametrize("argv", [
    ["unroll", "{plain}", "--lags", "1000"],
    ["unroll", "{plain}", "--lags", "10000000"],
    ["sep", "{plain}", "--flavor", "d", "--from", "Q@0", "--target", "S@2",
     "--lags", "10000000"],
    ["hawkes", "--model", "{hawkes}", "--simulate", "200", "--identify",
     "--bin-width", "1e-4", "--out", "{out}"],
], ids=["unroll-1000", "unroll-1e7", "sep-d-1e7", "hawkes-lag-sums"])
def test_sizes_over_budget_are_refused_before_the_work(argv, plain_file,
                                                       hawkes_file, tmp_path):
    # each ran for minutes before its size was checked; in a process of its
    # own, so a hang fails at the timeout instead of stalling the run
    import os
    import subprocess
    import sys
    argv = [a.format(plain=plain_file, hawkes=hawkes_file,
                     out=tmp_path / "out") for a in argv]
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "medgraph.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"]["code"] == "SizeError"
    assert proc.stdout == ""


# -- CSV floats as bytes: the vectorized %.17g text ----------------------------------


def _per_cell_csv(header, columns):
    return header + "\n" + "".join(
        ",".join(format(float(v), ".17g") for v in row) + "\n"
        for row in zip(*columns))


def _ulp_neighbours(x, n):
    """The n doubles on each side of x, and x."""
    below = [x]
    above = [x]
    for _ in range(n):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[:0:-1] + above


def _edge_floats():
    ties = [12345678901234.0625, 12345678901234.1875,  # 17th digit even, odd
            98765432109876.5, 1.0000000000000000555, 0.30000000000000004]
    powers = [v for e in range(-5, 18)
              for v in _ulp_neighbours(float(f"1e{e}"), 50)]
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
               2.2250738585072014e-308, 1.7976931348623157e308,
               9.999999999999999e16, 9.9999999999999984e16, 2.0 ** 53,
               2.0 ** 53 + 2, 9.9999999999999991e-05]
    return np.array(ties + powers + special, dtype=np.float64)


@pytest.mark.parametrize("chunk", [3, 1 << 16])
def test_float_csv_edge_values_match_the_per_cell_format(chunk, monkeypatch):
    from medgraph import cli
    monkeypatch.setattr(cli, "WRITE_CHUNK_ROWS", chunk)
    x = _edge_floats()
    # one column as is, one with mixed signs: within a chunk, cells of both
    # kinds (vectorized and formatted one by one) and of many layouts
    signs = np.where(np.arange(len(x)) % 3 == 0, -1.0, 1.0)
    cols = [x, x[::-1] * signs]
    assert cli._float_csv("a,b", cols) == _per_cell_csv("a,b", cols)


@pytest.mark.parametrize("bias", [-0.5, 0.5])
def test_float_csv_does_not_rely_on_the_first_exponent_guess(bias,
                                                             monkeypatch):
    # a log10 that is off by about half a decade misjudges the exponent of
    # half the values, the powers of ten among them, by one either way
    from medgraph import cli
    log10 = np.log10
    monkeypatch.setattr(cli.np, "log10", lambda a: log10(a) + bias)
    x = _edge_floats()
    assert cli._float_csv("a", [x]) == _per_cell_csv("a", [x])


def test_float_csv_single_layout_chunk_with_one_fallback_cell(monkeypatch):
    from medgraph import cli
    monkeypatch.setattr(cli, "WRITE_CHUNK_ROWS", 8)
    rng = np.random.default_rng(13)
    col = np.sort(rng.uniform(1e4, 1e5, 40))
    col[[5, 17, 30]] = [0.0, np.nan, 3e-6]
    assert cli._float_csv("t", [col]) == _per_cell_csv("t", [col])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.floats(allow_nan=True, allow_infinity=True,
                                    allow_subnormal=True),
                          st.floats(width=32)), max_size=40),
       st.integers(1, 7))
def test_float_csv_of_any_floats_matches_the_per_cell_format(rows, chunk):
    from unittest import mock

    from medgraph import cli
    cols = [np.array([r[j] for r in rows], dtype=np.float64) for j in (0, 1)]
    with mock.patch.object(cli, "WRITE_CHUNK_ROWS", chunk):
        assert cli._float_csv("x,y", cols) == _per_cell_csv("x,y", cols)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, (1 << 64) - 1), max_size=60))
def test_float_csv_of_any_bit_pattern_matches_the_per_cell_format(bits):
    from medgraph import cli
    col = np.array(bits, dtype=np.uint64).view(np.float64)
    assert cli._float_csv("x", [col]) == _per_cell_csv("x", [col])


def _events_text(stream, names):
    return "time,process\n" + "".join(
        f"{format(float(t), '.17g')},{names[p]}\n"
        for t, p in zip(stream.times.tolist(), stream.procs.tolist()))


def test_event_lines_with_non_ascii_and_empty_names():
    # over 65 536 events, so the text spans more than one chunk
    from medgraph import cli
    from medgraph.hawkes import model_from_dict, simulate
    model = model_from_dict({
        "mu": [300.0, 300.0, 200.0], "branching": [[0.0] * 3] * 3,
        "decay": [[1.0] * 3] * 3, "names": ["Ä", "名", ""]})
    stream = simulate(model, 100.0, 2)
    assert len(stream) > 1 << 16
    assert set(stream.procs.tolist()) == {0, 1, 2}
    text = "".join(cli._event_lines(stream, model.names))
    assert text == _events_text(stream, model.names)


def test_hawkes_with_no_events_writes_the_header_only(tmp_path, capsys):
    from medgraph import cli
    from medgraph.hawkes import model_from_dict, simulate
    model = {"mu": [0.0, 0.0], "branching": [[0.0, 0.1], [0.2, 0.0]],
             "decay": [[1.0, 1.0], [1.0, 1.0]], "names": ["A", "B"]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    out_dir = tmp_path / "hk"
    assert main(["hawkes", "--model", str(path), "--simulate", "50",
                 "--out", str(out_dir)]) == 0
    assert _json_out(capsys)["events"] == 0
    assert (out_dir / "events.csv").read_text() == "time,process\n"
    stream = simulate(model_from_dict(model), 50.0, 0)
    assert "".join(cli._event_lines(stream, ("A", "B"))) == "time,process\n"


# -- a failed estimate writes no output file -----------------------------------------


def _small_csv(tmp_path):
    path = tmp_path / "small.csv"
    path.write_text("id,start,stop,event,treatment,m\n" + "".join(
        f"{i},0,{1 + i % 5},{i % 2},{i % 3 % 2},{i % 7 / 7}\n"
        for i in range(60)))
    return str(path)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_estimate_boot_over_budget_writes_no_file(tmp_path, capsys):
    out_dir = tmp_path / "res"
    assert main(["estimate", "--data", _small_csv(tmp_path), "--out",
                 str(out_dir), "--boot", "100000000"]) == 1
    assert _single_error(capsys)["code"] == "SizeError"
    assert not out_dir.exists() or not list(out_dir.iterdir())


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_estimate_with_too_many_dropped_replicates_writes_no_file(tmp_path,
                                                                  capsys):
    # one group-0 event among 40 subjects: about a third of the replicates
    # draw no group-0 event and are dropped, more than the 20 % allowed
    path = tmp_path / "drop.csv"
    path.write_text("id,start,stop,event,treatment,m\n" + "".join(
        f"{i},0,{1 + i * 7 % 5 + i / 100},"
        f"{int(i == 0 or i % 4 == 1)},{i % 2},{i * 3 % 7 / 7}\n"
        for i in range(40)))
    out_dir = tmp_path / "res"
    assert main(["estimate", "--data", str(path), "--out", str(out_dir),
                 "--boot", "50"]) == 1
    error = _single_error(capsys)
    assert error["code"] == "EstimationError"
    assert "bootstrap replicates failed" in error["message"]
    assert not out_dir.exists() or not list(out_dir.iterdir())


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("existing", ["fit.json", "rho.csv", "effects.csv"])
def test_estimate_refuses_before_writing_any_file(existing, tmp_path, capsys):
    out_dir = tmp_path / "res"
    out_dir.mkdir()
    (out_dir / existing).write_text("kept\n")
    assert main(["estimate", "--data", _small_csv(tmp_path), "--out",
                 str(out_dir)]) == 1
    assert existing in _single_error(capsys)["message"]
    assert [p.name for p in out_dir.iterdir()] == [existing]
    assert (out_dir / existing).read_text() == "kept\n"


# -- one write policy: refuse before the work, write after it ------------------------


def _tree(root):
    return sorted((str(p.relative_to(root)),
                   p.read_bytes() if p.is_file() else None)
                  for p in root.rglob("*"))


def _must_not_run(*args, **kwargs):
    raise AssertionError("the work ran before the refusal")


@pytest.mark.parametrize("case", ["lag-sum-budget", "simulate-1e9",
                                  "existing-identify", "existing-unroll"])
def test_failed_or_refused_run_leaves_out_as_it_was(case, hawkes_file,
                                                    plain_file, tmp_path,
                                                    monkeypatch, capsys):
    from medgraph import cli, hawkes
    work = tmp_path / "work"
    work.mkdir()
    out = work / "out"
    hk = ["hawkes", "--model", hawkes_file, "--out", str(out)]
    if case == "lag-sum-budget":
        argv, code = hk + ["--simulate", "200", "--identify",
                           "--bin-width", "1e-4"], "SizeError"
    elif case == "simulate-1e9":
        argv, code = hk + ["--simulate", "1e9"], "SizeError"
    elif case == "existing-identify":
        out.mkdir()
        (out / "identify.json").write_text("kept\n")
        monkeypatch.setattr(hawkes, "simulate", _must_not_run)
        argv, code = hk + ["--simulate", "50", "--identify"], "MedgraphError"
    else:
        out.write_text("kept\n")
        monkeypatch.setattr(cli, "unroll", _must_not_run)
        argv = ["unroll", plain_file, "--lags", "2", "--out", str(out)]
        code = "MedgraphError"
    before = _tree(work)
    assert main(argv) == 1
    error = _single_error(capsys)
    assert error["code"] == code
    if code == "MedgraphError":
        assert "--force" in error["message"]
    assert _tree(work) == before


def test_hawkes_simulate_zero_is_a_domain_error(hawkes_file, tmp_path, capsys):
    # 0 is a given end time, not a missing one: it does not fall back to
    # the exact identification
    out_dir = tmp_path / "hk"
    assert main(["hawkes", "--model", hawkes_file, "--simulate", "0",
                 "--identify", "--out", str(out_dir)]) == 1
    assert _single_error(capsys)["code"] == "ConfigurationError"
    assert not out_dir.exists()


def test_hawkes_without_outputs_creates_no_directory(hawkes_file, tmp_path,
                                                     capsys):
    out_dir = tmp_path / "hk"
    assert main(["hawkes", "--model", hawkes_file, "--out", str(out_dir)]) == 0
    assert _json_out(capsys) == {"out": str(out_dir)}
    assert not out_dir.exists()


def test_estimate_refuses_before_reading_the_data(tmp_path, capsys):
    out_dir = tmp_path / "res"
    out_dir.mkdir()
    (out_dir / "rho.csv").write_text("kept\n")
    assert main(["estimate", "--data", str(tmp_path / "missing.csv"),
                 "--out", str(out_dir)]) == 1
    assert "refusing to overwrite" in _single_error(capsys)["message"]
    assert (out_dir / "rho.csv").read_text() == "kept\n"


def test_hawkes_writes_events_after_identification(hawkes_file, tmp_path,
                                                   monkeypatch, capsys):
    from medgraph import hawkes
    out_dir = tmp_path / "hk"
    seen = []
    identify = hawkes.identify

    def looking(*args, **kwargs):
        seen.append(out_dir.exists())
        return identify(*args, **kwargs)

    monkeypatch.setattr(hawkes, "identify", looking)
    assert main(["hawkes", "--model", hawkes_file, "--simulate", "300",
                 "--identify", "--out", str(out_dir), "--seed", "4"]) == 0
    assert seen == [False]
    assert sorted(p.name for p in out_dir.iterdir()) == ["events.csv",
                                                         "identify.json"]


@pytest.mark.parametrize("command", ["estimate", "hawkes"])
def test_out_that_is_a_file_is_a_usage_error(command, survival_csv,
                                             hawkes_file, tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("kept\n")
    if command == "estimate":
        argv = ["estimate", "--data", survival_csv]
    else:
        argv = ["hawkes", "--model", hawkes_file, "--identify"]
    assert main(argv + ["--out", str(out)]) == 2
    assert _single_error(capsys)["message"] == f"{out} is not a directory"
    assert out.read_text() == "kept\n"


# -- hostile model and graph files, and the selftest score check ---------------------


TWO_PROCESS_HAWKES = {"mu": [0.5, 0.4], "branching": [[0.0, 0.3], [0.2, 0.0]],
                      "decay": [[1.0, 1.0], [1.0, 1.0]]}


@pytest.mark.parametrize("observed", [[7], [0.5], [-1], [0, 0], [True],
                                      ["0"]])
@pytest.mark.parametrize("simulate", [False, True],
                         ids=["exact", "simulate"])
def test_hawkes_observed_out_of_range_is_a_configuration_error(
        observed, simulate, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**TWO_PROCESS_HAWKES, "observed": observed}))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "keep.txt").write_text("kept")
    argv = ["hawkes", "--model", str(path), "--identify", "--out",
            str(out_dir)] + ["--simulate", "50"] * simulate
    assert main(argv) == 1
    error = _single_error(capsys)
    assert error["code"] == "ConfigurationError"
    assert error["message"].startswith("observed must be distinct")
    assert sorted(p.name for p in out_dir.iterdir()) == ["keep.txt"]


@pytest.mark.parametrize("argv", [
    ["check"],
    ["sep", "--from", "AM", "--target", "N"],
    ["unroll", "--lags", "2"],
    ["unroll", "--lags", "2", "--out", "{out}"],
], ids=["check", "sep", "unroll", "unroll-out"])
def test_graph_file_that_is_not_utf8_is_a_parse_error(argv, tmp_path, capsys):
    path = tmp_path / "latin1.lig"
    path.write_bytes(MEDIATION_LIG.replace("outcome N", "outcome N # \xe9")
                     .encode("latin-1"))
    out = tmp_path / "unrolled.lig"
    argv = [a.format(out=out) for a in argv]
    assert main([argv[0], str(path), *argv[1:]]) == 1
    error = _single_error(capsys)
    assert error["code"] == "ParseError"
    assert error["message"].startswith(f"{path}: not UTF-8 text")
    assert not out.exists()


@pytest.mark.parametrize("wrong", [lambda s: 1.1 * s, lambda s: 0.5 * s,
                                   lambda s: s + 0.01],
                         ids=["1.1x", "0.5x", "+0.01"])
def test_selftest_fails_on_a_wrong_cox_score(wrong, monkeypatch, capsys):
    from medgraph import survival
    cox_stats = survival._cox_stats

    def patched(r, gamma):
        loglik, grad, info = cox_stats(r, gamma)
        return loglik, wrong(grad), info

    monkeypatch.setattr(survival, "_cox_stats", patched)
    assert main(["selftest", "--seed", "0"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines[:5]] == [
        ["PASS", "separation_oracles_agree"], ["PASS", "roll_unroll_round_trip"],
        ["PASS", "gformula_identification"], ["FAIL", "cox_partial_likelihood"],
        ["PASS", "hawkes_identification"]]
    assert "analytic score" in lines[3]


def test_scm_file_with_renamed_components_is_a_configuration_error(tmp_path,
                                                                   capsys):
    # renamed consistently, AD -> X and AM -> Y: the model is well formed,
    # but the exact layer knows the two components only as AD and AM
    rename = {"AD": "X", "AM": "Y"}
    model = scm_to_dict(random_separated_scm(2, seed=8))
    model = {
        "grid": model["grid"],
        "variables": [{**v, "name": rename.get(v["name"], v["name"])}
                      for v in model["variables"]],
        "parents": {rename.get(n, n): [rename.get(p, p) for p in ps]
                    for n, ps in model["parents"].items()},
        "cpt": {rename.get(n, n): c for n, c in model["cpt"].items()},
        "separated": {"direct": "X", "mediated": "Y"},
    }
    path = tmp_path / "renamed.json"
    path.write_text(json.dumps(model))
    assert main(["simulate", "--scm", str(path), "--query", "gformula",
                 "--t", "2"]) == 1
    error = _single_error(capsys)
    assert error["code"] == "ConfigurationError"
    assert "separated must be" in error["message"]


# -- node names that are keywords, inputs that cannot be opened, --out under a file --


def test_check_refuses_a_node_named_after_a_keyword(tmp_path, capsys):
    path = tmp_path / "role.lig"
    path.write_text("node role\nnode x\nrole -> x\n")
    assert main(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    error = json.loads(captured.err)["error"]
    assert error == {"code": "ParseError",
                     "message": "line 1: node name 'role' is a keyword or "
                                "edge operator"}


@pytest.mark.parametrize("argv", [
    ["check", "{input}"],
    ["sep", "{input}", "--from", "AM", "--target", "N"],
    ["unroll", "{input}", "--lags", "2", "--out", "{out}/x.lig"],
    ["simulate", "--scm", "{input}", "--query", "gformula"],
    ["hawkes", "--model", "{input}", "--identify", "--out", "{out}"],
    ["estimate", "--data", "{input}", "--out", "{out}"],
], ids=["check", "sep", "unroll", "simulate", "hawkes", "estimate"])
def test_input_that_is_a_directory_is_a_usage_error(argv, tmp_path, capsys):
    work = tmp_path / "work"
    (work / "input").mkdir(parents=True)
    before = _tree(work)
    argv = [a.format(input=work / "input", out=work / "out") for a in argv]
    assert main(argv) == 2
    error = _single_error(capsys)
    assert error["code"] == "usage"
    assert str(work / "input") in error["message"]
    assert _tree(work) == before


@pytest.mark.parametrize("command", ["hawkes", "unroll", "estimate"])
def test_out_under_a_file_is_refused_before_the_work(command, hawkes_file,
                                                     plain_file, survival_csv,
                                                     tmp_path, monkeypatch,
                                                     capsys):
    from medgraph import cli, hawkes, survival
    work = tmp_path / "work"
    work.mkdir()
    blocker = work / "F"
    blocker.write_text("kept\n")
    if command == "hawkes":
        monkeypatch.setattr(hawkes, "simulate", _must_not_run)
        argv = ["hawkes", "--model", hawkes_file, "--simulate", "50",
                "--identify", "--out", str(blocker / "sub")]
    elif command == "unroll":
        monkeypatch.setattr(cli, "unroll", _must_not_run)
        argv = ["unroll", plain_file, "--lags", "2",
                "--out", str(blocker / "sub" / "x.lig")]
    else:
        monkeypatch.setattr(survival, "ingest_csv", _must_not_run)
        argv = ["estimate", "--data", survival_csv,
                "--out", str(blocker / "a" / "b")]
    before = _tree(work)
    assert main(argv) == 2
    error = _single_error(capsys)
    assert error == {"code": "usage", "message": f"{blocker} is not a directory"}
    assert _tree(work) == before


def test_out_under_missing_directories_is_still_made(plain_file, tmp_path,
                                                     capsys):
    out = tmp_path / "a" / "b" / "x.lig"
    assert main(["unroll", plain_file, "--lags", "2", "--out", str(out)]) == 0
    assert main(["unroll", plain_file, "--lags", "2"]) == 0
    assert out.read_text() == capsys.readouterr().out


def test_input_that_is_a_directory_in_a_fresh_process(tmp_path):
    import os
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "medgraph.cli", "check", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert json.loads(proc.stderr)["error"]["code"] == "usage"


@pytest.mark.parametrize("out", ["new/", "existing"])
def test_unroll_out_that_names_a_directory_is_refused_before_the_work(
        out, plain_file, tmp_path, monkeypatch, capsys):
    from medgraph import cli
    work = tmp_path / "work"
    (work / "existing").mkdir(parents=True)
    monkeypatch.setattr(cli, "unroll", _must_not_run)
    before = _tree(work)
    target = f"{work}/{out}"
    assert main(["unroll", plain_file, "--lags", "2", "--out", target,
                 "--force"]) == 2
    assert _single_error(capsys) == {
        "code": "usage", "message": f"--out {target} is a directory, not a file"}
    assert _tree(work) == before


# -- hawkes --identify covers the fig-7 edges only ------------------------------------


def _ci_model():
    from medgraph.hawkes import fig7_model
    return fig7_model(0.4, 0.3, 0.4, 0.3, 0.3, 0.35, 0.3,
                      mu=(0.6, 0.5, 0.5, 0.4, 0.5), beta=2.0)


def _extra_edges():
    from medgraph.hawkes import FIG7_EDGES, FIG7_NAMES
    return [(cause, effect) for cause in FIG7_NAMES for effect in FIG7_NAMES
            if cause != effect and (cause, effect) not in FIG7_EDGES]


def _extra_edge_sets():
    import itertools
    edges = _extra_edges()
    return [[e] for e in edges] + [list(p)
                                   for p in itertools.combinations(edges, 2)]


@pytest.mark.parametrize("edges", _extra_edge_sets(),
                         ids=lambda es: ",".join(f"{c}{e}" for c, e in es))
@pytest.mark.parametrize("simulate", [False, True], ids=["exact", "simulate"])
def test_hawkes_identify_refuses_every_edge_outside_fig7(
        edges, simulate, tmp_path, monkeypatch, capsys):
    # D -> M exited 0 with direct 0.214 against a true 0.30
    from medgraph import hawkes
    model = model_to_dict(_ci_model())
    names = model["names"]
    for cause, effect in edges:
        model["branching"][names.index(effect)][names.index(cause)] = 0.15
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    work = tmp_path / "work"
    work.mkdir()
    (work / "out").mkdir()
    (work / "out" / "keep.txt").write_text("kept")
    before = _tree(work)
    argv = ["hawkes", "--model", str(path), "--identify",
            "--out", str(work / "out")]
    if simulate:
        monkeypatch.setattr(hawkes, "simulate", _must_not_run)
        argv += ["--simulate", "200"]
    assert main(argv) == 1
    error = _single_error(capsys)
    assert error["code"] == "IdentificationError"
    for cause, effect in edges:
        assert f"{cause} -> {effect}" in error["message"]
    assert _tree(work) == before


def test_extra_edges_are_the_thirteen_pairs_outside_fig7():
    assert len(_extra_edges()) == 13 and len(_extra_edge_sets()) == 13 + 78


@pytest.mark.parametrize("simulate", [False, True], ids=["exact", "simulate"])
@pytest.mark.parametrize("seed", [None, 3])
def test_hawkes_identify_reads_the_structure_not_the_topology_field(
        seed, simulate, tmp_path, capsys):
    model = model_to_dict(_ci_model() if seed is None
                          else random_fig7_model(seed=seed))
    texts = []
    for topology in ("fig7", None):
        root = tmp_path / str(topology)
        root.mkdir()
        (root / "model.json").write_text(
            json.dumps({**model, "topology": topology}))
        argv = ["hawkes", "--model", str(root / "model.json"), "--identify",
                "--out", str(root / "out")]
        assert main(argv + ["--simulate", "300", "--seed", "5"] * simulate) == 0
        text = (root / "out" / "identify.json").read_text()
        digest = json.loads(text)["inputs"]["model.json"]
        texts.append(text.replace(digest, "<digest>"))
    capsys.readouterr()
    assert texts[0] == texts[1]


# -- model files and arguments the layers below refuse -----------------------------------


@pytest.mark.parametrize("grid", [1.7, 1, True, "2"])
def test_separated_model_grid_that_hides_a_violation_is_refused(grid, tmp_path,
                                                                capsys):
    # AD -> M1 breaks A1 at grid point 1 only; a grid that stops before it,
    # or is not an integer, must not report A1 as holding
    d = scm_dict_a1_broken_at_point_1()
    path = tmp_path / "model.json"
    path.write_text(json.dumps(d))
    assert main(["simulate", "--scm", str(path), "--query", "assumptions"]) == 0
    assert _json_out(capsys)["report"]["A1"] is False
    d["grid"] = grid
    path.write_text(json.dumps(d))
    assert main(["simulate", "--scm", str(path), "--query", "assumptions"]) == 1
    assert _single_error(capsys)["code"] == "ConfigurationError"


@pytest.mark.parametrize("mu", [[[0.1]] * 5, 0.1])
def test_hawkes_model_whose_mu_is_not_a_vector_is_refused(mu, tmp_path, capsys):
    from medgraph.hawkes import fig7_model
    model = model_to_dict(fig7_model(0.4, 0.3, 0.4, 0.3, 0.3, 0.35, 0.3,
                                     mu=(0.6, 0.5, 0.5, 0.4, 0.5), beta=2.0))
    model["mu"] = mu
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model))
    out = tmp_path / "out"
    assert main(["hawkes", "--model", str(path), "--identify",
                 "--out", str(out)]) == 1
    error = _single_error(capsys)
    assert error["code"] == "ConfigurationError" and "mu" in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("split", ["nan", "inf"])
def test_two_part_summary_needs_a_finite_split(split, survival_csv, tmp_path,
                                               capsys):
    out = tmp_path / "est"
    assert main(["estimate", "--data", survival_csv, "--summary", "two_part",
                 "--split", split, "--out", str(out)]) == 1
    error = _single_error(capsys)
    assert error["code"] == "ConfigurationError"
    assert f"finite split time, got {split}" in error["message"]
    assert not out.exists()


# -- hawkes: the observed processes alone ---------------------------------------------


def _fig7_file(tmp_path, g_lu=0.35, g_du=0.3, mu_u=0.5):
    from medgraph.hawkes import fig7_model
    path = tmp_path / "fig7.json"
    path.write_text(json.dumps(model_to_dict(fig7_model(
        0.4, 0.3, 0.4, 0.3, 0.3, g_lu, g_du, mu=(0.6, 0.5, 0.5, 0.4, mu_u),
        beta=2.0))))
    return str(path)


@pytest.mark.parametrize("simulate", [[], ["--simulate", "20000"]],
                         ids=["exact", "empirical"])
def test_hawkes_identify_accepts_a_silent_latent_process(simulate, tmp_path,
                                                         capsys):
    # U with no immigrants and no edges: the empirical path used to refuse
    # U's zero variance (DataError), the exact one its zero mean intensity
    model = _fig7_file(tmp_path, g_lu=0.0, g_du=0.0, mu_u=0.0)
    out = tmp_path / "out"
    assert main(["hawkes", "--model", model, *simulate, "--identify",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["identify.json"] + ["events.csv"] * bool(simulate))
    res = json.loads((out / "identify.json").read_text())
    assert res["source"] == ("empirical" if simulate else "exact")
    if not simulate:
        assert res["identified"]["direct"] == pytest.approx(0.30, abs=1e-12)
        assert res["identified"]["mediated"] == pytest.approx(0.16, abs=1e-12)


def test_hawkes_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the lag sums are BLAS matmuls of exact integers, so how OpenBLAS
    # splits them cannot change a bit; the thread count is set in each
    # child's environment only
    import filecmp
    import os
    import subprocess
    import sys
    model = _fig7_file(tmp_path)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "medgraph.cli", "hawkes", "--model", model,
             "--simulate", "20000", "--identify", "--seed", "4",
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    for name in ("events.csv", "identify.json"):
        assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False)
