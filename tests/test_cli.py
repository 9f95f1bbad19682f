import json

import pytest

from typesched.cli import ExperimentConfig, main, run_experiment
from typesched.errors import BadSpec
from typesched.model import instance_from_json
from typesched.rationals import rat


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_is_byte_deterministic(tmp_path, capsys):
    code1, out1 = run(capsys, "gen", "--jobs", "4", "--machines", "2,1", "--seed", "9")
    code2, out2 = run(capsys, "gen", "--jobs", "4", "--machines", "2,1", "--seed", "9")
    assert code1 == code2 == 0
    assert out1 == out2
    inst = instance_from_json(out1)
    assert inst.num_jobs == 4 and inst.machine_counts == (2, 1)


def test_solve_round_trip(tmp_path, capsys):
    path = tmp_path / "inst.json"
    code, _ = run(capsys, "gen", "--jobs", "5", "--machines", "1,2", "--seed", "3", "--out", str(path))
    assert code == 0
    code, out = run(
        capsys, "solve", "--instance", str(path), "--objective", "makespan",
        "--eps", "1/2", "--mode", "guided", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert rat(doc["ratio"].split("/")[0]) >= 1 or doc["ratio"] == "1"
    assert len(doc["schedule"]) == 5
    # ratio bound from the config holds
    num, _, den = doc["ratio"].partition("/")
    assert rat(int(num), int(den or 1)) <= rat(3, 2)


def test_solve_lpnorm_with_forest_dump(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run(capsys, "gen", "--jobs", "4", "--machines", "2", "--seed", "5", "--out", str(path))
    code, out = run(
        capsys, "solve", "--instance", str(path), "--objective", "lpnorm",
        "--p", "2", "--mode", "guided", "--emit-forest", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert "digraph subsumption" in doc["forest_dot"]
    assert "objective_pow" in doc


def test_oracle_subcommand(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run(capsys, "gen", "--jobs", "3", "--machines", "1,1", "--seed", "2", "--out", str(path))
    code, out = run(capsys, "oracle", "--instance", str(path), "--objective", "makespan")
    assert code == 0
    doc = json.loads(out)
    assert doc["explored"] > 0 and len(doc["schedule"]) == 3


def test_bench_report_byte_stable():
    cfg = ExperimentConfig(objective="makespan", trials=4, seed=21, eps_user=rat(1, 2))
    a = run_experiment(cfg).to_json()
    b = run_experiment(cfg).to_json()
    assert a == b


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("trials", 0, "trials must be at least 1, got 0"),
        ("trials", -1, "trials must be at least 1, got -1"),
        ("jobs_max", 1, "jobs_max must be at least 2, got 1"),
        ("machines_max", 1, "machines_max must be at least 2, got 1"),
        ("num_types", 0, "num_types must be at least 1, got 0"),
        ("num_types", 5, "num_types must be at most machines_max (4), got 5"),
        ("dims_choices", (), "len(dims_choices) must be at least 1, got 0"),
        ("dims_choices", (1, 0), "min(dims_choices) must be at least 1, got 0"),
        ("dims_choices", (-1,), "min(dims_choices) must be at least 1, got -1"),
        ("cost_min", 0, "cost_min must be at least 1, got 0"),
        ("cost_max", 0, "cost_max must be at least 1, got 0"),
        ("cost_min", 11, "cost_max must be at least 11, got 10"),
        ("enum_budget", -3, "enum_budget must be at least 0, got -3"),
        ("eps_user", 2, "eps_user must lie in (0, 1], got 2"),
        ("eps_user", 0, "eps_user must lie in (0, 1], got 0"),
    ],
    ids=["trials-0", "trials-negative", "jobs-max-1", "machines-max-1", "types-0",
         "types-above-machines-max", "no-dims", "dims-0", "dims-negative", "cost-min-0",
         "cost-max-0", "cost-range-empty", "budget-negative", "eps-2", "eps-0"],
)
def test_experiment_config_rejects_shapes_it_cannot_run(field, value, message):
    # each of these used to run no trial, end in ZeroDivisionError from
    # trial_spec or in a bare ValueError from the eps calibration, pass
    # until a trial drew the bad dims choice or cost and the generator
    # raised, or (more types than machines_max) run every trial on more
    # machines than machines_max
    spec = dict(objective="makespan", trials=1, seed=0, eps_user=rat(1, 2))
    spec[field] = value
    with pytest.raises(BadSpec) as info:
        ExperimentConfig(**spec)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("objective", "lpnorm", "objective must be 'makespan' or 'lp_norm', got 'lpnorm'"),
        ("mode", "Guided", "mode must be 'guided' or 'full', got 'Guided'"),
    ],
    ids=["objective-lpnorm", "mode-Guided"],
)
def test_experiment_config_rejects_unknown_names(field, value, message):
    # the objective used to escape run_experiment as ValueError from the
    # oracle, and the mode to run full enumeration labelled "Guided"
    spec = dict(objective="makespan", trials=1, seed=0, eps_user="1/2")
    spec[field] = value
    with pytest.raises(BadSpec) as info:
        run_experiment(ExperimentConfig(**spec))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "spec, message",
    [
        (dict(eps_user="abc"), "eps_user is not a rational: 'abc'"),
        (dict(eps_user="1/0"), "eps_user is not a rational: '1/0'"),
        (dict(eps_user=None), "eps_user is not a rational: None"),
        (dict(objective="lp_norm", p="abc"), "p is not a rational: 'abc'"),
        (dict(objective="lp_norm", p=1), "p must be > 1, got 1"),
        (dict(objective="lp_norm", p="1/2"), "p must be > 1, got 1/2"),
    ],
    ids=["eps-abc", "eps-1-over-0", "eps-none", "p-abc", "p-1", "p-half"],
)
def test_experiment_config_rejects_eps_and_p_it_cannot_use(spec, message):
    # an eps_user that does not parse used to escape as a bare ValueError,
    # ZeroDivisionError or TypeError, and an L_p p <= 1 to fail every trial
    # with BadExponent
    config = dict(objective="makespan", trials=1, seed=0, eps_user=rat(1, 2))
    with pytest.raises(BadSpec) as info:
        ExperimentConfig(**{**config, **spec})
    assert str(info.value) == message


def test_bench_zero_budget_reports_budget_exhausted():
    cfg = ExperimentConfig(
        objective="makespan", trials=2, seed=0, eps_user=rat(1, 2),
        mode="full", enum_budget=0,
    )
    report = run_experiment(cfg)
    assert not report.ok
    for row in report.rows:
        assert "BudgetExhausted" in row["error"]
        assert "Infeasible" not in row["error"]


def test_bench_exit_codes(capsys):
    code, _ = run(capsys, "bench", "--objective", "makespan", "--trials", "2", "--seed", "1")
    assert code == 0
    code, _ = run(
        capsys, "bench", "--objective", "makespan", "--trials", "1", "--seed", "1",
        "--mode", "full", "--enum-budget", "0",
    )
    assert code == 1


def test_audit_subcommand(capsys):
    code, out = run(capsys, "audit", "--suite", "power-mean", "--samples", "24", "--seed", "3")
    assert code == 0
    assert "[pass] power-mean" in out


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--eps", "2", "eps must lie in (0, 1], got 2"),
        ("--eps", "0", "eps must lie in (0, 1], got 0"),
        ("--eps", "1/0", "not a rational: '1/0'"),
        ("--p", "1/2", "norm exponent must be > 1, got 1/2"),
        ("--p", "1", "norm exponent must be > 1, got 1"),
    ],
)
def test_bad_eps_or_p_is_a_usage_error(tmp_path, capsys, flag, value, message):
    path = tmp_path / "inst.json"
    run(capsys, "gen", "--jobs", "3", "--machines", "1,1", "--seed", "2", "--out", str(path))
    for argv in (
        ["solve", "--instance", str(path), "--objective", "lpnorm"],
        ["bench", "--objective", "lpnorm", "--trials", "1"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + [flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: {message}" in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--jobs", "3", "--machines", "a,b"],
        ["gen", "--jobs", "3", "--machines", "1,,1"],
        ["bench", "--trials", "1", "--dims", "a"],
    ],
    ids=["gen-machines-letters", "gen-machines-empty", "bench-dims-letters"],
)
def test_bad_integer_list_is_a_usage_error(capsys, argv):
    flag, value = argv[-2:]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: not comma-separated integers: {value!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bench", "--trials", "1", "--jobs-max", "1"], "argument --jobs-max: must be at least 2, got 1"),
        (["bench", "--trials", "1", "--machines-max", "1"],
         "argument --machines-max: must be at least 2, got 1"),
        (["bench", "--trials", "1", "--types", "0"], "argument --types: must be at least 1, got 0"),
        (["bench", "--trials", "1", "--types", "two"], "argument --types: not an integer: 'two'"),
        (["audit", "--suite", "power-mean", "--samples", "0"],
         "argument --samples: must be at least 1, got 0"),
        (["bench", "--trials", "0"], "argument --trials: must be at least 1, got 0"),
        (["bench", "--trials", "-1"], "argument --trials: must be at least 1, got -1"),
    ],
    ids=["bench-jobs-max-1", "bench-machines-max-1", "bench-types-0", "bench-types-letters",
         "audit-samples-0", "bench-trials-0", "bench-trials-negative"],
)
def test_out_of_range_counts_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert "Traceback" not in captured.err


def test_smallest_counts_are_accepted(capsys):
    code, out = run(
        capsys, "bench", "--trials", "2", "--jobs-max", "2", "--machines-max", "2",
        "--types", "1", "--format", "json",
    )
    rows = json.loads(out)["rows"]
    assert code == 0 and len(rows) == 2 and all(row["ok"] for row in rows)
    code, out = run(capsys, "audit", "--suite", "power-mean", "--samples", "1")
    assert code == 0 and "power-mean: 1 samples" in out


def test_eps_and_p_boundaries_are_accepted(capsys):
    code, out = run(
        capsys, "bench", "--objective", "lpnorm", "--trials", "1", "--seed", "1",
        "--eps", "1", "--p", "3/2", "--format", "json",
    )
    assert code == 0
    config = json.loads(out)["config"]
    assert config["eps_user"] == "1" and config["p"] == "3/2"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--jobs", "0", "--machines", "1,1"], "BadSpec: non-positive sizes in "),
        (["solve", "--instance", "{bad}"], "BadSpec: malformed instance document: "),
        (["solve", "--instance", "{big}", "--mode", "guided"],
         "TooLarge: 10 jobs / 4 machines exceed caps (8 / 5)"),
        (["solve", "--instance", "{dims2}", "--objective", "lpnorm"],
         "DimensionMismatch: lp_norm oracle requires D=1"),
        (["oracle", "--instance", "{big}"], "TooLarge: 10 jobs / 4 machines exceed caps (8 / 5)"),
        (["solve", "--instance", "{text}"],
         "BadSpec: malformed instance document: Expecting value: line 1 column 1 (char 0)"),
        (["solve", "--instance", "{missing}"],
         "FileNotFoundError: [Errno 2] No such file or directory: "),
        (["bench", "--types", "7", "--machines-max", "2"],
         "BadSpec: num_types must be at most machines_max (2), got 7"),
    ],
    ids=["gen-no-jobs", "solve-malformed", "solve-too-large", "solve-lpnorm-2d", "oracle-too-large",
         "solve-not-json", "solve-missing-file", "bench-types-above-machines-max"],
)
def test_library_errors_end_a_command_without_a_traceback(tmp_path, capsys, argv, message):
    paths = {name: str(tmp_path / f"{name}.json") for name in ("bad", "big", "dims2", "text", "missing")}
    (tmp_path / "bad.json").write_text('{"bad": 1}')
    (tmp_path / "text.json").write_text("jobs: 3\n")
    run(capsys, "gen", "--jobs", "10", "--machines", "2,2", "--out", paths["big"])
    run(capsys, "gen", "--jobs", "3", "--dims", "2", "--machines", "1,1", "--out", paths["dims2"])
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(message) and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "costs, message",
    [
        ([["3"], ["0"]], "BadSpec: NonPositiveCost: job 0 type 1 dim 0 cost 0"),
        ([["3"]], "BadSpec: MissingCostEntry: job 0 has 1 type entries, expected 2"),
        ([["3"], ["abc"]], "BadSpec: NonRationalCost: job 0 type 1 dim 0 cost 'abc'"),
        ([["3"], ["1/0"]], "BadSpec: NonRationalCost: job 0 type 1 dim 0 cost '1/0'"),
    ],
    ids=["zero-cost", "short-cost-list", "cost-abc", "cost-1-over-0"],
)
def test_a_bad_instance_file_is_one_badspec_line(tmp_path, capsys, costs, message):
    # the oracle used to report optimum 0 for a zero cost and the others
    # ended in IndexError or ValueError tracebacks
    path = tmp_path / "inst.json"
    jobs = [{"costs": costs}, {"costs": [["2"], ["5"]]}]
    doc = {"D": 1, "types": [{"machine_count": 1}] * 2, "jobs": jobs}
    path.write_text(json.dumps(doc))
    for argv in (
        ["solve", "--mode", "guided"],
        ["solve", "--mode", "full"],
        ["solve", "--objective", "lpnorm", "--mode", "full"],
        ["oracle"],
    ):
        code = main(argv + ["--instance", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == message + "\n"


def test_negative_enum_budget_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run(capsys, "gen", "--jobs", "3", "--machines", "1,1", "--seed", "2", "--out", str(path))
    for argv in (
        ["solve", "--instance", str(path), "--mode", "full"],
        ["bench", "--trials", "1", "--mode", "full"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--enum-budget", "-3"])
        assert exit_info.value.code == 2
        assert "must be at least 0, got -3" in capsys.readouterr().err


def test_solve_reports_an_exhausted_budget_as_its_json_document(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run(capsys, "gen", "--jobs", "3", "--machines", "1,1", "--seed", "2", "--out", str(path))
    code = main(["solve", "--instance", str(path), "--mode", "full", "--enum-budget", "0"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert captured.out == json.dumps(
        {"eps_user": "1/2", "error": "BudgetExhausted: work budget 0 exhausted",
         "mode": "full", "objective": "makespan"},
        indent=2, sort_keys=True,
    ) + "\n"
