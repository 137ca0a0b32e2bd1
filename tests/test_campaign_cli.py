import csv
import json
import math
import re
import statistics

import pytest

from sofsyn import builtin_plant_path, campaign, cli
from sofsyn.campaign import (
    CampaignSpec,
    RunRow,
    quartiles,
    read_campaign_json,
    read_rows_csv,
    run_campaign,
    summarize,
    write_campaign_json,
    write_rows_csv,
    write_summary_csv,
)
from sofsyn.cli import main
from sofsyn.driver import SolverConfig
from sofsyn.errors import ConfigError, EigenSolveError
from sofsyn.objectives import ObjectiveKind

UNSTABILIZABLE = """
name hopeless
dims 1 1 1 1 1
matrix A 1 1
1
matrix B1 1 1
1
matrix B 1 1
0
matrix C1 1 1
1
matrix D11 1 1
0
matrix D12 1 1
0
matrix C 1 1
1
"""


def di_config(**kw):
    base = dict(objective=ObjectiveKind.SPECTRAL_ABSCISSA, t_max=300, t_s=5, seed=0)
    base.update(kw)
    return SolverConfig(**base)


def make_row(problem="p", run_index=0, objective=1.0, feasible=True, wall=0.1):
    return RunRow(
        problem=problem, run_index=run_index, seed=run_index, objective=objective,
        fitness=-objective, gain_norm=1.0, feasible=feasible,
        global_evals=100, local_evals=500, wall_time_s=wall,
    )


# ---------------------------------------------------------------------------
# statistics


def test_quartiles_median_of_halves():
    assert quartiles([1.0]) == (1.0, 1.0, 1.0)
    assert quartiles([1, 2, 3, 4]) == (1.5, 2.5, 3.5)
    assert quartiles([1, 2, 3, 4, 5]) == (1.5, 3.0, 4.5)
    assert quartiles([3, 1, 2]) == (1.0, 2.0, 3.0)


def test_summarize_excludes_infeasible():
    rows = [make_row(objective=1.0), make_row(run_index=1, objective=3.0),
            make_row(run_index=2, objective=math.inf, feasible=False)]
    s = summarize("p", rows)
    assert s.runs == 3 and s.success_count == 2
    assert s.best == 1.0 and s.worst == 3.0 and s.median == 2.0
    assert s.best <= s.median <= s.worst


def test_summarize_no_feasible_runs():
    rows = [make_row(objective=math.inf, feasible=False)]
    s = summarize("p", rows)
    assert s.success_count == 0
    assert math.isinf(s.best) and math.isinf(s.median)
    assert math.isnan(s.std)


def test_campaign_runs_and_is_reproducible():
    spec = CampaignSpec(
        problems=(builtin_plant_path("double_integrator"),),
        config=di_config(),
        runs=3,
        base_seed=5,
    )
    rows1, sums1 = run_campaign(spec)
    rows2, sums2 = run_campaign(spec)
    assert [r.seed for r in rows1] == [5, 6, 7]
    for a, b in zip(rows1, rows2):
        assert (a.objective, a.fitness, a.gain_norm, a.feasible) == (
            b.objective, b.fitness, b.gain_norm, b.feasible)
    assert sums1[0].success_count == 3


def test_campaign_single_run_degenerate_stats():
    spec = CampaignSpec(
        problems=(builtin_plant_path("double_integrator"),),
        config=di_config(),
        runs=1,
    )
    _, sums = run_campaign(spec)
    s = sums[0]
    assert s.best == s.median == s.worst == s.q1 == s.q3
    assert s.std == 0.0


def test_rows_csv_roundtrip_with_inf(tmp_path):
    rows = [make_row(objective=math.inf, feasible=False), make_row(run_index=1)]
    path = tmp_path / "rows.csv"
    write_rows_csv(rows, path)
    back = read_rows_csv(path)
    assert back == rows
    text = path.read_text()
    assert "inf" in text


def test_campaign_json_roundtrip_with_inf(tmp_path):
    rows = [make_row(objective=math.inf, feasible=False)]
    sums = [summarize("p", rows)]
    path = tmp_path / "campaign.json"
    write_campaign_json(rows, sums, path)
    back_rows, back_sums = read_campaign_json(path)
    assert back_rows == rows
    assert math.isinf(back_sums[0].best)
    assert math.isnan(back_sums[0].std)
    doc = json.loads(path.read_text())
    assert doc["rows"][0]["objective"] == "inf"


def _written(tmp_path, kind: str, edit) -> tuple:
    """A one-row campaign written as ``kind`` ("json" or "csv") and passed
    through ``edit`` (JSON: the parsed document; CSV: the text)."""
    rows = [make_row()]
    path = tmp_path / f"campaign.{kind}"
    if kind == "json":
        write_campaign_json(rows, [summarize("p", rows)], path)
        path.write_text(edit(json.loads(path.read_text())))
        return read_campaign_json, path
    write_rows_csv(rows, path)
    path.write_text(edit(path.read_text()))
    return read_rows_csv, path


def _drop_run_index(doc):
    del doc["rows"][0]["run_index"]
    return json.dumps(doc)


def _bad_json_bool(doc):
    doc["rows"][0]["feasible"] = "yes"
    return json.dumps(doc)


@pytest.mark.parametrize("kind, edit", [
    ("json", lambda doc: json.dumps({"format": "sofsyn.campaign"})),
    ("json", lambda doc: "[]"),
    ("json", lambda doc: "this is not JSON"),
    ("json", _drop_run_index),
    ("json", _bad_json_bool),
    ("csv", lambda text: text.replace(",seed,", ",").replace(",0,1.0,", ",1.0,")),
    ("csv", lambda text: text.replace(",true,", ",yes,")),
], ids=["no-rows", "list", "not-json", "no-run_index", "json-bool", "csv-no-seed", "csv-bool"])
def test_malformed_campaign_files_raise_config_error(tmp_path, kind, edit):
    read, path = _written(tmp_path, kind, edit)
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        read(path)


def test_summary_matches_independent_recompute(tmp_path):
    spec = CampaignSpec(
        problems=(builtin_plant_path("double_integrator"),),
        config=di_config(),
        runs=5,
    )
    rows, sums = run_campaign(spec)
    rows_path = tmp_path / "rows.csv"
    sums_path = tmp_path / "summary.csv"
    write_rows_csv(rows, rows_path)
    write_summary_csv(sums, sums_path)

    # recompute from the CSV with stdlib tools only
    with open(rows_path) as fh:
        recs = [r for r in csv.DictReader(fh)]
    objectives = sorted(float(r["objective"]) for r in recs if r["feasible"] == "true")
    with open(sums_path) as fh:
        s = next(csv.DictReader(fh))
    assert int(s["success_count"]) == len(objectives)
    assert abs(float(s["best"]) - objectives[0]) <= 1e-12
    assert abs(float(s["worst"]) - objectives[-1]) <= 1e-12
    assert abs(float(s["median"]) - statistics.median(objectives)) <= 1e-12
    half = len(objectives) // 2
    assert abs(float(s["q1"]) - statistics.median(objectives[:half])) <= 1e-12
    assert abs(float(s["q3"]) - statistics.median(objectives[-half:])) <= 1e-12
    assert abs(float(s["std"]) - statistics.stdev(objectives)) <= 1e-12
    mean_wall = sum(float(r["wall_time_s"]) for r in recs) / len(recs)
    assert abs(float(s["mean_wall_time_s"]) - mean_wall) <= 1e-12


def test_campaign_spec_validation():
    with pytest.raises(ConfigError):
        CampaignSpec(problems=(), runs=1)
    with pytest.raises(ConfigError):
        CampaignSpec(problems=("x",), runs=0)


# ---------------------------------------------------------------------------
# CLI


def test_cli_validate_prints_dims(capsys):
    code = main(["validate", "--problem", builtin_plant_path("double_integrator")])
    out = capsys.readouterr().out
    assert code == 0
    assert "n_x=2" in out and "n_u=1" in out and "n_y=2" in out


def test_cli_validate_missing_file_names_path(capsys):
    code = main(["validate", "--problem", "/nonexistent/thing.plant"])
    err = capsys.readouterr().err
    assert code == 2
    assert "thing.plant" in err


def test_cli_validate_truncated_matrix(tmp_path, capsys):
    path = tmp_path / "bad.plant"
    good = open(builtin_plant_path("first_order_lag")).read()
    path.write_text(good.replace("matrix C 1 1\n1", "matrix C 1 1"))
    assert main(["validate", "--problem", str(path)]) == 2


def test_cli_validate_duplicate_block(tmp_path, capsys):
    path = tmp_path / "dup.plant"
    good = open(builtin_plant_path("first_order_lag")).read()
    path.write_text(good + "\nmatrix A 1 1\n-1\n")
    assert main(["validate", "--problem", str(path)]) == 2


def test_cli_solve_double_integrator_sa(tmp_path, capsys):
    out_path = tmp_path / "run.json"
    code = main([
        "solve", "--problem", builtin_plant_path("double_integrator"),
        "--objective", "sa", "--seed", "1", "--budget", "400", "--local-iters", "5",
        "--out", str(out_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "feasible: true" in out
    doc = json.loads(out_path.read_text())
    assert list(doc) == [
        "format", "version", "best_alpha", "best_fitness", "best_objective", "feasible",
        "global_evals", "local_evals", "wall_time_s", "history",
    ]
    assert doc["format"] == "sofsyn.run"
    assert doc["best_objective"] < 0
    assert doc["feasible"] is True


def test_cli_solve_unstabilizable_reports_infeasible(tmp_path, capsys):
    plant_path = tmp_path / "hopeless.plant"
    plant_path.write_text(UNSTABILIZABLE)
    out_path = tmp_path / "run.json"
    code = main([
        "solve", "--problem", str(plant_path), "--objective", "hinf",
        "--budget", "50", "--out", str(out_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "feasible: false" in out
    doc = json.loads(out_path.read_text())
    assert doc["best_objective"] == "inf"
    assert doc["feasible"] is False


def test_cli_oracle_first_order_lag(capsys):
    code = main(["oracle", "--problem", builtin_plant_path("first_order_lag")])
    out = capsys.readouterr().out
    assert code == 0
    values = {}
    for line in out.splitlines():
        if ":" in line:
            key, _, val = line.partition(":")
            values[key.strip()] = val.split()[0]
    assert abs(float(values["level-set norm"]) - 1.0) < 1e-4
    assert abs(float(values["grid oracle"]) - 1.0) < 1e-4
    assert float(values["difference"]) < 1e-4


def test_cli_oracle_resonant(capsys):
    code = main(["oracle", "--problem", builtin_plant_path("resonant_2state")])
    out = capsys.readouterr().out
    assert code == 0
    peak = 1.0 / (2 * 0.05 * math.sqrt(1 - 0.05**2))
    for token in ("level-set norm", "grid oracle"):
        line = next(l for l in out.splitlines() if l.startswith(token))
        assert abs(float(line.split(":")[1].split()[0]) - peak) < 1e-3


def test_cli_oracle_unstable_exit_3(tmp_path, capsys):
    plant_path = tmp_path / "hopeless.plant"
    plant_path.write_text(UNSTABILIZABLE)
    code = main(["oracle", "--problem", str(plant_path)])
    assert code == 3
    assert "unstable" in capsys.readouterr().err


def test_cli_oracle_gain_flag(capsys):
    code = main([
        "oracle", "--problem", builtin_plant_path("double_integrator"),
        "--gain=-1,-2",
    ])
    assert code == 0


def test_cli_oracle_bad_gain_shape(capsys):
    code = main([
        "oracle", "--problem", builtin_plant_path("double_integrator"),
        "--gain=-1,-2;0,1",
    ])
    assert code == 2


def test_cli_oracle_unparsable_gain(capsys):
    code = main([
        "oracle", "--problem", builtin_plant_path("double_integrator"),
        "--gain=a,b",
    ])
    assert code == 2


@pytest.mark.parametrize("content", [None, "a b\nc d\n"], ids=["missing", "non-numeric"])
def test_cli_oracle_bad_gain_file(content, tmp_path, capsys):
    gain_file = tmp_path / "gain.txt"
    if content is not None:
        gain_file.write_text(content)
    code = main([
        "oracle", "--problem", builtin_plant_path("double_integrator"),
        "--gain-file", str(gain_file),
    ])
    assert code == 2
    assert "gain.txt" in capsys.readouterr().err


def test_cli_oracle_gain_file(tmp_path, capsys):
    gain_file = tmp_path / "gain.txt"
    gain_file.write_text("-1 -2\n")
    code = main([
        "oracle", "--problem", builtin_plant_path("double_integrator"),
        "--gain-file", str(gain_file),
    ])
    assert code == 0


@pytest.mark.parametrize("command", ["validate", "solve", "bench", "oracle"])
def test_cli_non_utf8_problem_file_exit_2(command, tmp_path, capsys):
    binary = tmp_path / "binary.plant"
    binary.write_bytes(b"\xff\xfe\x80\x81 not a plant file\n")
    extra = ["--out", str(tmp_path / "out")] if command == "bench" else []
    code = main([command, "--problem", str(binary), *extra])
    assert code == 2
    assert "binary.plant" in capsys.readouterr().err


def _read_csv_without_wall_time(path):
    with open(path) as fh:
        recs = list(csv.DictReader(fh))
    for rec in recs:
        rec.pop("wall_time_s", None)
        rec.pop("mean_wall_time_s", None)
    return recs


def test_cli_bench_deterministic_outputs(tmp_path, capsys):
    args = [
        "bench", "--problem", builtin_plant_path("double_integrator"),
        "--objective", "sa", "--runs", "4", "--seed", "3",
        "--budget", "300", "--local-iters", "5",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    for suffix in ("_rows.csv", "_summary.csv"):
        rec_a = _read_csv_without_wall_time(tmp_path / f"a{suffix}")
        rec_b = _read_csv_without_wall_time(tmp_path / f"b{suffix}")
        assert rec_a == rec_b
    rows = read_rows_csv(tmp_path / "a_rows.csv")
    assert len(rows) == 4
    assert all(r.feasible for r in rows)


def test_cli_bench_json_format(tmp_path, capsys):
    out = tmp_path / "camp.json"
    code = main([
        "bench", "--problem", builtin_plant_path("double_integrator"),
        "--objective", "sa", "--runs", "2", "--budget", "300", "--local-iters", "5",
        "--format", "json", "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    rows, sums = read_campaign_json(out)
    assert len(rows) == 2 and sums[0].runs == 2


def test_cli_threads_env_var(tmp_path, capsys, monkeypatch):
    """--threads and the retired SOFSYN_THREADS variable change no row."""
    monkeypatch.setenv("SOFSYN_THREADS", "lots")
    monkeypatch.setattr(campaign, "_available_cpus", lambda: 2)  # pool on any host
    args = [
        "bench", "--problem", builtin_plant_path("double_integrator"),
        "--problem", builtin_plant_path("first_order_lag"),
        "--objective", "sa", "--runs", "2", "--budget", "300", "--local-iters", "5",
        "--format", "json",
    ]
    docs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.json"
        assert main(args + ["--threads", threads, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        for rec in doc["rows"]:
            rec.pop("wall_time_s")
        for rec in doc["summary"]:
            rec.pop("mean_wall_time_s")
        docs.append(doc)
    capsys.readouterr()
    assert docs[0] == docs[1]
    assert [(r["problem"], r["run_index"]) for r in docs[0]["rows"]] == [
        ("double_integrator", 0), ("double_integrator", 1),
        ("first_order_lag", 0), ("first_order_lag", 1),
    ]


def test_cli_threads_must_be_positive(capsys):
    code = main([
        "solve", "--problem", builtin_plant_path("double_integrator"),
        "--objective", "sa", "--budget", "300", "--threads", "0",
    ])
    assert code == 2


@pytest.mark.parametrize("flag", ["--beta", "--sigma0"])
def test_cli_nan_setting_rejected(flag, capsys):
    for value in ("nan", "inf"):
        code = main([
            "solve", "--problem", builtin_plant_path("double_integrator"),
            "--objective", "sa", "--budget", "300", flag, value,
        ])
        assert code == 2
        assert "must be" in capsys.readouterr().err


def test_cli_sigma0_above_its_bound_exits_before_solving(monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved despite a bad --sigma0")

    monkeypatch.setattr(cli, "solve", no_solve)
    code = main([
        "solve", "--problem", builtin_plant_path("rand4"), "--budget", "400", "--sigma0", "1e20",
    ])
    assert code == 2
    assert "sigma0 must be" in capsys.readouterr().err


def test_campaign_failed_run_recorded_and_continues(monkeypatch):
    # a numerical failure in one problem's runs leaves unsuccessful rows
    real_solve = campaign._driver_solve

    def failing_on_rand4(plant, config, progress=None):
        if plant.name == "rand4":
            raise EigenSolveError("dgeev did not converge")
        return real_solve(plant, config, progress)

    monkeypatch.setattr(campaign, "_driver_solve", failing_on_rand4)
    spec = CampaignSpec(
        problems=(builtin_plant_path("rand4"), builtin_plant_path("double_integrator")),
        config=di_config(t_max=6, t_s=1),
        runs=2,
    )
    rows, sums = run_campaign(spec)
    assert len(rows) == 4
    rand4_rows = [r for r in rows if r.problem == "rand4"]
    assert all(not r.feasible and math.isinf(r.objective) for r in rand4_rows)
    assert sums[0].success_count == 0
    di_rows = [r for r in rows if r.problem == "double_integrator"]
    assert all(r.global_evals == 6 for r in di_rows)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_cli_bench_config_error_exit_2(threads, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(campaign, "_available_cpus", lambda: 2)
    code = main([
        "bench", "--problem", builtin_plant_path("rand4"), "--budget", "3", "--runs", "2",
        "--threads", threads, "--out", str(tmp_path / "c"),
    ])
    assert code == 2
    assert "population size p=8" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", [
    ["solve", "--out"],
    ["bench", "--format", "csv", "--out"],
    ["bench", "--format", "json", "--out"],
])
def test_cli_missing_out_dir_exit_2_before_solving(command, tmp_path, capsys, monkeypatch):
    def not_reached(*args, **kwargs):
        raise AssertionError("solved before checking --out")

    monkeypatch.setattr(cli, "solve", not_reached)
    monkeypatch.setattr(cli, "run_campaign", not_reached)
    code = main(command[:1] + ["--problem", builtin_plant_path("double_integrator")]
                + command[1:] + [str(tmp_path / "missing" / "out.json")])
    assert code == 2
    assert "error: output directory" in capsys.readouterr().err


@pytest.mark.parametrize("command, taken", [
    (["solve", "--out"], "out.json"),
    (["bench", "--format", "csv", "--out"], "out_rows.csv"),
    (["bench", "--format", "csv", "--out"], "out_summary.csv"),
    (["bench", "--format", "json", "--out"], "out.json"),
], ids=["solve", "bench-csv-rows", "bench-csv-summary", "bench-json"])
def test_cli_out_naming_a_directory_exit_2_before_solving(
    command, taken, tmp_path, capsys, monkeypatch
):
    def not_reached(*args, **kwargs):
        raise AssertionError("solved before checking --out")

    monkeypatch.setattr(cli, "solve", not_reached)
    monkeypatch.setattr(cli, "run_campaign", not_reached)
    (tmp_path / taken).mkdir()
    out = tmp_path / ("out" if "csv" in command else "out.json")
    code = main(command[:1] + ["--problem", builtin_plant_path("double_integrator")]
                + command[1:] + [str(out)])
    assert code == 2
    assert f"error: cannot write output: {tmp_path / taken} is a directory" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("command", [["solve"], ["bench", "--format", "json"]])
def test_cli_unwritable_out_exit_2(command, tmp_path, capsys):
    out = tmp_path / "taken.json"
    out.mkdir()
    code = main(command + [
        "--problem", builtin_plant_path("double_integrator"), "--objective", "sa",
        "--budget", "30", "--local-iters", "2", "--out", str(out),
    ])
    assert code == 2
    assert "error: cannot write output" in capsys.readouterr().err
