from __future__ import annotations

import importlib.util

import pytest

from conftest import REPO


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _script("bench_pairs")
sweep_observations = _script("sweep_observations")

# ten pairs; the base's quartiles are 10.75 and 13.25 (exclusive method), so its IQR is 2.5
BASE = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]


def test_a_gain_needs_nine_wins_in_ten_and_a_median_shift_past_the_base_iqr():
    change = [b - 4.0 for b in BASE]
    change[0] = 10.0  # a tie counts for neither side
    s = bench_pairs.summarize(BASE, change, "lower", 0.25)
    assert (s["pairs"], s["wins"]) == (10, 9)
    assert s["base"] == {"median": 12.0, "q1": 10.75, "q3": 13.25}
    assert s["change"]["median"] == 8.5  # 3.5 below the base's, more than its IQR of 2.5
    assert s["gain"] and not s["regression"]


def test_no_gain_from_wins_that_move_the_median_less_than_the_base_iqr():
    change = [b - 2.0 for b in BASE]
    s = bench_pairs.summarize(BASE, change, "lower", 0.25)
    assert s["wins"] == 10
    assert s["base"]["median"] - s["change"]["median"] == 2.0
    assert not s["gain"]


def test_no_gain_from_eight_wins_in_ten():
    change = [b - 4.0 for b in BASE]
    change[0], change[1] = 10.5, 11.5
    s = bench_pairs.summarize(BASE, change, "lower", 0.25)
    assert s["wins"] == 8
    assert not s["gain"]


def test_higher_is_better_turns_wins_and_regressions_round():
    s = bench_pairs.summarize(BASE, [b + 3.0 for b in BASE], "higher", 0.1)
    assert s["wins"] == 10 and s["gain"] and not s["regression"]
    s = bench_pairs.summarize(BASE, [b * 0.85 for b in BASE], "higher", 0.1)
    assert s["wins"] == 0 and s["regression"]


def test_a_regression_is_a_median_worse_by_more_than_the_bound_as_a_fraction():
    assert not bench_pairs.summarize(BASE, [b * 1.25 for b in BASE], "lower", 0.25)["regression"]
    assert bench_pairs.summarize(BASE, [b * 1.26 for b in BASE], "lower", 0.25)["regression"]


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        bench_pairs.summarize(BASE, BASE[:-1], "lower", 0.25)


def test_the_base_revision_must_be_named(capsys):
    with pytest.raises(SystemExit) as excinfo:
        bench_pairs.main(["--pairs", "2"])
    assert excinfo.value.code == 2
    assert "--base" in capsys.readouterr().err


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
@pytest.mark.parametrize("mode", [["--cli=--help"], ["--workload", "build_scaled"]], ids=["cli", "workload"])
def test_fewer_than_two_pairs_are_refused_before_anything_runs(pairs, mode, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("ran with too few pairs")

    monkeypatch.setattr(bench_pairs, "export", refuse)
    monkeypatch.setattr(bench_pairs, "is_working_tree", refuse)
    with pytest.raises(SystemExit) as excinfo:
        bench_pairs.main(["--base", "HEAD", "--pairs", pairs, *mode])
    assert excinfo.value.code == 2
    assert f"--pairs must be at least 2, as each verdict compares quartiles of paired runs: {pairs}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--runs", "0"], "--runs must be at least 1: 0"),
        (["--runs", "-1"], "--runs must be at least 1: -1"),
        (["--counts", "0,-5"], "an observation count cannot be negative: '0,-5'"),
        (["--counts", "1.5"], "invalid observation_counts value: '1.5'"),
        (["--counts", "10,x"], "invalid observation_counts value: '10,x'"),
        (["--counts", ""], "invalid observation_counts value: ''"),
    ],
)
def test_the_sweep_refuses_no_runs_and_counts_that_are_no_observation_count(argv, message, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("ran a child")

    monkeypatch.setattr(sweep_observations, "run_child", refuse)
    with pytest.raises(SystemExit) as excinfo:
        sweep_observations.main(argv)
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert message in err and out == ""


def test_the_sweep_validates_the_graph_each_build_wrote(monkeypatch, capsys):
    """Each run adds a fresh validate of the file its build wrote, and the
    row gives the median wall seconds and peak MB of those processes."""
    calls = []

    def child(args):
        calls.append(args)
        if args[0] == "validate":
            assert args[:3] == ["validate", "--strict", "--in"]
            path = args[3]
            assert path == calls[-3][calls[-3].index("--out") + 1]
            assert open(path, "rb").read() == b"<a> <b> <c> .\n"
            return 0.5 * len(calls), 7.0 + len(calls)
        if "--out" in args:
            with open(args[args.index("--out") + 1], "wb") as out:
                out.write(b"<a> <b> <c> .\n")
            return 2.0, 30.0
        return 3.0, 40.0

    monkeypatch.setattr(sweep_observations, "run_child", child)
    assert sweep_observations.main(["--counts", "0", "--runs", "3"]) == 0
    assert [args[0] for args in calls] == ["build", "build", "validate"] * 3
    header, _, row = capsys.readouterr().out.splitlines()
    assert header.split(" | ")[5:7] == ["validate s", "validate peak MB"]
    # validate runs are the 3rd, 6th and 9th children: medians 3.0 s and 13.0 MB
    assert row.split(" | ")[1:7] == ["1", "2.00", "30.0", "40.0", "3.00", "13.0"]


def test_cli_cannot_be_combined_with_a_workload(capsys):
    with pytest.raises(SystemExit) as excinfo:
        bench_pairs.main(["--base", "HEAD", "--cli", "validate --in g.nt", "--workload", "build_scaled"])
    assert excinfo.value.code == 2
    assert "--cli cannot be combined with --workload" in capsys.readouterr().err


def test_each_cli_side_runs_its_own_tree_with_a_bytecode_cache_of_its_own(monkeypatch, tmp_path):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("PYTHONPATH", "/elsewhere")
    base_tree = tmp_path / "base"
    sides = bench_pairs.cli_sides(base_tree, tmp_path)
    assert [(side, tree) for side, tree, _ in sides] == [("base", base_tree), ("change", REPO)]
    for side, tree, env in sides:
        assert env["PYTHONPATH"] == str(tree / "src")
        assert env["PYTHONPYCACHEPREFIX"] == str(tmp_path / f"pycache-{side}")
        assert "PYTHONDONTWRITEBYTECODE" not in env
    # only the children's environment changes
    assert bench_pairs.os.environ["PYTHONDONTWRITEBYTECODE"] == "1"


def test_a_cli_run_that_fails_names_its_side(tmp_path):
    (_, tree, env), = [side for side in bench_pairs.cli_sides(tmp_path, tmp_path) if side[0] == "change"]
    with pytest.raises(RuntimeError) as excinfo:
        bench_pairs.time_cli("change", tree, env, ["validate", "--in", str(tmp_path / "missing.nt")])
    assert str(excinfo.value).startswith("change: ")
    assert " exited 2: " in str(excinfo.value)
