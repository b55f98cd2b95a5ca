from __future__ import annotations

import importlib.util

import pytest

from conftest import REPO

_spec = importlib.util.spec_from_file_location("bench_pairs", REPO / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

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
