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


def _refuse(*args):
    raise AssertionError("ran before the arguments were checked")


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
@pytest.mark.parametrize(
    "mode", [["--cli=--help"], ["--workload", "build_scaled"], ["--observations", "0"]], ids=["cli", "workload", "observations"]
)
def test_fewer_than_two_pairs_are_refused_before_anything_runs(pairs, mode, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "export", _refuse)
    monkeypatch.setattr(bench_pairs, "is_working_tree", _refuse)
    with pytest.raises(SystemExit) as excinfo:
        bench_pairs.main(["--base", "HEAD", "--pairs", pairs, *mode])
    assert excinfo.value.code == 2
    assert f"--pairs must be at least 2, as each verdict compares quartiles of paired runs: {pairs}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--observations", "0,-5"], "an observation count cannot be negative: '0,-5'"),
        (["--observations", "1.5"], "invalid observation_counts value: '1.5'"),
        (["--observations", "10,x"], "invalid observation_counts value: '10,x'"),
        (["--observations", ""], "invalid observation_counts value: ''"),
        (["--observations", "0", "--cli=--help"], "--observations cannot be combined with --cli or --workload"),
        (["--observations", "0", "--workload", "build_scaled"], "--observations cannot be combined with --cli or --workload"),
    ],
    ids=["negative", "fraction", "word", "empty", "cli", "workload"],
)
def test_observation_counts_and_modes_are_refused_before_the_export(argv, message, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "export", _refuse)
    monkeypatch.setattr(bench_pairs, "is_working_tree", _refuse)
    monkeypatch.setattr(bench_pairs, "run_cli", _refuse)
    with pytest.raises(SystemExit) as excinfo:
        bench_pairs.main(["--base", "HEAD", *argv])
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert message in err and out == ""


def _stub_trees(monkeypatch, run_cli):
    monkeypatch.setattr(bench_pairs, "is_working_tree", lambda revision: False)
    monkeypatch.setattr(bench_pairs, "export", lambda revision, into: None)
    monkeypatch.setattr(bench_pairs, "run_cli", run_cli)


def test_each_side_validates_the_graph_its_own_build_wrote(monkeypatch, capsys):
    """Each round is build --out, build --check-only and validate of the
    file that side's build wrote; the rounds alternate after one untimed
    round per side, and each process's wall seconds and peak MB are reported."""
    calls = []

    def child(side, tree, env, args):
        calls.append((side, args))
        if args[0] == "validate":
            assert args[:3] == ["validate", "--strict", "--in"]
            build = calls[-3][1]
            assert calls[-3][0] == side and args[3] == build[build.index("--out") + 1]
            assert open(args[3], "rb").read() == f"<a> <b> <{side}> .\n".encode()
            return 0.5, 7.0 if side == "base" else 8.0
        if "--out" in args:
            with open(args[args.index("--out") + 1], "wb") as out:
                out.write(f"<a> <b> <{side}> .\n".encode())
            return 2.0, 30.0
        return 3.0, 40.0

    _stub_trees(monkeypatch, child)
    assert bench_pairs.main(["--base", "HEAD", "--observations", "0", "--pairs", "2"]) == 0
    assert [args[0] for _, args in calls] == ["build", "build", "validate"] * 6
    # one untimed round per side, then pair 0 base first and pair 1 change first
    assert [side for side, _ in calls[::3]] == ["base", "change", "base", "change", "change", "base"]
    assert len({args[args.index("--manifest") + 1] for _, args in calls if args[0] == "build"}) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n=0: 2 pairs, base HEAD against the working tree"
    labels = [line.split(":")[0].strip() for line in lines if line.startswith("  ") and not line.startswith("    ")]
    assert labels == [
        "build --out wall (s)", "build --out peak (MB)",
        "build --check-only wall (s)", "build --check-only peak (MB)",
        "validate --strict wall (s)", "validate --strict peak (MB)",
        "base output", "change output",
    ]
    assert "    base 7 7" in lines and "    change 8 8" in lines
    assert lines[-2].startswith("  base output: 1 triples, sha256 ")
    assert lines[-1].startswith("  change output: 1 triples, sha256 ")


def test_a_side_whose_builds_differ_stops_the_run(monkeypatch):
    builds = []

    def child(side, tree, env, args):
        if "--out" in args:
            builds.append(side)
            with open(args[args.index("--out") + 1], "wb") as out:
                out.write(b"<a> <b> <%d> .\n" % builds.count("base") if side == "base" else b"<a> <b> <c> .\n")
        return 1.0, 10.0

    _stub_trees(monkeypatch, child)
    with pytest.raises(RuntimeError) as excinfo:
        bench_pairs.main(["--base", "HEAD", "--observations", "5", "--pairs", "2"])
    assert str(excinfo.value).startswith("base: n=5: its builds wrote different outputs: ")
    assert builds == ["base", "change", "base"]


def test_cli_reports_wall_seconds_and_peak_megabytes(monkeypatch, capsys):
    runs = iter([(9.0, 99.0), (9.0, 99.0), (1.0, 20.0), (1.5, 21.0), (1.5, 22.0), (1.0, 20.0)])
    _stub_trees(monkeypatch, lambda side, tree, env, args: next(runs))
    assert bench_pairs.main(["--base", "HEAD", "--cli", "validate --in g.nt", "--pairs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "cpskg validate --in g.nt: 2 pairs, base HEAD against the working tree"
    assert lines[1].startswith("  validate --in g.nt wall (s): base 1 ")
    assert lines[2:4] == ["    base 1 1", "    change 1.5 1.5"]
    assert lines[4].startswith("  validate --in g.nt peak (MB): base 20 ")
    assert lines[5:] == ["    base 20 20", "    change 21 22"]


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
        bench_pairs.run_cli("change", tree, env, ["validate", "--in", str(tmp_path / "missing.nt")])
    assert str(excinfo.value).startswith("change: ")
    assert " exited 2: " in str(excinfo.value)


def test_the_runner_reads_the_peak_of_a_real_cpskg_process(tmp_path):
    (_, tree, env), = [side for side in bench_pairs.cli_sides(tmp_path, tmp_path) if side[0] == "change"]
    seconds, peak = bench_pairs.run_cli("change", tree, env, ["--help"])
    assert seconds > 0 and peak > 0
