#!/usr/bin/env python3
"""Run the benchmark in alternating pairs: a base revision against the working tree.

    python3 scripts/bench_pairs.py --base REV [--pairs N] [--seed N]
                                   [--seconds S] [--workload NAME ...]
    python3 scripts/bench_pairs.py --base REV [--pairs N] --cli "ARGS"

Run it from a git checkout. It refuses a base revision whose files are the
working tree's, tracked and untracked, as that run would measure nothing.
It exports the base revision with ``git archive`` into a temporary
directory, then, for each pair, runs
``perfbench/run.py`` once from that export and once from the working tree,
one after the other; even pairs run the base first and odd pairs the
working tree first. ``--seconds`` defaults to ``run_seconds`` in
BENCHMARK.json. Each run's last stdout line is its result.

For each workload and end-to-end metric it prints both sides' medians and
quartiles, the pairs the working tree won (ties count for neither side),
and two verdicts:
  gain        the working tree won at least nine tenths of the pairs, and the
              medians differ, its way, by more than the base's interquartile
              range;
  regression  the working tree's median is worse than the base's by more
              than the metric's bound in BENCHMARK.json, read as a fraction
              of the base's median.
It also prints the failed operations of each side.

With ``--cli``, each pair instead times one fresh ``python -m cpskg ARGS``
process on each side (ARGS split as a shell would; write ``--cli="--config
c.json build ..."`` when ARGS starts with a dash). Each side runs with its
tree's root as the working directory, ``PYTHONPATH`` at its tree's
``src`` and a bytecode cache of its own under the temporary directory
(``PYTHONPYCACHEPREFIX``), with ``PYTHONDONTWRITEBYTECODE`` unset for these
processes only. One untimed run per side first fills its cache, so the
size of the source does not bias the timings. It prints the wall time's
medians, quartiles, wins and verdicts, the regression verdict using the
bound of ``job_s``. A run that exits non-zero stops it, naming its side.
``--cli`` cannot be combined with ``--workload``.

The temporary directory is removed when it ends. It needs only the
standard library and git; before Python 3.10.12 it extracts the export
without ``tarfile``'s ``data`` filter, which those releases lack.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shlex
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """The verdicts on one metric from runs in pairs: ``base[i]`` and
    ``change[i]`` ran as pair ``i``; ``better`` is "lower" or "higher"."""
    if len(base) != len(change) or len(base) < 2:
        raise ValueError("need at least two pairs, each with both sides")
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    q1, _, q3 = statistics.quantiles(base, n=4)
    change_q1, _, change_q3 = statistics.quantiles(change, n=4)
    base_median, change_median = statistics.median(base), statistics.median(change)
    return {
        "pairs": len(base),
        "wins": wins,
        "base": {"median": base_median, "q1": q1, "q3": q3},
        "change": {"median": change_median, "q1": change_q1, "q3": change_q3},
        "gain": wins >= 0.9 * len(base) and sign * (base_median - change_median) > q3 - q1,
        "regression": sign * (change_median - base_median) > bound * abs(base_median),
    }


def report(label: str, values: dict[str, list[float]], better: str, bound: float) -> None:
    """Print the summary of one metric's paired ``values`` of each side, then the values."""
    s = summarize(values["base"], values["change"], better, bound)
    b, c = s["base"], s["change"]
    print(
        f"  {label}: base {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}]"
        f"  change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
        f"  ratio {c['median'] / b['median']:.4f}  wins {s['wins']}/{s['pairs']}"
        f"  gain {'yes' if s['gain'] else 'no'}  regression {'yes' if s['regression'] else 'no'}"
    )
    for side, runs in values.items():
        print(f"    {side} {' '.join(f'{v:.6g}' for v in runs)}")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``: its result line."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} in {checkout} exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(lines[-1])


def cli_sides(base_tree: Path, temp: Path) -> list[tuple[str, Path, dict[str, str]]]:
    """Each side of a ``--cli`` pair: its name, its tree and the environment
    of its processes, which run from that tree's ``src`` and keep their
    bytecode in a directory of their own under ``temp``."""
    inherited = {name: value for name, value in os.environ.items() if name != "PYTHONDONTWRITEBYTECODE"}
    return [
        (side, tree, {**inherited, "PYTHONPATH": str(tree / "src"), "PYTHONPYCACHEPREFIX": str(temp / f"pycache-{side}")})
        for side, tree in (("base", base_tree), ("change", ROOT))
    ]


def time_cli(side: str, tree: Path, env: dict[str, str], args: list[str]) -> float:
    """The wall time in seconds of one ``python -m cpskg ARGS`` run in ``tree``."""
    command = [sys.executable, "-m", "cpskg", *args]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=False)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{side}: {shlex.join(command)} in {tree} exited {done.returncode}: {done.stderr.strip()}")
    return elapsed


def export(revision: str, into: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", revision], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)


def is_working_tree(revision: str) -> bool:
    """Whether ``revision`` holds the working tree's files: no tracked file
    differs from it and no untracked file is left unignored."""
    git = ["git", "-C", str(ROOT)]
    same = subprocess.run([*git, "diff", "--quiet", revision, "--"], check=False).returncode == 0
    untracked = subprocess.run([*git, "ls-files", "--others", "--exclude-standard"], capture_output=True, text=True, check=True).stdout
    return same and not untracked


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names, help="repeat to pick several (default: all)")
    parser.add_argument("--cli", metavar="ARGS", help="time fresh `python -m cpskg ARGS` processes instead of the workloads")
    args = parser.parse_args(argv)
    if args.cli is not None and args.workload:
        parser.error("--cli cannot be combined with --workload")
    if is_working_tree(args.base):
        parser.error(f"the working tree's files are those of {args.base}; there is nothing to compare")
    metrics = benchmark["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as temp:
        base_tree = Path(temp) / "base"
        export(args.base, base_tree)
        if args.cli is not None:
            cli_args = shlex.split(args.cli)
            sides = cli_sides(base_tree, Path(temp))
            for side, tree, env in sides:
                time_cli(side, tree, env, cli_args)  # fills the side's bytecode cache
            times: dict[str, list[float]] = {"base": [], "change": []}
            for pair in range(args.pairs):
                for side, tree, env in sides if pair % 2 == 0 else sides[::-1]:
                    times[side].append(time_cli(side, tree, env, cli_args))
            print(f"python -m cpskg {args.cli}: {args.pairs} pairs, base {args.base} against the working tree")
            report("wall (s)", times, "lower", next(metric["bound"] for metric in metrics if metric["name"] == "job_s"))
            return 0
        for workload in args.workload or names:
            results: dict[str, list[dict]] = {"base": [], "change": []}
            for pair in range(args.pairs):
                sides = [("base", base_tree), ("change", ROOT)]
                for side, checkout in sides if pair % 2 == 0 else sides[::-1]:
                    results[side].append(run_once(checkout, workload, args.seed, args.seconds))
            print(f"{workload}: {args.pairs} pairs, seed {args.seed}, {args.seconds:g} s, base {args.base} against the working tree")
            for side, runs in results.items():
                print(f"  {side} failed operations: {sum(run['failed'] for run in runs)} of {sum(run['attempted'] for run in runs)}")
            for metric in metrics:
                name = metric["name"]
                values = {side: [run["metrics"][name]["value"] for run in runs] for side, runs in results.items()}
                report(f"{name} ({metric['unit']})", values, metric["better"], metric["bound"])
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
