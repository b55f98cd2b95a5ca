#!/usr/bin/env python3
"""Run the benchmark or fresh cpskg processes in alternating pairs: a base revision against the working tree.

    python3 scripts/bench_pairs.py --base REV [--pairs N] [--seed N]
                                   [--seconds S] [--workload NAME ...]
    python3 scripts/bench_pairs.py --base REV [--pairs N] --cli "ARGS"
    python3 scripts/bench_pairs.py --base REV [--pairs N] --observations 0,1000,10000,50000

Run it from a git checkout. It refuses a base revision whose files are the
working tree's, tracked and untracked, as that run would measure nothing.
It exports the base revision with ``git archive`` into a temporary
directory, removed when it ends. Even pairs run the base first, odd pairs
the working tree. By default each side of a pair is one
``perfbench/run.py`` run (``--seconds`` defaults to ``run_seconds`` in
BENCHMARK.json), and it prints each workload's failed operations per side
and, for each end-to-end metric, both sides' medians and quartiles, the
pairs the working tree won (ties count for neither side), and two verdicts:
  gain        the working tree won at least nine tenths of the pairs, and the
              medians differ, its way, by more than the base's interquartile
              range;
  regression  the working tree's median is worse than the base's by more
              than the metric's bound in BENCHMARK.json, read as a fraction
              of the base's median.

``--cli`` and ``--observations`` time fresh cpskg processes instead, each
run as ``python -m cpskg`` and reading its own peak resident memory as it
ends (``VmHWM``, else ``ru_maxrss``), with the bounds of ``job_s`` and
``peak_rss_mb``. A side's processes run in its tree's root, from its
``src``, with a bytecode cache of its own (``PYTHONPYCACHEPREFIX``;
``PYTHONDONTWRITEBYTECODE`` unset), which one untimed round per side fills
first. A process that exits non-zero stops the run, naming its side.
  --cli ARGS      one ``cpskg ARGS`` process per side (split as a shell
                  would; write ``--cli="--config c.json ..."`` when ARGS
                  starts with a dash).
  --observations  for each count n, the manifest of
                  ``manifest_with_observations(n)``, written once; then,
                  per side, ``build --manifest M --out FILE``, ``build
                  --manifest M --check-only`` (the peak with the graph built
                  and nothing written) and ``validate --strict --in FILE``
                  of the file that side's build wrote. It prints each side's
                  triples and the first 12 hex digits of its output's
                  SHA-256, which must not change between that side's builds.

It needs only the standard library and git. Python before 3.10.12 has no
``tarfile`` ``data`` filter, so there it extracts the export without one.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
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
from datetime import datetime, timedelta, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures" / "ehsa"

# Runs cpskg as `python -m cpskg` does, then writes the process's peak
# resident memory in MB as the last line of stderr.
CHILD = """
import runpy, sys
sys.argv[0] = "cpskg"
code = 0
try:
    runpy.run_module("cpskg", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    code = exit.code
try:
    with open("/proc/self/status") as status:
        kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
except OSError:
    import resource
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KB on Linux
    if sys.platform == "darwin":
        kb //= 1024  # bytes there
print(kb / 1024, file=sys.stderr)
sys.exit(code)
"""


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


def alternating(sides: list, pairs: int):
    """The sides of ``pairs`` pairs in running order: even pairs base first, odd pairs change first."""
    for pair in range(pairs):
        yield from sides if pair % 2 == 0 else sides[::-1]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``: its result line."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} in {checkout} exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(lines[-1])


def cli_sides(base_tree: Path, temp: Path) -> list[tuple[str, Path, dict[str, str]]]:
    """Each side of a pair of cpskg processes: its name, its tree and the
    environment of its processes, which run from that tree's ``src`` and
    keep their bytecode in a directory of their own under ``temp``."""
    inherited = {name: value for name, value in os.environ.items() if name != "PYTHONDONTWRITEBYTECODE"}
    return [
        (side, tree, {**inherited, "PYTHONPATH": str(tree / "src"), "PYTHONPYCACHEPREFIX": str(temp / f"pycache-{side}")})
        for side, tree in (("base", base_tree), ("change", ROOT))
    ]


def run_cli(side: str, tree: Path, env: dict[str, str], args: list[str]) -> tuple[float, float]:
    """The wall seconds and peak MB of one fresh ``cpskg ARGS`` process in ``tree``."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", CHILD, *args], cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=False)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{side}: cpskg {shlex.join(args)} in {tree} exited {done.returncode}: {done.stderr.strip()}")
    return elapsed, float(done.stderr.split()[-1])


def run_rounds(labels: list[str], sides: list, pairs: int, one_round, bounds: dict[str, float]) -> None:
    """Run ``one_round(side, tree, env)``, which returns the (seconds, peak
    MB) of each of its processes, named by ``labels``: one untimed round
    per side, which fills its bytecode cache, then ``pairs`` pairs of
    rounds. Report each process's wall seconds and peak MB."""
    for side, tree, env in sides:
        one_round(side, tree, env)
    rounds: dict[str, list] = {"base": [], "change": []}
    for side, tree, env in alternating(sides, pairs):
        rounds[side].append(one_round(side, tree, env))
    for i, label in enumerate(labels):
        for j, (unit, bound) in enumerate((("wall (s)", bounds["job_s"]), ("peak (MB)", bounds["peak_rss_mb"]))):
            report(f"{label} {unit}", {side: [runs[i][j] for runs in side_runs] for side, side_runs in rounds.items()}, "lower", bound)
    sys.stdout.flush()


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


def manifest_with_observations(n: int) -> dict:
    """The shipped manifest (fixtures/ehsa/manifest.json) with ``n``
    generated observations, taking turns on the features of the shipped
    ones, one second apart, and its XML equation paths made absolute so
    that it can be written anywhere."""
    data = json.loads((FIXTURES / "manifest.json").read_text(encoding="utf-8"))
    shipped = data["observations"]
    start = datetime(2024, 1, 1, tzinfo=timezone.utc)
    observations = []
    for i in range(n):
        obs = copy.deepcopy(shipped[i % len(shipped)])
        obs["value"] = obs["value"] + i * 0.5
        obs["timestamp"] = (start + timedelta(seconds=i)).strftime("%Y-%m-%dT%H:%M:%SZ")
        observations.append(obs)
    data["observations"] = observations
    for process in data["processes"]:
        for operator in process["operators"]:
            for equation in operator.get("equations", ()):
                if "xmlPath" in equation:
                    equation["xmlPath"] = str(FIXTURES / equation["xmlPath"])
    return data


def observation_counts(text: str) -> list[int]:
    """The counts of ``--observations``; argparse reports the ``ValueError``
    of an entry that is not an integer."""
    counts = [int(n) for n in text.split(",")]
    if min(counts) < 0:
        raise argparse.ArgumentTypeError(f"an observation count cannot be negative: {text!r}")
    return counts


def observe(n: int, sides: list, pairs: int, temp: Path, bounds: dict[str, float]) -> None:
    """Time each side's build, check and validate of the manifest with ``n`` observations, and print them."""
    manifest = temp / "manifest.json"
    manifest.write_text(json.dumps(manifest_with_observations(n)), encoding="utf-8")
    outputs: dict[str, tuple[int, str]] = {}

    def one_round(side: str, tree: Path, env: dict[str, str]) -> list[tuple[float, float]]:
        out = temp / f"{side}.nt"
        build = run_cli(side, tree, env, ["build", "--manifest", str(manifest), "--out", str(out)])
        data = out.read_bytes()
        output = (data.count(b"\n"), hashlib.sha256(data).hexdigest()[:12])
        if outputs.setdefault(side, output) != output:
            raise RuntimeError(f"{side}: n={n}: its builds wrote different outputs: {outputs[side][1]} and {output[1]}")
        check = run_cli(side, tree, env, ["build", "--manifest", str(manifest), "--check-only"])
        return [build, check, run_cli(side, tree, env, ["validate", "--strict", "--in", str(out)])]

    run_rounds(["build --out", "build --check-only", "validate --strict"], sides, pairs, one_round, bounds)
    for side, (triples, digest) in outputs.items():
        print(f"  {side} output: {triples:,} triples, sha256 {digest}", flush=True)


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names, help="repeat to pick several (default: all)")
    parser.add_argument("--cli", metavar="ARGS", help="time fresh `cpskg ARGS` processes instead of the workloads")
    parser.add_argument("--observations", metavar="N,N,...", type=observation_counts, help="time fresh builds and validates at these observation counts instead")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error(f"--pairs must be at least 2, as each verdict compares quartiles of paired runs: {args.pairs}")
    if args.cli is not None and args.workload:
        parser.error("--cli cannot be combined with --workload")
    if args.observations is not None and (args.cli is not None or args.workload):
        parser.error("--observations cannot be combined with --cli or --workload")
    if is_working_tree(args.base):
        parser.error(f"the working tree's files are those of {args.base}; there is nothing to compare")
    metrics = benchmark["end_to_end"]
    bounds = {metric["name"]: metric["bound"] for metric in metrics}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as temp:
        base_tree = Path(temp) / "base"
        export(args.base, base_tree)
        sides = cli_sides(base_tree, Path(temp))
        if args.cli is not None:
            cli_args = shlex.split(args.cli)
            print(f"cpskg {args.cli}: {args.pairs} pairs, base {args.base} against the working tree")
            run_rounds([args.cli], sides, args.pairs, lambda side, tree, env: [run_cli(side, tree, env, cli_args)], bounds)
            return 0
        if args.observations is not None:
            for n in args.observations:
                print(f"n={n:,}: {args.pairs} pairs, base {args.base} against the working tree")
                observe(n, sides, args.pairs, Path(temp), bounds)
            return 0
        for workload in args.workload or names:
            results: dict[str, list[dict]] = {"base": [], "change": []}
            for side, checkout in alternating([("base", base_tree), ("change", ROOT)], args.pairs):
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
