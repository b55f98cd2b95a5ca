"""cpskg benchmark: build, inspect and publish workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It generates the workload's inputs and
their references from the seed and the EHSA fixture, then starts fresh
workload processes (perfbench/worker.py), one after another, each of which
imports cpskg from src/ and calls it in-process in a closed loop: one
thread, the next job when the previous one is done.

Workloads:
  build_scaled    ``cpskg build`` of the EHSA manifest with its process
                  replicated k=16 times (5,085 triples, 32 equations).
  inspect_scaled  on the k=4 graph (1,329 triples), one pass of
                  ``validate --strict``, three ``query`` patterns,
                  ``export --operator`` for each LinearMotionExecution
                  operator and ``eval --root`` on each chamber-1 right-hand
                  side.
  publish_corpus  a seeded corpus of equations, half infix text and half
                  OpenMath XML, each parsed, mapped with om_to_rdf, written
                  with to_ntriples, read with from_ntriples, and, for the
                  arithmetic ones, evaluated.

End-to-end metrics, measured untraced. The shared host's speed drifts, so
each time is scaled to a fixed reference speed by a pure-Python kernel
(speed.py) timed just before and after it; the report line also gives the
times as measured.
  setup_s      median over three fresh processes of the time from process
               start through ``import cpskg`` and one warm-up unit, less the
               speed kernels run during it; input generation is excluded
               and reported separately.
  job_s        median seconds per job: one build, one inspect pass, or one
               equation (timed per pass over the corpus).
  peak_rss_mb  peak resident memory of the measuring process.
A traced run (--trace 1) spends half its time untraced and half with every
layer wrapped (see tracing.py) and reports per-layer metrics per job.

The last line of stdout is the machine-readable result: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer ones. The line before it
is a report with the environment, every named timing with its sample count
and tail, and the failed ratio.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import inputs
import speed
from tracing import PER_LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURE = ROOT / "fixtures" / "ehsa"
WORK_ROOT = ROOT / ".perfbench_work"

WORKLOADS = ("build_scaled", "inspect_scaled", "publish_corpus")
BUILD_K = 16
INSPECT_K = 4
CORPUS_SIZE = 128
# Fresh processes timed from start to the end of their warm-up; the median is setup_s.
SETUP_SAMPLES = 3
DEADLINE_S = 170

END_TO_END_UNITS = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MB"}
# Timings in the report; each workload measures job_s and its own stages.
NAMED_UNITS = {
    "job_s": "s",
    "build_s": "s",
    "validate_s": "s",
    "query_s": "s",
    "export_s": "s",
    "eval_s": "s",
    "publish_eq_per_s": "1/s",
}


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# --- inputs -----------------------------------------------------------------------


def make_spec(workload: str, seed: int, work: Path, k: int | None, corpus_size: int | None) -> dict:
    """Write the workload's input files into ``work`` and return the worker's spec."""
    fixture = inputs.load_fixture(FIXTURE)
    spec: dict = {"workload": workload, "work": str(work)}
    retained = work / "retained.nt"
    retained.write_text(inputs.reference_ntriples(fixture, INSPECT_K), encoding="utf-8")
    spec["retained_graph"] = str(retained)
    if workload == "build_scaled":
        k = k or BUILD_K
        reference = inputs.reference_ntriples(fixture, k)
        spec["manifest"] = str(inputs.write_scaled_model(fixture, k, work / "model"))
        spec["reference"] = str(work / "reference.nt")
        Path(spec["reference"]).write_text(reference, encoding="utf-8")
        spec["env"] = {"k": k, "triples": reference.count("\n"), "equations": 2 * k}
    elif workload == "inspect_scaled":
        k = k or INSPECT_K
        reference = inputs.reference_ntriples(fixture, k)
        graph = work / "g.nt"
        graph.write_text(reference, encoding="utf-8")
        g = str(graph)
        commands = [{"metric": "validate_s", "argv": ["validate", "--strict", "--in", g], "expect": "", "sort_lines": False}]
        for pattern, rows in zip(inputs.QUERIES, inputs.expected_query_rows(reference)):
            expect = "".join(row + "\n" for row in rows)
            commands.append({"metric": "query_s", "argv": ["query", "--in", g, "--pattern", pattern], "expect": expect, "sort_lines": True})
        for operator in inputs.linear_motion_operators(fixture, k):
            expect = inputs.expected_export(reference, operator)
            commands.append({"metric": "export_s", "argv": ["export", "--in", g, "--operator", operator], "expect": expect, "sort_lines": False})
        for root in inputs.eval_roots(fixture, k):
            argv = ["eval", "--in", g, "--root", root, "--bindings", str(fixture.bindings_path)]
            commands.append({"metric": "eval_s", "argv": argv, "expect": inputs.EVAL_OUTPUT, "sort_lines": False})
        spec["commands"] = commands
        spec["env"] = {"k": k, "triples": reference.count("\n"), "equations": 2 * k, "commands_per_job": len(commands)}
    else:
        corpus, bindings = inputs.make_corpus(seed, corpus_size or CORPUS_SIZE)
        entries = []
        for eq in corpus:
            value = None
            if eq.evaluable:
                try:
                    value = inputs.evaluate(eq.tree, bindings)
                except inputs.Rejected:
                    value = "rejected"
            entries.append(
                {
                    "source": eq.source,
                    "text": eq.text,
                    "evaluable": eq.evaluable,
                    "triples": inputs.triple_count(eq.tree),
                    "canonical": inputs.canonical(eq.tree),
                    "value": value,
                }
            )
        spec["corpus"] = entries
        spec["bindings"] = bindings
        spec["env"] = {
            "equations": len(entries),
            "triples": sum(e["triples"] for e in entries),
            "evaluable": sum(e["evaluable"] for e in entries),
            "rejected_by_reference": sum(e["value"] == "rejected" for e in entries),
        }
    return spec


# --- workload processes -----------------------------------------------------------


def run_worker(argv: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker to its end; returns the seconds to its ``ready`` line
    and the JSON object it prints last. A watchdog kills it at the deadline."""
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - perf_counter()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        out = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(argv[2:])} exited {proc.returncode}")
    if not out.strip():
        raise RuntimeError("worker printed no result")
    return setup, json.loads(out.splitlines()[-1])


def run_workers(spec_path: Path, seconds: float, trace: int, deadline: float) -> tuple[list[float], list[float], dict]:
    """Set-up times from fresh processes, as measured and scaled to the
    reference speed, and the measuring worker's result.

    A set-up time leaves out the speed kernels the worker ran during its
    warm-up. The warm-up's timed sections are scaled as the worker scaled
    them; the rest (process start, imports, collections between sections)
    by the kernels just before the start and just after the imports."""
    argv = [sys.executable, str(HERE / "worker.py"), str(spec_path), "--seconds", str(seconds), "--trace", str(trace)]
    # A traced run reports no setup_s, so it starts only the measuring worker.
    runs = [[*argv, "--setup-only"]] * (0 if trace else SETUP_SAMPLES - 1) + [argv]
    measured, scaled = [], []
    for worker_argv in runs:
        kernel_before = speed.kernel_seconds()
        wall, worker = run_worker(worker_argv, deadline)
        setup = worker["setup"]
        rest = wall - setup["kernel_spent_s"] - setup["sections_measured_s"]
        measured.append(wall - setup["kernel_spent_s"])
        scaled.append(speed.scale(rest, (kernel_before + setup["first_kernel_s"]) / 2) + setup["sections_scaled_s"])
    return measured, scaled, worker


# --- metrics ----------------------------------------------------------------------


def tail(values: list[float]) -> dict | None:
    """The highest of p90/p95/p99/p99.9 (nearest rank) with at least ten samples beyond it."""
    ordered = sorted(values)
    best = None
    for q in (90, 95, 99, 99.9):
        rank = math.ceil(q / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            best = {"percentile": q, "value": ordered[rank - 1]}
    return best


def timing(values: list[float], unit: str) -> dict:
    return {"value": statistics.median(values), "unit": unit, "samples": len(values), "tail": tail(values)}


def run(workload: str, seed: int, seconds: float, trace: int, k: int | None = None, corpus_size: int | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, report). ``k`` and
    ``corpus_size`` shrink the inputs for the self-check."""
    started = perf_counter()
    deadline = started + DEADLINE_S
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    try:
        spec = make_spec(workload, seed, work, k, corpus_size)
        input_gen_s = perf_counter() - started
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        measured_setups, setups, worker = run_workers(spec_path, seconds, trace, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    samples = worker["scaled"]
    named = {name: timing(samples[name], unit) for name, unit in NAMED_UNITS.items() if name in samples}
    attempted, failed = worker["attempted"], worker["failed"]
    if trace:
        metrics = {name: {"value": worker["per_layer"][name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    else:
        values = {"setup_s": statistics.median(setups), "job_s": named["job_s"]["value"], "peak_rss_mb": worker["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "commit": git_commit(),
            **spec["env"],
        },
        "input_gen_s": input_gen_s,
        "setup_samples_s": setups,
        "measured_setup_samples_s": measured_setups,
        "timings": named,
        "measured_job_s": timing(worker["measured"]["job_s"], "s"),
        "kernel_s": timing(worker["kernel_s"], "s"),
        "failed_ratio": failed / attempted,
        "problems": worker["problems"],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cpskg" / "__init__.py").is_file():
        return fail(f"no cpskg sources under {ROOT / 'src'}; run from a repository checkout")
    if not (FIXTURE / "golden.nt").is_file():
        return fail(f"no EHSA fixture under {FIXTURE}")
    try:
        result, report = run(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        return fail(str(exc))
    for problem in report["problems"]:
        print(f"failed job: {problem}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
