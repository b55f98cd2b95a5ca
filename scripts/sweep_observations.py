#!/usr/bin/env python3
"""Build and read back the EHSA model at growing observation counts, each in a fresh process.

    python3 scripts/sweep_observations.py [--counts 0,1000,10000,50000] [--runs 3]

For each count n, the shipped manifest (fixtures/ehsa/manifest.json) has
its observations replaced by n generated ones, taking turns on the
features of the shipped observations, one second apart. In each run, a
fresh ``python -m cpskg build --out FILE`` compiles it and writes its
N-Triples, a fresh ``build --check-only`` compiles it and writes nothing,
so its peak is the peak with the graph built, and a fresh
``validate --strict --in FILE`` parses and validates the written graph,
the read path at scale. Each child reads its own peak resident memory as
it ends: ``VmHWM`` from /proc/self/status, or ``ru_maxrss`` where /proc
is missing.

It prints one row per count: the triples, the median wall seconds of the
``build --out`` processes, the median peak MB of the ``build --out`` and of
the ``--check-only`` processes, the median wall seconds and peak MB of the
``validate`` processes, and the first 12 hex digits of the output's
SHA-256, the same in every run or the sweep stops. It runs the cpskg of
the tree it is in (``src/`` on ``PYTHONPATH``), needs only the standard
library, and removes its temporary directory when it ends.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures" / "ehsa"

# Runs cpskg as `python -m cpskg` does, then prints the process's peak
# resident memory in MB on stdout, which `build --out` leaves empty.
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
print(kb / 1024)
sys.exit(code)
"""


def manifest_with_observations(n: int) -> dict:
    """The shipped manifest with ``n`` generated observations, its XML
    equation paths made absolute so that it can be written anywhere."""
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


def run_child(args: list[str]) -> tuple[float, float]:
    """Wall seconds and peak MB of one fresh cpskg process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", CHILD, *args], capture_output=True, text=True, env=env, cwd=ROOT)
    seconds = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"cpskg {' '.join(args)} exited {done.returncode}: {done.stderr.strip()[-500:]}")
    return seconds, float(done.stdout.split()[-1])


def observation_counts(text: str) -> list[int]:
    """The counts of ``--counts``; argparse reports the ``ValueError`` of
    an entry that is not an integer."""
    counts = [int(n) for n in text.split(",")]
    if min(counts) < 0:
        raise argparse.ArgumentTypeError(f"an observation count cannot be negative: {text!r}")
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--counts", type=observation_counts, default="0,1000,10000,50000", help="comma-separated observation counts")
    parser.add_argument("--runs", type=int, default=3, help="fresh processes of each kind per count")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error(f"--runs must be at least 1: {args.runs}")

    print("| n | triples | build --out s | build --out peak MB | --check-only peak MB | validate s | validate peak MB | sha256 |")
    print("|---|---|---|---|---|---|---|---|")
    with tempfile.TemporaryDirectory() as temp:
        manifest, out = Path(temp) / "manifest.json", Path(temp) / "g.nt"
        for n in args.counts:
            manifest.write_text(json.dumps(manifest_with_observations(n)), encoding="utf-8")
            seconds, peaks, checked, validated, digests = [], [], [], [], set()
            for _ in range(args.runs):
                s, peak = run_child(["build", "--manifest", str(manifest), "--out", str(out)])
                seconds.append(s)
                peaks.append(peak)
                data = out.read_bytes()
                digests.add(hashlib.sha256(data).hexdigest()[:12])
                checked.append(run_child(["build", "--manifest", str(manifest), "--check-only"])[1])
                validated.append(run_child(["validate", "--strict", "--in", str(out)]))
            if len(digests) != 1:
                raise SystemExit(f"n={n}: the runs wrote different outputs: {sorted(digests)}")
            triples = data.count(b"\n")
            print(
                f"| {n:,} | {triples:,} | {statistics.median(seconds):.2f} | {statistics.median(peaks):.1f}"
                f" | {statistics.median(checked):.1f} | {statistics.median([s for s, _ in validated]):.2f}"
                f" | {statistics.median([peak for _, peak in validated]):.1f} | {digests.pop()} |",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
