"""The workload process: imports cpskg, runs one untimed warm-up unit, says
``ready`` on stdout, then times units of the workload in a closed loop and
prints its samples, as measured and scaled to the reference speed of
speed.py, as one JSON line.

    python3 perfbench/worker.py SPEC.json --seconds S --trace 0|1 [--setup-only]

SPEC.json is written by run.py and holds the generated inputs and their
references. Every job's output is checked outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import tracemalloc
from collections import defaultdict
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import cpskg  # noqa: E402
from cpskg import cli, evaluator, infix, mapper, rdf  # noqa: E402
from cpskg.om import canonical_form, xmlio  # noqa: E402
import speed  # noqa: E402
from inputs import values_match  # noqa: E402
from tracing import PER_LAYER_UNITS, Tracer  # noqa: E402

PUBLISH_BASE = "http://example.org/publish"
REJECTED = "rejected"


class Samples:
    """Timings by name, as measured and scaled to the reference speed.

    ``scale(seconds)`` times the speed kernel right after a timed section
    and scales the section by the mean of that and the kernel timed after
    the section before it. Sections are short next to the host's speed
    phases, so both kernels mostly see the speed the section ran at. The
    totals let setup_s leave out the kernels' own time."""

    def __init__(self) -> None:
        self.measured: defaultdict[str, list[float]] = defaultdict(list)
        self.scaled: defaultdict[str, list[float]] = defaultdict(list)
        self.kernel_s: list[float] = []
        self.kernel_spent_s = 0.0
        self.sections_measured_s = 0.0
        self.sections_scaled_s = 0.0
        self.first_kernel_s = self._kernel_before = self._kernel()

    def _kernel(self) -> float:
        start = perf_counter()
        kernel_s = speed.kernel_seconds()
        self.kernel_spent_s += perf_counter() - start
        return kernel_s

    def scale(self, seconds: float) -> float:
        kernel_after = self._kernel()
        kernel_s = (self._kernel_before + kernel_after) / 2
        self._kernel_before = kernel_after
        self.kernel_s.append(kernel_s)
        scaled = speed.scale(seconds, kernel_s)
        self.sections_measured_s += seconds
        self.sections_scaled_s += scaled
        return scaled

    def record(self, name: str, measured: float, scaled: float) -> None:
        self.measured[name].append(measured)
        self.scaled[name].append(scaled)


def run_cli(argv: list[str]) -> tuple[float, tuple[int, str, str]]:
    """One in-process CLI invocation: seconds, and (exit code, stdout, stderr).
    The untimed collection first lets every command start, as a fresh CLI
    process does, with no garbage left by the one before."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        code = cli.main(argv)
        elapsed = perf_counter() - start
    return elapsed, (code, out.getvalue(), err.getvalue())


def cli_problem(argv: list[str], outcome: tuple[int, str, str], expected: str, sort_lines: bool) -> str | None:
    code, out, err = outcome
    if code != 0 or err:
        return f"{argv[0]} exited {code}: {err.strip()[:200]}"
    if sort_lines:
        if sorted(out.splitlines()) != expected.splitlines():
            return f"{argv[0]} {argv[-1]!r}: rows differ from the reference"
    elif out != expected:
        return f"{argv[0]} {argv[-1]!r}: output differs from the reference"
    return None


# Each workload runs one timing unit with run(samples), which records its
# timings in samples and returns raw outcomes, and judges those outcomes
# with check(outcomes), one problem (or None) per job.


class BuildScaled:
    """One job, and one unit: ``cpskg build`` of the k-replicated manifest."""

    jobs_per_unit = 1

    def __init__(self, spec: dict):
        self.out = Path(spec["work"]) / "g.nt"
        self.argv = ["build", "--manifest", spec["manifest"], "--out", str(self.out)]
        self.reference = Path(spec["reference"]).read_bytes()

    def run(self, samples: Samples):
        seconds, outcome = run_cli(self.argv)
        scaled = samples.scale(seconds)
        samples.record("job_s", seconds, scaled)
        samples.record("build_s", seconds, scaled)
        return outcome

    def check(self, outcome) -> list[str | None]:
        problem = cli_problem(self.argv, outcome, "", False)
        if problem is None and self.out.read_bytes() != self.reference:
            problem = "build output differs from the reference N-Triples"
        return [problem]


class InspectScaled:
    """One job, and one unit: the read-path pass of validate, queries,
    exports and evals; its time is the sum of its commands' times."""

    jobs_per_unit = 1

    def __init__(self, spec: dict):
        self.commands = spec["commands"]

    def run(self, samples: Samples):
        outcomes = []
        total = scaled_total = 0.0
        for command in self.commands:
            seconds, outcome = run_cli(command["argv"])
            scaled = samples.scale(seconds)
            samples.record(command["metric"], seconds, scaled)
            total += seconds
            scaled_total += scaled
            outcomes.append(outcome)
        samples.record("job_s", total, scaled_total)
        return outcomes

    def check(self, outcomes) -> list[str | None]:
        problems = [
            cli_problem(c["argv"], outcome, c["expect"], c["sort_lines"]) for c, outcome in zip(self.commands, outcomes)
        ]
        return ["; ".join(p for p in problems if p) or None]


class PublishCorpus:
    """One job: one equation through parse, om_to_rdf, to_ntriples and
    from_ntriples, plus evaluate for the arithmetic ones. A unit is one pass
    over the corpus, so every unit does the same work."""

    def __init__(self, spec: dict):
        self.corpus = spec["corpus"]
        self.bindings = spec["bindings"]
        self.jobs_per_unit = len(self.corpus)
        self.first_text: list[str | None] = [None] * len(self.corpus)

    def _job(self, index: int, equation: dict):
        try:
            if equation["source"] == "infix":
                tree = infix.parse_infix(equation["text"])
            else:
                tree = xmlio.parse_openmath_xml(equation["text"])
            mapped = mapper.om_to_rdf(tree, PUBLISH_BASE, f"eq{index}")
            text = rdf.to_ntriples(mapped.graph)
            triples = len(rdf.from_ntriples(text))
            value = None
            if equation["evaluable"]:
                try:
                    value = evaluator.evaluate(tree, self.bindings)
                except (evaluator.DomainError, ZeroDivisionError, OverflowError):
                    value = REJECTED
            return mapped.object_node, text, triples, value
        except Exception as exc:  # a failed job is counted, not fatal
            return exc

    def run(self, samples: Samples):
        gc.collect()
        start = perf_counter()
        outcomes = [self._job(i, eq) for i, eq in enumerate(self.corpus)]
        elapsed = perf_counter() - start
        scaled = samples.scale(elapsed)
        samples.record("job_s", elapsed / self.jobs_per_unit, scaled / self.jobs_per_unit)
        samples.record("publish_eq_per_s", self.jobs_per_unit / elapsed, self.jobs_per_unit / scaled)
        return outcomes

    def check(self, outcomes) -> list[str | None]:
        return [self._problem(i, eq, outcome) for i, (eq, outcome) in enumerate(zip(self.corpus, outcomes))]

    def _problem(self, index: int, equation: dict, outcome) -> str | None:
        if isinstance(outcome, Exception):
            return f"equation {index} raised {type(outcome).__name__}: {outcome}"
        wrapper, text, triples, value = outcome
        if triples != equation["triples"]:
            return f"equation {index}: {triples} triples, expected {equation['triples']}"
        # The round trip is checked the first time; later runs must repeat those
        # bytes. Only the text is kept, so that held graphs do not swell peak_rss_mb.
        if self.first_text[index] is None:
            if canonical_form(mapper.rdf_to_om(rdf.from_ntriples(text), wrapper)) != equation["canonical"]:
                return f"equation {index}: the tree read back from RDF differs from the source tree"
            self.first_text[index] = text
        elif text != self.first_text[index]:
            return f"equation {index}: N-Triples differ from the first run"
        if equation["evaluable"]:
            want = equation["value"]
            matches = value == want if REJECTED in (value, want) else values_match(value, want)
            if not matches:
                return f"equation {index}: evaluate gave {value!r}, expected {want!r}"
        return None


WORKLOADS = {"build_scaled": BuildScaled, "inspect_scaled": InspectScaled, "publish_corpus": PublishCorpus}


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str | None]) -> None:
        for problem in problems:
            self.attempted += 1
            if problem is not None:
                self.failed += 1
                if len(self.problems) < 5:
                    self.problems.append(problem)


def loop(workload, seconds: float, samples: Samples, tally: Tally, tracer: Tracer | None = None) -> int:
    """Run whole units until ``seconds`` have passed, at least one; returns the
    number of units. Only the runs are traced, never the checks."""
    units = 0
    start = perf_counter()
    while units == 0 or perf_counter() - start < seconds:
        if tracer:
            tracer.enabled = True
        outcomes = workload.run(samples)
        if tracer:
            tracer.enabled = False
        tally.record(workload.check(outcomes))
        units += 1
    return units


def peak_rss_mb() -> float:
    """Peak resident set of this process's own address space (VmHWM), which,
    unlike ru_maxrss, does not start from the parent's size at exec."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def graph_retained_mb(path: str) -> float:
    """Memory still allocated after one from_ntriples of the given graph."""
    data = Path(path).read_bytes()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph = rdf.from_ntriples(data)  # noqa: F841 - alive until measured
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / 1e6


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="exit after the warm-up")
    args = parser.parse_args(argv)
    if Path(cpskg.__file__).resolve().parent != (SRC / "cpskg").resolve():
        print(f"error: imported cpskg from {cpskg.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    workload = WORKLOADS[spec["workload"]](spec)
    tally = Tally()
    setup = Samples()
    warm_up = workload.run(setup)
    print("ready", flush=True)
    # What the parent needs to take the kernels out of setup_s and scale it.
    result: dict = {
        "setup": {
            "first_kernel_s": setup.first_kernel_s,
            "kernel_spent_s": setup.kernel_spent_s,
            "sections_measured_s": setup.sections_measured_s,
            "sections_scaled_s": setup.sections_scaled_s,
        }
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0
    tally.record(workload.check(warm_up))

    samples = Samples()
    if not args.trace:
        loop(workload, args.seconds, samples, tally)
        result["peak_rss_mb"] = peak_rss_mb()
    else:
        # Half the time untraced and half traced, so the overhead is measured
        # on the same process and inputs.
        loop(workload, args.seconds / 2, samples, tally)
        traced = Samples()
        tracer = Tracer()
        tracer.install()
        try:
            units = loop(workload, args.seconds / 2, traced, tally, tracer)
        finally:
            tracer.remove()
        # Layer times are scaled by the traced sections' mean scale, so that
        # they add up to trace.job_s.
        factor = traced.sections_scaled_s / traced.sections_measured_s
        per_job = tracer.per_job(units * workload.jobs_per_unit)
        per_layer = {name: value * factor if PER_LAYER_UNITS[name] == "s/job" else value for name, value in per_job.items()}
        per_layer["rdf.graph_retained_mb"] = graph_retained_mb(spec["retained_graph"])
        per_layer["trace.job_s"] = statistics.median(traced.scaled["job_s"])
        per_layer["trace.overhead_s"] = per_layer["trace.job_s"] - statistics.median(samples.scaled["job_s"])
        result["per_layer"] = per_layer
    result.update(measured=samples.measured, scaled=samples.scaled, kernel_s=samples.kernel_s)
    result.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
