"""Per-layer tracing from outside the program.

Public entry points of each cpskg module are wrapped where their callers
look them up (``cpskg.cli.validate``, ``cpskg.manifest.om_to_rdf``, ...),
so the program itself is unchanged. A span records calls, inclusive time
(outermost call of a name only, so a name nested in itself is not counted
twice) and self time (its duration minus the time of the spans and hot
calls inside it). The per-triple graph calls are too hot for one span each:
they are aggregated as counters and total time, and only the outermost of
nested lookups (``objects`` calls ``triples``) is counted.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable

# (module, attribute, span name). The module is the one whose namespace the
# caller looks the name up in, which is not always the one defining it.
SPANS = [
    ("cpskg.cli", "main", "cli.main"),
    ("cpskg.cli", "load_config", "vocab.load_config"),
    ("cpskg.cli", "load_manifest", "manifest.load"),
    ("cpskg.cli", "compile_manifest", "manifest.compile"),
    ("cpskg.cli", "validate", "validator.validate"),
    ("cpskg.cli", "match", "rdf.match"),
    ("cpskg.cli", "from_ntriples", "rdf.parse"),
    ("cpskg.rdf", "from_ntriples", "rdf.parse"),
    ("cpskg.rdf", "to_ntriples", "rdf.serialize"),
    ("cpskg.cli", "rdf_to_om", "mapper.backward"),
    ("cpskg.manifest", "om_to_rdf", "mapper.forward"),
    ("cpskg.mapper", "om_to_rdf", "mapper.forward"),
    ("cpskg.manifest", "parse_infix", "infix.parse"),
    ("cpskg.infix", "parse_infix", "infix.parse"),
    ("cpskg.cli", "print_infix", "infix.print"),
    ("cpskg.manifest", "parse_openmath_xml", "xmlio.parse"),
    ("cpskg.om.xmlio", "parse_openmath_xml", "xmlio.parse"),
    ("cpskg.cli", "evaluate", "evaluator.evaluate"),
    ("cpskg.evaluator", "evaluate", "evaluator.evaluate"),
]
BUILDER_METHODS = (
    "add_lifecycle_record",
    "add_structure",
    "add_process",
    "add_data_element",
    "attach_behavior_model",
    "link_variable_to_data_element",
    "add_observation",
)
LOOKUP_METHODS = ("triples", "objects", "subjects")

# Per-layer metric -> unit. A job is one build, one inspect pass or one equation.
PER_LAYER_UNITS = {
    "rdf.lookup.calls": "count/job",
    "rdf.lookup.s": "s/job",
    "rdf.lookup.returned_per_call": "count/call",
    "rdf.add.calls": "count/job",
    "rdf.add.s": "s/job",
    "rdf.serialize.s": "s/job",
    "rdf.parse.s": "s/job",
    "rdf.match.s": "s/job",
    "rdf.match.rows": "count/job",
    "rdf.graph_retained_mb": "MB",
    "manifest.load.s": "s/job",
    "manifest.compile.self_s": "s/job",
    "builder.calls": "count/job",
    "builder.self_s": "s/job",
    "mapper.forward.calls": "count/job",
    "mapper.forward.self_s": "s/job",
    "mapper.backward.calls": "count/job",
    "mapper.backward.self_s": "s/job",
    "infix.parse.s": "s/job",
    "infix.print.s": "s/job",
    "xmlio.parse.s": "s/job",
    "validator.validate.self_s": "s/job",
    "evaluator.evaluate.s": "s/job",
    "evaluator.calls": "count/job",
    "cli.main.self_s": "s/job",
    "vocab.load_config.s": "s/job",
    "trace.job_s": "s/job",
    "trace.overhead_s": "s/job",
}


class Tracer:
    """Collects spans and hot-call counters while ``enabled`` is true."""

    def __init__(self) -> None:
        self.enabled = False
        self.calls: Counter[str] = Counter()
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.returned: Counter[str] = Counter()
        self._active: Counter[str] = Counter()
        self._children: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn: Callable, count_returned: bool = False) -> Callable:
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            children = [0.0]
            self._children.append(children)
            self._active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._active[name] -= 1
                self._children.pop()
                self.calls[name] += 1
                self.self_time[name] += elapsed - children[0]
                if not self._active[name]:
                    self.inclusive[name] += elapsed
                if self._children:
                    self._children[-1][0] += elapsed
            if count_returned:
                self.returned[name] += len(result)
            return result

        return traced

    def _hot(self, name: str, fn: Callable, count_returned: bool = False) -> Callable:
        def traced(*args, **kwargs):
            if not self.enabled or self._active[name]:
                return fn(*args, **kwargs)
            self._active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._active[name] -= 1
                self.calls[name] += 1
                self.inclusive[name] += elapsed
                if self._children:
                    self._children[-1][0] += elapsed
            if count_returned:
                self.returned[name] += len(result)
            return result

        return traced

    # --- installation ------------------------------------------------------------

    def _patch(self, owner: object, attribute: str, wrapper: Callable) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def install(self) -> None:
        for module_name, attribute, name in SPANS:
            module = importlib.import_module(module_name)
            self._patch(module, attribute, self._span(name, getattr(module, attribute), count_returned=name == "rdf.match"))
        from cpskg.builder import ModelBuilder
        from cpskg.rdf import Graph

        for method in BUILDER_METHODS:
            self._patch(ModelBuilder, method, self._span("builder", getattr(ModelBuilder, method)))
        for method in LOOKUP_METHODS:
            self._patch(Graph, method, self._hot("rdf.lookup", getattr(Graph, method), count_returned=True))
        self._patch(Graph, "add", self._hot("rdf.add", Graph.add))

    def remove(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # --- results -------------------------------------------------------------------

    def per_job(self, jobs: int) -> dict[str, float]:
        """Every traced layer metric except the ones the caller measures itself
        (graph_retained_mb, trace.*), divided by the number of jobs traced."""
        lookups = self.calls["rdf.lookup"]
        totals = {
            "rdf.lookup.calls": lookups,
            "rdf.lookup.s": self.inclusive["rdf.lookup"],
            "rdf.add.calls": self.calls["rdf.add"],
            "rdf.add.s": self.inclusive["rdf.add"],
            "rdf.serialize.s": self.inclusive["rdf.serialize"],
            "rdf.parse.s": self.inclusive["rdf.parse"],
            "rdf.match.s": self.inclusive["rdf.match"],
            "rdf.match.rows": self.returned["rdf.match"],
            "manifest.load.s": self.inclusive["manifest.load"],
            "manifest.compile.self_s": self.self_time["manifest.compile"],
            "builder.calls": self.calls["builder"],
            "builder.self_s": self.self_time["builder"],
            "mapper.forward.calls": self.calls["mapper.forward"],
            "mapper.forward.self_s": self.self_time["mapper.forward"],
            "mapper.backward.calls": self.calls["mapper.backward"],
            "mapper.backward.self_s": self.self_time["mapper.backward"],
            "infix.parse.s": self.inclusive["infix.parse"],
            "infix.print.s": self.inclusive["infix.print"],
            "xmlio.parse.s": self.inclusive["xmlio.parse"],
            "validator.validate.self_s": self.self_time["validator.validate"],
            "evaluator.evaluate.s": self.inclusive["evaluator.evaluate"],
            "evaluator.calls": self.calls["evaluator.evaluate"],
            "cli.main.self_s": self.self_time["cli.main"],
            "vocab.load_config.s": self.inclusive["vocab.load_config"],
        }
        out = {name: value / jobs for name, value in totals.items()}
        out["rdf.lookup.returned_per_call"] = self.returned["rdf.lookup"] / lookups if lookups else 0.0
        return out
