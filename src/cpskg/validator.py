"""Shape checks over compiled graphs.

Structural soundness is an error; contextual completeness is a warning,
because a graph can be mathematically well-formed before its
contextualization is finished.

  V1 error    every om:arguments chain is an acyclic, nil-terminated list
              with exactly one rdf:first and rdf:rest per cons cell
  V2 error    every om:Application has exactly one om:operator and one
              om:arguments
  V3 warning  every process operator is assigned to a technical resource
  V4 warning  every variable reachable from a behavior model is linked to
              a data element
  V5 warning  every process operator has at least one input and one output
  V6 error    every data element has exactly one type description
  V7 warning  (strict mode only) every operator symbol IRI belongs to a
              registered content dictionary
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .mapper import MalformedListError, fragment_variables, read_list
from .om.registry import DEFAULT_REGISTRY, SymbolRegistry
from .rdf import RDF, Graph, Iri, NodeRef, nt_term
from .vocab import CpsVocabulary

__all__ = ["Finding", "ValidationReport", "validate"]


@dataclass(frozen=True)
class Finding:
    rule: str
    severity: str  # "error" | "warning"
    node: NodeRef
    message: str

    def render(self) -> str:
        node = f"<{self.node.value}>" if isinstance(self.node, Iri) else repr(self.node)
        return f"{self.rule} {self.severity} {node} {self.message}"


@dataclass
class ValidationReport:
    findings: list[Finding]

    def ok(self) -> bool:
        return not self.findings

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    def to_text(self) -> str:
        return "".join(f.render() + "\n" for f in self.findings)

    def to_jsonl(self) -> str:
        lines = []
        for f in self.findings:
            node = f.node.value if isinstance(f.node, Iri) else f.node.lexical
            lines.append(json.dumps({"rule": f.rule, "severity": f.severity, "node": node, "message": f.message}, sort_keys=True))
        return "".join(line + "\n" for line in lines)


def _check_argument_lists(graph: Graph, v: CpsVocabulary, out: list[Finding]) -> None:
    for head in sorted({t.object for t in graph.triples(None, v.om.arguments)}, key=nt_term):
        try:
            read_list(graph, head)
        except MalformedListError as exc:
            out.append(Finding("V1", "error", exc.node, exc.reason))


def _check_application_shape(graph: Graph, v: CpsVocabulary, out: list[Finding]) -> None:
    for node in graph.subjects(RDF.type, v.om.Application):
        operators = graph.objects(node, v.om.operator)
        arguments = graph.objects(node, v.om.arguments)
        if len(operators) != 1 or len(arguments) != 1:
            out.append(
                Finding("V2", "error", node, f"application must have exactly one om:operator and om:arguments, found {len(operators)}/{len(arguments)}")
            )


def _check_operator_assignment(graph: Graph, v: CpsVocabulary, out: list[Finding]) -> None:
    for node in graph.subjects(RDF.type, v.vdi3682.ProcessOperator):
        if not graph.objects(node, v.vdi3682.isAssignedTo):
            out.append(Finding("V3", "warning", node, "process operator is not assigned to a technical resource"))


def _check_variable_links(graph: Graph, v: CpsVocabulary, out: list[Finding]) -> None:
    roots: list[NodeRef] = []
    for t in graph.triples(None, v.cpsmod.processOperatorBehaviorModel):
        for wrapper in graph.objects(t.object, v.cpsmod.hasOMObject):
            roots.extend(graph.objects(wrapper, v.om.root))
    for node in fragment_variables(graph, roots, v.om):
        if not graph.objects(node, v.cpsmod.isDataFor):
            out.append(Finding("V4", "warning", node, "equation variable is not linked to a data element"))


def _check_operator_io(graph: Graph, v: CpsVocabulary, out: list[Finding]) -> None:
    for node in graph.subjects(RDF.type, v.vdi3682.ProcessOperator):
        if not graph.objects(node, v.vdi3682.hasInput):
            out.append(Finding("V5", "warning", node, "process operator has no input state"))
        if not graph.objects(node, v.vdi3682.hasOutput):
            out.append(Finding("V5", "warning", node, "process operator has no output state"))


def _check_type_descriptions(graph: Graph, v: CpsVocabulary, out: list[Finding]) -> None:
    for node in graph.subjects(RDF.type, v.dinen61360.DataElement):
        descriptions = graph.objects(node, v.dinen61360.hasTypeDescription)
        if len(descriptions) != 1:
            out.append(Finding("V6", "error", node, f"data element must have exactly one type description, found {len(descriptions)}"))


def _check_symbol_cds(graph: Graph, v: CpsVocabulary, registry: SymbolRegistry, out: list[Finding]) -> None:
    prefix = v.cd_base.rstrip("/") + "/"
    targets = sorted({t.object for t in graph.triples(None, v.om.operator)}, key=nt_term)
    for target in targets:
        if not isinstance(target, Iri):
            continue
        if graph.objects(target, RDF.type):
            continue  # a nested expression node, not a symbol
        if not target.value.startswith(prefix):
            out.append(Finding("V7", "warning", target, f"operator symbol IRI is not under the CD base {v.cd_base}"))
            continue
        cd = target.value[len(prefix):].partition("#")[0]
        if not registry.knows_cd(cd):
            out.append(Finding("V7", "warning", target, f"content dictionary {cd!r} is not registered"))


def validate(
    graph: Graph,
    *,
    vocab: Optional[CpsVocabulary] = None,
    registry: SymbolRegistry = DEFAULT_REGISTRY,
    strict: bool = False,
) -> ValidationReport:
    """Evaluate all rules; findings are data, never exceptions. The report
    is deterministically ordered by (rule, node, message)."""
    v = vocab or CpsVocabulary.default()
    findings: list[Finding] = []
    _check_argument_lists(graph, v, findings)
    _check_application_shape(graph, v, findings)
    _check_operator_assignment(graph, v, findings)
    _check_variable_links(graph, v, findings)
    _check_operator_io(graph, v, findings)
    _check_type_descriptions(graph, v, findings)
    if strict:
        _check_symbol_cds(graph, v, registry, findings)
    findings.sort(key=lambda f: (f.rule, nt_term(f.node), f.message))
    return ValidationReport(findings)
