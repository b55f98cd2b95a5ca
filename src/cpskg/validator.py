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
  V7 warning  (strict mode only) every operator with no om expression
              class (om:Object, om:Application, om:Variable or om:Literal),
              whatever its other types,
              is a symbol IRI {cdBase}/{cd}#{name} naming a registered
              content dictionary, and no operator has two such classes

V2, V3, V5 and V6 are cardinality shapes, kept as data and checked by one
loop; V1, V4 and V7 walk the graph with the mapper's text readers.
"""

from __future__ import annotations

import json
from typing import Optional

from .mapper import (
    MalformedListError,
    MalformedNodeError,
    UnknownSymbolIriError,
    _expression_class,
    _list_items,
    _variables,
    behavior_objects,
    parse_symbol_iri,
)
from .om.registry import DEFAULT_REGISTRY, SymbolRegistry
from .rdf import RDF, Graph, Iri, NodeRef, display_term, nt_term
from .value import Value
from .vocab import DEFAULT_VOCAB, CpsVocabulary

__all__ = ["Finding", "ValidationReport", "validate"]


class Finding(Value):
    __slots__ = ("rule", "severity", "node", "message")

    def __init__(self, rule: str, severity: str, node: NodeRef, message: str):
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "severity", severity)  # "error" | "warning"
        object.__setattr__(self, "node", node)
        object.__setattr__(self, "message", message)

    def render(self) -> str:
        return f"{self.rule} {self.severity} {nt_term(self.node)} {self.message}"


class ValidationReport:
    def __init__(self, findings: list[Finding]):
        self.findings = findings

    def ok(self) -> bool:
        return not self.findings

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    def to_text(self) -> str:
        return "".join(f.render() + "\n" for f in self.findings)

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps({"rule": f.rule, "severity": f.severity, "node": display_term(f.node), "message": f.message}, sort_keys=True) + "\n"
            for f in self.findings
        )


def _check_argument_lists(graph: Graph, v: CpsVocabulary, out: list[Finding]) -> None:
    for head in graph._objects(None, v.om.arguments._nt):
        try:
            _list_items(graph, head)
        except MalformedListError as exc:
            out.append(Finding("V1", "error", exc.node, exc.reason))


def _check_variable_links(graph: Graph, v: CpsVocabulary, out: list[Finding]) -> None:
    objects, data_for = graph._objects, v.cpsmod.isDataFor._nt
    for node in _variables(graph, [w._nt for w in behavior_objects(graph, v)], v.om):
        if not objects(node, data_for):
            out.append(Finding("V4", "warning", graph._term(node), "equation variable is not linked to a data element"))


# A cardinality shape: (rule, severity, predicates, least, most, message).
_Shape = tuple[str, str, tuple[Iri, ...], int, Optional[int], str]


def _cardinality_shapes(v: CpsVocabulary) -> tuple[tuple[Iri, tuple[_Shape, ...]], ...]:
    """V2, V3, V5 and V6 as shapes, grouped by the class whose nodes they
    check, so that each class is looked up once: a node of the class is a
    finding when a predicate has fewer than ``least`` or more than ``most``
    (if not None) objects on it; ``{found}`` in the message is the counts,
    joined by "/"."""
    om, vdi3682, dinen61360 = v.om, v.vdi3682, v.dinen61360
    return (
        (om.Application, (
            ("V2", "error", (om.operator, om.arguments), 1, 1, "application must have exactly one om:operator and om:arguments, found {found}"),
        )),
        (vdi3682.ProcessOperator, (
            ("V3", "warning", (vdi3682.isAssignedTo,), 1, None, "process operator is not assigned to a technical resource"),
            ("V5", "warning", (vdi3682.hasInput,), 1, None, "process operator has no input state"),
            ("V5", "warning", (vdi3682.hasOutput,), 1, None, "process operator has no output state"),
        )),
        (dinen61360.DataElement, (
            ("V6", "error", (dinen61360.hasTypeDescription,), 1, 1, "data element must have exactly one type description, found {found}"),
        )),
    )


def _check_symbol_cds(graph: Graph, v: CpsVocabulary, registry: SymbolRegistry, out: list[Finding]) -> None:
    classes = (v.om.Object._nt, v.om.Application._nt, v.om.Variable._nt, v.om.Literal._nt)
    for target in graph._objects(None, v.om.operator._nt):
        try:
            if target[0] != "<" or _expression_class(graph, target, classes) is not None:
                continue  # a literal, or a nested expression node, not a symbol
            symbol = parse_symbol_iri(graph._term(target), v.cd_base)  # type: ignore[arg-type]
            if not registry.knows_cd(symbol.cd):
                raise UnknownSymbolIriError(f"content dictionary {symbol.cd!r} is not registered")
        except (MalformedNodeError, UnknownSymbolIriError) as exc:
            out.append(Finding("V7", "warning", graph._term(target), str(exc)))


def validate(
    graph: Graph,
    *,
    vocab: CpsVocabulary = DEFAULT_VOCAB,
    registry: SymbolRegistry = DEFAULT_REGISTRY,
    strict: bool = False,
) -> ValidationReport:
    """Evaluate all rules; findings are data, never exceptions. The report
    is deterministically ordered by (rule, node, message)."""
    findings: list[Finding] = []
    _check_argument_lists(graph, vocab, findings)
    _check_variable_links(graph, vocab, findings)
    for cls, shapes in _cardinality_shapes(vocab):
        for node in graph.subjects(RDF.type, cls):
            for rule, severity, predicates, least, most, message in shapes:
                counts = [len(graph._objects(node._nt, p._nt)) for p in predicates]
                if any(n < least or (most is not None and n > most) for n in counts):
                    findings.append(Finding(rule, severity, node, message.format(found="/".join(map(str, counts)))))
    if strict:
        _check_symbol_cds(graph, vocab, registry, findings)
    findings.sort(key=lambda f: (f.rule, nt_term(f.node), f.message))
    return ValidationReport(findings)
