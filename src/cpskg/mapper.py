"""Bidirectional mapping between expression trees and their RDF form.

Forward direction, per node kind:

* application  -> fresh node typed ``om:Application`` with one
  ``om:operator`` link (first child) and one ``om:arguments`` link to an
  RDF collection (``rdf:first``/``rdf:rest`` cons cells ending in
  ``rdf:nil``) holding the remaining children in order;
* symbol       -> the IRI ``{cdBase}/{cd}#{name}``, no triples;
* variable     -> node typed ``om:Variable`` with ``om:name``, one node per
  distinct name per equation (occurrences share it);
* int/double   -> node typed ``om:Literal`` with a typed ``om:value``.

Every anonymous node is a deterministic skolem IRI
``{instanceBase}/expr/{equationId}/n{i}`` with ``i`` assigned in traversal
order, so identical inputs produce byte-identical fragments. A wrapper node
``{instanceBase}/expr/{equationId}`` typed ``om:Object`` points at the root
via ``om:root`` and is the attachment point for behavior links.

The backward direction reconstructs the tree and rejects malformed shapes:
cyclic or dangling argument lists, applications without exactly one
operator and argument list, nodes with ambiguous typing, and (in strict
mode) operator IRIs outside the configured CD base. The validator and the
CLI reuse :func:`read_list` and :func:`fragment_variables` rather than
walking the fragment themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import CpskgError
from .om.tree import Application, FloatLiteral, IntLiteral, OMExpression, Symbol, Variable
from .rdf import RDF, XSD, Graph, Iri, Literal, Namespace, NodeRef, Triple, nt_term
from .vocab import DEFAULT_CD_BASE, DEFAULT_NAMESPACES

__all__ = [
    "MalformedListError",
    "MalformedNodeError",
    "MappingContext",
    "MappingResult",
    "UnknownSymbolIriError",
    "create_rdf_list",
    "fragment_variables",
    "om_to_rdf",
    "parse_symbol_iri",
    "process_node",
    "rdf_to_om",
    "read_list",
    "symbol_iri",
]


class MalformedListError(CpskgError):
    """An argument chain that is cyclic, dangling, or not single-valued;
    ``node`` is the cell where reading stopped and ``reason`` says why."""

    def __init__(self, node: NodeRef, reason: str):
        super().__init__(f"{reason}: {nt_term(node)}")
        self.node = node
        self.reason = reason


class MalformedNodeError(CpskgError):
    """An expression node violating the mapping shape."""


class UnknownSymbolIriError(CpskgError):
    """An operator IRI that cannot be resolved to a content-dictionary symbol."""


def _default_om() -> Namespace:
    return Namespace(DEFAULT_NAMESPACES["om"])


@dataclass
class MappingContext:
    """Per-equation state: skolem numbering and the variable scope."""

    instance_base: str
    equation_id: str
    om: Namespace = field(default_factory=_default_om)
    cd_base: str = DEFAULT_CD_BASE
    variables: dict[str, Iri] = field(default_factory=dict)
    _counter: int = field(default=0, init=False)

    @property
    def object_node(self) -> Iri:
        return Iri(f"{self.instance_base}/expr/{self.equation_id}")

    def next_node(self) -> Iri:
        node = Iri(f"{self.instance_base}/expr/{self.equation_id}/n{self._counter}")
        self._counter += 1
        return node


def symbol_iri(symbol: Symbol, cd_base: str = DEFAULT_CD_BASE) -> Iri:
    return Iri(f"{cd_base}/{symbol.cd}#{symbol.name}")


def parse_symbol_iri(iri: Iri, cd_base: str = DEFAULT_CD_BASE, *, strict: bool = True) -> Symbol:
    """Invert :func:`symbol_iri`. In lenient mode, foreign IRIs are split on
    their last ``/`` and ``#`` as a best effort."""
    value = iri.value
    prefix = cd_base.rstrip("/") + "/"
    if value.startswith(prefix):
        cd, sep, name = value[len(prefix):].partition("#")
        if sep and cd and name and "/" not in cd:
            return Symbol(cd, name)
        raise UnknownSymbolIriError(f"IRI under CD base is not of the form cd#name: {value}")
    if strict:
        raise UnknownSymbolIriError(f"operator IRI is not under the CD base {cd_base}: {value}")
    head, sep, name = value.rpartition("#")
    cd = head.rpartition("/")[2]
    if sep and cd and name:
        return Symbol(cd, name)
    raise UnknownSymbolIriError(f"cannot interpret IRI as a symbol: {value}")


def create_rdf_list(nodes: list[NodeRef], ctx: MappingContext, graph: Graph) -> NodeRef:
    """Build an RDF collection over ``nodes``; the empty list is ``rdf:nil``."""
    if not nodes:
        return RDF.nil
    head = ctx.next_node()
    graph.add(Triple(head, RDF.first, nodes[0]))
    graph.add(Triple(head, RDF.rest, create_rdf_list(nodes[1:], ctx, graph)))
    return head


def process_node(expr: OMExpression, ctx: MappingContext, graph: Graph) -> NodeRef:
    """Map one expression node (and its subtree) into ``graph``; returns the
    node standing for ``expr``."""
    om = ctx.om
    if isinstance(expr, Application):
        node = ctx.next_node()
        graph.add(Triple(node, RDF.type, om.Application))
        graph.add(Triple(node, om.operator, process_node(expr.operator, ctx, graph)))
        arguments = [process_node(arg, ctx, graph) for arg in expr.arguments]
        graph.add(Triple(node, om.arguments, create_rdf_list(arguments, ctx, graph)))
        return node
    if isinstance(expr, Symbol):
        return symbol_iri(expr, ctx.cd_base)
    if isinstance(expr, Variable):
        existing = ctx.variables.get(expr.name)
        if existing is not None:
            return existing
        node = ctx.next_node()
        ctx.variables[expr.name] = node
        graph.add(Triple(node, RDF.type, om.Variable))
        graph.add(Triple(node, om.name, Literal(expr.name)))
        return node
    if isinstance(expr, IntLiteral):
        node = ctx.next_node()
        graph.add(Triple(node, RDF.type, om.Literal))
        graph.add(Triple(node, om.value, Literal(str(expr.value), XSD.integer)))
        return node
    if isinstance(expr, FloatLiteral):
        node = ctx.next_node()
        graph.add(Triple(node, RDF.type, om.Literal))
        graph.add(Triple(node, om.value, Literal(repr(expr.value), XSD.double)))
        return node
    raise TypeError(f"not an expression node: {expr!r}")


@dataclass
class MappingResult:
    """Outcome of mapping one equation: the fragment graph, the ``om:Object``
    wrapper, the root expression node, and the variable scope."""

    graph: Graph
    object_node: Iri
    root: NodeRef
    variables: dict[str, Iri]


def om_to_rdf(
    expr: OMExpression,
    instance_base: str,
    equation_id: str,
    *,
    om: Optional[Namespace] = None,
    cd_base: str = DEFAULT_CD_BASE,
) -> MappingResult:
    """Map a whole expression into a fresh graph fragment, adding the
    ``om:Object`` wrapper. Deterministic: identical inputs give identical
    fragments."""
    ctx = MappingContext(instance_base, equation_id, om=om or _default_om(), cd_base=cd_base)
    graph = Graph()
    root = process_node(expr, ctx, graph)
    wrapper = ctx.object_node
    graph.add(Triple(wrapper, RDF.type, ctx.om.Object))
    graph.add(Triple(wrapper, ctx.om.root, root))
    return MappingResult(graph, wrapper, root, dict(ctx.variables))


# --- inverse ------------------------------------------------------------------


def read_list(graph: Graph, head: NodeRef) -> list[NodeRef]:
    """The items of the RDF collection starting at ``head``, in order.
    Raises :class:`MalformedListError` at the first cell that is a literal,
    repeats an earlier cell, or lacks exactly one rdf:first and rdf:rest."""
    items: list[NodeRef] = []
    seen: set[NodeRef] = set()
    node = head
    while node != RDF.nil:
        if isinstance(node, Literal):
            raise MalformedListError(node, "argument list continues into a literal")
        if node in seen:
            raise MalformedListError(node, "argument list is cyclic")
        seen.add(node)
        firsts = graph.objects(node, RDF.first)
        rests = graph.objects(node, RDF.rest)
        if len(firsts) != 1 or len(rests) != 1:
            raise MalformedListError(node, f"cons cell must have exactly one rdf:first and rdf:rest, found {len(firsts)}/{len(rests)}")
        items.append(firsts[0])
        node = rests[0]
    return items


def fragment_variables(graph: Graph, roots: Iterable[NodeRef], om: Namespace) -> list[Iri]:
    """The ``om:Variable`` nodes reachable from ``roots`` over om:operator,
    om:arguments, rdf:first and rdf:rest, in serialization order. Unlike
    :func:`rdf_to_om` it accepts malformed shapes, so rules can use it."""
    edges = (om.operator, om.arguments, RDF.first, RDF.rest)
    seen: set[NodeRef] = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node in seen or isinstance(node, Literal):
            continue
        seen.add(node)
        for predicate in edges:
            stack.extend(graph.objects(node, predicate))
    variable_type = om.Variable
    return sorted((n for n in seen if variable_type in graph.objects(n, RDF.type)), key=nt_term)


class _Reader:
    def __init__(self, graph: Graph, om: Namespace, cd_base: str, strict: bool):
        self.graph = graph
        self.om = om
        self.cd_base = cd_base
        self.strict = strict

    def _one(self, node: Iri, predicate: Iri, what: str) -> NodeRef:
        values = self.graph.objects(node, predicate)
        if len(values) != 1:
            raise MalformedNodeError(f"{node} must have exactly one {what}, found {len(values)}")
        return values[0]

    def read(self, node: NodeRef, active: frozenset[NodeRef]) -> OMExpression:
        om = self.om
        if isinstance(node, Literal):
            raise MalformedNodeError(f"a literal term cannot stand for an expression: {node!r}")
        types = set(self.graph.objects(node, RDF.type))
        om_types = types & {om.Object, om.Application, om.Variable, om.term("Literal")}
        if len(om_types) > 1:
            raise MalformedNodeError(f"{node} has ambiguous expression typing: {sorted(t.value for t in om_types)}")
        if om.Object in om_types:
            return self.read(self._one(node, om.root, "om:root"), active)
        if om.Application in om_types:
            if node in active:
                raise MalformedNodeError(f"application structure is cyclic at {node}")
            inner = active | {node}
            operator = self.read(self._one(node, om.operator, "om:operator"), inner)
            head = self._one(node, om.arguments, "om:arguments")
            arguments = tuple(self.read(item, inner) for item in read_list(self.graph, head))
            return Application(operator, arguments)
        if om.Variable in om_types:
            name = self._one(node, om.name, "om:name")
            if not isinstance(name, Literal):
                raise MalformedNodeError(f"om:name of {node} must be a literal")
            return Variable(name.lexical)
        if om.term("Literal") in om_types:
            value = self._one(node, om.value, "om:value")
            if not isinstance(value, Literal):
                raise MalformedNodeError(f"om:value of {node} must be a literal")
            if value.datatype == XSD.integer:
                try:
                    return IntLiteral(int(value.lexical))
                except ValueError as exc:
                    raise MalformedNodeError(f"invalid integer lexical value: {value.lexical!r}") from exc
            if value.datatype == XSD.double:
                try:
                    return FloatLiteral(float(value.lexical))
                except ValueError as exc:
                    raise MalformedNodeError(f"invalid double lexical value: {value.lexical!r}") from exc
            raise MalformedNodeError(f"unsupported om:value datatype: {value.datatype}")
        return parse_symbol_iri(node, self.cd_base, strict=self.strict)


def rdf_to_om(
    graph: Graph,
    root: NodeRef,
    *,
    om: Optional[Namespace] = None,
    cd_base: str = DEFAULT_CD_BASE,
    strict: bool = True,
) -> OMExpression:
    """Reconstruct the expression rooted at ``root`` (an ``om:Object``
    wrapper or any expression node). Inverse of :func:`om_to_rdf`."""
    return _Reader(graph, om or _default_om(), cd_base, strict).read(root, frozenset())
