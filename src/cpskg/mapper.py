"""Bidirectional mapping between expression trees and their RDF form.

The forward direction is one function, :func:`om_to_rdf`; per node kind:

* application  -> fresh node typed ``om:Application`` with one
  ``om:operator`` link (first child) and one ``om:arguments`` link to an
  RDF collection (``rdf:first``/``rdf:rest`` cons cells ending in
  ``rdf:nil``) holding the remaining children in order;
* symbol       -> the IRI ``{cdBase}/{cd}#{name}`` (:func:`symbol_iri`),
  no triples;
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
mode) operator IRIs outside the configured CD base and roots that are no
node of the graph. The validator and the CLI reuse :func:`read_list`,
:func:`fragment_variables` and :func:`expression_class` rather than
walking the fragment themselves.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from .errors import CpskgError
from .om.tree import Application, FloatLiteral, IntLiteral, OMExpression, Symbol, Variable
from .rdf import RDF, XSD, Graph, Iri, Literal, Namespace, NodeRef, nt_term
from .vocab import DEFAULT_CD_BASE, DEFAULT_VOCAB, CpsVocabulary

__all__ = [
    "MalformedListError",
    "MalformedNodeError",
    "MappingResult",
    "RootNotInGraphError",
    "UnknownSymbolIriError",
    "expression_class",
    "fragment_variables",
    "om_to_rdf",
    "parse_symbol_iri",
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


class RootNotInGraphError(MalformedNodeError, UnknownSymbolIriError):
    """A root that is the subject of no triple and, outside the CD base,
    cannot stand for a symbol in strict mode: most likely a mistyped IRI.
    Read as a symbol it is also an unknown symbol IRI, so callers catching
    either error catch it."""


def symbol_iri(symbol: Symbol, cd_base: str = DEFAULT_CD_BASE) -> Iri:
    return Iri(f"{cd_base}/{symbol.cd}#{symbol.name}")


def parse_symbol_iri(iri: Iri, cd_base: str = DEFAULT_CD_BASE, *, strict: bool = True) -> Symbol:
    """Invert :func:`symbol_iri` for the same ``cd_base``. In lenient mode,
    foreign IRIs are split on their last ``/`` and ``#`` as a best effort."""
    value = iri.value
    prefix = cd_base + "/"
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


class MappingResult:
    """Outcome of mapping one equation: the graph the fragment was written
    into, the ``om:Object`` wrapper, the root expression node, and the
    variable scope."""

    def __init__(self, graph: Graph, object_node: Iri, root: NodeRef, variables: dict[str, Iri]):
        self.graph = graph
        self.object_node = object_node
        self.root = root
        self.variables = variables


def om_to_rdf(
    expr: OMExpression,
    instance_base: str,
    equation_id: str,
    *,
    vocab: CpsVocabulary = DEFAULT_VOCAB,
    graph: Optional[Graph] = None,
) -> MappingResult:
    """Map a whole expression and its ``om:Object`` wrapper into ``graph``,
    or into a fresh graph when it is omitted; the fragment is added to
    whatever ``graph`` already holds. Deterministic: identical inputs give
    identical fragments."""
    graph = Graph() if graph is None else graph
    add = graph.add
    om = vocab.om
    prefix = f"{instance_base}/expr/{equation_id}/n"
    count = 0
    variables: dict[str, Iri] = {}

    def mint() -> Iri:
        nonlocal count
        node = Iri(f"{prefix}{count}")
        count += 1
        return node

    def node_of(expr: OMExpression) -> NodeRef:
        if isinstance(expr, Application):
            node = mint()
            add(node, RDF.type, om.Application)
            add(node, om.operator, node_of(expr.operator))
            items = [node_of(arg) for arg in expr.arguments]
            cells = [mint() for _ in items]
            for cell, item, rest in zip(cells, items, [*cells[1:], RDF.nil]):
                add(cell, RDF.first, item)
                add(cell, RDF.rest, rest)
            add(node, om.arguments, cells[0] if cells else RDF.nil)
            return node
        if isinstance(expr, Symbol):
            return symbol_iri(expr, vocab.cd_base)
        if isinstance(expr, Variable):
            node = variables.get(expr.name)
            if node is None:
                node = variables[expr.name] = mint()
                add(node, RDF.type, om.Variable)
                add(node, om.name, Literal(expr.name))
            return node
        if isinstance(expr, IntLiteral):
            node = mint()
            add(node, RDF.type, om.Literal)
            add(node, om.value, Literal(expr.decimal(), XSD.integer))
            return node
        if isinstance(expr, FloatLiteral):
            node = mint()
            add(node, RDF.type, om.Literal)
            add(node, om.value, Literal(repr(expr.value), XSD.double))
            return node
        raise TypeError(f"not an expression node: {expr!r}")

    root = node_of(expr)
    wrapper = Iri(f"{instance_base}/expr/{equation_id}")
    add(wrapper, RDF.type, om.Object)
    add(wrapper, om.root, root)
    return MappingResult(graph, wrapper, root, variables)


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


def expression_class(graph: Graph, node: Iri, om: Namespace) -> Optional[Iri]:
    """The class that makes ``node`` an expression node: one of om:Object,
    om:Application, om:Variable and om:Literal, or ``None`` for a node that
    stands for a symbol, whatever other types it has. Raises
    :class:`MalformedNodeError` when ``node`` has more than one."""
    found = [t for t in graph.objects(node, RDF.type) if t in (om.Object, om.Application, om.Variable, om.Literal)]
    if len(found) > 1:
        raise MalformedNodeError(f"{node} has ambiguous expression typing: {[t.value for t in found]}")
    return found[0] if found else None


class _Reader:
    def __init__(self, graph: Graph, vocab: CpsVocabulary, strict: bool):
        self.graph = graph
        self.om = vocab.om
        self.cd_base = vocab.cd_base
        self.strict = strict
        # The wrappers and applications on the path from the root to the node
        # being read; a shared subexpression may be read again, an enclosing
        # one may not.
        self.active: set[NodeRef] = set()

    def _enter(self, node: NodeRef, structure: str) -> None:
        if node in self.active:
            raise MalformedNodeError(f"{structure} is cyclic at {node}")
        self.active.add(node)

    def _one(self, node: Iri, predicate: Iri, what: str) -> NodeRef:
        values = self.graph.objects(node, predicate)
        if len(values) != 1:
            raise MalformedNodeError(f"{node} must have exactly one {what}, found {len(values)}")
        return values[0]

    def read(self, node: NodeRef) -> OMExpression:
        om = self.om
        if isinstance(node, Literal):
            raise MalformedNodeError(f"a literal term cannot stand for an expression: {node!r}")
        kind = expression_class(self.graph, node, om)
        if kind == om.Object:
            self._enter(node, "om:root chain")
            expr = self.read(self._one(node, om.root, "om:root"))
            self.active.remove(node)
            return expr
        if kind == om.Application:
            self._enter(node, "application structure")
            operator = self.read(self._one(node, om.operator, "om:operator"))
            head = self._one(node, om.arguments, "om:arguments")
            arguments = tuple(self.read(item) for item in read_list(self.graph, head))
            self.active.remove(node)
            return Application(operator, arguments)
        if kind == om.Variable:
            name = self._one(node, om.name, "om:name")
            if not isinstance(name, Literal):
                raise MalformedNodeError(f"om:name of {node} must be a literal")
            return Variable(name.lexical)
        if kind == om.Literal:
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
                    number = float(value.lexical)
                except ValueError as exc:
                    raise MalformedNodeError(f"invalid double lexical value: {value.lexical!r}") from exc
                if not math.isfinite(number):
                    raise MalformedNodeError(f"double lexical value is not finite: {value.lexical!r}")
                return FloatLiteral(number)
            raise MalformedNodeError(f"unsupported om:value datatype: {value.datatype}")
        return parse_symbol_iri(node, self.cd_base, strict=self.strict)


def rdf_to_om(
    graph: Graph,
    root: NodeRef,
    *,
    vocab: CpsVocabulary = DEFAULT_VOCAB,
    strict: bool = True,
) -> OMExpression:
    """Reconstruct the expression rooted at ``root`` (an ``om:Object``
    wrapper or any expression node). Inverse of :func:`om_to_rdf`.

    In strict mode a root outside the CD base that is the subject of no
    triple raises :class:`RootNotInGraphError`, a
    :class:`MalformedNodeError` that names the root as missing from the
    graph rather than as a foreign operator."""
    try:
        return _Reader(graph, vocab, strict).read(root)
    except UnknownSymbolIriError:
        # a root with no triples is read as a symbol, so the error is the root's own
        if strict and isinstance(root, Iri) and not root.value.startswith(vocab.cd_base + "/") and not graph.triples(root):
            raise RootNotInGraphError(f"root is not a node of the graph: {root}") from None
        raise
