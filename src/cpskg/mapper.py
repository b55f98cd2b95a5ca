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

A fragment that :func:`om_to_rdf` mapped into a graph of its own can be
written again under any equation id by the function ``_instantiator``
makes of it, which renames its nodes to that equation's skolem IRIs and
gives the triples, result and errors :func:`om_to_rdf` would.
``manifest.compile_manifest`` maps each equation source once and
instantiates it for every equation that names it.

The backward direction reconstructs the tree and rejects malformed shapes:
cyclic or dangling argument lists, applications without exactly one
operator and argument list, nodes with ambiguous typing, and (in strict
mode) operator IRIs outside the configured CD base and roots that are no
node of the graph. The backward direction reads texts: its walks compare
the store's N-Triples texts (``Graph._objects``) and make a term object
only for what they return or name in an error. Each fragment shape has one
reader, over texts: ``_list_items`` (an argument list), ``_variables`` (an
equation's variables) and ``_expression_class`` (an expression node or a
symbol), which :func:`rdf_to_om` and the validator call. The CLI calls
:func:`variable_elements`. Neither the validator nor the CLI walks a
fragment itself, and both reach an operator's equations only through
:func:`behavior_objects`.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional

from .errors import CpskgError
from .om.tree import Application, FloatLiteral, IntLiteral, OMExpression, Symbol, Variable
from .rdf import RDF, XSD, Graph, Iri, Literal, Namespace, NodeRef, _escape_literal, nt_term
from .vocab import DEFAULT_CD_BASE, DEFAULT_VOCAB, CpsVocabulary

__all__ = [
    "MalformedListError",
    "MalformedNodeError",
    "MappingResult",
    "RootNotInGraphError",
    "UnknownSymbolIriError",
    "behavior_objects",
    "om_to_rdf",
    "parse_symbol_iri",
    "rdf_to_om",
    "symbol_iri",
    "variable_elements",
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
    identical fragments.

    The fragment is written as N-Triples texts through the store's insert:
    the skolem prefix is checked once, through the first node's IRI, and
    each distinct symbol IRI once, through :func:`symbol_iri`; variable
    names and numbers are written as canonical literal texts, and no term
    object is made for them. The result's nodes are the graph's own term
    objects."""
    graph = Graph() if graph is None else graph
    insert = graph._insert
    om, cd_base = vocab.om, vocab.cd_base
    rdf_type, first, rest_of, nil = RDF.type._nt, RDF.first._nt, RDF.rest._nt, RDF.nil._nt
    application, operator, arguments = om.Application._nt, om.operator._nt, om.arguments._nt
    variable, name_of, literal, value_of = om.Variable._nt, om.name._nt, om.Literal._nt, om.value._nt
    # a number literal's text after its lexical form: the closing quote and the datatype
    integer, double = f'"^^{XSD.integer._nt}', f'"^^{XSD.double._nt}'
    base = f"{instance_base}/expr/{equation_id}"
    if not isinstance(expr, Symbol):
        Iri(f"{base}/n0")  # the first node; every later one differs only in its number
    prefix = f"<{base}/n"
    count = 0
    variables: dict[str, str] = {}
    symbols: dict[Symbol, str] = {}

    def mint() -> str:
        nonlocal count
        node = f"{prefix}{count}>"
        count += 1
        return node

    def node_of(expr: OMExpression) -> str:
        if isinstance(expr, Application):
            node = mint()
            insert(node, rdf_type, application)
            insert(node, operator, node_of(expr.operator))
            items = [node_of(arg) for arg in expr.arguments]
            cells = [mint() for _ in items]
            for cell, item, rest in zip(cells, items, [*cells[1:], nil]):
                insert(cell, first, item)
                insert(cell, rest_of, rest)
            insert(node, arguments, cells[0] if cells else nil)
            return node
        if isinstance(expr, Symbol):
            node = symbols.get(expr)
            if node is None:
                node = symbols[expr] = symbol_iri(expr, cd_base)._nt
            return node
        if isinstance(expr, Variable):
            node = variables.get(expr.name)
            if node is None:
                node = variables[expr.name] = mint()
                insert(node, rdf_type, variable)
                insert(node, name_of, f'"{_escape_literal(expr.name)}"')
            return node
        if isinstance(expr, IntLiteral):
            node = mint()
            insert(node, rdf_type, literal)
            insert(node, value_of, f'"{expr.decimal()}{integer}')
            return node
        if isinstance(expr, FloatLiteral):
            node = mint()
            insert(node, rdf_type, literal)
            insert(node, value_of, f'"{expr.value!r}{double}')
            return node
        raise TypeError(f"not an expression node: {expr!r}")

    root = node_of(expr)
    wrapper = Iri(base)._nt
    insert(wrapper, rdf_type, om.Object._nt)
    insert(wrapper, om.root._nt, root)
    term = graph._term
    return MappingResult(graph, term(wrapper), term(root), {name: term(node) for name, node in variables.items()})  # type: ignore[arg-type]


def _instantiator(fragment: MappingResult) -> Callable[[str, str, Graph], MappingResult]:
    """A function ``instantiate(instance_base, equation_id, graph)`` that
    writes ``fragment``, what :func:`om_to_rdf` mapped into a graph of its
    own, into ``graph`` under ``equation_id``: the same triples, result and
    error as :func:`om_to_rdf` of the same expression under that id into
    ``graph``. It renames the fragment's nodes, the subjects of its graph,
    to the equation's skolem IRIs and keeps every other term. The fragment's
    rows are read here, once; each call checks the first node's IRI, then
    the wrapper's, as :func:`om_to_rdf` checks them, names its nodes and
    inserts the rows. The fragment's graph must not change afterwards."""
    rows = fragment.graph._select(None, None, None)
    root, wrapper = fragment.root._nt, fragment.object_node._nt
    # each node's text is the wrapper's less its ">", then "/n{i}>" or ">"
    cut = len(wrapper) - 1
    suffixes = {node: node[cut:] for node in fragment.graph._spo}
    # every other text names itself; a symbol root is the object of the wrapper's om:root
    kept = {o: o for _, _, o in rows if o not in suffixes}
    variables = [(name, node._nt) for name, node in fragment.variables.items()]

    def instantiate(instance_base: str, equation_id: str, graph: Graph) -> MappingResult:
        base = f"{instance_base}/expr/{equation_id}"
        if root in suffixes:
            Iri(f"{base}/n0")
        prefix = Iri(base)._nt[:-1]
        names = kept.copy()
        for node, suffix in suffixes.items():
            names[node] = prefix + suffix
        insert = graph._insert
        for s, p, o in rows:
            insert(names[s], p, names[o])
        term = graph._term
        return MappingResult(graph, term(names[wrapper]), term(names[root]), {name: term(names[node]) for name, node in variables})  # type: ignore[arg-type]

    return instantiate


# --- inverse ------------------------------------------------------------------

_TYPE, _FIRST, _REST, _NIL = RDF.type._nt, RDF.first._nt, RDF.rest._nt, RDF.nil._nt


def _list_items(graph: Graph, head: str) -> list[str]:
    """The items of the RDF collection starting at ``head``, in order, as
    texts. Raises :class:`MalformedListError` at the first cell that is a
    literal, repeats an earlier cell, or lacks exactly one rdf:first and
    rdf:rest."""
    objects = graph._objects
    items: list[str] = []
    seen: set[str] = set()
    node = head
    while node != _NIL:
        if node[0] != "<":
            raise MalformedListError(graph._term(node), "argument list continues into a literal")
        if node in seen:
            raise MalformedListError(graph._term(node), "argument list is cyclic")
        seen.add(node)
        firsts, rests = objects(node, _FIRST), objects(node, _REST)
        if len(firsts) != 1 or len(rests) != 1:
            raise MalformedListError(graph._term(node), f"cons cell must have exactly one rdf:first and rdf:rest, found {len(firsts)}/{len(rests)}")
        items.append(firsts[0])
        node = rests[0]
    return items


def _variables(graph: Graph, wrappers: Iterable[str], om: Namespace) -> list[str]:
    """The ``om:Variable`` nodes reachable from the om:root of each of
    ``wrappers`` over om:operator, om:arguments, rdf:first and rdf:rest, as
    texts in serialization order. Unlike :func:`rdf_to_om` it accepts
    malformed shapes, so rules can use it."""
    objects, root = graph._objects, om.root._nt
    edges = (om.operator._nt, om.arguments._nt, _FIRST, _REST)
    seen: set[str] = set()
    stack = [node for wrapper in wrappers for node in objects(wrapper, root)]
    while stack:
        node = stack.pop()
        if node in seen or node[0] != "<":
            continue
        seen.add(node)
        for predicate in edges:
            stack.extend(objects(node, predicate))
    variable = om.Variable._nt
    return sorted(n for n in seen if variable in objects(n, _TYPE))


def variable_elements(graph: Graph, vocab: CpsVocabulary, wrappers: Iterable[Iri]) -> list[tuple[str, str, str]]:
    """The data elements of the variables of the equations that ``wrappers``
    hold: the distinct rows (variable name, data element IRI, its type
    description IRI), sorted. A variable with no literal om:name is named by
    its IRI, and an element with no type description IRI has ``""``."""
    objects, om = graph._objects, vocab.om
    name_of, data_for, described = om.name._nt, vocab.cpsmod.isDataFor._nt, vocab.dinen61360.hasTypeDescription._nt
    rows = set()
    for var in _variables(graph, [w._nt for w in wrappers], om):
        names = [n for n in objects(var, name_of) if n[0] != "<"]
        name = graph._term(names[0]).lexical if names else var[1:-1]  # type: ignore[union-attr]
        for element in objects(var, data_for):
            if element[0] == "<":
                descriptions = [d for d in objects(element, described) if d[0] == "<"]
                rows.add((name, element[1:-1], descriptions[0][1:-1] if descriptions else ""))
    return sorted(rows)


def behavior_objects(graph: Graph, vocab: CpsVocabulary, operator: Optional[Iri] = None) -> list[Iri]:
    """The ``om:Object`` wrappers of the behavior models of ``operator``,
    or of every operator when it is ``None``: IRIs only, each once however
    many models hold it, ordered by IRI."""
    cpsmod = vocab.cpsmod
    models = graph.objects(operator, cpsmod.processOperatorBehaviorModel)
    wrappers = {w for model in models for w in graph.objects(model, cpsmod.hasOMObject) if isinstance(w, Iri)}
    return sorted(wrappers, key=lambda w: w.value)


def _expression_class(graph: Graph, node: str, classes: tuple[str, ...]) -> Optional[str]:
    """The class that makes ``node`` an expression node: one of ``classes``,
    the texts of om:Object, om:Application, om:Variable and om:Literal, or
    ``None`` for a node that stands for a symbol, whatever other types it
    has. Raises :class:`MalformedNodeError` when ``node`` has more than one."""
    found = [t for t in graph._objects(node, _TYPE) if t in classes]
    if len(found) > 1:
        raise MalformedNodeError(f"{node[1:-1]} has ambiguous expression typing: {[t[1:-1] for t in found]}")
    return found[0] if found else None


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
    objects, term, om = graph._objects, graph._term, vocab.om
    classes = wrapper, application, variable, literal = om.Object._nt, om.Application._nt, om.Variable._nt, om.Literal._nt
    # the wrappers and applications on the path from the root to the node being
    # read: a shared subexpression may be read again, an enclosing one may not
    active: set[str] = set()

    def one(node: str, predicate: Iri, what: str) -> str:
        values = objects(node, predicate._nt)
        if len(values) != 1:
            raise MalformedNodeError(f"{node[1:-1]} must have exactly one {what}, found {len(values)}")
        return values[0]

    def read(node: str) -> OMExpression:
        # a nested node is read by a direct call: one frame per nesting level
        if node[0] != "<":
            raise MalformedNodeError(f"a literal term cannot stand for an expression: {term(node)!r}")
        kind = _expression_class(graph, node, classes)
        if kind == wrapper or kind == application:
            if node in active:
                raise MalformedNodeError(f"{'om:root chain' if kind == wrapper else 'application structure'} is cyclic at {node[1:-1]}")
            active.add(node)
            if kind == wrapper:
                expr = read(one(node, om.root, "om:root"))
            else:
                operator = read(one(node, om.operator, "om:operator"))
                arguments = []
                for item in _list_items(graph, one(node, om.arguments, "om:arguments")):
                    arguments.append(read(item))
                expr = Application(operator, tuple(arguments))
            active.remove(node)
            return expr
        if kind == variable:
            name = one(node, om.name, "om:name")
            if name[0] == "<":
                raise MalformedNodeError(f"om:name of {node[1:-1]} must be a literal")
            return Variable(term(name).lexical)  # type: ignore[union-attr]
        if kind == literal:
            value = term(one(node, om.value, "om:value"))
            if not isinstance(value, Literal):
                raise MalformedNodeError(f"om:value of {node[1:-1]} must be a literal")
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
        return parse_symbol_iri(term(node), vocab.cd_base, strict=strict)  # type: ignore[arg-type]

    try:
        return read(nt_term(root))
    except UnknownSymbolIriError:
        # a root with no triples is read as a symbol, so the error is the root's own
        if strict and isinstance(root, Iri) and not root.value.startswith(vocab.cd_base + "/") and root._nt not in graph._spo:
            raise RootNotInGraphError(f"root is not a node of the graph: {root}") from None
        raise
