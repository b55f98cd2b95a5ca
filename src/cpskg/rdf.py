"""Minimal in-memory RDF: terms, triples, graphs, basic graph-pattern
matching, and deterministic serialization.

There are no blank nodes anywhere in this toolchain; anonymous nodes are
minted as deterministic IRIs by their producers, so graphs serialize
byte-identically across runs and platforms. N-Triples output is one sorted
line per triple; Turtle output groups by subject with sorted predicates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Union

from .errors import CpskgError

__all__ = [
    "Graph",
    "InvalidIriError",
    "InvalidTripleError",
    "Iri",
    "Literal",
    "MalformedQueryError",
    "NTriplesSyntaxError",
    "Namespace",
    "NodeRef",
    "PatternQuery",
    "RDF",
    "Triple",
    "Var",
    "XSD",
    "from_ntriples",
    "match",
    "nt_term",
    "serialize",
    "to_ntriples",
    "to_turtle",
]

_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")
_BAD_IRI_CHARS = re.compile(r'[\x00-\x20<>"{}|^`\\]')
_PREFIX_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_\-]*$")
_PN_LOCAL_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_\-]*$")


class InvalidIriError(CpskgError, ValueError):
    """A string that is not an absolute IRI or holds forbidden characters."""


class InvalidTripleError(CpskgError):
    """A triple violating the data model (literal subject, non-IRI predicate)."""


class MalformedQueryError(CpskgError):
    """A pattern query with no patterns or with non-term entries."""


class NTriplesSyntaxError(CpskgError):
    """A line that is not a valid N-Triples statement."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Iri:
    """An absolute IRI."""

    value: str

    def __post_init__(self) -> None:
        if not _SCHEME_RE.match(self.value):
            raise InvalidIriError(f"IRI must be absolute: {self.value!r}")
        if _BAD_IRI_CHARS.search(self.value):
            raise InvalidIriError(f"IRI contains forbidden characters: {self.value!r}")

    def __str__(self) -> str:
        return self.value


class Namespace:
    """Attribute-style term factory: ``Namespace(base).someTerm -> Iri``."""

    def __init__(self, base: str):
        Iri(base)  # validate
        self._base = base

    @property
    def base(self) -> str:
        return self._base

    def term(self, name: str) -> Iri:
        return Iri(self._base + name)

    def __getattr__(self, name: str) -> Iri:
        if name.startswith("_"):
            raise AttributeError(name)
        return self.term(name)

    def __getitem__(self, name: str) -> Iri:
        return self.term(name)

    def __repr__(self) -> str:
        return f"Namespace({self._base!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Namespace) and other._base == self._base

    def __hash__(self) -> int:
        return hash(self._base)


RDF = Namespace("http://www.w3.org/1999/02/22-rdf-syntax-ns#")
XSD = Namespace("http://www.w3.org/2001/XMLSchema#")


@dataclass(frozen=True)
class Literal:
    """An RDF literal; datatype defaults to xsd:string."""

    lexical: str
    datatype: Iri = XSD.string
    lang: Optional[str] = None

    def __post_init__(self) -> None:
        if self.lang is not None:
            object.__setattr__(self, "datatype", RDF.langString)


NodeRef = Union[Iri, Literal]

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _escape_literal(text: str) -> str:
    out = []
    for c in text:
        if c in _ESCAPES:
            out.append(_ESCAPES[c])
        elif ord(c) < 0x20:  # canonical form: no raw control characters
            out.append(f"\\u{ord(c):04X}")
        else:
            out.append(c)
    return "".join(out)


def nt_term(node: NodeRef) -> str:
    """The N-Triples form of a term; also the sort key of every lookup and
    serialization."""
    if isinstance(node, Iri):
        return f"<{node.value}>"
    if isinstance(node, Literal):
        body = f'"{_escape_literal(node.lexical)}"'
        if node.lang is not None:
            return f"{body}@{node.lang}"
        if node.datatype != XSD.string:
            return f"{body}^^<{node.datatype.value}>"
        return body
    raise TypeError(f"not an RDF term: {node!r}")


@dataclass(frozen=True)
class Triple:
    subject: NodeRef
    predicate: Iri
    object: NodeRef

    def __post_init__(self) -> None:
        if isinstance(self.subject, Literal):
            raise InvalidTripleError(f"triple subject cannot be a literal: {self.subject!r}")
        if not isinstance(self.subject, Iri):
            raise InvalidTripleError(f"triple subject must be an IRI: {self.subject!r}")
        if not isinstance(self.predicate, Iri):
            raise InvalidTripleError(f"triple predicate must be an IRI: {self.predicate!r}")
        if not isinstance(self.object, (Iri, Literal)):
            raise InvalidTripleError(f"triple object must be an IRI or literal: {self.object!r}")

    def sort_key(self) -> tuple[str, str, str]:
        return (nt_term(self.subject), nt_term(self.predicate), nt_term(self.object))


class Graph:
    """A duplicate-free set of triples plus prefix bindings.

    Single-writer construction; reads are safe to share once built.
    Iteration is always in serialization order, so callers cannot pick up a
    dependence on set ordering by accident. Equality compares triple sets
    only; prefixes are serialization hints, not graph content.
    """

    __slots__ = ("_triples", "_prefixes")

    def __init__(self, prefixes: Optional[Mapping[str, str]] = None):
        self._triples: set[Triple] = set()
        self._prefixes: dict[str, str] = {}
        for prefix, base in (prefixes or {}).items():
            self.bind(prefix, base)

    def bind(self, prefix: str, base: str) -> None:
        if not _PREFIX_RE.match(prefix):
            raise ValueError(f"invalid prefix name: {prefix!r}")
        Iri(base)  # validate
        self._prefixes[prefix] = base

    @property
    def prefixes(self) -> dict[str, str]:
        return dict(self._prefixes)

    def add(self, triple: Triple) -> None:
        if not isinstance(triple, Triple):
            raise InvalidTripleError(f"not a triple: {triple!r}")
        self._triples.add(triple)

    def add_all(self, triples: Iterable[Triple]) -> None:
        for triple in triples:
            self.add(triple)

    def discard(self, triple: Triple) -> None:
        self._triples.discard(triple)

    def update(self, other: "Graph") -> None:
        self._triples |= other._triples
        for prefix, base in other._prefixes.items():
            self._prefixes.setdefault(prefix, base)

    def copy(self) -> "Graph":
        clone = Graph(self._prefixes)
        clone._triples = set(self._triples)
        return clone

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def __iter__(self) -> Iterator[Triple]:
        return iter(sorted(self._triples, key=Triple.sort_key))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and other._triples == self._triples

    def __repr__(self) -> str:
        return f"Graph({len(self._triples)} triples, {len(self._prefixes)} prefixes)"

    def triples(
        self,
        subject: Optional[NodeRef] = None,
        predicate: Optional[Iri] = None,
        object: Optional[NodeRef] = None,
    ) -> list[Triple]:
        """Triples matching the given constant positions, in sorted order."""
        found = [
            t
            for t in self._triples
            if (subject is None or t.subject == subject)
            and (predicate is None or t.predicate == predicate)
            and (object is None or t.object == object)
        ]
        found.sort(key=Triple.sort_key)
        return found

    def objects(self, subject: NodeRef, predicate: Iri) -> list[NodeRef]:
        return [t.object for t in self.triples(subject, predicate)]

    def subjects(self, predicate: Optional[Iri] = None, object: Optional[NodeRef] = None) -> list[NodeRef]:
        seen = {t.subject for t in self._triples if (predicate is None or t.predicate == predicate) and (object is None or t.object == object)}
        return sorted(seen, key=nt_term)


# --- pattern matching --------------------------------------------------------


@dataclass(frozen=True)
class Var:
    """A query variable, written ``?name`` in the CLI syntax."""

    name: str


Term = Union[NodeRef, Var]


@dataclass(frozen=True)
class PatternQuery:
    """An ordered conjunction of triple patterns (a basic graph pattern)."""

    patterns: tuple[tuple[Term, Term, Term], ...]

    @classmethod
    def of(cls, *patterns: tuple[Term, Term, Term]) -> "PatternQuery":
        return cls(tuple(tuple(p) for p in patterns))  # type: ignore[arg-type]


def _substitute(term: Term, row: dict[str, NodeRef]) -> Optional[NodeRef]:
    if isinstance(term, Var):
        return row.get(term.name)
    return term


def match(graph: Graph, query: PatternQuery) -> list[dict[str, NodeRef]]:
    """All variable bindings satisfying every pattern simultaneously.

    Rows are deduplicated and ordered by the serialization order of the
    bound nodes (variables taken in name order), so results are stable
    across runs.
    """
    if not isinstance(query, PatternQuery) or not query.patterns:
        raise MalformedQueryError("query must contain at least one pattern")
    for pattern in query.patterns:
        if len(pattern) != 3 or not all(isinstance(t, (Iri, Literal, Var)) for t in pattern):
            raise MalformedQueryError(f"invalid pattern: {pattern!r}")

    rows: list[dict[str, NodeRef]] = [{}]
    for s_term, p_term, o_term in query.patterns:
        next_rows: list[dict[str, NodeRef]] = []
        for row in rows:
            s = _substitute(s_term, row)
            p = _substitute(p_term, row)
            o = _substitute(o_term, row)
            for triple in graph.triples(
                s,
                p if isinstance(p, Iri) else None,
                o,
            ):
                if isinstance(p, Literal) or (p is not None and triple.predicate != p):
                    continue
                extended = dict(row)
                consistent = True
                for term, value in ((s_term, triple.subject), (p_term, triple.predicate), (o_term, triple.object)):
                    if isinstance(term, Var):
                        bound = extended.get(term.name)
                        if bound is None:
                            extended[term.name] = value
                        elif bound != value:
                            consistent = False
                            break
                if consistent:
                    next_rows.append(extended)
        rows = next_rows

    unique = {tuple(sorted((k, nt_term(v)) for k, v in row.items())): row for row in rows}
    return [unique[key] for key in sorted(unique)]


# --- serialization ------------------------------------------------------------


def to_ntriples(graph: Graph) -> str:
    """Canonical N-Triples: one statement per line, lines sorted, LF endings."""
    lines = sorted(f"{nt_term(t.subject)} {nt_term(t.predicate)} {nt_term(t.object)} ." for t in graph)
    return "".join(line + "\n" for line in lines)


def _pname(iri: Iri, prefix_order: list[tuple[str, str]]) -> str:
    for base, prefix in prefix_order:
        if iri.value.startswith(base):
            local = iri.value[len(base):]
            if local and _PN_LOCAL_RE.match(local):
                return f"{prefix}:{local}"
    return f"<{iri.value}>"


def to_turtle(graph: Graph) -> str:
    """Deterministic pretty Turtle: sorted prefixes, subjects grouped, sorted
    predicates (rdf:type first, rendered ``a``) and objects."""
    prefix_order = sorted(((base, prefix) for prefix, base in graph.prefixes.items()), key=lambda x: (-len(x[0]), x[1]))
    out: list[str] = []
    for prefix, base in sorted(graph.prefixes.items()):
        out.append(f"@prefix {prefix}: <{base}> .")

    def term(node: NodeRef) -> str:
        if isinstance(node, Iri):
            return _pname(node, prefix_order)
        if node.lang is None and node.datatype != XSD.string:
            return f'"{_escape_literal(node.lexical)}"^^{_pname(node.datatype, prefix_order)}'
        return nt_term(node)

    by_subject: dict[str, tuple[NodeRef, dict[Iri, list[NodeRef]]]] = {}
    for t in graph:
        key = nt_term(t.subject)
        _, preds = by_subject.setdefault(key, (t.subject, {}))
        preds.setdefault(t.predicate, []).append(t.object)

    for key in sorted(by_subject):
        subject, preds = by_subject[key]
        if out:
            out.append("")
        pred_keys = sorted(preds, key=lambda p: ("0" if p == RDF.type else "1" + nt_term(p)))
        lines = []
        for predicate in pred_keys:
            rendered = "a" if predicate == RDF.type else term(predicate)
            objects = ", ".join(term(o) for o in sorted(preds[predicate], key=nt_term))
            lines.append(f"{rendered} {objects}")
        block = f"{term(subject)} " + " ;\n    ".join(lines) + " ."
        out.append(block)
    return "\n".join(out) + ("\n" if out else "")


def serialize(graph: Graph, fmt: str) -> str:
    """Serialize to ``"ntriples"`` or ``"turtle"``; output is byte-stable."""
    if fmt == "ntriples":
        return to_ntriples(graph)
    if fmt == "turtle":
        return to_turtle(graph)
    raise ValueError(f"unknown serialization format: {fmt!r}")


# groups: 1=subject, 2=predicate, 3=object IRI, 4=literal lexical, 5=datatype, 6=lang
_IRI_PAT = r"<([^\x00-\x20<>\"{}|^`\\]*)>"
_LIT_PAT = r'"((?:[^"\\\r\n]|\\.)*)"(?:\^\^' + _IRI_PAT + r"|@([A-Za-z]+(?:-[A-Za-z0-9]+)*))?"
_LINE_RE = re.compile(rf"^{_IRI_PAT}\s+{_IRI_PAT}\s+(?:{_IRI_PAT}|{_LIT_PAT})\s*\.$")
_UNESCAPE_RE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))")
_UNESCAPE_MAP = {"t": "\t", "n": "\n", "r": "\r", '"': '"', "\\": "\\"}


def _unescape(text: str, line: int) -> str:
    def repl(m: re.Match[str]) -> str:
        if m.group(1):
            return chr(int(m.group(1), 16))
        if m.group(2):
            return chr(int(m.group(2), 16))
        char = m.group(3)
        if char not in _UNESCAPE_MAP:
            raise NTriplesSyntaxError(f"invalid escape sequence \\{char}", line)
        return _UNESCAPE_MAP[char]

    return _UNESCAPE_RE.sub(repl, text)


def from_ntriples(data: Union[str, bytes]) -> Graph:
    """Parse an N-Triples document; inverse of :func:`to_ntriples` on
    canonical output. Blank lines and ``#`` comment lines are skipped."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    graph = Graph()
    for lineno, raw in enumerate(data.split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _LINE_RE.match(line)
        if m is None:
            raise NTriplesSyntaxError(f"not a valid N-Triples statement: {raw!r}", lineno)
        s_iri, p_iri, o_iri, o_lex, o_dt, o_lang = m.groups()
        try:
            subject = Iri(s_iri)
            predicate = Iri(p_iri)
            if o_iri is not None:
                obj: NodeRef = Iri(o_iri)
            elif o_lang is not None:
                obj = Literal(_unescape(o_lex, lineno), lang=o_lang)
            elif o_dt is not None:
                obj = Literal(_unescape(o_lex, lineno), Iri(o_dt))
            else:
                obj = Literal(_unescape(o_lex, lineno))
            graph.add(Triple(subject, predicate, obj))
        except (ValueError, InvalidTripleError) as exc:
            raise NTriplesSyntaxError(str(exc), lineno) from exc
    return graph
