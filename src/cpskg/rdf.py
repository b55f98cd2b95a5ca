"""Minimal in-memory RDF: terms, triples, graphs, basic graph-pattern
matching, and deterministic serialization.

There are no blank nodes anywhere in this toolchain; anonymous nodes are
minted as deterministic IRIs by their producers, so graphs serialize
byte-identically across runs and platforms. N-Triples output is one sorted
line per triple; Turtle output groups by subject with sorted predicates.
:func:`ntriples_chunks` is the one N-Triples writer. It yields the lines of
the sorted subjects a run of ``_RUN`` subjects at a time, each run's lines
sorted: as no subject text, an IRI's, is a prefix of another, subject
order is line order. So a writer holds one run's lines, never the whole
document, and :func:`to_ntriples` joins the runs.

Terms and triples compare and hash by value; an :class:`Iri` hashes as its
string. Each :class:`Iri` and :class:`Literal` renders its N-Triples text
(:func:`nt_term`) once, when it is made. A :class:`Graph` keys every term by
that text, which is one-to-one with term equality and sorts in
serialization order, so storing, indexing and sorting work on plain
strings. A graph stores its triples once, as its subject index: subject
text -> predicate text -> object text(s). Once made, a graph only grows.
``Graph.add(subject, predicate, object)`` is the one checked public write:
it applies the rule :class:`Triple` applies and stores the three texts
through ``Graph._insert``, the store's one insert, which
the writers of :mod:`cpskg.mapper` and :class:`cpskg.builder.ModelBuilder`
also call with texts they have checked; ModelBuilder and the fragment
instantiator pass texts and make no term object. :class:`Triple` is the read type, which
iteration and lookups hand out. ``Graph._term`` is the one maker of a
graph's term objects: it makes a text's object on its first hand-out and
keeps it, so each text has one object. ``Graph._objects`` is the store's
one text read: the sorted texts of a subject's (or any subject's) objects
of a predicate, with no term object made; :meth:`Graph.objects` hands out
their terms, and the readers of :mod:`cpskg.mapper` and
:mod:`cpskg.validator` walk the texts themselves. :func:`from_ntriples`
fills a fresh graph's store directly, in one pass that keeps no line numbers:
one ``findall`` per bounded slice gives each line's terms' texts, the distinct
IRIs are checked together at the end, and a rejected document is read again,
line by line, to name its fault. Lookups by predicate build an index for the
predicate they name, on the first lookup by it. A :class:`Namespace` keeps
each attribute term it hands out.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Iterator, Mapping, NoReturn, Optional, Union

from .errors import CpskgError
from .value import Value

__all__ = [
    "Graph",
    "InvalidIriError",
    "InvalidLanguageTagError",
    "InvalidTripleError",
    "Iri",
    "Literal",
    "MalformedQueryError",
    "NTriplesSyntaxError",
    "Namespace",
    "NodeRef",
    "PatternQuery",
    "RDF",
    "SerializationError",
    "Triple",
    "Var",
    "XSD",
    "display_term",
    "from_ntriples",
    "match",
    "nt_term",
    "ntriples_chunks",
    "parse_literal",
    "serialize",
    "to_ntriples",
    "to_turtle",
]

# An absolute IRI: a scheme, then none of the characters the IRIREF rule of
# N-Triples forbids. On a failed match the scheme alone says which rule broke.
# manifest.py builds the schema's IRI pattern from it (docs/manifest.schema.json).
_SCHEME = r"[A-Za-z][A-Za-z0-9+.-]*:"
_ABSOLUTE_IRI = _SCHEME + r'[^\x00-\x20<>"{}|^`\\]*'
_IRI_RE = re.compile(_ABSOLUTE_IRI)
_SCHEME_RE = re.compile(_SCHEME)
_PREFIX_RE = re.compile(r"[A-Za-z][A-Za-z0-9_\-]*")
_PN_LOCAL_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_\-]*$")
# The LANGTAG rule of N-Triples, without its "@".
_LANGTAG = r"[A-Za-z]+(?:-[A-Za-z0-9]+)*"
_LANGTAG_RE = re.compile(_LANGTAG)

# Sets a slot of a value being made; Triple.__init__'s ``object`` shadows the builtin.
_setattr = object.__setattr__


class InvalidIriError(CpskgError, ValueError):
    """A string that is not an absolute IRI or holds forbidden characters."""


class InvalidLanguageTagError(CpskgError, ValueError):
    """A literal's language tag that breaks the LANGTAG rule of N-Triples."""


class InvalidTripleError(CpskgError):
    """A triple violating the data model (literal subject, non-IRI predicate)."""


class MalformedQueryError(CpskgError):
    """A pattern query with no patterns or with non-term entries."""


class SerializationError(CpskgError, ValueError):
    """A prefix name or an output format that the serializer cannot write."""


class NTriplesSyntaxError(CpskgError):
    """A line that is not a valid N-Triples statement."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Iri(Value):
    """An absolute IRI; ``_nt`` is its N-Triples text."""

    __slots__ = ("value", "_nt")

    def __init__(self, value: str):
        if not _IRI_RE.fullmatch(value):
            raise _iri_error(value)
        _setattr(self, "value", value)
        _setattr(self, "_nt", f"<{value}>")

    def __hash__(self) -> int:
        return hash(self.value)

    def __str__(self) -> str:
        return self.value


def _iri_error(value: str) -> InvalidIriError:
    """Why ``value``, which failed ``_IRI_RE``, is not an IRI."""
    if not _SCHEME_RE.match(value):
        return InvalidIriError(f"IRI must be absolute: {value!r}")
    return InvalidIriError(f"IRI contains forbidden characters: {value!r}")


class Namespace:
    """Attribute-style term factory: ``Namespace(base).someTerm -> Iri``.

    An attribute term is built once and then kept on the instance, so the
    cache holds only names the code spells out. :meth:`term` builds a new
    term each call, as its names may come from input."""

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
        iri = self.__dict__[name] = self.term(name)
        return iri

    def __repr__(self) -> str:
        return f"Namespace({self._base!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Namespace) and other._base == self._base

    def __hash__(self) -> int:
        return hash(self._base)


RDF = Namespace("http://www.w3.org/1999/02/22-rdf-syntax-ns#")
XSD = Namespace("http://www.w3.org/2001/XMLSchema#")


_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
# canonical form: no raw control characters
_ESCAPE_TABLE = str.maketrans({**{chr(c): f"\\u{c:04X}" for c in range(0x20)}, **_ESCAPES})


def _escape_literal(text: str) -> str:
    return text.translate(_ESCAPE_TABLE)


class Literal(Value):
    """An RDF literal; datatype defaults to xsd:string, and is rdf:langString
    when ``lang`` is given. ``_nt`` is its N-Triples text."""

    __slots__ = ("lexical", "datatype", "lang", "_nt")

    def __init__(self, lexical: str, datatype: Iri = XSD.string, lang: Optional[str] = None):
        if not isinstance(datatype, Iri):
            raise TypeError(f"literal datatype must be an Iri: {datatype!r}")
        body = f'"{_escape_literal(lexical)}"'
        if lang is not None:
            if not _LANGTAG_RE.fullmatch(lang):
                raise InvalidLanguageTagError(f"invalid language tag: {lang!r}")
            datatype = RDF.langString
            body = f"{body}@{lang}"
        elif datatype != XSD.string:
            body = f"{body}^^{datatype._nt}"
        _setattr(self, "lexical", lexical)
        _setattr(self, "datatype", datatype)
        _setattr(self, "lang", lang)
        _setattr(self, "_nt", body)


NodeRef = Union[Iri, Literal]


def nt_term(node: NodeRef) -> str:
    """The N-Triples form of a term; also the sort key of every lookup and
    serialization."""
    if isinstance(node, (Iri, Literal)):
        return node._nt
    raise TypeError(f"not an RDF term: {node!r}")


def display_term(node: NodeRef) -> str:
    """A term as the CLI prints it: an IRI bare, any other term in its
    N-Triples form, so that no literal reads as an IRI."""
    return node.value if isinstance(node, Iri) else nt_term(node)


def _check_triple(subject: object, predicate: object, obj: object) -> None:
    """The data model's rule for a triple, which :class:`Triple` and
    :meth:`Graph.add` both apply: an IRI subject and predicate, and an IRI
    or literal object. Raises :class:`InvalidTripleError` otherwise."""
    if not isinstance(subject, Iri):
        if isinstance(subject, Literal):
            raise InvalidTripleError(f"triple subject cannot be a literal: {subject!r}")
        raise InvalidTripleError(f"triple subject must be an IRI: {subject!r}")
    if not isinstance(predicate, Iri):
        raise InvalidTripleError(f"triple predicate must be an IRI: {predicate!r}")
    if not isinstance(obj, (Iri, Literal)):
        raise InvalidTripleError(f"triple object must be an IRI or literal: {obj!r}")


class Triple(Value):
    """A triple as reads hand it out; writes pass :meth:`Graph.add` the
    three terms."""

    __slots__ = ("subject", "predicate", "object")

    def __init__(self, subject: NodeRef, predicate: Iri, object: NodeRef):
        _check_triple(subject, predicate, object)
        _setattr(self, "subject", subject)
        _setattr(self, "predicate", predicate)
        _setattr(self, "object", object)

    def sort_key(self) -> tuple[str, str, str]:
        return (self.subject._nt, self.predicate._nt, self.object._nt)


# A triple as the N-Triples texts of its terms: (subject, predicate, object).
_Key = tuple[str, str, str]
# The texts completing a triple under an outer and an inner text: the one
# text while there is one, a set of them from the second on.
_Leaf = Union[str, set[str]]
# outer text -> inner text -> leaf
_Index = dict[str, dict[str, _Leaf]]


def _text(node: Optional[NodeRef]) -> Optional[str]:
    return None if node is None else nt_term(node)


def _leaves(found: Optional[_Leaf]) -> Iterable[str]:
    """The texts of a leaf, or none for a missing one."""
    if found is None:
        return ()
    return (found,) if type(found) is str else found


def _put(index: dict[str, _Leaf], key: str, leaf: str) -> None:
    """Add to ``index`` a row it does not hold, with a lone text as the
    leaf of ``key`` until a second."""
    found = index.get(key)
    if found is None:
        index[key] = leaf
    elif type(found) is str:
        index[key] = {found, leaf}
    else:
        found.add(leaf)


# What a missing subject or predicate reads as; only ever read.
_EMPTY: dict[str, _Leaf] = {}


class Graph:
    """A duplicate-free set of triples that only grows.

    ``add(subject, predicate, object)`` is the one checked public write
    (:func:`from_ntriples` fills a fresh graph directly). It checks the
    three terms by the rule :class:`Triple` checks, and raises the same
    :class:`InvalidTripleError`, but makes no :class:`Triple`: that is the
    type reads hand out. It stores their texts through :meth:`_insert`, the
    store's one insert, which the writers of :mod:`cpskg.mapper` and
    :class:`cpskg.builder.ModelBuilder` also call with texts they have
    checked. A graph is built by one writer and then
    read, and an edited graph is a new graph made from the old one's
    triples. Reads are safe to share once built.
    Iteration is always in serialization order, so callers cannot pick up a
    dependence on set ordering by accident. Prefixes are serialization
    hints, not graph content: :func:`to_turtle` takes them as an argument.

    The store is the subject index itself: ``_spo`` maps the N-Triples text
    of each subject to its predicates' texts, and each of those to its
    object's text, or to a set of texts once the pair has a second object.
    A pair thus holds a lone text exactly when it has one object, so two
    graphs with the same triples have equal stores. ``_count`` counts the
    triples. No write keeps a term object: a term table maps texts to term
    objects, and :meth:`_term` alone fills it, making each term's object
    from its text on its first hand-out, so each text has one term object
    and most are never made.

    Lookups by subject read the store. :meth:`_objects` is the text read
    that :meth:`objects` and the expression walks share, so the shape of a
    leaf stays private to this module. Lookups by predicate alone go
    through ``_pos``, one index per predicate (vertical partitioning):
    predicate -> object -> subjects, with the same leaves. A predicate's
    index is built in one pass over the store on the first lookup by that
    predicate, and kept in step by every later insert under it; ``_pos`` stays
    ``None`` until the first such lookup, so a graph that is only written,
    looked up by subject and serialized never pays for it, and a lookup
    pays only for the predicate it names. Each index is published whole,
    so a reader racing its build never sees it half filled.
    """

    __slots__ = ("_spo", "_count", "_terms", "_pos")

    def __init__(self) -> None:
        self._spo: _Index = {}
        self._count = 0
        self._terms: dict[str, NodeRef] = {}
        self._pos: Optional[_Index] = None

    def add(self, subject: NodeRef, predicate: Iri, object: NodeRef) -> None:
        """Add the triple of these three terms; one the graph holds
        already changes nothing."""
        _check_triple(subject, predicate, object)
        self._insert(subject._nt, predicate._nt, object._nt)

    def _insert(self, s: str, p: str, o: str) -> None:
        """Store the triple whose terms have the N-Triples texts ``s``,
        ``p`` and ``o``, terms already checked; the store's one insert,
        which :meth:`add`, the writers of :mod:`cpskg.mapper` and
        :class:`cpskg.builder.ModelBuilder` call. A triple the graph holds
        already changes nothing; a literal's text must be its canonical
        one, which :func:`nt_term` gives. It keeps the count and any built
        predicate index in step; :meth:`_term` makes a term's object from
        its text when a read first hands it out."""
        # the insert of _put, inline: this is the write every build makes
        by_predicate = self._spo.get(s)
        if by_predicate is None:
            self._spo[s] = {p: o}
        else:
            found = by_predicate.get(p)
            if found is None:
                by_predicate[p] = o
            elif type(found) is str:
                if found == o:
                    return
                by_predicate[p] = {found, o}
            elif o in found:
                return
            else:
                found.add(o)
        self._count += 1
        if self._pos is not None:
            by_object = self._pos.get(p)
            if by_object is not None:
                _put(by_object, o, s)

    def __len__(self) -> int:
        return self._count

    def __contains__(self, triple: Triple) -> bool:
        if not isinstance(triple, Triple):
            return False
        s, p, o = triple.sort_key()
        return o in _leaves(self._spo.get(s, _EMPTY).get(p))

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples(sorted(self._select(None, None, None))))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and other._spo == self._spo

    def __repr__(self) -> str:
        return f"Graph({self._count} triples)"

    def _term(self, text: str) -> NodeRef:
        """The one term object for ``text``, a text of this graph's store;
        the only place the graph makes term objects. A text missing from
        the table, an IRI's or a literal's, gets its object made here on
        its first hand-out; ``setdefault`` keeps the object of whichever
        reader makes it first."""
        term = self._terms.get(text)
        if term is None:
            if text[0] == "<":
                # an IRI text the store holds is checked; its object carries the text itself
                made: NodeRef = object.__new__(Iri)
                _setattr(made, "value", text[1:-1])
                _setattr(made, "_nt", text)
            else:
                # a canonical literal text, which always reads; its datatype is this graph's term
                groups = _LITERAL_RE.fullmatch(text).groups()  # type: ignore[union-attr]
                made = _literal(*groups, 0, lambda value: self._term(f"<{value}>"))  # type: ignore[arg-type, return-value]
            term = self._terms.setdefault(text, made)
        return term

    def _triples(self, keys: Iterable[_Key]) -> list[Triple]:
        term = self._term
        return [Triple(term(s), term(p), term(o)) for s, p, o in keys]  # type: ignore[arg-type]

    def _by_predicate(self, p: str) -> dict[str, _Leaf]:
        """The index of predicate ``p``: object text -> subject leaf. It is
        built whole before it is published, so a reader racing the build
        sees it complete or builds its own."""
        pos = self._pos
        if pos is None:
            pos = self._pos = {}
        by_object = pos.get(p)
        if by_object is None:
            built: dict[str, _Leaf] = {}
            for s, by_predicate in self._spo.items():
                found = by_predicate.get(p)
                if found is None:
                    continue
                if type(found) is str:
                    _put(built, found, s)
                else:
                    for o in found:
                        _put(built, o, s)
            by_object = pos.setdefault(p, built)
        return by_object

    def _select(self, s: Optional[str], p: Optional[str], o: Optional[str]) -> list[_Key]:
        """The keys matching the given constant texts, unordered."""
        if s is None and p is None:
            return [
                (x, q, y)
                for x, by_predicate in self._spo.items()
                for q, ys in by_predicate.items()
                for y in _leaves(ys)
                if o is None or y == o
            ]
        if s is None:
            by_object = self._by_predicate(p)  # type: ignore[arg-type]
            if o is not None:
                return [(x, p, o) for x in _leaves(by_object.get(o))]  # type: ignore[misc]
            return [(x, p, y) for y, xs in by_object.items() for x in _leaves(xs)]  # type: ignore[misc]
        by_predicate = self._spo.get(s, _EMPTY)
        if p is not None:
            found = _leaves(by_predicate.get(p))
            if o is None:
                return [(s, p, y) for y in found]
            return [(s, p, o)] if o in found else []
        return [(s, q, y) for q, ys in by_predicate.items() for y in _leaves(ys) if o is None or y == o]

    def triples(
        self,
        subject: Optional[NodeRef] = None,
        predicate: Optional[Iri] = None,
        object: Optional[NodeRef] = None,
    ) -> list[Triple]:
        """Triples matching the given constant positions, in sorted order."""
        return self._triples(sorted(self._select(_text(subject), _text(predicate), _text(object))))

    def objects(self, subject: Optional[NodeRef], predicate: Iri) -> list[NodeRef]:
        """The distinct objects of ``predicate`` under ``subject``, or under
        any subject when it is ``None``, in sorted order."""
        term = self._term
        return [term(o) for o in self._objects(_text(subject), nt_term(predicate))]

    def _objects(self, s: Optional[str], p: str) -> tuple[str, ...]:
        """The texts of the distinct objects of predicate text ``p`` under
        subject text ``s``, or under any subject when it is ``None``, in
        sorted order: the text read of the expression walks and the
        validator, which makes no term object."""
        if s is None:
            return tuple(sorted(self._by_predicate(p)))
        # one walk to the leaf; only a set of objects needs sorting
        found = self._spo.get(s, _EMPTY).get(p)
        if found is None:
            return ()
        return (found,) if type(found) is str else tuple(sorted(found))

    def subjects(self, predicate: Optional[Iri] = None, object: Optional[NodeRef] = None) -> list[NodeRef]:
        """The distinct subjects of the triples matching ``predicate`` and
        ``object``, either ``None`` for any, in sorted order."""
        return [self._term(s) for s in sorted({key[0] for key in self._select(None, _text(predicate), _text(object))})]


# --- pattern matching --------------------------------------------------------


class Var(Value):
    """A query variable, written ``?name`` in the CLI syntax."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        _setattr(self, "name", name)


Term = Union[NodeRef, Var]


class PatternQuery(Value):
    """An ordered conjunction of triple patterns (a basic graph pattern)."""

    __slots__ = ("patterns",)

    def __init__(self, patterns: tuple[tuple[Term, Term, Term], ...]):
        _setattr(self, "patterns", patterns)

    @classmethod
    def of(cls, *patterns: tuple[Term, Term, Term]) -> "PatternQuery":
        return cls(tuple(tuple(p) for p in patterns))  # type: ignore[arg-type]


def match(graph: Graph, query: PatternQuery) -> list[dict[str, NodeRef]]:
    """All variable bindings satisfying every pattern simultaneously.

    The join works on texts: a row binds each variable to the N-Triples
    text of its value, and a pattern asks the graph for the ``(s, p, o)``
    texts of the triples matching its constant texts. Rows are
    deduplicated and ordered by the serialization order of the bound nodes
    (variables taken in name order), so results are stable across runs.
    Each output value is the graph's own term object for its text.
    """
    if not isinstance(query, PatternQuery) or not query.patterns:
        raise MalformedQueryError("query must contain at least one pattern")
    for pattern in query.patterns:
        if len(pattern) != 3 or not all(isinstance(t, (Iri, Literal, Var)) for t in pattern):
            raise MalformedQueryError(f"invalid pattern: {pattern!r}")

    rows: list[dict[str, str]] = [{}]
    for pattern in query.patterns:
        names = [t.name if isinstance(t, Var) else None for t in pattern]
        texts = [None if isinstance(t, Var) else nt_term(t) for t in pattern]
        next_rows: list[dict[str, str]] = []
        for row in rows:
            s, p, o = [text if name is None else row.get(name) for name, text in zip(names, texts)]
            for key in graph._select(s, p, o):
                extended = dict(row)
                if all(name is None or extended.setdefault(name, text) == text for name, text in zip(names, key)):
                    next_rows.append(extended)
        rows = next_rows

    unique = {tuple(sorted(row.items())): row for row in rows}
    term = graph._term
    return [{name: term(text) for name, text in unique[key].items()} for key in sorted(unique)]


# --- serialization ------------------------------------------------------------


# Subjects per chunk of ntriples_chunks. On build_scaled (2,027 subjects;
# one 10 s perfbench run each, CPython 3.11.7) runs of 64, 256, 1,024 and
# 4,096 (one run, the old whole-document peak) peaked at 22.64, 22.70,
# 23.18 and 24.41 MB, with job_s alike; smaller runs only add chunks.
_RUN = 256


def ntriples_chunks(graph: Graph) -> Iterator[str]:
    """Canonical N-Triples as text chunks that join to :func:`to_ntriples`:
    one statement per line, lines sorted, LF endings; the one N-Triples
    writer, which never holds more than one run of subjects' lines.

    The sorted subject texts are taken in runs of ``_RUN``, and each run's
    lines are sorted and yielded as one chunk. The subject order is the
    line order: a subject text is an IRI's, which ends in its only ``>``,
    so no subject text is a prefix of another and two lines of different
    subjects compare as their subjects do. Lines are sorted with their LF,
    which orders them as without it: no line is a prefix of another, as
    each ends its object with `` .``. A graph of one run sorts its lines
    only."""
    spo = graph._spo
    if len(spo) <= _RUN:
        yield _sorted_lines(spo.items())
    else:
        subjects = sorted(spo)
        for start in range(0, len(subjects), _RUN):
            yield _sorted_lines((s, spo[s]) for s in subjects[start : start + _RUN])


def _sorted_lines(entries: Iterable[tuple[str, dict[str, _Leaf]]]) -> str:
    """The sorted lines of the triples of store ``entries``, (subject text,
    its predicates) pairs, as one text; the lines are freed on return,
    before the text is written."""
    lines: list[str] = []
    for s, by_predicate in entries:
        for p, found in by_predicate.items():
            if type(found) is str:
                lines.append(f"{s} {p} {found} .\n")
            else:
                lines += [f"{s} {p} {o} .\n" for o in found]
    lines.sort()
    return "".join(lines)


def to_ntriples(graph: Graph) -> str:
    """Canonical N-Triples: one statement per line, lines sorted, LF endings.

    The chunks of :func:`ntriples_chunks` joined: the lines of the sorted
    subjects a run at a time, each run's lines sorted, which is all lines
    sorted because no subject text, an IRI's ending in its only ``>``, is a
    prefix of another. The document is held whole; a writer that need not
    hold it takes the chunks."""
    return "".join(ntriples_chunks(graph))


def _pname(iri: Iri, prefix_order: list[tuple[str, str]]) -> str:
    for base, prefix in prefix_order:
        if iri.value.startswith(base):
            local = iri.value[len(base):]
            if local and _PN_LOCAL_RE.match(local):
                return f"{prefix}:{local}"
    return f"<{iri.value}>"


def to_turtle(graph: Graph, prefixes: Optional[Mapping[str, str]] = None) -> str:
    """Deterministic pretty Turtle: sorted prefixes, subjects grouped, sorted
    predicates (rdf:type first, rendered ``a``) and objects. ``prefixes``
    maps prefix names to namespace IRIs; each is checked before use."""
    prefixes = prefixes or {}
    for prefix, base in prefixes.items():
        if not _PREFIX_RE.fullmatch(prefix):
            raise SerializationError(f"invalid prefix name: {prefix!r}")
        Iri(base)  # validate
    prefix_order = sorted(((base, prefix) for prefix, base in prefixes.items()), key=lambda x: (-len(x[0]), x[1]))
    out = [f"@prefix {prefix}: <{base}> ." for prefix, base in sorted(prefixes.items())]

    def render(node: NodeRef) -> str:
        if isinstance(node, Iri):
            return _pname(node, prefix_order)
        if node.lang is None and node.datatype != XSD.string:
            return f'"{_escape_literal(node.lexical)}"^^{_pname(node.datatype, prefix_order)}'
        return nt_term(node)

    term = graph._term
    rdf_type = nt_term(RDF.type)
    for subject, preds in sorted(graph._spo.items()):
        if out:
            out.append("")
        lines = []
        for predicate in sorted(preds, key=lambda p: (p != rdf_type, p)):
            rendered = "a" if predicate == rdf_type else render(term(predicate))
            objects = ", ".join(render(term(o)) for o in sorted(_leaves(preds[predicate])))
            lines.append(f"{rendered} {objects}")
        block = f"{render(term(subject))} " + " ;\n    ".join(lines) + " ."
        out.append(block)
    return "\n".join(out) + ("\n" if out else "")


def serialize(graph: Graph, fmt: str, prefixes: Optional[Mapping[str, str]] = None) -> str:
    """Serialize to ``"ntriples"`` or ``"turtle"``; output is byte-stable.
    N-Triples has no prefixes, so only Turtle reads ``prefixes``."""
    if fmt == "ntriples":
        return to_ntriples(graph)
    if fmt == "turtle":
        return to_turtle(graph, prefixes)
    raise SerializationError(f"unknown serialization format: {fmt!r}")


# An IRI is whatever lies between "<" and the next ">"; the IRIREF rule is
# checked on its text apart. A literal's lexical form, between its quotes.
_IRI_PAT = r"<[^>]*>"
_LEXICAL_PAT = r'"((?:[^"\\\r\n]|\\.)*)"'
# Literal groups: 1=lexical, 2=datatype IRI without its brackets, 3=lang.
_LITERAL_RE = re.compile(rf"{_LEXICAL_PAT}(?:\^\^<([^>]*)>|@({_LANGTAG}))?")
# One line of a document, as a multiline findall reads it: a statement with
# any white space around and between its terms and an optional comment after
# its ".", as N-Triples 1.1 allows, or else the whole line. Groups: 1=subject
# text, 2=predicate text, 3=object text (an IRI with its brackets or a literal
# as written), 4=a literal's lexical form, 5=its datatype or language suffix
# as written, 6=the line when it is no statement. findall gives "" for a
# group that took no part, and a statement's subject is never empty. "[^>]"
# and "\s" run in the regex engine's fast loops, so an IRI or the space
# between terms may run over a line break, which only a malformed line makes
# it do. The ending "(?:$|#.*$)" made the k=4 graph's findall under 1%
# slower than a row with no comment; "(?:#.*)?" made it about 6% slower.
_SP = r"[^\S\n]"
_OBJECT_PAT = rf"{_IRI_PAT}|{_LEXICAL_PAT}((?:\^\^{_IRI_PAT}|@{_LANGTAG})?)"
_ROW_RE = re.compile(rf"(?m)^(?:{_SP}*({_IRI_PAT})\s*({_IRI_PAT})\s*({_OBJECT_PAT}){_SP}*\.{_SP}*(?:$|#.*$)|(.*))")
# The bytes IRIREF allows between brackets, UTF-8's multi-byte ones included,
# and an IRI text with no scheme, after the line break before it.
_IRIREF_BYTES = bytes(b for b in range(0x21, 0x100) if b not in b'<>"{}|^`\\')
_RELATIVE_RE = re.compile(rb"\n<(?!%s)" % _SCHEME.encode())
# The least number of characters one findall reads; it runs on to the end
# of its last line. It bounds the rows held at once, about a hundred lines
# of golden.nt; slices of 8K to 64K characters parsed the k=4 graph equally fast.
_SLICE = 1 << 14
_XSD_STRING_SUFFIX = f"^^{XSD.string._nt}"
_UNESCAPE_RE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))")
_UNESCAPE_MAP = {"t": "\t", "n": "\n", "r": "\r", '"': '"', "\\": "\\"}


def _unescape(text: str, line: int) -> str:
    def repl(m: re.Match[str]) -> str:
        digits = m.group(1) or m.group(2)
        if digits:
            code = int(digits, 16)
            # a surrogate or a number past U+10FFFF is no character UTF-8 can write
            if 0xD800 <= code <= 0xDFFF or code > 0x10FFFF:
                raise NTriplesSyntaxError(f"escape is not a Unicode scalar value: {m.group(0)}", line)
            return chr(code)
        char = m.group(3)
        if char not in _UNESCAPE_MAP:
            raise NTriplesSyntaxError(f"invalid escape sequence \\{char}", line)
        return _UNESCAPE_MAP[char]

    return _UNESCAPE_RE.sub(repl, text)


def _literal(lexical: str, datatype: Optional[str], lang: Optional[str], line: int, iri: Callable[[str], Iri]) -> Literal:
    text = _unescape(lexical, line)
    if lang is not None:
        return Literal(text, lang=lang)
    if datatype is not None:
        return Literal(text, iri(datatype))
    return Literal(text)


def parse_literal(text: str) -> Literal:
    """One literal in N-Triples syntax, such as ``"a\\nb"`` or ``"x"@en``;
    the inverse of :func:`nt_term` on literals."""
    m = _LITERAL_RE.fullmatch(text)
    if m is None:
        raise NTriplesSyntaxError(f"not an N-Triples literal: {text!r}", 1)
    try:
        return _literal(*m.groups(), 1, Iri)
    except ValueError as exc:
        raise NTriplesSyntaxError(str(exc), 1) from exc


def _report(data: str) -> NoReturn:
    """Raise the first fault of ``data``, a document :func:`from_ntriples`
    rejected, with its line: each line's subject, predicate and object in
    turn, a literal's escapes before its datatype."""
    for line, text in enumerate(data.split("\n"), 1):
        s, p, o, lexical, suffix, other = _ROW_RE.match(text).groups("")  # type: ignore[union-attr]
        if not s:
            if other.strip()[:1] not in ("", "#"):
                raise NTriplesSyntaxError(f"not a valid N-Triples statement: {other!r}", line)
            continue
        for term in (s, p, o):
            if term[0] == '"':
                _unescape(lexical, line)
                term = suffix[2:]  # the datatype, if any; a language tag holds no "<"
            if term[:1] == "<" and not _IRI_RE.fullmatch(term, 1, len(term) - 1):
                raise NTriplesSyntaxError(str(_iri_error(term[1:-1])), line)
    raise AssertionError("from_ntriples rejected a document with no fault")


def from_ntriples(data: Union[str, bytes]) -> Graph:
    """Parse an N-Triples document; inverse of :func:`to_ntriples` on
    canonical output. Blank lines and ``#`` comment lines are skipped; a
    statement may end in a comment and need not space its terms.

    One pass accepts the document and keeps no line numbers. A multiline
    ``findall`` of ``_ROW_RE`` reads each slice, a run of whole lines at
    least ``_SLICE`` characters long. One table maps each text as written
    to the text stored: an IRI's to itself, one string per distinct IRI,
    and a literal's to its canonical text, made once per spelling unless
    written canonically (no backslash, only printable characters, no
    explicit ``xsd:string``), so ``"\\u0041"`` and ``"A"`` are one term. The
    distinct IRIs, datatypes included, are checked against IRIREF together
    at the end. A line that is no statement, a row that runs over a line
    break (whose first line is then no whole statement), a bad escape or a
    failed IRI check rejects the document, and :func:`_report` reads it
    again to name its first fault. No term object is made; nothing is kept
    between calls."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise NTriplesSyntaxError(f"invalid UTF-8 byte 0x{data[exc.start]:02X}", line) from exc
    graph = Graph()
    spo = graph._spo
    count = 0  # rows read, less the lines that hold no statement and the duplicates
    terms: dict[str, str] = {}  # text as written -> text stored
    iris: list[str] = []  # the distinct IRI texts, in the order first seen
    subject: Optional[str] = None  # the subject of the run of lines being read
    by_predicate: dict[str, _Leaf]

    start, end = 0, len(data)
    while start <= end:
        stop = data.find("\n", start + _SLICE)
        if stop < 0:
            stop = end
        rows = _ROW_RE.findall(data, start, stop)
        if len(rows) <= data.count("\n", start, stop):  # a row ran over a line break
            _report(data)
        count += len(rows)
        for s, p, o, lexical, suffix, other in rows:
            if s != subject:
                if not s:
                    if other.strip()[:1] not in ("", "#"):
                        _report(data)
                    count -= 1
                    continue
                subject = terms.get(s)
                if subject is None:
                    subject = terms[s] = s
                    iris.append(s)
                by_predicate = spo.get(subject)  # type: ignore[assignment]
                if by_predicate is None:
                    by_predicate = spo[subject] = {}
            predicate = terms.get(p)
            if predicate is None:
                predicate = terms[p] = p
                iris.append(p)
            obj = terms.get(o)
            if obj is None:
                obj = o
                if o[0] == "<":
                    iris.append(o)
                else:
                    # as written it holds no quote; without escapes, raw control
                    # characters and an explicit xsd:string, it is canonical
                    if "\\" in lexical or not lexical.isprintable() or suffix == _XSD_STRING_SUFFIX:
                        try:
                            body = _escape_literal(_unescape(lexical, 0))
                        except NTriplesSyntaxError:
                            _report(data)
                        obj = f'"{body}"' if suffix == _XSD_STRING_SUFFIX else f'"{body}"{suffix}'
                    datatype = suffix[2:]
                    if datatype[:1] == "<" and datatype not in terms:
                        terms[datatype] = datatype
                        iris.append(datatype)
                terms[o] = obj
            # Graph._insert, inline: a call per line made a 1,329-line graph's
            # parse 4-6% slower (p10 2.73 -> 2.89 ms over 600 interleaved calls,
            # CPython 3.11.7 on 2 shared vCPUs), and every read command parses
            # its graph again
            found = by_predicate.get(predicate)
            if found is None:
                by_predicate[predicate] = obj
            elif found == obj or type(found) is set and obj in found:  # a duplicate
                count -= 1
            elif type(found) is str:
                by_predicate[predicate] = {found, obj}
            else:
                found.add(obj)
        start = stop + 1
    raw = "\n".join(["", *iris]).encode("utf-8", "surrogatepass")
    if raw.translate(None, _IRIREF_BYTES) != b"\n<>" * len(iris) or _RELATIVE_RE.search(raw):
        _report(data)
    graph._count = count
    return graph
