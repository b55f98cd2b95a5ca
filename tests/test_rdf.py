from __future__ import annotations

import copy
import itertools
import os
import pickle
import re
import subprocess
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from cpskg import rdf
from cpskg.errors import CpskgError
from cpskg.manifest import compile_manifest, manifest_from_dict
from cpskg.mapper import om_to_rdf, rdf_to_om
from cpskg.om.tree import Application, FloatLiteral, IntLiteral, Symbol, Variable
from cpskg.rdf import (
    RDF,
    XSD,
    Graph,
    InvalidLanguageTagError,
    InvalidTripleError,
    Iri,
    Literal,
    MalformedQueryError,
    Namespace,
    NodeRef,
    NTriplesSyntaxError,
    PatternQuery,
    Triple,
    Var,
    from_ntriples,
    match,
    nt_term,
    parse_literal,
    serialize,
    to_ntriples,
    to_turtle,
)
from cpskg.rdf import _literal
from cpskg.vocab import DEFAULT_VOCAB

from conftest import EHSA_BASE, FIXTURES, REPO, perfbench_inputs
from strategies import trees

EX = Namespace("http://example.org/")
OM = DEFAULT_VOCAB.om


def t(s: str, p: str, o) -> tuple[Iri, Iri, Iri | Literal]:
    """The three terms of a triple under EX, as ``Graph.add`` takes them."""
    obj = o if isinstance(o, (Iri, Literal)) else EX.term(o)
    return EX.term(s), EX.term(p), obj


def test_insert_is_idempotent():
    g = Graph()
    g.add(*t("s", "p", "o"))
    assert len(g) == 1
    g.add(*t("s", "p", "o"))
    assert len(g) == 1


def test_insert_n_distinct():
    g = Graph()
    for i in range(10):
        g.add(*t("s", "p", f"o{i}"))
    assert len(g) == 10


@pytest.mark.parametrize(
    "terms, message",
    [
        ((Literal("x"), EX.p, EX.o), "triple subject cannot be a literal: "),
        (("s", EX.p, EX.o), "triple subject must be an IRI: 's'"),
        ((EX.s, Literal("p"), EX.o), "triple predicate must be an IRI: "),
        ((EX.s, EX.p, "o"), "triple object must be an IRI or literal: 'o'"),
    ],
    ids=["literal_subject", "non_term_subject", "non_iri_predicate", "non_term_object"],
)
def test_triple_and_add_reject_alike(terms, message):
    """Triple and Graph.add apply one rule and say the same thing; a
    rejected add leaves the graph as it was."""
    with pytest.raises(InvalidTripleError, match=re.escape(message)) as made:
        Triple(*terms)
    graph = Graph()
    with pytest.raises(InvalidTripleError, match=re.escape(message)) as added:
        graph.add(*terms)
    assert str(added.value) == str(made.value)
    assert len(graph) == 0


def test_added_terms_are_handed_out_equal_one_object_per_text():
    """Graph.add stores texts: reads hand out terms equal to the ones added,
    and every read hands out one object per text."""
    objects = [EX.o, Literal("x\ny"), Literal("42", XSD.integer), Literal("bonjour", lang="fr"), Literal("z", RDF.langString)]
    added = {(EX.s, EX.p, o) for o in objects} | {(EX.o, EX.q, EX.s)}
    graph = Graph()
    for triple in added:
        graph.add(*triple)
    assert {(x.subject, x.predicate, x.object) for x in graph} == added
    handed_out: dict[str, NodeRef] = {}
    reads = [*graph, *graph.triples(EX.s), *graph.triples(None, EX.q), *graph.triples(None, None, EX.s)]
    for term in [x for triple in reads for x in (triple.subject, triple.predicate, triple.object)] + graph.subjects(EX.p):
        assert handed_out.setdefault(nt_term(term), term) is term
    assert graph.objects(EX.s, EX.p) == sorted(objects, key=nt_term)


def test_relative_iri_rejected():
    with pytest.raises(ValueError):
        Iri("not-absolute/path")


def test_ntriples_deterministic_across_insertion_orders():
    triples = [t("s", "p", f"o{i}") for i in range(8)] + [t("a", "q", Literal("x\ny"))]
    g1, g2 = Graph(), Graph()
    for x in triples:
        g1.add(*x)
    for x in reversed(triples):
        g2.add(*x)
    assert to_ntriples(g1) == to_ntriples(g2)


def test_empty_graph_serializes_empty():
    assert to_ntriples(Graph()) == ""
    assert serialize(Graph(), "ntriples") == ""


def test_plain_string_literal_has_no_datatype_suffix():
    g = Graph()
    g.add(*t("s", "p", Literal("hello")))
    assert to_ntriples(g) == '<http://example.org/s> <http://example.org/p> "hello" .\n'


def test_typed_literal_round_trip():
    g = Graph()
    g.add(*t("s", "p", Literal("42", XSD.integer)))
    g.add(*t("s", "q", Literal('say "hi"\n', XSD.string)))
    g.add(*t("s", "r", Literal("bonjour", lang="fr")))
    assert from_ntriples(to_ntriples(g)) == g


def test_parse_single_line():
    g = from_ntriples('<http://example.org/s> <http://example.org/p> "x" .\n')
    assert len(g) == 1


def test_parse_garbage_line_reports_line_number():
    with pytest.raises(NTriplesSyntaxError) as excinfo:
        from_ntriples("this is not ntriples\n")
    assert excinfo.value.line == 1


def test_parse_non_utf8_names_line_of_first_bad_byte():
    with pytest.raises(NTriplesSyntaxError) as excinfo:
        from_ntriples(b"# ok\n\n<http://example.org/\xe9> <http://example.org/p> <http://example.org/o> .\n")
    assert excinfo.value.line == 3


def test_parse_blank_node_rejected():
    with pytest.raises(NTriplesSyntaxError):
        from_ntriples("_:b0 <http://example.org/p> <http://example.org/o> .\n")


def test_parse_canonicalises_literal_escapes():
    """A literal written plain, escaped, or typed xsd:string is one term,
    whichever form comes first."""
    forms = ['"A"', '"\\u0041"', '"A"^^<http://www.w3.org/2001/XMLSchema#string>']
    for order in itertools.permutations(forms):
        g = from_ntriples("".join(f"<http://example.org/s> <http://example.org/p> {form} .\n" for form in order))
        assert len(g) == 1
        assert g.objects(EX.s, EX.p) == [Literal("A")]
        assert to_ntriples(g) == '<http://example.org/s> <http://example.org/p> "A" .\n'


@pytest.mark.parametrize(
    "written, expected",
    [
        ('""', Literal("")),
        ('""@en', Literal("", lang="en")),
        ('"a\tb"', Literal("a\tb")),
        ('"1"^^<http://www.w3.org/2001/XMLSchema#integer>', Literal("1", XSD.integer)),
    ],
    ids=["empty", "empty_with_language", "raw_tab", "typed"],
)
def test_parse_reads_each_literal_form(written, expected):
    """An empty lexical form, with or without a language, and a raw tab
    read back as the literal they write; the tab is escaped on output."""
    g = from_ntriples(f"<http://example.org/s> <http://example.org/p> {written} .\n")
    assert g.objects(EX.s, EX.p) == [expected]
    assert to_ntriples(g) == f"<http://example.org/s> <http://example.org/p> {nt_term(expected)} .\n"


def test_parse_reads_a_document_without_a_final_newline():
    text = "<http://example.org/s> <http://example.org/p> \"x\" .\n<http://example.org/s> <http://example.org/p> <http://example.org/o> ."
    g = from_ntriples(text)
    assert to_ntriples(g) == text + "\n"


_OK_LINE = "<http://example.org/s> <http://example.org/p> <http://example.org/o> ."
_BAD_IRI_LINE = "<http://example.org/s> <http://example.org/p> <rel> ."


@pytest.mark.parametrize(
    "lines, message",
    [
        (['<http://example.org/s> <http://example.org/p> "x"^^<> .'], "line 1: IRI must be absolute: ''"),
        ([_OK_LINE, _BAD_IRI_LINE, "not a statement"], "line 2: IRI must be absolute: 'rel'"),
        ([_OK_LINE, _BAD_IRI_LINE, '<http://example.org/s> <http://example.org/p> "\\q" .'], "line 2: IRI must be absolute: 'rel'"),
        ([_OK_LINE, _BAD_IRI_LINE, _BAD_IRI_LINE.replace("<rel>", "<a b>")], "line 2: IRI must be absolute: 'rel'"),
        ([_OK_LINE, '<http://example.org/s> <http://example.org/p> "\\q"^^<rel> .'], "line 2: invalid escape sequence \\q"),
        ([_OK_LINE, '<rel> <http://example.org/p> "\\q" .'], "line 2: IRI must be absolute: 'rel'"),
        (["<http://example.org/s> <http://example.org/p>", "<http://example.org/o> ."],
         "line 1: not a valid N-Triples statement: '<http://example.org/s> <http://example.org/p>'"),
        (["<http://example.org/s> <http://example.org/p> <http://example.org/o", "> ."],
         "line 1: not a valid N-Triples statement: '<http://example.org/s> <http://example.org/p> <http://example.org/o'"),
        ([_OK_LINE, ". x # c"], "line 2: not a valid N-Triples statement: '. x # c'"),
        ([_OK_LINE, f"{_BAD_IRI_LINE} # c"], "line 2: IRI must be absolute: 'rel'"),
        ([_OK_LINE, "<http://example.org/s><http://example.org/p><rel>."], "line 2: IRI must be absolute: 'rel'"),
        ([_OK_LINE, '<http://example.org/s> <http://example.org/p> "\\q" . # c'], "line 2: invalid escape sequence \\q"),
    ],
    ids=[
        "empty_datatype",
        "bad_iri_then_malformed_line",
        "bad_iri_then_bad_escape",
        "bad_iri_then_another",
        "bad_escape_before_its_datatype",
        "bad_subject_before_its_escape",
        "statement_split_between_terms",
        "statement_split_inside_an_iri",
        "no_statement_before_a_comment",
        "bad_iri_before_a_comment",
        "bad_iri_in_unspaced_terms",
        "bad_escape_before_a_comment",
    ],
)
def test_parse_reports_the_first_fault_in_document_order(lines, message):
    """A bad IRI is reported at the line where it first occurs, ahead of
    any later fault; within a line, the subject and predicate come before
    the literal's escapes, and those before its datatype."""
    with pytest.raises(NTriplesSyntaxError) as excinfo:
        from_ntriples("\n".join(lines) + "\n")
    assert str(excinfo.value) == message


def test_parse_skips_comments_and_blank_lines():
    text = "# a comment\n\n<http://example.org/s> <http://example.org/p> <http://example.org/o> .\n"
    assert len(from_ntriples(text)) == 1


@pytest.mark.parametrize(
    "line, canonical",
    [
        (f"{_OK_LINE} # a comment", _OK_LINE),
        (f"{_OK_LINE}#", _OK_LINE),
        ("<http://example.org/s><http://example.org/p><http://example.org/o>.", _OK_LINE),
        ('\t<http://example.org/s><http://example.org/p>"x"@en.# c\r', '<http://example.org/s> <http://example.org/p> "x"@en .'),
        ('<http://example.org/s#a> <http://example.org/p> "a # b" .', '<http://example.org/s#a> <http://example.org/p> "a # b" .'),
        ('<http://example.org/s#a> <http://example.org/p> "a # b" . # c', '<http://example.org/s#a> <http://example.org/p> "a # b" .'),
    ],
    ids=["comment", "bare_hash", "no_spaces", "no_spaces_and_comment", "hash_in_terms", "hash_in_terms_and_comment"],
)
def test_parse_reads_a_trailing_comment_and_unspaced_terms(line, canonical):
    """N-Triples 1.1 reads a comment as white space and needs none between
    terms; a "#" inside an IRI or a literal starts no comment. The line is
    read twice, so the second time its subject continues a run."""
    assert to_ntriples(from_ntriples(f"{line}\n{line}\n")) == canonical + "\n"


@pytest.mark.parametrize("position", ["subject", "predicate", "object", "datatype"])
def test_parse_relative_iri_names_its_line(position):
    """Line 1 holds every other IRI of line 2, so a check skipped for a
    known IRI would let line 2 through."""
    valid = {
        "subject": "<http://example.org/s>",
        "predicate": "<http://example.org/p>",
        "object": "<http://example.org/o>",
        "datatype": "<http://www.w3.org/2001/XMLSchema#integer>",
    }

    def line(terms: dict[str, str]) -> str:
        obj = f'"1"^^{terms["datatype"]}' if position == "datatype" else terms["object"]
        return f"{terms['subject']} {terms['predicate']} {obj} .\n"

    text = line(valid) + line({**valid, position: "<relative>"})
    with pytest.raises(NTriplesSyntaxError, match=r"^line 2: IRI must be absolute: 'relative'$") as excinfo:
        from_ntriples(text)
    assert excinfo.value.line == 2


@pytest.mark.parametrize(
    "line, message",
    [
        (
            "<http://example.org/a b> <http://example.org/p> <http://example.org/o> .",
            "IRI contains forbidden characters: 'http://example.org/a b'",
        ),
        (
            '<http://example.org/s> <http://example.org/p> "1"^^<http://example.org/a{b}> .',
            "IRI contains forbidden characters: 'http://example.org/a{b}'",
        ),
        ("<rel> <p> <o b> .", "IRI must be absolute: 'rel'"),
    ],
    ids=["space_in_subject", "brace_in_datatype", "relative_before_forbidden"],
)
def test_parse_names_the_iri_rule_a_line_breaks(line, message):
    """An IRI is the text between its brackets, so a line whose only fault
    is inside them reports the IRI rule it breaks, checked left to right."""
    with pytest.raises(NTriplesSyntaxError) as excinfo:
        from_ntriples(f"# header\n{line}\n")
    assert str(excinfo.value) == f"line 2: {message}"
    assert excinfo.value.line == 2


@pytest.mark.parametrize("escape", ["\\UFFFFFFFF", "\\U00110000", "\\uD800", "\\uDFFF"])
def test_parse_rejects_escapes_of_no_character(escape):
    """A numeric escape must name a character UTF-8 can write: a surrogate
    or a number past U+10FFFF is a syntax error on its line, not an
    OverflowError or a string that no writer can encode."""
    text = f'# header\n<http://example.org/s> <http://example.org/p> "{escape}" .\n'
    with pytest.raises(NTriplesSyntaxError, match=r"^line 2: escape is not a Unicode scalar value: ") as excinfo:
        from_ntriples(text)
    assert excinfo.value.line == 2
    with pytest.raises(NTriplesSyntaxError):
        parse_literal(f'"{escape}"')


def test_namespace_keeps_attribute_terms_only():
    assert RDF.type is RDF.type
    assert RDF.type == RDF.term("type")
    ns = Namespace("http://example.org/ns#")
    with pytest.raises(AttributeError):
        ns._x
    with pytest.raises(AttributeError):  # a kept term is shared, so it cannot change
        RDF.type.value = "http://example.org/other"
    ns.term("from_input")
    assert "from_input" not in vars(ns)
    assert ns.a is ns.a
    assert ns.base == "http://example.org/ns#"


def test_golden_file_reserializes_byte_identically(golden_text):
    assert to_ntriples(from_ntriples(golden_text)) == golden_text


@pytest.mark.parametrize("slice_chars", [1, 300, 4096])
def test_parse_reads_a_document_over_many_slices(monkeypatch, golden_text, slice_chars):
    """Slices of the document are whole lines: a document of many slices
    reads back byte-identically, blank and comment lines count, and a
    malformed line in a late slice names its own line, also when the row
    pattern ran it over a line break and the slice is read again line by
    line."""
    monkeypatch.setattr(rdf, "_SLICE", slice_chars)
    assert len(golden_text) > 10 * 4096
    assert to_ntriples(from_ntriples(golden_text)) == golden_text
    lines = golden_text.splitlines()
    for i in (3, 100, 200):
        lines[i:i] = ["", "# a comment", "\t"]
    assert to_ntriples(from_ntriples("\n".join(lines))) == golden_text
    late = len(lines) - 5
    head, _, tail = lines[late].rpartition(" <")
    # no final ".", an unclosed IRI, and a statement split over two lines, which
    # the faster row pattern reads as one
    for broken in ([lines[late][:-1]], [lines[late].replace(">", "", 1)], [head, f"<{tail}"]):
        with pytest.raises(NTriplesSyntaxError) as excinfo:
            from_ntriples("\n".join([*lines[:late], *broken, *lines[late + 1 :]]))
        assert excinfo.value.line == late + 1
    # a statement ending in a comment and one with no space between its terms,
    # which N-Triples 1.1 allows, then the split statement: read line by line
    loose = [*lines[: late - 2], f"{lines[late - 2]} # a comment", re.sub(r'(?<=>) (?=[<"])| (?=\.$)', "", lines[late - 1])]
    assert "> " not in loose[-1] and loose[-1] != lines[late - 1]
    assert to_ntriples(from_ntriples("\n".join([*loose, *lines[late:]]))) == golden_text
    with pytest.raises(NTriplesSyntaxError) as excinfo:
        from_ntriples("\n".join([*loose, head, f"<{tail}", *lines[late + 1 :]]))
    assert excinfo.value.line == late + 1


# --- the parser against the strict per-line parser it replaced ----------------

# The reference: a strict per-line parser that checks IRI characters in the
# line pattern itself, and the scheme, at every occurrence.
_REF_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")
_REF_BAD_IRI_CHARS = re.compile(r'[\x00-\x20<>"{}|^`\\]')
_REF_IRI = r"<([^\x00-\x20<>\"{}|^`\\]*)>"
_REF_LIT = r'"((?:[^"\\\r\n]|\\.)*)"(?:\^\^' + _REF_IRI + r"|@([A-Za-z]+(?:-[A-Za-z0-9]+)*))?"
_REF_LINE_RE = re.compile(rf"^{_REF_IRI}\s+{_REF_IRI}\s+(?:{_REF_IRI}|{_REF_LIT})\s*\.$")


def _reference_iri(value: str) -> Iri:
    if not _REF_SCHEME_RE.match(value) or _REF_BAD_IRI_CHARS.search(value):
        raise ValueError(f"not an IRI: {value!r}")
    return Iri(value)


def reference_parse(data: bytes) -> str:
    """The strict per-line parser: the canonical N-Triples of ``data``, or
    an NTriplesSyntaxError naming the first bad line."""
    graph = Graph()
    for lineno, raw in enumerate(data.decode("utf-8").split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _REF_LINE_RE.match(line)
        if m is None:
            raise NTriplesSyntaxError(f"not a valid N-Triples statement: {raw!r}", lineno)
        s, p, o, lexical, datatype, lang = m.groups()
        try:
            subject, predicate = _reference_iri(s), _reference_iri(p)
            obj = _reference_iri(o) if o is not None else _literal(lexical, datatype, lang, lineno, _reference_iri)
        except ValueError as exc:
            raise NTriplesSyntaxError(str(exc), lineno) from exc
        graph.add(subject, predicate, obj)
    return to_ntriples(graph)


def _parse_outcome(parse, data: bytes) -> tuple:
    try:
        return ("accepted", parse(data))
    except NTriplesSyntaxError as exc:
        return ("rejected", exc.line)


_GOLDEN_LINES = (FIXTURES / "golden.nt").read_text(encoding="utf-8").splitlines()
_BRACKETED = re.compile(r"<[^<>]*>")
# Characters IRIREF forbids between the brackets: a sample of the controls, then the rest.
_IRIREF_FORBIDS = ["\x00", "\x1f", " ", "<", '"', "{", "}", "|", "^", "`", "\\"]


@st.composite
def _mutated_golden(draw) -> bytes:
    """A run of golden.nt lines, so IRIs repeat across lines, with one to
    three edits: a character put inside a bracketed IRI (each one IRIREF
    forbids, and characters of two to four UTF-8 bytes that it allows), an
    unclosed or an empty one, one whose scheme lost its ":", another
    separator or line ending, whitespace before or after a statement (a
    Unicode space that ``str.strip`` removes included), a comment or blank
    line, or one literal written escaped and plain."""
    start = draw(st.integers(0, len(_GOLDEN_LINES) - 10))
    lines = _GOLDEN_LINES[start : start + 10]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        spans = [m.span() for m in _BRACKETED.finditer(line)]
        kinds = ["inside", "unclosed", "empty", "no_scheme", "separator", "crlf", "indent", "trailing",
                 "unicode_space", "comment", "blank", "escaped_twice"]
        kind = draw(st.sampled_from(kinds))
        if kind in ("inside", "unclosed", "empty", "no_scheme") and spans:
            a, b = draw(st.sampled_from(spans))
            if kind == "inside":
                at = draw(st.integers(a + 1, b - 1))
                char = draw(st.sampled_from([*_IRIREF_FORBIDS, "\xa0", "\xe9", "\u3000", "\U0001F600"]))
                replace = draw(st.booleans()) and at < b - 1
                lines[i] = line[:at] + char + line[at + replace :]
            elif kind == "unclosed":
                lines[i] = line[: b - 1] + line[b:]
            elif kind == "empty":
                lines[i] = line[:a] + "<>" + line[b:]
            elif ":" in line[a:b]:  # an earlier edit may have left this IRI without one
                colon = line.index(":", a)
                lines[i] = line[:colon] + line[colon + 1 :]
        elif kind == "separator" and " " in line:
            at = draw(st.sampled_from([k for k, c in enumerate(line) if c == " "]))
            lines[i] = line[:at] + draw(st.sampled_from(["\t", "\x0b", " \t "])) + line[at + 1 :]
        elif kind == "crlf":
            lines[i] = line + "\r"
        elif kind == "indent":
            lines[i] = draw(st.sampled_from([" ", "  ", "\t", " \t"])) + line
        elif kind == "trailing":
            lines[i] = line + draw(st.sampled_from([" ", "\t", " \t ", "\t\r"]))
        elif kind == "unicode_space":
            space = draw(st.sampled_from(["\x1c", "\u3000"]))
            lines[i] = space + line if draw(st.booleans()) else line + space
        elif kind == "escaped_twice" and len(spans) >= 2:
            # the same literal as "\u0041" and as "A", in either order, under line i's subject and predicate
            head = f"{line[slice(*spans[0])]} {line[slice(*spans[1])]}"
            pair = [f'{head} "\\u0041" .', f'{head} "A" .']
            lines[i:i] = pair if draw(st.booleans()) else pair[::-1]
        elif kind == "comment":
            lines.insert(i, draw(st.sampled_from(["# a comment", "#" + line, "  # indented"])))
        elif kind == "blank":
            lines.insert(i, draw(st.sampled_from(["", "   ", "\t"])))
    return ("\n".join(lines) + "\n").encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(_mutated_golden())
def test_parse_agrees_with_the_strict_per_line_parser(data):
    """Checking each distinct IRI once, after finding it by its brackets,
    accepts and rejects exactly the documents the per-occurrence check did,
    names the same line, and reads the same graph, whether a slice holds
    the whole document or a line or two."""
    expected = _parse_outcome(reference_parse, data)
    assert _parse_outcome(lambda d: to_ntriples(from_ntriples(d)), data) == expected
    with mock.patch.object(rdf, "_SLICE", 64):
        assert _parse_outcome(lambda d: to_ntriples(from_ntriples(d)), data) == expected


def test_parse_accepts_a_lone_surrogate_inside_an_iri():
    """A str document may hold a lone surrogate, which no UTF-8 writes;
    IRIREF does not forbid it, so it reads back as part of its IRI."""
    g = from_ntriples("<http://example.org/\ud800> <http://example.org/p> <http://example.org/o> .\n")
    assert [t.subject.value for t in g] == ["http://example.org/\ud800"]


def test_a_valid_document_never_reaches_the_reporter(monkeypatch, golden_text, ehsa_manifest):
    """Only a rejected document is read again to name its fault: golden.nt,
    the k=16 graph and a graph of 10^3 observations are accepted by the
    one pass alone."""
    data = copy.deepcopy(ehsa_manifest.data)
    shipped = data["observations"]
    data["observations"] = [
        {**shipped[i % len(shipped)], "value": i * 0.5, "timestamp": f"2024-01-01T00:{i // 60:02d}:{i % 60:02d}Z"}
        for i in range(1000)
    ]
    observed = to_ntriples(compile_manifest(manifest_from_dict(data, base_dir=FIXTURES)))
    inputs = perfbench_inputs()
    scaled = inputs.reference_ntriples(inputs.load_fixture(FIXTURES), 16)

    def report(text: str):
        raise AssertionError("a valid document reached the reporter")

    monkeypatch.setattr(rdf, "_report", report)
    for text in (golden_text, scaled, observed):
        assert to_ntriples(from_ntriples(text)) == text


# --- one term object per text -----------------------------------------------


def test_parsed_graph_hands_out_one_object_per_text(golden_text, ehsa_graph, ehsa_manifest):
    """Term objects of a parsed graph, and of the IRIs and literals that
    om_to_rdf writes as texts into a built one, are made on first hand-out,
    and every read hands out that same object for a given text."""
    prefixes = DEFAULT_VOCAB.prefixes(EHSA_BASE)
    for graph in (from_ntriples(golden_text), compile_manifest(ehsa_manifest)):
        seen: dict[str, object] = {}

        def same(*terms) -> None:
            for term in terms:
                assert seen.setdefault(nt_term(term), term) is term
                if isinstance(term, Literal):
                    same(term.datatype)

        for _ in range(2):
            for x in [*graph, *graph.triples()]:
                same(x.subject, x.predicate, x.object)
                same(*graph.objects(x.subject, x.predicate))
            same(*graph.subjects(), *graph.subjects(RDF.type))
            for row in match(graph, PatternQuery.of((Var("s"), Var("p"), Var("o")))):
                same(*row.values())
            assert to_turtle(graph, prefixes) == to_turtle(ehsa_graph, prefixes)
        assert {text for key in graph._select(None, None, None) for text in key} <= set(seen)


def test_parsed_literals_are_made_on_first_read(golden_text, ehsa_graph):
    """Parsing makes no Literal, and a lookup that hands out no literal
    makes none either; reading one makes it, and Turtle of a fresh parse
    reads the same terms as Turtle of the built graph."""
    graph = from_ntriples(golden_text)
    assert not any(isinstance(term, Literal) for term in graph._terms.values())
    prefixes = DEFAULT_VOCAB.prefixes(EHSA_BASE)
    assert to_turtle(from_ntriples(golden_text), prefixes) == to_turtle(ehsa_graph, prefixes)
    variable = graph.subjects(RDF.type, OM.Variable)[0]
    assert not any(isinstance(term, Literal) for term in graph._terms.values())
    (name,) = graph.objects(variable, OM.name)
    assert name == ehsa_graph.objects(variable, OM.name)[0]
    assert [term for term in graph._terms.values() if isinstance(term, Literal)] == [name]


def test_mapped_literals_that_need_escapes_read_back():
    """A variable name with a quote, a backslash or a control character is
    written escaped, and reads back, directly and after a round trip, as
    the name it was; numbers read back as their typed literals."""
    names = ['a"b', "c\\d", "e\x01", "\u00e9"]
    expr = Application(Symbol("arith1", "plus"), (*map(Variable, names), IntLiteral(-5), FloatLiteral(1.5)))
    result = om_to_rdf(expr, "http://example.org/m", "e")
    for graph in (result.graph, from_ntriples(to_ntriples(result.graph))):
        assert [graph.objects(result.variables[name], OM.name) for name in names] == [[Literal(name)] for name in names]
        assert rdf_to_om(graph, result.object_node) == expr
    assert '"e\\u0001"' in to_ntriples(result.graph)


def _race(read, workers: int = 8) -> list:
    """What ``read()`` returns in each of ``workers`` threads started
    together: more threads than cores, switching every microsecond."""
    barrier = threading.Barrier(workers, timeout=10)
    results: list = [None] * workers

    def run(i: int) -> None:
        barrier.wait()
        results[i] = read()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return results


def test_concurrent_readers_share_each_term_object(golden_text):
    """Readers of one parsed graph racing to make the same terms end up
    with the same objects."""
    graph = from_ntriples(golden_text)
    results: list[list[Triple]] = _race(lambda: list(graph))
    assert all(len(result) == len(graph) for result in results)
    for other in results[1:]:
        for x, y in zip(results[0], other):
            assert x.subject is y.subject and x.predicate is y.predicate and x.object is y.object


def test_concurrent_readers_racing_a_predicate_index_build_get_full_answers(golden_text):
    """Readers that race to build the same predicate's index each get its
    full answer, never one read from a half-built index."""
    operator, arguments = DEFAULT_VOCAB.vdi3682.ProcessOperator, DEFAULT_VOCAB.om.arguments
    expected_graph = from_ntriples(golden_text)
    expected = (expected_graph.subjects(RDF.type, operator), expected_graph.triples(None, arguments))
    assert (len(expected[0]), len(expected[1])) == (3, 22)
    for _ in range(5):
        graph = from_ntriples(golden_text)
        results = _race(lambda: (graph.subjects(RDF.type, operator), graph.triples(None, arguments)))
        assert all(result == expected for result in results)


def test_turtle_groups_subjects_and_uses_prefixes():
    g = Graph()
    g.add(*t("s", "p", "o1"))
    g.add(*t("s", "p", "o2"))
    g.add(EX.s, RDF.type, EX.T)
    ttl = to_turtle(g, {"ex": EX.base})
    assert "@prefix ex: <http://example.org/> ." in ttl
    assert "ex:s a ex:T ;" in ttl
    assert "ex:p ex:o1, ex:o2 ." in ttl


def test_turtle_deterministic():
    g1, g2 = Graph(), Graph()
    triples = [t("s", "p", f"o{i}") for i in range(5)]
    for x in triples:
        g1.add(*x)
    for x in reversed(triples):
        g2.add(*x)
    assert to_turtle(g1, {"ex": EX.base}) == to_turtle(g2, {"ex": EX.base})


def test_turtle_falls_back_to_full_iri_for_bad_locals():
    g = Graph()
    g.add(EX.term("a/b"), EX.p, EX.o)
    assert "<http://example.org/a/b>" in to_turtle(g, {"ex": EX.base})


@pytest.mark.parametrize(
    "prefixes",
    [{"1ex": EX.base}, {"e x": EX.base}, {"ex": "not-absolute/"}, {"ex": "http://example.org/a b/"}, {"ex\n": EX.base}],
)
def test_turtle_rejects_bad_prefix_bindings(prefixes):
    # a CpskgError that is also a ValueError; "ex\n" would otherwise be
    # written as "@prefix ex\n: <...> .", which is not Turtle
    with pytest.raises(CpskgError) as excinfo:
        serialize(Graph(), "turtle", prefixes)
    assert isinstance(excinfo.value, ValueError)


def test_serialize_unknown_format():
    with pytest.raises(CpskgError, match="unknown serialization format: 'rdfxml'") as excinfo:
        serialize(Graph(), "rdfxml")
    assert isinstance(excinfo.value, ValueError)


# --- pattern matching -------------------------------------------------------


def brute_force_match(graph: Graph, query: PatternQuery) -> list[dict]:
    """Independent oracle: try every combination of graph triples."""
    triples = list(graph)
    rows = []
    for combo in itertools.product(triples, repeat=len(query.patterns)):
        binding: dict = {}
        ok = True
        for pattern, triple in zip(query.patterns, combo):
            for term, value in zip(pattern, (triple.subject, triple.predicate, triple.object)):
                if isinstance(term, Var):
                    if term.name in binding and binding[term.name] != value:
                        ok = False
                    else:
                        binding[term.name] = value
                elif term != value:
                    ok = False
                if not ok:
                    break
            if not ok:
                break
        if ok:
            rows.append(binding)
    unique = {tuple(sorted((k, nt_term(v)) for k, v in row.items())): row for row in rows}
    return [unique[k] for k in sorted(unique)]


@pytest.fixture
def small_graph() -> Graph:
    g = Graph()
    for i in range(4):
        g.add(EX.term(f"v{i}"), RDF.type, EX.Variable)
    g.add(EX.v0, EX.isDataFor, EX.d0)
    g.add(EX.v1, EX.isDataFor, EX.d1)
    g.add(EX.v1, EX.isDataFor, EX.d2)
    for i in range(3):
        g.add(EX.term(f"d{i}"), RDF.type, EX.DataElement)
    for i in range(10):
        g.add(EX.term(f"n{i}"), EX.p, Literal(str(i), XSD.integer))
    return g


def test_match_empty_graph():
    query = PatternQuery.of((Var("s"), Var("p"), Var("o")))
    assert match(Graph(), query) == []


def test_match_all_variable_pattern_counts_triples(small_graph):
    rows = match(small_graph, PatternQuery.of((Var("s"), Var("p"), Var("o"))))
    assert len(rows) == len(small_graph)


def test_match_two_pattern_join_against_brute_force(small_graph):
    query = PatternQuery.of(
        (Var("v"), RDF.type, EX.Variable),
        (Var("v"), EX.isDataFor, Var("d")),
    )
    rows = match(small_graph, query)
    assert rows == brute_force_match(small_graph, query)
    assert {(r["v"].value, r["d"].value) for r in rows} == {
        (EX.v0.value, EX.d0.value),
        (EX.v1.value, EX.d1.value),
        (EX.v1.value, EX.d2.value),
    }


def test_match_rows_are_sorted_and_unique(small_graph):
    rows = match(small_graph, PatternQuery.of((Var("v"), EX.isDataFor, Var("d"))))
    keys = [tuple(sorted((k, str(v)) for k, v in row.items())) for row in rows]
    assert keys == sorted(set(keys))


@pytest.mark.parametrize("bad", [PatternQuery(()), "nope"])
def test_malformed_queries(bad):
    with pytest.raises(MalformedQueryError):
        match(Graph(), bad)


# n2 sorts before n20 as a value but after it as N-Triples text.
_match_iris = st.sampled_from([EX.term(x) for x in ("a", "b", "n2", "n20")])
_match_literals = st.sampled_from([Literal("x"), Literal("1", XSD.integer), Literal("x", lang="en"), Literal("two\nlines")])
_match_nodes = st.one_of(_match_iris, _match_literals)
# Constants of either kind in every position, and few names, so that variables
# repeat within a pattern and across patterns.
_match_terms = st.one_of(st.sampled_from([Var("x"), Var("y"), Var("z")]), _match_nodes)


@given(
    st.lists(st.tuples(_match_iris, _match_iris, _match_nodes), max_size=8),
    st.lists(st.tuples(_match_terms, _match_terms, _match_terms), min_size=1, max_size=3),
)
def test_match_agrees_with_brute_force(triples, patterns):
    """The same rows, in the same order, as trying every combination of
    triples, including literals in subject or predicate position."""
    graph = Graph()
    for x in triples:
        graph.add(*x)
    query = PatternQuery.of(*patterns)
    assert match(graph, query) == brute_force_match(graph, query)


# --- property tests -----------------------------------------------------------

_iris = st.sampled_from([EX.term(x) for x in "abcdefgh"])
_literals = st.one_of(
    st.text(max_size=6).map(Literal),
    st.integers(-99, 99).map(lambda i: Literal(str(i), XSD.integer)),
)
_triples = st.tuples(_iris, _iris, st.one_of(_iris, _literals))


@given(st.lists(_triples, max_size=25))
def test_ntriples_round_trip_property(triples):
    g = Graph()
    for x in triples:
        g.add(*x)
    assert from_ntriples(to_ntriples(g)) == g


@given(st.lists(_triples, max_size=25), st.randoms())
def test_serialization_ignores_insertion_order(triples, rnd):
    g1, g2 = Graph(), Graph()
    for x in triples:
        g1.add(*x)
    shuffled = list(triples)
    rnd.shuffle(shuffled)
    for x in shuffled:
        g2.add(*x)
    assert to_ntriples(g1) == to_ntriples(g2)
    assert to_turtle(g1) == to_turtle(g2)


# IRIs one of which is a prefix of another, and literals of one lexical form
# with and without a language tag or datatype.
_prefixed_iris = st.sampled_from([Iri(f"http://a/b{x}") for x in ("", "/c", "/n1", "/n10", "/n2", "c", "/")])
_one_lexical = st.sampled_from(
    [Literal("1"), Literal("1", lang="en"), Literal("1", lang="en-GB"), Literal("1", XSD.integer), Literal("1", Iri("http://a/b"))]
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(_prefixed_iris, _prefixed_iris, st.one_of(_prefixed_iris, _one_lexical)), max_size=30),
    st.integers(0, 2 * rdf._RUN),
    st.sampled_from([1, 2, 3, rdf._RUN]),
    st.randoms(),
)
def test_ntriples_chunks_join_to_the_sorted_lines(triples, fillers, run, rnd):
    """Sorting the subjects and then each run's lines gives all lines
    sorted, for runs of any size, with subjects over more than one run of
    the real size; each chunk holds the lines of at most one run."""
    rows = [*triples, *((Iri(f"http://a/b/n{i}"), Iri("http://a/b/c"), Literal(str(i))) for i in range(fillers))]
    rnd.shuffle(rows)
    graph = Graph()
    for row in rows:
        graph.add(*row)
    oracle = "".join(sorted(f"{s} {p} {o} .\n" for s, p, o in graph._select(None, None, None)))
    with mock.patch.object(rdf, "_RUN", run):
        chunks = list(rdf.ntriples_chunks(graph))
        assert to_ntriples(graph) == oracle
    assert "".join(chunks) == oracle
    assert len(chunks) == max(1, -(-len(graph._spo) // run))  # a graph of one run, even an empty one, is one chunk
    assert all(len({line.split(" ", 1)[0] for line in chunk.splitlines()}) <= run for chunk in chunks)


def _escape_reference(text: str) -> str:
    """The per-character loop that the escape table of nt_term replaces."""
    escapes = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
    out = []
    for c in text:
        if c in escapes:
            out.append(escapes[c])
        elif ord(c) < 0x20:
            out.append(f"\\u{ord(c):04X}")
        else:
            out.append(c)
    return "".join(out)


@given(st.one_of(st.text(), st.text(st.characters(max_codepoint=0x7F))))
def test_literal_escaping_matches_the_reference_loop(text):
    assert nt_term(Literal(text)) == f'"{_escape_reference(text)}"'


_lexicals = st.one_of(
    st.sampled_from(["A", "a", "", 'say "hi"', "back\\slash", "tab\t", "line\nbreak", "\r", "\x01", "\x1f", "\x7f", "é", "\U0001F600", EX.a.value]),
    st.text(max_size=3),
)
_terms = st.one_of(
    st.sampled_from([EX.a, EX.b, EX.term("n2"), EX.term("n20"), XSD.string, RDF.langString]),
    st.builds(Literal, _lexicals),
    st.builds(Literal, _lexicals, st.sampled_from([XSD.string, XSD.integer, RDF.langString, EX.a])),
    st.builds(Literal, _lexicals, lang=st.sampled_from(["en", "EN", "de-CH"])),
)


def _nt_reference(node) -> str:
    """The renderer each term's carried text replaces: the N-Triples form,
    built from the term's fields on every call."""
    if isinstance(node, Iri):
        return f"<{node.value}>"
    body = f'"{_escape_reference(node.lexical)}"'
    if node.lang is not None:
        return f"{body}@{node.lang}"
    if node.datatype != XSD.string:
        return f"{body}^^<{node.datatype.value}>"
    return body


_any_iris = st.builds(Iri, st.from_regex(r"[A-Za-z][A-Za-z0-9+.\-]*:[^\x00-\x20<>\"{}|^`\\]*", fullmatch=True))
_any_lexicals = st.one_of(st.text(), st.text(st.characters(max_codepoint=0x7F)), _lexicals)
_datatypes = st.one_of(st.sampled_from([XSD.string, XSD.integer, XSD.double, RDF.langString]), _any_iris)
_lang_tags = st.from_regex(r"[A-Za-z]{1,8}(-[A-Za-z0-9]{1,8}){0,2}", fullmatch=True)
_any_terms = st.one_of(
    _any_iris,
    st.builds(Literal, _any_lexicals),
    st.builds(Literal, _any_lexicals, _datatypes),
    st.builds(Literal, _any_lexicals, lang=_lang_tags),
    st.builds(Literal, _any_lexicals, _datatypes, _lang_tags),
)


@given(_any_terms)
def test_carried_text_matches_the_reference_renderer(term):
    """Escapes, control characters, language tags, datatypes and an explicit
    xsd:string all render as the field-by-field renderer does."""
    expected = _nt_reference(term)
    assert nt_term(term) == expected
    triple = Triple(EX.s, EX.p, term) if isinstance(term, Literal) else Triple(term, term, term)
    assert triple.sort_key()[2] == expected
    graph = Graph()
    graph.add(triple.subject, triple.predicate, triple.object)
    assert to_ntriples(graph).endswith(f" {expected} .\n")


def test_literal_datatype_must_be_an_iri():
    with pytest.raises(TypeError, match="datatype"):
        Literal("1", XSD.integer.value)  # type: ignore[arg-type]


@pytest.mark.parametrize("lang", ["en us", "", "en-", "1en", "en\n"])
def test_literal_rejects_a_language_tag_the_reader_would_reject(lang):
    """A tag outside the LANGTAG rule would be written as a line that
    from_ntriples rejects, or, with a line break, as two lines."""
    with pytest.raises(InvalidLanguageTagError, match=re.escape(f"invalid language tag: {lang!r}")) as excinfo:
        Literal("x", lang=lang)
    assert isinstance(excinfo.value, CpskgError) and isinstance(excinfo.value, ValueError)


def test_literal_with_a_valid_language_tag_round_trips():
    graph = Graph()
    graph.add(EX.s, EX.p, Literal("x", lang="en-US"))
    assert to_ntriples(graph) == '<http://example.org/s> <http://example.org/p> "x"@en-US .\n'
    assert from_ntriples(to_ntriples(graph)).objects(EX.s, EX.p) == [Literal("x", lang="en-US")]


@given(_terms, _terms)
def test_nt_term_is_one_to_one_with_term_equality(a, b):
    """The graph keys terms by their text, so equal texts must mean equal terms."""
    assert (nt_term(a) == nt_term(b)) == (a == b)


# Local names a Namespace hands out as attributes ("base" and "term" are its own).
_local_names = st.from_regex(r"[a-z][a-z0-9]{0,4}", fullmatch=True).filter(lambda n: not hasattr(Namespace, n))


@given(st.lists(st.tuples(_local_names, _local_names, st.one_of(_local_names, _literals)), min_size=1, max_size=8))
def test_equal_terms_hash_equal_however_built(rows):
    """Terms and triples hash by value: built directly, parsed from
    N-Triples or taken from a Namespace, equal ones hash equal."""
    ns = Namespace(EX.base)

    def build(make, s, p, o) -> Triple:
        return Triple(make(s), make(p), o if isinstance(o, Literal) else make(o))

    direct = [build(lambda n: Iri(EX.base + n), *row) for row in rows]
    named = [build(lambda n: getattr(ns, n), *row) for row in rows]
    graph = Graph()
    for x in direct:
        graph.add(x.subject, x.predicate, x.object)
    parsed = {x: x for x in from_ntriples(to_ntriples(graph))}
    for x, y, z in zip(direct, named, (parsed[d] for d in direct)):
        for other in (y, z):
            pairs = [(x, other), (x.subject, other.subject), (x.predicate, other.predicate), (x.object, other.object)]
            if isinstance(x.object, Literal):
                pairs.append((x.object.datatype, other.object.datatype))
            for a, b in pairs:
                assert a == b and hash(a) == hash(b)
    for iri in {x.subject for x in direct}:
        assert hash(iri) == hash(iri.value)
        assert iri != iri.value and iri != Literal(iri.value)


def test_triple_pickled_in_another_process_hashes_in_this_one():
    """String hashes are salted per process. Terms and a hashed triple made
    there compare and hash equal here, and a graph made here finds them."""
    probe = (
        "import pickle, sys; from cpskg.rdf import XSD, Literal, Namespace, Triple; "
        f"EX = Namespace('{EX.base}'); "
        "terms = (EX.s, EX.p, Literal('x'), Literal('x', lang='en'), Literal('1', XSD.integer)); "
        "t = Triple(EX.s, EX.p, Literal('x')); hash(t); "
        "sys.stdout.buffer.write(pickle.dumps((terms, t)))"
    )
    env = dict(os.environ, PYTHONHASHSEED="1", PYTHONPATH=str(REPO / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, env=env)
    assert result.returncode == 0, result.stderr
    terms, triple = pickle.loads(result.stdout)
    here = (EX.s, EX.p, Literal("x"), Literal("x", lang="en"), Literal("1", XSD.integer))
    assert terms == here
    assert [hash(x) for x in terms] == [hash(x) for x in here]
    assert [nt_term(x) for x in terms] == [nt_term(x) for x in here]
    assert triple in {Triple(EX.s, EX.p, Literal("x"))}
    graph = Graph()
    for obj in here[2:]:
        graph.add(EX.s, EX.p, obj)
    assert triple in graph
    s, p, *objects = terms
    assert graph.objects(s, p) == sorted(objects, key=nt_term)
    for obj in objects:
        assert graph.triples(s, p, obj) == [Triple(s, p, obj)]
        assert graph.subjects(p, obj) == [s]


# --- lookup indexes ---------------------------------------------------------

# A small term universe, so that adds and lookups hit the same keys.
# n2, n20 and n2-x share a prefix: as raw values n2 sorts first, but as
# N-Triples text it sorts last (<...n2-x>, <...n20>, <...n2>), so keying the
# graph by raw values would change the lookup order.
_few_iris = st.sampled_from([EX.term(x) for x in ("a", "b", "c", "n2", "n20", "n2-x")])
_few_triples = st.builds(Triple, _few_iris, _few_iris, st.one_of(_few_iris, st.sampled_from([Literal("x"), Literal("x", lang="en")])))
_graph_ops = st.one_of(
    st.tuples(st.just("add"), _few_triples),
    st.tuples(st.just("lookup"), _few_triples),
)


def _check_lookups(graph: Graph, probe: Triple) -> None:
    """Every lookup shape agrees with a filter over the graph's triple set."""
    everything = set(graph)

    def select(s, p, o) -> list[Triple]:
        return [
            x
            for x in everything
            if (s is None or x.subject == s) and (p is None or x.predicate == p) and (o is None or x.object == o)
        ]

    for s, p, o in itertools.product((probe.subject, None), (probe.predicate, None), (probe.object, None)):
        assert graph.triples(s, p, o) == sorted(select(s, p, o), key=Triple.sort_key)
    for p, o in itertools.product((probe.predicate, None), (probe.object, None)):
        assert graph.subjects(p, o) == sorted({x.subject for x in select(None, p, o)}, key=nt_term)
    assert graph.objects(probe.subject, probe.predicate) == sorted((x.object for x in select(probe.subject, probe.predicate, None)), key=nt_term)
    assert graph.objects(None, probe.predicate) == sorted({x.object for x in select(None, probe.predicate, None)}, key=nt_term)


@given(st.lists(_graph_ops, max_size=30), _few_triples)
def test_indexed_lookups_match_brute_force(ops, probe):
    """Lookups interleaved with adds build the indexes mid-sequence; every
    later add must keep them in step."""
    graph = Graph()
    for op, triple in ops:
        if op == "add":
            graph.add(triple.subject, triple.predicate, triple.object)
        else:
            _check_lookups(graph, triple)
    _check_lookups(graph, probe)


def test_objects_of_a_missing_predicate_are_none():
    graph = Graph()
    assert graph.objects(None, EX.p) == []
    graph.add(*t("s", "p", "o"))
    assert graph.objects(None, EX.q) == []
    assert graph.objects(None, EX.p) == [EX.o]


@given(trees(max_leaves=8), st.data())
def test_mapping_keeps_a_built_index_in_step(tree, data):
    """The mapper writes through the store's insert, which must keep a
    predicate index built before the write in step."""
    base = "http://example.org/m"
    graph = om_to_rdf(tree, base, "first").graph
    graph.subjects(RDF.type, OM.Application)  # builds the rdf:type index
    om_to_rdf(tree, base, "second", graph=graph)
    for probe in data.draw(st.lists(st.sampled_from(list(graph)), min_size=1, max_size=3)):
        _check_lookups(graph, probe)


# --- the store, held to a plain set of texts --------------------------------

# Literals whose lines share a prefix up to the object: "a", "a ." and a
# language-tagged "a" sort on the character after ``"a``, and the text of
# "a" is a substring of the others'.
_MODEL_NODES = [
    *(EX.term(x) for x in ("a", "b", "c", "n2", "n20", "n2-x")),
    *(Literal("a"), Literal("a ."), Literal("a", lang="en"), Literal("1", XSD.integer)),
]
_model_nodes = st.sampled_from(_MODEL_NODES)
_model_triples = st.tuples(_few_iris, _few_iris, _model_nodes)


def _texts(terms) -> tuple[str, ...]:
    return tuple(nt_term(x) for x in terms)


def _text_or_none(node) -> str | None:
    return None if node is None else nt_term(node)


class GraphAgainstASetOfTexts(RuleBasedStateMachine):
    """Every read of a graph agrees with a plain set of ``(s, p, o)`` texts
    that saw the same adds, while adds and lookups interleave."""

    def __init__(self) -> None:
        super().__init__()
        self.graph = Graph()
        self.model: set[tuple[str, str, str]] = set()
        self.added: list[tuple] = []

    def _add(self, triple: tuple) -> None:
        self.graph.add(*triple)
        self.model.add(_texts(triple))
        self.added.append(triple)

    @rule(triple=_model_triples)
    def add(self, triple):
        self._add(triple)

    @precondition(lambda self: self.added)
    @rule(data=st.data())
    def add_again(self, data):
        before = len(self.graph)
        self._add(data.draw(st.sampled_from(self.added)))
        assert len(self.graph) == before

    @rule(s=_few_iris, p=_few_iris, objects=st.lists(_model_nodes, min_size=1, max_size=3, unique=True))
    def grow_one_pair(self, s, p, objects):
        """One (subject, predicate) pair gains objects one at a time."""
        for o in objects:
            self._add((s, p, o))
            expected = sorted(y for x, q, y in self.model if (x, q) == _texts((s, p)))
            assert [nt_term(x) for x in self.graph.objects(s, p)] == expected

    @rule(probe=_model_triples)
    def lookup(self, probe):
        def select(s, p, o) -> list[tuple[str, str, str]]:
            want = (s, p, o)
            return sorted(k for k in self.model if all(w is None or w == x for w, x in zip(want, k)))

        for s, p, o in itertools.product(*((x, None) for x in probe)):
            found = [x.sort_key() for x in self.graph.triples(s, p, o)]
            assert found == select(*map(_text_or_none, (s, p, o)))
        for p, o in itertools.product((probe[1], None), (probe[2], None)):
            subjects = sorted({k[0] for k in select(None, _text_or_none(p), _text_or_none(o))})
            assert [nt_term(x) for x in self.graph.subjects(p, o)] == subjects
        objects = [k[2] for k in select(*_texts(probe[:2]), None)]
        assert [nt_term(x) for x in self.graph.objects(*probe[:2])] == objects
        objects = sorted({k[2] for k in select(None, nt_term(probe[1]), None)})
        assert [nt_term(x) for x in self.graph.objects(None, probe[1])] == objects
        assert (Triple(*probe) in self.graph) == (_texts(probe) in self.model)

    @rule(rnd=st.randoms(use_true_random=False))
    def parse_shuffled_duplicated_lines(self, rnd):
        lines = [f"{s} {p} {o} ." for s, p, o in self.model]
        lines += rnd.sample(lines, len(lines) // 2)
        rnd.shuffle(lines)
        parsed = from_ntriples("\n".join(lines))
        assert parsed == self.graph and len(parsed) == len(self.model)
        assert {x.sort_key() for x in parsed} == self.model

    @invariant()
    def size_membership_and_order(self):
        assert len(self.graph) == len(self.model)
        assert [x.sort_key() for x in self.graph] == sorted(self.model)
        for s, p in {x[:2] for x in self.added}:
            for o in _MODEL_NODES:
                assert (Triple(s, p, o) in self.graph) == (_texts((s, p, o)) in self.model)

    @invariant()
    def ntriples_are_the_sorted_lines(self):
        lines = sorted(f"{s} {p} {o} ." for s, p, o in self.model)
        assert to_ntriples(self.graph) == "".join(line + "\n" for line in lines)

    @invariant()
    def turtle_groups_the_sorted_triples(self):
        """With no prefixes and no rdf:type, each term is written as its text."""
        blocks = []
        for s in sorted({k[0] for k in self.model}):
            lines = [
                f"{p} " + ", ".join(sorted(k[2] for k in self.model if k[:2] == (s, p)))
                for p in sorted({k[1] for k in self.model if k[0] == s})
            ]
            blocks.append(f"{s} " + " ;\n    ".join(lines) + " .")
        assert to_turtle(self.graph) == "\n\n".join(blocks) + ("\n" if blocks else "")

    @invariant()
    def equal_to_the_same_triples_added_in_reverse(self):
        reverse = Graph()
        for triple in reversed(self.added):
            reverse.add(*triple)
        assert reverse == self.graph and self.graph == reverse
        if self.added:
            # as many triples, one of them different
            swapped = Graph()
            swapped.add(EX.elsewhere, EX.p, EX.o)
            for triple in self.added:
                if _texts(triple) != _texts(self.added[0]):
                    swapped.add(*triple)
            assert len(swapped) == len(self.graph) and swapped != self.graph


TestGraphAgainstASetOfTexts = GraphAgainstASetOfTexts.TestCase
TestGraphAgainstASetOfTexts.settings = settings(max_examples=100, stateful_step_count=25, deadline=None)


def test_writes_and_subject_lookups_build_no_index(ehsa_manifest, golden_text):
    """Building the EHSA graph, whose observations each ask the graph
    whether their feature exists, and reading a parsed graph by subject
    leave the predicate index unbuilt."""
    assert ehsa_manifest.data["observations"]
    graph = compile_manifest(ehsa_manifest)
    assert graph._pos is None
    parsed = from_ntriples(golden_text)
    subject = next(iter(parsed))
    assert parsed.objects(subject.subject, RDF.type)
    assert parsed.triples(subject.subject)
    assert parsed._pos is None


def test_a_lookup_by_predicate_builds_that_predicates_index_only(golden_text):
    """``subjects(rdf:type, X)`` indexes rdf:type alone; later adds under it
    reach that index, and adds under a predicate never looked up by build
    none."""
    graph = from_ntriples(golden_text)
    operator = DEFAULT_VOCAB.vdi3682.ProcessOperator
    assert len(graph.subjects(RDF.type, operator)) == 3
    assert set(graph._pos) == {nt_term(RDF.type)}
    graph.add(EX.op, RDF.type, operator)
    graph.add(EX.op, RDF.type, EX.Other)
    assert EX.op in graph.subjects(RDF.type, operator)
    assert graph.subjects(RDF.type, EX.Other) == [EX.op]
    graph.add(EX.op, EX.neverAsked, EX.o)
    assert set(graph._pos) == {nt_term(RDF.type)}
    # the kept index is the one a fresh build of the same triples gives
    rebuilt = from_ntriples(to_ntriples(graph))
    assert graph._pos[nt_term(RDF.type)] == rebuilt._by_predicate(nt_term(RDF.type))
    assert graph.subjects(EX.neverAsked) == [EX.op]
    assert set(graph._pos) == {nt_term(RDF.type), nt_term(EX.neverAsked)}


@pytest.mark.parametrize(
    "lookup",
    [
        lambda g: g.objects("x", RDF.type),
        lambda g: g.objects(EX.s, "x"),
        lambda g: g.objects(None, "x"),
        lambda g: g.subjects(RDF.type, "x"),
        lambda g: g.triples("x"),
    ],
    ids=["objects-subject", "objects-predicate", "objects-any-subject", "subjects-object", "triples-subject"],
)
def test_lookups_refuse_a_value_that_is_not_a_term(lookup):
    graph = Graph()
    graph.add(*t("s", "p", "o"))
    with pytest.raises(TypeError, match="not an RDF term"):
        lookup(graph)
