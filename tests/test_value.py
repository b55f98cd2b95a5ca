"""The immutable value types: terms, triples, query terms, expression-tree
nodes, the vocabulary, the tool configuration and validator findings."""

from __future__ import annotations

import pickle

import pytest

from cpskg.om.registry import DEFAULT_REGISTRY, PLUS
from cpskg.om.tree import Application, FloatLiteral, IntLiteral, Symbol, Variable
from cpskg.rdf import RDF, XSD, Iri, Literal, Namespace, PatternQuery, Triple, Var
from cpskg.validator import Finding
from cpskg.vocab import DEFAULT_VOCAB, CpsVocabulary, ToolConfig, load_config

EX = Namespace("http://example.org/")

# Each case makes a new value, equal to the one the call before made, and
# names the value's fields.
CASES = {
    "Iri": (lambda: Iri("http://example.org/a"), ("value",)),
    "Literal": (lambda: Literal("x"), ("lexical", "datatype", "lang")),
    "Literal-lang": (lambda: Literal("x", lang="en"), ("lexical", "datatype", "lang")),
    "Literal-typed": (lambda: Literal("1", XSD.integer), ("lexical", "datatype", "lang")),
    "Triple": (lambda: Triple(Iri(EX.s.value), EX.p, Literal("x")), ("subject", "predicate", "object")),
    "Var": (lambda: Var("x"), ("name",)),
    "PatternQuery": (lambda: PatternQuery.of((Var("s"), RDF.type, EX.c)), ("patterns",)),
    "Symbol": (lambda: Symbol("arith1", "plus"), ("cd", "name")),
    "Variable": (lambda: Variable("x"), ("name",)),
    "IntLiteral": (lambda: IntLiteral(3), ("value",)),
    "FloatLiteral": (lambda: FloatLiteral(1.5), ("value",)),
    "Application": (lambda: Application(PLUS, [Variable("x"), IntLiteral(1)]), ("operator", "arguments")),
    "CpsVocabulary": (
        lambda: CpsVocabulary.from_mapping({}),
        ("om", "cpsmod", "vdi3682", "vdi2206", "dinen61360", "din77005", "sosa", "cd_base"),
    ),
    "ToolConfig": (lambda: ToolConfig(), ("vocab", "strict", "registry")),
    "ToolConfig-symbols": (
        lambda: ToolConfig(registry=DEFAULT_REGISTRY.extended({("mycd", "f"): "f", ("mycd", "g"): None})),
        ("vocab", "strict", "registry"),
    ),
    "Finding": (lambda: Finding("V1", "error", EX.s, "argument list is cyclic"), ("rule", "severity", "node", "message")),
}


@pytest.mark.parametrize("case", CASES)
def test_equal_fields_give_equal_values_with_equal_hashes(case):
    make, fields = CASES[case]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != object() and a != tuple(getattr(a, name) for name in fields)


def test_values_of_different_classes_differ_whatever_their_fields():
    assert Var("x") != Variable("x") and Variable("x") != Var("x")
    assert IntLiteral(1) != FloatLiteral(1.0)
    assert Iri("http://example.org/a") != Literal("http://example.org/a")
    assert len({Var("x"), Variable("x")}) == 2


@pytest.mark.parametrize("case", CASES)
def test_fields_can_be_neither_assigned_nor_deleted(case):
    make, fields = CASES[case]
    value = make()
    for name in (*fields, "_nt", "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == make()


@pytest.mark.parametrize("case", CASES)
def test_pickle_round_trips(case):
    value = CASES[case][0]()
    restored = pickle.loads(pickle.dumps(value))
    assert type(restored) is type(value)
    assert restored == value and hash(restored) == hash(value)
    assert repr(restored) == repr(value)


def test_pickle_keeps_a_language_tag_an_application_and_the_default_vocabulary():
    literal = pickle.loads(pickle.dumps(Literal("x", lang="en")))
    assert (literal.lang, literal.datatype, literal._nt) == ("en", RDF.langString, '"x"@en')
    tree = Application(PLUS, (Variable("x"), Application(Symbol("transc1", "sin"), (FloatLiteral(0.5),))))
    assert pickle.loads(pickle.dumps(tree)) == tree
    vocab = pickle.loads(pickle.dumps(DEFAULT_VOCAB))
    assert vocab == DEFAULT_VOCAB and vocab.om.Application == DEFAULT_VOCAB.om.Application


@pytest.mark.parametrize("case", CASES)
def test_repr_shows_the_fields_and_no_derived_state(case):
    make, fields = CASES[case]
    value = make()
    shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
    assert repr(value) == f"{type(value).__name__}({shown})"
    assert "_nt" not in repr(value)


def test_repr_of_a_literal():
    expected = "Literal(lexical='1', datatype=Iri(value='http://www.w3.org/2001/XMLSchema#integer'), lang=None)"
    assert repr(Literal("1", XSD.integer)) == expected


def test_a_configuration_that_adds_symbols_loads_equal_each_time(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"symbols": [{"cd": "mycd", "name": "f", "token": "f"}, {"cd": "mycd", "name": "g"}]}', encoding="utf-8")
    config = load_config(path)
    assert config == load_config(path) and hash(config) == hash(load_config(path))
    assert config == CASES["ToolConfig-symbols"][0]()
    assert config != ToolConfig() and config.registry != DEFAULT_REGISTRY
    assert pickle.loads(pickle.dumps(config)) == config
