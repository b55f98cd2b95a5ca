from __future__ import annotations

import json
import re

import pytest

from cpskg.om.tree import Symbol
from cpskg.rdf import RDF, XSD, InvalidIriError
from cpskg.vocab import DEFAULT_CD_BASE, DEFAULT_NAMESPACES, ConfigError, CpsVocabulary, ToolConfig, load_config
from conftest import REPO


@pytest.mark.parametrize(
    "data, key",
    [
        ({"namespaces": []}, "namespaces"),
        ({"symbols": 5}, "symbols"),
        ({"symbols": [{"cd": 1, "name": "x"}]}, "symbols"),
        ({"strict": "false"}, "strict"),
        ({"cdBase": 5}, "cdBase"),
        ({"cdBase": "not an iri"}, "cdBase"),
        ({"namespaces": {"om": "not an iri"}}, "namespaces"),
    ],
    ids=["namespaces_list", "symbols_number", "symbol_cd_number", "strict_string", "cdBase_number", "cdBase_relative", "namespace_relative"],
)
def test_malformed_config_value_names_its_key(tmp_path, data, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"'{key}'"):
        load_config(path)


def test_config_doc_example_is_in_sync(tmp_path):
    """Every key the example in docs/namespaces.md shows is read and takes effect."""
    doc = (REPO / "docs" / "namespaces.md").read_text(encoding="utf-8")
    example = json.loads(re.search(r"## Configuration file\s+```json\n(.*?)```", doc, re.S).group(1))
    assert set(example) == {"namespaces", "cdBase", "strict", "symbols"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(example), encoding="utf-8")
    cfg = load_config(path)
    default = ToolConfig()

    for prefix, iri in example["namespaces"].items():
        assert getattr(cfg.vocab, prefix).base == iri != getattr(default.vocab, prefix).base
    assert cfg.vocab.cd_base == example["cdBase"] != default.vocab.cd_base
    assert cfg.strict is example["strict"] is not default.strict
    for entry in example["symbols"]:
        assert set(entry) <= {"cd", "name", "token"}
        assert default.registry.function_symbol(entry["token"]) is None
        assert cfg.registry.function_symbol(entry["token"]) == Symbol(entry["cd"], entry["name"])


def test_prefixes_come_from_the_vocabulary():
    vocab = CpsVocabulary.from_mapping({"om": "http://my.org/om#"})
    prefixes = vocab.prefixes()
    assert list(prefixes) == ["rdf", "xsd", *DEFAULT_NAMESPACES]
    assert (prefixes["rdf"], prefixes["xsd"], prefixes["om"]) == (RDF.base, XSD.base, "http://my.org/om#")
    for base in ("http://example.org/m", "http://example.org/m/"):
        assert vocab.prefixes(base) == {**prefixes, "ex": "http://example.org/m/"}


def test_cd_base_drops_a_trailing_slash():
    assert CpsVocabulary.from_mapping({}, DEFAULT_CD_BASE + "/").cd_base == DEFAULT_CD_BASE


def test_cd_base_must_be_an_absolute_iri():
    """from_mapping is the one home of the rule, so a library caller hears of
    a bad CD base at once and not from a later om_to_rdf."""
    with pytest.raises(InvalidIriError, match=r"^IRI must be absolute: 'not an iri'$"):
        CpsVocabulary.from_mapping({}, "not an iri")
    with pytest.raises(InvalidIriError, match=r"^IRI contains forbidden characters: "):
        CpsVocabulary.from_mapping({}, "http://example.org/c d")


@pytest.mark.parametrize(
    "cd_base, message",
    [
        ("not an iri", "configuration key 'cdBase': IRI must be absolute: 'not an iri'"),
        ("", "configuration key 'cdBase': IRI must be absolute: ''"),
        ("http://example.org/c d", "configuration key 'cdBase': IRI contains forbidden characters: 'http://example.org/c d'"),
    ],
)
def test_config_cd_base_messages(tmp_path, cd_base, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"cdBase": cd_base}), encoding="utf-8")
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    assert str(excinfo.value) == message
