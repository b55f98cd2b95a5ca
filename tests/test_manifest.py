from __future__ import annotations

import copy
import json
import random
import sys
from collections import Counter
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cpskg.manifest
from cpskg.errors import CpskgError
from cpskg.evaluator import EvaluationError, load_bindings
from cpskg.infix import parse_infix
from cpskg.manifest import (
    MANIFEST_SCHEMA,
    CpsManifest,
    ManifestError,
    _MAX_NESTING,
    _accepts_manifest,
    _compile_schema,
    _report_manifest,
    compile_manifest,
    load_manifest,
    manifest_from_dict,
)
from cpskg.mapper import om_to_rdf
from cpskg.om.xmlio import parse_openmath_xml, serialize_openmath_xml
from cpskg.rdf import InvalidIriError, from_ntriples, to_ntriples
from cpskg.validator import validate
from cpskg.vocab import ConfigError, load_config
from conftest import FIXTURES, REPO, perfbench_inputs
from strategies import manifests


def minimal_manifest() -> dict:
    return {
        "instanceBase": "http://example.org/mini",
        "lifecycleRecord": {"id": "Record", "informationSets": ["ModelSet"]},
        "structure": {"id": "Plant", "level": "Component"},
        "processes": [
            {
                "id": "Main",
                "states": [
                    {
                        "id": "In",
                        "kind": "Information",
                        "dataElements": [{"id": "x_DE", "typeDescription": "input value", "variableName": "x"}],
                    },
                    {
                        "id": "Out",
                        "kind": "Information",
                        "dataElements": [{"id": "y_DE", "typeDescription": "output value", "variableName": "y"}],
                    },
                ],
                "operators": [
                    {
                        "id": "Doubler",
                        "assignedResource": "Plant",
                        "inputs": ["In"],
                        "outputs": ["Out"],
                        "equations": [{"id": "doubling", "infix": "y = 2*x"}],
                    }
                ],
            }
        ],
    }


def test_minimal_manifest_triple_sum():
    graph = compile_manifest(manifest_from_dict(minimal_manifest()))
    expected = (
        4  # lifecycle: record type, set type, containment, system-model type
        + 1  # structure: one component type
        + 5  # process type, operator type, membership, assignment, resource typing
        + 4  # two state types + hasInput + hasOutput
        + 8  # two data elements, four triples each
        + 22  # equation y = 2*x: 3A+2S+2V+2L = 20, plus 2 wrapper triples
        + 3  # behavior attachment: model type, operator link, hasOMObject
        + 2  # isDataFor for x and y
    )
    assert len(graph) == expected == 49


def test_minimal_manifest_passes_validation():
    graph = compile_manifest(manifest_from_dict(minimal_manifest()))
    assert validate(graph, strict=True).ok()


def test_compilation_is_deterministic():
    a = compile_manifest(manifest_from_dict(minimal_manifest()))
    b = compile_manifest(manifest_from_dict(minimal_manifest()))
    assert to_ntriples(a) == to_ntriples(b)


def test_schema_rejects_extra_property():
    data = minimal_manifest()
    data["bogus"] = 1
    with pytest.raises(ManifestError) as excinfo:
        manifest_from_dict(data)
    assert "$" in str(excinfo.value)


def test_schema_rejects_bad_level():
    # the level and state-kind decision tables live in the schema's enums
    bad_level = minimal_manifest()
    bad_level["structure"]["level"] = "Widget"
    bad_kind = minimal_manifest()
    bad_kind["processes"][0]["states"][0]["kind"] = "Material"
    for data, expected in [(bad_level, "$.structure.level"), (bad_kind, "$.processes[0].states[0].kind")]:
        with pytest.raises(ManifestError) as excinfo:
            manifest_from_dict(data)
        assert [path for path, _ in excinfo.value.problems] == [expected]
        assert "is not one of" in str(excinfo.value)


def test_unresolved_resource_reference_names_path():
    data = minimal_manifest()
    data["processes"][0]["operators"][0]["assignedResource"] = "Ghost"
    with pytest.raises(ManifestError) as excinfo:
        manifest_from_dict(data)
    assert "$.processes[0].operators[0].assignedResource" in str(excinfo.value)


def test_unresolved_state_reference_names_path():
    for field in ("inputs", "outputs"):
        data = minimal_manifest()
        data["processes"][0]["operators"][0][field] = ["Nowhere"]
        with pytest.raises(ManifestError) as excinfo:
            manifest_from_dict(data)
        assert excinfo.value.problems == [(f"$.processes[0].operators[0].{field}[0]", "unknown state 'Nowhere'")]


def test_duplicate_id_reported():
    state = minimal_manifest()
    state["processes"][0]["states"][1]["id"] = "In"
    information_set = minimal_manifest()
    information_set["lifecycleRecord"]["informationSets"] = ["Record"]
    structure_node = minimal_manifest()
    structure_node["structure"] = {"id": "Plant", "level": "Module", "children": [{"id": "Plant", "level": "Component"}]}
    operator = minimal_manifest()
    operator["processes"][0]["operators"][0]["id"] = "Plant"
    for data, problem in [
        (state, ("$.processes[0].states[1].id", "id 'In' already declared at $.processes[0].states[0].id")),
        (information_set, ("$.lifecycleRecord.informationSets[0]", "id 'Record' already declared at $.lifecycleRecord.id")),
        (structure_node, ("$.structure.children[0].id", "id 'Plant' already declared at $.structure.id")),
        (operator, ("$.processes[0].operators[0].id", "id 'Plant' already declared at $.structure.id")),
    ]:
        with pytest.raises(ManifestError) as excinfo:
            manifest_from_dict(data)
        assert problem in excinfo.value.problems


def test_level_inversion_reported_with_path():
    data = minimal_manifest()
    data["structure"] = {
        "id": "Plant",
        "level": "Component",
        "children": [{"id": "Sub", "level": "Module"}],
    }
    with pytest.raises(ManifestError) as excinfo:
        manifest_from_dict(data)
    assert "$.structure.children[0].level" in str(excinfo.value)


def test_undeclared_equation_variable_names_path():
    data = minimal_manifest()
    data["processes"][0]["operators"][0]["equations"][0]["infix"] = "y = 2*x + q"
    with pytest.raises(ManifestError) as excinfo:
        compile_manifest(manifest_from_dict(data))
    message = str(excinfo.value)
    assert "$.processes[0].operators[0].equations[0]" in message
    assert "'q'" in message


def test_equation_problems_are_aggregated():
    data = minimal_manifest()
    data["processes"][0]["operators"][0]["equations"] = [
        {"id": "bad_syntax", "infix": "y = 2*"},
        {"id": "bad_variable", "infix": "y = q"},
    ]
    with pytest.raises(ManifestError) as excinfo:
        compile_manifest(manifest_from_dict(data))
    assert len(excinfo.value.problems) == 2


def test_mapping_problem_reported_at_its_equation(tmp_path):
    """A symbol the XML reader accepts but no IRI can hold fails in the
    mapping, and is reported like any other equation problem."""
    plus = '<OMA><OMS cd="arith 1" name="plus"/><OMV name="x"/><OMV name="x"/></OMA>'
    xml = f'<OMOBJ xmlns="http://www.openmath.org/OpenMath"><OMA><OMS cd="relation1" name="eq"/><OMV name="y"/>{plus}</OMA></OMOBJ>'
    (tmp_path / "spaced.om.xml").write_text(xml, encoding="utf-8")
    data = minimal_manifest()
    data["processes"][0]["operators"][0]["equations"] = [
        {"id": "spaced_cd", "xmlPath": "spaced.om.xml"},
        {"id": "bad_variable", "infix": "y = q"},
    ]
    with pytest.raises(ManifestError) as excinfo:
        compile_manifest(manifest_from_dict(data, base_dir=tmp_path))
    assert excinfo.value.problems == [
        ("$.processes[0].operators[0].equations[0]", "IRI contains forbidden characters: 'http://www.openmath.org/cd/arith 1#plus'"),
        ("$.processes[0].operators[0].equations[1]", "variable 'q' is not declared by any data element in scope"),
    ]


def test_missing_equation_file_reported():
    data = minimal_manifest()
    data["processes"][0]["operators"][0]["equations"] = [{"id": "ext", "xmlPath": "missing.om.xml"}]
    with pytest.raises(ManifestError) as excinfo:
        manifest_from_dict(data, base_dir=Path("/nonexistent"))
    assert "file not found" in str(excinfo.value)


def test_equation_file_name_with_a_nul_byte_reported():
    """Without ``base_dir`` the manifest check opens no file, so the NUL byte
    shows when compiling reads the equation."""
    data = minimal_manifest()
    data["processes"][0]["operators"][0]["equations"] = [{"id": "ext", "xmlPath": "a\x00b.xml"}]
    with pytest.raises(ManifestError) as excinfo:
        compile_manifest(manifest_from_dict(data))
    assert excinfo.value.problems == [("$.processes[0].operators[0].equations[0]", "cannot read equation file: embedded null byte")]


def test_observation_feature_must_resolve():
    data = minimal_manifest()
    data["observations"] = [{"feature": "Ghost", "value": 1.0, "timestamp": "2024-01-01T00:00:00Z"}]
    with pytest.raises(ManifestError) as excinfo:
        manifest_from_dict(data)
    assert "$.observations[0].feature" in str(excinfo.value)


_BAD_TIMESTAMPS = {
    "2024-13-40T99:00:00Z": "not a valid timestamp",
    "yesterday": "not an xsd:dateTime value",
    # XSD 1.1 Part 2, 3.3.7: an offset is Z or at most 14:00 either way
    "2024-01-01T00:00:00+15:00": "not an xsd:dateTime value",
    "2024-01-01T00:00:00+14:01": "not an xsd:dateTime value",
    "2024-01-01T00:00:00-23:59": "not an xsd:dateTime value",
}


@pytest.mark.parametrize("timestamp", list(_BAD_TIMESTAMPS))
def test_observation_timestamp_problem_names_its_path(timestamp):
    message = _BAD_TIMESTAMPS[timestamp]
    data = minimal_manifest()
    data["observations"] = [{"feature": "Plant", "value": 1.0, "timestamp": timestamp}]
    with pytest.raises(ManifestError) as excinfo:
        manifest_from_dict(data)
    assert excinfo.value.problems == [("$.observations[0].timestamp", f"{message}: {timestamp!r}")]


@pytest.mark.parametrize("offset", ["+14:00", "-14:00", "+13:59", "-00:00"])
def test_observation_timestamp_offset_up_to_14_hours_is_accepted(offset):
    data = minimal_manifest()
    data["observations"] = [{"feature": "Plant", "value": 1.0, "timestamp": f"2024-01-01T00:00:00{offset}"}]
    graph = compile_manifest(manifest_from_dict(data))
    assert f'"2024-01-01T00:00:00{offset}"^^<http://www.w3.org/2001/XMLSchema#dateTime>' in to_ntriples(graph)


@pytest.mark.parametrize("fraction", [".1", ".1234567", ".123456789"], ids=["1-digit", "7-digit", "9-digit"])
def test_observation_timestamp_fraction_may_have_any_length(fraction):
    # Python 3.10's fromisoformat reads only 3- or 6-digit fractions.
    data = minimal_manifest()
    data["observations"] = [
        {"feature": "Plant", "value": 1.0, "timestamp": f"2024-01-01T00:00:00{fraction}Z"},
        {"feature": "Plant", "value": 1.0, "timestamp": f"2024-02-30T00:00:00{fraction}+01:00"},
    ]
    with pytest.raises(ManifestError) as excinfo:
        manifest_from_dict(data)
    assert excinfo.value.problems == [
        ("$.observations[1].timestamp", f"not a valid timestamp: '2024-02-30T00:00:00{fraction}+01:00'")
    ]
    del data["observations"][1]
    assert manifest_from_dict(data).data["observations"][0]["timestamp"] == f"2024-01-01T00:00:00{fraction}Z"


def test_observation_timestamp_ending_in_a_newline_is_not_an_xsd_datetime():
    # Python's "$" also matches before a final newline
    data = minimal_manifest()
    data["observations"] = [{"feature": "Plant", "value": 1.0, "timestamp": "2024-01-01T00:00:00Z\n"}]
    with pytest.raises(ManifestError) as excinfo:
        manifest_from_dict(data)
    assert excinfo.value.problems == [("$.observations[0].timestamp", "not an xsd:dateTime value: '2024-01-01T00:00:00Z\\n'")]


@pytest.mark.parametrize(
    "text, message",
    [
        ("1e400", "not a finite xsd:double value: inf"),
        ("NaN", "not a finite xsd:double value: nan"),
        ("-Infinity", "not a finite xsd:double value: -inf"),
        ("9" * 400, "integer too large for an xsd:double value"),
    ],
    ids=["1e400", "NaN", "-Infinity", "400-digit-integer"],
)
def test_observation_value_must_be_a_finite_double(text, message):
    # Python's json reads all four; none is an xsd:double value.
    data = minimal_manifest()
    data["observations"] = [{"feature": "Plant", "value": json.loads(text), "timestamp": "2024-01-01T00:00:00Z"}]
    with pytest.raises(ManifestError) as excinfo:
        manifest_from_dict(data)
    assert excinfo.value.problems == [("$.observations[0].value", message)]


def test_blank_type_description_problem_names_its_path():
    data = minimal_manifest()
    data["processes"][0]["states"][0]["dataElements"][0]["typeDescription"] = " \t "
    with pytest.raises(ManifestError) as excinfo:
        manifest_from_dict(data)
    assert [path for path, _ in excinfo.value.problems] == ["$.processes[0].states[0].dataElements[0].typeDescription"]


def test_instance_description_without_slug_character_names_its_path():
    # "  " and "!!" both slugify to "x", so they would be one instance node.
    data = minimal_manifest()
    data["processes"][0]["states"][0]["dataElements"][0]["instanceDescriptions"] = ["first", "  ", "!!"]
    with pytest.raises(ManifestError) as excinfo:
        manifest_from_dict(data)
    path = "$.processes[0].states[0].dataElements[0].instanceDescriptions"
    assert [path for path, _ in excinfo.value.problems] == [f"{path}[1]", f"{path}[2]"]


@pytest.mark.parametrize(
    "path, json_path",
    [
        (["lifecycleRecord", "id"], "$.lifecycleRecord.id"),
        (["instanceBase"], "$.instanceBase"),
        (["processes", 0, "states", 0, "dataElements", 0, "variableName"], "$.processes[0].states[0].dataElements[0].variableName"),
    ],
    ids=["id", "instanceBase", "variableName"],
)
def test_name_ending_in_a_newline_names_its_path(path, json_path):
    # Python's "$" also matches before a final newline; the schema's patterns must not.
    data = minimal_manifest()
    _node(data, path[:-1])[path[-1]] += "\n"
    with pytest.raises(ManifestError) as excinfo:
        manifest_from_dict(data)
    assert [path for path, _ in excinfo.value.problems] == [json_path]


@pytest.mark.parametrize("base", ["http://example.org/a b", "http://example.org/<m>", "example.org/m"])
def test_instance_base_that_cannot_prefix_an_iri_names_its_path(base):
    data = minimal_manifest()
    data["instanceBase"] = base
    with pytest.raises(ManifestError) as excinfo:
        manifest_from_dict(data)
    assert [path for path, _ in excinfo.value.problems] == ["$.instanceBase"]


def test_equation_requires_exactly_one_source():
    data = minimal_manifest()
    data["processes"][0]["operators"][0]["equations"] = [{"id": "e", "infix": "y = x", "xmlPath": "a.xml"}]
    with pytest.raises(ManifestError):
        manifest_from_dict(data)


def test_load_manifest_rejects_bad_json(tmp_path):
    bad = tmp_path / "m.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ManifestError):
        load_manifest(bad)


@pytest.mark.parametrize(
    "load, error, message",
    [
        (load_manifest, ManifestError, "manifest invalid:\n  $: invalid JSON: "),
        (load_config, ConfigError, "invalid JSON in configuration file: "),
        (load_bindings, EvaluationError, "invalid JSON in bindings file: "),
    ],
)
def test_json_nested_too_deep_to_read_is_the_readers_own_error(tmp_path, load, error, message):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    with pytest.raises(error) as excinfo:
        load(path)
    assert str(excinfo.value).startswith(message)


def _structure_chain(nodes: int) -> dict:
    """The minimal manifest with a structure of ``nodes`` nested nodes, each
    the only child of the one before: the last node's object sits 2 * nodes
    levels deep."""
    data = minimal_manifest()
    node = data["structure"]
    for i in range(1, nodes):
        node["children"] = [{"id": f"Part{i}", "level": "Component"}]
        node = node["children"][0]
    return data


def _children_path(levels: int) -> str:
    return "$.structure" + ".children[0]" * levels


def test_a_structure_100_nodes_deep_builds():
    data = _structure_chain(100)
    text = to_ntriples(compile_manifest(manifest_from_dict(data)))
    assert text == to_ntriples(compile_manifest(CpsManifest(data)))
    assert text.count("consistsOf> <http://example.org/mini/Part") == 99


def test_a_manifest_at_the_nesting_limit_is_checked_and_builds():
    data = _structure_chain(_MAX_NESTING // 2)
    assert validate(compile_manifest(manifest_from_dict(data)), strict=True).ok()
    # the schema's reporter reaches a problem at the deepest level
    data = _structure_chain(_MAX_NESTING // 2)
    node = data["structure"]
    while "children" in node:
        node = node["children"][0]
    node["level"] = 7
    with pytest.raises(ManifestError) as excinfo:
        manifest_from_dict(data)
    assert excinfo.value.problems == [(f"{_children_path(_MAX_NESTING // 2 - 1)}.level", "7 is not one of ['MechatronicSystem', 'Module', 'Component']")]


def _frames_left() -> int:
    """How many more nested calls the recursion limit allows here."""
    frames = 0

    def down() -> None:
        nonlocal frames
        frames += 1
        down()

    try:
        down()
    except RecursionError:
        pass
    return frames


def test_a_manifest_at_the_nesting_limit_needs_five_frames_a_structure_node():
    """The schema check calls the acceptor of ``children``' items directly,
    with no forwarding frame for the recursive reference, so checking,
    reporting on and building a chain at the nesting limit fits in five
    frames a structure node (six before) plus a few for the calls."""
    nodes = _MAX_NESTING // 2
    data, bad = _structure_chain(nodes), _structure_chain(nodes)
    node = bad["structure"]
    while "children" in node:
        node = node["children"][0]
    node["level"] = 7
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit - _frames_left() + 5 * nodes + 10)
    try:
        graph = compile_manifest(manifest_from_dict(data))
        with pytest.raises(ManifestError) as excinfo:
            manifest_from_dict(bad)
    finally:
        sys.setrecursionlimit(limit)
    assert len(graph) == len(compile_manifest(CpsManifest(data)))
    assert excinfo.value.problems == [(f"{_children_path(nodes - 1)}.level", "7 is not one of ['MechatronicSystem', 'Module', 'Component']")]


@pytest.mark.parametrize("nodes", [_MAX_NESTING // 2 + 1, 5_000])
def test_a_manifest_nested_past_the_limit_names_its_first_path_too_deep(nodes):
    # the children array of the node at level 256 is the first value at level 257
    with pytest.raises(ManifestError) as excinfo:
        manifest_from_dict(_structure_chain(nodes))
    assert excinfo.value.problems == [(f"{_children_path(_MAX_NESTING // 2 - 1)}.children", "nested deeper than 256 levels of arrays and objects")]


def test_a_manifest_that_contains_itself_is_too_deep():
    data = minimal_manifest()
    data["processes"][0]["states"] = [data, data]
    with pytest.raises(ManifestError) as excinfo:
        manifest_from_dict(data)
    ((path, message),) = excinfo.value.problems
    assert path == "$" + ".processes[0].states[0]" * 64  # four levels each
    assert message == "nested deeper than 256 levels of arrays and objects"


def test_ehsa_manifest_loads_and_compiles(ehsa_graph):
    assert len(ehsa_graph) > 300


def test_manifest_built_by_its_constructor_compiles_to_golden(ehsa_manifest, golden_text):
    rebuilt = CpsManifest(json.loads((FIXTURES / "manifest.json").read_text(encoding="utf-8")), ehsa_manifest.base_dir)
    assert to_ntriples(compile_manifest(rebuilt)) == golden_text


def test_registry_closure_on_ehsa_equations(ehsa_manifest):
    """Every symbol used by the shipped model resolves in the registry."""
    from cpskg.infix import parse_infix
    from cpskg.om.registry import DEFAULT_REGISTRY
    from cpskg.om.tree import Symbol
    from cpskg.om.xmlio import parse_openmath_xml
    from strategies import walk

    for proc in ehsa_manifest.data["processes"]:
        for op in proc["operators"]:
            for eq in op.get("equations", ()):
                if "infix" in eq:
                    tree = parse_infix(eq["infix"])
                else:
                    tree = parse_openmath_xml((ehsa_manifest.base_dir / eq["xmlPath"]).read_bytes())
                for symbol in {node for node in walk(tree) if isinstance(node, Symbol)}:
                    assert (symbol.cd, symbol.name) in DEFAULT_REGISTRY, symbol


def test_referential_closure_of_variable_links(ehsa_graph):
    """No isDataFor target lacks a DataElement typing."""
    from cpskg.rdf import RDF, PatternQuery, Var, match
    from cpskg.vocab import DEFAULT_VOCAB

    v = DEFAULT_VOCAB
    linked = match(ehsa_graph, PatternQuery.of((Var("v"), v.cpsmod.isDataFor, Var("d"))))
    assert linked
    for row in linked:
        assert v.dinen61360.DataElement in ehsa_graph.objects(row["d"], RDF.type)


def test_one_variable_node_per_name_per_fragment(ehsa_graph):
    from collections import Counter

    from cpskg.rdf import RDF
    from cpskg.vocab import DEFAULT_VOCAB

    v = DEFAULT_VOCAB
    per_fragment: dict[str, Counter] = {}
    for node in ehsa_graph.subjects(RDF.type, v.om.Variable):
        fragment = node.value.rsplit("/n", 1)[0]
        for name in ehsa_graph.objects(node, v.om.name):
            per_fragment.setdefault(fragment, Counter())[name.lexical] += 1
    assert per_fragment
    for fragment, counts in per_fragment.items():
        assert all(count == 1 for count in counts.values()), (fragment, counts)


def test_schema_doc_is_in_sync():
    published = json.loads((REPO / "docs" / "manifest.schema.json").read_text(encoding="utf-8"))
    assert published == MANIFEST_SCHEMA


# --- the check's schema and the published one report the same errors ----------

_BAD_VALUES = [None, True, 0, -1, 1.5, "", " ", "!!", "x y", "9lives", "Component", "Energy", [], ["x"], {}, {"id": "x"}]


def _sites(schema: dict, instance, path: list, owner: str):
    """Every node of ``instance`` with its path and the ``$defs`` entry that
    governs it ("$" above the first reference)."""
    ref = schema.get("$ref")
    if ref is not None:
        owner = ref.rsplit("/", 1)[1]
        schema = MANIFEST_SCHEMA["$defs"][owner]
    yield path, owner
    if isinstance(instance, dict):
        for key, value in instance.items():
            if key in schema.get("properties", {}):
                yield from _sites(schema["properties"][key], value, path + [key], owner)
    elif isinstance(instance, list):
        for i, value in enumerate(instance):
            yield from _sites(schema.get("items", {}), value, path + [i], owner)


def _mutate(data: dict, rng: random.Random) -> set[str]:
    """Apply one to three seeded edits to ``data`` in place; the ``$defs``
    entries of the edited nodes."""
    owners = set()
    for _ in range(rng.randint(1, 3)):
        sites = [site for site in _sites(MANIFEST_SCHEMA, data, [], "$") if site[0]]
        path, owner = rng.choice(sites)
        owners.add(owner)
        *parent_path, key = path
        parent = data
        for step in parent_path:
            parent = parent[step]
        node = parent[key]
        edit = rng.choice(["replace", "replace", "drop", "extra", "grow"])
        if edit == "drop" and isinstance(node, dict) and node:
            del node[rng.choice(sorted(node))]
        elif edit == "extra" and isinstance(node, dict):
            node[rng.choice(["extra", "infix", "xmlPath", "children"])] = copy.deepcopy(rng.choice(_BAD_VALUES))
        elif edit == "grow" and isinstance(node, list):
            node.append(copy.deepcopy(rng.choice(node + _BAD_VALUES)))
        elif edit == "drop" and isinstance(parent, dict):
            del parent[key]
        else:
            parent[key] = copy.deepcopy(rng.choice(_BAD_VALUES))
    return owners


def test_schema_check_reports_what_the_published_schema_reports():
    """On seeded mutants of the EHSA manifest, the ``ManifestError`` of a
    rejected one holds the ordered (path, message) list that jsonschema
    reports for the published schema."""
    reference = jsonschema.Draft202012Validator(MANIFEST_SCHEMA)
    ehsa = json.loads((REPO / "fixtures" / "ehsa" / "manifest.json").read_text(encoding="utf-8"))
    rng = random.Random(20131)
    owners: set[str] = set()
    invalid = 0
    for _ in range(400):
        data = copy.deepcopy(ehsa)
        owners |= _mutate(data, rng)
        expected = _report(reference, data)
        if not expected:
            continue
        invalid += 1
        with pytest.raises(ManifestError) as info:
            manifest_from_dict(data)
        assert info.value.problems == expected
    assert owners >= set(MANIFEST_SCHEMA["$defs"])
    assert invalid >= 300


# --- the acceptor compiled from the schema agrees with jsonschema ------------

_EHSA = json.loads((REPO / "fixtures" / "ehsa" / "manifest.json").read_text(encoding="utf-8"))


def _property_names(schema) -> set[str]:
    if isinstance(schema, dict):
        names = set(schema.get("properties", {}))
        return names.union(*map(_property_names, schema.values()))
    if isinstance(schema, list):
        return set().union(*map(_property_names, schema))
    return set()


def _node(data, path: list):
    for step in path:
        data = data[step]
    return data


def _role(path: list) -> tuple:
    """The last two steps of ``path``, any index standing for every index."""
    return tuple(step if isinstance(step, str) else "[]" for step in path[-2:])


def _by_role(manifest: dict) -> tuple[dict[tuple, list], dict[tuple, list]]:
    """The paths and the values of ``manifest`` by role. The paths are its
    schema paths, plus each property an object lacks that another object in
    its role has."""
    paths: dict[tuple, list] = {}
    values: dict[tuple, list] = {}
    keys: dict[tuple, set] = {}
    sites = [path for path, _ in _sites(MANIFEST_SCHEMA, manifest, [], "$")]
    for path in sites:
        node = _node(manifest, path)
        paths.setdefault(_role(path), []).append(path)
        values.setdefault(_role(path), []).append(node)
        if isinstance(node, dict):
            keys.setdefault(_role(path), set()).update(node)
    for path in sites:
        node = _node(manifest, path)
        if isinstance(node, dict):
            for key in sorted(keys[_role(path)] - node.keys()):
                paths.setdefault(_role(path + [key]), []).append(path + [key])
    return paths, values


_PATHS_BY_ROLE, _VALUES_BY_ROLE = _by_role(_EHSA)
_EDGE_VALUES = [
    *_BAD_VALUES,
    False, 1, 1.0, float("nan"), " a", "a ", "_x", "a.b-c", "x:", [" "], ["x", []], {"id": "x", "level": "Module"},
]
# Any JSON value Python's json reads, with the schema's property names as keys.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | st.sampled_from(_EDGE_VALUES),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4) | st.sampled_from(sorted(_property_names(MANIFEST_SCHEMA))), children, max_size=3),
    max_leaves=6,
)


def _put(manifest: dict, path: list, value):
    """A copy of ``manifest`` with ``value`` at ``path``."""
    if not path:
        return value
    data = copy.deepcopy(manifest)
    _node(data, path[:-1])[path[-1]] = value
    return data


def _edits() -> st.SearchStrategy:
    """A path of the EHSA manifest, drawn role first, and a value to put
    there: any JSON value, or one the manifest has in that role, which is
    often valid."""
    return st.sampled_from(sorted(_PATHS_BY_ROLE)).flatmap(
        lambda role: st.tuples(
            st.sampled_from(_PATHS_BY_ROLE[role]),
            st.sampled_from(_VALUES_BY_ROLE.get(role, [])) | _JSON_VALUES,
        )
    )


def _report(reference, data) -> list[tuple[str, str]]:
    """jsonschema's (path, message) list for ``data``, sorted by path."""
    return [(e.json_path, e.message) for e in sorted(reference.iter_errors(data), key=lambda e: e.json_path)]


def _reported(data) -> list[tuple[str, str]]:
    """The compiled reporter's list for ``data``, if the acceptor rejects it."""
    return [] if _accepts_manifest(data) else sorted(_report_manifest(data, "$"), key=lambda problem: problem[0])


def test_acceptor_agrees_with_jsonschema_on_seeded_mutants():
    reference = jsonschema.Draft202012Validator(MANIFEST_SCHEMA)
    rng = random.Random(20131)
    verdicts = {True: 0, False: 0}
    for _ in range(400):
        data = copy.deepcopy(_EHSA)
        _mutate(data, rng)
        expected = _report(reference, data)
        valid = not expected
        assert _accepts_manifest(data) is valid, data
        assert _reported(data) == expected
        verdicts[valid] += 1
    assert verdicts[True] >= 20 and verdicts[False] >= 300


def test_acceptor_agrees_with_jsonschema_on_edge_values_in_every_role():
    reference = jsonschema.Draft202012Validator(MANIFEST_SCHEMA)
    verdicts = {True: 0, False: 0}
    for role, paths in _PATHS_BY_ROLE.items():
        for value in _EDGE_VALUES + _VALUES_BY_ROLE.get(role, [])[:2]:
            data = _put(_EHSA, paths[0], value)
            expected = _report(reference, data)
            valid = not expected
            assert _accepts_manifest(data) is valid, (paths[0], value)
            assert _reported(data) == expected, (paths[0], value)
            verdicts[valid] += 1
    assert verdicts[True] >= 100 and verdicts[False] >= 500
    for document in ([], "x", 1, None, {}):
        assert _reported(document) == _report(reference, document) != []


@settings(max_examples=400, deadline=None)
@given(_edits())
def test_acceptor_agrees_with_jsonschema_at_every_schema_path(edit):
    reference = jsonschema.Draft202012Validator(MANIFEST_SCHEMA)
    data = _put(_EHSA, *edit)
    expected = _report(reference, data)
    assert _accepts_manifest(data) is (not expected)
    assert _reported(data) == expected


def test_acceptor_keeps_the_2020_12_meanings():
    accepts, report = _compile_schema({"properties": {"n": {"type": "number"}, "s": {"pattern": "b", "minLength": 2}}})
    assert accepts({"n": 1}) and accepts({"n": 1.0}) and accepts({"n": float("nan")})
    assert not accepts({"n": True}) and not accepts({"n": "1"})
    assert accepts({"s": "abc"}) and not accepts({"s": "b"}) and not accepts({"s": "ac"})
    assert accepts({"s": 7}) and accepts({"s": None}) and accepts([1]) and accepts("b")
    assert list(report({"n": True, "s": "a"}, "$")) == [
        ("$.n", "True is not of type 'number'"),
        ("$.s", "'a' does not match 'b'"),
        ("$.s", "'a' is too short"),
    ]
    one_of, report = _compile_schema({"oneOf": [{"required": ["a"]}, {"required": ["b"]}]})
    assert one_of({"a": 1}) and one_of({"b": 2})
    assert not one_of({"a": 1, "b": 2}) and not one_of({}) and not one_of([])  # [] meets both branches
    assert list(report([], "$")) == [("$", "[] is valid under each of {'required': ['b']}, {'required': ['a']}")]
    assert list(report({}, "$")) == [("$", "{} is not valid under any of the given schemas")]


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "object", "maxProperties": 3},
        {"properties": {"n": {"type": "integer"}}},
        {"type": ["string", "number"]},
        {"items": {"$ref": "#/$defs/missing"}},
        {"$ref": "other.json#/$defs/id"},
        {"enum": ["one", 1]},
        {"additionalProperties": {"type": "string"}},
        {"items": True},
        {"properties": {"a b": {"type": "string"}}},
        {"$defs": {"node": {"properties": {"next": {"$ref": "#/$defs/node"}}}}, "$ref": "#/$defs/node"},
    ],
    ids=[
        "keyword", "type-name", "type-list", "missing-def", "remote-ref", "non-string-enum", "schema-additional", "boolean-schema",
        "bracketed-path-name", "recursive-ref-outside-items",
    ],
)
def test_acceptor_refuses_to_compile_what_it_does_not_know(schema):
    with pytest.raises(ValueError, match="cannot compile"):
        _compile_schema(schema)


def test_reference_problems_keep_their_order_across_sections(tmp_path):
    """One manifest breaks each reference rule once. The check reports the
    lifecycle record, then the structure (each node's id, level, data
    elements, children), then each process (states before operators, inputs
    before outputs), then the observations, whatever the JSON key order."""
    data = {
        "instanceBase": "http://example.org/broken",
        "lifecycleRecord": {"id": "Record", "informationSets": ["Set", "Record"]},
        "structure": {
            "id": "Plant",
            "level": "Module",
            "children": [
                {"id": "Pump", "level": "Component", "children": [{"id": "Valve", "level": "Module"}]},
                {"id": "Pump", "level": "Component", "dataElements": [{"id": "p_DE", "typeDescription": "pressure"}]},
            ],
            "dataElements": [{"id": "Set", "typeDescription": "size"}],
        },
        "processes": [
            {
                "id": "Main",
                "operators": [
                    {
                        "id": "Run",
                        "equations": [{"id": "e1", "infix": "y = x"}, {"id": "e1", "xmlPath": "missing.om.xml"}],
                        "outputs": ["Gone"],
                        "inputs": ["In", "Nowhere"],
                        "assignedResource": "Ghost",
                    },
                    {"id": "Plant", "assignedResource": "Pump"},
                ],
                "states": [
                    {"id": "In", "kind": "Energy", "dataElements": [{"id": "p_DE", "typeDescription": "copy"}]},
                    {"id": "In", "kind": "Energy"},
                ],
            },
            {
                "id": "Main",
                "operators": [
                    {"id": "Stop", "assignedResource": "Valve", "inputs": ["In"], "equations": [{"id": "e1", "infix": "y = 1"}]},
                ],
            },
        ],
        "observations": [
            {"feature": "Ghost", "value": 10**400, "timestamp": "yesterday"},
            {"feature": "p_DE", "value": float("inf"), "timestamp": "2024-02-30T00:00:00Z"},
        ],
    }
    with pytest.raises(ManifestError) as excinfo:
        manifest_from_dict(data, base_dir=tmp_path)
    assert excinfo.value.problems == [
        ("$.lifecycleRecord.informationSets[1]", "id 'Record' already declared at $.lifecycleRecord.id"),
        ("$.structure.dataElements[0].id", "id 'Set' already declared at $.lifecycleRecord.informationSets[0]"),
        ("$.structure.children[0].children[0].level", "Module cannot be nested inside a lower level"),
        ("$.structure.children[1].id", "id 'Pump' already declared at $.structure.children[0].id"),
        (
            "$.processes[0].states[0].dataElements[0].id",
            "id 'p_DE' already declared at $.structure.children[1].dataElements[0].id",
        ),
        ("$.processes[0].states[1].id", "id 'In' already declared at $.processes[0].states[0].id"),
        ("$.processes[0].operators[0].assignedResource", "unknown structure node 'Ghost'"),
        ("$.processes[0].operators[0].inputs[1]", "unknown state 'Nowhere'"),
        ("$.processes[0].operators[0].outputs[0]", "unknown state 'Gone'"),
        (
            "$.processes[0].operators[0].equations[1].id",
            "equation id 'e1' already declared at $.processes[0].operators[0].equations[0].id",
        ),
        ("$.processes[0].operators[0].equations[1].xmlPath", "file not found: 'missing.om.xml'"),
        ("$.processes[0].operators[1].id", "id 'Plant' already declared at $.structure.id"),
        ("$.processes[1].id", "id 'Main' already declared at $.processes[0].id"),
        ("$.processes[1].operators[0].inputs[0]", "unknown state 'In'"),
        (
            "$.processes[1].operators[0].equations[0].id",
            "equation id 'e1' already declared at $.processes[0].operators[0].equations[0].id",
        ),
        ("$.observations[0].feature", "unknown instance id 'Ghost'"),
        ("$.observations[0].value", "integer too large for an xsd:double value"),
        ("$.observations[0].timestamp", "not an xsd:dateTime value: 'yesterday'"),
        ("$.observations[1].value", "not a finite xsd:double value: inf"),
        ("$.observations[1].timestamp", "not a valid timestamp: '2024-02-30T00:00:00Z'"),
    ]


def test_variable_declared_by_a_resource_and_a_state_is_reported():
    data = minimal_manifest()
    data["structure"]["dataElements"] = [{"id": "A", "typeDescription": "plant value", "variableName": "x"}]
    data["processes"][0]["states"][0]["dataElements"][0]["id"] = "B"
    manifest = manifest_from_dict(data)
    with pytest.raises(ManifestError) as excinfo:
        compile_manifest(manifest)
    assert excinfo.value.problems == [("$.processes[0].operators[0]", "variable 'x' is declared by both 'A' and 'B'")]


def test_state_that_is_both_input_and_output_declares_its_variables_once():
    data = minimal_manifest()
    data["processes"][0]["operators"][0]["outputs"] = ["In", "Out"]
    graph = compile_manifest(manifest_from_dict(data))
    assert validate(graph, strict=True).ok()


# --- the builder checks each node IRI that a constructed manifest names ------


def test_constructed_manifest_with_an_operator_id_that_is_no_iri_segment_is_rejected():
    # manifest_from_dict rejects the id "a b"; a manifest built by its
    # constructor reaches the builder, which must still check the IRI.
    data = minimal_manifest()
    data["processes"][0]["operators"][0]["id"] = "a b"
    with pytest.raises(InvalidIriError) as excinfo:
        compile_manifest(CpsManifest(data))
    assert str(excinfo.value) == "IRI contains forbidden characters: 'http://example.org/mini/a b'"


def test_constructed_manifest_with_a_relative_instance_base_fails_at_its_first_iri():
    data = minimal_manifest()
    data["instanceBase"] = "example.org/mini"
    with pytest.raises(InvalidIriError) as excinfo:
        compile_manifest(CpsManifest(data))
    assert str(excinfo.value) == "IRI must be absolute: 'example.org/mini/Record'"


# --- one description text per node slug ---------------------------------------


def test_type_descriptions_that_give_one_slug_are_reported_at_the_later_path():
    # "Pressure rate" and "pressure-rate" both give node/type/pressure_rate.
    data = minimal_manifest()
    data["structure"]["dataElements"] = [{"id": "P_DE", "typeDescription": "Pressure rate"}]
    data["processes"][0]["states"][1]["dataElements"][0]["typeDescription"] = "pressure-rate"
    with pytest.raises(ManifestError) as excinfo:
        manifest_from_dict(data)
    assert excinfo.value.problems == [(
        "$.processes[0].states[1].dataElements[0].typeDescription",
        "'pressure-rate' would be the node of 'Pressure rate' at $.structure.dataElements[0].typeDescription: "
        "both give the slug 'pressure_rate'",
    )]


def test_instance_descriptions_of_one_element_that_give_one_slug_are_reported():
    data = minimal_manifest()
    data["processes"][0]["states"][0]["dataElements"][0]["instanceDescriptions"] = ["unit m/s", "sampled", "unit m*s"]
    with pytest.raises(ManifestError) as excinfo:
        manifest_from_dict(data)
    path = "$.processes[0].states[0].dataElements[0].instanceDescriptions"
    assert excinfo.value.problems == [
        (f"{path}[2]", f"'unit m*s' would be the node of 'unit m/s' at {path}[0]: both give the slug 'unit_m_s'"),
    ]


def test_a_description_text_used_again_is_one_node_and_no_problem():
    data = minimal_manifest()
    elements = [state["dataElements"][0] for state in data["processes"][0]["states"]]
    for element in elements:
        element["typeDescription"] = "Pressure rate"
        element["instanceDescriptions"] = ["unit m/s", "unit m/s"]
    # instance nodes are per data element, so texts that slug alike on two elements are two nodes
    elements[1]["instanceDescriptions"] = ["unit m*s"]
    graph = compile_manifest(manifest_from_dict(data))
    assert to_ntriples(graph).count("/node/type/pressure_rate> .") == 2
    assert validate(graph, strict=True).ok()


# --- no node is minted by both the builder and an equation's mapping ------------


def _operator_expr_and_equation_model(operator_first: bool) -> dict:
    # operator "expr"'s behavior model and equation "model"'s wrapper are both {base}/expr/model
    data = minimal_manifest()
    operators = data["processes"][0]["operators"]
    operators.append({"id": "expr", "assignedResource": "Plant", "inputs": ["In"], "outputs": ["Out"]})
    operators[0 if operator_first else 1]["equations"] = [{"id": "model", "infix": "y = 2*x"}]
    return data


def test_an_equation_model_and_an_operator_expr_that_would_share_a_node_are_reported():
    with pytest.raises(ManifestError) as excinfo:
        manifest_from_dict(_operator_expr_and_equation_model(operator_first=False))
    assert excinfo.value.problems == [(
        "$.processes[0].operators[1].equations[0].id",
        "equation 'model' would share the node <http://example.org/mini/expr/model> with the behavior model of "
        "operator 'expr' at $.processes[0].operators[1].id",
    )]
    with pytest.raises(ManifestError) as excinfo:
        manifest_from_dict(_operator_expr_and_equation_model(operator_first=True))
    assert excinfo.value.problems == [(
        "$.processes[0].operators[1].id",
        "the behavior model of operator 'expr' would share the node <http://example.org/mini/expr/model> with "
        "equation 'model' at $.processes[0].operators[0].equations[0].id",
    )]


@pytest.mark.parametrize("text", ["n1", "N1", "n012"])
def test_an_instance_description_of_element_expr_that_an_equation_instance_could_mint_is_reported(text):
    # {base}/expr/instance/n{i} is a node of equation "instance" for some i, whatever its number
    data = minimal_manifest()
    data["processes"][0]["states"][1]["dataElements"][0].update(id="expr", instanceDescriptions=["unit", text])
    data["processes"][0]["operators"][0]["equations"][0]["id"] = "instance"
    with pytest.raises(ManifestError) as excinfo:
        manifest_from_dict(data)
    assert excinfo.value.problems == [(
        "$.processes[0].operators[0].equations[0].id",
        f"equation 'instance' would share the node <http://example.org/mini/expr/instance/{text.lower()}> "
        f"with instance description {text!r} at $.processes[0].states[1].dataElements[0].instanceDescriptions[1]",
    )]


def test_an_instance_description_after_the_equation_instance_is_reported_at_its_own_path():
    data = minimal_manifest()
    data["processes"][0]["operators"][0]["equations"][0]["id"] = "instance"
    data["processes"].append({
        "id": "Later",
        "states": [{"id": "Held", "kind": "Information", "dataElements": [
            {"id": "expr", "typeDescription": "held value", "instanceDescriptions": ["n3", "n4"]},
        ]}],
        "operators": [],
    })
    with pytest.raises(ManifestError) as excinfo:
        manifest_from_dict(data)
    path = "$.processes[1].states[0].dataElements[0].instanceDescriptions"
    assert excinfo.value.problems == [
        (f"{path}[{i}]", f"instance description 'n{i + 3}' would share the node <http://example.org/mini/expr/instance/n{i + 3}> "
         "with equation 'instance' at $.processes[0].operators[0].equations[0].id")
        for i in (0, 1)
    ]


def test_an_operator_expr_without_an_equation_model_builds():
    data = _operator_expr_and_equation_model(operator_first=False)
    data["processes"][0]["operators"][1]["equations"][0]["id"] = "modelled"
    graph = compile_manifest(manifest_from_dict(data))
    assert validate(graph, strict=True).ok()
    assert "<http://example.org/mini/expr/model> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> " in to_ntriples(graph)


@pytest.mark.parametrize(("texts", "equation"), [(["n", "n1a", "no 1", "1"], "instance"), (["n1"], "doubling")])
def test_an_element_expr_whose_instance_nodes_no_equation_could_mint_builds(texts, equation):
    data = minimal_manifest()
    data["processes"][0]["states"][1]["dataElements"][0].update(id="expr", instanceDescriptions=texts)
    data["processes"][0]["operators"][0]["equations"][0]["id"] = equation
    assert validate(compile_manifest(manifest_from_dict(data)), strict=True).ok()


# --- an equation too deep to parse or map is that equation's problem -----------


@pytest.mark.parametrize("source", ["infix", "xml"])
def test_an_equation_too_deep_to_read_is_reported_at_its_path(tmp_path, source):
    # parse_infix reaches Python's recursion limit at about 247 nested calls, parse_openmath_xml
    # at about 1,000 nested applications
    (tmp_path / "deep.om.xml").write_text(
        "<OMOBJ>" + '<OMA><OMS cd="transc1" name="sin"/>' * 1200 + '<OMV name="x"/>' + "</OMA>" * 1200 + "</OMOBJ>",
        encoding="utf-8",
    )
    equation = {"infix": "y = " + "sin(" * 300 + "x" + ")" * 300} if source == "infix" else {"xmlPath": "deep.om.xml"}
    data = minimal_manifest()
    data["processes"][0]["operators"][0]["equations"] = [{"id": "deep", **equation}, {"id": "shallow", "infix": "y = x"}]
    with pytest.raises(ManifestError) as excinfo:
        compile_manifest(manifest_from_dict(data, tmp_path))
    assert excinfo.value.problems == [
        ("$.processes[0].operators[0].equations[0]", "equation nested too deep: parsing or mapping it exceeds Python's recursion limit"),
    ]


# --- each distinct equation source is read and parsed once per call ------------


def _count_calls(monkeypatch) -> Counter:
    """Count the calls compile_manifest makes through its module's parser
    and mapper names."""
    counts: Counter = Counter()
    for name in ("parse_infix", "parse_openmath_xml", "om_to_rdf"):

        def counted(*args, _name=name, _parse=getattr(cpskg.manifest, name), **kwargs):
            counts[_name] += 1
            return _parse(*args, **kwargs)

        monkeypatch.setattr(cpskg.manifest, name, counted)
    return counts


def test_each_equation_source_is_parsed_once_per_call(monkeypatch, tmp_path):
    inputs = perfbench_inputs()
    fixture = inputs.load_fixture(FIXTURES)
    manifest = load_manifest(inputs.write_scaled_model(fixture, 4, tmp_path))
    counts = _count_calls(monkeypatch)
    built = to_ntriples(compile_manifest(manifest))
    assert counts == {"parse_infix": 1, "parse_openmath_xml": 1, "om_to_rdf": 2}
    compile_manifest(manifest)
    assert counts == {"parse_infix": 2, "parse_openmath_xml": 2, "om_to_rdf": 4}
    assert built == inputs.reference_ntriples(fixture, 4)


@pytest.mark.parametrize("copies", [1, 2, 3, 4])
def test_each_source_is_mapped_once(monkeypatch, tmp_path, copies):
    # each copy of the model names each of its two sources once
    inputs = perfbench_inputs()
    fixture = inputs.load_fixture(FIXTURES)
    manifest = load_manifest(inputs.write_scaled_model(fixture, copies, tmp_path))
    counts = _count_calls(monkeypatch)
    assert to_ntriples(compile_manifest(manifest)) == inputs.reference_ntriples(fixture, copies)
    assert counts == {"parse_infix": 1, "parse_openmath_xml": 1, "om_to_rdf": 2}


def test_a_shared_source_that_fails_is_reported_at_each_equation_that_names_it(tmp_path):
    inputs = perfbench_inputs()
    path = inputs.write_scaled_model(inputs.load_fixture(FIXTURES), 3, tmp_path)
    xml_file = tmp_path / "chamber1_pressure_rate.om.xml"
    xml_file.write_bytes(xml_file.read_bytes()[:200])
    data = json.loads(path.read_text(encoding="utf-8"))
    expected = []
    for pi, proc in enumerate(data["processes"]):
        for oi, op in enumerate(proc["operators"]):
            for ei, eq in enumerate(op.get("equations", ())):
                if "infix" in eq:
                    eq["infix"] += " + (Q1"  # an unterminated parenthesis
                with pytest.raises(CpskgError) as excinfo:
                    parse_infix(eq["infix"]) if "infix" in eq else parse_openmath_xml(xml_file.read_bytes())
                expected.append((f"$.processes[{pi}].operators[{oi}].equations[{ei}]", str(excinfo.value)))
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ManifestError) as excinfo:
        compile_manifest(load_manifest(path))
    assert len(expected) == 6
    assert excinfo.value.problems == expected


@pytest.mark.parametrize("named", [2, 4])
@pytest.mark.parametrize("source", ["infix", "a symbol in a file"])
def test_a_later_equation_of_a_shared_source_with_an_id_that_is_no_iri_reports_what_om_to_rdf_raises(tmp_path, source, named):
    # a lone symbol mints no node, so the wrapper is the first IRI checked
    (tmp_path / "pi.om.xml").write_text('<OMOBJ><OMS cd="nums1" name="pi"/></OMOBJ>', encoding="utf-8")
    equation = {"infix": "y = 2*x"} if source == "infix" else {"xmlPath": "pi.om.xml"}
    data = minimal_manifest()
    ids = ["first", "a b", *(f"more{i}" for i in range(named - 2))]
    data["processes"][0]["operators"][0]["equations"] = [{"id": id_, **equation} for id_ in ids]
    tree = parse_infix("y = 2*x") if source == "infix" else parse_openmath_xml((tmp_path / "pi.om.xml").read_bytes())
    with pytest.raises(InvalidIriError) as expected:
        om_to_rdf(tree, data["instanceBase"], "a b")
    with pytest.raises(ManifestError) as excinfo:
        compile_manifest(CpsManifest(data, tmp_path))
    assert excinfo.value.problems == [("$.processes[0].operators[0].equations[1]", str(expected.value))]


def test_a_shared_infix_text_is_checked_against_each_operators_scope():
    data = minimal_manifest()
    proc = data["processes"][0]
    proc["states"].append({"id": "Other", "kind": "Information", "dataElements": [{"id": "z_DE", "typeDescription": "other value", "variableName": "z"}]})
    proc["operators"].append(
        {"id": "Copier", "assignedResource": "Plant", "inputs": ["Other"], "outputs": ["Out"], "equations": [{"id": "copying", "infix": "y = 2*x"}]}
    )
    with pytest.raises(ManifestError) as excinfo:
        compile_manifest(manifest_from_dict(data))
    assert excinfo.value.problems == [("$.processes[0].operators[1].equations[0]", "variable 'x' is not declared by any data element in scope")]


def test_no_parsed_equation_outlives_its_compile(tmp_path):
    xml_file = tmp_path / "eq.om.xml"
    xml_file.write_text(serialize_openmath_xml(parse_infix("y = 2*x")), encoding="utf-8")
    data = minimal_manifest()
    data["processes"][0]["operators"][0]["equations"] = [{"id": "doubling", "xmlPath": "eq.om.xml"}]
    manifest = manifest_from_dict(data, base_dir=tmp_path)
    first = to_ntriples(compile_manifest(manifest))
    xml_file.write_text(serialize_openmath_xml(parse_infix("y = 3*x")), encoding="utf-8")
    second = to_ntriples(compile_manifest(manifest))
    data["processes"][0]["operators"][0]["equations"] = [{"id": "doubling", "infix": "y = 3*x"}]
    assert second == to_ntriples(compile_manifest(manifest_from_dict(data))) != first


def test_equations_that_share_a_file_map_as_if_each_had_its_own(tmp_path):
    inputs = perfbench_inputs()
    fixture = inputs.load_fixture(FIXTURES)
    shared = inputs.write_scaled_model(fixture, 3, tmp_path / "shared")
    own = inputs.write_scaled_model(fixture, 3, tmp_path / "own")
    data = json.loads(own.read_text(encoding="utf-8"))
    copies = 0
    for proc in data["processes"]:
        for op in proc["operators"]:
            for eq in op.get("equations", ()):
                if eq.get("xmlPath") == "chamber1_pressure_rate.om.xml":
                    eq["xmlPath"] = f"copy_of_{eq['id']}.om.xml"
                    (own.parent / eq["xmlPath"]).write_bytes(fixture.xml_files["chamber1_pressure_rate.om.xml"])
                    copies += 1
    own.write_text(json.dumps(data), encoding="utf-8")
    assert copies == 3
    built = to_ntriples(compile_manifest(load_manifest(shared)))
    assert built == to_ntriples(compile_manifest(load_manifest(own))) == inputs.reference_ntriples(fixture, 3)


# --- generated manifests: shapes the EHSA fixture never builds ------------------

_REFERENCE = jsonschema.Draft202012Validator(MANIFEST_SCHEMA)


@settings(max_examples=100, deadline=None)
@given(manifests())
def test_acceptor_agrees_with_jsonschema_on_generated_manifests(data):
    assert _accepts_manifest(data) is _REFERENCE.is_valid(data) is True


@settings(max_examples=80, deadline=None)
@given(manifests())
def test_generated_manifest_compiles_to_the_same_bytes_twice_and_reads_back(data):
    graph = compile_manifest(manifest_from_dict(data))
    text = to_ntriples(graph)
    assert to_ntriples(compile_manifest(manifest_from_dict(copy.deepcopy(data)))) == text
    assert from_ntriples(text) == graph


@settings(max_examples=80, deadline=None)
@given(manifests())
def test_generated_manifest_compiles_to_a_graph_with_no_error_finding(data):
    assert validate(compile_manifest(manifest_from_dict(data))).errors == []
