from __future__ import annotations

import pytest

from cpskg.builder import ModelBuilder, UnresolvedReferenceError, slugify
from cpskg.manifest import compile_manifest, load_manifest
from cpskg.mapper import om_to_rdf
from cpskg.om.tree import Symbol, Variable, app
from cpskg.rdf import RDF, XSD, Graph, Iri, Literal, PatternQuery, Triple, Var, match, nt_term, to_ntriples
from cpskg.vocab import DEFAULT_VOCAB
from conftest import FIXTURES, perfbench_inputs

BASE = "http://example.org/unit"
V = DEFAULT_VOCAB


@pytest.fixture
def builder() -> ModelBuilder:
    return ModelBuilder(BASE)


RAM = {"id": "Ram", "level": "Component"}


def ehsa_structure() -> dict:
    components = ["EHSV", "MSV", "EV1", "EV2", "Accumulator", "ActuatorMainRam"]
    return {"id": "EHSA", "level": "Module", "children": [{"id": c, "level": "Component"} for c in components]}


def test_lifecycle_record_one_set_is_four_triples(builder):
    builder.add_lifecycle_record("Record", ["ModelSet"])
    assert len(builder.graph) == 4
    record, info_set = builder.iri("Record"), builder.iri("ModelSet")
    assert Triple(record, RDF.type, V.din77005.LifeCycleRecord) in builder.graph
    assert Triple(info_set, RDF.type, V.din77005.InformationSet) in builder.graph
    assert Triple(record, V.din77005.hasInformationSet, info_set) in builder.graph
    assert Triple(info_set, RDF.type, V.cpsmod.SystemModel) in builder.graph


def test_lifecycle_record_zero_sets_is_one_triple(builder):
    builder.add_lifecycle_record("Record", [])
    assert len(builder.graph) == 1


def test_structure_counts_for_module_with_six_components(builder):
    builder.add_structure(ehsa_structure())
    assert len(builder.graph) == 13  # 7 type triples + 6 consistsOf
    assert Triple(builder.iri("EHSA"), RDF.type, V.vdi2206.Module) in builder.graph
    assert len(builder.graph.triples(None, V.vdi2206.consistsOf)) == 6


def test_structure_single_component_is_one_triple(builder):
    builder.add_structure(RAM)
    assert len(builder.graph) == 1


def active_mode() -> dict:
    return {
        "id": "ActiveMode",
        "states": [{"id": "Flow", "kind": "Energy"}, {"id": "Signal", "kind": "Information"}],
        "operators": [
            {"id": "HydraulicControl", "assignedResource": "EHSV", "inputs": ["Signal"], "outputs": ["Flow"]},
            {"id": "LinearMotionExecution", "assignedResource": "ActuatorMainRam", "inputs": ["Flow"], "outputs": ["Signal"]},
            {"id": "PressureStabilization", "assignedResource": "Accumulator", "inputs": ["Flow"], "outputs": ["Signal"]},
        ],
    }


def test_process_operator_assignment_pairs(builder):
    builder.add_structure(ehsa_structure())
    builder.add_process(active_mode())
    rows = match(builder.graph, PatternQuery.of((Var("op"), V.vdi3682.isAssignedTo, Var("res"))))
    pairs = {(r["op"].value.rsplit("/", 1)[1], r["res"].value.rsplit("/", 1)[1]) for r in rows}
    assert pairs == {
        ("HydraulicControl", "EHSV"),
        ("LinearMotionExecution", "ActuatorMainRam"),
        ("PressureStabilization", "Accumulator"),
    }


def test_process_operator_without_states(builder):
    builder.add_structure(RAM)
    builder.add_process({"id": "P", "operators": [{"id": "Op", "assignedResource": "Ram"}]})
    op = builder.iri("Op")
    assert Triple(op, RDF.type, V.vdi3682.ProcessOperator) in builder.graph
    assert Triple(builder.iri("P"), V.vdi3682.consistsOf, op) in builder.graph
    assert Triple(op, V.vdi3682.isAssignedTo, builder.iri("Ram")) in builder.graph
    assert Triple(builder.iri("Ram"), RDF.type, V.vdi3682.TechnicalResource) in builder.graph
    assert not builder.graph.triples(op, V.vdi3682.hasInput)


def test_data_element_six_triples(builder):
    builder.add_structure(RAM)
    builder.add_process({"id": "P", "states": [{"id": "Flow", "kind": "Energy"}], "operators": []})
    before = len(builder.graph)
    builder.add_data_element(
        "Flow",
        {"id": "Q1_DE", "typeDescription": "Volume flow into chamber 1", "instanceDescriptions": ["unit m^3/s"]},
    )
    assert len(builder.graph) - before == 6
    type_nodes = builder.graph.objects(builder.iri("Q1_DE"), V.dinen61360.hasTypeDescription)
    assert type_nodes == [builder.iri(f"node/type/{slugify('Volume flow into chamber 1')}")]


def test_data_element_two_instance_descriptions(builder):
    builder.add_structure(RAM)
    builder.add_data_element(
        "Ram",
        {"id": "D", "typeDescription": "some quantity", "instanceDescriptions": ["unit one", "sampled at 1 kHz"]},
    )
    assert len(builder.graph.objects(builder.iri("D"), V.dinen61360.hasInstanceDescription)) == 2


def test_attach_behavior_model_three_then_one_triples(builder):
    builder.add_structure(RAM)
    builder.add_process({"id": "P", "operators": [{"id": "Op", "assignedResource": "Ram"}]})
    first = om_to_rdf(app(Symbol("arith1", "plus"), Variable("x"), Variable("y")), BASE, "e1", vocab=V, graph=builder.graph)
    second = om_to_rdf(Variable("z"), BASE, "e2", vocab=V, graph=builder.graph)

    before = len(builder.graph)
    builder.attach_behavior_model("Op", nt_term(first.object_node))
    assert len(builder.graph) - before == 3
    model = builder.iri("Op/model")
    assert Triple(model, RDF.type, V.vdi2206.MathematicalModel) in builder.graph
    assert Triple(builder.iri("Op"), V.cpsmod.processOperatorBehaviorModel, model) in builder.graph

    before = len(builder.graph)
    builder.attach_behavior_model("Op", nt_term(second.object_node))
    assert len(builder.graph) - before == 1  # model node reused, one more hasOMObject
    assert builder.graph.objects(model, V.cpsmod.hasOMObject) == sorted([first.object_node, second.object_node], key=nt_term)


def test_link_variable_to_data_element(builder):
    builder.add_structure(RAM)
    builder.add_data_element("Ram", {"id": "Q1_DE", "typeDescription": "volume flow"})
    result = om_to_rdf(Variable("Q1"), BASE, "e", vocab=V, graph=builder.graph)
    var_node = result.variables["Q1"]

    before = len(builder.graph)
    builder.link_variable_to_data_element(nt_term(var_node), "Q1_DE")
    assert len(builder.graph) - before == 1
    assert Triple(var_node, V.cpsmod.isDataFor, builder.iri("Q1_DE")) in builder.graph
    builder.link_variable_to_data_element(nt_term(var_node), "Q1_DE")
    assert len(builder.graph) - before == 1  # idempotent


def test_observation_four_triples(builder):
    builder.add_structure(RAM)
    builder.add_data_element("Ram", {"id": "Q1_DE", "typeDescription": "volume flow"})
    before = len(builder.graph)
    builder.add_observation("Q1_DE", 2.0, "2024-01-01T00:00:00Z")
    assert len(builder.graph) - before == 4
    obs = builder.iri("node/obs/0")
    assert Triple(obs, V.sosa.hasFeatureOfInterest, builder.iri("Q1_DE")) in builder.graph
    assert Triple(obs, V.sosa.hasSimpleResult, Literal("2.0", XSD.double)) in builder.graph
    assert Triple(obs, V.sosa.resultTime, Literal("2024-01-01T00:00:00Z", XSD.dateTime)) in builder.graph


def test_observation_of_a_feature_not_in_the_graph_is_rejected(builder):
    """Only direct builder use reaches this check: the manifest check already
    requires an observation's feature to be a declared id."""
    builder.add_structure(RAM)
    before = len(builder.graph)
    with pytest.raises(UnresolvedReferenceError, match="Missing_DE"):
        builder.add_observation("Missing_DE", 2.0, "2024-01-01T00:00:00Z")
    assert len(builder.graph) == before


def test_two_observations_get_distinct_nodes(builder):
    builder.add_structure(RAM)
    builder.add_data_element("Ram", {"id": "D", "typeDescription": "quantity"})
    builder.add_observation("D", 1.0, "2024-01-01T00:00:00Z")
    builder.add_observation("D", 2.0, "2024-01-01T00:00:01Z")
    assert builder.graph.subjects(RDF.type, V.sosa.Observation) == [builder.iri("node/obs/0"), builder.iri("node/obs/1")]


def test_slugify():
    assert slugify("Volume flow into chamber 1") == "volume_flow_into_chamber_1"
    assert slugify("unit m^3/s") == "unit_m_3_s"
    assert slugify("  ") == "x"


# --- the builder writes texts; the graph is the one Graph.add builds --------


@pytest.mark.parametrize("k", [1, 4], ids=["ehsa", "k4"])
def test_built_graph_is_the_graph_add_builds(k, tmp_path):
    inputs = perfbench_inputs()
    fixture = inputs.load_fixture(FIXTURES)
    built = compile_manifest(load_manifest(inputs.write_scaled_model(fixture, k, tmp_path)))
    rebuilt = Graph()
    for triple in built:
        rebuilt.add(triple.subject, triple.predicate, triple.object)
    assert built == rebuilt and len(built) == len(rebuilt)

    def leaf_shapes(graph: Graph) -> dict:
        return {(s, p): type(leaf) for s, by_predicate in graph._spo.items() for p, leaf in by_predicate.items()}

    assert leaf_shapes(built) == leaf_shapes(rebuilt)
    assert to_ntriples(built) == to_ntriples(rebuilt) == inputs.reference_ntriples(fixture, k)


def test_type_index_built_between_two_processes_matches_a_scan(builder):
    builder.add_structure(ehsa_structure())
    builder.add_process(active_mode())
    assert len(builder.graph.subjects(RDF.type, V.vdi3682.ProcessOperator)) == 3  # builds the rdf:type index
    builder.add_process({
        "id": "PassiveMode",
        "states": [{
            "id": "Leak", "kind": "Energy",
            "dataElements": [{"id": "Leak_DE", "typeDescription": "leak flow", "instanceDescriptions": ["unit m^3/s"]}],
        }],
        "operators": [{"id": "Damping", "assignedResource": "ActuatorMainRam", "inputs": ["Leak"], "outputs": ["Leak"]}],
    })
    graph = builder.graph
    typed = [triple for triple in graph if triple.predicate == RDF.type]
    for cls in {triple.object for triple in typed}:
        scanned = sorted((triple.subject for triple in typed if triple.object == cls), key=nt_term)
        assert graph.subjects(RDF.type, cls) == scanned, cls
    assert len(graph.subjects(RDF.type, V.vdi3682.ProcessOperator)) == 4


@pytest.mark.parametrize("k", [1, 4], ids=["ehsa", "k4"])
def test_a_compile_makes_no_term_but_those_of_the_feature_lookups(k, tmp_path):
    """The write path passes N-Triples texts and returns none of its nodes,
    so the one lookup it keeps, that of each observation's feature, makes
    every term object a compile leaves in the graph's term table."""
    inputs = perfbench_inputs()
    manifest = load_manifest(inputs.write_scaled_model(inputs.load_fixture(FIXTURES), k, tmp_path))
    graph = compile_manifest(manifest)
    features = {Iri(f"{manifest.instance_base}/{obs['feature']}")._nt for obs in manifest.data["observations"]}
    looked_up = {text for feature in features for row in graph._select(feature, None, None) for text in row}
    assert set(graph._terms) <= looked_up
