from __future__ import annotations

import pytest

from cpskg.mapper import MalformedListError, rdf_to_om, symbol_iri
from cpskg.om.tree import Symbol
from cpskg.rdf import RDF, Graph, Iri, Literal, Triple
from cpskg.validator import validate
from cpskg.vocab import CpsVocabulary

V = CpsVocabulary.default()
EHSA = "http://example.org/ehsa"


def test_golden_graph_is_clean(ehsa_graph):
    assert validate(ehsa_graph).ok()
    assert validate(ehsa_graph, strict=True).ok()


def test_report_is_deterministic(ehsa_graph):
    mutated = ehsa_graph.copy()
    mutated.discard(ehsa_graph.triples(None, V.cpsmod.isDataFor)[0])
    first = validate(mutated).to_text()
    second = validate(mutated).to_text()
    assert first == second


def _single_finding(report):
    assert len(report.findings) == 1, report.to_text()
    return report.findings[0]


# Each mutation edits the last cons cell of one argument list: (new triples, message).
LIST_MUTATIONS = {
    "dangling": (lambda cell: [], "cons cell must have exactly one rdf:first and rdf:rest, found 1/0"),
    "cyclic": (lambda cell: [Triple(cell, RDF.rest, cell)], "argument list is cyclic"),
    "literal_tail": (lambda cell: [Triple(cell, RDF.rest, Literal("tail"))], "argument list continues into a literal"),
    "two_firsts": (
        lambda cell: [Triple(cell, RDF.rest, RDF.nil), Triple(cell, RDF.first, Iri(f"{EHSA}/extra"))],
        "cons cell must have exactly one rdf:first and rdf:rest, found 2/1",
    ),
}


@pytest.mark.parametrize("mutation", sorted(LIST_MUTATIONS))
def test_v1_malformed_list(ehsa_graph, mutation):
    """V1 and the mapper read lists with one reader, so they stop at the same node."""
    added, message = LIST_MUTATIONS[mutation]
    mutated = ehsa_graph.copy()
    victim = mutated.triples(None, RDF.rest, RDF.nil)[0]
    mutated.discard(victim)
    mutated.add_all(added(victim.subject))
    finding = _single_finding(validate(mutated))
    assert (finding.rule, finding.severity, finding.message) == ("V1", "error", message)
    wrapper = Iri(victim.subject.value.rpartition("/")[0])
    with pytest.raises(MalformedListError) as raised:
        rdf_to_om(mutated, wrapper)
    expected = Literal("tail") if mutation == "literal_tail" else victim.subject
    assert finding.node == raised.value.node == expected


def test_v2_missing_operator(ehsa_graph):
    mutated = ehsa_graph.copy()
    victim = mutated.triples(None, V.om.operator)[0]
    mutated.discard(victim)
    findings = validate(mutated).findings
    assert [f.rule for f in findings] == ["V2"]
    assert findings[0].severity == "error"


def test_v3_unassigned_operator(ehsa_graph):
    mutated = ehsa_graph.copy()
    victim = mutated.triples(Iri(f"{EHSA}/PressureStabilization"), V.vdi3682.isAssignedTo)[0]
    mutated.discard(victim)
    finding = _single_finding(validate(mutated))
    assert (finding.rule, finding.severity) == ("V3", "warning")


def test_v4_unlinked_variable(ehsa_graph):
    mutated = ehsa_graph.copy()
    victim = mutated.triples(None, V.cpsmod.isDataFor)[0]
    mutated.discard(victim)
    finding = _single_finding(validate(mutated))
    assert (finding.rule, finding.severity) == ("V4", "warning")
    assert finding.node == victim.subject


def test_v5_operator_without_input(ehsa_graph):
    mutated = ehsa_graph.copy()
    victim = mutated.triples(Iri(f"{EHSA}/HydraulicControl"), V.vdi3682.hasInput)[0]
    mutated.discard(victim)
    finding = _single_finding(validate(mutated))
    assert (finding.rule, finding.severity) == ("V5", "warning")


def test_v6_data_element_without_type_description(ehsa_graph):
    mutated = ehsa_graph.copy()
    victim = mutated.triples(Iri(f"{EHSA}/Q1_DE"), V.dinen61360.hasTypeDescription)[0]
    mutated.discard(victim)
    finding = _single_finding(validate(mutated))
    assert (finding.rule, finding.severity) == ("V6", "error")


def test_v7_unregistered_content_dictionary(ehsa_graph):
    mutated = ehsa_graph.copy()
    victim = mutated.triples(None, V.om.operator, symbol_iri(Symbol("relation1", "eq")))[0]
    mutated.discard(victim)
    mutated.add(Triple(victim.subject, V.om.operator, symbol_iri(Symbol("nocd1", "mystery"))))
    finding = _single_finding(validate(mutated, strict=True))
    assert (finding.rule, finding.severity) == ("V7", "warning")
    assert not validate(mutated).findings  # V7 only runs in strict mode


def test_v7_accepts_registered_cds(ehsa_graph):
    assert not validate(ehsa_graph, strict=True).findings


def test_single_triple_deletions_never_crash(ehsa_graph):
    """Deleting one triple from the passing graph yields a well-formed
    report, never an exception. Deterministic stride sample for speed."""
    triples = list(ehsa_graph)
    for triple in triples[::4]:
        mutated = ehsa_graph.copy()
        mutated.discard(triple)
        report = validate(mutated, strict=True)
        for finding in report.findings:
            assert finding.rule in {"V1", "V2", "V3", "V4", "V5", "V6", "V7"}
            assert finding.severity in {"error", "warning"}


def test_report_renders_text_and_jsonl(ehsa_graph):
    mutated = ehsa_graph.copy()
    mutated.discard(mutated.triples(None, V.cpsmod.isDataFor)[0])
    report = validate(mutated)
    assert report.to_text().startswith("V4 warning ")
    assert '"rule": "V4"' in report.to_jsonl()


def test_empty_graph_is_clean():
    assert validate(Graph()).ok()
