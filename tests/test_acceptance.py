"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines.
"""

from __future__ import annotations

import functools
import json
import random

import pytest

from cpskg.evaluator import evaluate
from cpskg.infix import parse_infix, print_infix
from cpskg.manifest import compile_manifest, load_manifest
from cpskg.mapper import om_to_rdf, rdf_to_om, symbol_iri
from cpskg.om.tree import Application, FloatLiteral, IntLiteral, Symbol, Variable
from cpskg.om.xmlio import parse_openmath_xml, serialize_openmath_xml
from cpskg.rdf import RDF, Iri, Literal, PatternQuery, Var, match, to_ntriples
from cpskg.validator import validate
from cpskg.vocab import DEFAULT_VOCAB
from conftest import EHSA_BASE, FIXTURES, edited
from corpus import corpus
from strategies import walk

V = DEFAULT_VOCAB
OM = V.om
BASE = "http://example.org/acceptance"


def report(number: int, title: str, passed: bool) -> None:
    print(f"[acceptance] criterion {number} ({title}): {'PASS' if passed else 'FAIL'}", flush=True)


def criterion(number: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                report(number, title, False)
                raise
            report(number, title, True)

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def tree_corpus():
    return corpus(500)


# --- criterion 1 -------------------------------------------------------------


def independent_stats(tree):
    """Count oracle by direct recursion over the tree."""
    apps = total_args = literal_occurrences = 0
    names = set()
    for node in walk(tree):
        if isinstance(node, Application):
            apps += 1
            total_args += len(node.arguments)
        elif isinstance(node, Variable):
            names.add(node.name)
        elif isinstance(node, (IntLiteral, FloatLiteral)):
            literal_occurrences += 1
    return apps, total_args, len(names), literal_occurrences


def check_mapping_rules(tree, result):
    """Verify the fragment satisfies exactly the four mapping rules."""
    graph = result.graph
    scope: dict[str, Iri] = {}
    accounted: set = set()

    def expect(triple_subject, predicate, obj):
        matches = graph.triples(triple_subject, predicate, obj)
        assert matches, f"missing triple ({triple_subject}, {predicate}, {obj})"
        accounted.update(matches)

    def verify(node, rdf_node):
        if isinstance(node, Application):
            expect(rdf_node, RDF.type, OM.Application)
            operators = graph.objects(rdf_node, OM.operator)
            assert len(operators) == 1
            accounted.update(graph.triples(rdf_node, OM.operator))
            verify(node.operator, operators[0])
            heads = graph.objects(rdf_node, OM.arguments)
            assert len(heads) == 1
            accounted.update(graph.triples(rdf_node, OM.arguments))
            items = []
            cell = heads[0]
            while cell != RDF.nil:
                firsts = graph.objects(cell, RDF.first)
                rests = graph.objects(cell, RDF.rest)
                assert len(firsts) == 1 and len(rests) == 1, "cons cell must be single-valued"
                accounted.update(graph.triples(cell, RDF.first))
                accounted.update(graph.triples(cell, RDF.rest))
                items.append(firsts[0])
                cell = rests[0]
            assert len(items) == len(node.arguments), "argument list length mismatch"
            for child, child_node in zip(node.arguments, items):
                verify(child, child_node)
        elif isinstance(node, Symbol):
            assert rdf_node == symbol_iri(node, V.cd_base)
            assert not graph.triples(rdf_node), "symbols are pure IRIs, no triples"
        elif isinstance(node, Variable):
            if node.name in scope:
                assert rdf_node == scope[node.name], "variable occurrences must share one node"
            scope[node.name] = rdf_node
            expect(rdf_node, RDF.type, OM.Variable)
            expect(rdf_node, OM.name, Literal(node.name))
        elif isinstance(node, IntLiteral):
            expect(rdf_node, RDF.type, OM.term("Literal"))
            expect(rdf_node, OM.value, Literal(str(node.value), Iri("http://www.w3.org/2001/XMLSchema#integer")))
        elif isinstance(node, FloatLiteral):
            expect(rdf_node, RDF.type, OM.term("Literal"))
            expect(rdf_node, OM.value, Literal(repr(node.value), Iri("http://www.w3.org/2001/XMLSchema#double")))
        else:
            raise AssertionError(f"unexpected node {node!r}")

    expect(result.object_node, RDF.type, OM.Object)
    expect(result.object_node, OM.root, result.root)
    verify(tree, result.root)
    assert accounted == set(graph), "fragment contains triples not justified by the mapping rules"


@criterion(1, "mapping-rule conformance and triple-count law on 500 trees")
def test_criterion_1_mapping_conformance(tree_corpus):
    assert len(tree_corpus) == 500
    for index, tree in enumerate(tree_corpus):
        result = om_to_rdf(tree, BASE, f"c{index}")
        check_mapping_rules(tree, result)
        apps, total_args, distinct_vars, lits = independent_stats(tree)
        law = 3 * apps + 2 * total_args + 2 * distinct_vars + 2 * lits
        assert len(result.graph) - 2 == law, f"triple-count law violated on case {index}"


# --- criterion 2 -------------------------------------------------------------


@criterion(2, "round-trip identity on the corpus and the shipped equations")
def test_criterion_2_round_trips(tree_corpus, ehsa_manifest):
    shipped = []
    for proc in ehsa_manifest.data["processes"]:
        for op in proc["operators"]:
            for eq in op.get("equations", ()):
                if "infix" in eq:
                    shipped.append(parse_infix(eq["infix"]))
                else:
                    shipped.append(parse_openmath_xml((ehsa_manifest.base_dir / eq["xmlPath"]).read_bytes()))
    assert len(shipped) == 2
    failures = 0
    for index, tree in enumerate(tree_corpus + shipped):
        result = om_to_rdf(tree, BASE, f"r{index}")
        if rdf_to_om(result.graph, result.object_node) != tree:
            failures += 1
        if parse_openmath_xml(serialize_openmath_xml(tree)) != tree:
            failures += 1
        if parse_infix(print_infix(tree)) != tree:
            failures += 1
    assert failures == 0


# --- criterion 3 -------------------------------------------------------------


@criterion(3, "case-study graph: structure, assignments, equations, links")
def test_criterion_3_case_study(ehsa_graph):
    g = ehsa_graph
    ex = EHSA_BASE

    # (a) the module and its six components, at the right structure levels
    assert Iri(f"{ex}/EHSA") in g.subjects(RDF.type, V.vdi2206.Module)
    components = {n.value.rsplit("/", 1)[1] for n in g.subjects(RDF.type, V.vdi2206.Component)}
    assert components == {"EHSV", "MSV", "EV1", "EV2", "Accumulator", "ActuatorMainRam"}

    # (b) operator/resource assignment pairs
    rows = match(g, PatternQuery.of((Var("op"), V.vdi3682.isAssignedTo, Var("res"))))
    pairs = {(r["op"].value, r["res"].value) for r in rows}
    assert pairs == {
        (f"{ex}/HydraulicControl", f"{ex}/EHSV"),
        (f"{ex}/LinearMotionExecution", f"{ex}/ActuatorMainRam"),
        (f"{ex}/PressureStabilization", f"{ex}/Accumulator"),
    }

    # (c) both continuity equations attached through a behavior model
    rows = match(
        g,
        PatternQuery.of(
            (Iri(f"{ex}/LinearMotionExecution"), V.cpsmod.processOperatorBehaviorModel, Var("m")),
            (Var("m"), V.cpsmod.hasOMObject, Var("w")),
        ),
    )
    wrappers = {r["w"].value for r in rows}
    assert wrappers == {f"{ex}/expr/chamber1_pressure_rate", f"{ex}/expr/chamber2_pressure_rate"}

    # (d) every equation variable carries an isDataFor link
    for wrapper in sorted(wrappers):
        for root in g.objects(Iri(wrapper), OM.root):
            stack, seen = [root], set()
            while stack:
                node = stack.pop()
                if node in seen or isinstance(node, Literal):
                    continue
                seen.add(node)
                for predicate in (OM.operator, OM.arguments, RDF.first, RDF.rest):
                    stack.extend(g.objects(node, predicate))
            for node in seen:
                if isinstance(node, Iri) and OM.Variable in g.objects(node, RDF.type):
                    assert g.objects(node, V.cpsmod.isDataFor), f"unlinked variable {node}"

    # and the validator agrees
    assert validate(g).ok()
    assert validate(g, strict=True).ok()


# --- criterion 4 -------------------------------------------------------------


@criterion(4, "numeric check of the chamber-1 rate equation")
def test_criterion_4_numeric(ehsa_graph):
    wrapper = Iri(f"{EHSA_BASE}/expr/chamber1_pressure_rate")
    equation = rdf_to_om(ehsa_graph, wrapper, vocab=V)
    rhs = equation.arguments[1]
    bindings = json.loads((FIXTURES / "bindings_chamber1.json").read_text(encoding="utf-8"))
    value = evaluate(rhs, bindings)
    assert abs(value - 0.15) <= 1e-12

    rng = random.Random(42)
    for _ in range(100):
        velocity = rng.uniform(-5.0, 5.0)
        sample = {
            "beta": rng.uniform(0.1, 10.0),
            "Q1": rng.uniform(0.1, 10.0),
            "Qle1": 0.0,
            "Qli": 0.0,
            "xR_dot": velocity,
            "xC_dot": velocity,
            "A": rng.uniform(0.1, 2.0),
            "V0": rng.uniform(5.0, 100.0),
            "xR": rng.uniform(-0.5, 0.5),
        }
        expected = sample["beta"] * sample["Q1"] / (sample["V0"] + sample["xR"] * sample["A"])
        assert abs(evaluate(rhs, sample) - expected) <= 1e-12 * abs(expected)


# --- criterion 5 -------------------------------------------------------------


@criterion(5, "byte-identical builds matching the committed golden file")
def test_criterion_5_determinism(golden_text):
    first = compile_manifest(load_manifest(FIXTURES / "manifest.json"))
    second = compile_manifest(load_manifest(FIXTURES / "manifest.json"))
    assert to_ntriples(first) == to_ntriples(second)
    assert to_ntriples(first) == golden_text


# --- criterion 6 -------------------------------------------------------------


@criterion(6, "validator mutation suite, one rule per mutation")
def test_criterion_6_mutations(ehsa_graph):
    from cpskg.rdf import Triple

    def mutate_delete(predicate, object=None, subject=None):
        return edited(ehsa_graph, drop=ehsa_graph.triples(subject, predicate, object)[:1])

    cases = []

    cases.append(("V1", "error", mutate_delete(RDF.rest, RDF.nil), False))
    cases.append(("V2", "error", mutate_delete(OM.operator), False))
    cases.append(("V3", "warning", mutate_delete(V.vdi3682.isAssignedTo, subject=Iri(f"{EHSA_BASE}/PressureStabilization")), False))
    cases.append(("V4", "warning", mutate_delete(V.cpsmod.isDataFor), False))
    cases.append(("V5", "warning", mutate_delete(V.vdi3682.hasInput, subject=Iri(f"{EHSA_BASE}/HydraulicControl")), False))
    cases.append(("V6", "error", mutate_delete(V.dinen61360.hasTypeDescription, subject=Iri(f"{EHSA_BASE}/Q1_DE")), False))

    victim = ehsa_graph.triples(None, OM.operator, symbol_iri(Symbol("relation1", "eq")))[0]
    swapped = edited(ehsa_graph, drop=[victim], add=[Triple(victim.subject, OM.operator, symbol_iri(Symbol("nocd1", "mystery")))])
    cases.append(("V7", "warning", swapped, True))

    passed = 0
    for rule, severity, mutated, strict in cases:
        report_obj = validate(mutated, strict=strict)
        assert len(report_obj.findings) == 1, f"{rule}: expected one finding, got\n{report_obj.to_text()}"
        finding = report_obj.findings[0]
        assert finding.rule == rule and finding.severity == severity
        passed += 1
    assert passed == 7


# --- criterion 7 -------------------------------------------------------------


@criterion(7, "CLI contract: exit codes and outputs for every subcommand")
def test_criterion_7_cli_contract(run_cli, tmp_path, golden_text, eq1_tree):
    manifest = str(FIXTURES / "manifest.json")
    eq1_xml = str(FIXTURES / "chamber1_pressure_rate.om.xml")
    rhs_xml = str(FIXTURES / "chamber1_pressure_rate_rhs.om.xml")
    bindings = str(FIXTURES / "bindings_chamber1.json")

    # build: golden bytes and failure mode
    out = tmp_path / "graph.nt"
    assert run_cli("build", "--manifest", manifest, "--out", str(out)).returncode == 0
    assert out.read_text(encoding="utf-8") == golden_text
    assert run_cli("build", "--manifest", "/nonexistent.json").returncode == 2

    # om2rdf: turtle output and parse failure
    converted = run_cli("om2rdf", "--in", eq1_xml, "--base", EHSA_BASE, "--id", "eq1")
    assert converted.returncode == 0
    assert "om:operator <http://www.openmath.org/cd/relation1#eq>" in converted.stdout
    bad_xml = tmp_path / "bad.xml"
    bad_xml.write_text("<OMOBJ>", encoding="utf-8")
    assert run_cli("om2rdf", "--in", str(bad_xml)).returncode == 1

    # rdf2om: golden fragment back to XML
    recovered = run_cli("rdf2om", "--in", str(out), "--root", f"{EHSA_BASE}/expr/chamber1_pressure_rate")
    assert recovered.returncode == 0
    assert parse_openmath_xml(recovered.stdout) == eq1_tree
    assert run_cli("rdf2om", "--in", str(out), "--root", f"{EHSA_BASE}/nothing-here").returncode == 1

    # validate: clean graph, and exit policy on findings
    assert run_cli("validate", "--in", str(out)).returncode == 0
    assert run_cli("validate", "--in", str(out), "--strict").returncode == 0

    # query: the operator listing, sorted
    queried = run_cli("query", "--in", str(out), "--pattern", "?op a vdi3682:ProcessOperator")
    assert queried.returncode == 0
    assert queried.stdout.splitlines() == [
        f"{EHSA_BASE}/HydraulicControl",
        f"{EHSA_BASE}/LinearMotionExecution",
        f"{EHSA_BASE}/PressureStabilization",
    ]
    assert run_cli("query", "--in", str(out), "--pattern", "?x ?y").returncode == 1

    # export: first listing line re-parses to the chamber-1 equation
    exported = run_cli("export", "--in", str(out), "--operator", f"{EHSA_BASE}/LinearMotionExecution")
    assert exported.returncode == 0
    assert parse_infix(exported.stdout.splitlines()[0]) == eq1_tree

    # eval: documented value, and the missing-binding failure mode
    evaluated = run_cli("eval", "--in", rhs_xml, "--bindings", bindings)
    assert evaluated.returncode == 0
    assert evaluated.stdout.strip() == "0.15"
    empty = tmp_path / "empty.json"
    empty.write_text("{}", encoding="utf-8")
    assert run_cli("eval", "--in", rhs_xml, "--bindings", str(empty)).returncode == 1
