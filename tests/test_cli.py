from __future__ import annotations

import json

from cpskg.infix import parse_infix
from cpskg.om.xmlio import parse_openmath_xml
from cpskg.rdf import RDF, Graph, Iri, Literal, Triple, from_ntriples, to_ntriples
from cpskg.validator import validate
from conftest import EHSA_BASE, FIXTURES

MANIFEST = str(FIXTURES / "manifest.json")
EQ1_XML = str(FIXTURES / "chamber1_pressure_rate.om.xml")
EQ1_RHS_XML = str(FIXTURES / "chamber1_pressure_rate_rhs.om.xml")
BINDINGS = str(FIXTURES / "bindings_chamber1.json")
GOLDEN = str(FIXTURES / "golden.nt")


def test_om2rdf_turtle_contains_equality_operator(run_cli, tmp_path):
    out = tmp_path / "eq1.ttl"
    result = run_cli("om2rdf", "--in", EQ1_XML, "--base", EHSA_BASE, "--id", "eq1", "--out", str(out))
    assert result.returncode == 0, result.stderr
    text = out.read_text(encoding="utf-8")
    assert "om:operator <http://www.openmath.org/cd/relation1#eq>" in text


def test_om2rdf_ntriples_round_trips(run_cli, tmp_path, eq1_tree):
    out = tmp_path / "eq1.nt"
    result = run_cli("om2rdf", "--in", EQ1_XML, "--base", EHSA_BASE, "--id", "e", "--format", "ntriples", "--out", str(out))
    assert result.returncode == 0, result.stderr
    graph = from_ntriples(out.read_bytes())
    back = run_cli("rdf2om", "--in", str(out), "--root", f"{EHSA_BASE}/expr/e")
    assert back.returncode == 0, back.stderr
    assert parse_openmath_xml(back.stdout) == eq1_tree
    assert len(graph) == 101


def test_om2rdf_missing_file_exits_2(run_cli):
    result = run_cli("om2rdf", "--in", "/nonexistent/file.xml")
    assert result.returncode == 2
    assert result.stderr


def test_om2rdf_malformed_xml_exits_1(run_cli, tmp_path):
    bad = tmp_path / "bad.xml"
    bad.write_text("<OMOBJ><OMV", encoding="utf-8")
    result = run_cli("om2rdf", "--in", str(bad))
    assert result.returncode == 1


def test_rdf2om_unknown_root_exits_1(run_cli):
    result = run_cli("rdf2om", "--in", GOLDEN, "--root", "http://example.org/ehsa/NoSuchNode")
    assert result.returncode == 1


def test_rdf2om_cyclic_list_exits_1(run_cli, tmp_path):
    graph = from_ntriples(open(GOLDEN, "rb").read())
    tail = graph.triples(None, RDF.rest, RDF.nil)[0]
    graph.discard(tail)
    graph.add(Triple(tail.subject, RDF.rest, tail.subject))
    broken = tmp_path / "broken.nt"
    broken.write_text(to_ntriples(graph), encoding="utf-8")
    result = run_cli("rdf2om", "--in", str(broken), "--root", f"{EHSA_BASE}/expr/chamber1_pressure_rate")
    assert result.returncode == 1
    assert "cyclic" in result.stderr


def test_build_reproduces_golden_bytes(run_cli, tmp_path, golden_text):
    out = tmp_path / "graph.nt"
    result = run_cli("build", "--manifest", MANIFEST, "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert out.read_text(encoding="utf-8") == golden_text


def test_build_check_only_writes_nothing(run_cli, tmp_path):
    result = run_cli("build", "--manifest", MANIFEST, "--check-only")
    assert result.returncode == 0
    assert result.stdout == ""
    assert "manifest OK" in result.stderr


def test_build_dangling_reference_exits_1(run_cli, tmp_path):
    data = json.loads(open(MANIFEST, encoding="utf-8").read())
    data["processes"][0]["operators"][0]["assignedResource"] = "Ghost"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    result = run_cli("build", "--manifest", str(bad))
    assert result.returncode == 1
    assert "$.processes[0].operators[0].assignedResource" in result.stderr


def test_validate_golden_graph_clean(run_cli):
    result = run_cli("validate", "--in", GOLDEN)
    assert result.returncode == 0
    assert result.stdout == ""


def test_validate_error_mutation_exits_1(run_cli, tmp_path, ehsa_graph):
    mutated = ehsa_graph.copy()
    mutated.discard(mutated.triples(None, RDF.rest, RDF.nil)[0])
    path = tmp_path / "broken.nt"
    path.write_text(to_ntriples(mutated), encoding="utf-8")
    result = run_cli("validate", "--in", str(path))
    assert result.returncode == 1
    assert result.stdout.startswith("V1 error ")
    assert len(result.stdout.splitlines()) == 1


def test_validate_warning_only_strict_flag(run_cli, tmp_path, ehsa_graph, vocab):
    mutated = ehsa_graph.copy()
    mutated.discard(mutated.triples(None, vocab.cpsmod.isDataFor)[0])
    path = tmp_path / "warned.nt"
    path.write_text(to_ntriples(mutated), encoding="utf-8")
    relaxed = run_cli("validate", "--in", str(path))
    assert relaxed.returncode == 0
    assert relaxed.stdout.startswith("V4 warning ")
    strict = run_cli("validate", "--in", str(path), "--strict")
    assert strict.returncode == 1


def test_validate_json_lines(run_cli, tmp_path, ehsa_graph, vocab):
    mutated = ehsa_graph.copy()
    mutated.discard(mutated.triples(None, vocab.cpsmod.isDataFor)[0])
    path = tmp_path / "warned.nt"
    path.write_text(to_ntriples(mutated), encoding="utf-8")
    result = run_cli("validate", "--in", str(path), "--json")
    record = json.loads(result.stdout.splitlines()[0])
    assert record["rule"] == "V4"


def test_query_operators_sorted(run_cli):
    result = run_cli("query", "--in", GOLDEN, "--pattern", "?op a vdi3682:ProcessOperator")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines == sorted(lines)
    assert lines == [
        f"{EHSA_BASE}/HydraulicControl",
        f"{EHSA_BASE}/LinearMotionExecution",
        f"{EHSA_BASE}/PressureStabilization",
    ]


def test_query_join_with_base_prefix(run_cli):
    result = run_cli(
        "query",
        "--in",
        GOLDEN,
        "--base",
        EHSA_BASE,
        "--pattern",
        "ex:LinearMotionExecution vdi3682:isAssignedTo ?res",
    )
    assert result.returncode == 0
    assert result.stdout.strip() == f"{EHSA_BASE}/ActuatorMainRam"


def test_query_no_match_is_empty_success(run_cli):
    result = run_cli("query", "--in", GOLDEN, "--pattern", "?x a vdi3682:Process . ?x a vdi2206:Module")
    assert result.returncode == 0
    assert result.stdout == ""


def test_query_escapes_literals_in_rows(run_cli, tmp_path):
    graph = Graph()
    graph.add(Triple(Iri(f"{EHSA_BASE}/s"), Iri(f"{EHSA_BASE}/p"), Literal('two\nlines\tand "quotes"')))
    path = tmp_path / "literal.nt"
    path.write_text(to_ntriples(graph), encoding="utf-8")
    result = run_cli("query", "--in", str(path), "--pattern", "?a ?b ?c")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [f'{EHSA_BASE}/s\t{EHSA_BASE}/p\t"two\\nlines\\tand \\"quotes\\""']


def test_non_absolute_base_exits_1(run_cli):
    for args in (
        ("om2rdf", "--in", EQ1_XML, "--base", "not-an-iri"),
        ("query", "--in", GOLDEN, "--base", "not-an-iri", "--pattern", "ex:LinearMotionExecution ?p ?o"),
    ):
        result = run_cli(*args)
        assert result.returncode == 1, args
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr


def test_om2rdf_deep_chain_exits_1(run_cli, tmp_path):
    depth = 3000
    deep = tmp_path / "deep.xml"
    deep.write_text("<OMOBJ>" + '<OMA><OMS cd="arith1" name="unary_minus"/>' * depth + '<OMV name="x"/>' + "</OMA>" * depth + "</OMOBJ>", encoding="utf-8")
    result = run_cli("om2rdf", "--in", str(deep))
    assert result.returncode == 1
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


def test_query_malformed_pattern_exits_1(run_cli):
    result = run_cli("query", "--in", GOLDEN, "--pattern", "?x only-two-terms")
    assert result.returncode == 1


def test_export_listing_and_table(run_cli, eq1_tree):
    result = run_cli("export", "--in", GOLDEN, "--operator", f"{EHSA_BASE}/LinearMotionExecution")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert parse_infix(lines[0]) == eq1_tree
    assert lines[2] == ""  # blank line between listing and table
    table = lines[3:]
    assert any(row.startswith("Q1\t") for row in table)
    for row in table:
        name, element, description = row.split("\t")
        assert element.startswith(EHSA_BASE)
        assert description.startswith(EHSA_BASE)


def test_export_table_agrees_with_v4(run_cli, tmp_path, ehsa_graph, vocab):
    """Export and rule V4 walk a fragment with the same code: unlinking one
    variable drops exactly its row and makes V4 warn on exactly that node."""
    operator = f"{EHSA_BASE}/LinearMotionExecution"
    before = run_cli("export", "--in", GOLDEN, "--operator", operator)
    (victim,) = ehsa_graph.triples(None, vocab.cpsmod.isDataFor, Iri(f"{EHSA_BASE}/Q1_DE"))
    mutated = ehsa_graph.copy()
    mutated.discard(victim)
    path = tmp_path / "unlinked.nt"
    path.write_text(to_ntriples(mutated), encoding="utf-8")
    after = run_cli("export", "--in", str(path), "--operator", operator)
    assert before.returncode == after.returncode == 0
    left = set(before.stdout.splitlines()) - set(after.stdout.splitlines())
    assert [row.split("\t")[1] for row in left] == [victim.object.value]
    assert set(after.stdout.splitlines()) <= set(before.stdout.splitlines())
    assert [(f.rule, f.node) for f in validate(mutated).findings] == [("V4", victim.subject)]


def test_export_without_behavior_model(run_cli):
    result = run_cli("export", "--in", GOLDEN, "--operator", f"{EHSA_BASE}/HydraulicControl")
    assert result.returncode == 0
    assert result.stdout == ""
    assert "no behavior model" in result.stderr


def test_eval_xml_prints_value(run_cli):
    result = run_cli("eval", "--in", EQ1_RHS_XML, "--bindings", BINDINGS)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0.15"


def test_eval_from_graph_root(run_cli, tmp_path):
    fragment = tmp_path / "rhs.nt"
    built = run_cli("om2rdf", "--in", EQ1_RHS_XML, "--base", EHSA_BASE, "--id", "rhs", "--format", "ntriples", "--out", str(fragment))
    assert built.returncode == 0, built.stderr
    result = run_cli("eval", "--in", str(fragment), "--root", f"{EHSA_BASE}/expr/rhs", "--bindings", BINDINGS)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0.15"


def test_eval_full_equation_hits_differential_operator(run_cli):
    # the full equation contains a differential operator, so evaluation
    # must be pointed at the right-hand side subtree
    result = run_cli("eval", "--in", GOLDEN, "--root", f"{EHSA_BASE}/expr/chamber1_pressure_rate", "--bindings", BINDINGS)
    assert result.returncode == 1
    assert "partialdiff" in result.stderr


def test_eval_missing_binding_names_variable(run_cli, tmp_path):
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"beta": 1.0}), encoding="utf-8")
    result = run_cli("eval", "--in", EQ1_RHS_XML, "--bindings", str(partial))
    assert result.returncode == 1
    assert "Q1" in result.stderr or "unbound" in result.stderr


def test_eval_unsupported_operator_exits_1(run_cli):
    result = run_cli("eval", "--in", EQ1_XML, "--bindings", BINDINGS)
    assert result.returncode == 1
    assert "not numerically evaluable" in result.stderr


def test_config_overrides_namespace(run_cli, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"namespaces": {"om": "http://custom.example/om#"}}), encoding="utf-8")
    result = run_cli("--config", str(config), "om2rdf", "--in", EQ1_XML, "--base", EHSA_BASE, "--id", "e")
    assert result.returncode == 0
    assert "http://custom.example/om#" in result.stdout
