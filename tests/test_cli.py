from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import tracemalloc

import pytest

import cpskg
from cpskg import cli
from cpskg.infix import parse_infix
from cpskg.mapper import om_to_rdf
from cpskg.om.xmlio import parse_openmath_xml, serialize_openmath_xml
from cpskg.rdf import RDF, Graph, Iri, Literal, Triple, from_ntriples, ntriples_chunks, to_ntriples
from cpskg.validator import validate
from conftest import EHSA_BASE, FIXTURES, REPO, edited
from test_manifest import minimal_manifest

MANIFEST = str(FIXTURES / "manifest.json")
EQ1_XML = str(FIXTURES / "chamber1_pressure_rate.om.xml")
EQ1_RHS_XML = str(FIXTURES / "chamber1_pressure_rate_rhs.om.xml")
BINDINGS = str(FIXTURES / "bindings_chamber1.json")
GOLDEN = str(FIXTURES / "golden.nt")


# one command line per command, with the namespace fields it parses to
PARSED = [
    (
        ["om2rdf", "--in", "eq.xml", "--id", "e"],
        {"config": None, "command": "om2rdf", "func": cli.cmd_om2rdf, "in_path": "eq.xml", "base": "http://example.org/model", "id": "e", "out": None, "format": "turtle"},
    ),
    (
        ["rdf2om", "--in", "g.nt", "--root", "http://example.org/r", "--out", "r.xml"],
        {"config": None, "command": "rdf2om", "func": cli.cmd_rdf2om, "in_path": "g.nt", "root": "http://example.org/r", "out": "r.xml"},
    ),
    (
        ["--config", "c.json", "build", "--manifest", "m.json", "--check-only"],
        {"config": "c.json", "command": "build", "func": cli.cmd_build, "manifest": "m.json", "out": None, "format": "ntriples", "check_only": True},
    ),
    (
        ["validate", "--in", "g.nt", "--strict"],
        {"config": None, "command": "validate", "func": cli.cmd_validate, "in_path": "g.nt", "strict": True, "json": False},
    ),
    (
        ["query", "--in", "g.nt", "--pattern", "?s ?p ?o"],
        {"config": None, "command": "query", "func": cli.cmd_query, "in_path": "g.nt", "pattern": "?s ?p ?o", "base": None},
    ),
    (
        ["export", "--in", "g.nt", "--operator", "http://example.org/op"],
        {"config": None, "command": "export", "func": cli.cmd_export, "in_path": "g.nt", "operator": "http://example.org/op"},
    ),
    (
        ["eval", "--in", "x.xml", "--bindings", "b.json"],
        {"config": None, "command": "eval", "func": cli.cmd_eval, "in_path": "x.xml", "root": None, "bindings": "b.json"},
    ),
]

HELP_LINES = {
    "om2rdf": "map an OpenMath XML file to an RDF expression fragment",
    "rdf2om": "reconstruct OpenMath XML from a graph node",
    "build": "compile a manifest into a graph",
    "validate": "shape-check a graph",
    "query": "match a basic graph pattern",
    "export": "list an operator's equations and variable table",
    "eval": "numerically evaluate an expression under bindings",
}


@pytest.mark.parametrize("argv, fields", PARSED, ids=[fields["command"] for _, fields in PARSED])
def test_command_line_parses_to_its_fields(argv, fields):
    assert vars(cli.parse_args(argv)) == fields


@pytest.mark.parametrize("flag", ["--config", "--conf", "--config="])
def test_config_goes_before_the_command_and_may_be_abbreviated(flag):
    head = [flag + "c.json"] if flag.endswith("=") else [flag, "c.json"]
    assert cli.parse_args([*head, "validate", "--in", "g.nt"]).config == "c.json"


def test_command_options_may_be_abbreviated():
    args = cli.parse_args(["validate", "--in", "g.nt", "--str"])
    assert (args.strict, args.json) == (True, False)


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "error: the following arguments are required: command"),
        (["frobnicate"], "error: argument command: invalid choice: 'frobnicate'"),
        (["validate"], "cpskg validate: error: the following arguments are required: --in"),
        (["eval", "--in", "x.xml"], "cpskg eval: error: the following arguments are required: --bindings"),
        (["om2rdf", "--in", "x.xml", "--format", "xml"], "error: argument --format: invalid choice: 'xml'"),
        (["validate", "--in", "g.nt", "--bogus"], "error: unrecognized arguments: --bogus"),
        (["validate", "--in", "g.nt", "--config", "c.json"], "error: unrecognized arguments: --config c.json"),
    ],
)
def test_usage_error_exits_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err.splitlines()[-1]


@pytest.mark.parametrize("command", HELP_LINES)
def test_command_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: cpskg {command} [-h] ")


def test_help_lists_every_command_with_its_help_line(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    listed = {}
    for line in capsys.readouterr().out.splitlines():
        name, _, text = line.strip().partition(" ")
        if name in HELP_LINES:
            listed[name] = text.strip()
    assert listed == HELP_LINES


def test_usage_errors_between_commands_change_no_output(capsys):
    """Each main() call parses with parsers of its own: a command's output
    is the same whether or not a usage error came just before it."""
    runs = [
        ["validate", "--in", GOLDEN, "--strict"],
        ["query", "--in", GOLDEN, "--pattern", "?op a vdi3682:ProcessOperator"],
        ["export", "--in", GOLDEN, "--operator", f"{EHSA_BASE}/LinearMotionExecution"],
        ["eval", "--in", EQ1_RHS_XML, "--bindings", BINDINGS],
    ]
    alone = []
    for argv in runs:
        alone.append((cli.main(argv), capsys.readouterr()))
    for argv, expected in zip(runs, alone):
        with pytest.raises(SystemExit) as exc:
            cli.main([argv[0], "--bogus"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert (cli.main(argv), capsys.readouterr()) == expected
    assert [code for code, _ in alone] == [0, 0, 0, 0]


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


def test_ntriples_output_is_written_without_the_whole_document(tmp_path):
    """The CLI writer holds one run of subjects' lines at a time: writing a
    graph of 2·10⁴ triples, 5,000 observation-like subjects of four each,
    traces less than a quarter of the document's size (a whole-document
    copy alone is all of it), and the file holds to_ntriples' bytes."""
    graph = Graph()
    base = "http://example.org/big"
    for i in range(5_000):
        node = Iri(f"{base}/observation/{i}")
        graph.add(node, RDF.type, Iri("http://www.w3.org/ns/sosa/Observation"))
        graph.add(node, Iri("http://www.w3.org/ns/sosa/hasFeatureOfInterest"), Iri(f"{base}/feature/{i % 7}"))
        graph.add(node, Iri("http://www.w3.org/ns/sosa/hasSimpleResult"), Literal(f"{i}.5", Iri("http://www.w3.org/2001/XMLSchema#double")))
        graph.add(node, Iri("http://www.w3.org/ns/sosa/resultTime"), Literal(f"2024-01-01T00:00:{i % 60:02d}Z"))
    out = tmp_path / "big.nt"
    tracemalloc.start()
    try:
        cli._write_output(ntriples_chunks(graph), str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    document = to_ntriples(graph)
    assert len(graph) == 20_000
    assert peak < len(document) / 4
    assert out.read_bytes() == document.encode("utf-8")


def _probe(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter with src/ on the path."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_import_leaves_network_and_mail_modules_unloaded():
    """Start-up guard: none of these slow imports is on cpskg's import path;
    dataclasses would bring inspect, and only the tests use jsonschema."""
    unwanted = "{'urllib.request', 'http.client', 'email', 'jsonschema', 'dataclasses', 'inspect'}"
    probe = f"import sys, cpskg, cpskg.cli; print(sorted({unwanted} & set(sys.modules)))"
    assert _probe(probe) == "[]\n"


def test_every_exported_name_resolves():
    """Each name in the ``__all__`` of the package and of each of its
    modules is an attribute of it, so a deleted name cannot stay exported."""
    modules = [cpskg, *(importlib.import_module(m.name) for m in pkgutil.walk_packages(cpskg.__path__, "cpskg."))]
    exporting = [module for module in modules if hasattr(module, "__all__")]
    assert {"cpskg", "cpskg.mapper", "cpskg.om", "cpskg.om.tree"} <= {module.__name__ for module in exporting}
    for module in exporting:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_build_of_a_valid_manifest_leaves_jsonschema_unloaded(tmp_path, golden_text):
    out = tmp_path / "ehsa.nt"
    probe = (
        "import sys; from cpskg.cli import main; "
        f"status = main(['build', '--manifest', {MANIFEST!r}, '--out', {str(out)!r}]); "
        "print(status, 'jsonschema' in sys.modules)"
    )
    assert _probe(probe) == "0 False\n"
    assert out.read_text(encoding="utf-8") == golden_text


def test_rejected_manifest_is_reported_without_jsonschema(tmp_path):
    """The schema errors of a rejected manifest are cpskg's own: with
    jsonschema made unimportable, ``build --check-only`` still names the path
    and the problem."""
    manifest = json.loads((FIXTURES / "manifest.json").read_text(encoding="utf-8"))
    manifest["processes"][0]["operators"][0]["id"] = 5
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    probe = (
        "import contextlib, io, sys; sys.modules['jsonschema'] = None; from cpskg.cli import main; stderr = io.StringIO()\n"
        f"with contextlib.redirect_stderr(stderr): status = main(['build', '--manifest', {str(path)!r}, '--check-only'])\n"
        "print(status); print(stderr.getvalue(), end='')"
    )
    status, *lines = _probe(probe).splitlines()
    assert status == "1"
    assert "  $.processes[0].operators[0].id: 5 is not of type 'string'" in lines


def test_om2rdf_missing_file_exits_2(run_cli):
    result = run_cli("om2rdf", "--in", "/nonexistent/file.xml")
    assert result.returncode == 2
    assert result.stderr


def test_om2rdf_malformed_xml_exits_1(run_cli, tmp_path):
    bad = tmp_path / "bad.xml"
    bad.write_text("<OMOBJ><OMV", encoding="utf-8")
    result = run_cli("om2rdf", "--in", str(bad))
    assert result.returncode == 1


def test_om2rdf_non_finite_float_exits_1(run_cli, tmp_path):
    source = tmp_path / "inf.xml"
    source.write_text('<OMOBJ><OMF dec="INF"/></OMOBJ>', encoding="utf-8")
    result = run_cli("om2rdf", "--in", str(source))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, result.stderr


def test_rdf2om_unknown_root_exits_1(run_cli):
    result = run_cli("rdf2om", "--in", GOLDEN, "--root", "http://example.org/ehsa/NoSuchNode")
    assert result.returncode == 1


@pytest.mark.parametrize("command", ["rdf2om", "eval"])
def test_mistyped_root_is_named_as_no_node(run_cli, command):
    """A root that is no subject of the graph is reported as such, not as
    an operator IRI outside the CD base."""
    root = "http://example.org/nothing"
    extra = ["--bindings", BINDINGS] if command == "eval" else []
    result = run_cli(command, "--in", GOLDEN, "--root", root, *extra)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == f"error: root is not a node of the graph: {root}\n"


def test_rdf2om_wrapper_rooted_at_itself_exits_1(run_cli, tmp_path, ehsa_graph, vocab):
    wrapper = Iri(f"{EHSA_BASE}/expr/chamber1_pressure_rate")
    graph = edited(ehsa_graph, drop=ehsa_graph.triples(wrapper, vocab.om.root), add=[Triple(wrapper, vocab.om.root, wrapper)])
    broken = tmp_path / "broken.nt"
    broken.write_text(to_ntriples(graph), encoding="utf-8")
    result = run_cli("rdf2om", "--in", str(broken), "--root", wrapper.value)
    assert result.returncode == 1
    assert result.stderr == f"error: om:root chain is cyclic at {wrapper.value}\n"


def test_rdf2om_cyclic_list_exits_1(run_cli, tmp_path):
    graph = from_ntriples(open(GOLDEN, "rb").read())
    tail = graph.triples(None, RDF.rest, RDF.nil)[0]
    graph = edited(graph, drop=[tail], add=[Triple(tail.subject, RDF.rest, tail.subject)])
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


def test_build_id_ending_in_a_newline_exits_1(run_cli, tmp_path):
    data = json.loads(open(MANIFEST, encoding="utf-8").read())
    data["lifecycleRecord"]["id"] += "\n"
    for equation in FIXTURES.glob("*.om.xml"):  # so that only the id is wrong
        (tmp_path / equation.name).write_bytes(equation.read_bytes())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    result = run_cli("build", "--manifest", str(bad), "--out", str(tmp_path / "g.nt"))
    assert result.returncode == 1
    assert [line for line in result.stderr.splitlines() if line.startswith("error:")] == ["error: manifest invalid:"]
    assert "  $.lifecycleRecord.id: " in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "g.nt").exists()


def test_build_of_an_equation_too_deep_to_parse_names_its_path_and_exits_1(run_cli, tmp_path):
    data = minimal_manifest()
    data["processes"][0]["operators"][0]["equations"][0]["infix"] = "y = " + "sin(" * 300 + "x" + ")" * 300
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    result = run_cli("build", "--manifest", str(bad), "--check-only")
    assert result.returncode == 1
    assert result.stderr.splitlines() == [
        "error: manifest invalid:",
        "  $.processes[0].operators[0].equations[0]: equation nested too deep: parsing or mapping it exceeds Python's recursion limit",
    ]
    assert "Traceback" not in result.stderr


def test_build_instance_base_that_cannot_prefix_an_iri_exits_1(run_cli, tmp_path):
    data = minimal_manifest()
    data["instanceBase"] = "http://example.org/a b"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    result = run_cli("build", "--manifest", str(bad), "--out", str(tmp_path / "g.nt"))
    assert result.returncode == 1
    assert [line for line in result.stderr.splitlines() if line.startswith("error:")] == ["error: manifest invalid:"]
    assert "  $.instanceBase: " in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "g.nt").exists()


@pytest.mark.parametrize("source", ["infix", "xmlPath"])
def test_build_integer_literal_too_long_exits_1(run_cli, tmp_path, source):
    digits = "9" * 5000
    (tmp_path / "eq.om.xml").write_text(
        f'<OMOBJ><OMA><OMS cd="arith1" name="times"/><OMI>{digits}</OMI><OMV name="x"/></OMA></OMOBJ>',
        encoding="utf-8",
    )
    data = minimal_manifest()
    equation = {"infix": f"y = {digits}*x", "xmlPath": "eq.om.xml"}[source]
    data["processes"][0]["operators"][0]["equations"] = [{"id": "huge", source: equation}]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(data), encoding="utf-8")
    result = run_cli("build", "--manifest", str(manifest))
    assert result.returncode == 1
    assert [line for line in result.stderr.splitlines() if line.startswith("error:")] == ["error: manifest invalid:"]
    assert "$.processes[0].operators[0].equations[0]" in result.stderr
    assert "5000 digits" in result.stderr
    assert "Traceback" not in result.stderr


def test_validate_golden_graph_clean(run_cli):
    result = run_cli("validate", "--in", GOLDEN)
    assert result.returncode == 0
    assert result.stdout == ""


def test_validate_error_mutation_exits_1(run_cli, tmp_path, ehsa_graph):
    mutated = edited(ehsa_graph, drop=ehsa_graph.triples(None, RDF.rest, RDF.nil)[:1])
    path = tmp_path / "broken.nt"
    path.write_text(to_ntriples(mutated), encoding="utf-8")
    result = run_cli("validate", "--in", str(path))
    assert result.returncode == 1
    assert result.stdout.startswith("V1 error ")
    assert len(result.stdout.splitlines()) == 1


def test_validate_warning_only_strict_flag(run_cli, tmp_path, ehsa_graph, vocab):
    mutated = edited(ehsa_graph, drop=ehsa_graph.triples(None, vocab.cpsmod.isDataFor)[:1])
    path = tmp_path / "warned.nt"
    path.write_text(to_ntriples(mutated), encoding="utf-8")
    relaxed = run_cli("validate", "--in", str(path))
    assert relaxed.returncode == 0
    assert relaxed.stdout.startswith("V4 warning ")
    strict = run_cli("validate", "--in", str(path), "--strict")
    assert strict.returncode == 1


def test_validate_json_lines(run_cli, tmp_path, ehsa_graph, vocab):
    mutated = edited(ehsa_graph, drop=ehsa_graph.triples(None, vocab.cpsmod.isDataFor)[:1])
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
    graph.add(Iri(f"{EHSA_BASE}/s"), Iri(f"{EHSA_BASE}/p"), Literal('two\nlines\tand "quotes"'))
    path = tmp_path / "literal.nt"
    path.write_text(to_ntriples(graph), encoding="utf-8")
    result = run_cli("query", "--in", str(path), "--pattern", "?a ?b ?c")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [f'{EHSA_BASE}/s\t{EHSA_BASE}/p\t"two\\nlines\\tand \\"quotes\\""']


def test_query_rows_paste_back_as_patterns(run_cli, tmp_path):
    """A literal that query prints is valid pattern syntax for that literal."""
    graph = Graph()
    graph.add(Iri(f"{EHSA_BASE}/s1"), Iri(f"{EHSA_BASE}/p"), Literal("a\nb"))
    graph.add(Iri(f"{EHSA_BASE}/s2"), Iri(f"{EHSA_BASE}/p"), Literal("x", lang="en"))
    path = tmp_path / "literals.nt"
    path.write_text(to_ntriples(graph), encoding="utf-8")
    rows = run_cli("query", "--in", str(path), "--pattern", "?a ?b ?c").stdout.splitlines()
    assert [row.split("\t")[2] for row in rows] == ['"a\\nb"', '"x"@en']
    for row in rows:
        subject, predicate, literal = row.split("\t")
        result = run_cli("query", "--in", str(path), "--pattern", f"?a ?b {literal}")
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [f"{subject}\t{predicate}"]


def test_validate_non_utf8_input_exits_1(run_cli, tmp_path):
    path = tmp_path / "utf16.nt"
    path.write_bytes("<http://example.org/s> <http://example.org/p> <http://example.org/o> .\n".encode("utf-16"))
    result = run_cli("validate", "--in", str(path))
    assert result.returncode == 1
    assert result.stderr.startswith("error: line 1: ")
    assert "Traceback" not in result.stderr


def test_query_escape_past_the_last_code_point_exits_1(run_cli, tmp_path):
    path = tmp_path / "escape.nt"
    path.write_text('<http://example.org/s> <http://example.org/p> "\\UFFFFFFFF" .\n', encoding="utf-8")
    result = run_cli("query", "--in", str(path), "--pattern", "?s ?p ?o")
    assert result.returncode == 1
    assert result.stderr.startswith("error: line 1: escape is not a Unicode scalar value: ")
    assert "Traceback" not in result.stderr


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


@pytest.mark.parametrize(
    "args",
    [
        ("build", "--manifest", "{deep}"),
        ("--config", "{deep}", "build", "--manifest", MANIFEST),
        ("eval", "--in", GOLDEN, "--root", f"{EHSA_BASE}/expr/chamber1_pressure_rate", "--bindings", "{deep}"),
    ],
)
def test_json_nested_too_deep_to_read_exits_1(run_cli, tmp_path, args):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    result = run_cli(*(arg.format(deep=deep) for arg in args))
    assert result.returncode == 1
    assert result.stderr.startswith("error: ")
    assert sum(line.startswith("error: ") for line in result.stderr.splitlines()) == 1
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
    mutated = edited(ehsa_graph, drop=[victim])
    path = tmp_path / "unlinked.nt"
    path.write_text(to_ntriples(mutated), encoding="utf-8")
    after = run_cli("export", "--in", str(path), "--operator", operator)
    assert before.returncode == after.returncode == 0
    left = set(before.stdout.splitlines()) - set(after.stdout.splitlines())
    assert [row.split("\t")[1] for row in left] == [victim.object.value]
    assert set(after.stdout.splitlines()) <= set(before.stdout.splitlines())
    assert [(f.rule, f.node) for f in validate(mutated).findings] == [("V4", victim.subject)]


def test_export_prints_an_equation_as_deep_as_build_accepts(run_cli, tmp_path):
    data = minimal_manifest()
    equation = "y = " + "sin(" * 230 + "x" + ")" * 230
    data["processes"][0]["operators"][0]["equations"] = [{"id": "deep", "infix": equation}]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(data), encoding="utf-8")
    graph = tmp_path / "deep.nt"
    built = run_cli("build", "--manifest", str(manifest), "--out", str(graph))
    assert built.returncode == 0, built.stderr
    exported = run_cli("export", "--in", str(graph), "--operator", f"{data['instanceBase']}/Doubler")
    assert exported.returncode == 0, exported.stderr
    assert exported.stdout.splitlines()[0] == equation


def test_export_orders_equations_by_wrapper_iri(run_cli, tmp_path, vocab):
    """Wrappers .../expr/q and .../expr/q/2 sort one way by IRI and the
    other way by N-Triples text ("<.../q/2>" before "<.../q>"): export lists
    by IRI. It lists a wrapper once, however many models hold it, and skips
    a literal where a wrapper should be."""
    base = "http://example.org/m"
    graph = Graph()
    q = om_to_rdf(parse_infix("y = x + 1"), base, "q", graph=graph).object_node
    q2 = om_to_rdf(parse_infix("z = 2*w"), base, "q/2", graph=graph).object_node
    operator, first, second = Iri(f"{base}/Op"), Iri(f"{base}/Op/model"), Iri(f"{base}/Op/model2")
    for model, wrappers in ((first, [q2, q, Literal(q.value)]), (second, [q])):
        graph.add(operator, vocab.cpsmod.processOperatorBehaviorModel, model)
        for wrapper in wrappers:
            graph.add(model, vocab.cpsmod.hasOMObject, wrapper)
    path = tmp_path / "two.nt"
    path.write_text(to_ntriples(graph), encoding="utf-8")
    result = run_cli("export", "--in", str(path), "--operator", operator.value)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "y = x + 1\nz = 2*w\n"


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


def test_eval_sin_of_infinity_exits_1(run_cli, tmp_path):
    xml = tmp_path / "sin.xml"
    product = '<OMA><OMS cd="arith1" name="times"/><OMV name="x"/><OMV name="x"/></OMA>'
    xml.write_text(f'<OMOBJ><OMA><OMS cd="transc1" name="sin"/>{product}</OMA></OMOBJ>', encoding="utf-8")
    bindings = tmp_path / "big.json"
    bindings.write_text('{"x": 1e200}', encoding="utf-8")  # x*x overflows to inf
    result = run_cli("eval", "--in", str(xml), "--bindings", str(bindings))
    assert result.returncode == 1
    assert result.stderr.startswith("error: transc1#sin is undefined at inf")
    assert "Traceback" not in result.stderr


def test_eval_binding_beyond_double_range_exits_1(run_cli, tmp_path):
    bindings = tmp_path / "huge.json"
    bindings.write_text('{"beta": 1' + "0" * 400 + "}", encoding="utf-8")
    result = run_cli("eval", "--in", EQ1_RHS_XML, "--bindings", str(bindings))
    assert result.returncode == 1
    assert result.stderr == "error: binding 'beta' is out of double range\n"


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_eval_non_finite_binding_exits_1(run_cli, tmp_path, text):
    bindings = tmp_path / "bindings.json"
    bindings.write_text(f'{{"beta": {text}}}', encoding="utf-8")
    result = run_cli("eval", "--in", EQ1_RHS_XML, "--bindings", str(bindings))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == f"error: binding 'beta' is not finite: {float(text)!r}\n"


@pytest.mark.parametrize(
    "infix, operator",
    [("exp(1000)", "transc1#exp"), ("10.0^400", "arith1#power"), ("1/0", "arith1#divide"), ("0.0^(-1)", "arith1#power")],
)
def test_eval_overflow_or_division_by_zero_exits_1_naming_the_operator(run_cli, tmp_path, infix, operator):
    xml = tmp_path / "expr.xml"
    xml.write_text(serialize_openmath_xml(parse_infix(infix)), encoding="utf-8")
    bindings = tmp_path / "empty.json"
    bindings.write_text("{}", encoding="utf-8")
    result = run_cli("eval", "--in", str(xml), "--bindings", str(bindings))
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: {operator} ")
    assert result.stderr.count("\n") == 1


def test_cd_base_with_trailing_slash_changes_nothing(run_cli, tmp_path, golden_text):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"cdBase": "http://www.openmath.org/cd/"}), encoding="utf-8")
    graph = tmp_path / "ehsa.nt"
    built = run_cli("--config", str(config), "build", "--manifest", MANIFEST, "--out", str(graph))
    assert built.returncode == 0, built.stderr
    assert graph.read_text(encoding="utf-8") == golden_text
    for args in (
        ("export", "--in", str(graph), "--operator", f"{EHSA_BASE}/LinearMotionExecution"),
        ("rdf2om", "--in", str(graph), "--root", f"{EHSA_BASE}/expr/chamber1_pressure_rate"),
        ("validate", "--in", str(graph), "--strict"),
    ):
        with_slash = run_cli("--config", str(config), *args)
        assert with_slash.returncode == 0, (args, with_slash.stderr)
        assert with_slash.stdout == run_cli(*args).stdout, args


def test_config_overrides_namespace(run_cli, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"namespaces": {"om": "http://custom.example/om#"}}), encoding="utf-8")
    result = run_cli("--config", str(config), "om2rdf", "--in", EQ1_XML, "--base", EHSA_BASE, "--id", "e")
    assert result.returncode == 0
    assert "http://custom.example/om#" in result.stdout


@pytest.mark.parametrize("flag", ["--manifest", "--config", "--bindings"])
def test_non_utf8_json_input_exits_1(run_cli, tmp_path, flag):
    bad = tmp_path / "utf16.json"
    bad.write_bytes("{}".encode("utf-16"))
    args = {
        "--manifest": ("build", "--manifest", str(bad)),
        "--config": ("--config", str(bad), "build", "--manifest", MANIFEST),
        "--bindings": ("eval", "--in", EQ1_RHS_XML, "--bindings", str(bad)),
    }[flag]
    result = run_cli(*args)
    assert result.returncode == 1
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


def test_config_symbols_extend_the_registry(run_cli, tmp_path):
    data = minimal_manifest()
    data["processes"][0]["operators"][0]["equations"] = [{"id": "hyperbolic", "infix": "y = cosh(x)"}]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(data), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"symbols": [{"cd": "transc1", "name": "cosh", "token": "cosh"}]}), encoding="utf-8")

    rejected = run_cli("build", "--manifest", str(manifest))
    assert rejected.returncode == 1
    assert "unknown function" in rejected.stderr

    graph = tmp_path / "graph.nt"
    built = run_cli("--config", str(config), "build", "--manifest", str(manifest), "--out", str(graph))
    assert built.returncode == 0, built.stderr
    exported = run_cli("--config", str(config), "export", "--in", str(graph), "--operator", f"{data['instanceBase']}/Doubler")
    assert exported.returncode == 0, exported.stderr
    assert exported.stdout.splitlines()[0] == "y = cosh(x)"
