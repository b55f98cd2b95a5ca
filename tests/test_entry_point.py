"""End-to-end checks of ``python -m cpskg`` in fresh interpreters.

Determinism is an invariant of the output: each build here writes the same
bytes under two hash seeds, so no set or dict order can reach it. The
manifest check, start-up imports, help pages, the read commands on the
golden graph, on altered copies of it and on a graph of many parser slices,
and the demo script are checked the same way, through the command line a
user runs.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES, REPO, perfbench_inputs

HASH_SEEDS = ("0", "4242")


def _built(run_cli, tmp_path: Path, manifest: Path, *options: str) -> list[bytes]:
    """The bytes ``cpskg build`` writes to ``--out``, once under each hash seed."""
    outputs = []
    for seed in HASH_SEEDS:
        out = tmp_path / f"built-{seed}"
        result = run_cli("build", "--manifest", str(manifest), *options, "--out", str(out), env={"PYTHONHASHSEED": seed})
        assert result.returncode == 0, result.stderr
        outputs.append(out.read_bytes())
    return outputs


def test_build_of_the_k16_replicated_model_is_its_reference(run_cli, tmp_path):
    """The EHSA manifest replicated 16 times (5,085 triples, 32 equations
    from 2 sources). Its reference is written by perfbench/inputs.py, which
    does not use cpskg."""
    inputs = perfbench_inputs()
    fixture = inputs.load_fixture(FIXTURES)
    first, second = _built(run_cli, tmp_path, inputs.write_scaled_model(fixture, 16, tmp_path / "k16"))
    assert first == second
    assert first == inputs.reference_ntriples(fixture, 16).encode("utf-8")


def test_build_writes_the_same_turtle_under_two_hash_seeds(run_cli, tmp_path):
    """Turtle has no golden file, so only its determinism is checked."""
    first, second = _built(run_cli, tmp_path, FIXTURES / "manifest.json", "--format", "turtle")
    assert first and first == second


def test_om2rdf_maps_an_equation_to_the_same_bytes_under_two_hash_seeds(run_cli):
    outputs = []
    for seed in HASH_SEEDS:
        result = run_cli("om2rdf", "--in", str(FIXTURES / "chamber1_pressure_rate.om.xml"), "--format", "ntriples", env={"PYTHONHASHSEED": seed})
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] and outputs[0] == outputs[1]


def _ehsa_edited(tmp_path: Path, edit) -> Path:
    """A copy of the EHSA manifest changed by ``edit``, beside copies of its
    equation files, so every ``xmlPath`` still resolves."""
    for equation in FIXTURES.glob("*.om.xml"):
        shutil.copy(equation, tmp_path)
    manifest = json.loads((FIXTURES / "manifest.json").read_text(encoding="utf-8"))
    edit(manifest)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return path


def _rename_first_input(manifest: dict) -> None:
    manifest["processes"][0]["operators"][0]["inputs"][0] = "NoSuchState"


def _number_first_operator_id(manifest: dict) -> None:
    manifest["processes"][0]["operators"][0]["id"] = 5


def test_build_checks_a_manifest_without_writing_a_graph(run_cli, tmp_path):
    """The EHSA manifest passes the check; a copy with one operator input
    renamed fails at that input."""
    result = run_cli("build", "--manifest", str(FIXTURES / "manifest.json"), "--check-only")
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines() == ["manifest OK: 390 triples"]
    assert result.stdout == ""
    result = run_cli("build", "--manifest", str(_ehsa_edited(tmp_path, _rename_first_input)), "--check-only")
    assert result.returncode == 1
    assert "  $.processes[0].operators[0].inputs[0]: unknown state 'NoSuchState'" in result.stderr.splitlines()


# a line of -X importtime output that imports one of these modules or a submodule
_SLOW_IMPORT = re.compile(r"\|\s+(dataclasses|jsonschema)(\.|$)", re.MULTILINE)


def test_start_up_skips_slow_imports(run_cli, tmp_path):
    """Neither validating a graph nor rejecting a manifest imports
    dataclasses (slow to import and to apply) or jsonschema (which only the
    tests use, as the oracle of the manifest schema's errors)."""
    importtime = {"PYTHONPROFILEIMPORTTIME": "1"}
    result = run_cli("validate", "--strict", "--in", str(FIXTURES / "golden.nt"), env=importtime)
    assert result.returncode == 0, result.stderr
    assert "| cpskg.cli" in result.stderr
    assert _SLOW_IMPORT.findall(result.stderr) == []
    rejected = _ehsa_edited(tmp_path, _number_first_operator_id)
    result = run_cli("build", "--manifest", str(rejected), "--check-only", env=importtime)
    assert result.returncode == 1
    assert "  $.processes[0].operators[0].id: 5 is not of type 'string'" in result.stderr.splitlines()
    assert _SLOW_IMPORT.findall(result.stderr) == []


def test_each_command_prints_its_help(run_cli):
    """Each command builds its own parser: every help page exits 0, and no
    command is a usage error (exit 2)."""
    for command in ([], ["om2rdf"], ["rdf2om"], ["build"], ["validate"], ["query"], ["export"], ["eval"]):
        result = run_cli(*command, "--help")
        assert result.returncode == 0, (command, result.stderr)
        assert result.stdout.startswith("usage: "), command
    result = run_cli()
    assert result.returncode == 2
    assert result.stderr.startswith("usage: ")


# --- the read commands --------------------------------------------------------

GOLDEN = FIXTURES / "golden.nt"
OPERATOR_PATTERN = "?op a vdi3682:ProcessOperator"
RAM_OPERATOR = "http://example.org/ehsa/LinearMotionExecution"
BINDINGS = str(FIXTURES / "bindings_chamber1.json")


def _operator_rows(run_cli, graph: Path) -> int:
    """The lines ``cpskg query`` prints for every process operator of
    ``graph``, after ``cpskg validate --strict`` passes it."""
    result = run_cli("validate", "--strict", "--in", str(graph))
    assert result.returncode == 0, result.stderr
    result = run_cli("query", "--in", str(graph), "--pattern", OPERATOR_PATTERN)
    assert result.returncode == 0, result.stderr
    return result.stdout.count("\n")


def _evaluated(run_cli, graph: Path, root: str) -> str:
    result = run_cli("eval", "--in", str(graph), "--root", root, "--bindings", BINDINGS)
    assert result.returncode == 0, result.stderr
    return result.stdout.rstrip("\n")


def _exported(run_cli, graph: Path, operator: str) -> bytes:
    result = run_cli("export", "--in", str(graph), "--operator", operator, text=False)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_validate_and_query_read_the_golden_graph(run_cli):
    assert _operator_rows(run_cli, GOLDEN) == 3


def test_export_eval_and_rdf2om_read_equations_back_from_the_golden_graph(run_cli, tmp_path):
    """export lists EQ1 of scripts/regen_fixtures.py first, eval gives the
    value the acceptance suite expects, and rdf2om gives back the OpenMath
    file the equation was built from."""
    exported = _exported(run_cli, GOLDEN, RAM_OPERATOR).decode("utf-8")
    assert exported.count("\n") == 17
    eq1 = re.findall(r'^EQ1 = "(.*)"$', (REPO / "scripts" / "regen_fixtures.py").read_text(encoding="utf-8"), re.MULTILINE)
    assert eq1 and eq1[0]
    assert exported.splitlines()[0] == eq1[0]
    assert _evaluated(run_cli, GOLDEN, "http://example.org/ehsa/expr/chamber1_pressure_rate/n6") == "0.15"
    out = tmp_path / "eq1.om.xml"
    result = run_cli("rdf2om", "--in", str(GOLDEN), "--root", "http://example.org/ehsa/expr/chamber1_pressure_rate", "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert out.read_bytes() == (FIXTURES / "chamber1_pressure_rate.om.xml").read_bytes()


def _golden_lines() -> list[str]:
    return GOLDEN.read_text(encoding="utf-8").splitlines()


def test_validate_and_query_read_a_crlf_indented_copy_of_the_golden_graph(run_cli, tmp_path):
    """The parser matches each raw line, whitespace around the statement included."""
    copy = tmp_path / "golden-crlf.nt"
    copy.write_bytes("".join(f"\t{line} \r\n" for line in _golden_lines()).encode("utf-8"))
    assert _operator_rows(run_cli, copy) == 3


def test_validate_names_a_statement_split_over_two_lines(run_cli, tmp_path):
    """N-Triples 1.1 lets a statement end in a comment and leave out the
    space between its terms: a copy of the golden graph with such statements
    on lines 5 and 6 reads up to line 8, which is split over two lines and
    is reported by its number."""
    lines = _golden_lines()
    lines[4] = re.sub(r" \.$", " . # a comment", lines[4])
    lines[5] = re.sub(r" \.$", ".", lines[5].replace("> <", "><"))
    lines[7] = lines[7].replace("> <", ">\n<", 1)
    assert lines[4].endswith("# a comment") and "> <" not in lines[5] and "\n" in lines[7]
    loose = tmp_path / "golden-loose.nt"
    loose.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    result = run_cli("validate", "--in", str(loose))
    assert result.returncode == 1
    assert any("error: line 8: not a valid N-Triples statement" in line for line in result.stderr.splitlines())


@pytest.fixture(scope="module")
def k64_graph(tmp_path_factory) -> Path:
    """The EHSA graph replicated 64 times (3.1 MB), which the parser reads in
    many bounded slices of whole lines, as perfbench/inputs.py writes it
    without using cpskg."""
    inputs = perfbench_inputs()
    path = tmp_path_factory.mktemp("k64") / "k64.nt"
    path.write_text(inputs.reference_ntriples(inputs.load_fixture(FIXTURES), 64), encoding="utf-8", newline="\n")
    return path


def test_validate_and_query_read_a_graph_of_many_parser_slices(run_cli, k64_graph):
    assert k64_graph.read_bytes().count(b"\n") == 20109
    assert _operator_rows(run_cli, k64_graph) == 192


def test_export_and_eval_read_equations_back_from_a_graph_of_many_parser_slices(run_cli, k64_graph):
    """Export of the first and last LinearMotionExecution operators gives
    perfbench's reference listing, which does not use cpskg, and eval of
    the last chamber-1 right-hand side gives the value the acceptance suite
    expects."""
    inputs = perfbench_inputs()
    fixture = inputs.load_fixture(FIXTURES)
    text = k64_graph.read_text(encoding="utf-8")
    operators = inputs.linear_motion_operators(fixture, 64)
    for operator in (operators[0], operators[-1]):
        assert _exported(run_cli, k64_graph, operator) == inputs.expected_export(text, operator).encode("utf-8")
    assert _evaluated(run_cli, k64_graph, inputs.eval_roots(fixture, 64)[-1]) == "0.15"


def test_demo_script_lists_the_equations_that_export_prints(run_cli, tmp_path):
    """scripts/build_ehsa.py exits 1 if the graph does not validate
    strictly. The equations it lists, indented, are those that cpskg export
    prints before its blank line."""
    result = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "build_ehsa.py"), "--out-dir", str(tmp_path / "ehsa")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    listed = [line.lstrip() for line in result.stdout.splitlines() if line[:1].isspace()]
    assert listed
    exported = _exported(run_cli, GOLDEN, RAM_OPERATOR).decode("utf-8").splitlines()
    assert listed == exported[: exported.index("")]
