"""End-to-end checks of ``python -m cpskg`` in fresh interpreters.

Determinism is an invariant of the output: each build here writes the same
bytes under two hash seeds, so no set or dict order can reach it. The
manifest check, start-up imports and help pages are checked the same way,
through the command line a user runs.
"""

from __future__ import annotations

import json
import re
import shutil
from pathlib import Path

from conftest import FIXTURES, perfbench_inputs

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
