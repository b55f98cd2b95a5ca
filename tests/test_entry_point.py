"""End-to-end checks of ``python -m cpskg`` in fresh interpreters.

Determinism is an invariant of the output: each command here writes the
same bytes under two hash seeds, so no set or dict order can reach it.
"""

from __future__ import annotations

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
