from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cpskg.manifest import compile_manifest, load_manifest
from cpskg.om.xmlio import parse_openmath_xml
from cpskg.rdf import Graph
from cpskg.vocab import DEFAULT_VOCAB, CpsVocabulary

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures" / "ehsa"

EHSA_BASE = "http://example.org/ehsa"


def edited(graph: Graph, drop=(), add=()) -> Graph:
    """A new graph: the triples of ``graph`` less those in ``drop``, plus
    those in ``add``. Graphs only grow, so a mutant is built afresh."""
    dropped = set(drop)
    out = Graph()
    for triple in [*(x for x in graph if x not in dropped), *add]:
        out.add(triple.subject, triple.predicate, triple.object)
    return out


def perfbench_inputs():
    """perfbench/inputs.py, which replicates the EHSA manifest and imports no cpskg."""
    if "perfbench_inputs" not in sys.modules:
        spec = importlib.util.spec_from_file_location("perfbench_inputs", REPO / "perfbench" / "inputs.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclass looks itself up there
        spec.loader.exec_module(module)
    return sys.modules["perfbench_inputs"]


@pytest.fixture(scope="session")
def vocab() -> CpsVocabulary:
    return DEFAULT_VOCAB


@pytest.fixture(scope="session")
def ehsa_manifest():
    return load_manifest(FIXTURES / "manifest.json")


@pytest.fixture(scope="session")
def ehsa_graph(ehsa_manifest):
    return compile_manifest(ehsa_manifest)


@pytest.fixture(scope="session")
def golden_text() -> str:
    return (FIXTURES / "golden.nt").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def eq1_tree():
    return parse_openmath_xml((FIXTURES / "chamber1_pressure_rate.om.xml").read_bytes())


@pytest.fixture
def run_cli():
    """Run the installed CLI in a subprocess with src/ on the import path;
    ``env`` adds variables to the inherited environment, and ``text=False``
    gives the output as bytes."""

    def run(*args: str, env: dict[str, str] | None = None, text: bool = True, **kwargs) -> subprocess.CompletedProcess:
        env = dict(os.environ, **(env or {}))
        env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "cpskg", *args],
            capture_output=True,
            text=text,
            env=env,
            **kwargs,
        )

    return run
