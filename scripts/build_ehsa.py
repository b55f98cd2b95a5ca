#!/usr/bin/env python3
"""End-to-end demo on the shipped servoactuator model: compile the
manifest, validate the graph, print summary statistics, and export the
ram operator's equations.

Usage: python scripts/build_ehsa.py [--out-dir DIR]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from cpskg.infix import print_infix  # noqa: E402
from cpskg.manifest import compile_manifest, load_manifest  # noqa: E402
from cpskg.mapper import behavior_objects, rdf_to_om  # noqa: E402
from cpskg.rdf import RDF, Iri, PatternQuery, Var, match, ntriples_chunks, to_turtle  # noqa: E402
from cpskg.validator import validate  # noqa: E402
from cpskg.vocab import DEFAULT_VOCAB  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default=str(REPO / "out"), help="where to write ehsa.nt and ehsa.ttl")
    args = parser.parse_args()

    vocab = DEFAULT_VOCAB
    manifest = load_manifest(REPO / "fixtures" / "ehsa" / "manifest.json")
    graph = compile_manifest(manifest, vocab=vocab)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "ehsa.nt").open("w", encoding="utf-8", newline="\n") as out:
        out.writelines(ntriples_chunks(graph))
    (out_dir / "ehsa.ttl").write_text(to_turtle(graph, vocab.prefixes(manifest.instance_base)), encoding="utf-8", newline="\n")

    report = validate(graph, strict=True)
    operators = match(graph, PatternQuery.of((Var("op"), RDF.type, vocab.vdi3682.ProcessOperator)))
    equations = behavior_objects(graph, vocab)

    print(f"graph: {len(graph)} triples -> {out_dir / 'ehsa.nt'}")
    print(f"operators: {len(operators)}, attached equations: {len(equations)}")
    print(f"validation: {'clean' if report.ok() else report.to_text()}")
    print()
    print("equations of LinearMotionExecution:")
    for wrapper in behavior_objects(graph, vocab, Iri(f"{manifest.instance_base}/LinearMotionExecution")):
        print(f"  {print_infix(rdf_to_om(graph, wrapper, vocab=vocab))}")
    return 0 if report.ok() else 1


if __name__ == "__main__":
    raise SystemExit(main())
