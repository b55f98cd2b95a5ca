#!/usr/bin/env python3
"""Regenerate the derived fixtures under fixtures/ehsa/ and the published
manifest schema from their sources (the manifest and the in-code schema).

The golden N-Triples file is a frozen artifact of the determinism
contract: regenerating it must be a deliberate act, after which the
acceptance suite re-freezes expectations.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from cpskg.infix import parse_infix  # noqa: E402
from cpskg.manifest import MANIFEST_SCHEMA, compile_manifest, load_manifest  # noqa: E402
from cpskg.om.xmlio import serialize_openmath_xml  # noqa: E402
from cpskg.rdf import ntriples_chunks  # noqa: E402

EQ1 = "partialdiff(p1, t) = beta*(Q1 - Qle1 - Qli - (xR_dot - xC_dot)*A)/(V0 + xR*A)"


def main() -> int:
    fixtures = REPO / "fixtures" / "ehsa"
    tree = parse_infix(EQ1)
    (fixtures / "chamber1_pressure_rate.om.xml").write_text(
        serialize_openmath_xml(tree), encoding="utf-8", newline="\n"
    )
    (fixtures / "chamber1_pressure_rate_rhs.om.xml").write_text(
        serialize_openmath_xml(tree.arguments[1]), encoding="utf-8", newline="\n"
    )
    graph = compile_manifest(load_manifest(fixtures / "manifest.json"))
    with (fixtures / "golden.nt").open("w", encoding="utf-8", newline="\n") as out:
        out.writelines(ntriples_chunks(graph))
    (REPO / "docs" / "manifest.schema.json").write_text(
        json.dumps(MANIFEST_SCHEMA, indent=2) + "\n", encoding="utf-8", newline="\n"
    )
    print(f"regenerated fixtures; golden graph has {len(graph)} triples")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
