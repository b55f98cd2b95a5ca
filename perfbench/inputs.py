"""Seeded benchmark inputs and the references their outputs are checked against.

Nothing here imports cpskg: every input and every expected output is made
from the shipped EHSA fixture and this file's own generators, so a change to
the program under test cannot change what it is fed or what it must print.

EHSA models are scaled by replicating the fixture's process k times.
Replica 0 keeps the original ids; replica i > 0 suffixes every
process-scoped id (the process, its states, the states' data elements, the
operators and the equations) with ``_r{i}``. Structure nodes and resource
data elements are shared. Observations are repeated per replica with
suffixed features, so the compiled graph is the union of ``golden.nt``
with the process-scoped ids renamed per replica and ``node/obs/{n}``
shifted by the observation count times i. At k=1 it is ``golden.nt``.
"""

from __future__ import annotations

import copy
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
OM = "http://example.org/cpskg/openmath#"
CPSMOD = "http://example.org/cpskg/cpsmod#"
VDI3682 = "http://example.org/cpskg/vdi3682#"
DINEN61360 = "http://example.org/cpskg/dinen61360#"
OPENMATH_NS = "http://www.openmath.org/OpenMath"

# The fixture's two behaviour equations as the export command prints them.
# Written out by hand from chamber1_pressure_rate.om.xml and the infix text
# in manifest.json, so that the printer under test is checked, not trusted.
EXPORT_EQUATIONS = {
    "chamber1_pressure_rate": "partialdiff(p1, t) = beta*(Q1 - Qle1 - Qli - (xR_dot - xC_dot)*A)/(V0 + xR*A)",
    "chamber2_pressure_rate": "partialdiff(p2, t) = beta*(Q2 - Qle2 + Qli + (xR_dot - xC_dot)*A)/(V0 - xR*A)",
}
# beta*(Q1 - Qle1 - Qli - (xR_dot - xC_dot)*A)/(V0 + xR*A) under
# bindings_chamber1.json: 1*(2 - 0.1 - 0.1 - 0.3)/(10 + 0) = 0.15.
EVAL_OUTPUT = "0.15\n"
# Node n6 of the chamber-1 equation is its right-hand side: n0 is the
# equation, n1..n5 the partialdiff application, its two variables and its
# two argument cons cells.
EVAL_ROOT_NODE = "n6"

QUERIES = (
    "?op a vdi3682:ProcessOperator",
    "?op cpsmod:processOperatorBehaviorModel ?m . ?m cpsmod:hasOMObject ?w",
    "?v cpsmod:isDataFor ?de . ?de dinen61360:hasTypeDescription ?td . ?v om:name ?n",
)


@dataclass(frozen=True)
class Fixture:
    manifest: dict
    golden: str
    xml_files: dict[str, bytes]
    bindings_path: Path

    @property
    def base(self) -> str:
        return self.manifest["instanceBase"].rstrip("/")


def load_fixture(fixture_dir: Path) -> Fixture:
    manifest = json.loads((fixture_dir / "manifest.json").read_text(encoding="utf-8"))
    xml_files = {}
    for proc in manifest["processes"]:
        for op in proc["operators"]:
            for eq in op.get("equations", ()):
                if "xmlPath" in eq:
                    xml_files[eq["xmlPath"]] = (fixture_dir / eq["xmlPath"]).read_bytes()
    return Fixture(
        manifest=manifest,
        golden=(fixture_dir / "golden.nt").read_text(encoding="utf-8"),
        xml_files=xml_files,
        bindings_path=fixture_dir / "bindings_chamber1.json",
    )


# --- scaled EHSA models -------------------------------------------------------


def process_scoped_ids(manifest: dict) -> set[str]:
    ids: set[str] = set()
    for proc in manifest["processes"]:
        ids.add(proc["id"])
        for state in proc.get("states", ()):
            ids.add(state["id"])
            ids.update(de["id"] for de in state.get("dataElements", ()))
        for op in proc["operators"]:
            ids.add(op["id"])
            ids.update(eq["id"] for eq in op.get("equations", ()))
    return ids


def suffix(i: int) -> str:
    return "" if i == 0 else f"_r{i}"


def replicate_manifest(manifest: dict, k: int) -> dict:
    ids = process_scoped_ids(manifest)

    def rename(local_id: str, i: int) -> str:
        return local_id + suffix(i) if local_id in ids else local_id

    out = copy.deepcopy(manifest)
    out["processes"] = []
    out["observations"] = []
    for i in range(k):
        for proc in manifest["processes"]:
            p = copy.deepcopy(proc)
            p["id"] = rename(p["id"], i)
            for state in p.get("states", ()):
                state["id"] = rename(state["id"], i)
                for de in state.get("dataElements", ()):
                    de["id"] = rename(de["id"], i)
            for op in p["operators"]:
                op["id"] = rename(op["id"], i)
                op["inputs"] = [rename(s, i) for s in op.get("inputs", ())]
                op["outputs"] = [rename(s, i) for s in op.get("outputs", ())]
                for eq in op.get("equations", ()):
                    eq["id"] = rename(eq["id"], i)
            out["processes"].append(p)
        for obs in manifest.get("observations", ()):
            o = dict(obs)
            o["feature"] = rename(o["feature"], i)
            out["observations"].append(o)
    return out


def reference_ntriples(fixture: Fixture, k: int) -> str:
    """The N-Triples the k-replicated manifest must compile to."""
    ids = process_scoped_ids(fixture.manifest)
    n_obs = len(fixture.manifest.get("observations", ()))
    prefix = re.escape(fixture.base + "/")
    id_re = re.compile(prefix + r"(?!node/)((?:expr/)?)([A-Za-z0-9_.\-]+)(?=[/>])")
    obs_re = re.compile(prefix + r"node/obs/(\d+)>")
    golden = fixture.golden.splitlines()
    lines: set[str] = set()
    for i in range(k):
        if i == 0:
            lines.update(golden)
            continue
        tag = suffix(i)

        def rename(m: re.Match[str]) -> str:
            local = m.group(2)
            return m.group(0) + tag if local in ids else m.group(0)

        def shift(m: re.Match[str]) -> str:
            return f"{fixture.base}/node/obs/{int(m.group(1)) + n_obs * i}>"

        lines.update(obs_re.sub(shift, id_re.sub(rename, line)) for line in golden)
    return "".join(line + "\n" for line in sorted(lines))


def write_scaled_model(fixture: Fixture, k: int, directory: Path) -> Path:
    """Write the k-replicated manifest and its equation files; returns the manifest path."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, data in fixture.xml_files.items():
        (directory / name).write_bytes(data)
    path = directory / "manifest.json"
    path.write_text(json.dumps(replicate_manifest(fixture.manifest, k), indent=1), encoding="utf-8")
    return path


# --- expected CLI outputs, by plain string matching on reference lines -------


def _parse_lines(ntriples: str) -> list[tuple[str, str, str]]:
    out = []
    for line in ntriples.splitlines():
        s, p, rest = line.split(" ", 2)
        out.append((s, p, rest[: -len(" .")]))
    return out


def _iri(term: str) -> str:
    return term[1:-1]


def _render(term: str) -> str:
    """A node as ``query`` prints it: IRIs bare, plain literals quoted."""
    return _iri(term) if term.startswith("<") else term


def _objects(triples, subject: str, predicate: str) -> list[str]:
    return [o for s, p, o in triples if s == subject and p == predicate]


def expected_query_rows(ntriples: str) -> list[list[str]]:
    """Rows for each of QUERIES, each row tab-joined in variable-name order, sorted."""
    t = _parse_lines(ntriples)
    typ, model, has_obj = f"<{RDF_TYPE}>", f"<{CPSMOD}processOperatorBehaviorModel>", f"<{CPSMOD}hasOMObject>"
    data_for, type_desc, om_name = f"<{CPSMOD}isDataFor>", f"<{DINEN61360}hasTypeDescription>", f"<{OM}name>"
    operators = [s for s, p, o in t if p == typ and o == f"<{VDI3682}ProcessOperator>"]
    models = [(m, op, w) for op, p, m in t if p == model for w in _objects(t, m, has_obj)]
    links = [
        (de, n, td, v)
        for v, p, de in t
        if p == data_for
        for td in _objects(t, de, type_desc)
        for n in _objects(t, v, om_name)
    ]
    rows = [
        [_render(op) for op in operators],
        ["\t".join(map(_render, r)) for r in models],
        ["\t".join(map(_render, r)) for r in links],
    ]
    return [sorted(set(r)) for r in rows]


def linear_motion_operators(fixture: Fixture, k: int) -> list[str]:
    return [f"{fixture.base}/LinearMotionExecution{suffix(i)}" for i in range(k)]


def expected_export(ntriples: str, operator: str) -> str:
    t = _parse_lines(ntriples)
    wrappers = sorted(
        _iri(w)
        for m in _objects(t, f"<{operator}>", f"<{CPSMOD}processOperatorBehaviorModel>")
        for w in _objects(t, m, f"<{CPSMOD}hasOMObject>")
    )
    lines = []
    rows = set()
    for wrapper in wrappers:
        equation = re.sub(r"_r\d+$", "", wrapper.rpartition("/")[2])
        lines.append(EXPORT_EQUATIONS[equation] + "\n")
        variables = [s for s, p, o in t if p == f"<{RDF_TYPE}>" and o == f"<{OM}Variable>" and s.startswith(f"<{wrapper}/")]
        for var in variables:
            (name,) = _objects(t, var, f"<{OM}name>")
            for element in _objects(t, var, f"<{CPSMOD}isDataFor>"):
                (description,) = _objects(t, element, f"<{DINEN61360}hasTypeDescription>")
                rows.add((name[1:-1], _iri(element), _iri(description)))
    table = "".join(f"{n}\t{e}\t{d}\n" for n, e, d in sorted(rows))
    return "".join(lines) + ("\n" + table if table else "")


def eval_roots(fixture: Fixture, k: int) -> list[str]:
    return [f"{fixture.base}/expr/chamber1_pressure_rate{suffix(i)}/{EVAL_ROOT_NODE}" for i in range(k)]


# --- publish corpus -----------------------------------------------------------

# A tree is ("app", cd, name, args) | ("var", name) | ("int", value) | ("float", value).
Tree = tuple

BINARY = {("arith1", "plus"): "+", ("arith1", "minus"): "-", ("arith1", "times"): "*", ("arith1", "divide"): "/", ("arith1", "power"): "^"}
TRANSCENDENTAL = ("sin", "cos", "exp", "ln")
# Symbols of these content dictionaries are written as calls by their bare name.
NAMED_CDS = ("transc1", "weylalgebra1")
VARIABLES = [f"v{i}" for i in range(12)]
# The shape of equation j depends only on j, so every seed yields the same
# amount of work; the seed picks operators, leaves and variable values.
# Right-hand sides have 1 to 7 levels, so with the equation node trees reach
# depth 8; every eighth one holds an n-ary plus of 8 to 64 arguments.
DEPTHS = (1, 2, 3, 4, 5, 6, 7)
PLUS_WIDTHS = (8, 16, 32, 64)


@dataclass(frozen=True)
class Equation:
    tree: Tree
    source: str  # "infix" | "xml"
    text: str
    evaluable: bool


def _leaf(rng: random.Random) -> Tree:
    r = rng.random()
    if r < 0.6:
        return ("var", rng.choice(VARIABLES))
    if r < 0.8:
        return ("int", rng.randint(1, 9))
    return ("float", round(rng.uniform(0.5, 2.0), 3))


def _subtree(rng: random.Random, depth: int, plus_width: int) -> Tree:
    """A tree of exactly ``depth`` levels; an n-ary plus of ``plus_width``
    arguments is placed on the deepest path when plus_width > 0."""
    if depth <= 1:
        return _leaf(rng)
    if plus_width:
        args = [_subtree(rng, rng.randint(1, min(depth - 1, 2)), 0) for _ in range(plus_width - 1)]
        args.insert(rng.randrange(plus_width), _subtree(rng, depth - 1, 0))
        return ("app", "arith1", "plus", tuple(args))
    r = rng.random()
    if r < 0.15:
        return ("app", "transc1", rng.choice(TRANSCENDENTAL), (_subtree(rng, depth - 1, 0),))
    if r < 0.22:
        return ("app", "arith1", "unary_minus", (_subtree(rng, depth - 1, 0),))
    if r < 0.3:
        return ("app", "arith1", "power", (_subtree(rng, depth - 1, 0), ("int", rng.randint(2, 3))))
    cd, name = rng.choice([("arith1", "plus"), ("arith1", "minus"), ("arith1", "times"), ("arith1", "divide")])
    deep = _subtree(rng, depth - 1, 0)
    other = _subtree(rng, rng.randint(1, depth - 1), 0)
    return ("app", cd, name, (deep, other) if rng.random() < 0.5 else (other, deep))


def _uses(tree: Tree, cd: str) -> bool:
    return tree[0] == "app" and (tree[1] == cd or any(_uses(a, cd) for a in tree[3]))


def make_corpus(seed: int, size: int) -> tuple[list[Equation], dict[str, float]]:
    """``size`` equations, even indices as infix text and odd ones as XML,
    plus one variable binding set under which the arithmetic ones evaluate."""
    rng = random.Random(seed)
    bindings = {name: round(rng.uniform(0.5, 2.0), 6) for name in VARIABLES}
    corpus = []
    for j in range(size):
        depth = DEPTHS[j % len(DEPTHS)]
        width = PLUS_WIDTHS[(j // 8) % len(PLUS_WIDTHS)] if j % 8 == 3 else 0
        if j % 4 == 1:
            lhs = ("app", "weylalgebra1", "partialdiff", (("var", rng.choice(VARIABLES)), ("var", "t")))
        else:
            lhs = ("var", rng.choice(VARIABLES))
        tree = ("app", "relation1", "eq", (lhs, _subtree(rng, depth, width)))
        source = "infix" if j % 2 == 0 else "xml"
        text = to_infix(tree) if source == "infix" else to_xml(tree)
        corpus.append(Equation(tree, source, text, not _uses(tree, "weylalgebra1")))
    return corpus, bindings


# --- the benchmark's own emitters and evaluators --------------------------------


def to_infix(tree: Tree) -> str:
    """Fully parenthesised infix; ``=`` only at the root, n-ary and unary
    applications in ``cd.name(...)`` call syntax."""
    if tree[0] == "app" and (tree[1], tree[2]) == ("relation1", "eq"):
        lhs, rhs = tree[3]
        return f"{_infix(lhs)} = {_infix(rhs)}"
    return _infix(tree)


def _infix(tree: Tree) -> str:
    kind = tree[0]
    if kind == "var":
        return tree[1]
    if kind in ("int", "float"):
        return repr(tree[1])
    _, cd, name, args = tree
    if (cd, name) in BINARY and len(args) == 2:
        return f"({_infix(args[0])} {BINARY[cd, name]} {_infix(args[1])})"
    head = name if cd in NAMED_CDS else f"{cd}.{name}"
    return f"{head}({', '.join(_infix(a) for a in args)})"


def to_xml(tree: Tree) -> str:
    return f'<OMOBJ xmlns="{OPENMATH_NS}">{_xml(tree)}</OMOBJ>'


def _xml(tree: Tree) -> str:
    kind = tree[0]
    if kind == "var":
        return f'<OMV name="{tree[1]}"/>'
    if kind == "int":
        return f"<OMI>{tree[1]}</OMI>"
    if kind == "float":
        return f'<OMF dec="{tree[1]!r}"/>'
    _, cd, name, args = tree
    return f'<OMA><OMS cd="{cd}" name="{name}"/>{"".join(_xml(a) for a in args)}</OMA>'


def canonical(tree: Tree) -> str:
    """The source tree in cpskg's documented canonical-form notation."""
    kind = tree[0]
    if kind == "var":
        return f"${tree[1]}"
    if kind in ("int", "float"):
        return repr(tree[1])
    _, cd, name, args = tree
    return f"{cd}.{name}({', '.join(canonical(a) for a in args)})"


def triple_count(tree: Tree) -> int:
    """Triples om_to_rdf must emit: 2 for the wrapper, 3 + 2 per argument for
    each application, 2 per distinct variable and 2 per literal occurrence."""
    variables: set[str] = set()

    def count(t: Tree) -> int:
        if t[0] == "var":
            variables.add(t[1])
            return 0
        if t[0] in ("int", "float"):
            return 2
        return 3 + 2 * len(t[3]) + sum(count(a) for a in t[3])

    return 2 + count(tree) + 2 * len(variables)


class Rejected(Exception):
    """The tree has no real value under the bindings."""


def evaluate(tree: Tree, bindings: dict[str, float]) -> float:
    kind = tree[0]
    if kind == "var":
        return bindings[tree[1]]
    if kind in ("int", "float"):
        return float(tree[1])
    _, cd, name, args = tree
    x = [evaluate(a, bindings) for a in args]
    try:
        if name in ("plus", "times"):
            result = x[0]
            for value in x[1:]:
                result = result + value if name == "plus" else result * value
            return result
        if name == "minus":
            return x[0] - x[1]
        if name == "divide":
            return x[0] / x[1]
        if name == "power":
            return math.pow(x[0], x[1])
        if name == "unary_minus":
            return -x[0]
        if name == "eq":
            return abs(x[0] - x[1])
        if name == "ln" and x[0] <= 0.0:
            raise Rejected(name)
        return {"sin": math.sin, "cos": math.cos, "exp": math.exp, "ln": math.log}[name](x[0])
    except (ArithmeticError, ValueError) as exc:
        raise Rejected(name) from exc


def values_match(got: float, want: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return got == want or math.isclose(got, want, rel_tol=1e-9)
