"""Command-line toolchain.

Subcommands: om2rdf, rdf2om, build, validate, query, export, eval.
Exit codes: 0 success, 1 domain error (parse/validation/evaluation),
2 I/O error. Results go to stdout, diagnostics to stderr; all outputs are
deterministic.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Optional, Sequence

from .errors import CpskgError
from .evaluator import evaluate, load_bindings
from .infix import print_infix
from .manifest import compile_manifest, load_manifest
from .mapper import fragment_variables, om_to_rdf, rdf_to_om
from .om.xmlio import parse_openmath_xml, serialize_openmath_xml
from .rdf import (
    RDF,
    Graph,
    Iri,
    Literal,
    MalformedQueryError,
    NodeRef,
    PatternQuery,
    Var,
    from_ntriples,
    match,
    nt_term,
    serialize,
)
from .validator import validate
from .vocab import ToolConfig, load_config

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="\n")


def _load_graph(path: str) -> Graph:
    return from_ntriples(Path(path).read_bytes())


def _term_iri(raw: str) -> Iri:
    text = raw.strip()
    if text.startswith("<") and text.endswith(">"):
        text = text[1:-1]
    try:
        return Iri(text)
    except ValueError as exc:
        raise MalformedQueryError(str(exc)) from exc


# --- subcommands ---------------------------------------------------------


def cmd_om2rdf(args: argparse.Namespace, cfg: ToolConfig) -> int:
    expr = parse_openmath_xml(Path(args.in_path).read_bytes(), strict=cfg.strict)
    result = om_to_rdf(expr, args.base.rstrip("/"), args.id, om=cfg.vocab.om, cd_base=cfg.vocab.cd_base)
    graph = Graph(cfg.vocab.prefixes())
    graph.bind("ex", args.base.rstrip("/") + "/")
    graph.update(result.graph)
    _write_output(serialize(graph, args.format), args.out)
    return EXIT_OK


def cmd_rdf2om(args: argparse.Namespace, cfg: ToolConfig) -> int:
    graph = _load_graph(args.in_path)
    expr = rdf_to_om(graph, _term_iri(args.root), om=cfg.vocab.om, cd_base=cfg.vocab.cd_base, strict=cfg.strict)
    _write_output(serialize_openmath_xml(expr), args.out)
    return EXIT_OK


def cmd_build(args: argparse.Namespace, cfg: ToolConfig) -> int:
    manifest = load_manifest(args.manifest)
    graph = compile_manifest(manifest, vocab=cfg.vocab, registry=cfg.registry, strict=cfg.strict)
    if args.check_only:
        print(f"manifest OK: {len(graph)} triples", file=sys.stderr)
        return EXIT_OK
    _write_output(serialize(graph, args.format), args.out)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace, cfg: ToolConfig) -> int:
    graph = _load_graph(args.in_path)
    report = validate(graph, vocab=cfg.vocab, registry=cfg.registry, strict=args.strict)
    sys.stdout.write(report.to_jsonl() if args.json else report.to_text())
    if report.errors or (args.strict and report.findings):
        return EXIT_DOMAIN
    return EXIT_OK


_PATTERN_TOKEN_RE = re.compile(r'"(?:[^"\\]|\\.)*"(?:\^\^<[^<>\s]*>)?|\S+')


def _parse_pattern(text: str, prefixes: dict[str, str]) -> PatternQuery:
    tokens = _PATTERN_TOKEN_RE.findall(text)
    terms = []
    for token in tokens:
        if token == ".":
            if len(terms) % 3 != 0:
                raise MalformedQueryError("'.' separator inside a triple pattern")
            continue
        terms.append(_parse_term(token, prefixes))
    if not terms or len(terms) % 3 != 0:
        raise MalformedQueryError(f"pattern must contain whole triples, found {len(terms)} term(s)")
    patterns = [tuple(terms[i : i + 3]) for i in range(0, len(terms), 3)]
    return PatternQuery(tuple(patterns))  # type: ignore[arg-type]


def _parse_term(token: str, prefixes: dict[str, str]):
    if token.startswith("?") and len(token) > 1:
        return Var(token[1:])
    if token == "a":
        return RDF.type
    if token.startswith("<") and token.endswith(">"):
        return _term_iri(token)
    if token.startswith('"'):
        m = re.fullmatch(r'"((?:[^"\\]|\\.)*)"(?:\^\^<([^<>\s]*)>)?', token)
        if m is None:
            raise MalformedQueryError(f"invalid literal token: {token}")
        lex = m.group(1).replace('\\"', '"').replace("\\\\", "\\")
        return Literal(lex, Iri(m.group(2))) if m.group(2) else Literal(lex)
    prefix, sep, local = token.partition(":")
    if sep and prefix in prefixes:
        return Iri(prefixes[prefix] + local)
    raise MalformedQueryError(f"cannot interpret pattern term: {token!r}")


def _render_node(node: NodeRef) -> str:
    return node.value if isinstance(node, Iri) else nt_term(node)


def cmd_query(args: argparse.Namespace, cfg: ToolConfig) -> int:
    graph = _load_graph(args.in_path)
    prefixes = cfg.vocab.prefixes()
    if args.base:
        prefixes["ex"] = args.base.rstrip("/") + "/"
    query = _parse_pattern(args.pattern, prefixes)
    for row in match(graph, query):
        print("\t".join(_render_node(row[name]) for name in sorted(row)))
    return EXIT_OK


def cmd_export(args: argparse.Namespace, cfg: ToolConfig) -> int:
    graph = _load_graph(args.in_path)
    v = cfg.vocab
    operator = _term_iri(args.operator)
    wrappers: list[Iri] = []
    for model in graph.objects(operator, v.cpsmod.processOperatorBehaviorModel):
        for wrapper in graph.objects(model, v.cpsmod.hasOMObject):
            if isinstance(wrapper, Iri):
                wrappers.append(wrapper)
    wrappers.sort(key=lambda w: w.value)
    if not wrappers:
        print(f"no behavior model attached to {operator.value}", file=sys.stderr)
        return EXIT_OK
    lines = []
    variables: set[Iri] = set()
    for wrapper in wrappers:
        expr = rdf_to_om(graph, wrapper, om=v.om, cd_base=v.cd_base, strict=cfg.strict)
        lines.append(print_infix(expr, registry=cfg.registry))
        variables.update(fragment_variables(graph, graph.objects(wrapper, v.om.root), v.om))
    rows = []
    for var in variables:
        names = [o.lexical for o in graph.objects(var, v.om.name) if isinstance(o, Literal)]
        name = names[0] if names else var.value
        for element in graph.objects(var, v.cpsmod.isDataFor):
            if not isinstance(element, Iri):
                continue
            descriptions = [d.value for d in graph.objects(element, v.dinen61360.hasTypeDescription) if isinstance(d, Iri)]
            rows.append((name, element.value, descriptions[0] if descriptions else ""))
    sys.stdout.write("".join(line + "\n" for line in lines))
    if rows:
        sys.stdout.write("\n")
        for name, element, description in sorted(set(rows)):
            sys.stdout.write(f"{name}\t{element}\t{description}\n")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace, cfg: ToolConfig) -> int:
    if args.root:
        graph = _load_graph(args.in_path)
        expr = rdf_to_om(graph, _term_iri(args.root), om=cfg.vocab.om, cd_base=cfg.vocab.cd_base, strict=cfg.strict)
    else:
        expr = parse_openmath_xml(Path(args.in_path).read_bytes(), strict=cfg.strict)
    bindings = load_bindings(args.bindings)
    value = evaluate(expr, bindings, registry=cfg.registry)
    print(f"{value:.12g}")
    return EXIT_OK


# --- argument parsing ------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpskg",
        description="Compile time-continuous behavior models into RDF knowledge graphs.",
    )
    parser.add_argument("--config", metavar="PATH", help="JSON configuration file (namespaces, strictness, symbols)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("om2rdf", help="map an OpenMath XML file to an RDF expression fragment")
    p.add_argument("--in", dest="in_path", required=True, metavar="FILE")
    p.add_argument("--base", default="http://example.org/model", metavar="IRI", help="instance base for skolem nodes")
    p.add_argument("--id", default="expr", metavar="NAME", help="equation identifier used in node IRIs")
    p.add_argument("--out", metavar="FILE", help="output file (default: stdout)")
    p.add_argument("--format", choices=["turtle", "ntriples"], default="turtle")
    p.set_defaults(func=cmd_om2rdf)

    p = sub.add_parser("rdf2om", help="reconstruct OpenMath XML from a graph node")
    p.add_argument("--in", dest="in_path", required=True, metavar="FILE", help="N-Triples input")
    p.add_argument("--root", required=True, metavar="IRI", help="wrapper or expression node")
    p.add_argument("--out", metavar="FILE", help="output file (default: stdout)")
    p.set_defaults(func=cmd_rdf2om)

    p = sub.add_parser("build", help="compile a manifest into a graph")
    p.add_argument("--manifest", required=True, metavar="FILE")
    p.add_argument("--out", metavar="FILE", help="output file (default: stdout)")
    p.add_argument("--format", choices=["ntriples", "turtle"], default="ntriples")
    p.add_argument("--check-only", action="store_true", help="validate the manifest without writing output")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("validate", help="shape-check a graph")
    p.add_argument("--in", dest="in_path", required=True, metavar="FILE", help="N-Triples input")
    p.add_argument("--strict", action="store_true", help="also run V7 and fail on warnings")
    p.add_argument("--json", action="store_true", help="emit findings as JSON lines")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("query", help="match a basic graph pattern")
    p.add_argument("--in", dest="in_path", required=True, metavar="FILE", help="N-Triples input")
    p.add_argument("--pattern", required=True, help="e.g. \"?op a vdi3682:ProcessOperator\"")
    p.add_argument("--base", metavar="IRI", help="bind the ex: prefix to this instance base")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("export", help="list an operator's equations and variable table")
    p.add_argument("--in", dest="in_path", required=True, metavar="FILE", help="N-Triples input")
    p.add_argument("--operator", required=True, metavar="IRI")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("eval", help="numerically evaluate an expression under bindings")
    p.add_argument("--in", dest="in_path", required=True, metavar="FILE", help="OpenMath XML, or N-Triples with --root")
    p.add_argument("--root", metavar="IRI", help="expression node when reading from a graph")
    p.add_argument("--bindings", required=True, metavar="FILE", help="JSON object of variable values")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return args.func(args, cfg)
    except OSError as exc:
        _err(str(exc))
        return EXIT_IO
    except (CpskgError, RecursionError, ZeroDivisionError, OverflowError) as exc:
        _err(str(exc))
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
