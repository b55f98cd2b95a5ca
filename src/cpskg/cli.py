"""Command-line toolchain.

Subcommands: om2rdf, rdf2om, build, validate, query, export, eval.
Exit codes: 0 success, 1 domain error (parse/validation/evaluation),
2 I/O error or usage error (argparse exits 2 on a command line it rejects).
Results go to stdout, diagnostics to stderr; all outputs are deterministic.
Each run builds the argument parser of its own command only. ``build`` and
``om2rdf --format ntriples`` write each chunk of :func:`rdf.ntriples_chunks`
as it comes, a run of subjects' lines, so they never hold the whole
document; Turtle and XML outputs are written as their one text.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .errors import CpskgError
from .evaluator import evaluate, load_bindings
from .infix import print_infix
from .manifest import compile_manifest, load_manifest
from .mapper import behavior_objects, om_to_rdf, rdf_to_om, variable_elements
from .om.xmlio import parse_openmath_xml, serialize_openmath_xml
from .rdf import (
    RDF,
    Graph,
    Iri,
    MalformedQueryError,
    PatternQuery,
    Var,
    display_term,
    from_ntriples,
    match,
    ntriples_chunks,
    parse_literal,
    serialize,
)
from .validator import validate
from .vocab import ToolConfig, load_config

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _write_output(chunks: Iterable[str], path: Optional[str]) -> None:
    """Write the text ``chunks`` to the file ``path`` (UTF-8, LF line ends)
    or to stdout when it is ``None`` or ``-``, each chunk as it comes, so
    that no more than one chunk is held."""
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as out:
            out.writelines(chunks)


def _graph_chunks(graph: Graph, fmt: str, prefixes: dict[str, str]) -> Iterable[str]:
    """``graph`` in ``fmt`` as text chunks: N-Triples a run of subjects at
    a time, Turtle as its one text."""
    return ntriples_chunks(graph) if fmt == "ntriples" else (serialize(graph, fmt, prefixes),)


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
    result = om_to_rdf(expr, args.base.rstrip("/"), args.id, vocab=cfg.vocab)
    _write_output(_graph_chunks(result.graph, args.format, cfg.vocab.prefixes(args.base)), args.out)
    return EXIT_OK


def cmd_rdf2om(args: argparse.Namespace, cfg: ToolConfig) -> int:
    graph = _load_graph(args.in_path)
    expr = rdf_to_om(graph, _term_iri(args.root), vocab=cfg.vocab, strict=cfg.strict)
    _write_output((serialize_openmath_xml(expr),), args.out)
    return EXIT_OK


def cmd_build(args: argparse.Namespace, cfg: ToolConfig) -> int:
    manifest = load_manifest(args.manifest)
    graph = compile_manifest(manifest, vocab=cfg.vocab, registry=cfg.registry, strict=cfg.strict)
    if args.check_only:
        print(f"manifest OK: {len(graph)} triples", file=sys.stderr)
        return EXIT_OK
    _write_output(_graph_chunks(graph, args.format, cfg.vocab.prefixes(manifest.instance_base)), args.out)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace, cfg: ToolConfig) -> int:
    graph = _load_graph(args.in_path)
    report = validate(graph, vocab=cfg.vocab, registry=cfg.registry, strict=args.strict)
    sys.stdout.write(report.to_jsonl() if args.json else report.to_text())
    if report.errors or (args.strict and report.findings):
        return EXIT_DOMAIN
    return EXIT_OK


# a quoted literal with its datatype or language suffix (parse_literal checks
# it), or any other word
_PATTERN_TOKEN_RE = re.compile(r'"(?:[^"\\]|\\.)*"(?:\^\^<[^<>\s]*>|@[A-Za-z0-9-]+)?|\S+')


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
        try:
            return parse_literal(token)
        except CpskgError as exc:
            raise MalformedQueryError(f"invalid literal token: {token}") from exc
    prefix, sep, local = token.partition(":")
    if sep and prefix in prefixes:
        return Iri(prefixes[prefix] + local)
    raise MalformedQueryError(f"cannot interpret pattern term: {token!r}")


def cmd_query(args: argparse.Namespace, cfg: ToolConfig) -> int:
    graph = _load_graph(args.in_path)
    query = _parse_pattern(args.pattern, cfg.vocab.prefixes(args.base or None))
    for row in match(graph, query):
        print("\t".join(display_term(row[name]) for name in sorted(row)))
    return EXIT_OK


def cmd_export(args: argparse.Namespace, cfg: ToolConfig) -> int:
    graph = _load_graph(args.in_path)
    v = cfg.vocab
    operator = _term_iri(args.operator)
    wrappers = behavior_objects(graph, v, operator)
    if not wrappers:
        print(f"no behavior model attached to {operator.value}", file=sys.stderr)
        return EXIT_OK
    text = "".join(print_infix(rdf_to_om(graph, w, vocab=v, strict=cfg.strict), registry=cfg.registry) + "\n" for w in wrappers)
    rows = variable_elements(graph, v, wrappers)
    sys.stdout.write(text + ("\n" if rows else "") + "".join("\t".join(row) + "\n" for row in rows))
    return EXIT_OK


def cmd_eval(args: argparse.Namespace, cfg: ToolConfig) -> int:
    if args.root:
        graph = _load_graph(args.in_path)
        expr = rdf_to_om(graph, _term_iri(args.root), vocab=cfg.vocab, strict=cfg.strict)
    else:
        expr = parse_openmath_xml(Path(args.in_path).read_bytes(), strict=cfg.strict)
    bindings = load_bindings(args.bindings)
    value = evaluate(expr, bindings)
    print(f"{value:.12g}")
    return EXIT_OK


# --- argument parsing ------------------------------------------------------

_OUT = ("--out", {"metavar": "FILE", "help": "output file (default: stdout)"})
_IN_NTRIPLES = ("--in", {"dest": "in_path", "required": True, "metavar": "FILE", "help": "N-Triples input"})

# name -> (function, one-line help, arguments as (flag, add_argument keywords))
COMMANDS = {
    "om2rdf": (
        cmd_om2rdf,
        "map an OpenMath XML file to an RDF expression fragment",
        (
            ("--in", {"dest": "in_path", "required": True, "metavar": "FILE"}),
            ("--base", {"default": "http://example.org/model", "metavar": "IRI", "help": "instance base for skolem nodes"}),
            ("--id", {"default": "expr", "metavar": "NAME", "help": "equation identifier used in node IRIs"}),
            _OUT,
            ("--format", {"choices": ("turtle", "ntriples"), "default": "turtle"}),
        ),
    ),
    "rdf2om": (
        cmd_rdf2om,
        "reconstruct OpenMath XML from a graph node",
        (
            _IN_NTRIPLES,
            ("--root", {"required": True, "metavar": "IRI", "help": "wrapper or expression node"}),
            _OUT,
        ),
    ),
    "build": (
        cmd_build,
        "compile a manifest into a graph",
        (
            ("--manifest", {"required": True, "metavar": "FILE"}),
            _OUT,
            ("--format", {"choices": ("ntriples", "turtle"), "default": "ntriples"}),
            ("--check-only", {"action": "store_true", "help": "validate the manifest without writing output"}),
        ),
    ),
    "validate": (
        cmd_validate,
        "shape-check a graph",
        (
            _IN_NTRIPLES,
            ("--strict", {"action": "store_true", "help": "also run V7 and fail on warnings"}),
            ("--json", {"action": "store_true", "help": "emit findings as JSON lines"}),
        ),
    ),
    "query": (
        cmd_query,
        "match a basic graph pattern",
        (
            _IN_NTRIPLES,
            ("--pattern", {"required": True, "help": 'e.g. "?op a vdi3682:ProcessOperator"'}),
            ("--base", {"metavar": "IRI", "help": "bind the ex: prefix to this instance base"}),
        ),
    ),
    "export": (
        cmd_export,
        "list an operator's equations and variable table",
        (
            _IN_NTRIPLES,
            ("--operator", {"required": True, "metavar": "IRI"}),
        ),
    ),
    "eval": (
        cmd_eval,
        "numerically evaluate an expression under bindings",
        (
            ("--in", {"dest": "in_path", "required": True, "metavar": "FILE", "help": "OpenMath XML, or N-Triples with --root"}),
            ("--root", {"metavar": "IRI", "help": "expression node when reading from a graph"}),
            ("--bindings", {"required": True, "metavar": "FILE", "help": "JSON object of variable values"}),
        ),
    ),
}


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    """Parse a command line: ``--config`` and the command name first, then
    the command's own options with a parser built for that command alone.

    Every call builds its parsers afresh, as a one-command process does.
    A usage error exits 2 through argparse."""
    parser = argparse.ArgumentParser(
        prog="cpskg",
        description="Compile time-continuous behavior models into RDF knowledge graphs.",
        epilog="commands:\n" + "".join(f"  {name:<10}{help_line}\n" for name, (_, help_line, _) in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", metavar="PATH", help="JSON configuration file (namespaces, strictness, symbols)")
    # PARSER is the nargs of a subparsers action: the command name, checked
    # against the choices, and everything after it, options included
    parser.add_argument("command", nargs=argparse.PARSER, choices=COMMANDS, help="one of the commands below, then its options")
    args = parser.parse_args(argv)
    name, *rest = args.command
    func, _, arguments = COMMANDS[name]
    command = argparse.ArgumentParser(prog=f"cpskg {name}")
    for flag, keywords in arguments:
        command.add_argument(flag, **keywords)
    args.command = name
    args.func = func
    return command.parse_args(rest, args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    try:
        cfg = load_config(args.config)
        return args.func(args, cfg)
    except OSError as exc:
        _err(str(exc))
        return EXIT_IO
    except (CpskgError, RecursionError) as exc:
        _err(str(exc))
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
