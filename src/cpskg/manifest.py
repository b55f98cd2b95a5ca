"""Declarative model manifests: JSON schema, loading, and compilation.

A manifest describes one system model: the lifecycle record, the structure
tree with its characteristics, processes with operators/states/data
elements, equations (inline infix text or referenced OpenMath XML files),
and optional observations. ``compile_manifest`` turns it into a graph in a
fixed order, so identical manifests yield byte-identical N-Triples.

A manifest's one in-memory form is the JSON object ``MANIFEST_SCHEMA``
defines, which ``CpsManifest`` holds. This module is the one home of every
manifest rule. ``manifest_from_dict`` checks the schema, then walks the
manifest once, declaring the ids and checking the rules a schema cannot
state (unique ids, references, level order, one description text per node
slug, no node that both the builder and an equation's mapping mint,
observation values and timestamps). ``compile_manifest`` adds the
rules of each operator's scope: no variable declared by two data elements,
and equations that read, parse, map and use only declared variables. Each
problem names its JSON path. The ``ModelBuilder`` it drives reads the
checked JSON objects and checks none of these rules again.

Before the schema check, ``manifest_from_dict`` rejects a manifest whose
arrays and objects nest more than 256 levels deep, the manifest itself being
level 1, and names the first path too deep. A structure node takes two
levels, so a structure tree may be 128 nodes deep. The check walks on stacks
of its own; the schema check and the walks after it recurse, six frames a
structure node, so a manifest at the limit needs 770 of Python's default
1000 frames and leaves 230 to its caller. This refuses structure trees 129
to 165 nodes deep, which fit under the default limit only when the caller
was fewer than about ten frames deep.

The schema check is compiled from ``MANIFEST_SCHEMA`` at import into an
acceptor, which a valid manifest passes without building any message, and a
reporter, run only on a manifest the acceptor rejects. The reporter gives
each error's JSON path and message as jsonschema 4.26 does, which the tests
check against it; cpskg itself does not import jsonschema.
"""

from __future__ import annotations

import json
import math
import re
from datetime import datetime
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, Union

from .builder import ModelBuilder, slugify
from .errors import CpskgError
from .infix import parse_infix
from .mapper import MappingResult, _instantiator, om_to_rdf
from .om.registry import DEFAULT_REGISTRY, SymbolRegistry
from .om.xmlio import parse_openmath_xml
from .rdf import _ABSOLUTE_IRI, Graph
from .vocab import DEFAULT_VOCAB, CpsVocabulary

__all__ = ["CpsManifest", "MANIFEST_SCHEMA", "ManifestError", "compile_manifest", "load_manifest", "manifest_from_dict"]

# "$(?!\n)" is the end of the text in ECMA-262 and in Python's re, whose
# "$" also matches before a final newline.
_ID_PATTERN = r"^[A-Za-z_][A-Za-z0-9_.-]*$(?!\n)"
_VARIABLE_PATTERN = r"^[A-Za-z_][A-Za-z0-9_]*$(?!\n)"
# an absolute IRI as rdf.Iri accepts it, so every IRI minted under the base is one
_IRI_PATTERN = rf"^{_ABSOLUTE_IRI}$(?!\n)"
_LEVEL_RANK = {"MechatronicSystem": 0, "Module": 1, "Component": 2}
_STATE_KINDS = ("Product", "Energy", "Information")
# XSD 1.1 Part 2, 3.3.7: a time zone offset is Z or at most 14:00 either way
_TIMESTAMP_RE = re.compile(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}(\.\d+)?(Z|[+-]((0\d|1[0-3]):[0-5]\d|14:00))?")

MANIFEST_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "System model manifest",
    "type": "object",
    "required": ["instanceBase", "lifecycleRecord", "structure", "processes"],
    "additionalProperties": False,
    "properties": {
        "instanceBase": {"type": "string", "pattern": _IRI_PATTERN},
        "lifecycleRecord": {
            "type": "object",
            "required": ["id", "informationSets"],
            "additionalProperties": False,
            "properties": {
                "id": {"$ref": "#/$defs/id"},
                "informationSets": {"type": "array", "items": {"$ref": "#/$defs/id"}, "minItems": 1},
            },
        },
        "structure": {"$ref": "#/$defs/resource"},
        "processes": {"type": "array", "items": {"$ref": "#/$defs/process"}},
        "observations": {"type": "array", "items": {"$ref": "#/$defs/observation"}},
    },
    "$defs": {
        "id": {"type": "string", "pattern": _ID_PATTERN},
        "resource": {
            "type": "object",
            "required": ["id", "level"],
            "additionalProperties": False,
            "properties": {
                "id": {"$ref": "#/$defs/id"},
                "level": {"enum": list(_LEVEL_RANK)},
                "children": {"type": "array", "items": {"$ref": "#/$defs/resource"}},
                "dataElements": {"type": "array", "items": {"$ref": "#/$defs/dataElement"}},
            },
        },
        "dataElement": {
            "type": "object",
            "required": ["id", "typeDescription"],
            "additionalProperties": False,
            "properties": {
                "id": {"$ref": "#/$defs/id"},
                "typeDescription": {"type": "string", "pattern": "\\S"},
                "instanceDescriptions": {"type": "array", "items": {"type": "string", "pattern": "[A-Za-z0-9]"}},
                "variableName": {"type": "string", "pattern": _VARIABLE_PATTERN},
            },
        },
        "process": {
            "type": "object",
            "required": ["id", "operators"],
            "additionalProperties": False,
            "properties": {
                "id": {"$ref": "#/$defs/id"},
                "states": {"type": "array", "items": {"$ref": "#/$defs/state"}},
                "operators": {"type": "array", "items": {"$ref": "#/$defs/operator"}},
            },
        },
        "state": {
            "type": "object",
            "required": ["id", "kind"],
            "additionalProperties": False,
            "properties": {
                "id": {"$ref": "#/$defs/id"},
                "kind": {"enum": list(_STATE_KINDS)},
                "dataElements": {"type": "array", "items": {"$ref": "#/$defs/dataElement"}},
            },
        },
        "operator": {
            "type": "object",
            "required": ["id", "assignedResource"],
            "additionalProperties": False,
            "properties": {
                "id": {"$ref": "#/$defs/id"},
                "assignedResource": {"$ref": "#/$defs/id"},
                "inputs": {"type": "array", "items": {"$ref": "#/$defs/id"}},
                "outputs": {"type": "array", "items": {"$ref": "#/$defs/id"}},
                "equations": {"type": "array", "items": {"$ref": "#/$defs/equation"}},
            },
        },
        "equation": {
            "type": "object",
            "required": ["id"],
            "additionalProperties": False,
            "oneOf": [{"required": ["infix"]}, {"required": ["xmlPath"]}],
            "properties": {
                "id": {"$ref": "#/$defs/id"},
                "infix": {"type": "string", "minLength": 1},
                "xmlPath": {"type": "string", "minLength": 1},
            },
        },
        "observation": {
            "type": "object",
            "required": ["feature", "value", "timestamp"],
            "additionalProperties": False,
            "properties": {
                "feature": {"$ref": "#/$defs/id"},
                "value": {"type": "number"},
                "unit": {"type": "string"},
                "timestamp": {"type": "string"},
            },
        },
    },
}


Acceptor = Callable[[object], bool]
# The (JSON path, message) problems of a value, given its path; called only
# with a value that the acceptor compiled beside it rejects.
Reporter = Callable[[object, str], Iterable[tuple[str, str]]]

# JSON Schema 2020-12 type names: a bool is not a number.
_TYPES: dict[str, Acceptor] = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "number": lambda value: isinstance(value, (int, float)) and not isinstance(value, bool),
}
# Keywords that assert nothing; "$defs" is read through "$ref".
_ANNOTATIONS = frozenset({"$schema", "title", "$defs"})


def _compile_schema(root: dict) -> tuple[Acceptor, Reporter]:
    """Compile the JSON Schema ``root``, with the 2020-12 meaning of each
    keyword, into an acceptor that answers only whether an instance is valid
    and a reporter of the problems of an instance the acceptor rejects.

    The reporter words each problem as jsonschema 4.26 does and yields them
    in its order: keywords in schema order, ``properties`` in schema order,
    array items by index. It descends into a child only where the child's
    acceptor rejects it.

    It knows the keywords ``MANIFEST_SCHEMA`` uses and no others, and raises
    ``ValueError`` on any other keyword, type name, reference or a property
    name that a JSON path cannot give after a dot, so a schema edit cannot
    quietly widen what it accepts. A keyword that constrains one type passes
    values of every other type.
    """
    defs = root.get("$defs", {})
    compiled: dict[str, Acceptor] = {}
    reports: dict[str, Reporter] = {}

    def reference(target: str) -> tuple[Acceptor, Reporter]:
        name = target.removeprefix("#/$defs/")
        if name == target or name not in defs:
            raise ValueError(f"cannot compile the reference {target!r}")
        if name not in compiled:
            # what a recursive reference sees
            compiled[name] = lambda value: compiled[name](value)
            reports[name] = lambda value, path: reports[name](value, path)
            compiled[name], reports[name] = schema_check(defs[name])
        return compiled[name], reports[name]

    def keyword_check(keyword: str, arg, schema: dict) -> tuple[Acceptor, Reporter]:
        if keyword == "type" and isinstance(arg, str) and arg in _TYPES:
            return _TYPES[arg], lambda value, path: [(path, f"{value!r} is not of type {arg!r}")]
        if keyword == "$ref":
            return reference(arg)
        if keyword == "properties" and all(re.fullmatch("[a-zA-Z][a-zA-Z0-9_]*", name) for name in arg):
            compiled_properties = {name: schema_check(sub) for name, sub in arg.items()}
            checks = {name: accept for name, (accept, _) in compiled_properties.items()}

            def check_properties(value) -> bool:
                if isinstance(value, dict):
                    for name, item in value.items():
                        if name in checks and not checks[name](item):
                            return False
                return True

            def report_properties(value: dict, path: str):
                for name, (accept, report) in compiled_properties.items():
                    if name in value and not accept(value[name]):
                        yield from report(value[name], f"{path}.{name}")

            return check_properties, report_properties
        if keyword == "additionalProperties" and arg is False:
            known = schema.get("properties", {}).keys()

            def report_additional(value: dict, path: str):
                extras = sorted(value.keys() - known, key=str)
                listed = f"{', '.join(map(repr, extras))} {'was' if len(extras) == 1 else 'were'}"
                return [(path, f"Additional properties are not allowed ({listed} unexpected)")]

            return lambda value: not isinstance(value, dict) or value.keys() <= known, report_additional
        if keyword == "required":
            names = frozenset(arg)
            return (
                lambda value: not isinstance(value, dict) or value.keys() >= names,
                lambda value, path: [(path, f"{name!r} is a required property") for name in arg if name not in value],
            )
        if keyword == "items":
            item_check, item_report = schema_check(arg)

            def report_items(value: list, path: str):
                for i, item in enumerate(value):
                    if not item_check(item):
                        yield from item_report(item, f"{path}[{i}]")

            return lambda value: not isinstance(value, list) or all(map(item_check, value)), report_items
        if keyword == "enum" and all(isinstance(member, str) for member in arg):
            members = frozenset(arg)
            return (
                lambda value: isinstance(value, str) and value in members,
                lambda value, path: [(path, f"{value!r} is not one of {arg!r}")],
            )
        if keyword == "pattern":
            search = re.compile(arg).search
            return (
                lambda value: not isinstance(value, str) or search(value) is not None,
                lambda value, path: [(path, f"{value!r} does not match {arg!r}")],
            )
        too_short = "should be non-empty" if arg == 1 else "is too short"
        if keyword == "minLength":
            return lambda value: not isinstance(value, str) or len(value) >= arg, lambda value, path: [(path, f"{value!r} {too_short}")]
        if keyword == "minItems":
            return lambda value: not isinstance(value, list) or len(value) >= arg, lambda value, path: [(path, f"{value!r} {too_short}")]
        if keyword == "oneOf":
            branches = [schema_check(sub)[0] for sub in arg]

            def report_one_of(value, path: str):
                valid = [sub for sub, branch in zip(arg, branches) if branch(value)]
                if not valid:
                    return [(path, f"{value!r} is not valid under any of the given schemas")]
                # jsonschema lists the later valid branches, then the first
                return [(path, f"{value!r} is valid under each of {', '.join(map(repr, valid[1:] + valid[:1]))}")]

            return lambda value: sum(branch(value) for branch in branches) == 1, report_one_of
        raise ValueError(f"cannot compile the schema keyword {keyword!r}: {arg!r}")

    def schema_check(schema: dict) -> tuple[Acceptor, Reporter]:
        if not isinstance(schema, dict):
            raise ValueError(f"cannot compile the schema {schema!r}")
        compiled_keywords = [keyword_check(k, arg, schema) for k, arg in schema.items() if k not in _ANNOTATIONS]
        if len(compiled_keywords) == 1:
            return compiled_keywords[0]
        checks = [accept for accept, _ in compiled_keywords]

        def check_all(value) -> bool:
            for check in checks:
                if not check(value):
                    return False
            return True

        def report_all(value, path: str):
            for accept, report in compiled_keywords:
                if not accept(value):
                    yield from report(value, path)

        return check_all, report_all

    return schema_check(root)


# Whether a manifest is valid, and the problems of one that is not.
_accepts_manifest, _report_manifest = _compile_schema(MANIFEST_SCHEMA)

# The deepest a manifest's arrays and objects may nest, the manifest itself
# being level 1. The schema check and the walks recurse three frames a level,
# so a manifest at the limit needs 770 of Python's default 1000 frames and
# leaves 230 to the caller (the module docstring says what this refuses).
_MAX_NESTING = 256


def _nesting_problem(data: object) -> Optional[tuple[str, str]]:
    """The JSON path of the first array or object, in document order, nested
    deeper than ``_MAX_NESTING`` levels, and its problem; ``None`` if there is
    none. It walks depth first on stacks of its own, so no depth exhausts the
    recursion limit, and stops at the first value too deep, so a value that
    contains itself ends the walk within ``_MAX_NESTING`` levels."""
    if not isinstance(data, (dict, list)):
        return None
    # the items each array or object on the path to the value walked has left to walk, and the
    # key of each in the one before (None for the manifest's own)
    walks, keys = [iter(data.items()) if isinstance(data, dict) else enumerate(data)], [None]
    while walks:
        for key, child in walks[-1]:
            if type(child) is not str and isinstance(child, (dict, list)):  # most values are texts
                if len(walks) == _MAX_NESTING:
                    # an array's items are walked by an enumerate, an object's by its items iterator
                    steps = (f"[{k}]" if type(walk) is enumerate else f".{k}" for walk, k in zip(walks, [*keys[1:], key]))
                    return "$" + "".join(steps), f"nested deeper than {_MAX_NESTING} levels of arrays and objects"
                walks.append(iter(child.items()) if isinstance(child, dict) else enumerate(child))
                keys.append(key)
                break
        else:
            walks.pop()
            keys.pop()
    return None


class ManifestError(CpskgError):
    """One or more manifest problems, each tagged with its JSON path."""

    def __init__(self, problems: Sequence[tuple[str, str]]):
        self.problems = list(problems)
        lines = "\n".join(f"  {path}: {message}" for path, message in self.problems)
        super().__init__(f"manifest invalid:\n{lines}")


class CpsManifest:
    """The JSON object ``data`` that ``MANIFEST_SCHEMA`` defines, held as
    given, and the directory its ``xmlPath`` values are relative to."""

    def __init__(self, data: dict, base_dir: Optional[Path] = None):
        self.data = data
        self.base_dir = base_dir
        self.instance_base = data["instanceBase"].rstrip("/")


def manifest_from_dict(data: dict, base_dir: Optional[Path] = None) -> CpsManifest:
    """Validate ``data`` against the schema plus referential rules and
    return a :class:`CpsManifest` that holds ``data`` itself, not a copy, so
    a later change to ``data`` goes unchecked. Raises :class:`ManifestError`
    with JSON paths; the schema's problems alone if any, sorted by path.

    The problems come in the walk's order: the lifecycle record; each
    structure node's id, level, data elements (id, type description,
    instance descriptions), then children; each process's id, states, then
    operators (inputs before outputs); the observations."""
    if problem := _nesting_problem(data):
        raise ManifestError([problem])
    if not _accepts_manifest(data):
        raise ManifestError(sorted(_report_manifest(data, "$"), key=lambda problem: problem[0]))

    problems: list[tuple[str, str]] = []
    ids: dict[str, str] = {}

    def declare(local_id: str, path: str) -> None:
        if local_id in ids:
            problems.append((path, f"id {local_id!r} already declared at {ids[local_id]}"))
        else:
            ids[local_id] = path

    # slug -> the first typeDescription text giving it, and that text's path
    type_slugs: dict[str, tuple[str, str]] = {}
    equation_ids: dict[str, str] = {}
    # The builder mints two nodes under {base}/expr/, where the mapper mints an equation's:
    # operator "expr"'s behavior model is the wrapper of an equation "model", and an instance
    # node of data element "expr" whose slug is n and digits may be a numbered node of an
    # equation "instance". That equation's id -> the first such node, what gives it, its path.
    expr_nodes: dict[str, tuple[str, str, str]] = {}
    base = data["instanceBase"].rstrip("/")

    def under_expr(equation_id: str, node: str, what: str, path: str) -> None:
        """Report ``what`` at ``path`` if the equation ``equation_id``, declared
        earlier, could mint its ``node``; keep it for a later one otherwise."""
        if equation_id in equation_ids:
            problems.append((path, f"{what} would share the node <{node}> with equation {equation_id!r} at {equation_ids[equation_id]}"))
        else:
            expr_nodes.setdefault(equation_id, (node, what, path))

    def one_text_per_slug(slugs: dict[str, tuple[str, str]], text: str, path: str) -> None:
        """Report ``text`` at ``path`` if an earlier, different text in
        ``slugs`` gives its slug, and so would be its node."""
        slug = slugify(text)
        first_text, first_path = slugs.setdefault(slug, (text, path))
        if first_text != text:
            problems.append((path, f"{text!r} would be the node of {first_text!r} at {first_path}: both give the slug {slug!r}"))

    def data_elements(owner: dict, path: str) -> None:
        for di, de in enumerate(owner.get("dataElements", ())):
            dpath = f"{path}.dataElements[{di}]"
            declare(de["id"], f"{dpath}.id")
            one_text_per_slug(type_slugs, de["typeDescription"], f"{dpath}.typeDescription")
            instance_slugs: dict[str, tuple[str, str]] = {}
            for ii, text in enumerate(de.get("instanceDescriptions", ())):
                ipath = f"{dpath}.instanceDescriptions[{ii}]"
                one_text_per_slug(instance_slugs, text, ipath)
                if de["id"] == "expr" and re.fullmatch("n[0-9]+", slug := slugify(text)):
                    under_expr("instance", f"{base}/expr/instance/{slug}", f"instance description {text!r}", ipath)

    record = data["lifecycleRecord"]
    declare(record["id"], "$.lifecycleRecord.id")
    for i, set_id in enumerate(record["informationSets"]):
        declare(set_id, f"$.lifecycleRecord.informationSets[{i}]")

    resource_ids: set[str] = set()

    def structure(node: dict, path: str, parent_rank: int) -> None:
        declare(node["id"], f"{path}.id")
        rank = _LEVEL_RANK[node["level"]]
        if rank < parent_rank:
            problems.append((f"{path}.level", f"{node['level']} cannot be nested inside a lower level"))
        resource_ids.add(node["id"])
        data_elements(node, path)
        for ci, child in enumerate(node.get("children", ())):
            structure(child, f"{path}.children[{ci}]", rank)

    structure(data["structure"], "$.structure", min(_LEVEL_RANK.values()))

    for pi, proc in enumerate(data["processes"]):
        ppath = f"$.processes[{pi}]"
        declare(proc["id"], f"{ppath}.id")
        state_ids: set[str] = set()
        for si, st in enumerate(proc.get("states", ())):
            spath = f"{ppath}.states[{si}]"
            declare(st["id"], f"{spath}.id")
            data_elements(st, spath)
            state_ids.add(st["id"])
        for oi, op in enumerate(proc["operators"]):
            opath = f"{ppath}.operators[{oi}]"
            declare(op["id"], f"{opath}.id")
            if op["id"] == "expr":
                under_expr("model", f"{base}/expr/model", "the behavior model of operator 'expr'", f"{opath}.id")
            if op["assignedResource"] not in resource_ids:
                problems.append((f"{opath}.assignedResource", f"unknown structure node {op['assignedResource']!r}"))
            for key in ("inputs", "outputs"):
                for ii, ref in enumerate(op.get(key, ())):
                    if ref not in state_ids:
                        problems.append((f"{opath}.{key}[{ii}]", f"unknown state {ref!r}"))
            for ei, eq in enumerate(op.get("equations", ())):
                epath = f"{opath}.equations[{ei}]"
                if eq["id"] in equation_ids:
                    problems.append((f"{epath}.id", f"equation id {eq['id']!r} already declared at {equation_ids[eq['id']]}"))
                else:
                    equation_ids[eq["id"]] = f"{epath}.id"
                    if eq["id"] in expr_nodes:
                        node, what, first_path = expr_nodes[eq["id"]]
                        problems.append((f"{epath}.id", f"equation {eq['id']!r} would share the node <{node}> with {what} at {first_path}"))
                xml_path = eq.get("xmlPath")
                if xml_path is not None and base_dir is not None and not (base_dir / xml_path).is_file():
                    problems.append((f"{epath}.xmlPath", f"file not found: {xml_path!r}"))

    for bi, obs in enumerate(data.get("observations", ())):
        if obs["feature"] not in ids:
            problems.append((f"$.observations[{bi}].feature", f"unknown instance id {obs['feature']!r}"))
        if problem := _value_problem(obs["value"]):
            problems.append((f"$.observations[{bi}].value", problem))
        if problem := _timestamp_problem(obs["timestamp"]):
            problems.append((f"$.observations[{bi}].timestamp", problem))

    if problems:
        raise ManifestError(problems)
    return CpsManifest(data, base_dir)


def _value_problem(value: float) -> Optional[str]:
    """The problem with an observation value that is not a finite
    xsd:double, such as the ``1e400``, ``NaN`` and ``-Infinity`` that
    ``json`` reads, or an integer too large for a double."""
    try:
        number = float(value)
    except OverflowError:
        return "integer too large for an xsd:double value"
    if not math.isfinite(number):
        return f"not a finite xsd:double value: {number!r}"
    return None


def _timestamp_problem(timestamp: str) -> Optional[str]:
    """The problem with ``timestamp`` unless it is an xsd:dateTime value
    naming a real date and time."""
    if not _TIMESTAMP_RE.fullmatch(timestamp):
        return f"not an xsd:dateTime value: {timestamp!r}"
    # The seconds' fraction, checked above, is dropped: Python 3.10's
    # fromisoformat reads only 3- or 6-digit fractions.
    whole_seconds = timestamp[:19] + timestamp[19:].lstrip(".0123456789")
    try:
        datetime.fromisoformat(whole_seconds.replace("Z", "+00:00"))
    except ValueError:
        return f"not a valid timestamp: {timestamp!r}"
    return None


def load_manifest(path: Union[str, Path]) -> CpsManifest:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # a JSON syntax error, bytes that are not UTF-8, or nesting too deep to read
        raise ManifestError([("$", f"invalid JSON: {exc}")]) from exc
    if not isinstance(data, dict):
        raise ManifestError([("$", "manifest must be a JSON object")])
    return manifest_from_dict(data, base_dir=path.parent)


def compile_manifest(
    manifest: CpsManifest,
    *,
    vocab: CpsVocabulary = DEFAULT_VOCAB,
    registry: SymbolRegistry = DEFAULT_REGISTRY,
    strict: bool = True,
) -> Graph:
    """Compile a manifest into a graph.

    Fixed order: lifecycle record, structure (with characteristics), then
    each process with its states and data elements followed by its
    equations (parsed, mapped, written into the model graph, attached,
    variables linked), observations. Scope and equation problems are
    aggregated into one :class:`ManifestError` naming each JSON path.

    Each distinct equation source (an infix text, or an ``xmlPath``) is
    read, parsed and mapped once per call, however many equations name it:
    ``om_to_rdf`` maps it, under the id of the first equation that names
    it, into a fragment graph of its own. Every equation, the first one
    included, then writes that fragment into the model graph under its own
    skolem IRIs (``mapper._instantiator``), with the triples and errors
    ``om_to_rdf`` would give it, and is scope-checked and linked under its
    own id. A source that cannot be read, parsed or mapped is tried again
    by each equation that names it, so each reports its own problem.
    Nothing is kept between calls.
    """
    data = manifest.data
    builder = ModelBuilder(manifest.instance_base, vocab)
    record = data["lifecycleRecord"]
    builder.add_lifecycle_record(record["id"], record["informationSets"])
    builder.add_structure(data["structure"])
    # each structure node's data elements scope the variables of the operators assigned to it
    resource_elements: dict[str, Sequence[dict]] = {}
    nodes = [data["structure"]]
    while nodes:
        node = nodes.pop()
        resource_elements[node["id"]] = node.get("dataElements", ())
        nodes.extend(node.get("children", ()))
    problems: list[tuple[str, str]] = []
    # each equation source's fragment, once read, parsed and mapped into a graph of its own, as
    # the function that writes it under an equation's id
    fragments: dict[tuple[str, str], Callable[[str, str, Graph], MappingResult]] = {}
    for pi, proc in enumerate(data["processes"]):
        builder.add_process(proc)
        state_elements = {state["id"]: state.get("dataElements", ()) for state in proc.get("states", ())}
        for oi, op in enumerate(proc["operators"]):
            opath = f"$.processes[{pi}].operators[{oi}]"
            scope: dict[str, str] = {}
            scoped = list(resource_elements.get(op["assignedResource"], ()))
            for state_id in (*op.get("inputs", ()), *op.get("outputs", ())):
                scoped.extend(state_elements.get(state_id, ()))
            for de in scoped:
                name = de.get("variableName")
                if name is None:
                    continue
                if name in scope and scope[name] != de["id"]:
                    problems.append((opath, f"variable {name!r} is declared by both {scope[name]!r} and {de['id']!r}"))
                scope[name] = de["id"]
            for ei, eq in enumerate(op.get("equations", ())):
                epath = f"{opath}.equations[{ei}]"
                infix = eq.get("infix")
                source = ("infix", infix) if infix is not None else ("xml", eq["xmlPath"])
                instantiate = fragments.get(source)
                if instantiate is None and infix is None:
                    try:
                        xml = ((manifest.base_dir or Path(".")) / eq["xmlPath"]).read_bytes()
                    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in xmlPath
                        problems.append((epath, f"cannot read equation file: {exc}"))
                        continue
                # A failed equation may leave part of its fragment in the
                # graph; that graph is discarded, as any problem is raised.
                try:
                    if instantiate is None:
                        expr = (
                            parse_infix(infix, registry=registry, strict=strict)
                            if infix is not None
                            else parse_openmath_xml(xml, strict=strict)
                        )
                        # mapped under this equation's id, so a failure is the one om_to_rdf gives it
                        instantiate = fragments[source] = _instantiator(om_to_rdf(expr, manifest.instance_base, eq["id"], vocab=vocab))
                    result = instantiate(manifest.instance_base, eq["id"], builder.graph)
                except CpskgError as exc:
                    problems.append((epath, str(exc)))
                    continue
                except RecursionError:  # the parsers and om_to_rdf recurse once a nesting level
                    problems.append((epath, "equation nested too deep: parsing or mapping it exceeds Python's recursion limit"))
                    continue
                missing = sorted(result.variables.keys() - scope.keys())
                if missing:
                    for name in missing:
                        problems.append((epath, f"variable {name!r} is not declared by any data element in scope"))
                    continue
                builder.attach_behavior_model(op["id"], result.object_node)
                for name in sorted(result.variables):
                    builder.link_variable_to_data_element(result.variables[name], scope[name])
    if problems:
        raise ManifestError(problems)

    for obs in data.get("observations", ()):
        builder.add_observation(obs["feature"], obs["value"], obs["timestamp"])
    return builder.graph
