"""Declarative model manifests: JSON schema, loading, and compilation.

A manifest describes one system model: the lifecycle record, the structure
tree with its characteristics, processes with operators/states/data
elements, equations (inline infix text or referenced OpenMath XML files),
and optional observations. ``compile_manifest`` turns it into a graph in a
fixed order, so identical manifests yield byte-identical N-Triples.

This module is the one home of every manifest rule. ``manifest_from_dict``
checks the schema (``MANIFEST_SCHEMA``), then walks the manifest once: at
each object it declares the ids, checks the rules a schema cannot state
(unique ids, references, level order, observation values and timestamps)
and builds the spec. ``compile_manifest`` adds the rules of each operator's
scope: no variable declared by two data elements, and equations that read,
parse, map and use only declared variables. Each problem names its JSON
path. The ``ModelBuilder`` it drives writes the checked specs and checks
none of these rules again.

The schema check is an acceptor compiled from ``MANIFEST_SCHEMA`` at import.
jsonschema is imported only to report the errors of a manifest the acceptor
rejects, so every error path and message is jsonschema's.
"""

from __future__ import annotations

import json
import math
import re
from datetime import datetime
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from .builder import (
    DataElementSpec,
    EquationSpec,
    ModelBuilder,
    ObservationSpec,
    OperatorSpec,
    ProcessSpec,
    StateSpec,
    StructureNode,
)
from .errors import CpskgError
from .infix import parse_infix
from .mapper import om_to_rdf
from .om.registry import DEFAULT_REGISTRY, SymbolRegistry
from .om.xmlio import parse_openmath_xml
from .rdf import Graph
from .vocab import DEFAULT_VOCAB, CpsVocabulary

__all__ = ["CpsManifest", "MANIFEST_SCHEMA", "ManifestError", "compile_manifest", "load_manifest", "manifest_from_dict"]

# "$(?!\n)" is the end of the text in ECMA-262 and in Python's re, whose
# "$" also matches before a final newline.
_ID_PATTERN = r"^[A-Za-z_][A-Za-z0-9_.-]*$(?!\n)"
_VARIABLE_PATTERN = r"^[A-Za-z_][A-Za-z0-9_]*$(?!\n)"
# an absolute IRI as rdf.Iri accepts it, so every IRI minted under the base is one
_IRI_PATTERN = r'^[A-Za-z][A-Za-z0-9+.-]*:[^\x00-\x20<>"{}|^`\\]*$(?!\n)'
_LEVEL_RANK = {"MechatronicSystem": 0, "Module": 1, "Component": 2}
_STATE_KINDS = ("Product", "Energy", "Information")
_TIMESTAMP_RE = re.compile(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}(\.\d+)?(Z|[+-]\d{2}:\d{2})?")

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

# JSON Schema 2020-12 type names: a bool is not a number.
_TYPES: dict[str, Acceptor] = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "number": lambda value: isinstance(value, (int, float)) and not isinstance(value, bool),
}
# Keywords that assert nothing; "$defs" is read through "$ref".
_ANNOTATIONS = frozenset({"$schema", "title", "$defs"})


def _compile_acceptor(root: dict) -> Acceptor:
    """Compile the JSON Schema ``root`` into a function that answers only
    whether an instance is valid, with the 2020-12 meaning of each keyword.

    It knows the keywords ``MANIFEST_SCHEMA`` uses and no others, and raises
    ``ValueError`` on any other keyword, type name or reference, so a schema
    edit cannot quietly widen what it accepts. A keyword that constrains one
    type passes values of every other type.
    """
    defs = root.get("$defs", {})
    compiled: dict[str, Acceptor] = {}

    def reference(target: str) -> Acceptor:
        name = target.removeprefix("#/$defs/")
        if name == target or name not in defs:
            raise ValueError(f"cannot compile the reference {target!r}")
        if name not in compiled:
            compiled[name] = lambda value: compiled[name](value)  # what a recursive reference sees
            compiled[name] = schema_check(defs[name])
        return compiled[name]

    def keyword_check(keyword: str, arg, schema: dict) -> Acceptor:
        if keyword == "type" and isinstance(arg, str) and arg in _TYPES:
            return _TYPES[arg]
        if keyword == "$ref":
            return reference(arg)
        if keyword == "properties":
            checks = {name: schema_check(sub) for name, sub in arg.items()}

            def check_properties(value) -> bool:
                if isinstance(value, dict):
                    for name, item in value.items():
                        if name in checks and not checks[name](item):
                            return False
                return True

            return check_properties
        if keyword == "additionalProperties" and arg is False:
            known = schema.get("properties", {}).keys()
            return lambda value: not isinstance(value, dict) or value.keys() <= known
        if keyword == "required":
            names = frozenset(arg)
            return lambda value: not isinstance(value, dict) or value.keys() >= names
        if keyword == "items":
            item_check = schema_check(arg)
            return lambda value: not isinstance(value, list) or all(map(item_check, value))
        if keyword == "enum" and all(isinstance(member, str) for member in arg):
            members = frozenset(arg)
            return lambda value: isinstance(value, str) and value in members
        if keyword == "pattern":
            search = re.compile(arg).search
            return lambda value: not isinstance(value, str) or search(value) is not None
        if keyword == "minLength":
            return lambda value: not isinstance(value, str) or len(value) >= arg
        if keyword == "minItems":
            return lambda value: not isinstance(value, list) or len(value) >= arg
        if keyword == "oneOf":
            branches = [schema_check(sub) for sub in arg]
            return lambda value: sum(branch(value) for branch in branches) == 1
        raise ValueError(f"cannot compile the schema keyword {keyword!r}: {arg!r}")

    def schema_check(schema: dict) -> Acceptor:
        if not isinstance(schema, dict):
            raise ValueError(f"cannot compile the schema {schema!r}")
        checks = [keyword_check(k, arg, schema) for k, arg in schema.items() if k not in _ANNOTATIONS]
        if len(checks) == 1:
            return checks[0]

        def check_all(value) -> bool:
            for check in checks:
                if not check(value):
                    return False
            return True

        return check_all

    return schema_check(root)


# Whether a manifest is valid; jsonschema, slow to import and to run, reports
# the errors of one it rejects.
_accepts_manifest = _compile_acceptor(MANIFEST_SCHEMA)


class ManifestError(CpskgError):
    """One or more manifest problems, each tagged with its JSON path."""

    def __init__(self, problems: Sequence[tuple[str, str]]):
        self.problems = list(problems)
        lines = "\n".join(f"  {path}: {message}" for path, message in self.problems)
        super().__init__(f"manifest invalid:\n{lines}")


class CpsManifest:
    """A checked manifest, as ``manifest_from_dict`` builds it."""

    def __init__(
        self, instance_base: str, lifecycle_record_id: str, information_sets: list[str], structure: StructureNode,
        processes: list[ProcessSpec], observations: Optional[list[ObservationSpec]] = None, base_dir: Optional[Path] = None,
    ):
        self.instance_base = instance_base
        self.lifecycle_record_id = lifecycle_record_id
        self.information_sets = information_sets
        self.structure = structure
        self.processes = processes
        self.observations = [] if observations is None else observations
        self.base_dir = base_dir


def manifest_from_dict(data: dict, base_dir: Optional[Path] = None) -> CpsManifest:
    """Validate ``data`` against the schema plus referential rules and build
    the typed manifest. Raises :class:`ManifestError` with JSON paths; the
    schema's are jsonschema's, sorted by path.

    The problems come in the walk's order: the lifecycle record; each
    structure node's id, level, data elements, then children; each
    process's id, states, then operators (inputs before outputs); the
    observations."""
    if not _accepts_manifest(data):
        # Imported here: it is slow to import, and only a rejected manifest needs it.
        import jsonschema

        validator = jsonschema.Draft202012Validator(MANIFEST_SCHEMA)
        schema_problems = [
            (error.json_path, error.message)
            for error in sorted(validator.iter_errors(data), key=lambda e: e.json_path)
        ]
        if schema_problems:
            raise ManifestError(schema_problems)

    problems: list[tuple[str, str]] = []
    ids: dict[str, str] = {}

    def declare(local_id: str, path: str) -> str:
        if local_id in ids:
            problems.append((path, f"id {local_id!r} already declared at {ids[local_id]}"))
        else:
            ids[local_id] = path
        return local_id

    def data_elements(owner: dict, path: str) -> tuple[DataElementSpec, ...]:
        return tuple(
            DataElementSpec(
                id=declare(de["id"], f"{path}.dataElements[{di}].id"),
                type_description=de["typeDescription"],
                instance_descriptions=tuple(de.get("instanceDescriptions", ())),
                variable_name=de.get("variableName"),
            )
            for di, de in enumerate(owner.get("dataElements", ()))
        )

    record = data["lifecycleRecord"]
    declare(record["id"], "$.lifecycleRecord.id")
    for i, set_id in enumerate(record["informationSets"]):
        declare(set_id, f"$.lifecycleRecord.informationSets[{i}]")

    resource_ids: set[str] = set()

    def structure(node: dict, path: str, parent_rank: int) -> StructureNode:
        declare(node["id"], f"{path}.id")
        rank = _LEVEL_RANK[node["level"]]
        if rank < parent_rank:
            problems.append((f"{path}.level", f"{node['level']} cannot be nested inside a lower level"))
        resource_ids.add(node["id"])
        elements = data_elements(node, path)
        children = tuple(
            structure(child, f"{path}.children[{ci}]", rank) for ci, child in enumerate(node.get("children", ()))
        )
        return StructureNode(id=node["id"], level=node["level"], children=children, data_elements=elements)

    root = structure(data["structure"], "$.structure", min(_LEVEL_RANK.values()))

    processes: list[ProcessSpec] = []
    equation_ids: dict[str, str] = {}
    for pi, proc in enumerate(data["processes"]):
        ppath = f"$.processes[{pi}]"
        declare(proc["id"], f"{ppath}.id")
        states: list[StateSpec] = []
        for si, st in enumerate(proc.get("states", ())):
            spath = f"{ppath}.states[{si}]"
            declare(st["id"], f"{spath}.id")
            states.append(StateSpec(id=st["id"], kind=st["kind"], data_elements=data_elements(st, spath)))
        state_ids = {state.id for state in states}
        operators: list[OperatorSpec] = []
        for oi, op in enumerate(proc["operators"]):
            opath = f"{ppath}.operators[{oi}]"
            declare(op["id"], f"{opath}.id")
            if op["assignedResource"] not in resource_ids:
                problems.append((f"{opath}.assignedResource", f"unknown structure node {op['assignedResource']!r}"))
            for key in ("inputs", "outputs"):
                for ii, ref in enumerate(op.get(key, ())):
                    if ref not in state_ids:
                        problems.append((f"{opath}.{key}[{ii}]", f"unknown state {ref!r}"))
            equations: list[EquationSpec] = []
            for ei, eq in enumerate(op.get("equations", ())):
                epath = f"{opath}.equations[{ei}]"
                if eq["id"] in equation_ids:
                    problems.append((f"{epath}.id", f"equation id {eq['id']!r} already declared at {equation_ids[eq['id']]}"))
                else:
                    equation_ids[eq["id"]] = f"{epath}.id"
                xml_path = eq.get("xmlPath")
                if xml_path is not None and base_dir is not None and not (base_dir / xml_path).is_file():
                    problems.append((f"{epath}.xmlPath", f"file not found: {xml_path!r}"))
                equations.append(EquationSpec(id=eq["id"], infix=eq.get("infix"), xml_path=xml_path))
            operators.append(OperatorSpec(
                id=op["id"], assigned_resource=op["assignedResource"], inputs=tuple(op.get("inputs", ())),
                outputs=tuple(op.get("outputs", ())), equations=tuple(equations),
            ))
        processes.append(ProcessSpec(id=proc["id"], operators=tuple(operators), states=tuple(states)))

    observations: list[ObservationSpec] = []
    for bi, obs in enumerate(data.get("observations", ())):
        if obs["feature"] not in ids:
            problems.append((f"$.observations[{bi}].feature", f"unknown instance id {obs['feature']!r}"))
        if problem := _value_problem(obs["value"]):
            problems.append((f"$.observations[{bi}].value", problem))
        if problem := _timestamp_problem(obs["timestamp"]):
            problems.append((f"$.observations[{bi}].timestamp", problem))
        observations.append(ObservationSpec(feature=obs["feature"], value=obs["value"], timestamp=obs["timestamp"]))

    if problems:
        raise ManifestError(problems)
    return CpsManifest(
        instance_base=data["instanceBase"].rstrip("/"),
        lifecycle_record_id=record["id"],
        information_sets=list(record["informationSets"]),
        structure=root,
        processes=processes,
        observations=observations,
        base_dir=base_dir,
    )


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
    except ValueError as exc:  # a JSON syntax error, or bytes that are not UTF-8
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
    equations (parsed, mapped straight into the model graph, attached,
    variables linked), observations. Scope and equation problems are
    aggregated into one :class:`ManifestError` naming each JSON path.
    """
    builder = ModelBuilder(manifest.instance_base, vocab)
    builder.add_lifecycle_record(manifest.lifecycle_record_id, manifest.information_sets)
    builder.add_structure(manifest.structure)
    # each structure node's data elements scope the variables of the operators assigned to it
    resource_elements: dict[str, Sequence[DataElementSpec]] = {}
    nodes = [manifest.structure]
    while nodes:
        node = nodes.pop()
        resource_elements[node.id] = node.data_elements
        nodes.extend(node.children)
    problems: list[tuple[str, str]] = []
    for pi, proc in enumerate(manifest.processes):
        builder.add_process(proc)
        state_elements = {state.id: state.data_elements for state in proc.states}
        for oi, op in enumerate(proc.operators):
            opath = f"$.processes[{pi}].operators[{oi}]"
            scope: dict[str, str] = {}
            scoped = list(resource_elements.get(op.assigned_resource, ()))
            for state_id in (*op.inputs, *op.outputs):
                scoped.extend(state_elements.get(state_id, ()))
            for de in scoped:
                if de.variable_name is None:
                    continue
                if de.variable_name in scope and scope[de.variable_name] != de.id:
                    problems.append((opath, f"variable {de.variable_name!r} is declared by both {scope[de.variable_name]!r} and {de.id!r}"))
                scope[de.variable_name] = de.id
            for ei, eq in enumerate(op.equations):
                epath = f"{opath}.equations[{ei}]"
                if eq.infix is None:
                    try:
                        xml = ((manifest.base_dir or Path(".")) / (eq.xml_path or "")).read_bytes()
                    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in xmlPath
                        problems.append((epath, f"cannot read equation file: {exc}"))
                        continue
                # A failed equation may leave part of its fragment in the
                # graph; that graph is discarded, as any problem is raised.
                try:
                    if eq.infix is not None:
                        expr = parse_infix(eq.infix, registry=registry, strict=strict)
                    else:
                        expr = parse_openmath_xml(xml, strict=strict)
                    result = om_to_rdf(expr, manifest.instance_base, eq.id, vocab=vocab, graph=builder.graph)
                except CpskgError as exc:
                    problems.append((epath, str(exc)))
                    continue
                missing = sorted(result.variables.keys() - scope.keys())
                if missing:
                    for name in missing:
                        problems.append((epath, f"variable {name!r} is not declared by any data element in scope"))
                    continue
                builder.attach_behavior_model(builder.iri(op.id), result.object_node)
                for name in sorted(result.variables):
                    builder.link_variable_to_data_element(result.variables[name], builder.iri(scope[name]))
    if problems:
        raise ManifestError(problems)

    for obs in manifest.observations:
        builder.add_observation(builder.iri(obs.feature), obs.value, obs.timestamp)
    return builder.graph
