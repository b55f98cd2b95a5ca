"""Declarative model manifests: JSON schema, loading, and compilation.

A manifest describes one system model: the lifecycle record, the structure
tree with its characteristics, processes with operators/states/data
elements, equations (inline infix text or referenced OpenMath XML files),
and optional observations. ``compile_manifest`` turns it into a graph in a
fixed order, so identical manifests yield byte-identical N-Triples.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import jsonschema

from .builder import (
    _LEVEL_RANK,
    _STATE_KINDS,
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
from .om.tree import variable_names
from .om.xmlio import parse_openmath_xml
from .rdf import Graph
from .vocab import CpsVocabulary

__all__ = ["CpsManifest", "MANIFEST_SCHEMA", "ManifestError", "compile_manifest", "load_manifest", "manifest_from_dict"]

_ID_PATTERN = "^[A-Za-z_][A-Za-z0-9_.-]*$"
_VARIABLE_PATTERN = "^[A-Za-z_][A-Za-z0-9_]*$"

MANIFEST_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "System model manifest",
    "type": "object",
    "required": ["instanceBase", "lifecycleRecord", "structure", "processes"],
    "additionalProperties": False,
    "properties": {
        "instanceBase": {"type": "string", "pattern": "^[A-Za-z][A-Za-z0-9+.-]*:"},
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
                "typeDescription": {"type": "string", "minLength": 1},
                "instanceDescriptions": {"type": "array", "items": {"type": "string", "minLength": 1}},
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


class ManifestError(CpskgError):
    """One or more manifest problems, each tagged with its JSON path."""

    def __init__(self, problems: Sequence[tuple[str, str]]):
        self.problems = list(problems)
        lines = "\n".join(f"  {path}: {message}" for path, message in self.problems)
        super().__init__(f"manifest invalid:\n{lines}")


@dataclass
class CpsManifest:
    instance_base: str
    lifecycle_record_id: str
    information_sets: list[str]
    structure: StructureNode
    processes: list[ProcessSpec]
    observations: list[ObservationSpec] = field(default_factory=list)
    base_dir: Optional[Path] = None

    def resource_data_elements(self) -> dict[str, Sequence[DataElementSpec]]:
        out: dict[str, Sequence[DataElementSpec]] = {}

        def visit(node: StructureNode) -> None:
            out[node.id] = node.data_elements
            for child in node.children:
                visit(child)

        visit(self.structure)
        return out


def _data_element(data: dict) -> DataElementSpec:
    return DataElementSpec(
        id=data["id"],
        type_description=data["typeDescription"],
        instance_descriptions=tuple(data.get("instanceDescriptions", ())),
        variable_name=data.get("variableName"),
    )


def _structure(data: dict) -> StructureNode:
    return StructureNode(
        id=data["id"],
        level=data["level"],
        children=tuple(_structure(c) for c in data.get("children", ())),
        data_elements=tuple(_data_element(d) for d in data.get("dataElements", ())),
    )


def manifest_from_dict(data: dict, base_dir: Optional[Path] = None) -> CpsManifest:
    """Validate ``data`` against the schema plus referential rules and build
    the typed manifest. Raises :class:`ManifestError` with JSON paths."""
    validator = jsonschema.Draft202012Validator(MANIFEST_SCHEMA)
    schema_problems = [
        (error.json_path, error.message)
        for error in sorted(validator.iter_errors(data), key=lambda e: e.json_path)
    ]
    if schema_problems:
        raise ManifestError(schema_problems)

    manifest = CpsManifest(
        instance_base=data["instanceBase"].rstrip("/"),
        lifecycle_record_id=data["lifecycleRecord"]["id"],
        information_sets=list(data["lifecycleRecord"]["informationSets"]),
        structure=_structure(data["structure"]),
        processes=[
            ProcessSpec(
                id=proc["id"],
                states=tuple(
                    StateSpec(
                        id=st["id"],
                        kind=st["kind"],
                        data_elements=tuple(_data_element(d) for d in st.get("dataElements", ())),
                    )
                    for st in proc.get("states", ())
                ),
                operators=tuple(
                    OperatorSpec(
                        id=op["id"],
                        assigned_resource=op["assignedResource"],
                        inputs=tuple(op.get("inputs", ())),
                        outputs=tuple(op.get("outputs", ())),
                        equations=tuple(
                            EquationSpec(id=eq["id"], infix=eq.get("infix"), xml_path=eq.get("xmlPath"))
                            for eq in op.get("equations", ())
                        ),
                    )
                    for op in proc["operators"]
                ),
            )
            for proc in data["processes"]
        ],
        observations=[
            ObservationSpec(
                feature=obs["feature"],
                value=float(obs["value"]),
                unit=obs.get("unit", ""),
                timestamp=obs["timestamp"],
            )
            for obs in data.get("observations", ())
        ],
        base_dir=base_dir,
    )

    problems = _check_references(manifest)
    if problems:
        raise ManifestError(problems)
    return manifest


def _check_references(m: CpsManifest) -> list[tuple[str, str]]:
    problems: list[tuple[str, str]] = []
    ids: dict[str, str] = {}

    def declare(local_id: str, path: str) -> None:
        if local_id in ids:
            problems.append((path, f"id {local_id!r} already declared at {ids[local_id]}"))
        else:
            ids[local_id] = path

    declare(m.lifecycle_record_id, "$.lifecycleRecord.id")
    for i, set_id in enumerate(m.information_sets):
        declare(set_id, f"$.lifecycleRecord.informationSets[{i}]")

    resource_ids: set[str] = set()

    def visit(node: StructureNode, path: str, parent_rank: Optional[int]) -> None:
        declare(node.id, f"{path}.id")
        resource_ids.add(node.id)
        if parent_rank is not None and _LEVEL_RANK[node.level] < parent_rank:
            problems.append((f"{path}.level", f"{node.level} cannot be nested inside a lower level"))
        for di, de in enumerate(node.data_elements):
            declare(de.id, f"{path}.dataElements[{di}].id")
        for ci, child in enumerate(node.children):
            visit(child, f"{path}.children[{ci}]", _LEVEL_RANK[node.level])

    visit(m.structure, "$.structure", None)

    equation_ids: dict[str, str] = {}
    for pi, proc in enumerate(m.processes):
        ppath = f"$.processes[{pi}]"
        declare(proc.id, f"{ppath}.id")
        state_ids = set()
        for si, state in enumerate(proc.states):
            declare(state.id, f"{ppath}.states[{si}].id")
            state_ids.add(state.id)
            for di, de in enumerate(state.data_elements):
                declare(de.id, f"{ppath}.states[{si}].dataElements[{di}].id")
        for oi, op in enumerate(proc.operators):
            opath = f"{ppath}.operators[{oi}]"
            declare(op.id, f"{opath}.id")
            if op.assigned_resource not in resource_ids:
                problems.append((f"{opath}.assignedResource", f"unknown structure node {op.assigned_resource!r}"))
            for ii, ref in enumerate(op.inputs):
                if ref not in state_ids:
                    problems.append((f"{opath}.inputs[{ii}]", f"unknown state {ref!r}"))
            for ii, ref in enumerate(op.outputs):
                if ref not in state_ids:
                    problems.append((f"{opath}.outputs[{ii}]", f"unknown state {ref!r}"))
            for ei, eq in enumerate(op.equations):
                epath = f"{opath}.equations[{ei}]"
                if eq.id in equation_ids:
                    problems.append((f"{epath}.id", f"equation id {eq.id!r} already declared at {equation_ids[eq.id]}"))
                else:
                    equation_ids[eq.id] = f"{epath}.id"
                if eq.xml_path is not None and m.base_dir is not None:
                    if not (m.base_dir / eq.xml_path).is_file():
                        problems.append((f"{epath}.xmlPath", f"file not found: {eq.xml_path!r}"))

    for bi, obs in enumerate(m.observations):
        if obs.feature not in ids:
            problems.append((f"$.observations[{bi}].feature", f"unknown instance id {obs.feature!r}"))

    return problems


def load_manifest(path: Union[str, Path]) -> CpsManifest:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ManifestError([("$", f"invalid JSON: {exc}")]) from exc
    if not isinstance(data, dict):
        raise ManifestError([("$", "manifest must be a JSON object")])
    return manifest_from_dict(data, base_dir=path.parent)


def compile_manifest(
    manifest: CpsManifest,
    *,
    vocab: Optional[CpsVocabulary] = None,
    registry: SymbolRegistry = DEFAULT_REGISTRY,
    strict: bool = True,
) -> Graph:
    """Compile a manifest into a graph.

    Fixed order: lifecycle record, structure (with characteristics),
    processes with states and data elements, equations (parsed, mapped,
    attached, variables linked), observations. Equation problems are
    aggregated into one :class:`ManifestError` naming each JSON path.
    """
    vocab = vocab or CpsVocabulary.default()
    builder = ModelBuilder(manifest.instance_base, vocab)
    builder.add_lifecycle_record(manifest.lifecycle_record_id, manifest.information_sets)
    builder.add_structure(manifest.structure)
    for proc in manifest.processes:
        builder.add_process(proc)

    resource_elements = manifest.resource_data_elements()
    problems: list[tuple[str, str]] = []
    for pi, proc in enumerate(manifest.processes):
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
                try:
                    if eq.infix is not None:
                        expr = parse_infix(eq.infix, registry=registry, strict=strict)
                    else:
                        xml_file = (manifest.base_dir or Path(".")) / (eq.xml_path or "")
                        expr = parse_openmath_xml(xml_file.read_bytes(), strict=strict)
                except OSError as exc:
                    problems.append((epath, f"cannot read equation file: {exc}"))
                    continue
                except CpskgError as exc:
                    problems.append((epath, str(exc)))
                    continue
                missing = sorted(variable_names(expr) - scope.keys())
                if missing:
                    for name in missing:
                        problems.append((epath, f"variable {name!r} is not declared by any data element in scope"))
                    continue
                result = om_to_rdf(expr, manifest.instance_base, eq.id, om=vocab.om, cd_base=vocab.cd_base)
                builder.graph.update(result.graph)
                builder.attach_behavior_model(builder.iri(op.id), result.object_node)
                for name in sorted(result.variables):
                    builder.link_variable_to_data_element(result.variables[name], builder.iri(scope[name]))
    if problems:
        raise ManifestError(problems)

    for obs in manifest.observations:
        builder.add_observation(builder.iri(obs.feature), obs.value, obs.unit, obs.timestamp)
    return builder.graph
