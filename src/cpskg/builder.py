"""Typed graph construction for system models.

One builder instance owns one graph and mints deterministic IRIs under a
single instance base: named things live at ``{base}/{id}``, anonymous nodes
at ``{base}/node/{context}/{key}``, behavior models at
``{operator}/model``. The operations mirror the modeling layers: lifecycle
records, the mechatronic structure tree, process operators with their
input/output states, data elements, behavior-model attachment, variable
links, and timestamped observations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime
from typing import Optional, Sequence

from .errors import CpskgError
from .rdf import RDF, XSD, Graph, Iri, Literal, NodeRef, Triple
from .vocab import CpsVocabulary

__all__ = [
    "BuildError",
    "CyclicStructureError",
    "DataElementSpec",
    "DuplicateIdError",
    "EquationSpec",
    "InvalidTimestampError",
    "LevelInversionError",
    "MissingTypeDescriptionError",
    "ModelBuilder",
    "NotAnObjectError",
    "NotAnOperatorError",
    "ObservationSpec",
    "OperatorSpec",
    "ProcessSpec",
    "StateSpec",
    "StructureNode",
    "TypeMismatchError",
    "UnresolvedReferenceError",
    "check_timestamp",
    "slugify",
]

_LEVEL_RANK = {"MechatronicSystem": 0, "Module": 1, "Component": 2}
_STATE_KINDS = ("Product", "Energy", "Information")
_TIMESTAMP_RE = re.compile(r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}(\.\d+)?(Z|[+-]\d{2}:\d{2})?$")


class BuildError(CpskgError):
    """Base for graph-construction failures."""


class DuplicateIdError(BuildError):
    pass


class CyclicStructureError(BuildError):
    pass


class LevelInversionError(BuildError):
    pass


class UnresolvedReferenceError(BuildError):
    pass


class MissingTypeDescriptionError(BuildError):
    pass


class NotAnOperatorError(BuildError):
    pass


class NotAnObjectError(BuildError):
    pass


class TypeMismatchError(BuildError):
    pass


class InvalidTimestampError(BuildError):
    pass


def slugify(text: str) -> str:
    """Reduce free text to a deterministic IRI path segment."""
    slug = re.sub(r"[^A-Za-z0-9]+", "_", text.strip()).strip("_").lower()
    return slug or "x"


def check_timestamp(timestamp: str) -> None:
    """Raise :class:`InvalidTimestampError` unless ``timestamp`` is an
    xsd:dateTime value naming a real date and time."""
    if not _TIMESTAMP_RE.match(timestamp):
        raise InvalidTimestampError(f"not an xsd:dateTime value: {timestamp!r}")
    try:
        datetime.fromisoformat(timestamp.replace("Z", "+00:00"))
    except ValueError as exc:
        raise InvalidTimestampError(f"not a valid timestamp: {timestamp!r}") from exc


@dataclass
class DataElementSpec:
    id: str
    type_description: str
    instance_descriptions: Sequence[str] = ()
    variable_name: Optional[str] = None


@dataclass
class StructureNode:
    id: str
    level: str
    children: Sequence["StructureNode"] = ()
    data_elements: Sequence[DataElementSpec] = ()


@dataclass
class StateSpec:
    id: str
    kind: str
    data_elements: Sequence[DataElementSpec] = ()


@dataclass
class EquationSpec:
    id: str
    infix: Optional[str] = None
    xml_path: Optional[str] = None


@dataclass
class OperatorSpec:
    id: str
    assigned_resource: str
    inputs: Sequence[str] = ()
    outputs: Sequence[str] = ()
    equations: Sequence[EquationSpec] = ()


@dataclass
class ProcessSpec:
    id: str
    operators: Sequence[OperatorSpec]
    states: Sequence[StateSpec] = ()


@dataclass
class ObservationSpec:
    feature: str
    value: float
    timestamp: str
    unit: str = ""


class ModelBuilder:
    """Accumulates one model graph; see module docstring for IRI rules."""

    def __init__(self, instance_base: str, vocab: Optional[CpsVocabulary] = None):
        self.vocab = vocab or CpsVocabulary.default()
        self.instance_base = instance_base.rstrip("/")
        self.graph = Graph()
        self._lifecycle_ids: set[str] = set()
        self._observation_count = 0
        # What this builder wrote, so that the checks made while the graph
        # grows never look it up, which would index it: every subject, and
        # each operator's model.
        self._subjects: set[Iri] = set()
        self._models: dict[Iri, Iri] = {}

    def iri(self, local_id: str) -> Iri:
        return Iri(f"{self.instance_base}/{local_id}")

    def node_iri(self, context: str, key: str) -> Iri:
        return Iri(f"{self.instance_base}/node/{context}/{key}")

    def _add(self, subject: Iri, predicate: Iri, obj: NodeRef) -> None:
        self.graph.add(Triple(subject, predicate, obj))
        self._subjects.add(subject)

    def _has_type(self, node: NodeRef, rdf_class: Iri) -> bool:
        return isinstance(node, Iri) and Triple(node, RDF.type, rdf_class) in self.graph

    # --- lifecycle -------------------------------------------------------

    def add_lifecycle_record(self, record_id: str, information_set_ids: Sequence[str]) -> Iri:
        """Create the record and its information sets; the first set doubles
        as the system-model node."""
        for local_id in (record_id, *information_set_ids):
            if local_id in self._lifecycle_ids:
                raise DuplicateIdError(f"lifecycle id reused: {local_id!r}")
            self._lifecycle_ids.add(local_id)
        v = self.vocab
        record = self.iri(record_id)
        self._add(record, RDF.type, v.din77005.LifeCycleRecord)
        for index, set_id in enumerate(information_set_ids):
            info_set = self.iri(set_id)
            self._add(info_set, RDF.type, v.din77005.InformationSet)
            self._add(record, v.din77005.hasInformationSet, info_set)
            if index == 0:
                self._add(info_set, RDF.type, v.cpsmod.SystemModel)
        return record

    # --- structure -------------------------------------------------------

    def add_structure(self, root: StructureNode) -> Iri:
        """Type every node per its level and link parents to children via
        ``vdi2206:consistsOf``; declared data elements are added as well."""
        seen: set[str] = set()

        def visit(node: StructureNode, parent_rank: Optional[int]) -> Iri:
            if node.level not in _LEVEL_RANK:
                raise BuildError(f"unknown structure level: {node.level!r}")
            rank = _LEVEL_RANK[node.level]
            if parent_rank is not None and rank < parent_rank:
                raise LevelInversionError(f"{node.level} nested inside a lower level at {node.id!r}")
            if node.id in seen:
                raise CyclicStructureError(f"structure node appears twice: {node.id!r}")
            seen.add(node.id)
            node_iri = self.iri(node.id)
            self._add(node_iri, RDF.type, self.vocab.vdi2206.term(node.level))
            for de in node.data_elements:
                self.add_data_element(node_iri, de)
            for child in node.children:
                self._add(node_iri, self.vocab.vdi2206.consistsOf, visit(child, rank))
            return node_iri

        return visit(root, None)

    # --- processes -------------------------------------------------------

    def add_process(self, spec: ProcessSpec) -> Iri:
        """Add a process with its states and operators. Operator equations,
        if any, are not compiled here; see ``manifest.compile_manifest``."""
        v = self.vocab
        process = self.iri(spec.id)
        self._add(process, RDF.type, v.vdi3682.Process)
        state_nodes: dict[str, Iri] = {}
        for state in spec.states:
            if state.kind not in _STATE_KINDS:
                raise UnresolvedReferenceError(f"state kind must be one of {_STATE_KINDS}: {state.kind!r}")
            node = self.iri(state.id)
            state_nodes[state.id] = node
            self._add(node, RDF.type, v.vdi3682.term(state.kind))
            for de in state.data_elements:
                self.add_data_element(node, de)
        for op in spec.operators:
            op_node = self.iri(op.id)
            self._add(op_node, RDF.type, v.vdi3682.ProcessOperator)
            self._add(process, v.vdi3682.consistsOf, op_node)
            resource = self.iri(op.assigned_resource)
            if not any(self._has_type(resource, v.vdi2206.term(level)) for level in _LEVEL_RANK):
                raise UnresolvedReferenceError(f"assigned resource is not a declared structure node: {op.assigned_resource!r}")
            self._add(op_node, v.vdi3682.isAssignedTo, resource)
            self._add(resource, RDF.type, v.vdi3682.TechnicalResource)
            for state_id in op.inputs:
                if state_id not in state_nodes:
                    raise UnresolvedReferenceError(f"operator input is not a declared state: {state_id!r}")
                self._add(op_node, v.vdi3682.hasInput, state_nodes[state_id])
            for state_id in op.outputs:
                if state_id not in state_nodes:
                    raise UnresolvedReferenceError(f"operator output is not a declared state: {state_id!r}")
                self._add(op_node, v.vdi3682.hasOutput, state_nodes[state_id])
        return process

    # --- data elements ---------------------------------------------------

    def add_data_element(self, owner: Iri, spec: DataElementSpec) -> Iri:
        """Attach a data element to a state or technical resource.

        Type and instance description texts are encoded in deterministic
        node IRIs (shared per slug), keeping the emitted shape minimal.
        """
        if owner not in self._subjects:
            raise UnresolvedReferenceError(f"data-element owner does not exist in the graph: {owner}")
        if not spec.type_description or not spec.type_description.strip():
            raise MissingTypeDescriptionError(f"data element {spec.id!r} has no type description")
        v = self.vocab
        element = self.iri(spec.id)
        self._add(owner, v.dinen61360.hasDataElement, element)
        self._add(element, RDF.type, v.dinen61360.DataElement)
        type_node = self.node_iri("type", slugify(spec.type_description))
        self._add(element, v.dinen61360.hasTypeDescription, type_node)
        self._add(type_node, RDF.type, v.dinen61360.TypeDescription)
        for text in spec.instance_descriptions:
            instance = Iri(f"{element.value}/instance/{slugify(text)}")
            self._add(element, v.dinen61360.hasInstanceDescription, instance)
            self._add(instance, RDF.type, v.dinen61360.InstanceDescription)
        return element

    # --- behavior --------------------------------------------------------

    def attach_behavior_model(self, operator_node: Iri, object_node: Iri) -> Iri:
        """Link an equation wrapper to an operator through one mathematical-
        model node per operator (fan-out for further equations)."""
        v = self.vocab
        if not self._has_type(operator_node, v.vdi3682.ProcessOperator):
            raise NotAnOperatorError(f"not a process operator: {operator_node}")
        if not self._has_type(object_node, v.om.Object):
            raise NotAnObjectError(f"not an expression wrapper node: {object_node}")
        model = self._models.get(operator_node)
        if model is None:
            model = self._models[operator_node] = Iri(f"{operator_node.value}/model")
            self._add(model, RDF.type, v.vdi2206.MathematicalModel)
            self._add(operator_node, v.cpsmod.processOperatorBehaviorModel, model)
        self._add(model, v.cpsmod.hasOMObject, object_node)
        return model

    def link_variable_to_data_element(self, variable_node: NodeRef, data_element_node: NodeRef) -> None:
        if not self._has_type(variable_node, self.vocab.om.Variable):
            raise TypeMismatchError(f"not a variable node: {variable_node!r}")
        if not self._has_type(data_element_node, self.vocab.dinen61360.DataElement):
            raise TypeMismatchError(f"not a data element: {data_element_node!r}")
        self._add(variable_node, self.vocab.cpsmod.isDataFor, data_element_node)

    # --- observations ----------------------------------------------------

    def add_observation(self, feature: Iri, value: float, unit: str, timestamp: str) -> Iri:
        """Record a timestamped observation on a feature of interest.

        The unit is part of the manifest/binding vocabulary, not the graph;
        the simple result is a plain xsd:double.
        """
        # A feature may be any node of the graph, such as an expression node
        # merged in from om_to_rdf, so this check asks the graph. Observations
        # come last in compile_manifest, so its graph is indexed only then.
        if not self.graph.triples(feature):
            raise UnresolvedReferenceError(f"observation feature does not exist in the graph: {feature}")
        check_timestamp(timestamp)
        v = self.vocab
        observation = self.node_iri("obs", str(self._observation_count))
        self._observation_count += 1
        self._add(observation, RDF.type, v.sosa.Observation)
        self._add(observation, v.sosa.hasFeatureOfInterest, feature)
        self._add(observation, v.sosa.hasSimpleResult, Literal(repr(float(value)), XSD.double))
        self._add(observation, v.sosa.resultTime, Literal(timestamp, XSD.dateTime))
        return observation
