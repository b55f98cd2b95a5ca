"""Typed graph construction for system models.

One builder instance owns one graph and mints deterministic IRIs under a
single instance base: named things live at ``{base}/{id}``, anonymous nodes
at ``{base}/node/{context}/{key}``, behavior models at
``{operator}/model``. The operations mirror the modeling layers: lifecycle
records, the mechatronic structure tree, process operators with their
input/output states, data elements, behavior-model attachment, variable
links, and timestamped observations.

Every operation trusts its spec: the manifest check
(``manifest.manifest_from_dict``) is the one home of every manifest rule,
and the builder checks none of them again. ``add_observation`` alone asks
the graph whether its feature exists. The manifest check already requires
a feature to be a declared id, and every declared id is a node of the
graph, so only direct use of the builder can fail that check.
"""

from __future__ import annotations

import re
from typing import Optional, Sequence

from .errors import CpskgError
from .rdf import RDF, XSD, Graph, Iri, Literal, NodeRef
from .vocab import DEFAULT_VOCAB, CpsVocabulary

__all__ = [
    "BuildError",
    "DataElementSpec",
    "EquationSpec",
    "ModelBuilder",
    "ObservationSpec",
    "OperatorSpec",
    "ProcessSpec",
    "StateSpec",
    "StructureNode",
    "UnresolvedReferenceError",
    "slugify",
]


class BuildError(CpskgError):
    """Base for graph-construction failures."""


class UnresolvedReferenceError(BuildError):
    pass


def slugify(text: str) -> str:
    """Reduce free text to a deterministic IRI path segment."""
    slug = re.sub(r"[^A-Za-z0-9]+", "_", text.strip()).strip("_").lower()
    return slug or "x"


class DataElementSpec:
    def __init__(self, id: str, type_description: str, instance_descriptions: Sequence[str] = (), variable_name: Optional[str] = None):
        self.id = id
        self.type_description = type_description
        self.instance_descriptions = instance_descriptions
        self.variable_name = variable_name


class StructureNode:
    def __init__(self, id: str, level: str, children: Sequence["StructureNode"] = (), data_elements: Sequence[DataElementSpec] = ()):
        self.id = id
        self.level = level
        self.children = children
        self.data_elements = data_elements


class StateSpec:
    def __init__(self, id: str, kind: str, data_elements: Sequence[DataElementSpec] = ()):
        self.id = id
        self.kind = kind
        self.data_elements = data_elements


class EquationSpec:
    def __init__(self, id: str, infix: Optional[str] = None, xml_path: Optional[str] = None):
        self.id = id
        self.infix = infix
        self.xml_path = xml_path


class OperatorSpec:
    def __init__(
        self, id: str, assigned_resource: str, inputs: Sequence[str] = (), outputs: Sequence[str] = (),
        equations: Sequence[EquationSpec] = (),
    ):
        self.id = id
        self.assigned_resource = assigned_resource
        self.inputs = inputs
        self.outputs = outputs
        self.equations = equations


class ProcessSpec:
    def __init__(self, id: str, operators: Sequence[OperatorSpec], states: Sequence[StateSpec] = ()):
        self.id = id
        self.operators = operators
        self.states = states


class ObservationSpec:
    def __init__(self, feature: str, value: float, timestamp: str):
        self.feature = feature
        self.value = value
        self.timestamp = timestamp


class ModelBuilder:
    """Accumulates one model graph from specs that passed the manifest
    check: it mints IRIs and writes triples. See the module docstring for
    the IRI rules."""

    def __init__(self, instance_base: str, vocab: CpsVocabulary = DEFAULT_VOCAB):
        self.vocab = vocab
        self.instance_base = instance_base.rstrip("/")
        self.graph = Graph()
        self._observation_count = 0

    def iri(self, local_id: str) -> Iri:
        return Iri(f"{self.instance_base}/{local_id}")

    def node_iri(self, context: str, key: str) -> Iri:
        return Iri(f"{self.instance_base}/node/{context}/{key}")

    # --- lifecycle -------------------------------------------------------

    def add_lifecycle_record(self, record_id: str, information_set_ids: Sequence[str]) -> Iri:
        """Create the record and its information sets; the first set doubles
        as the system-model node."""
        v = self.vocab
        record = self.iri(record_id)
        self.graph.add(record, RDF.type, v.din77005.LifeCycleRecord)
        for index, set_id in enumerate(information_set_ids):
            info_set = self.iri(set_id)
            self.graph.add(info_set, RDF.type, v.din77005.InformationSet)
            self.graph.add(record, v.din77005.hasInformationSet, info_set)
            if index == 0:
                self.graph.add(info_set, RDF.type, v.cpsmod.SystemModel)
        return record

    # --- structure -------------------------------------------------------

    def add_structure(self, root: StructureNode) -> Iri:
        """Type every node per its level and link parents to children via
        ``vdi2206:consistsOf``; declared data elements are added as well."""

        def visit(node: StructureNode) -> Iri:
            node_iri = self.iri(node.id)
            self.graph.add(node_iri, RDF.type, self.vocab.vdi2206.term(node.level))
            for de in node.data_elements:
                self.add_data_element(node_iri, de)
            for child in node.children:
                self.graph.add(node_iri, self.vocab.vdi2206.consistsOf, visit(child))
            return node_iri

        return visit(root)

    # --- processes -------------------------------------------------------

    def add_process(self, spec: ProcessSpec) -> Iri:
        """Add a process with its states and operators. Operator equations,
        if any, are not compiled here; see ``manifest.compile_manifest``."""
        v = self.vocab
        process = self.iri(spec.id)
        self.graph.add(process, RDF.type, v.vdi3682.Process)
        for state in spec.states:
            node = self.iri(state.id)
            self.graph.add(node, RDF.type, v.vdi3682.term(state.kind))
            for de in state.data_elements:
                self.add_data_element(node, de)
        for op in spec.operators:
            op_node = self.iri(op.id)
            self.graph.add(op_node, RDF.type, v.vdi3682.ProcessOperator)
            self.graph.add(process, v.vdi3682.consistsOf, op_node)
            resource = self.iri(op.assigned_resource)
            self.graph.add(op_node, v.vdi3682.isAssignedTo, resource)
            self.graph.add(resource, RDF.type, v.vdi3682.TechnicalResource)
            for state_id in op.inputs:
                self.graph.add(op_node, v.vdi3682.hasInput, self.iri(state_id))
            for state_id in op.outputs:
                self.graph.add(op_node, v.vdi3682.hasOutput, self.iri(state_id))
        return process

    # --- data elements ---------------------------------------------------

    def add_data_element(self, owner: Iri, spec: DataElementSpec) -> Iri:
        """Attach a data element to a state or technical resource.

        Type and instance description texts are encoded in deterministic
        node IRIs (shared per slug), keeping the emitted shape minimal.
        """
        v = self.vocab
        element = self.iri(spec.id)
        self.graph.add(owner, v.dinen61360.hasDataElement, element)
        self.graph.add(element, RDF.type, v.dinen61360.DataElement)
        type_node = self.node_iri("type", slugify(spec.type_description))
        self.graph.add(element, v.dinen61360.hasTypeDescription, type_node)
        self.graph.add(type_node, RDF.type, v.dinen61360.TypeDescription)
        for text in spec.instance_descriptions:
            instance = Iri(f"{element.value}/instance/{slugify(text)}")
            self.graph.add(element, v.dinen61360.hasInstanceDescription, instance)
            self.graph.add(instance, RDF.type, v.dinen61360.InstanceDescription)
        return element

    # --- behavior --------------------------------------------------------

    def attach_behavior_model(self, operator_node: Iri, object_node: Iri) -> Iri:
        """Link an equation wrapper to an operator through one mathematical-
        model node per operator (fan-out for further equations); a further
        equation re-adds the model's two triples, which changes nothing."""
        v = self.vocab
        model = Iri(f"{operator_node.value}/model")
        self.graph.add(model, RDF.type, v.vdi2206.MathematicalModel)
        self.graph.add(operator_node, v.cpsmod.processOperatorBehaviorModel, model)
        self.graph.add(model, v.cpsmod.hasOMObject, object_node)
        return model

    def link_variable_to_data_element(self, variable_node: NodeRef, data_element_node: NodeRef) -> None:
        self.graph.add(variable_node, self.vocab.cpsmod.isDataFor, data_element_node)

    # --- observations ----------------------------------------------------

    def add_observation(self, feature: Iri, value: float, timestamp: str) -> Iri:
        """Record a timestamped observation on a feature of interest; the
        simple result is a plain xsd:double."""
        # compile_manifest passes only declared ids, which are all in the
        # graph; this check can fail only for a caller of the builder itself.
        # A lookup by subject reads the graph's store and builds no index.
        if not self.graph.triples(feature):
            raise UnresolvedReferenceError(f"observation feature does not exist in the graph: {feature}")
        v = self.vocab
        observation = self.node_iri("obs", str(self._observation_count))
        self._observation_count += 1
        self.graph.add(observation, RDF.type, v.sosa.Observation)
        self.graph.add(observation, v.sosa.hasFeatureOfInterest, feature)
        self.graph.add(observation, v.sosa.hasSimpleResult, Literal(repr(float(value)), XSD.double))
        self.graph.add(observation, v.sosa.resultTime, Literal(timestamp, XSD.dateTime))
        return observation
