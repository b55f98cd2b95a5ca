"""Typed graph construction for system models.

One builder instance owns one graph and mints deterministic IRIs under a
single instance base: named things live at ``{base}/{id}``, anonymous nodes
at ``{base}/node/{context}/{key}``, behavior models at
``{operator}/model``. The operations mirror the modeling layers: lifecycle
records, the mechatronic structure tree, process operators with their
input/output states, data elements, behavior-model attachment, variable
links, and timestamped observations.

``add_structure``, ``add_process`` and ``add_data_element`` read the
manifest's own JSON objects, as ``manifest.MANIFEST_SCHEMA`` defines them.
Every operation trusts its input: the manifest check
(``manifest.manifest_from_dict``) is the one home of every manifest rule,
and the builder checks none of them again. It writes N-Triples texts
through ``Graph._insert``, as ``mapper.om_to_rdf`` does. Each operation
takes the local ids of the nodes it links, and the builder mints their
IRIs: it checks the IRI it makes of each distinct id, slug, and level or
kind name once, when it first makes it, and keeps the text, as a
``CpsManifest`` built by its constructor carries ids that the schema never
saw. The only terms a caller passes in are the equation wrappers and
variable nodes that ``mapper.om_to_rdf`` made; they get the rule
``Graph.add`` applies. Each node returned is the graph's own term.
``add_observation`` alone asks the graph whether its feature exists, which
only direct use of the builder can fail: the manifest check requires a
feature to be a declared id.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Sequence

from .errors import CpskgError
from .rdf import RDF, XSD, Graph, Iri, Literal, Namespace, NodeRef, _check_triple
from .vocab import DEFAULT_VOCAB, CpsVocabulary

__all__ = [
    "BuildError",
    "ModelBuilder",
    "UnresolvedReferenceError",
    "slugify",
]


class BuildError(CpskgError):
    """Base for graph-construction failures."""


class UnresolvedReferenceError(BuildError):
    pass


_SLUG_BREAK = re.compile(r"[^A-Za-z0-9]+")


@lru_cache(maxsize=1024)  # the manifest check and the builder both slug each description
def slugify(text: str) -> str:
    """Reduce free text to a deterministic IRI path segment."""
    slug = _SLUG_BREAK.sub("_", text.strip()).strip("_").lower()
    return slug or "x"


class ModelBuilder:
    """Accumulates one model graph from manifest objects that passed the
    manifest check: it mints IRIs and writes triples. See the module
    docstring for the IRI rules."""

    def __init__(self, instance_base: str, vocab: CpsVocabulary = DEFAULT_VOCAB):
        self.vocab = vocab
        self.instance_base = instance_base.rstrip("/")
        self.graph = Graph()
        self._observation_count = 0
        self._nodes: dict[str, str] = {}  # local id -> N-Triples text
        self._classes: dict[str, str] = {}  # level or kind class IRI -> N-Triples text

    def iri(self, local_id: str) -> Iri:
        return Iri(f"{self.instance_base}/{local_id}")

    def _node(self, local_id: str) -> str:
        """The text of :meth:`iri` of ``local_id``, made and checked once."""
        return self._nodes.get(local_id) or self._nodes.setdefault(local_id, self.iri(local_id)._nt)

    def _class(self, namespace: Namespace, name: str) -> str:
        """The text of ``namespace.term(name)``, made and checked once."""
        key = namespace.base + name
        return self._classes.get(key) or self._classes.setdefault(key, namespace.term(name)._nt)

    # --- lifecycle -------------------------------------------------------

    def add_lifecycle_record(self, record_id: str, information_set_ids: Sequence[str]) -> Iri:
        """Create the record and its information sets; the first set doubles
        as the system-model node."""
        din77005, insert, rdf_type = self.vocab.din77005, self.graph._insert, RDF.type._nt
        record = self._node(record_id)
        insert(record, rdf_type, din77005.LifeCycleRecord._nt)
        for index, set_id in enumerate(information_set_ids):
            info_set = self._node(set_id)
            insert(info_set, rdf_type, din77005.InformationSet._nt)
            insert(record, din77005.hasInformationSet._nt, info_set)
            if index == 0:
                insert(info_set, rdf_type, self.vocab.cpsmod.SystemModel._nt)
        return self.graph._term(record)  # type: ignore[return-value]

    # --- structure -------------------------------------------------------

    def add_structure(self, root: dict) -> Iri:
        """Type every node of the ``structure`` tree ``root`` per its level
        and link parents to children via ``vdi2206:consistsOf``; declared
        data elements are added as well."""
        vdi2206, insert, rdf_type = self.vocab.vdi2206, self.graph._insert, RDF.type._nt
        consists_of = vdi2206.consistsOf._nt

        def visit(node: dict) -> str:
            text = self._node(node["id"])
            insert(text, rdf_type, self._class(vdi2206, node["level"]))
            for de in node.get("dataElements", ()):
                self.add_data_element(node["id"], de)
            for child in node.get("children", ()):
                insert(text, consists_of, visit(child))
            return text

        return self.graph._term(visit(root))  # type: ignore[return-value]

    # --- processes -------------------------------------------------------

    def add_process(self, process: dict) -> Iri:
        """Add a manifest ``process`` with its states and operators.
        Operator equations, if any, are not compiled here; see
        ``manifest.compile_manifest``."""
        vdi3682, insert, node, rdf_type = self.vocab.vdi3682, self.graph._insert, self._node, RDF.type._nt
        process_node = node(process["id"])
        insert(process_node, rdf_type, vdi3682.Process._nt)
        for state in process.get("states", ()):
            insert(node(state["id"]), rdf_type, self._class(vdi3682, state["kind"]))
            for de in state.get("dataElements", ()):
                self.add_data_element(state["id"], de)
        has_input, has_output = vdi3682.hasInput._nt, vdi3682.hasOutput._nt
        for op in process["operators"]:
            op_node, resource = node(op["id"]), node(op["assignedResource"])
            insert(op_node, rdf_type, vdi3682.ProcessOperator._nt)
            insert(process_node, vdi3682.consistsOf._nt, op_node)
            insert(op_node, vdi3682.isAssignedTo._nt, resource)
            insert(resource, rdf_type, vdi3682.TechnicalResource._nt)
            for state_id in op.get("inputs", ()):
                insert(op_node, has_input, node(state_id))
            for state_id in op.get("outputs", ()):
                insert(op_node, has_output, node(state_id))
        return self.graph._term(process_node)  # type: ignore[return-value]

    # --- data elements ---------------------------------------------------

    def add_data_element(self, owner_id: str, element: dict) -> Iri:
        """Attach the manifest data ``element`` to the state or technical
        resource of local id ``owner_id``.

        Type and instance description texts are encoded in deterministic
        node IRIs (shared per slug), keeping the emitted shape minimal.
        """
        dinen61360, insert, rdf_type = self.vocab.dinen61360, self.graph._insert, RDF.type._nt
        element_id = element["id"]
        element_node = self._node(element_id)
        insert(self._node(owner_id), dinen61360.hasDataElement._nt, element_node)
        insert(element_node, rdf_type, dinen61360.DataElement._nt)
        type_node = self._node(f"node/type/{slugify(element['typeDescription'])}")
        insert(element_node, dinen61360.hasTypeDescription._nt, type_node)
        insert(type_node, rdf_type, dinen61360.TypeDescription._nt)
        for text in element.get("instanceDescriptions", ()):
            instance = self._node(f"{element_id}/instance/{slugify(text)}")
            insert(element_node, dinen61360.hasInstanceDescription._nt, instance)
            insert(instance, rdf_type, dinen61360.InstanceDescription._nt)
        return self.graph._term(element_node)  # type: ignore[return-value]

    # --- behavior --------------------------------------------------------

    def attach_behavior_model(self, operator_id: str, object_node: Iri) -> Iri:
        """Link an equation wrapper to the operator of local id
        ``operator_id`` through one mathematical-model node per operator
        (fan-out for further equations); a further equation re-adds the
        model's two triples, which changes nothing."""
        cpsmod, insert = self.vocab.cpsmod, self.graph._insert
        model = self._node(f"{operator_id}/model")
        term = self.graph._term(model)
        _check_triple(term, cpsmod.hasOMObject, object_node)  # the caller's term, as an object
        insert(model, RDF.type._nt, self.vocab.vdi2206.MathematicalModel._nt)
        insert(self._node(operator_id), cpsmod.processOperatorBehaviorModel._nt, model)
        insert(model, cpsmod.hasOMObject._nt, object_node._nt)
        return term  # type: ignore[return-value]

    def link_variable_to_data_element(self, variable_node: NodeRef, data_element_id: str) -> None:
        is_data_for = self.vocab.cpsmod.isDataFor
        _check_triple(variable_node, is_data_for, variable_node)  # the caller's term, as a subject
        self.graph._insert(variable_node._nt, is_data_for._nt, self._node(data_element_id))

    # --- observations ----------------------------------------------------

    def add_observation(self, feature_id: str, value: float, timestamp: str) -> Iri:
        """Record a timestamped observation on the feature of interest of
        local id ``feature_id``; the simple result is a plain xsd:double."""
        feature = self.iri(feature_id)
        # a lookup by subject reads the graph's store and builds no index
        if not self.graph.triples(feature):
            raise UnresolvedReferenceError(f"observation feature does not exist in the graph: {feature}")
        sosa, insert = self.vocab.sosa, self.graph._insert
        observation = self._node(f"node/obs/{self._observation_count}")
        self._observation_count += 1
        insert(observation, RDF.type._nt, sosa.Observation._nt)
        insert(observation, sosa.hasFeatureOfInterest._nt, feature._nt)
        insert(observation, sosa.hasSimpleResult._nt, Literal(repr(float(value)), XSD.double)._nt)
        insert(observation, sosa.resultTime._nt, Literal(timestamp, XSD.dateTime)._nt)
        return self.graph._term(observation)  # type: ignore[return-value]
