"""cpskg: compile time-continuous behavior models into RDF knowledge graphs.

The pipeline: infix text or OpenMath XML -> expression tree -> RDF
expression fragment -> contextualized model graph (structure, processes,
data elements, lifecycle record, observations) -> deterministic N-Triples
or Turtle, with shape validation and numeric spot-evaluation on the side.
"""

from .evaluator import evaluate, load_bindings
from .infix import parse_infix, print_infix
from .manifest import compile_manifest, load_manifest, manifest_from_dict
from .mapper import MappingResult, om_to_rdf, rdf_to_om
from .om import (
    Application,
    FloatLiteral,
    IntLiteral,
    OMExpression,
    Symbol,
    Variable,
    canonical_form,
    parse_openmath_xml,
    serialize_openmath_xml,
)
from .rdf import Graph, Iri, Literal, Namespace, PatternQuery, Triple, Var, from_ntriples, match, serialize
from .validator import validate
from .vocab import CpsVocabulary, ToolConfig, load_config

__version__ = "0.1.0"

__all__ = [
    "Application",
    "CpsVocabulary",
    "FloatLiteral",
    "Graph",
    "IntLiteral",
    "Iri",
    "Literal",
    "MappingResult",
    "Namespace",
    "OMExpression",
    "PatternQuery",
    "Symbol",
    "ToolConfig",
    "Triple",
    "Var",
    "Variable",
    "canonical_form",
    "compile_manifest",
    "evaluate",
    "from_ntriples",
    "load_bindings",
    "load_config",
    "load_manifest",
    "manifest_from_dict",
    "match",
    "om_to_rdf",
    "parse_infix",
    "parse_openmath_xml",
    "print_infix",
    "rdf_to_om",
    "serialize",
    "serialize_openmath_xml",
    "validate",
    "__version__",
]
