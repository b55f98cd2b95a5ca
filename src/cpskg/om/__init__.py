"""Expression layer: trees, the content-dictionary registry, and XML I/O."""

from .registry import DEFAULT_REGISTRY, SymbolRegistry
from .tree import (
    Application,
    FloatLiteral,
    IntLiteral,
    IntLiteralTooLongError,
    NonFiniteFloatError,
    OMExpression,
    Symbol,
    Variable,
    app,
    canonical_form,
)
from .xmlio import OmStructureError, XmlSyntaxError, parse_openmath_xml, serialize_openmath_xml

__all__ = [
    "Application",
    "DEFAULT_REGISTRY",
    "FloatLiteral",
    "IntLiteral",
    "IntLiteralTooLongError",
    "NonFiniteFloatError",
    "OMExpression",
    "OmStructureError",
    "Symbol",
    "SymbolRegistry",
    "Variable",
    "XmlSyntaxError",
    "app",
    "canonical_form",
    "parse_openmath_xml",
    "serialize_openmath_xml",
]
