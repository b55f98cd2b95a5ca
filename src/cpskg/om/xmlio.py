"""Lossless reader/writer for the OpenMath XML encoding.

Supported elements: OMOBJ, OMA, OMS, OMV, OMI, OMF. Binding-level elements
(OMBIND, OMSTR, OMB, OME, OMATTR, OMR) are rejected in strict mode and
skipped with a warning in lenient mode. The writer emits a canonical form:
two-space indentation, ``cd`` before ``name``, and OMF values as the
shortest decimal string that round-trips to the same double.
"""

from __future__ import annotations

import math
import re
import struct
import warnings
import xml.etree.ElementTree as ET

from ..errors import CpskgError
from .tree import Application, FloatLiteral, IntLiteral, OMExpression, Symbol, Variable

__all__ = [
    "OPENMATH_NS",
    "OmStructureError",
    "XmlSyntaxError",
    "parse_openmath_xml",
    "serialize_openmath_xml",
]

OPENMATH_NS = "http://www.openmath.org/OpenMath"

_UNSUPPORTED = {"OMBIND", "OMSTR", "OMB", "OME", "OMATTR", "OMR", "OMFOREIGN", "OMBVAR"}
_INT_RE = re.compile(r"^[+-]?[0-9]+$")
_HEX_RE = re.compile(r"^[0-9A-Fa-f]{16}$")


class XmlSyntaxError(CpskgError):
    """The input is not well-formed XML."""


class OmStructureError(CpskgError):
    """The XML is well-formed but violates the object-layer structure."""


def _local(elem: ET.Element) -> str:
    tag = elem.tag
    if tag.startswith("{"):
        ns, _, local = tag[1:].partition("}")
        if ns != OPENMATH_NS:
            raise OmStructureError(f"element <{local}> is in a foreign namespace: {ns}")
        return local
    return tag


def _float_from_attrs(elem: ET.Element) -> float:
    """The value of an OMF element. It must be a finite double: no
    xsd:double lexical form or infix text in this toolchain carries INF or
    NaN, and a decimal such as ``1e400`` overflows to INF."""
    dec, hexval = elem.get("dec"), elem.get("hex")
    if dec is not None:
        try:
            value = float(dec.strip())
        except ValueError as exc:
            raise OmStructureError(f"invalid OMF dec value: {dec!r}") from exc
    elif hexval is not None:
        if not _HEX_RE.match(hexval.strip()):
            raise OmStructureError(f"invalid OMF hex value: {hexval!r}")
        value = struct.unpack(">d", bytes.fromhex(hexval.strip()))[0]
    else:
        raise OmStructureError("OMF requires a dec or hex attribute")
    if not math.isfinite(value):
        written = f"dec={dec!r}" if dec is not None else f"hex={hexval!r}"
        raise OmStructureError(f"OMF value is not a finite double: {written}")
    return value


def _parse_element(elem: ET.Element, strict: bool) -> OMExpression | None:
    tag = _local(elem)
    if tag == "OMA":
        children = []
        for child in elem:
            parsed = _parse_element(child, strict)
            if parsed is not None:
                children.append(parsed)
        if not children:
            raise OmStructureError("OMA requires an operator child")
        return Application(children[0], tuple(children[1:]))
    if tag == "OMS":
        cd, name = elem.get("cd"), elem.get("name")
        if not cd or not name:
            raise OmStructureError("OMS requires non-empty cd and name attributes")
        return Symbol(cd, name)
    if tag == "OMV":
        name = elem.get("name")
        if not name:
            raise OmStructureError("OMV requires a non-empty name attribute")
        try:
            return Variable(name)
        except ValueError as exc:
            raise OmStructureError(str(exc)) from exc
    if tag == "OMI":
        text = "".join(elem.itertext()).strip()
        if not _INT_RE.match(text):
            raise OmStructureError(f"invalid OMI value: {text!r}")
        try:
            return IntLiteral(int(text))
        except ValueError:  # Python's limit on integer-string conversion
            raise OmStructureError(f"OMI value is too long to convert: {len(text.lstrip('+-'))} digits") from None
    if tag == "OMF":
        return FloatLiteral(_float_from_attrs(elem))
    if tag in _UNSUPPORTED:
        if strict:
            raise OmStructureError(f"unsupported element <{tag}> in strict mode")
        warnings.warn(f"skipping unsupported OpenMath element <{tag}>", stacklevel=2)
        return None
    raise OmStructureError(f"unexpected element <{tag}>")


def parse_openmath_xml(data: bytes | str, *, strict: bool = True) -> OMExpression:
    """Parse an OMOBJ document into an expression tree.

    Whitespace between elements is insignificant; argument order is
    preserved exactly. Raises :class:`XmlSyntaxError` on malformed XML and
    :class:`OmStructureError` on object-layer violations.
    """
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise XmlSyntaxError(f"malformed XML: {exc}") from exc
    if _local(root) != "OMOBJ":
        raise OmStructureError(f"expected OMOBJ root element, found <{_local(root)}>")
    objects = []
    for child in root:
        parsed = _parse_element(child, strict)
        if parsed is not None:
            objects.append(parsed)
    if len(objects) != 1:
        raise OmStructureError(f"OMOBJ must contain exactly one object element, found {len(objects)}")
    return objects[0]


def _attr(value: str) -> str:
    # by hand: xml.sax.saxutils would pull urllib and email into every import
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")


def _emit(expr: OMExpression, depth: int, lines: list[str]) -> None:
    pad = "  " * depth
    if isinstance(expr, Application):
        lines.append(f"{pad}<OMA>")
        _emit(expr.operator, depth + 1, lines)
        for arg in expr.arguments:
            _emit(arg, depth + 1, lines)
        lines.append(f"{pad}</OMA>")
    elif isinstance(expr, Symbol):
        lines.append(f'{pad}<OMS cd="{_attr(expr.cd)}" name="{_attr(expr.name)}"/>')
    elif isinstance(expr, Variable):
        lines.append(f'{pad}<OMV name="{_attr(expr.name)}"/>')
    elif isinstance(expr, IntLiteral):
        lines.append(f"{pad}<OMI>{expr.decimal()}</OMI>")
    elif isinstance(expr, FloatLiteral):
        lines.append(f'{pad}<OMF dec="{expr.value!r}"/>')
    else:
        raise TypeError(f"not an expression node: {expr!r}")


def serialize_openmath_xml(expr: OMExpression) -> str:
    """Emit canonical OpenMath XML; ``parse_openmath_xml`` inverts it exactly."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<OMOBJ xmlns="{OPENMATH_NS}">',
    ]
    _emit(expr, 1, lines)
    lines.append("</OMOBJ>")
    return "\n".join(lines) + "\n"
