"""Namespace bindings, vocabulary defaults, and tool configuration.

All vocabulary namespaces except rdf/xsd/sosa are repo-local defaults and
can be overridden through one JSON configuration file (see
docs/namespaces.md). The configuration also sets strictness, the CD base
IRI used for symbol nodes, and symbols added to the registry.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Optional, Union

from .errors import CpskgError
from .om.registry import DEFAULT_REGISTRY, SymbolRegistry
from .rdf import RDF, XSD, InvalidIriError, Iri, Namespace
from .value import Value

__all__ = [
    "ConfigError",
    "CpsVocabulary",
    "DEFAULT_CD_BASE",
    "DEFAULT_NAMESPACES",
    "DEFAULT_VOCAB",
    "ToolConfig",
    "load_config",
]

DEFAULT_CD_BASE = "http://www.openmath.org/cd"

DEFAULT_NAMESPACES: dict[str, str] = {
    "om": "http://example.org/cpskg/openmath#",
    "cpsmod": "http://example.org/cpskg/cpsmod#",
    "vdi3682": "http://example.org/cpskg/vdi3682#",
    "vdi2206": "http://example.org/cpskg/vdi2206#",
    "dinen61360": "http://example.org/cpskg/dinen61360#",
    "din77005": "http://example.org/cpskg/din77005#",
    "sosa": "http://www.w3.org/ns/sosa/",
}


class ConfigError(CpskgError):
    """An unreadable or invalid configuration file."""


class CpsVocabulary(Value):
    """Term namespaces for the modeling stack plus the CD base IRI, and the
    one source of prefix bindings: graphs carry none of their own."""

    __slots__ = ("om", "cpsmod", "vdi3682", "vdi2206", "dinen61360", "din77005", "sosa", "cd_base")

    def __init__(
        self, om: Namespace, cpsmod: Namespace, vdi3682: Namespace, vdi2206: Namespace,
        dinen61360: Namespace, din77005: Namespace, sosa: Namespace, cd_base: str = DEFAULT_CD_BASE,
    ):
        for name, value in zip(self._fields, (om, cpsmod, vdi3682, vdi2206, dinen61360, din77005, sosa, cd_base)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_mapping(cls, namespaces: Mapping[str, str], cd_base: Optional[str] = None) -> "CpsVocabulary":
        """The default namespaces with ``namespaces`` overriding some of
        them; a trailing ``/`` on ``cd_base`` is dropped. A ``cd_base`` that
        is not an absolute IRI raises :class:`InvalidIriError`, as a bad
        namespace does."""
        if cd_base is None:
            cd_base = DEFAULT_CD_BASE
        Iri(cd_base)  # validate
        merged = dict(DEFAULT_NAMESPACES)
        for key, value in namespaces.items():
            if key not in merged:
                raise ConfigError(f"unknown namespace key: {key!r}")
            merged[key] = value
        return cls(
            **{key: Namespace(value) for key, value in merged.items()},
            cd_base=cd_base.rstrip("/"),
        )

    def prefixes(self, instance_base: Optional[str] = None) -> dict[str, str]:
        """Prefix bindings for Turtle output and query patterns: ``rdf``,
        ``xsd`` and the vocabulary namespaces, plus ``ex`` for the instance
        base when one is given."""
        out = {"rdf": RDF.base, "xsd": XSD.base}
        out.update((key, getattr(self, key).base) for key in DEFAULT_NAMESPACES)
        if instance_base is not None:
            out["ex"] = instance_base.rstrip("/") + "/"
        return out


# The default vocabulary; one shared instance, as it is immutable.
DEFAULT_VOCAB = CpsVocabulary.from_mapping({})


class ToolConfig(Value):
    """Resolved configuration shared by the CLI commands."""

    __slots__ = ("vocab", "strict", "registry")

    def __init__(self, vocab: CpsVocabulary = DEFAULT_VOCAB, strict: bool = True, registry: SymbolRegistry = DEFAULT_REGISTRY):
        object.__setattr__(self, "vocab", vocab)
        object.__setattr__(self, "strict", strict)
        object.__setattr__(self, "registry", registry)


def load_config(path: Union[str, Path, None]) -> ToolConfig:
    """Load a JSON configuration file; ``None`` yields the defaults.

    The keys read are ``namespaces`` (an object of prefix to IRI overrides),
    ``cdBase`` (an IRI), ``strict`` (a boolean) and ``symbols`` (a list of
    registry additions, each an object with non-empty string ``cd`` and
    ``name`` and an optional string ``token``, the infix spelling). A value
    of the wrong type, or an IRI that is not absolute, is a
    :class:`ConfigError` naming its key; other keys are ignored.
    """
    if path is None:
        return ToolConfig()
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # a JSON syntax error, bytes that are not UTF-8, or nesting too deep to read
        raise ConfigError(f"invalid JSON in configuration file: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("configuration file must contain a JSON object")
    namespaces = data.get("namespaces", {})
    if not isinstance(namespaces, dict) or not all(isinstance(v, str) for v in namespaces.values()):
        raise ConfigError("configuration key 'namespaces' must be an object of strings")
    cd_base = data.get("cdBase", DEFAULT_CD_BASE)
    if not isinstance(cd_base, str):
        raise ConfigError("configuration key 'cdBase' must be a string")
    for prefix, base in namespaces.items():
        _check_iri(f"'namespaces' entry {prefix!r}", base)
    try:
        vocab = CpsVocabulary.from_mapping(namespaces, cd_base)
    except InvalidIriError as exc:  # the namespaces passed their own check above
        raise ConfigError(f"configuration key 'cdBase': {exc}") from None
    strict = data.get("strict", True)
    if not isinstance(strict, bool):
        raise ConfigError("configuration key 'strict' must be a boolean")
    symbols = data.get("symbols", [])
    if not isinstance(symbols, list):
        raise ConfigError("configuration key 'symbols' must be a list")
    extra: dict[tuple[str, str], Optional[str]] = {}
    for i, entry in enumerate(symbols):
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("cd"), str)
            and isinstance(entry.get("name"), str)
            and entry["cd"]
            and entry["name"]
            and isinstance(entry.get("token", ""), str)
        ):
            raise ConfigError(
                f"configuration key 'symbols' entry {i} must be an object with non-empty string "
                f"'cd' and 'name' and an optional string 'token': {entry!r}"
            )
        extra[(entry["cd"], entry["name"])] = entry.get("token")
    return ToolConfig(vocab=vocab, strict=strict, registry=DEFAULT_REGISTRY.extended(extra))


def _check_iri(key: str, value: str) -> None:
    try:
        Iri(value)
    except ValueError as exc:
        raise ConfigError(f"configuration key {key}: {exc}") from None
