"""Hypothesis strategies for expression trees and for manifests, and a walk
over trees that test oracles use."""

from __future__ import annotations

from typing import Iterator

import hypothesis.strategies as st

from cpskg.om.registry import DEFAULT_REGISTRY
from cpskg.om.tree import Application, FloatLiteral, IntLiteral, OMExpression, Symbol, Variable

SYMBOLS = [Symbol(cd, name) for (cd, name), _ in DEFAULT_REGISTRY]

variable_names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True)

variables = st.builds(Variable, variable_names)
int_literals = st.builds(IntLiteral, st.integers(min_value=-(10**12), max_value=10**12))
float_literals = st.builds(FloatLiteral, st.floats(allow_nan=False, allow_infinity=False, width=64))
symbols = st.sampled_from(SYMBOLS)

leaves = st.one_of(variables, int_literals, float_literals)


def trees(max_leaves: int = 20) -> st.SearchStrategy:
    """Symbol-headed trees: printable as infix and mappable to RDF."""
    return st.recursive(
        leaves,
        lambda children: st.builds(
            Application,
            operator=symbols,
            arguments=st.lists(children, min_size=0, max_size=3).map(tuple),
        ),
        max_leaves=max_leaves,
    )


def trees_any_operator(max_leaves: int = 20) -> st.SearchStrategy:
    """Trees whose operator position may itself be any expression."""
    return st.recursive(
        st.one_of(leaves, symbols),
        lambda children: st.builds(
            Application,
            operator=st.one_of(symbols, children),
            arguments=st.lists(children, min_size=0, max_size=3).map(tuple),
        ),
        max_leaves=max_leaves,
    )


_LEVELS = ("MechatronicSystem", "Module", "Component")
_STATE_KINDS = ("Product", "Energy", "Information")
# instance description texts whose slugs differ, so any subset is one valid list
_INSTANCE_TEXTS = ("unit one", "unit m^3/s", "sampled at 1 kHz", "nominal")
_TIMESTAMPS = ("2024-01-01T00:00:00Z", "2024-02-29T23:59:59.5+14:00", "1999-12-31T12:00:00-14:00", "2024-06-01T08:30:00")


@st.composite
def manifests(draw) -> dict:
    """Valid manifests with infix equations only, in shapes the EHSA fixture
    lacks: structure trees up to 3 levels deep, 1-3 processes, lists given
    empty or left out, operators with no inputs, observations on several
    features, and equations that use only the variables their operator's
    scope declares. Every id, type description and variable name is
    distinct, so no two data elements in one scope declare one variable."""
    count = iter(range(10**6))
    ids: list[str] = []
    prefix = draw(st.sampled_from(["N", "n_", "a.b-"]))

    def new_id() -> str:
        ids.append(f"{prefix}{next(count)}")
        return ids[-1]

    def listed(obj: dict, key: str, items: list) -> None:
        """Set ``obj[key]`` to ``items``; an empty list is sometimes left out."""
        if items or draw(st.booleans()):
            obj[key] = items

    def data_elements(owner: dict) -> list[str]:
        """Give ``owner`` 0-2 data elements; returns their variable names."""
        names, elements = [], []
        for _ in range(draw(st.integers(0, 2))):
            element = {"id": new_id(), "typeDescription": f"quantity {next(count)}"}
            listed(element, "instanceDescriptions", draw(st.lists(st.sampled_from(_INSTANCE_TEXTS), max_size=2, unique=True)))
            if draw(st.booleans()):
                element["variableName"] = f"v{next(count)}"
                names.append(element["variableName"])
            elements.append(element)
        listed(owner, "dataElements", elements)
        return names

    record = {"id": new_id(), "informationSets": [new_id() for _ in range(draw(st.integers(1, 2)))]}
    scopes: dict[str, list[str]] = {}  # structure node or state id -> its variable names

    def structure(rank: int, depth: int) -> dict:
        node = {"id": new_id(), "level": _LEVELS[rank]}
        scopes[node["id"]] = data_elements(node)
        if depth < 3:
            children = [structure(draw(st.integers(rank, 2)), depth + 1) for _ in range(draw(st.integers(0, 2)))]
            listed(node, "children", children)
        return node

    root = structure(draw(st.integers(0, 2)), 1)
    resources = list(scopes)

    def infix(names: list[str]) -> str:
        leaves = st.sampled_from(names) if names else st.integers(0, 9).map(str)
        terms = draw(st.lists(st.one_of(leaves, st.integers(1, 9).map(str), leaves.map(lambda v: f"sin({v})")), min_size=1, max_size=3))
        rhs = terms[0] + "".join(f" {draw(st.sampled_from('+-*/'))} {term}" for term in terms[1:])
        return f"{draw(leaves)} = {rhs}" if draw(st.booleans()) else rhs

    processes = []
    for _ in range(draw(st.integers(1, 3))):
        process = {"id": new_id()}
        states = []
        for _ in range(draw(st.integers(0, 2))):
            state = {"id": new_id(), "kind": draw(st.sampled_from(_STATE_KINDS))}
            scopes[state["id"]] = data_elements(state)
            states.append(state)
        listed(process, "states", states)
        state_ids = [state["id"] for state in states]
        operators = []
        for _ in range(draw(st.integers(0, 2))):
            operator = {"id": new_id(), "assignedResource": draw(st.sampled_from(resources))}
            links = {key: draw(st.lists(st.sampled_from(state_ids), max_size=2)) if state_ids else [] for key in ("inputs", "outputs")}
            for key, refs in links.items():
                listed(operator, key, refs)
            names = [name for node in (operator["assignedResource"], *links["inputs"], *links["outputs"]) for name in scopes[node]]
            listed(operator, "equations", [{"id": f"eq{next(count)}", "infix": infix(names)} for _ in range(draw(st.integers(0, 2)))])
            operators.append(operator)
        process["operators"] = operators
        processes.append(process)

    manifest = {
        "instanceBase": draw(st.sampled_from(["http://example.org/gen", "http://example.org/gen/", "urn:gen"])),
        "lifecycleRecord": record,
        "structure": root,
        "processes": processes,
    }
    observations = [
        {"feature": draw(st.sampled_from(ids)), "value": draw(st.floats(allow_nan=False, allow_infinity=False)), "timestamp": draw(st.sampled_from(_TIMESTAMPS))}
        for _ in range(draw(st.integers(0, 3)))
    ]
    listed(manifest, "observations", observations)
    return manifest


def walk(expr: OMExpression) -> Iterator[OMExpression]:
    """Every node of ``expr`` in pre-order (operator before arguments)."""
    yield expr
    if isinstance(expr, Application):
        yield from walk(expr.operator)
        for arg in expr.arguments:
            yield from walk(arg)
