"""Bipartite factor graph over event variables.

The graph ``G = (E ∪ {Pr_1..Pr_n}, {(e, Pr_i) | e ∈ S_i})`` of §4.1: variable
nodes are event names, factor nodes are the joint/conditional distributions
derived from microarchitectural invariants and from observations.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.fg.factors import Factor


class FactorGraph:
    """A collection of named variables and the factors connecting them."""

    def __init__(self, variables: Optional[Iterable[str]] = None) -> None:
        self._variables: List[str] = []
        self._variable_set: Set[str] = set()
        self._factors: Dict[str, Factor] = {}
        self._factors_of_variable: Dict[str, List[str]] = {}
        if variables is not None:
            for name in variables:
                self.add_variable(name)

    # -- construction ------------------------------------------------------

    def add_variable(self, name: str) -> None:
        """Register a variable node (idempotent)."""
        if not name:
            raise ValueError("variable name must be non-empty")
        if name not in self._variable_set:
            self._variable_set.add(name)
            self._variables.append(name)
            self._factors_of_variable[name] = []

    def add_factor(self, factor: Factor) -> None:
        """Register a factor node; unknown variables are added automatically."""
        if factor.name in self._factors:
            raise ValueError(f"duplicate factor {factor.name!r}")
        for variable in factor.variables:
            self.add_variable(variable)
        self._factors[factor.name] = factor
        for variable in factor.variables:
            self._factors_of_variable[variable].append(factor.name)

    # -- queries -----------------------------------------------------------

    @property
    def variables(self) -> Tuple[str, ...]:
        return tuple(self._variables)

    @property
    def factors(self) -> Tuple[Factor, ...]:
        return tuple(self._factors.values())

    def factor(self, name: str) -> Factor:
        try:
            return self._factors[name]
        except KeyError:
            raise KeyError(f"unknown factor {name!r}") from None

    def has_variable(self, name: str) -> bool:
        return name in self._variable_set

    def factors_of(self, variable: str) -> Tuple[Factor, ...]:
        """All factors adjacent to *variable*."""
        if variable not in self._variable_set:
            raise KeyError(f"unknown variable {variable!r}")
        return tuple(self._factors[name] for name in self._factors_of_variable[variable])

    def neighbors(self, variable: str) -> Tuple[str, ...]:
        """Variables sharing at least one factor with *variable* (excluding it)."""
        seen: Set[str] = set()
        ordered: List[str] = []
        for factor in self.factors_of(variable):
            for other in factor.variables:
                if other != variable and other not in seen:
                    seen.add(other)
                    ordered.append(other)
        return tuple(ordered)

    def degree(self, variable: str) -> int:
        """Number of factors adjacent to *variable*."""
        return len(self.factors_of(variable))

    def connected_components(self) -> Tuple[Tuple[str, ...], ...]:
        """Variable connected components induced by shared factors."""
        graph = self.to_networkx()
        components = []
        for component in nx.connected_components(graph):
            variables = tuple(sorted(n for n in component if graph.nodes[n]["bipartite"] == 0))
            if variables:
                components.append(variables)
        return tuple(sorted(components))

    # -- densities -----------------------------------------------------------

    def log_density(self, values: Mapping[str, float]) -> float:
        """Sum of all factor log potentials at the given assignment."""
        return float(sum(factor.log_density(values) for factor in self._factors.values()))

    # -- export -----------------------------------------------------------

    def to_networkx(self) -> nx.Graph:
        """Bipartite networkx graph (variables have ``bipartite=0``)."""
        graph = nx.Graph()
        for variable in self._variables:
            graph.add_node(variable, bipartite=0, kind="variable")
        for factor in self._factors.values():
            node = f"factor::{factor.name}"
            graph.add_node(node, bipartite=1, kind="factor")
            for variable in factor.variables:
                graph.add_edge(variable, node)
        return graph

    def subgraph(self, factor_names: Sequence[str]) -> "FactorGraph":
        """New graph containing only the listed factors (and their variables)."""
        sub = FactorGraph()
        for name in factor_names:
            sub.add_factor(self._factors[name])
        return sub

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FactorGraph(variables={len(self._variables)}, factors={len(self._factors)})"
