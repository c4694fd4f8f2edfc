"""Exact adjacency (symmetric edge) polytopes of graphs: facets,
edge contraction subdivisions, cell subgraphs, and their invariants.

The names below are imported from their modules on first access
(PEP 562), so ``import apx.cli`` loads only the layers a command runs.
"""

from importlib import import_module

_SOURCES = {
    "Graph": "graphcore",
    "contract_edge": "graphcore",
    "PointConfiguration": "polytope",
    "FacetCertificate": "polytope",
    "build_configuration": "polytope",
    "enumerate_facets": "polytope",
    "normalized_volume": "polytope",
    "normalized_volume_of_cell": "polytope",
    "Cell": "subdivision",
    "cells_with_facets": "subdivision",
    "facet_correspondence": "subdivision",
}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value

