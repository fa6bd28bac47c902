"""Graph substrate: structure, I/O, components, and synthetic generators."""

from repro.graphs.components import (
    component_of,
    connected_components,
    is_connected,
    largest_component_subgraph,
    restricted_component,
    restricted_components,
)
from repro.graphs.formats import (
    read_adjacency_json,
    read_metis,
    write_adjacency_json,
    write_metis,
)
from repro.graphs.generators import (
    attach_celebrity_fans,
    barabasi_albert_graph,
    chung_lu_graph,
    clique,
    dense_core_overlay,
    disjoint_union,
    gnm_random_graph,
    powerlaw_degree_weights,
    powerlaw_social_graph,
    watts_strogatz_graph,
)
from repro.graphs.csr import CSRGraph, csr_view
from repro.graphs.graph import Edge, Graph, Vertex, vertex_sort_key
from repro.graphs.io import iter_edge_list, read_edge_list, write_edge_list

__all__ = [
    "CSRGraph",
    "Edge",
    "Graph",
    "Vertex",
    "csr_view",
    "vertex_sort_key",
    "attach_celebrity_fans",
    "barabasi_albert_graph",
    "chung_lu_graph",
    "clique",
    "component_of",
    "connected_components",
    "dense_core_overlay",
    "disjoint_union",
    "gnm_random_graph",
    "is_connected",
    "iter_edge_list",
    "largest_component_subgraph",
    "powerlaw_degree_weights",
    "powerlaw_social_graph",
    "read_adjacency_json",
    "read_edge_list",
    "read_metis",
    "restricted_component",
    "restricted_components",
    "watts_strogatz_graph",
    "write_adjacency_json",
    "write_edge_list",
    "write_metis",
]
