"""Spreading-graph machinery (Theorem 4, Lemmas 3-4, Figure 1 overlay).

* :func:`spreading_graph` — deterministic ``R(n, Delta/(n-1))`` construction;
* :func:`is_expanding`, :func:`is_edge_sparse` — Theorem-4 property
  checkers (expansion, edge-sparsity);
* :func:`robust_core` — the Lemma-4 peeling that underlies the
  operative/inoperative classification;
* :func:`subgraph_diameter` — the Lemma-3 "shallow" diameter
  measurement.
"""

from .cores import robust_core, subgraph_diameter
from .graph import SpreadingGraph
from .properties import is_edge_sparse, is_expanding
from .random_graph import gnp_edges, spreading_graph

__all__ = [
    "SpreadingGraph",
    "spreading_graph",
    "gnp_edges",
    "is_expanding",
    "is_edge_sparse",
    "robust_core",
    "subgraph_diameter",
]
