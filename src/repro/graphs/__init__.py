"""Spreading-graph machinery (Theorem 4, Lemmas 3-4, Figure 1 overlay).

* :func:`spreading_graph` — deterministic ``R(n, Delta/(n-1))`` construction;
* :func:`theorem4_report` and friends — property checkers (degree
  concentration, expansion, edge-sparsity);
* :func:`robust_core` — the Lemma-4 peeling that underlies the
  operative/inoperative classification;
* :func:`dense_neighborhood_layers`, :func:`subgraph_diameter` — Lemma-3
  growth and "shallow" diameter measurements.
"""

from .cores import (
    dense_neighborhood_layers,
    robust_core,
    subgraph_diameter,
)
from .graph import SpreadingGraph
from .properties import (
    DegreeReport,
    Theorem4Report,
    degree_report,
    is_edge_sparse,
    is_expanding,
    theorem4_report,
)
from .random_graph import gnp_edges, spreading_graph

__all__ = [
    "SpreadingGraph",
    "spreading_graph",
    "gnp_edges",
    "DegreeReport",
    "Theorem4Report",
    "degree_report",
    "is_expanding",
    "is_edge_sparse",
    "theorem4_report",
    "robust_core",
    "subgraph_diameter",
    "dense_neighborhood_layers",
]
