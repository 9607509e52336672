"""Exact invariants, recognizers, codecs and a claim-checking harness for
Konig-Egervary square-stable graphs."""

from .codec import Graph6Error, decode_graph6, encode_graph6, parse_edge_list
from .families import GraphFamily, generate, tree_from_pruefer
from .graphs import (Edge, Graph, GraphError, VertexSet, adjacency_masks,
                     components, delete_closed_neighborhood, disjoint_union,
                     distances, girth, girth_at_least, induced_subgraph,
                     is_connected, is_cycle_of_length, is_tree, pendant_edges,
                     pendant_vertices, square)
from .harness import (ALL_CLAIMS, CLAIMS, CONTROL_CLAIMS, Claim,
                      TheoremVerdict, reverify_counterexample, run_claim,
                      run_negative_controls)
from .invariants import (DEFAULT_BUDGET, BudgetExhausted, InvariantReport,
                         Matching, SolverBudget, alpha, core_set,
                         count_perfect_matchings, enumerate_maximal_stable_sets,
                         gamma, ind_dom, invariant_report, is_clique_partition,
                         is_dominating_set, is_matching, is_maximal_stable_set,
                         is_stable_set, maximal_cliques, mu, omega_family,
                         simplexes, simplicial_vertices, theta)
from .recognizers import (RecognitionProfile, has_distance3_maximum_stable_set,
                          has_pendant_perfect_matching, is_koenig_egervary,
                          is_simplicial_graph, is_square_stable,
                          is_very_well_covered, is_well_covered, recognize,
                          vertex_in_exactly_one_simplex)

__version__ = "0.1.0"
