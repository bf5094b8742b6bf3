"""centbench: exact and stochastic graph centrality with a correlation harness.

The package bundles four exact node centralities (degree, betweenness,
closeness, clustering), two stochastic estimators (an epoch-based thief
simulation scoring nodes and edges, and reinforced k-path edge walks),
three seeded random-graph generators, tie-aware correlation coefficients,
and an experiment harness that correlates the estimators against the exact
measures across generated graph families.
"""
from .exact import (DisconnectedGraphError, betweenness_centrality,
                    closeness_centrality, clustering_coefficient,
                    degree_centrality, triangle_counts)
from .generators import (GeneratorSpec, gen_erdos_renyi, gen_holme_kim,
                         gen_nws_small_world)
from .got import (GotConfig, GotResult, TraceRecord, default_epochs,
                  run_got)
from .graph import (Graph, GraphError, build_graph, is_connected,
                    largest_connected_component, parse_edge_list,
                    read_edge_list)
from .harness import (ExperimentConfig, ExperimentRecord, cell_scores,
                      run_cell, run_experiment)
from .kpath import KpathConfig, werw_kpath
from .rng import derive_seed, make_rng, splitmix64
from .stats import CorrelationResult, correlate

__version__ = "0.1.0"
