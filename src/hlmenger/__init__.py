"""Hypercube-like networks, their line graphs, and exact Menger-type
fault-tolerance verification."""

from .graph import (
    BudgetExceeded,
    Graph,
    build_graph,
    components,
    edge_connectivity,
    largest_component_size,
    max_edge_disjoint_paths,
    remove_edges,
    vertex_connectivity,
)
from .linegraph import BCDCPair, LineGraph, bcdc, check_prop_3_1, line_graph, \
    line_graph_of_hl
from .menger import (
    FaultCampaign,
    SmecVerdict,
    SmecWitness,
    TightnessWitness,
    check_component_lemma,
    check_tightness,
    is_smec,
    run_campaign,
    tightness_conditional,
    tightness_unconditional,
)
from .report import VerificationReport
from .topologies import (
    HLNetwork,
    NAMED_FAMILIES,
    gen_family,
    gen_random_hl,
    generate,
    hl_join,
    validate_hl,
)

__version__ = "0.1.0"
