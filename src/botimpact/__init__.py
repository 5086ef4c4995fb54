"""Information-flow network analysis: bot detection, opinion-dynamics
equilibria, and harmonic influence centrality."""

from .botdetect import (
    BotPosterior,
    FactorGraphParams,
    exhaustive_oracle,
    infer_bot_probabilities,
    probability_histogram,
)
from .ghic import GhicResult, daily_ghic_series, ghic, ghic_per_bot
from .graph import DirectedGraph, GraphError, load_edge_list, save_edge_list
from .ingest import (
    build_daily_retweet_network,
    build_follower_network,
    load_profiles,
    load_tweets,
)
from .opinion import (
    EquilibriumSolution,
    LinearSystem,
    SolverError,
    assemble_system,
    fixed_point_oracle,
    identify_stubborn,
    preprocess_wellposed,
    solve_equilibrium,
    solve_network,
)

__version__ = "0.1.0"

__all__ = [
    "BotPosterior",
    "DirectedGraph",
    "EquilibriumSolution",
    "FactorGraphParams",
    "GhicResult",
    "GraphError",
    "LinearSystem",
    "SolverError",
    "assemble_system",
    "build_daily_retweet_network",
    "build_follower_network",
    "daily_ghic_series",
    "exhaustive_oracle",
    "fixed_point_oracle",
    "ghic",
    "ghic_per_bot",
    "identify_stubborn",
    "infer_bot_probabilities",
    "load_edge_list",
    "load_profiles",
    "load_tweets",
    "preprocess_wellposed",
    "probability_histogram",
    "save_edge_list",
    "solve_equilibrium",
    "solve_network",
]
