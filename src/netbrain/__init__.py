"""netbrain: centralized network-discovery simulation.

Agents repeatedly walk a network from one fixed brain node, reporting what
they find; the library measures the cumulative step cost of discovering
given fractions of the network under three walk dynamics, on six network
models or any ingested edge list.
"""

__version__ = "0.1.0"

from .dynamics import (
    BrainState,
    LearningCurve,
    Termination,
    WalkCounts,
    WalkOutcome,
    WalkPolicy,
    default_thresholds,
    run_discovery,
    run_walk,
)
from .errors import (
    AggregationError,
    ConfigError,
    ConstructionError,
    DiscoveryStallError,
    NetbrainError,
    ParameterError,
    ParseError,
)
from .fileio import (
    IngestReport,
    config_from_dict,
    config_to_dict,
    ingest_edge_list,
    load_config,
    save_config,
    write_aggregate_csv,
    write_curves_csv,
    write_edge_list,
)
from .generators import (
    GenerationResult,
    GeneratorSpec,
    RealizedStats,
    generate,
)
from .graph import (
    Graph,
    betweenness,
    build_graph,
    degree_ranked_nodes,
    largest_connected_component,
)
from .harness import (
    AggregateCurve,
    BetweennessPercentile,
    DegreeRankedStride,
    ExperimentConfig,
    ExplicitStarts,
    StartSelection,
    TaggedCurve,
    TopHubs,
    aggregate,
    derive_seed,
    run_experiment,
    select_starts,
    sweep,
)

__all__ = [
    "__version__",
    "AggregateCurve",
    "AggregationError",
    "BetweennessPercentile",
    "BrainState",
    "ConfigError",
    "ConstructionError",
    "DegreeRankedStride",
    "DiscoveryStallError",
    "ExperimentConfig",
    "ExplicitStarts",
    "GenerationResult",
    "GeneratorSpec",
    "Graph",
    "IngestReport",
    "LearningCurve",
    "NetbrainError",
    "ParameterError",
    "ParseError",
    "RealizedStats",
    "StartSelection",
    "TaggedCurve",
    "Termination",
    "TopHubs",
    "WalkCounts",
    "WalkOutcome",
    "WalkPolicy",
    "aggregate",
    "betweenness",
    "build_graph",
    "config_from_dict",
    "config_to_dict",
    "default_thresholds",
    "degree_ranked_nodes",
    "derive_seed",
    "generate",
    "ingest_edge_list",
    "largest_connected_component",
    "load_config",
    "run_discovery",
    "run_experiment",
    "run_walk",
    "save_config",
    "select_starts",
    "sweep",
    "write_aggregate_csv",
    "write_curves_csv",
    "write_edge_list",
]
