"""camsim: a directory-coherent multiprocessor simulator whose interconnect
carries critical-section traffic on dedicated virtual networks and gives it
strict priority at link input buffers."""

from .coherence import (
    CacheController,
    DirectoryController,
    ProtocolError,
    check_swmr,
    home_node,
    vnet_of,
)
from .harness import (
    Config,
    RunStats,
    SimulationError,
    compute_speedup,
    paper_preset,
    ratio_of,
    run_simulation,
    run_sweep,
)
from .memhier import CacheArray, CacheGeometry
from .network import Message, Network, serialization_cycles
from .topology import ConfigError, Topology, build_topology
from .workload import CoreState, Program, gen_microbenchmark

__version__ = "0.1.0"

__all__ = [
    "CacheArray", "CacheController", "CacheGeometry", "Config", "ConfigError",
    "CoreState", "DirectoryController", "Message", "Network", "Program",
    "ProtocolError", "RunStats", "SimulationError", "Topology",
    "build_topology", "check_swmr", "compute_speedup", "gen_microbenchmark",
    "home_node", "paper_preset", "ratio_of", "run_simulation", "run_sweep",
    "serialization_cycles", "vnet_of",
]
