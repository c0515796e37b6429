"""Slotted-time simulator and capacity toolkit for max-weight control of
generalized network flows (unicast, broadcast, multicast, anycast)."""

from .activation import ActivationVector, max_weight_activation
from .capacity import CapacityCertificate, enumerate_routes, max_scaling, verify_certificate
from .engine import (
    MetricsOptions,
    MetricsReport,
    SimulationConfig,
    compare,
    load_config,
    run,
    run_many,
    sweep,
)
from .errors import (
    CapExceededError,
    ConfigError,
    DisconnectedError,
    TopologyError,
    UnreachableError,
    UmwsimError,
)
from .physical_net import Packet, PhysicalNetwork
from .policy import BPState, solve_route
from .routing import RouteTree, route_cost
from .topology import (
    ActivationSet,
    Graph,
    builtin_topology,
    enumerate_matchings,
    load_topology,
    save_topology,
)
from .traffic import ArrivalProcess, TrafficClass, arrival_table, effective_amax
from .virtual_net import (
    VirtualQueues,
    skorokhod_profile,
    skorokhod_value,
    virtual_arrival_vector,
)

__version__ = "0.1.0"
