"""IGP substrate: topology model, ECMP-aware SPF, flow hashing."""

from .topology import Link, Router, Topology, TopologyError
from .spf import SpfResult, SpfTable, spf_to
from .ecmp import flow_hash

__all__ = [
    "Link",
    "Router",
    "Topology",
    "TopologyError",
    "SpfResult",
    "SpfTable",
    "spf_to",
    "flow_hash",
]
