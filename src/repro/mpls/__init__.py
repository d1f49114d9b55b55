"""MPLS substrate: wire format, FECs, label allocation, LDP, RSVP-TE."""

from .lse import (
    IMPLICIT_NULL,
    IPV4_EXPLICIT_NULL,
    LabelError,
    LabelStack,
    LabelStackEntry,
    MAX_LABEL,
)
from .fec import PrefixFec, TunnelFec
from .lfib import (
    LabelAllocator,
    LabelAllocatorError,
    LabelManager,
    Lfib,
    LfibAction,
    LfibEntry,
)
from .ldp import LdpEngine
from .rsvpte import RsvpError, RsvpTeEngine, TeSession
from .srte import (
    DEFAULT_SRGB_BASE,
    SegmentRoutingEngine,
    SrError,
    SrPolicy,
)
from .vendor import (
    CISCO,
    JUNIPER,
    LEGACY,
    VendorProfile,
    get_profile,
)

__all__ = [
    "IMPLICIT_NULL",
    "IPV4_EXPLICIT_NULL",
    "LabelError",
    "LabelStack",
    "LabelStackEntry",
    "MAX_LABEL",
    "PrefixFec",
    "TunnelFec",
    "LabelAllocator",
    "LabelAllocatorError",
    "LabelManager",
    "Lfib",
    "LfibAction",
    "LfibEntry",
    "LdpEngine",
    "RsvpError",
    "RsvpTeEngine",
    "TeSession",
    "DEFAULT_SRGB_BASE",
    "SegmentRoutingEngine",
    "SrError",
    "SrPolicy",
    "CISCO",
    "JUNIPER",
    "LEGACY",
    "VendorProfile",
    "get_profile",
]
