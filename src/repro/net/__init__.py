"""Addressing substrate: IPv4 arithmetic and IP-to-AS mapping."""

from .ip import (
    AddressError,
    MAX_IPV4,
    Prefix,
    int_to_ip,
    ip_to_int,
    netmask,
    summarize_range,
)
from .ip2as import Ip2AsMapper, UNKNOWN_AS

__all__ = [
    "AddressError",
    "MAX_IPV4",
    "Prefix",
    "int_to_ip",
    "ip_to_int",
    "netmask",
    "summarize_range",
    "Ip2AsMapper",
    "UNKNOWN_AS",
]
