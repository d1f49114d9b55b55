"""Router vendor profiles.

The paper (§2.2) notes that parts of label-distribution behaviour are
vendor-specific rather than standardized: the dynamic label range,
default PHP signalling, ttl-propagate defaults, and whether RSVP-TE head-ends
periodically re-optimize their LSPs (a Juniper trait the paper exploits in
§4.5 / Fig 17).  These profiles drive the simulator so that the observable
label patterns have the same vendor texture as the CAIDA data.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class VendorProfile:
    """Static configuration profile for one router vendor.

    Attributes:
        name: human-readable vendor name.
        label_min: lowest dynamically assignable label value.
        label_max: highest dynamically assignable label value.
        php_default: whether penultimate hop popping is signalled by
            default (advertising implicit-null for directly attached FECs).
        ttl_propagate_default: whether the ingress copies IP-TTL into the
            LSE-TTL by default (required for tunnels to be *explicit*).
        rfc4950: whether ICMP time-exceeded quotes the received label stack.
        reoptimize_interval: seconds between RSVP-TE head-end
            re-optimizations, or 0 when re-optimization is disabled.  The
            periodic re-signalling allocates fresh labels at every hop and
            produces the label sawtooth of Fig 17.
    """

    name: str
    label_min: int
    label_max: int
    php_default: bool
    ttl_propagate_default: bool
    rfc4950: bool
    reoptimize_interval: int

    def label_space(self) -> int:
        """Number of dynamically assignable labels."""
        return self.label_max - self.label_min + 1


# Label ranges follow shipping defaults: IOS reserves 16–15999 for static
# use and allocates dynamic labels from 16000 up; Junos allocates LDP/RSVP
# labels from 299776 up (which is why Fig 17 sweeps the 300k–800k range).
CISCO = VendorProfile(
    name="cisco",
    label_min=16_000,
    label_max=100_000,
    php_default=True,
    ttl_propagate_default=True,
    rfc4950=True,
    reoptimize_interval=0,
)

JUNIPER = VendorProfile(
    name="juniper",
    label_min=300_000,
    label_max=800_000,
    php_default=True,
    ttl_propagate_default=True,
    rfc4950=True,
    reoptimize_interval=3600,
)

# A legacy profile for routers that neither propagate TTL nor implement
# RFC 4950 — their tunnels are invisible/implicit and exercise the
# extraction layer's negative paths.
LEGACY = VendorProfile(
    name="legacy",
    label_min=16,
    label_max=1_048_575,
    php_default=False,
    ttl_propagate_default=False,
    rfc4950=False,
    reoptimize_interval=0,
)

PROFILES = {profile.name: profile for profile in (CISCO, JUNIPER, LEGACY)}


def get_profile(name: str) -> VendorProfile:
    """Look up a vendor profile by name."""
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown vendor {name!r}; known: {sorted(PROFILES)}"
        ) from None
