"""Per-AS MPLS usage reports.

Condenses one cycle's LPR output into the kind of per-operator profile
the paper's §4.4 discusses AS by AS: class mix, Mono-FEC subclass split,
tunnel geometry (length / width / symmetry), destination-AS fan-out,
and the dynamic tag.  Used by the ``repro`` CLI and the examples; handy
whenever the question is "how does *this* network use MPLS?".
:func:`format_table` aligns every table the CLI, the verify report and
the paper's artifacts print.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..net.ip import int_to_ip
from .classification import (
    ClassificationResult,
    MonoFecSubclass,
    TunnelClass,
)
from .metrics import balanced_share, distribution, share_at_most
from .model import Iotp, IotpKey
from .pipeline import CycleResult


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Align a list of rows under headers (monospace table)."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in cells:
        for index, text in enumerate(row):
            widths[index] = max(widths[index], len(text))
    lines = [
        "  ".join(header.ljust(widths[i])
                  for i, header in enumerate(headers)),
        "  ".join("-" * width for width in widths),
    ]
    for row in cells:
        lines.append("  ".join(text.ljust(widths[i])
                               for i, text in enumerate(row)))
    return "\n".join(lines)


@dataclass
class AsProfile:
    """One AS's MPLS usage profile for one cycle."""

    asn: int
    iotp_count: int
    lsp_count: int
    class_shares: Dict[TunnelClass, float]
    subclass_shares: Dict[MonoFecSubclass, float]
    dynamic: bool
    mean_length: float
    max_width: int
    balanced_share: float
    dst_as_fanout: float            # mean destination ASes per IOTP
    mpls_addresses: int
    dominant_class: Optional[TunnelClass]

    def headline(self) -> str:
        """One-line summary in the paper's §4.4 voice."""
        if self.iotp_count == 0:
            return f"AS{self.asn}: no explicit MPLS transit observed"
        parts = [f"AS{self.asn}: {self.iotp_count} IOTPs"]
        if self.dominant_class is not None:
            parts.append(f"mainly {self.dominant_class.value} "
                         f"({self.class_shares[self.dominant_class]:.0%})")
        if self.dynamic:
            parts.append("dynamic labels (re-injected)")
        return ", ".join(parts)


def profile_as(result: CycleResult, asn: int) -> AsProfile:
    """Build the profile of one AS from a cycle's LPR output."""
    classification = result.for_as(asn)
    iotps = [iotp for key, iotp in result.iotps.items() if key[0] == asn]
    verdicts = list(classification.verdicts.values())

    shares = classification.shares()
    dominant: Optional[TunnelClass] = None
    if verdicts:
        dominant = max(shares, key=lambda tc: shares[tc])
    lengths = [verdict.length for verdict in verdicts]
    return AsProfile(
        asn=asn,
        iotp_count=len(verdicts),
        lsp_count=sum(iotp.width for iotp in iotps),
        class_shares=shares,
        subclass_shares=classification.subclass_shares(),
        dynamic=any(verdict.dynamic for verdict in verdicts),
        mean_length=(sum(lengths) / len(lengths) if lengths else 0.0),
        max_width=max((verdict.width for verdict in verdicts),
                      default=0),
        balanced_share=balanced_share(classification,
                                      TunnelClass.MONO_FEC),
        dst_as_fanout=(
            sum(len(iotp.dst_asns) for iotp in iotps) / len(iotps)
            if iotps else 0.0
        ),
        mpls_addresses=result.stats.mpls_by_as.get(asn, 0),
        dominant_class=dominant,
    )


def render_profile(profile: AsProfile,
                   name: Optional[str] = None) -> str:
    """Multi-line plain-text rendering of one profile."""
    title = f"AS{profile.asn}" + (f" ({name})" if name else "")
    lines = [title, "-" * len(title), profile.headline()]
    if profile.iotp_count == 0:
        return "\n".join(lines)
    lines.append(
        "classes: " + ", ".join(
            f"{tunnel_class.value}={share:.2f}"
            for tunnel_class, share in profile.class_shares.items()
            if share > 0
        )
    )
    if profile.class_shares[TunnelClass.MONO_FEC] > 0:
        lines.append(
            "ECMP flavour: " + ", ".join(
                f"{subclass.value}={share:.2f}"
                for subclass, share in profile.subclass_shares.items()
            )
            + f"; balanced={profile.balanced_share:.2f}"
        )
    lines.append(
        f"geometry: {profile.lsp_count} LSPs over "
        f"{profile.iotp_count} IOTPs, mean length "
        f"{profile.mean_length:.1f} LSRs, max width "
        f"{profile.max_width}"
    )
    lines.append(
        f"reach: {profile.dst_as_fanout:.1f} destination ASes per "
        f"IOTP; {profile.mpls_addresses} MPLS-tagged addresses"
    )
    return "\n".join(lines)


def profile_all(result: CycleResult,
                names: Optional[Mapping[int, str]] = None
                ) -> List[AsProfile]:
    """Profiles of every AS with at least one classified IOTP,
    ordered by IOTP count (busiest first)."""
    asns = sorted({key[0] for key in result.iotps})
    profiles = [profile_as(result, asn) for asn in asns]
    profiles.sort(key=lambda p: (-p.iotp_count, p.asn))
    return profiles


def render_report(result: CycleResult,
                  names: Optional[Mapping[int, str]] = None,
                  limit: Optional[int] = None) -> str:
    """The full per-AS report for one cycle."""
    names = names or {}
    profiles = profile_all(result, names)
    if limit is not None:
        profiles = profiles[:limit]
    sections = [
        render_profile(profile, names.get(profile.asn))
        for profile in profiles
    ]
    header = (
        f"cycle {result.cycle}: {len(result.iotps)} IOTPs across "
        f"{len(profiles)} ASes"
    )
    return "\n\n".join([header] + sections)
