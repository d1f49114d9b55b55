"""The §5 ground-proof: cross-validating LPR against MDA probing.

The paper's proposed validation: LSPs LPR tags as **ECMP Mono-FEC** (LDP
over IGP load balancing) should be *visible* to a flow-varying Paris
traceroute — different flow identifiers expose the different IP paths —
while **Multi-FEC** diversity (per-destination RSVP-TE tunnels) should
be *invisible* to flow variation, since one destination always rides one
tunnel.  If both hold, the label-based inference is corroborated by an
entirely independent mechanism.

:func:`validate_classification` runs that campaign over classified
IOTPs and reports agreement rates.  It is the only part of
:mod:`repro.core` that drives the simulator, so it imports
:class:`~repro.sim.mda.MdaProber` when it runs: importing the LPR
pipeline loads no :mod:`repro.sim` (DESIGN §3, import layering).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Set, Tuple

from .classification import ClassificationResult, TunnelClass
from .model import Iotp, IotpKey

if TYPE_CHECKING:
    from ..sim.dataplane import DataPlane
    from ..sim.mda import MdaProber
    from ..sim.monitors import Monitor


@dataclass
class IotpValidation:
    """MDA verdict for one classified IOTP."""

    key: IotpKey
    tunnel_class: TunnelClass
    mda_paths_through_as: int       # distinct projected sub-paths
    flows_used: int
    agrees: bool


@dataclass
class ValidationReport:
    """Aggregate §5 validation outcome."""

    checked: List[IotpValidation] = field(default_factory=list)

    def add(self, validation: IotpValidation) -> None:
        self.checked.append(validation)

    def agreement_rate(self, tunnel_class: TunnelClass) -> float:
        """Share of one class's IOTPs whose MDA evidence agrees."""
        relevant = [v for v in self.checked
                    if v.tunnel_class is tunnel_class]
        if not relevant:
            return 0.0
        return sum(1 for v in relevant if v.agrees) / len(relevant)

    def counts(self) -> Dict[TunnelClass, Tuple[int, int]]:
        """Per class: (agreeing, total checked)."""
        result: Dict[TunnelClass, Tuple[int, int]] = {}
        for tunnel_class in TunnelClass:
            relevant = [v for v in self.checked
                        if v.tunnel_class is tunnel_class]
            agreeing = sum(1 for v in relevant if v.agrees)
            result[tunnel_class] = (agreeing, len(relevant))
        return result

    def __len__(self) -> int:
        return len(self.checked)


def validate_classification(
    dataplane: DataPlane,
    monitors: Mapping[str, Monitor],
    iotps: Mapping[IotpKey, Iotp],
    classification: ClassificationResult,
    alpha: float = 0.05,
    max_flows: int = 128,
) -> ValidationReport:
    """Run the MDA cross-check for every multi-LSP IOTP.

    For each IOTP classified Mono-FEC or Multi-FEC, an MDA campaign is
    launched from the monitor that observed one of its LSPs towards
    that LSP's destination; the discovered IP diversity is projected
    onto the IOTP's own LSR addresses:

    * Mono-FEC agrees when MDA exposes >= 2 sub-paths through the AS;
    * Multi-FEC agrees when flow variation exposes exactly one.

    ``monitors`` maps monitor names (as recorded in the LSPs) to
    :class:`Monitor` objects.
    """
    from ..sim.mda import MdaProber

    report = ValidationReport()
    probers: Dict[str, MdaProber] = {}
    for key in sorted(iotps):
        verdict = classification.verdicts.get(key)
        if verdict is None or verdict.tunnel_class not in (
                TunnelClass.MONO_FEC, TunnelClass.MULTI_FEC):
            continue
        iotp = iotps[key]
        lsp = next(iter(iotp.branches))
        monitor = monitors.get(lsp.monitor)
        if monitor is None:
            continue
        prober = probers.get(monitor.name)
        if prober is None:
            prober = MdaProber(dataplane, monitor, alpha=alpha,
                               max_flows=max_flows)
            probers[monitor.name] = prober
        segment_addresses: Set[int] = {
            address for branch in iotp.branches
            for address in branch.addresses
        }
        segment_addresses.add(iotp.exit)
        discovery = prober.discover(lsp.dst)
        width = discovery.width_between(segment_addresses)
        if verdict.tunnel_class is TunnelClass.MONO_FEC:
            agrees = width >= 2
        else:
            agrees = width <= 1
        report.add(IotpValidation(
            key=key,
            tunnel_class=verdict.tunnel_class,
            mda_paths_through_as=width,
            flows_used=discovery.flows_used,
            agrees=agrees,
        ))
    return report
