"""The forwarding plane: computing the hop-by-hop path of a probe flow.

Given the current network state, :class:`DataPlane` computes the sequence
of hop observations a Paris-traceroute flow produces: for every traversed
router, the interface address it would reply from and the MPLS label stack
the probe carried when its TTL expired there (what RFC 4950 quotes).

Paris semantics make the path a pure function of (flow key, network
state), so per-AS segments are enumerated once and cached; a flow then
just selects one equal-cost segment by hash.  Intact segments depend
only on the immutable intra-AS topology, so their cache — a
:class:`~repro.sim.network.SegmentCache` hosted on the
:class:`~repro.sim.network.Internet` — is *shared* across every
DataPlane of a study: rebuilding the DataPlane each snapshot changes the
era (the flap/churn draw) without throwing the warm path enumerations
away.  Segments under this era's flapped links are filtered from the
intact ones (recomputed by SPF when no intact shortest path survives
or the intact list is truncated) and live on the era's walk plans
only.

Memoization has three scopes (DESIGN §8), all exact, plus the shared
segment cache above:

* **study-scoped decisions** — the
  :class:`~repro.sim.network.DecisionCache`, also on the ``Internet``:
  IP2AS origin, BGP AS-path and /24 per (source AS, destination /24),
  the base egress link per (AS, neighbor, /24), each inter-AS link's
  neighbor-border :class:`HopObs`, the monitor-gateway and
  destination-host :class:`HopObs`, flow digests, full 64-bit ECMP
  pick hashes, destination draws over a pair's TE tunnels or SR
  policies, LDP pair draws and loopback FECs.  None of them depends
  on the era, so every snapshot after the first reuses them; only the
  per-era draws (link flaps and egress churn, with their ``(tag,
  era)`` prefixes folded once per DataPlane) are computed per era;
* **study-scoped hop tuples** — the frozen :class:`HopObs` tuples
  :meth:`DataPlane._walk_as` materializes for plain IP forwarding and
  for LDP LSPs, shared as flyweights by every trace, snapshot and
  cycle that rides the same segment.  IP tuples are keyed by the
  segment alone; LDP tuples also by the AS's label generation (a new
  :class:`~repro.mpls.lfib.LabelManager` per rebuild, append-only LDP
  bindings within one) and ``ttl_propagate``.  Each entry holds its
  segment list and is checked by identity on a hit, so a key can
  never outlive the segment it was built from.  Only intact step
  lists (and the surviving ones a flap filters from them) are keyed
  here;
* **era-scoped** — walk plans, TE tunnel hop tuples, and IP and LDP
  hop tuples over step lists SPF rebuilt for the era's flaps
  (:class:`~repro.sim.network.SpfSegments`), all dying with the
  DataPlane.  A plan, keyed by ``(asn, entry, target,
  internal)``, holds what the snapshot's control plane decides for
  that AS walk once: the pair's TE sessions, its SR policies (transit
  walks only), the established LDP FEC if the walk rides LDP, and —
  filled on the first IP or LDP walk — the era's equal-cost segments.
  A walk then only makes its flow- or destination-dependent pick.
  Every input is fixed while the DataPlane lives (the rebuild
  contract of :class:`DataPlane`).  TE hop
  tuples are keyed by ``(asn, entry, target, TE session, internal)``
  because RSVP-TE re-optimization re-signals labels per cycle.

A :class:`RouteCache` per DataPlane counts one study-table hit or miss
per ``forward_path``, so ``hits + misses`` reconciles with the traces
issued.  ``memoize=False`` runs the very same code over tables that
forget (:class:`~repro.sim.network.Forgetful`; the shared segment
cache stays): every lookup misses and every decision, plan and hop
tuple is recomputed fresh and counted as a miss.  Single-link egress,
single-segment ECMP and single-tunnel TE or single-policy SR choices
skip their hash altogether: the modulus would select index 0 anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..igp.ecmp import destination_draw, flow_hash, fold
from ..mpls.fec import PrefixFec
from ..mpls.vendor import get_profile
from ..net.ip import Prefix
from ..obs import get_registry
from .network import (AsNetwork, DecisionCache, Forgetful, Internet,
                      SpfSegments)

_ROUTE_HITS = get_registry().counter(
    "route_cache_hits_total",
    "Destination /24 route resolutions served from the study's table",
    execution=True)
_ROUTE_MISSES = get_registry().counter(
    "route_cache_misses_total",
    "Route resolutions computed and memoized (first trace per source "
    "AS and /24)", execution=True)
_HOP_HITS = get_registry().counter(
    "hop_cache_hits_total",
    "Per-AS hop materializations served from a hop cache",
    execution=True)
_HOP_MISSES = get_registry().counter(
    "hop_cache_misses_total",
    "Per-AS hop sequences materialized and memoized", execution=True)


@dataclass(frozen=True)
class HopObs:
    """One router the probe crosses, as traceroute would observe it.

    Attributes:
        asn: AS owning the router.
        router_id: router id inside that AS (-1 for the destination host).
        address: interface address the reply carries.
        labels: label values on the probe when it arrived here (top
            first); empty outside tunnels and at PHP exit hops.
        responsive: whether the router replies to probes at all.
        quotes_labels: whether the router implements RFC 4950.
        quoted_ttl: the IP-TTL the ICMP reply quotes (qTTL).  Inside a
            ttl-propagating tunnel the IP header stops being
            decremented, so the j-th LSR quotes j+1 — the implicit-
            tunnel signature.
        lse_ttl: LSE-TTL carried when the probe expired here.  1 under
            ttl-propagate; in *opaque* tunnels (RFC 4950 without
            propagation) the single revealing hop quotes
            255 - tunnel length + 1.
    """

    asn: int
    router_id: int
    address: int
    labels: Tuple[int, ...] = ()
    responsive: bool = True
    quotes_labels: bool = True
    quoted_ttl: int = 1
    lse_ttl: int = 1


def publish_cache_deltas(flushed: List[int], rows,
                         deltas: Dict[str, int]) -> Dict[str, int]:
    """Add each ``(name, counter, value)`` row's growth since the last
    flush (``flushed``, updated in place) to its registry counter and
    to ``deltas`` under ``name``; returns ``deltas``."""
    for index, (name, counter, value) in enumerate(rows):
        delta = value - flushed[index]
        if delta:
            counter.inc(delta)
        deltas[name] = delta
        flushed[index] = value
    return deltas


class UnreachableError(RuntimeError):
    """Raised when no valley-free route exists towards the destination."""


class RouteCache:
    """One DataPlane's tally of route lookups in the study's table.

    IP2AS origin, the BGP AS-path and the /24 are functions of (source
    AS, destination /24) alone, memoized study-wide in
    :attr:`DecisionCache.routes`.  ``hits``/``misses`` count once per
    ``forward_path`` call, so ``hits + misses`` reconciles exactly with
    the traces issued over this DataPlane (including unreachable
    destinations, whose negative entries are memoized too).
    """

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0


class _FecLabels:
    """An LDP FEC's labels, read like a TE session's ``labels`` dict:
    ``get(router)`` is the label the router's LFIB binds to the FEC.

    The LFIB accessor and FEC are bound once per walk plan.
    """

    __slots__ = ("_lfib", "_fec")

    def __init__(self, lfib, fec: PrefixFec):
        self._lfib = lfib
        self._fec = fec

    def get(self, router: int) -> Optional[int]:
        return self._lfib(router).label_for(self._fec)


class _WalkPlan:
    """What one snapshot decides for an AS walk ``(asn, entry, target,
    internal)``, before any flow- or destination-dependent pick.

    ``te_sessions`` are the pair's TE tunnels by tunnel id (None where
    a session is missing), ``sr_policies`` its SR policies (transit
    walks only), ``ldp_labels`` the labels of the established LDP FEC
    when the walk rides LDP (else None), and ``segments`` the era's
    equal-cost step lists, computed on the first IP or LDP walk (None
    until then).
    """

    __slots__ = ("te_sessions", "sr_policies", "ldp_labels", "segments")

    def __init__(self, te_sessions: tuple, sr_policies: Sequence,
                 ldp_labels: Optional[_FecLabels]):
        self.te_sessions = te_sessions
        self.sr_policies = sr_policies
        self.ldp_labels = ldp_labels
        self.segments: Optional[List[list]] = None


class DataPlane:
    """Flow-level forwarding over one frozen network state.

    ``era`` identifies the snapshot being forwarded; together with
    ``flap_rate`` it selects a deterministic set of transiently failed
    links (withdrawn from the IGP for this era only), the routing noise
    that the paper's Persistence filter exists to remove.

    ``memoize`` picks, once, whether the study-scoped decision and hop
    tables and the per-era walk plans and TE hop cache keep what is
    stored in them (on by default — they are exact, so results are
    bit-identical either way; tables that forget exist for the uncached
    reference of benchmarks and ``repro verify``, which runs the same
    code).  The DataPlane must not outlive control-plane mutations:
    rebuild it after any ``apply_policies``/``tick``/label churn or
    ``restore_state``, as the simulators do — its walk plans hold that
    state's decisions.
    """

    def __init__(self, internet: Internet, era: int = 0,
                 flap_rate: float = 0.0, egress_noise: float = 0.0,
                 memoize: bool = True):
        if not 0.0 <= flap_rate < 1.0:
            raise ValueError(f"flap_rate out of [0,1): {flap_rate}")
        if not 0.0 <= egress_noise < 1.0:
            raise ValueError(
                f"egress_noise out of [0,1): {egress_noise}")
        self.internet = internet
        self.era = era
        self.flap_rate = flap_rate
        # Hot-potato churn: per era, this share of (AS, neighbor,
        # destination) egress decisions shifts to another peering link,
        # rerouting everything downstream of it — the second component
        # of the routing noise the Persistence filter removes.
        self.egress_noise = egress_noise
        # Equal-cost segments: the internet-wide shared cache (segments
        # are era-independent modulo flapped links).
        self._cache = internet.segment_cache
        self._flapped: Dict[int, frozenset] = {}
        # The per-era draws' shared hash prefixes, folded once.
        self._flap_state = flow_hash(0xF1A9, era)
        self._churn_state = flow_hash(0xB6, era)
        self._churn_bound = egress_noise * 10_000
        self.memoize = memoize
        # Unmemoized: every table forgets, so each lookup misses.
        table = dict if memoize else Forgetful
        self.decisions = (internet.decision_cache if memoize
                          else DecisionCache(table))
        self.route_cache = RouteCache()
        # (asn, entry, target, internal) -> this era's _WalkPlan.
        self._plans: Dict[tuple, _WalkPlan] = table()
        # Hop tuples as (steps, hops) entries: TE per era, IP and LDP
        # in the study's decision table -- except over step lists SPF
        # rebuilt for this era's flaps, which go in ``_era_hops``
        # (keyed like the study tables: an int for IP, a tuple for LDP).
        self._te_hops: Dict[tuple, tuple] = table()
        self._era_hops: Dict[object, tuple] = table()
        self.hop_cache_hits = 0
        self.hop_cache_misses = 0
        self._flushed = [0, 0, 0, 0]

    def flapped_links(self, asn: int) -> frozenset:
        """Link ids of one AS that are down during this era."""
        cached = self._flapped.get(asn)
        if cached is None:
            bound = int(self.flap_rate * 10_000)
            state = fold(self._flap_state, asn)
            cached = frozenset(
                link_id
                for link_id in self.internet.network(asn).topology.links
                if fold(state, link_id) % 10_000 < bound
            ) if bound else frozenset()
            self._flapped[asn] = cached
        return cached

    # -- public API ----------------------------------------------------------

    def forward_path(self, src_asn: int, src_router: int, src_addr: int,
                     dst_addr: int, flow_id: int = 0) -> List[HopObs]:
        """All hops from (but excluding) the source attachment router.

        The first element is the hop *after* the source router inside the
        source AS (traceroute's own first hop — the attachment gateway —
        is added by the traceroute engine, which knows its LAN address).
        Raises :class:`UnreachableError` when BGP offers no route.

        ``flow_id`` models the transport fields a flow-varying prober
        (MDA) mutates: it changes per-hop ECMP choices but — like real
        port variation — neither the BGP decision nor a TE tunnel
        selection, which are destination-based.
        """
        dst_origin, as_path, dst_prefix = \
            self._resolve_route(src_asn, dst_addr)
        if dst_origin is None:
            raise UnreachableError(
                f"destination {dst_addr} maps to no simulated AS"
            )
        if as_path is None:
            raise UnreachableError(
                f"no route from AS{src_asn} to AS{dst_origin}"
            )
        flow_digest = self._flow_digest(src_addr, dst_addr, flow_id)

        hops: List[HopObs] = []
        networks = self.internet.networks
        entry_router = src_router
        last = len(as_path) - 1
        for position, asn in enumerate(as_path):
            network = networks[asn]
            if position == last:
                target = network.attachment_of((dst_addr >> 8) & 0xFF)
                hops.extend(self._walk_as(network, asn, entry_router,
                                          target, dst_prefix, flow_digest,
                                          internal=True))
                hops.append(self._host_hop(asn, dst_addr))
                break
            next_asn = as_path[position + 1]
            egress, remote_router, remote_hop = \
                self._transit_step(network, asn, next_asn, dst_prefix)
            hops.extend(self._walk_as(network, asn, entry_router, egress,
                                      dst_prefix, flow_digest,
                                      internal=False))
            # The inter-AS step: the neighbor's border replies with its
            # side of the peering link.
            hops.append(remote_hop)
            entry_router = remote_router
        return hops

    def flush_cache_metrics(self) -> Dict[str, int]:
        """Publish cache hit/miss deltas to the :mod:`repro.obs` registry.

        Deltas since the last flush, so repeated flushes (one per
        ``trace_all``) never double-count.  These counters describe
        per-process cache behaviour: serial and sharded runs split the
        same probe stream over differently warmed caches, so they are
        declared ``execution=True`` and checkpoints and ``repro verify``
        ignore them (DESIGN §8) — total probe/trace counters stay
        layout-invariant.

        Returns this flush's deltas keyed by layer/side (e.g.
        ``route_hits``) so the traceroute engine can fold them into one
        ``cache.flush`` flight-recorder event.
        """
        route = self.route_cache
        return publish_cache_deltas(self._flushed, (
            ("route_hits", _ROUTE_HITS, route.hits),
            ("route_misses", _ROUTE_MISSES, route.misses),
            ("hop_hits", _HOP_HITS, self.hop_cache_hits),
            ("hop_misses", _HOP_MISSES, self.hop_cache_misses)), {})

    # -- helpers -------------------------------------------------------------

    def _resolve_route(self, src_asn: int, dst_addr: int) -> tuple:
        """(origin, AS-path, /24 prefix) for a destination, memoized.

        Origin None means the address maps to no simulated AS; path
        None means BGP offers no route — callers raise the matching
        :class:`UnreachableError` with the *probed* address, so error
        text is identical whether or not the negative entry was cached.
        """
        cache = self.route_cache
        routes = self.decisions.routes
        key = (src_asn, dst_addr >> 8)
        entry = routes.get(key)
        if entry is not None:
            cache.hits += 1
            return entry
        cache.misses += 1
        dst_origin = self.internet.ip2as.lookup_single(dst_addr)
        if dst_origin not in self.internet.networks:
            entry = (None, None, None)
        else:
            as_path = self.internet.routing.as_path(src_asn, dst_origin)
            entry = (dst_origin,
                     tuple(as_path) if as_path is not None else None,
                     Prefix.from_host(dst_addr, 24))
        routes[key] = entry
        return entry

    def _flow_digest(self, src_addr: int, dst_addr: int,
                     flow_id: int) -> int:
        digests = self.decisions.flow_digests
        key = (src_addr, dst_addr, flow_id)
        digest = digests.get(key)
        if digest is None:
            digest = digests[key] = flow_hash(*key)
        return digest

    def _transit_step(self, network: AsNetwork, asn: int, next_asn: int,
                      dst_prefix: Prefix) -> tuple:
        """(egress router, remote router, remote HopObs) leaving AS
        ``asn`` (``network``) towards ``next_asn``.

        Hot-potato egress selection is deterministic per destination
        /24 (the study-scoped base link); per era, an ``egress_noise``
        share of multi-link decisions churns to the next peering link.
        """
        links = network.interas.get(next_asn)
        if not links:
            raise UnreachableError(
                f"AS{asn} has no link to AS{next_asn}")
        decisions = self.decisions
        index = 0
        if len(links) > 1:
            network_addr = dst_prefix.network
            key = (asn, next_asn, network_addr)
            index = decisions.egress.get(key)
            if index is None:
                index = decisions.egress[key] = \
                    flow_hash(network_addr, asn, next_asn) % len(links)
            if self.egress_noise and fold(
                    self._churn_state, asn, next_asn, network_addr) \
                    % 10_000 < self._churn_bound:
                index = (index + 1) % len(links)
        egress, _egress_addr, _remote_asn, remote_router, remote_addr = \
            links[index]
        key = (asn, next_asn, index)
        remote_hop = decisions.border_hops.get(key)
        if remote_hop is None:
            remote_hop = decisions.border_hops[key] = self._plain_hop(
                self.internet.network(next_asn), remote_router,
                remote_addr)
        return egress, remote_router, remote_hop

    def _host_hop(self, asn: int, dst_addr: int) -> HopObs:
        """The destination host's hop; ``asn`` is the address's IP2AS
        origin, so the address alone keys the study's flyweight."""
        hops = self.decisions.host_hops
        hop = hops.get(dst_addr)
        if hop is None:
            hop = hops[dst_addr] = HopObs(
                asn=asn, router_id=-1, address=dst_addr, labels=(),
                responsive=True, quotes_labels=False)
        return hop

    def _plain_hop(self, network: AsNetwork, router_id: int,
                   address: int, labels: Tuple[int, ...] = (),
                   quoted_ttl: int = 1, lse_ttl: int = 1) -> HopObs:
        router = network.topology.routers[router_id]
        return HopObs(
            asn=network.asn,
            router_id=router_id,
            address=address,
            labels=labels,
            responsive=router.responsive,
            quotes_labels=get_profile(router.vendor).rfc4950,
            quoted_ttl=quoted_ttl,
            lse_ttl=lse_ttl,
        )

    def _plan(self, network: AsNetwork, entry: int, target: int,
              internal: bool) -> _WalkPlan:
        """This snapshot's decisions for one AS walk (see
        :class:`_WalkPlan`).  Every input — the AS's policy, active TE
        pairs, SR policies and established FECs — is fixed while the
        DataPlane lives, so the plan is exact for its whole era."""
        policy = network.policy
        if not (policy.enabled and (policy.ldp or policy.uses_te
                                    or policy.uses_sr)):
            return _WalkPlan((), (), None)
        sr_policies = (network.sr.policies_between(entry, target)
                       if not internal and policy.uses_sr
                       and network.sr is not None else ())
        ldp_labels = None
        decisions = self.decisions
        if policy.ldp and (policy.ldp_internal if internal
                           else network.ldp_pair_active(entry, target,
                                                        decisions)):
            key = (network.asn, target)
            loopback = decisions.fecs.get(key)
            if loopback is None:
                loopback = decisions.fecs[key] = \
                    network.loopback_fec(target)
            fec = network.transit_fec(loopback)
            if fec is not None:
                ldp_labels = _FecLabels(network.labels.lfib, fec)
        return _WalkPlan(network.te_sessions(entry, target), sr_policies,
                         ldp_labels)

    def _option(self, asn: int, entry: int, target: int,
                dst_prefix: Prefix, count: int) -> int:
        """Index of the TE tunnel or SR policy a destination /24 rides
        among a pair's ``count`` options."""
        if count < 2:
            return 0
        selectors = self.decisions.selectors
        selector = dst_prefix.network
        key = (selector, asn, entry, target)
        draw = selectors.get(key)
        if draw is None:
            draw = selectors[key] = \
                destination_draw(selector, entry, target)
        return draw % count

    def _hops(self, table: dict, key, network: AsNetwork, steps: list,
              bindings) -> Tuple[HopObs, ...]:
        """The hop tuple along ``steps``: the one ``table`` holds for
        ``key`` if it was built from this very ``steps`` list, else
        built and stored — an LSP labelled by ``bindings.get(router)``,
        or plain IP hops when ``bindings`` is None."""
        entry = table.get(key)
        if entry is not None and entry[0] is steps:
            self.hop_cache_hits += 1
            return entry[1]
        self.hop_cache_misses += 1
        hops = tuple(
            self._mpls_hops(network, steps, bindings)
            if bindings is not None
            else [self._plain_hop(network, router, link.address_of(router))
                  for router, link in steps])
        table[key] = (steps, hops)
        return hops

    def _walk_as(self, network: AsNetwork, asn: int, entry: int,
                 target: int, dst_prefix: Prefix, flow_digest: int,
                 internal: bool) -> Sequence[HopObs]:
        """Hops after the entry router, up to and including the target,
        inside AS ``asn`` (``network``).

        Chooses between a TE tunnel, an SR policy, an LDP LSP and plain
        IP forwarding, in that order, from the walk's era plan; emits
        label observations exactly as the probes would collect them.
        Only the last pick depends on the probe: the tunnel or policy
        by destination /24, the equal-cost segment by flow digest.
        Materialized hop tuples are cached per chosen LSP/segment: all
        flow dependence is captured by the picked segment (or, for TE,
        the destination-selected session), so cached entries are exact
        and the frozen :class:`HopObs` flyweights can be shared across
        traces.  IP and LDP tuples live in the study's
        :class:`DecisionCache` (keyed by the segment, plus the label
        generation and ``ttl_propagate`` for LDP), except over step
        lists SPF rebuilt for this era's flaps; those and TE tuples
        live in this era's tables.  SR hops are never cached — their
        shrinking label stacks depend on the flow's ECMP walk itself.
        """
        if entry == target:
            return ()
        plans = self._plans
        key = (asn, entry, target, internal)
        plan = plans.get(key)
        if plan is None:
            plan = plans[key] = self._plan(network, entry, target,
                                           internal)
        sessions = plan.te_sessions
        if sessions:
            session = sessions[self._option(asn, entry, target,
                                            dst_prefix, len(sessions))]
            if session is not None:
                return self._hops(
                    self._te_hops, (asn, entry, target,
                                    session.fec.tunnel_id,
                                    session.fec.instance, internal),
                    network, session.route, session.labels)
        sr_policies = plan.sr_policies
        if sr_policies:
            return self._sr_hops(network, sr_policies[self._option(
                asn, entry, target, dst_prefix, len(sr_policies))],
                flow_digest)
        segments = plan.segments
        if segments is None:
            # Links flapped this era: the DAG of the reduced topology
            # (the intact one if the flap would disconnect the pair —
            # a flap on the only path reconverges before traffic is
            # affected at our observation timescale).  The plan keeps
            # it for the era; the shared cache stores none of it.
            flapped = self.flapped_links(asn)
            segments = plan.segments = (
                self._cache.degraded_segments(network, entry, target,
                                              flapped)
                if flapped else
                self._cache.base_segments(network, entry, target))
        if len(segments) < 2:
            if not segments:
                raise UnreachableError(
                    f"AS{asn}: router {target} unreachable from {entry}")
            steps = segments[0]
        else:
            picks = self.decisions.picks
            key = (flow_digest, asn, entry, target)
            draw = picks.get(key)
            if draw is None:
                draw = picks[key] = flow_hash(*key)
            steps = segments[draw % len(segments)]
        # Step lists SPF rebuilt for this era's flaps die with the era,
        # and so do the hop tuples built over them.
        era_scoped = type(segments) is SpfSegments
        bindings = plan.ldp_labels
        if bindings is not None:
            return self._hops(self._era_hops if era_scoped
                              else self.decisions.ldp_hops,
                              (id(steps), network.labels.generation,
                               network.policy.ttl_propagate),
                              network, steps, bindings)
        return self._hops(self._era_hops if era_scoped
                          else self.decisions.ip_hops, id(steps), network,
                          steps, None)

    def _sr_hops(self, network: AsNetwork, sr_policy,
                 flow_digest: int) -> List[HopObs]:
        """Observations along one segment-routing policy.

        Unlike LDP/RSVP-TE, probes carry shrinking multi-entry stacks:
        each hop quotes whatever remained when its TTL expired.
        """
        steps = network.sr.walk(sr_policy, flow_digest)
        if not network.policy.ttl_propagate:
            router, link, _stack = steps[-1]
            return [self._plain_hop(network, router,
                                    link.address_of(router))]
        return [
            self._plain_hop(network, router, link.address_of(router),
                            labels=stack,
                            quoted_ttl=position + 2 if stack else 1)
            for position, (router, link, stack) in enumerate(steps)
        ]

    def _mpls_hops(self, network: AsNetwork, steps: Sequence[tuple],
                   bindings) -> List[HopObs]:
        """Observations along one LSP.

        ``bindings.get(router)`` returns the label that router allocated
        for the FEC/session (None at a PHP egress).

        Without ttl-propagate the LSRs never see the probe expire and
        only the hop past the tunnel appears.  If that router implements
        RFC 4950, the tunnel is *opaque*: the one revealing hop quotes
        the LSE with its barely-decremented TTL (255 - length + 1),
        betraying the tunnel's length; without RFC 4950 the tunnel is
        fully *invisible*.

        With ttl-propagate, the IP header stops being decremented inside
        the tunnel, so the j-th LSR's ICMP reply quotes IP-TTL j+1 — the
        qTTL signature that reveals *implicit* tunnels (labels absent)
        and is also present, redundantly, on explicit ones.
        """
        if not network.policy.ttl_propagate:
            router, link = steps[-1]
            if len(steps) >= 2:
                previous = steps[-2][0]
                label = bindings.get(previous)
            else:
                label = None
            if label is not None:
                return [self._plain_hop(
                    network, router, link.address_of(router),
                    labels=(label,),
                    lse_ttl=255 - (len(steps) - 1),
                )]
            return [self._plain_hop(network, router,
                                    link.address_of(router))]
        hops = []
        for position, (router, link) in enumerate(steps):
            label = bindings.get(router)
            labels = (label,) if label is not None else ()
            hops.append(self._plain_hop(
                network, router, link.address_of(router),
                labels=labels,
                quoted_ttl=position + 2 if labels else 1,
            ))
        return hops
