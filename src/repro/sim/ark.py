"""Archipelago-style measurement scheduling.

Turns a :class:`~repro.sim.scenarios.Scenario` into longitudinal
traceroute datasets:

* :meth:`ArkSimulator.run_cycle` — one monthly cycle: apply the cycle's
  MPLS policies, then take ``snapshots_per_cycle`` snapshots a day apart
  (the paper's Persistence filter needs cycles X..X+j from one month);
* :meth:`ArkSimulator.run` — the full 60-cycle longitudinal campaign;
* :func:`daily_campaign` — daily snapshots through one month with an AS
  ramping its deployment mid-month (Level3, April 2012 — Fig 16);
* :func:`label_dynamics_campaign` — a single vantage point probing one
  destination every two minutes for hours while the transited AS
  re-optimizes its TE tunnels (Fig 17).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..igp.ecmp import flow_hash, fold
from ..obs import get_registry, span
from ..traces import Trace, gc_paused
from .config import MplsPolicy
from .dataplane import DataPlane
from .monitors import Monitor, build_monitors, split_into_teams
from .network import Internet
from .scenarios import Scenario
from .traceroute import TracerouteEngine

_DAY = 86_400.0
_MONTH = 30 * _DAY

_CYCLES_SIMULATED = get_registry().counter(
    "sim_cycles_total", "Measurement cycles simulated")
_SNAPSHOTS_SIMULATED = get_registry().counter(
    "sim_snapshots_total", "Snapshots taken across all cycles")
_SIM_TRACES = get_registry().counter(
    "sim_traces_total", "Traces produced by the simulated campaigns")


@dataclass
class CycleData:
    """The traces of one monthly cycle.

    ``snapshots[0]`` is the cycle proper; the rest are the X+1..X+j
    follow-up snapshots the Persistence filter consumes.
    """

    cycle: int
    snapshots: List[List[Trace]] = field(default_factory=list)

    @property
    def traces(self) -> List[Trace]:
        """The primary snapshot's traces."""
        return self.snapshots[0]

    def all_traces(self) -> Iterator[Trace]:
        """Every trace of every snapshot."""
        for snapshot in self.snapshots:
            yield from snapshot


class ArkSimulator:
    """Drives a scenario through measurement cycles."""

    def __init__(self, scenario: Scenario, monitors_per_as: int = 2,
                 team_count: int = 3, snapshots_per_cycle: int = 3,
                 loss_rate: float = 0.01, flap_rate: float = 0.012,
                 egress_noise: float = 0.12, memoize: bool = True):
        # Checked up front: a bad knob must not surface mid-cycle,
        # after the cycle's policies were already applied.
        for name, count in (("monitors_per_as", monitors_per_as),
                            ("team_count", team_count),
                            ("snapshots_per_cycle", snapshots_per_cycle)):
            if count < 1:
                raise ValueError(f"{name} must be >= 1, got {count}")
        for name, rate in (("loss_rate", loss_rate),
                           ("flap_rate", flap_rate),
                           ("egress_noise", egress_noise)):
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} out of [0,1): {rate}")
        self.scenario = scenario
        self.memoize = memoize
        self.internet = Internet(scenario.universe)
        self.monitors = build_monitors(self.internet, monitors_per_as)
        self.team_count = team_count
        self.snapshots_per_cycle = snapshots_per_cycle
        self.loss_rate = loss_rate
        self.flap_rate = flap_rate
        self.egress_noise = egress_noise
        self.destinations = [
            addr for addr, _asn in self.internet.destination_addresses()
        ]
        self._seed = scenario.universe.seed
        # The hash rankings are fraction-independent, so they are
        # computed once; fractions only slice them.  Assignment pair
        # lists are pure functions of their arguments, so a small LRU
        # spares repeated-cycle experiments the per-call team split and
        # pair build.
        self._ranked_monitors: Optional[List[Monitor]] = None
        self._ranked_destinations: Optional[List[int]] = None
        self._assignment_cache: OrderedDict = OrderedDict()
        # The last cycle's member draws (see _member_draws).
        self._draws_key: Optional[tuple] = None
        self._draws: List[tuple] = []

    _ASSIGNMENT_CACHE_SIZE = 8

    # -- selection helpers ---------------------------------------------------

    def _active_monitors(self, fraction: float) -> List[Monitor]:
        """A stable subset: a rising fraction only ever adds monitors."""
        if self._ranked_monitors is None:
            self._ranked_monitors = sorted(
                self.monitors,
                key=lambda m: flow_hash(0xACE, m.src_addr))
        ranked = self._ranked_monitors
        count = max(1, round(fraction * len(ranked)))
        return ranked[:count]

    def _active_destinations(self, fraction: float) -> List[int]:
        if self._ranked_destinations is None:
            self._ranked_destinations = sorted(
                self.destinations,
                key=lambda d: flow_hash(0xDE57, d))
        ranked = self._ranked_destinations
        count = max(1, round(fraction * len(ranked)))
        return ranked[:count]

    def assignments(self, cycle: int, monitor_fraction: float,
                    dest_fraction: float, snapshot: int = 0,
                    churn: float = 0.18) -> List[Tuple[Monitor, int]]:
        """(monitor, destination) pairs for one snapshot of a cycle.

        Every team covers every active destination through one of its
        members.  Most member choices are stable within a month (so the
        Persistence filter compares like with like) and rotate across
        months (successive cycles explore different ECMP branches) — but
        a ``churn`` share of assignments is reshuffled per snapshot, the
        dynamic team scheduling of the real infrastructure.  LSPs seen
        only through a churned flow vanish from the follow-up snapshots,
        which is the routing-noise share the Persistence filter exists
        to remove.

        The pair list is a pure function of the arguments, so it is
        memoized (small LRU); callers must treat it as read-only —
        :class:`~repro.sim.traceroute.TracerouteEngine` only iterates.
        """
        key = (cycle, monitor_fraction, dest_fraction, snapshot, churn)
        cached = self._assignment_cache.get(key)
        if cached is not None:
            self._assignment_cache.move_to_end(key)
            return cached
        pairs = [
            (member if state is None or not snapshot
             else team[fold(state, snapshot) % len(team)], dst)
            for team, dst, state, member in self._member_draws(
                cycle, monitor_fraction, dest_fraction, churn)
        ]
        self._assignment_cache[key] = pairs
        if len(self._assignment_cache) > self._ASSIGNMENT_CACHE_SIZE:
            self._assignment_cache.popitem(last=False)
        return pairs

    def _member_draws(self, cycle: int, monitor_fraction: float,
                      dest_fraction: float, churn: float) -> List[tuple]:
        """One ``(team, dst, churn state, slot-0 member)`` row per
        (team, active destination), in pair order.

        A team's member for a destination is
        ``flow_hash(dst, cycle, team_index, slot)``, where the slot is
        the snapshot for a churned assignment and 0 otherwise.  The
        churn flag and the slot-0 member are the same for every
        snapshot of a cycle, so they are drawn once per cycle; a
        churned row keeps the ``(dst, cycle, team_index)`` hash state
        (None when not churned), and each later snapshot folds its
        slot into it.
        """
        key = (cycle, monitor_fraction, dest_fraction, churn)
        if key != self._draws_key:
            teams = split_into_teams(
                self._active_monitors(monitor_fraction), self.team_count)
            active = self._active_destinations(dest_fraction)
            churn_bound = int(churn * 10_000)
            rows = []
            for team_index, team in enumerate(teams):
                for dst in active:
                    churned = (flow_hash(0xC4, dst, cycle, team_index)
                               % 10_000 < churn_bound)
                    state = flow_hash(dst, cycle, team_index)
                    rows.append((team, dst, state if churned else None,
                                 team[fold(state, 0) % len(team)]))
            self._draws_key = key
            self._draws = rows
        return self._draws

    # -- campaign drivers ----------------------------------------------------

    def _apply_cycle(self, cycle: int):
        """Move the internet to one cycle's policy plan; returns the plan."""
        plan = self.scenario.plan(cycle)
        self.internet.apply_policies(plan.policies)
        return plan

    def fast_forward(self, first: int = 1, last: int = 0) -> None:
        """Replay the control-plane evolution of cycles ``first..last``.

        Reconstructs exactly the network state a serial campaign holds
        after running those cycles — each cycle's policies applied, then
        the per-snapshot timers ticked — without issuing a single probe.
        Probing never mutates network state (the data plane and the
        traceroute engine are read-only over it), so fast-forwarding is
        state-equivalent to :meth:`run_cycle` and arbitrarily cheaper.
        ``repro.par`` workers use this to reconstruct their shard's
        starting state from ``(seed, scenario, cycle)`` alone, and the
        parallel runner uses it to leave the parent simulator in the
        serial end-of-campaign state (DESIGN §8).  The replay builds
        whole control planes and frees the previous cycle's, none of
        it cyclic garbage, so it runs with the collector paused.
        """
        with span("sim.control"), gc_paused():
            for cycle in range(first, last + 1):
                self._apply_cycle(cycle)
                for _ in range(self.snapshots_per_cycle):
                    self.internet.tick()

    def run_cycle(self, cycle: int) -> CycleData:
        """Execute one monthly cycle with its follow-up snapshots.

        The cycle starts a generation of the decoded-stack memo: stacks
        no probe quoted in the previous cycle are dropped.
        """
        data = CycleData(cycle=cycle)
        self.internet.decision_cache.age_stacks()
        with span("sim.cycle", cycle=cycle):
            with span("sim.control"):
                plan = self._apply_cycle(cycle)
            for snapshot in range(self.snapshots_per_cycle):
                with span("sim.snapshot", cycle=cycle,
                          snapshot=snapshot):
                    # dynamic ASes re-optimize between runs
                    with span("sim.control"):
                        self.internet.tick()
                    pairs = self.assignments(
                        cycle, plan.monitor_fraction,
                        plan.dest_fraction, snapshot)
                    engine = TracerouteEngine(
                        DataPlane(self.internet,
                                  era=flow_hash(cycle, snapshot),
                                  flap_rate=self.flap_rate,
                                  egress_noise=self.egress_noise,
                                  memoize=self.memoize),
                        seed=flow_hash(self._seed, cycle, snapshot),
                        loss_rate=self.loss_rate,
                    )
                    timestamp = (cycle - 1) * _MONTH + snapshot * _DAY
                    traces = engine.trace_all(pairs, timestamp)
                data.snapshots.append(traces)
                _SNAPSHOTS_SIMULATED.inc()
                _SIM_TRACES.inc(len(traces))
        _CYCLES_SIMULATED.inc()
        return data

    def run(self, first: int = 1, last: Optional[int] = None
            ) -> Iterator[CycleData]:
        """Yield cycle datasets from ``first`` to ``last`` inclusive."""
        if last is None:
            last = self.scenario.cycles
        for cycle in range(first, last + 1):
            yield self.run_cycle(cycle)


def daily_campaign(simulator: ArkSimulator, base_cycle: int,
                   ramp_asn: int, ramp_policy: MplsPolicy,
                   days: int = 30, ramp_start_day: int = 15
                   ) -> List[List[Trace]]:
    """Daily snapshots through the month before ``base_cycle``.

    Reproduces the paper's Fig 16 study: the month is probed day by day
    (with the day-to-day vantage-point variation the paper notes), while
    ``ramp_asn`` deploys ``ramp_policy`` incrementally from
    ``ramp_start_day`` to the end of the month.
    """
    plan = simulator.scenario.plan(base_cycle)
    days_out: List[List[Trace]] = []
    for day in range(1, days + 1):
        policies = dict(plan.policies)
        if day < ramp_start_day:
            policies[ramp_asn] = MplsPolicy(enabled=False)
        else:
            progress = (day - ramp_start_day + 1) \
                / (days - ramp_start_day + 1)
            policies[ramp_asn] = MplsPolicy(
                enabled=True,
                ldp=ramp_policy.ldp,
                ldp_internal=ramp_policy.ldp_internal,
                ttl_propagate=ramp_policy.ttl_propagate,
                te_pair_fraction=ramp_policy.te_pair_fraction * progress,
                te_tunnels_per_pair=ramp_policy.te_tunnels_per_pair,
                mpls_pair_fraction=(
                    ramp_policy.mpls_pair_fraction * progress),
            )
        simulator.internet.apply_policies(policies)
        simulator.internet.tick()
        # The daily dumps come from whatever monitors ran that day.
        wobble = 0.55 + (flow_hash(0xDA7, day) % 4500) / 10_000.0
        pairs = simulator.assignments(base_cycle, wobble,
                                      plan.dest_fraction)
        engine = TracerouteEngine(
            DataPlane(simulator.internet, era=flow_hash(0xDA7, day),
                      flap_rate=simulator.flap_rate,
                      egress_noise=simulator.egress_noise,
                      memoize=simulator.memoize),
            seed=flow_hash(simulator.scenario.universe.seed, 0xDA7, day),
            loss_rate=simulator.loss_rate,
        )
        timestamp = (base_cycle - 2) * _MONTH + (day - 1) * _DAY
        days_out.append(engine.trace_all(pairs, timestamp))
    return days_out


def label_dynamics_campaign(simulator: ArkSimulator, cycle: int,
                            target_asn: int, probes: int = 300,
                            probe_interval_s: int = 120,
                            reoptimize_interval_s: int = 3600,
                            churn_per_tick: int = 900
                            ) -> List[Trace]:
    """High-frequency probing of one LSP through a re-optimizing AS.

    A single vantage point traces one destination every two minutes
    (paper §4.5).  Whenever the AS's re-optimization timer fires, its
    head-ends re-signal every tunnel and the (heavily loaded) allocators
    advance — successive traces then show the label sawtooth of Fig 17.
    Occasional event-driven re-optimizations are thrown in, matching the
    paper's observation that some step durations differ.

    The data plane (and its engine) is rebuilt only when the control
    plane changed — at the first probe and after each re-optimization —
    so the probes between two re-optimizations share its walk plans.
    """
    plan = simulator.scenario.plan(cycle)
    simulator.internet.apply_policies(plan.policies)
    network = simulator.internet.network(target_asn)
    monitor, destination = _flow_through(simulator, target_asn, cycle)
    traces: List[Trace] = []
    probes_per_reopt = max(1, reoptimize_interval_s // probe_interval_s)
    engine = None
    for probe_index in range(probes):
        timer_fired = probe_index % probes_per_reopt == 0
        event_fired = flow_hash(0xFEED, cycle, probe_index) % 97 == 0
        if probe_index and (timer_fired or event_fired):
            if network.rsvp is not None:
                network.rsvp.reoptimize_all()
            network.churn_labels(churn_per_tick)
            engine = None
        if engine is None:
            engine = TracerouteEngine(
                DataPlane(simulator.internet, memoize=simulator.memoize),
                seed=flow_hash(simulator.scenario.universe.seed, 0xF17),
                loss_rate=0.0,
            )
        traces.append(engine.trace(
            monitor, destination,
            timestamp=probe_index * float(probe_interval_s),
        ))
    return traces


def _flow_through(simulator: ArkSimulator, target_asn: int, cycle: int
                  ) -> Tuple[Monitor, int]:
    """Find a (monitor, destination) whose trace rides a TE tunnel of
    ``target_asn``.

    Prefers a flow revealing at least two of the tunnel's LSRs (the
    paper's Fig 17 plots two), falling back to a single-LSR flow on
    very small topologies.  Raises LookupError when the scenario offers
    none at all.
    """
    routing = simulator.internet.routing
    ip2as = simulator.internet.ip2as
    network = simulator.internet.network(target_asn)
    dataplane = DataPlane(simulator.internet, memoize=simulator.memoize)
    for minimum_lsrs in (2, 1):
        for monitor in simulator.monitors:
            for dst in simulator.destinations:
                dst_asn = ip2as.lookup_single(dst)
                if dst_asn == target_asn:
                    continue
                path = routing.as_path(monitor.asn, dst_asn)
                if path is None or target_asn not in path[:-1]:
                    continue
                if _rides_te_tunnel(dataplane, network, monitor, dst,
                                    minimum_lsrs):
                    return monitor, dst
    raise LookupError(
        f"no monitor/destination pair rides a TE tunnel of AS{target_asn}"
    )


def _rides_te_tunnel(dataplane: DataPlane, network, monitor: Monitor,
                     dst: int, minimum_lsrs: int = 2) -> bool:
    hops = dataplane.forward_path(monitor.asn, monitor.attachment_router,
                                  monitor.src_addr, dst)
    labelled = [h for h in hops if h.asn == network.asn and h.labels]
    if len(labelled) < minimum_lsrs:
        return False
    # TE labels live in per-session LFIBs, and allocators are per
    # router: the first labelled hop rides a tunnel when some session
    # bound that very label at that very router.  Without TTL
    # propagation the LSRs stay hidden and the one revealing exit hop
    # quotes the label its predecessor on the session's route bound
    # (DataPlane._mpls_hops).
    if network.rsvp is None:
        return False
    hop = labelled[0]
    label = hop.labels[0]
    if network.policy.ttl_propagate:
        return any(session.labels.get(hop.router_id) == label
                   for session in network.rsvp.sessions)
    return any(router == hop.router_id
               and session.labels.get(previous) == label
               for session in network.rsvp.sessions
               for previous, router in zip(session.routers,
                                           session.routers[1:]))
