"""Unit tests for the Archipelago-style scheduler and campaigns."""

import pytest

import pickle

from repro.igp.ecmp import flow_hash
from repro.obs import (FakeClock, Tracer, get_registry, get_tracer,
                       set_tracer)
from repro.sim import ArkSimulator, paper_scenario
from repro.sim import ark
from repro.sim.ark import (
    _flow_through,
    _rides_te_tunnel,
    daily_campaign,
    label_dynamics_campaign,
)
from repro.sim.config import MplsPolicy
from repro.sim.dataplane import DataPlane
from repro.sim.monitors import Monitor, split_into_teams
from repro.sim.network import AsNetwork, DecisionCache
from repro.sim.scenarios import LEVEL3, LEVEL3_RISE_CYCLE, VODAFONE
from repro.sim.traceroute import TracerouteEngine
from repro.traces import StopReason

from test_sim_dataplane import SRC_AS, TRANSIT, a_destination, build


@pytest.fixture(scope="module")
def simulator():
    return ArkSimulator(paper_scenario(scale=0.5, seed=3))


class TestScenarioPlanning:
    def test_plan_bounds(self, simulator):
        with pytest.raises(ValueError):
            simulator.scenario.plan(0)
        with pytest.raises(ValueError):
            simulator.scenario.plan(61)

    def test_monitor_growth(self, simulator):
        early = simulator.scenario.plan(1)
        late = simulator.scenario.plan(60)
        assert late.monitor_fraction > early.monitor_fraction
        assert late.dest_fraction > early.dest_fraction

    def test_dip_cycles_reduce_coverage(self, simulator):
        dip = simulator.scenario.plan(23)
        neighbor = simulator.scenario.plan(24)
        assert dip.monitor_fraction < neighbor.monitor_fraction


class TestSimulatorArguments:
    """Bad knobs fail at construction, before any cycle runs."""

    @pytest.mark.parametrize("name, value", [
        ("loss_rate", 1.5),
        ("loss_rate", -0.01),
        ("flap_rate", -0.1),
        ("flap_rate", 1.0),
        ("egress_noise", 1.0),
        ("egress_noise", -0.5),
        ("snapshots_per_cycle", 0),
        ("team_count", 0),
        ("monitors_per_as", 0),
    ])
    def test_invalid_knob_rejected(self, simulator, name, value):
        with pytest.raises(ValueError, match=name):
            ArkSimulator(simulator.scenario, **{name: value})

    def test_range_edges_accepted(self, simulator):
        edge = ArkSimulator(simulator.scenario, loss_rate=0.0,
                            flap_rate=0.0, egress_noise=0.0,
                            monitors_per_as=1, team_count=1,
                            snapshots_per_cycle=1)
        assert len(edge.run_cycle(1).snapshots) == 1


class TestAssignments:
    def test_every_team_covers_every_destination(self, simulator):
        plan = simulator.scenario.plan(10)
        pairs = simulator.assignments(10, 1.0, 1.0)
        team_count = min(simulator.team_count, len(simulator.monitors))
        dests = {dst for _, dst in pairs}
        assert len(pairs) == team_count * len(dests)

    def test_fraction_shrinks_coverage(self, simulator):
        full = simulator.assignments(10, 1.0, 1.0)
        partial = simulator.assignments(10, 1.0, 0.5)
        assert len({d for _, d in partial}) < len({d for _, d in full})

    def test_active_sets_are_monotone(self, simulator):
        small = set(simulator._active_destinations(0.5))
        large = set(simulator._active_destinations(0.9))
        assert small <= large
        small_m = {m.name for m in simulator._active_monitors(0.5)}
        large_m = {m.name for m in simulator._active_monitors(0.9)}
        assert small_m <= large_m

    def test_snapshot_churn_limited(self, simulator):
        base = dict(simulator.assignments(10, 1.0, 1.0, snapshot=0))
        moved = 0
        follow = simulator.assignments(10, 1.0, 1.0, snapshot=1)
        # Compare per (team position): same ordering both calls.
        base_list = simulator.assignments(10, 1.0, 1.0, snapshot=0)
        changed = sum(1 for a, b in zip(base_list, follow) if a != b)
        assert 0 < changed < 0.5 * len(base_list)


    @pytest.mark.parametrize("cycle, monitor_fraction, dest_fraction",
                             [(10, 1.0, 1.0), (23, 0.6, 0.7)])
    def test_matches_the_per_snapshot_formula(self, cycle,
                                              monitor_fraction,
                                              dest_fraction):
        fresh = ArkSimulator(paper_scenario(scale=0.3, seed=5))
        teams = split_into_teams(
            fresh._active_monitors(monitor_fraction), fresh.team_count)
        active = fresh._active_destinations(dest_fraction)
        churn_bound = int(0.18 * 10_000)
        for snapshot in range(3):
            expected = []
            for team_index, team in enumerate(teams):
                for dst in active:
                    churned = (flow_hash(0xC4, dst, cycle, team_index)
                               % 10_000 < churn_bound)
                    slot = snapshot if churned else 0
                    expected.append((team[flow_hash(dst, cycle,
                                                    team_index, slot)
                                          % len(team)], dst))
            assert fresh.assignments(cycle, monitor_fraction,
                                     dest_fraction, snapshot) == expected


class TestRunCycle:
    def test_cycle_data_shape(self, simulator):
        data = simulator.run_cycle(12)
        assert data.cycle == 12
        assert len(data.snapshots) == simulator.snapshots_per_cycle
        assert data.traces is data.snapshots[0]
        assert len(list(data.all_traces())) \
            == sum(len(s) for s in data.snapshots)

    def test_timestamps_increase_per_snapshot(self, simulator):
        data = simulator.run_cycle(12)
        stamps = [snapshot[0].timestamp for snapshot in data.snapshots]
        assert stamps == sorted(stamps)
        assert stamps[0] < stamps[1]

    def test_most_traces_complete(self, simulator):
        data = simulator.run_cycle(12)
        done = sum(1 for t in data.traces
                   if t.stop_reason is StopReason.COMPLETED)
        assert done > 0.8 * len(data.traces)

    def test_run_yields_requested_cycles(self, simulator):
        cycles = [data.cycle for data in simulator.run(3, 5)]
        assert cycles == [3, 4, 5]


class TestCampaigns:
    def test_daily_campaign_ramp(self, simulator):
        policy = MplsPolicy(enabled=True, ldp=True)
        days = daily_campaign(simulator, base_cycle=LEVEL3_RISE_CYCLE,
                              ramp_asn=LEVEL3, ramp_policy=policy,
                              days=10, ramp_start_day=6)
        assert len(days) == 10
        ip2as = simulator.internet.ip2as

        def level3_labelled(traces):
            return sum(
                1 for trace in traces for hop in trace.hops
                if hop.has_labels and hop.address is not None
                and ip2as.lookup_single(hop.address) == LEVEL3
            )

        before = sum(level3_labelled(day) for day in days[:5])
        after = sum(level3_labelled(day) for day in days[5:])
        assert before == 0
        assert after > 0

    def test_label_dynamics_campaign(self, simulator):
        traces = label_dynamics_campaign(
            simulator, cycle=45, target_asn=VODAFONE, probes=40,
            probe_interval_s=120, reoptimize_interval_s=1200,
        )
        assert len(traces) == 40
        # Single flow: timestamps spaced by the probe interval.
        assert traces[1].timestamp - traces[0].timestamp == 120.0
        # The campaign's labels change over time at some Vodafone LSR.
        ip2as = simulator.internet.ip2as
        labels_by_addr = {}
        for trace in traces:
            for hop in trace.hops:
                if hop.has_labels and \
                        ip2as.lookup_single(hop.address) == VODAFONE:
                    labels_by_addr.setdefault(hop.address, set()) \
                        .add(hop.labels[0])
        assert labels_by_addr
        assert any(len(labels) > 1 for labels in labels_by_addr.values())


def _per_probe_reference(simulator, cycle, target_asn, probes,
                         probe_interval_s=120, reoptimize_interval_s=3600,
                         churn_per_tick=900):
    """label_dynamics_campaign as it was first written: a fresh data
    plane and engine for every probe."""
    plan = simulator.scenario.plan(cycle)
    simulator.internet.apply_policies(plan.policies)
    network = simulator.internet.network(target_asn)
    monitor, destination = _flow_through(simulator, target_asn, cycle)
    probes_per_reopt = max(1, reoptimize_interval_s // probe_interval_s)
    traces = []
    for probe_index in range(probes):
        timer_fired = probe_index % probes_per_reopt == 0
        event_fired = flow_hash(0xFEED, cycle, probe_index) % 97 == 0
        if probe_index and (timer_fired or event_fired):
            if network.rsvp is not None:
                network.rsvp.reoptimize_all()
            network.churn_labels(churn_per_tick)
        engine = TracerouteEngine(
            DataPlane(simulator.internet, memoize=simulator.memoize),
            seed=flow_hash(simulator.scenario.universe.seed, 0xF17),
            loss_rate=0.0,
        )
        traces.append(engine.trace(
            monitor, destination,
            timestamp=probe_index * float(probe_interval_s)))
    return traces


class TestLabelDynamicsRebuilds:
    """The Fig 17 campaign rebuilds its data plane per control-plane
    state, not per probe, and traces exactly what a per-probe rebuild
    traces."""

    def test_one_data_plane_per_control_plane_state(self, monkeypatch):
        simulator = ArkSimulator(paper_scenario(scale=0.5, seed=3))
        built, changes = [], []

        class CountingDataPlane(DataPlane):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        churn_labels = AsNetwork.churn_labels

        def counting_churn(network, *args, **kwargs):
            changes.append(1)
            return churn_labels(network, *args, **kwargs)

        monkeypatch.setattr(ark, "DataPlane", CountingDataPlane)
        monkeypatch.setattr(AsNetwork, "churn_labels", counting_churn)
        traces = label_dynamics_campaign(
            simulator, cycle=45, target_asn=VODAFONE, probes=60,
            reoptimize_interval_s=1200)
        assert len(traces) == 60
        assert changes  # the timer fired at least once
        # One plane for the flow search, then one per state.
        assert len(built) == 1 + 1 + len(changes)

    @pytest.mark.parametrize("memoize", [True, False])
    def test_traces_match_a_per_probe_rebuild(self, memoize):
        def fresh():
            return ArkSimulator(paper_scenario(scale=0.5, seed=3),
                                memoize=memoize)

        traces = label_dynamics_campaign(
            fresh(), cycle=45, target_asn=VODAFONE, probes=60,
            reoptimize_interval_s=1200)
        reference = _per_probe_reference(
            fresh(), cycle=45, target_asn=VODAFONE, probes=60,
            reoptimize_interval_s=1200)
        assert traces == reference
        # The labels do move: the comparison spans several states.
        assert len({tuple(hop.labels for hop in trace.hops)
                    for trace in traces}) > 1


class TestRidesTeTunnel:
    """The Fig 17 flow finder on the linear test topology, one TE
    tunnel (or none) per border pair of the transit."""

    @staticmethod
    def _probe(policy):
        internet = build(policy)
        network = internet.network(TRANSIT)
        dataplane = DataPlane(internet)
        monitor = Monitor("mon", SRC_AS, attachment_router=1,
                          gateway_addr=0, src_addr=99)
        dst = a_destination(internet)
        hops = dataplane.forward_path(SRC_AS, 1, 99, dst)
        labelled = [hop for hop in hops
                    if hop.asn == TRANSIT and hop.labels]
        assert labelled  # the flow does cross an LSP
        return network, labelled[0], _rides_te_tunnel(
            dataplane, network, monitor, dst, minimum_lsrs=1)

    @pytest.mark.parametrize("ttl_propagate", [True, False])
    def test_te_tunnel_recognised(self, ttl_propagate):
        """Without TTL propagation the one revealing exit hop quotes
        its predecessor's binding, not its own."""
        _, _, rides = self._probe(MplsPolicy(
            enabled=True, ldp=False, te_pair_fraction=1.0,
            te_tunnels_per_pair=1, ttl_propagate=ttl_propagate))
        assert rides

    @pytest.mark.parametrize("te_pair_fraction", [0.0, 0.3])
    @pytest.mark.parametrize("ttl_propagate", [True, False])
    def test_ldp_transit_is_not_a_tunnel(self, ttl_propagate,
                                         te_pair_fraction):
        """An LDP LSP stays False, also when (at 0.3) another pair's
        tunnel ends at the very exit router the flow reveals."""
        network, hop, rides = self._probe(MplsPolicy(
            enabled=True, ldp=True, te_pair_fraction=te_pair_fraction,
            te_tunnels_per_pair=1, ttl_propagate=ttl_propagate))
        assert not rides
        if te_pair_fraction and not ttl_propagate:
            assert any(session.egress == hop.router_id
                       for session in network.rsvp.sessions)


class TestStudyScopedState:
    def test_capture_state_ignores_the_decision_memos(self):
        probed = ArkSimulator(paper_scenario(scale=0.3, seed=9),
                              snapshots_per_cycle=2)
        replayed = ArkSimulator(paper_scenario(scale=0.3, seed=9),
                                snapshots_per_cycle=2)
        for cycle in range(1, 5):
            probed.run_cycle(cycle)
        replayed.fast_forward(1, 4)
        decisions = probed.internet.decision_cache
        assert decisions.routes and decisions.stacks and decisions.picks
        assert not replayed.internet.decision_cache.routes
        assert pickle.dumps(probed.internet.capture_state()) \
            == pickle.dumps(replayed.internet.capture_state())


def _quoted_keys(data):
    """The ``(labels, LSE-TTL)`` key of every RFC 4950 stack a cycle's
    probes quoted."""
    return {(hop.labels, hop.quoted_stack[0].ttl)
            for trace in data.all_traces() for hop in trace.hops
            if hop.quoted_stack}


def _stack_lookups(action):
    """``action()``'s result and the quoted-stack hits and misses it
    published."""
    registry = get_registry()
    before = registry.snapshot()
    result = action()
    delta = registry.diff(before, registry.snapshot())
    return result, tuple(
        sum(entry["value"] for entry in
            delta.get(name, {}).get("values", []))
        for name in ("quoted_stack_cache_hits_total",
                     "quoted_stack_cache_misses_total"))


class TestStackGenerations:
    """Decoded quoted stacks live while a probe quoted them in the
    current or the previous probed cycle.  Vodafone re-signals its TE
    tunnels every cycle, so the scenario's keys churn."""

    CYCLES = range(1, 5)

    def _run(self, memoize=True):
        simulator = ArkSimulator(paper_scenario(scale=0.3, seed=9),
                                 snapshots_per_cycle=2, memoize=memoize)
        return simulator, [simulator.run_cycle(cycle)
                           for cycle in self.CYCLES]

    def test_table_holds_only_the_last_two_cycles_keys(self):
        simulator = ArkSimulator(paper_scenario(scale=0.3, seed=9),
                                 snapshots_per_cycle=2)
        decisions = simulator.internet.decision_cache
        quoted = [set()]
        for cycle in self.CYCLES:
            quoted.append(_quoted_keys(simulator.run_cycle(cycle)))
            assert set(decisions.stacks) == quoted[-1]
            assert set(decisions.stacks_prior) == quoted[-2]
        # A study-long table would still hold these.
        assert quoted[1] - quoted[-1] - quoted[-2]

    def test_traces_match_an_unaged_table_and_no_memo(self, monkeypatch):
        _, aged = self._run()
        _, unmemoized = self._run(memoize=False)
        monkeypatch.setattr(DecisionCache, "age_stacks", lambda self: None)
        simulator, unaged = self._run()
        assert set(simulator.internet.decision_cache.stacks) == set().union(
            *map(_quoted_keys, unaged))
        assert [data.snapshots for data in aged] \
            == [data.snapshots for data in unaged] \
            == [data.snapshots for data in unmemoized]

    @pytest.mark.parametrize("memoize", [True, False])
    def test_hits_and_misses_count_the_labelled_hops(self, memoize):
        (_, cycles), (hits, misses) = _stack_lookups(
            lambda: self._run(memoize))
        labelled = sum(1 for data in cycles for trace in data.all_traces()
                       for hop in trace.hops if hop.quoted_stack)
        assert hits + misses == labelled
        if not memoize:
            assert misses == labelled
            return
        # A key misses once in a cycle unless the previous cycle
        # quoted it too.
        quoted = [set()] + [_quoted_keys(data) for data in cycles]
        assert misses == sum(len(keys - previous) for previous, keys
                             in zip(quoted, quoted[1:]))


class TestControlSpans:
    def _spans_under_fake_clock(self, action):
        previous = get_tracer()
        tracer = set_tracer(Tracer(FakeClock()))
        try:
            action()
        finally:
            set_tracer(previous)
        return tracer.roots

    def test_control_plane_nests_under_the_cycle(self):
        simulator = ArkSimulator(paper_scenario(scale=0.25, seed=4),
                                 snapshots_per_cycle=2)
        (cycle,) = self._spans_under_fake_clock(
            lambda: simulator.run_cycle(1))
        assert cycle.name == "sim.cycle"
        control = [node for _depth, node in cycle.walk()
                   if node.name == "sim.control"]
        # The cycle's policy apply, then one timer tick per snapshot.
        assert len(control) == 1 + simulator.snapshots_per_cycle
        assert cycle.children[0].name == "sim.control"
        snapshots = [child for child in cycle.children
                     if child.name == "sim.snapshot"]
        assert [child.children[0].name for child in snapshots] \
            == ["sim.control"] * simulator.snapshots_per_cycle

    def test_fast_forward_is_one_control_span(self):
        simulator = ArkSimulator(paper_scenario(scale=0.25, seed=4))
        roots = self._spans_under_fake_clock(
            lambda: simulator.fast_forward(1, 3))
        assert [root.name for root in roots] == ["sim.control"]
        assert roots[0].children == []
