"""Tests for the paper scenario's configuration timelines."""

import pytest

from repro.sim.scenarios import (
    ATT,
    ATT_TRANSITION_CYCLE,
    CYCLES,
    GTT,
    LEVEL3,
    LEVEL3_FALL_CYCLE,
    LEVEL3_RISE_CYCLE,
    NTT,
    TATA,
    TELIA,
    VODAFONE,
    build_universe,
    paper_policies,
    paper_scenario,
)


class TestUniverseShape:
    def test_focus_ases_present(self):
        universe = build_universe()
        for asn in (VODAFONE, ATT, TATA, NTT, LEVEL3, GTT, TELIA):
            assert universe.spec_of(asn)

    def test_validates(self):
        build_universe().validate()

    def test_vendors_match_paper(self):
        universe = build_universe()
        assert universe.spec_of(VODAFONE).vendor == "juniper"  # Fig 17
        assert universe.spec_of(NTT).vendor == "juniper"
        assert universe.spec_of(ATT).vendor == "cisco"

    def test_tata_is_the_parallel_link_network(self):
        universe = build_universe()
        tata = universe.spec_of(TATA)
        others = [universe.spec_of(asn)
                  for asn in (ATT, NTT, LEVEL3, VODAFONE)]
        assert all(tata.parallel_link_fraction
                   > o.parallel_link_fraction for o in others)

    def test_monitor_ases_are_stubs(self):
        universe = build_universe()
        for asn in universe.monitor_ases:
            spec = universe.spec_of(asn)
            assert spec.prefix_count >= 1


class TestScale:
    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"),
                                       float("inf"), float("-inf")])
    def test_bad_scale_raises(self, scale):
        with pytest.raises(ValueError, match="finite number > 0"):
            build_universe(scale=scale)
        with pytest.raises(ValueError, match="finite number > 0"):
            paper_scenario(scale=scale)

    def test_small_positive_scale_builds(self):
        assert build_universe(scale=0.01).ases


class TestPolicyTimelines:
    def test_level3_timeline(self):
        before = paper_policies(LEVEL3_RISE_CYCLE - 1)[LEVEL3]
        plateau = paper_policies(LEVEL3_RISE_CYCLE)[LEVEL3]
        after = paper_policies(LEVEL3_FALL_CYCLE)[LEVEL3]
        assert not before.enabled
        assert plateau.enabled
        assert plateau.mpls_pair_fraction > 5 * after.mpls_pair_fraction

    def test_att_transition(self):
        before = paper_policies(ATT_TRANSITION_CYCLE - 1)[ATT]
        after = paper_policies(ATT_TRANSITION_CYCLE)[ATT]
        late = paper_policies(CYCLES)[ATT]
        assert after.mpls_pair_fraction < before.mpls_pair_fraction
        assert late.te_pair_fraction > before.te_pair_fraction

    def test_vodafone_is_te_only_and_dynamic(self):
        for cycle in (1, 30, 60):
            policy = paper_policies(cycle)[VODAFONE]
            assert policy.enabled
            assert not policy.ldp
            assert policy.te_reoptimize_per_cycle
        assert paper_policies(60)[VODAFONE].te_pair_fraction \
            > paper_policies(1)[VODAFONE].te_pair_fraction

    def test_ntt_growth(self):
        assert paper_policies(60)[NTT].mpls_pair_fraction \
            > 2.5 * paper_policies(1)[NTT].mpls_pair_fraction

    def test_tata_decline(self):
        assert paper_policies(60)[TATA].mpls_pair_fraction \
            < paper_policies(1)[TATA].mpls_pair_fraction

    def test_telia_never_deploys(self):
        for cycle in (1, 30, 60):
            assert not paper_policies(cycle)[TELIA].enabled

    def test_background_adoption_drip(self):
        """65102 and 65104 switch on mid-study (the Fig 5a slope)."""
        assert not paper_policies(14)[65102].enabled
        assert paper_policies(15)[65102].enabled
        assert not paper_policies(39)[65104].enabled
        assert paper_policies(40)[65104].enabled

    def test_invisible_and_implicit_networks(self):
        policies = paper_policies(30)
        assert not policies[65106].ttl_propagate       # opaque/invisible
        assert policies[65105].enabled                 # legacy vendor AS

    def test_sr_pilot_late(self):
        assert paper_policies(51)[65108].sr_pair_fraction == 0.0
        late = paper_policies(52)[65108]
        assert late.uses_sr

    def test_every_cycle_produces_valid_policies(self):
        universe = build_universe()
        known = {spec.asn for spec in universe.ases}
        for cycle in range(1, CYCLES + 1):
            policies = paper_policies(cycle)
            assert set(policies) <= known


class TestScenarioObject:
    def test_cycle_count(self):
        assert paper_scenario().cycles == 60

    def test_plan_monotone_coverage(self):
        scenario = paper_scenario()
        fractions = [scenario.plan(c).monitor_fraction
                     for c in (1, 20, 40, 60) ]
        assert fractions == sorted(fractions)
