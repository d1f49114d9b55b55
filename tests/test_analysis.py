"""Tests for the aggregation and rendering layers."""

import pytest

from repro.analysis.aggregate import (LongitudinalStudy, mean_with_ci,
                                      t_critical_95)
from repro.analysis.render import (
    bar_chart,
    series_chart,
    sparkline,
    stacked_shares,
)
from repro.core.classification import (
    ClassificationResult,
    IotpVerdict,
    MonoFecSubclass,
    TunnelClass,
)
from repro.core.filters import FilterStats
from repro.core.report import format_table
from repro.core.pipeline import CycleResult, DatasetStats


def fake_cycle(cycle, mono=2, multi=1, mpls_ips=10, other_ips=100,
               dynamic_as=None):
    classification = ClassificationResult()
    for index in range(mono):
        classification.add(IotpVerdict(
            key=(65001, cycle, index), width=1, length=2,
            tunnel_class=TunnelClass.MONO_LSP))
    for index in range(multi):
        classification.add(IotpVerdict(
            key=(65002, cycle, 100 + index), width=2, length=3,
            tunnel_class=TunnelClass.MULTI_FEC))
    stats = FilterStats(
        extracted=100, after_incomplete=90, after_intra_as=88,
        after_target_as=80, after_transit_diversity=60,
        after_persistence=55,
        reinjected_ases=[dynamic_as] if dynamic_as else [],
    )
    return CycleResult(
        cycle=cycle,
        stats=DatasetStats(
            trace_count=50, traces_with_tunnels=20 + cycle,
            mpls_addresses=mpls_ips, non_mpls_addresses=other_ips,
            mpls_by_as={65001: mpls_ips}, non_mpls_by_as={65001:
                                                          other_ips},
        ),
        filter_stats=stats,
        iotps={},
        classification=classification,
    )


class TestMeanWithCi:
    def test_single_sample(self):
        stats = mean_with_ci([0.5])
        assert stats.mean == 0.5
        assert stats.half_width == 0.0

    def test_constant_sample(self):
        stats = mean_with_ci([0.4, 0.4, 0.4])
        assert stats.half_width == pytest.approx(0.0, abs=1e-12)

    def test_interval_covers_spread(self):
        stats = mean_with_ci([0.0, 1.0])
        assert stats.mean == 0.5
        assert stats.half_width > 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean_with_ci([])

    def test_str(self):
        assert "±" in str(mean_with_ci([0.1, 0.2]))


class TestLongitudinalStudy:
    def build(self, cycles=6):
        return LongitudinalStudy(
            fake_cycle(c, mono=c, mpls_ips=10 + c,
                       other_ips=100 + 2 * c,
                       dynamic_as=65002 if c % 2 else None)
            for c in range(1, cycles + 1)
        )

    def test_orders_cycles(self):
        study = LongitudinalStudy([fake_cycle(3), fake_cycle(1)])
        assert study.cycles == [1, 3]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            LongitudinalStudy([])

    def test_tunnel_trace_shares(self):
        study = self.build()
        shares = study.tunnel_trace_shares()
        assert shares[0] == (1, 21 / 50)

    def test_address_counts_and_growth(self):
        study = self.build()
        counts = study.address_counts()
        assert counts[0] == (1, 11, 102)
        growth = study.growth()
        assert growth["mpls"] > 0
        assert growth["non_mpls"] > 0
        assert growth["mpls"] > growth["non_mpls"]

    def test_filter_survival(self):
        survival = self.build().filter_survival()
        assert survival["incomplete"].mean == pytest.approx(0.9)
        assert survival["persistence"].mean == pytest.approx(0.55)

    def test_class_share_series(self):
        study = self.build()
        series = study.class_share_series()
        assert len(series[TunnelClass.MONO_LSP]) == 6
        # cycle 1: 1 mono, 1 multi.
        assert series[TunnelClass.MONO_LSP][0] == pytest.approx(0.5)

    def test_class_share_series_per_as(self):
        study = self.build()
        series = study.class_share_series(65002)
        assert all(share == 1.0
                   for share in series[TunnelClass.MULTI_FEC])

    def test_iotp_count_series(self):
        study = self.build()
        assert study.iotp_count_series() == [2, 3, 4, 5, 6, 7]
        assert study.iotp_count_series(65002) == [1] * 6

    def test_dynamic_ases(self):
        study = self.build()
        assert study.dynamic_ases() == {65002: 3}

    def test_yearly_address_stats(self):
        study = self.build(cycles=6)
        rows = study.yearly_address_stats(65001, cycles_per_year=3)
        assert len(rows) == 2
        assert rows[0]["mpls_min"] == 11
        assert rows[0]["mpls_max"] == 13
        assert rows[1]["non_mpls_avg"] == 110


class TestRendering:
    def test_format_table_alignment(self):
        text = format_table(["name", "v"], [["a", 1], ["long", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line.rstrip()) for line in lines[2:])) <= 2

    def test_bar_chart(self):
        text = bar_chart({1: 0.75, 2: 0.25}, title="t")
        assert text.startswith("t")
        assert "#" in text

    def test_bar_chart_empty(self):
        assert bar_chart({}) == ""

    def test_sparkline_scales(self):
        line = sparkline([0.0, 0.5, 1.0])
        assert len(line) == 3
        assert line[0] != line[2]

    def test_sparkline_zero_series(self):
        assert sparkline([0.0, 0.0]) == "  "

    def test_sparkline_empty(self):
        assert sparkline([]) == ""

    def test_series_chart_axes(self):
        text = series_chart({"a": [1, 2], "bb": [2, 1]}, [5, 6])
        assert "cycles 5..6" in text
        assert "max=" in text

    def test_stacked_shares_dominant_letters(self):
        text = stacked_shares(
            {"mono": [0.8, 0.1], "multi": [0.2, 0.9]}, [1, 2])
        assert "MM"[0] in text.splitlines()[0]
        assert text.splitlines()[0] == "MM"  # mono then multi... both M

    def test_stacked_shares_no_data_column(self):
        text = stacked_shares({"mono": [0.0]}, [1])
        assert text.splitlines()[0] == "."


class TestStudentTCriticalValues:
    def test_small_samples_use_student_t(self):
        assert t_critical_95(2) == pytest.approx(12.706)
        assert t_critical_95(3) == pytest.approx(4.303)
        assert t_critical_95(30) == pytest.approx(2.045)

    def test_large_samples_use_normal(self):
        assert t_critical_95(31) == pytest.approx(1.96)
        assert t_critical_95(60) == pytest.approx(1.96)

    def test_below_two_samples_raises(self):
        with pytest.raises(ValueError):
            t_critical_95(1)

    def test_small_n_half_width_regression(self):
        # n=3 with unit sample variance: the normal approximation
        # would claim ±1.96/sqrt(3); Student-t demands ±4.303/sqrt(3).
        stats = mean_with_ci([1.0, 2.0, 3.0])
        assert stats.half_width == pytest.approx(4.303 * (1 / 3) ** 0.5)
        assert stats.half_width > 1.96 * (1 / 3) ** 0.5

    def test_paper_scale_n60_unchanged(self):
        # The paper's 60-cycle campaign keeps its familiar z=1.96
        # half-widths: pin the exact normal-approximation value.
        values = [0.5 + 0.01 * (i % 7) for i in range(60)]
        n = len(values)
        mean = sum(values) / n
        variance = sum((v - mean) ** 2 for v in values) / (n - 1)
        stats = mean_with_ci(values)
        assert stats.half_width == pytest.approx(
            1.96 * (variance / n) ** 0.5)


class TestFilterSurvivalSinglePass:
    def test_matches_per_stage_recomputation(self):
        results = [
            fake_cycle(c, mono=c, mpls_ips=10 + c, other_ips=100 + c)
            for c in range(1, 9)
        ]
        study = LongitudinalStudy(results)
        survival = study.filter_survival()
        stages = ("incomplete", "intra_as", "target_as",
                  "transit_diversity", "persistence")
        naive = {
            stage: mean_with_ci([
                result.filter_stats.proportions()[stage]
                for result in study.results
            ])
            for stage in stages
        }
        assert survival == naive

    def test_one_proportions_call_per_cycle(self, monkeypatch):
        study = LongitudinalStudy(
            [fake_cycle(c) for c in range(1, 5)])
        calls = []
        original = type(study.results[0].filter_stats).proportions

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(type(study.results[0].filter_stats),
                            "proportions", counting)
        study.filter_survival()
        assert len(calls) == len(study.results)
