"""Unit tests for label allocation and the LFIB."""

import pytest

from repro.mpls.fec import PrefixFec, TunnelFec
from repro.mpls.lfib import (
    LabelAllocator,
    LabelAllocatorError,
    LabelManager,
    Lfib,
    LfibAction,
    LfibEntry,
)
from repro.mpls.vendor import CISCO, JUNIPER, VendorProfile
from repro.net.ip import Prefix


def tiny_profile(span=4):
    return VendorProfile(
        name="tiny",
        label_min=100,
        label_max=100 + span - 1,
        php_default=True,
        ttl_propagate_default=True,
        rfc4950=True,
        reoptimize_interval=0,
    )


class TestLabelAllocator:
    def test_sequential_from_vendor_min(self):
        allocator = LabelAllocator(CISCO)
        assert allocator.allocate() == CISCO.label_min
        assert allocator.allocate() == CISCO.label_min + 1

    def test_juniper_range(self):
        allocator = LabelAllocator(JUNIPER)
        assert allocator.allocate() == 300_000

    def test_wrap_around(self):
        allocator = LabelAllocator(tiny_profile(span=4))
        first = [allocator.allocate() for _ in range(4)]
        assert first == [100, 101, 102, 103]
        for label in first:
            allocator.release(label)
        # Counter continues past the max and wraps to the minimum.
        assert allocator.allocate() == 100

    def test_skips_labels_in_use(self):
        allocator = LabelAllocator(tiny_profile(span=4))
        labels = [allocator.allocate() for _ in range(4)]
        allocator.release(101)
        assert allocator.allocate() == 101

    def test_exhaustion_raises(self):
        allocator = LabelAllocator(tiny_profile(span=2))
        allocator.allocate()
        allocator.allocate()
        with pytest.raises(LabelAllocatorError):
            allocator.allocate()

    def test_counters(self):
        allocator = LabelAllocator(tiny_profile(span=4))
        allocator.allocate()
        label = allocator.allocate()
        allocator.release(label)
        assert allocator.in_use == 1
        assert allocator.allocated_total == 2


class TestLfib:
    def test_bind_and_lookup(self):
        lfib = Lfib(router_id=1)
        fec = PrefixFec(Prefix.parse("10.0.0.1/32"))
        lfib.bind(fec, 500)
        assert lfib.label_for(fec) == 500
        assert lfib.choices(500) == []

    def test_add_entry_and_choices(self):
        lfib = Lfib(router_id=1)
        entry = LfibEntry(LfibAction.SWAP, out_label=7, next_hop=2,
                          link_id=0)
        lfib.add_entry(500, entry)
        assert lfib.choices(500) == [entry]

    def test_unbind(self):
        lfib = Lfib(router_id=1)
        fec = TunnelFec(1, 2, 0)
        lfib.bind(fec, 42)
        assert lfib.unbind(fec) == 42
        assert lfib.label_for(fec) is None
        assert lfib.unbind(fec) is None

    def test_missing_label_has_no_choices(self):
        assert Lfib(router_id=1).choices(999) == []


class TestLabelManager:
    def test_allocate_for_is_idempotent(self):
        manager = LabelManager({0: "cisco"})
        fec = PrefixFec(Prefix.parse("10.0.0.1/32"))
        first = manager.allocate_for(0, fec)
        second = manager.allocate_for(0, fec)
        assert first == second
        assert manager.allocator(0).in_use == 1

    def test_independent_routers(self):
        manager = LabelManager({0: "cisco", 1: "juniper"},
                               desynchronize=False)
        fec = PrefixFec(Prefix.parse("10.0.0.1/32"))
        assert manager.allocate_for(0, fec) == CISCO.label_min
        assert manager.allocate_for(1, fec) == JUNIPER.label_min

    def test_desynchronized_routers_start_apart(self):
        manager = LabelManager({0: "cisco", 1: "cisco", 2: "cisco"})
        fec = PrefixFec(Prefix.parse("10.0.0.1/32"))
        labels = {manager.allocate_for(r, fec) for r in (0, 1, 2)}
        assert len(labels) == 3  # distinct routers, distinct labels

    def test_desynchronized_is_deterministic(self):
        first = LabelManager({0: "cisco"})
        second = LabelManager({0: "cisco"})
        fec = PrefixFec(Prefix.parse("10.0.0.1/32"))
        assert first.allocate_for(0, fec) == second.allocate_for(0, fec)

    def test_labels_stay_in_vendor_range(self):
        manager = LabelManager({r: "juniper" for r in range(20)})
        fec = PrefixFec(Prefix.parse("10.0.0.1/32"))
        for router in range(20):
            label = manager.allocate_for(router, fec)
            assert JUNIPER.label_min <= label <= JUNIPER.label_max
