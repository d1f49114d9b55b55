"""Unit tests for the Routeviews-style IP-to-AS mapper."""

import io

import pytest
from hypothesis import given, strategies as st

from repro.net.ip import MAX_IPV4, Prefix, ip_to_int
from repro.net.ip2as import Ip2AsMapper, UNKNOWN_AS


def build_mapper():
    mapper = Ip2AsMapper()
    mapper.add(Prefix.parse("10.0.0.0/8"), 65001)
    mapper.add(Prefix.parse("10.1.0.0/16"), 65002)
    mapper.add(Prefix.parse("192.0.2.0/24"), 65003)
    return mapper


def make_mapper(entries):
    return Ip2AsMapper.from_pairs(
        (Prefix.parse(text), origin) for text, origin in entries
    )


class TestLongestPrefixMatch:
    def test_empty_lookup(self):
        mapper = Ip2AsMapper()
        assert mapper.lookup(ip_to_int("10.0.0.1")) is None
        assert mapper.lookup_single(ip_to_int("10.0.0.1")) == UNKNOWN_AS
        assert len(mapper) == 0

    def test_exact_match(self):
        mapper = make_mapper([("192.0.2.0/24", 65001)])
        assert mapper.lookup_str("192.0.2.7") == 65001
        assert mapper.lookup_str("192.0.3.7") is None

    def test_longest_prefix_wins(self):
        mapper = make_mapper([
            ("10.0.0.0/8", 65001),
            ("10.1.0.0/16", 65002),
            ("10.1.2.0/24", 65003),
        ])
        assert mapper.lookup_str("10.1.2.3") == 65003
        assert mapper.lookup_str("10.1.9.9") == 65002
        assert mapper.lookup_str("10.9.9.9") == 65001

    def test_default_route(self):
        mapper = make_mapper([("0.0.0.0/0", 65000), ("10.0.0.0/8", 65010)])
        assert mapper.lookup_str("11.0.0.1") == 65000
        assert mapper.lookup_str("255.255.255.255") == 65000
        assert mapper.lookup_str("10.0.0.1") == 65010

    def test_host_route(self):
        mapper = make_mapper([("10.0.0.0/8", 65001),
                              ("10.0.0.1/32", 65002)])
        assert mapper.lookup_str("10.0.0.1") == 65002
        assert mapper.lookup_str("10.0.0.2") == 65001

    def test_items_yields_all(self):
        entries = [("10.0.0.0/8", 1), ("10.1.0.0/16", 2),
                   ("192.0.2.0/24", 3), ("0.0.0.0/0", 4),
                   ("10.0.0.1/32", (5, 6))]
        got = list(make_mapper(entries).items())
        assert {(str(p), v) for p, v in got} == set(entries)
        # Ordered by (network, length), as the pfx2as dump writes them.
        assert [p for p, _ in got] == sorted(p for p, _ in got)

    def test_readd_merges_into_one_entry(self):
        mapper = make_mapper([("10.0.0.0/8", 65001)])
        mapper.add(Prefix.parse("10.0.0.0/8"), 65002)
        assert mapper.lookup_str("10.0.0.1") == (65001, 65002)
        assert len(mapper) == 1

    def test_len_counts_unique_prefixes(self):
        mapper = make_mapper([("10.0.0.0/8", 1), ("10.0.0.0/16", 2),
                              ("10.0.0.0/8", 3)])
        assert len(mapper) == 2

    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=MAX_IPV4),
                  st.integers(min_value=0, max_value=32),
                  st.integers(min_value=1, max_value=4)),
        min_size=1, max_size=40,
    ))
    def test_matches_linear_scan(self, raw_entries):
        """Every lookup agrees with a brute-force longest-match scan
        over merged MOAS origins, on tables with and without prefixes
        longer than the /24 memo block."""
        for max_length in (24, 32):
            pairs = [(Prefix.from_host(address, length), asn)
                     for address, length, asn in raw_entries
                     if length <= max_length]
            origins = {}
            for prefix, asn in pairs:
                origins.setdefault(prefix, set()).add(asn)
            mapper = Ip2AsMapper.from_pairs(pairs)
            assert len(mapper) == len(origins)
            probes = [0, MAX_IPV4]
            for address, _, _ in raw_entries:
                probes += [address, address ^ 1, address ^ 0x80,
                           address ^ 0x8000]
            expected = []
            for probe in probes:
                best = None
                for prefix, asns in origins.items():
                    if probe in prefix and (
                            best is None or prefix.length > best.length):
                        best = prefix
                if best is None:
                    expected.append(None)
                else:
                    merged = tuple(sorted(origins[best]))
                    expected.append(merged[0] if len(merged) == 1
                                    else merged)
            singles = [UNKNOWN_AS if origin is None
                       else min(origin) if isinstance(origin, tuple)
                       else origin for origin in expected]
            assert [mapper.lookup(p) for p in probes] == expected
            assert [mapper.lookup_single(p) for p in probes] == singles
            assert mapper.lookup_many(probes) == singles


class TestLookup:
    def test_longest_match(self):
        mapper = build_mapper()
        assert mapper.lookup_str("10.1.2.3") == 65002
        assert mapper.lookup_str("10.2.0.1") == 65001
        assert mapper.lookup_str("192.0.2.9") == 65003

    def test_unrouted(self):
        mapper = build_mapper()
        assert mapper.lookup_str("8.8.8.8") is None
        assert mapper.lookup_single(ip_to_int("8.8.8.8")) == UNKNOWN_AS

    def test_moas_merging(self):
        mapper = Ip2AsMapper()
        mapper.add(Prefix.parse("10.0.0.0/8"), 65001)
        mapper.add(Prefix.parse("10.0.0.0/8"), 65005)
        assert mapper.lookup_str("10.0.0.1") == (65001, 65005)
        assert mapper.lookup_single(ip_to_int("10.0.0.1")) == 65001

    def test_moas_duplicate_add_stays_single(self):
        mapper = Ip2AsMapper()
        mapper.add(Prefix.parse("10.0.0.0/8"), 65001)
        mapper.add(Prefix.parse("10.0.0.0/8"), 65001)
        assert mapper.lookup_str("10.0.0.1") == 65001

    def test_moas_tuple_add(self):
        mapper = Ip2AsMapper()
        mapper.add(Prefix.parse("10.0.0.0/8"), (65001, 65002))
        assert mapper.lookup_str("10.0.0.1") == (65001, 65002)


class TestCodec:
    def test_round_trip(self):
        mapper = build_mapper()
        mapper.add(Prefix.parse("198.51.100.0/24"), (65010, 65011))
        buffer = io.StringIO()
        mapper.dump(buffer)
        buffer.seek(0)
        loaded = Ip2AsMapper.load(buffer)
        assert dict(loaded.items()) == dict(mapper.items())

    def test_load_skips_comments_and_blanks(self):
        text = "# comment\n\n10.0.0.0\t8\t65001\n"
        loaded = Ip2AsMapper.load(io.StringIO(text))
        assert loaded.lookup_str("10.0.0.1") == 65001

    def test_load_parses_moas_underscore(self):
        loaded = Ip2AsMapper.load(io.StringIO("10.0.0.0\t8\t65001_65002\n"))
        assert loaded.lookup_str("10.0.0.1") == (65001, 65002)

    def test_load_rejects_bad_field_count(self):
        with pytest.raises(ValueError, match="line 1"):
            Ip2AsMapper.load(io.StringIO("10.0.0.0 8\n"))

    def test_from_pairs(self):
        mapper = Ip2AsMapper.from_pairs([
            (Prefix.parse("10.0.0.0/8"), 65001),
        ])
        assert len(mapper) == 1


class TestLookupMany:
    def test_matches_lookup_single(self):
        mapper = build_mapper()
        addresses = [ip_to_int("10.1.2.3"), ip_to_int("10.2.0.1"),
                     ip_to_int("8.8.8.8"), ip_to_int("192.0.2.9"),
                     ip_to_int("10.1.2.3")]
        assert mapper.lookup_many(addresses) == \
            [mapper.lookup_single(a) for a in addresses]

    def test_empty_batch(self):
        assert build_mapper().lookup_many([]) == []

    def test_block_memo_counts_hits_and_misses(self):
        from repro.net.ip2as import _LOOKUP_HITS, _LOOKUP_MISSES
        mapper = build_mapper()
        block = [ip_to_int("10.1.2.1") + i for i in range(10)]
        hits = _LOOKUP_HITS.value()
        misses = _LOOKUP_MISSES.value()
        mapper.lookup_many(block)
        # Ten addresses in one /24: one prefix match, nine memo hits.
        assert _LOOKUP_MISSES.value() - misses == 1
        assert _LOOKUP_HITS.value() - hits == 9

    def test_fine_prefixes_disable_the_block_memo(self):
        # A /32 inside a /24 must not be flattened to its block's
        # answer: with prefixes longer than /24 in the table the memo
        # degrades to exact-address keys.
        mapper = build_mapper()
        mapper.add(Prefix.parse("10.1.2.3/32"), 65009)
        assert mapper.lookup_many(
            [ip_to_int("10.1.2.3"), ip_to_int("10.1.2.4")]
        ) == [65009, 65002]
