"""Synthetic dataset generators: schema, skew, determinism."""

from collections import Counter

import pytest

from repro.datasets import (
    Clock, ZipfSampler, generate_lsbench_stream, generate_netflow_stream,
    generate_wikitalk_stream,
)
from repro.datasets.netflow import COMMON_PORTS
import random


class TestZipfSampler:
    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            ZipfSampler([])

    def test_rank_one_dominates(self):
        sampler = ZipfSampler(list(range(50)), alpha=1.2)
        rng = random.Random(1)
        counts = Counter(sampler.sample(rng) for _ in range(5000))
        assert counts[0] == max(counts.values())
        assert counts[0] > 5 * counts.get(30, 1)

    def test_pair_is_distinct(self):
        sampler = ZipfSampler(["a", "b"], alpha=1.0)
        rng = random.Random(2)
        for _ in range(100):
            x, y = sampler.sample_pair(rng)
            assert x != y

    def test_pair_needs_two_items(self):
        with pytest.raises(ValueError):
            ZipfSampler(["only"]).sample_pair(random.Random(0))


class TestClock:
    def test_strictly_increasing(self):
        clock = Clock(rate=5.0)
        rng = random.Random(3)
        stamps = [clock.tick(rng) for _ in range(200)]
        assert all(a < b for a, b in zip(stamps, stamps[1:]))

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            Clock(rate=0)


@pytest.mark.parametrize("generator,label_check", [
    (generate_netflow_stream, lambda e: e.src_label == "IP"),
    (generate_wikitalk_stream, lambda e: len(e.src_label) == 1),
    (generate_lsbench_stream,
     lambda e: e.src_label in {"user", "post", "photo"}),
])
class TestGeneratorsCommon:
    def test_size_and_monotone_timestamps(self, generator, label_check):
        stream = generator(500, seed=4)
        assert len(stream) == 500
        stamps = [e.timestamp for e in stream]
        assert all(a < b for a, b in zip(stamps, stamps[1:]))

    def test_deterministic_per_seed(self, generator, label_check):
        a = generator(200, seed=7)
        b = generator(200, seed=7)
        c = generator(200, seed=8)
        assert [e.edge_id for e in a] == [e.edge_id for e in b]
        assert [e.edge_id for e in a] != [e.edge_id for e in c]

    def test_labels_follow_schema(self, generator, label_check):
        stream = generator(300, seed=5)
        assert all(label_check(e) for e in stream)


class TestNetflowSpecifics:
    def test_port_skew_matches_paper_statistic(self):
        """§VII-A: the top handful of destination ports dominate (paper:
        top 0.01% of ports cover >50% of records)."""
        stream = generate_netflow_stream(4000, seed=1)
        ports = Counter(e.label[1] for e in stream)
        top6 = sum(count for _, count in ports.most_common(6))
        assert top6 > 0.5 * len(stream)

    @pytest.mark.parametrize("extra_ports", [0, 40, 200])
    def test_extra_ports_form_the_tail(self, extra_ports):
        """Destination ports are the common ones plus ``extra_ports``
        distinct unprivileged ones, never more."""
        stream = generate_netflow_stream(4000, seed=1,
                                         extra_ports=extra_ports)
        ports = {e.label[1] for e in stream}
        assert set(COMMON_PORTS) & ports
        tail = ports - set(COMMON_PORTS)
        assert all(1024 <= port < 49151 for port in tail)
        assert len(tail) <= extra_ports
        if not extra_ports:
            assert ports == set(COMMON_PORTS)

    def test_lower_port_alpha_flattens_the_skew(self):
        def top6_share(alpha):
            stream = generate_netflow_stream(4000, seed=1, extra_ports=200,
                                             port_alpha=alpha)
            ports = Counter(e.label[1] for e in stream)
            return sum(count for _, count in ports.most_common(6))

        assert top6_share(0.8) < top6_share(1.2)

    def test_edge_labels_are_five_tuple_shaped(self):
        stream = generate_netflow_stream(100, seed=2)
        for edge in stream:
            sport, dport, proto = edge.label
            assert 49152 <= sport < 65536
            assert proto in ("tcp", "udp")


class TestLsbenchSpecifics:
    def test_referential_integrity_of_likes(self):
        """A like must target a post created earlier in the stream."""
        stream = generate_lsbench_stream(1000, seed=3)
        created = set()
        for edge in stream:
            if edge.label == "posts":
                created.add(edge.dst)
            elif edge.label == "likes":
                assert edge.dst in created

    def test_predicates_from_schema(self):
        stream = generate_lsbench_stream(800, seed=4)
        predicates = {e.label for e in stream}
        assert predicates <= {"likes", "posts", "knows", "replyOf",
                              "uploads", "tags", "locatedAt"}
        assert "posts" in predicates
