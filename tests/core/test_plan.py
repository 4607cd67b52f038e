"""Query planning / explain()."""

import pytest

from repro.core.plan import explain
from repro.core.query import ANY, Prefix, QueryGraph
from repro.datasets.netflow import exfiltration_attack_query

from ..conftest import fig5_query, path_query


class TestExplain:
    def test_running_example_plan(self):
        plan = explain(fig5_query())
        assert plan.k == 3
        assert not plan.is_tc_query
        assert plan.decomposition == [(6, 5, 4), (3, 1), (2,)]
        assert plan.tcsub_count == 10
        assert plan.expected_joins_per_edge == pytest.approx(8 / 6)

    def test_tc_query_plan(self):
        plan = explain(path_query(3, timing="chain"))
        assert plan.is_tc_query
        assert plan.k == 1
        assert plan.joint_numbers() == []

    def test_render_contains_key_sections(self):
        text = explain(fig5_query()).render()
        assert "decomposition (k=3)" in text
        assert "join order" in text
        assert "Theorem 7" in text
        assert "L1^3" in text and "L0^3" in text

    def test_expansion_list_items_layout(self):
        plan = explain(fig5_query())
        items = plan.expansion_list_items()
        # 3 + 2 + 1 subquery items plus L0 levels 2..3.
        assert len(items) == 6 + 2
        assert items[0].startswith("L1^1")
        assert items[-1].startswith("L0^3")

    def test_joint_numbers_along_order(self):
        plan = explain(fig5_query())
        jns = dict(plan.joint_numbers())
        assert jns[2] == 3    # JN(Q1, Q2) from the paper's example
        assert 3 in jns

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            explain(fig5_query(), decomposition_strategy="bogus")
        with pytest.raises(ValueError):
            explain(fig5_query(), join_order_strategy="bogus")

    def test_random_strategies_produce_valid_plans(self):
        import random
        plan = explain(fig5_query(), decomposition_strategy="random",
                       join_order_strategy="random", rng=random.Random(5))
        assert plan.k >= 3
        assert plan.expected_joins_per_edge >= explain(
            fig5_query()).expected_joins_per_edge


class TestLabelIndexLine:
    """``explain`` says what recognising one arrival costs."""

    def line(self, query) -> str:
        (line,) = [line for line in explain(query).render().splitlines()
                   if line.startswith("label index:")]
        return line

    @staticmethod
    def chain(vertex_label, labels):
        query = QueryGraph()
        for i in range(len(labels) + 1):
            query.add_vertex(i, vertex_label)
        for i, label in enumerate(labels):
            query.add_edge(f"e{i}", i, i + 1, label)
        return query

    def test_all_concrete(self):
        assert self.line(self.chain("IP", [(80, "tcp"), (53, "udp")])) == (
            "label index: 1 mask · 2 of 2 edges keyed · "
            "0 residual checks · all-keyed: yes")

    def test_wildcard_tuple(self):
        assert self.line(exfiltration_attack_query()) == (
            "label index: 1 mask · 5 of 5 edges keyed · "
            "0 residual checks · all-keyed: no")

    def test_prefix_only(self):
        assert self.line(self.chain(ANY, [Prefix("44"), Prefix("4")])) == (
            "label index: 1 mask · 0 of 2 edges keyed · "
            "2 residual checks · all-keyed: no")
