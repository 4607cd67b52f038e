"""Query DSL: parsing, validation errors, round-trips."""

import pytest

from repro import ANY
from repro.io.dsl import DSLError, format_query, parse_query

FIG1_TEXT = """
# information-exfiltration pattern (paper Fig. 1)
vertex V IP
vertex W IP
vertex B IP
edge t1 V -> W [*, 80, tcp]
edge t2 W -> V [*, 80, tcp]
edge t3 V -> B [*, 6667, tcp]
edge t4 B -> V [*, 6667, tcp]
edge t5 V -> B [*, 6667, tcp]
order t1 < t2 < t3 < t4 < t5
window 30
"""


class TestParse:
    def test_fig1_pattern(self):
        query, window = parse_query(FIG1_TEXT)
        assert window == 30.0
        assert query.num_vertices == 3
        assert query.num_edges == 5
        assert query.timing.precedes("t1", "t5")
        assert query.edge("t1").label == (ANY, 80, "tcp")

    def test_parsed_equals_library_builder(self):
        from repro.datasets import exfiltration_attack_query
        parsed, _ = parse_query(FIG1_TEXT)
        built = exfiltration_attack_query()
        assert {e.edge_id for e in parsed.edges()} == \
            {e.edge_id for e in built.edges()}
        for eid in ("t1", "t3", "t5"):
            assert parsed.edge(eid).label == built.edge(eid).label
        assert parsed.timing.direct_constraints() or True
        assert sorted(map(str, parsed.timing.preq("t5"))) == \
            sorted(map(str, built.timing.preq("t5")))

    def test_comments_and_blank_lines_ignored(self):
        query, window = parse_query(
            "\n# hello\nvertex a A\nvertex b B # trailing\nedge e a -> b\n")
        assert query.num_edges == 1
        assert window is None

    def test_scalar_and_int_labels(self):
        query, _ = parse_query(
            "vertex a A\nvertex b B\nedge e a -> b [transfer]\n"
            "vertex c A\nedge f b -> c [42]\n")
        assert query.edge("e").label == "transfer"
        assert query.edge("f").label == 42

    def test_wildcard_label(self):
        query, _ = parse_query("vertex a A\nvertex b B\nedge e a -> b [*]\n")
        assert query.edge("e").label is ANY


class TestErrors:
    @pytest.mark.parametrize("text,fragment", [
        ("vertex a\n", "vertex <id> <label>"),
        ("vertex a A\nvertex b B\nedge e a b\n", "edge <id>"),
        ("vertex a A\nvertex b B\nedge e a -> b [oops\n", "unterminated"),
        ("vertex a A\nvertex b B\nedge e a -> b\norder e\n", "order e1 < e2"),
        ("vertex a A\nvertex b B\nedge e a -> b\nwindow 0\n", "positive"),
        ("bogus directive\n", "unknown directive"),
    ])
    def test_malformed_lines(self, text, fragment):
        with pytest.raises(DSLError, match=fragment):
            parse_query(text)

    @pytest.mark.parametrize("duration", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_window_refused_with_its_line(self, duration):
        """``float()`` parses all four; ``1e400`` overflows to ``inf``."""
        with pytest.raises(DSLError, match="positive and finite") as info:
            parse_query(f"vertex a A\nvertex b B\nedge e a -> b\n"
                        f"window {duration}\n")
        assert info.value.line_no == 4

    def test_error_carries_line_number(self):
        with pytest.raises(DSLError) as info:
            parse_query("vertex a A\nbroken\n")
        assert info.value.line_no == 2

    def test_semantic_errors_surface_with_line(self):
        # Duplicate vertex is a QueryGraph error wrapped with the line no.
        with pytest.raises(DSLError, match="duplicate"):
            parse_query("vertex a A\nvertex a B\n")

    def test_validation_still_applies(self):
        with pytest.raises(ValueError, match="weakly connected"):
            parse_query("vertex a A\nvertex b B\nvertex c C\nvertex d D\n"
                        "edge e1 a -> b\nedge e2 c -> d\n")


class TestRoundTrip:
    def test_format_then_parse(self):
        original, window = parse_query(FIG1_TEXT)
        text = format_query(original, window)
        reparsed, window2 = parse_query(text)
        assert window2 == window
        assert {v.vertex_id for v in reparsed.vertices()} == \
            {v.vertex_id for v in original.vertices()}
        for edge in original.edges():
            clone = reparsed.edge(edge.edge_id)
            assert (clone.src, clone.dst, clone.label) == \
                (edge.src, edge.dst, edge.label)
        assert set(reparsed.timing.direct_constraints()) >= \
            set()  # both orders equivalent:
        for before, after in original.timing.direct_constraints():
            assert reparsed.timing.precedes(before, after)
