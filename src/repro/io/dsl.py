"""A small text DSL for time-constrained continuous queries.

Queries are declared in a line-oriented format (``#`` starts a comment)::

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

Grammar:

* ``vertex <id> <label>`` — declare a labelled query vertex;
* ``edge <id> <src> -> <dst> [<label>]`` — directed edge; the bracketed
  label is optional.  A label of ``*`` is the wildcard; a comma-separated
  label becomes a tuple, each component parsed as int when possible and
  ``*`` meaning per-position wildcard;
* ``order e1 < e2 < … `` — a timing chain (each ``<`` one constraint);
* ``window <seconds>`` — optional window duration hint.

Label predicates (PR 10) apply to vertex labels, edge labels and tuple
components alike:

* ``*`` alone is the any-label wildcard (``ANY``);
* a trailing ``*`` makes a prefix pattern — ``44*`` matches ``4480``
  and ``"44x"`` (ints match on their decimal text);
* ``prefix:44`` is the explicit spelling of the same pattern (useful
  when the prefix itself could read as a directive);
* a ``*`` anywhere else (``4*4``, ``*44``, ``44**``) is rejected with a
  line-numbered error, as is an empty ``prefix:``.

Vertex labels are otherwise kept as raw strings (no int conversion —
the historical semantics); edge-label components are int-parsed when
possible.  ``parse_query`` returns ``(QueryGraph, window_or_None)``;
``format_query`` serialises back to the DSL (round-trip tested; a
*literal* string label ending in ``*`` or starting with ``prefix:``
cannot round-trip — the formatter has no escape syntax and re-reads it
as a pattern).
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Tuple

from ..core.query import ANY, Prefix, QueryGraph


class DSLError(ValueError):
    """Raised on malformed query text, with a line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _parse_pattern(text: str) -> Optional[Hashable]:
    """The predicate a label token spells, or ``None`` for a literal.

    Raises ``ValueError`` (wrapped into a line-numbered :class:`DSLError`
    by ``parse_query``) on malformed patterns, with the accepted
    spellings named so the error is actionable.
    """
    if text == "*":
        return ANY
    if text.startswith("prefix:"):
        prefix = text[len("prefix:"):]
        if not prefix:
            raise ValueError(
                "'prefix:' needs a non-empty prefix (e.g. 'prefix:44'); "
                "use '*' for an any-label position")
        if "*" in prefix:
            raise ValueError(
                f"'prefix:' patterns take no '*' (got {text!r}); "
                "write 'prefix:44' or the shorthand '44*'")
        return Prefix(prefix)
    if "*" in text:
        if text.endswith("*") and text.count("*") == 1:
            return Prefix(text[:-1])
        raise ValueError(
            f"'*' must stand alone or end a prefix pattern (got {text!r}); "
            "write '*', '44*' or 'prefix:44'")
    return None


def _parse_label_component(text: str) -> Hashable:
    text = text.strip()
    pattern = _parse_pattern(text)
    if pattern is not None:
        return pattern
    try:
        return int(text)
    except ValueError:
        return text


def _parse_vertex_label(text: str) -> Hashable:
    """Vertex labels: same predicate spellings, but literals stay raw
    strings (no int conversion — the historical vertex semantics)."""
    pattern = _parse_pattern(text)
    return text if pattern is None else pattern


def _parse_label(text: str) -> Hashable:
    """``[...]`` contents → label value (ANY / Prefix / scalar / tuple)."""
    if "," in text:
        return tuple(_parse_label_component(part)
                     for part in text.split(","))
    return _parse_label_component(text)


def _format_label_component(value: Hashable) -> str:
    if value is ANY:
        return "*"
    if isinstance(value, Prefix):
        return f"{value.prefix}*"
    return str(value)


def _format_label(value: Hashable) -> str:
    if isinstance(value, tuple):
        return ", ".join(_format_label_component(part) for part in value)
    return _format_label_component(value)


def parse_query(text: str) -> Tuple[QueryGraph, Optional[float]]:
    """Parse DSL text into a validated query graph plus window hint."""
    query = QueryGraph()
    window: Optional[float] = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0].lower()
        try:
            if keyword == "vertex":
                if len(tokens) != 3:
                    raise DSLError(line_no, "expected: vertex <id> <label>")
                query.add_vertex(tokens[1], _parse_vertex_label(tokens[2]))
            elif keyword == "edge":
                _parse_edge_line(query, tokens, line, line_no)
            elif keyword == "order":
                _parse_order_line(query, line, line_no)
            elif keyword == "window":
                if len(tokens) != 2:
                    raise DSLError(line_no, "expected: window <duration>")
                window = float(tokens[1])
                if not 0 < window < float("inf"):
                    # NaN compares false both ways; 1e400 parses as inf.
                    raise DSLError(
                        line_no, "window must be positive and finite")
            else:
                raise DSLError(line_no, f"unknown directive {keyword!r}")
        except DSLError:
            raise
        except (ValueError, KeyError) as exc:
            raise DSLError(line_no, str(exc)) from exc
    query.validate()
    return query, window


def _parse_edge_line(query: QueryGraph, tokens: List[str], line: str,
                     line_no: int) -> None:
    # edge <id> <src> -> <dst> [label...]
    if len(tokens) < 5 or tokens[3] != "->":
        raise DSLError(line_no, "expected: edge <id> <src> -> <dst> [label]")
    eid, src, dst = tokens[1], tokens[2], tokens[4]
    label: Hashable = ANY
    if "[" in line:
        if not line.rstrip().endswith("]"):
            raise DSLError(line_no, "unterminated label bracket")
        label_text = line[line.index("[") + 1:line.rindex("]")]
        label = _parse_label(label_text)
    query.add_edge(eid, src, dst, label)


def _parse_order_line(query: QueryGraph, line: str, line_no: int) -> None:
    body = line.split(None, 1)[1] if len(line.split(None, 1)) > 1 else ""
    chain = [part.strip() for part in body.split("<")]
    if len(chain) < 2 or any(not part for part in chain):
        raise DSLError(line_no, "expected: order e1 < e2 [< e3 ...]")
    for before, after in zip(chain, chain[1:]):
        query.add_timing_constraint(before, after)


def format_query(query: QueryGraph, window: Optional[float] = None) -> str:
    """Serialise a query graph back into DSL text (stable ordering)."""
    lines: List[str] = []
    for vertex in query.vertices():
        lines.append(f"vertex {vertex.vertex_id} "
                     f"{_format_label_component(vertex.label)}")
    for edge in query.edges():
        suffix = ""
        if edge.label is not ANY:
            suffix = f" [{_format_label(edge.label)}]"
        lines.append(f"edge {edge.edge_id} {edge.src} -> {edge.dst}{suffix}")
    for before, after in sorted(query.timing.direct_constraints(),
                                key=lambda pair: (str(pair[0]), str(pair[1]))):
        lines.append(f"order {before} < {after}")
    if window is not None:
        lines.append(f"window {window}")
    return "\n".join(lines) + "\n"
