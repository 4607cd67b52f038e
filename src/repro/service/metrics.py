"""Prometheus text-format rendering of gateway and session counters.

:func:`render_metrics` turns a :meth:`ServiceGateway.status
<repro.service.gateway.ServiceGateway.status>` snapshot plus each
tenant's :meth:`Session.session_stats <repro.api.Session.session_stats>`
into the Prometheus `text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ —
stdlib only, no client library.

Conventions
-----------
* Every numeric counter/gauge becomes ``repro_<name>{tenant="..."}``;
  nested queue counters become ``repro_queue_<name>``.
* Session stats whose values are strings or booleans (the sub-plan
  sharing mode) are folded into one ``repro_tenant_info`` metric with a
  constant value of 1 and the strings as labels — the idiomatic
  Prometheus pattern for non-numeric facts.
* Gateway-level facts (uptime, tenant count) carry no tenant label.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from .resilience import HEALTH_STATES

_PREFIX = "repro"

#: Metric name -> help text for the gateway/tenant counters we always
#: export (queue counters get theirs generated).
_HELP = {
    "uptime_seconds": "Seconds since the gateway started.",
    "tenants": "Number of hosted tenants.",
    "edges_offered": "Arrivals taken off the queue and offered to the "
                     "session (the tenant's stream position).",
    "edges_pushed": "Arrivals accepted into the engine window.",
    "rejected_nonmonotonic": "Arrivals shed for non-increasing timestamps.",
    "rejected_duplicate": "Arrivals rejected as in-window duplicates.",
    "worker_errors": "Worker batches that failed unexpectedly.",
    "matches_delivered": "Matches written to the match log / subscribers.",
    "subscribers": "Live match-stream subscribers.",
    "stream_frames_dropped": "Match frames shed because a WebSocket "
                             "subscriber fell behind.",
    "checkpoints_written": "Completed checkpoint barriers.",
    "last_checkpoint_seconds": "Wall-clock cost of the last checkpoint.",
    "sink_write_errors": "Match-log writes abandoned after retries.",
    "checkpoint_failures": "Checkpoint barriers that failed after "
                           "retries.",
    "checkpoint_fallbacks": "Boot-time falls down the checkpoint chain "
                            "(newest capture corrupt).",
    "dlq_replayed": "Dead-letter records re-ingested via repro dlq "
                    "replay.",
    "session_stateless_queries": "Registered one-edge queries on the "
                                 "stateless plan: no partial-match store, "
                                 "so nothing in subplan_store_cells.",
    "session_route_memo_clears": "Wholesale route-memo clears (a query "
                                 "added or removed, or the memo full).",
    "session_route_memo_entries": "Label triples with memoised targets.",
}

#: Nested counter groups in a tenant status, exported with their group
#: as the metric prefix (``repro_dead_letters_recorded``,
#: ``repro_wal_appends`` etc.).
_NESTED_GROUPS = ("dead_letters", "rate_limit", "wal")


def _escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _labels(pairs: Mapping[str, str]) -> str:
    if not pairs:
        return ""
    inner = ",".join(f'{key}="{_escape(str(value))}"'
                     for key, value in sorted(pairs.items()))
    return "{" + inner + "}"


class _Writer:
    """Accumulates samples grouped by metric, emitting HELP/TYPE once."""

    def __init__(self) -> None:
        self._samples: Dict[str, List[Tuple[str, float]]] = {}
        self._meta: Dict[str, Tuple[str, str]] = {}

    def sample(self, name: str, labels: Mapping[str, str], value,
               *, help_text: str = "", kind: str = "gauge") -> None:
        metric = f"{_PREFIX}_{name}"
        self._samples.setdefault(metric, []).append(
            (_labels(labels), float(value)))
        if metric not in self._meta:
            self._meta[metric] = (help_text, kind)

    def render(self) -> str:
        lines: List[str] = []
        for metric in sorted(self._samples):
            help_text, kind = self._meta[metric]
            if help_text:
                lines.append(f"# HELP {metric} {help_text}")
            lines.append(f"# TYPE {metric} {kind}")
            for labels, value in self._samples[metric]:
                if value == int(value):
                    rendered = str(int(value))
                else:
                    rendered = repr(value)
                lines.append(f"{metric}{labels} {rendered}")
        return "\n".join(lines) + "\n"


def _counter_like(name: str) -> str:
    if name.endswith(("_total", "enqueued", "dequeued", "dropped",
                      "rejected_closed", "offered", "pushed",
                      "delivered", "errors", "written", "reuses",
                      "rejected_nonmonotonic", "rejected_duplicate",
                      "recorded", "limited", "admitted", "trips",
                      "short_circuits", "failures", "clears",
                      "appends", "fsyncs", "replayed", "replayed_edges",
                      "replay_skipped", "hits",
                      "sync_errors", "segments_created",
                      "segments_reclaimed", "truncated_bytes",
                      "dropped_frames", "bytes_written")):
        return "counter"
    return "gauge"


def render_metrics(status: dict,
                   session_stats: Mapping[str, Mapping[str, object]]
                   ) -> str:
    """Render one ``/metrics`` page.

    Parameters
    ----------
    status:
        A :meth:`ServiceGateway.status` snapshot.
    session_stats:
        ``tenant name -> session_stats()`` for every tenant (numeric
        entries become labelled metrics; strings/bools fold into the
        info metric).
    """
    writer = _Writer()
    writer.sample("uptime_seconds", {}, status.get("uptime_seconds", 0.0),
                  help_text=_HELP["uptime_seconds"])
    tenants = status.get("tenants", {})
    writer.sample("tenants", {}, len(tenants), help_text=_HELP["tenants"])

    for name, tenant in tenants.items():
        label = {"tenant": name}
        for key, value in tenant.items():
            if key in ("name", "queue", "breakers", "health",
                       "health_reason") or key in _NESTED_GROUPS:
                continue
            if isinstance(value, bool):
                value = int(value)
            if isinstance(value, (int, float)):
                writer.sample(key, label, value,
                              help_text=_HELP.get(key, ""),
                              kind=_counter_like(key))
            elif isinstance(value, list):
                writer.sample("queries", label, len(value),
                              help_text="Registered queries.")
        for key, value in tenant.get("queue", {}).items():
            writer.sample(
                f"queue_{key}", label, value,
                help_text=f"Queue {key.replace('_', ' ')}.",
                kind=_counter_like(key))
        health = tenant.get("health")
        if isinstance(health, str):
            for state in HEALTH_STATES:
                writer.sample(
                    "health_state", {**label, "state": state},
                    int(health == state),
                    help_text="Tenant health state (one-hot).")
        for group in _NESTED_GROUPS:
            for key, value in (tenant.get(group) or {}).items():
                if isinstance(value, (int, float)) \
                        and not isinstance(value, bool):
                    writer.sample(
                        f"{group}_{key}", label, value,
                        help_text=f"{group.replace('_', ' ').capitalize()}"
                                  f" {key.replace('_', ' ')}.",
                        kind=_counter_like(key))
        for component, counters in (tenant.get("breakers") or {}).items():
            clabel = {**label, "component": component}
            for key, value in counters.items():
                if key == "state":
                    writer.sample(
                        "breaker_open", clabel, int(value == "open"),
                        help_text="Whether the circuit breaker is open.")
                elif isinstance(value, (int, float)) \
                        and not isinstance(value, bool):
                    writer.sample(
                        f"breaker_{key}", clabel, value,
                        help_text=f"Circuit breaker {key.replace('_', ' ')}.",
                        kind=_counter_like(key))

    for name, stats in session_stats.items():
        label = {"tenant": name}
        info = dict(label)
        for key, value in stats.items():
            if isinstance(value, bool):
                info[key] = str(value).lower()
            elif isinstance(value, (int, float)):
                writer.sample(f"session_{key}", label, value,
                              help_text=_HELP.get(
                                  f"session_{key}",
                                  f"Session {key.replace('_', ' ')}."),
                              kind=_counter_like(key))
            elif isinstance(value, str):
                info[key] = value
        writer.sample("tenant_info", info, 1,
                      help_text="Non-numeric tenant facts as labels.")
    return writer.render()
