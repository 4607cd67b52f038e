"""Prometheus text-format rendering of the gateway's status tree.

:func:`render_metrics` turns one :meth:`ServiceGateway.status
<repro.service.gateway.ServiceGateway.status>` snapshot — the ``/stats``
payload — into the Prometheus `text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_, stdlib
only, by walking it with its owners' ``STATS`` tables (see
:mod:`repro.stats`): each declared number becomes
``repro_<prefix><name>`` with the declared type and help, labelled by
its tenant and, in a map of several owners, by the owner's key.  A
tenant's string facts are labels of ``repro_tenant_info`` (value 1).
:func:`declared_series` lists every series a page can carry.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from ..stats import COUNTER, GAUGE, INFO, IS_OPEN, ONE_HOT, Group, Table
from .gateway import ServiceGateway
from .resilience import HEALTH_STATES

_PREFIX = "repro"


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
               kind: str, help_text: str) -> None:
        metric = f"{_PREFIX}_{name}"
        self._samples.setdefault(metric, []).append(
            (_labels(labels), float(value)))
        self._meta.setdefault(metric, (help_text, kind))

    def render(self) -> str:
        lines: List[str] = []
        for metric in sorted(self._samples):
            help_text, kind = self._meta[metric]
            lines.append(f"# HELP {metric} {help_text}")
            lines.append(f"# TYPE {metric} {kind}")
            for labels, value in self._samples[metric]:
                rendered = str(int(value)) if value == int(value) \
                    else repr(value)
                lines.append(f"{metric}{labels} {rendered}")
        return "\n".join(lines) + "\n"


def _number(value) -> float:
    """A declared leaf as a sample: a list counts its items."""
    return len(value) if isinstance(value, list) else value


def _walk(writer: _Writer, table: Table, node, prefix: str,
          labels: Dict[str, str], info: Dict[str, str]) -> None:
    """Sample every declared entry of the status dict ``node``; ``info``
    collects the string facts of the labelled owner being walked."""
    for key, declared in table.items():
        value = node.get(key)
        if value is None:
            continue
        name = prefix + key
        if isinstance(declared, Group):
            if declared.count is not None:
                writer.sample(key, labels, len(value), GAUGE, declared.count)
            if declared.label is None:
                _walk(writer, declared.table, value, declared.prefix,
                      labels, info)
                continue
            for owner, child in value.items():
                scoped = {**labels, declared.label: owner}
                if isinstance(declared.table, tuple):
                    kind, help_text = declared.table
                    writer.sample(declared.prefix, scoped, child, kind,
                                  help_text)
                    continue
                facts = dict(scoped)
                _walk(writer, declared.table, child, declared.prefix,
                      scoped, facts)
                if len(facts) > len(scoped):
                    writer.sample(f"{declared.label}_info", facts, 1, GAUGE,
                                  f"Non-numeric {declared.label} facts as "
                                  "labels.")
            continue
        kind, help_text = declared
        if kind in (COUNTER, GAUGE):
            writer.sample(name, labels, _number(value), kind, help_text)
        elif kind == INFO:
            info[key] = value
        elif kind == ONE_HOT:
            for state in HEALTH_STATES:
                writer.sample(f"{name}_state", {**labels, "state": state},
                              value == state, GAUGE, help_text)
        elif kind == IS_OPEN:
            writer.sample(f"{prefix}open", labels, value == "open", GAUGE,
                          help_text)


def render_metrics(status: Mapping) -> str:
    """Render one ``/metrics`` page from a :meth:`ServiceGateway.status`
    snapshot."""
    writer = _Writer()
    _walk(writer, ServiceGateway.STATS, status, "", {}, {})
    return writer.render()


class _EveryValue:
    """Stands in for every node and leaf of a status tree — one owner
    per labelled map — so a walk reaches every declaration."""

    def get(self, key: str) -> "_EveryValue":
        return self

    def items(self):
        return [("", self)]

    def __len__(self) -> int:
        return 0

    def __float__(self) -> float:
        return 0.0


def declared_series() -> Dict[str, Tuple[str, str]]:
    """``series -> (type, help)`` for every series :func:`render_metrics`
    can emit."""
    writer = _Writer()
    _walk(writer, ServiceGateway.STATS, _EveryValue(), "", {}, {})
    return {metric: (kind, help_text)
            for metric, (help_text, kind) in writer._meta.items()}
