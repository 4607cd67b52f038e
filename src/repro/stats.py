"""Declared counters: each exported number is named once, by its owner.

An owner of exported numbers (the session; the service's gateway,
tenants, queues, WALs, dead-letter queues, rate limiters, breakers and
tailers) carries a ``STATS`` table, ``name -> (kind, help)``, and builds
its stats dict from it with :func:`snapshot`; counting stays a plain
attribute ``+=``.  ``/stats`` is the tree of those dicts and
:func:`repro.service.metrics.render_metrics` renders it by walking the
same tables.  Kinds: ``counter`` is monotonic since process start;
``gauge`` is any other number (a ``bool`` reads 0/1, a list its
length); ``one_hot`` is a health state, exported as
``<name>_state{state=...}``; ``is_open`` is a breaker state, exported as
``<prefix>open``; ``setting`` is a configured value, on ``/stats`` only.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple, Union

COUNTER, GAUGE = "counter", "gauge"
ONE_HOT, IS_OPEN, SETTING = "one_hot", "is_open", "setting"


class Group(NamedTuple):
    """A nested dict, declared by ``table``; its series are named
    ``prefix + name``.  With a ``label`` the dict maps each of several
    owners to its stats (a ``(kind, help)`` table: to one number), and
    ``count`` is the help of a gauge, named after the key, of how many."""

    table: Union["Table", Tuple[str, str]]
    prefix: str
    label: Optional[str] = None
    count: Optional[str] = None


#: ``name -> (kind, help)`` or ``name -> Group``.
Table = Dict[str, Union[Tuple[str, str], Group]]


def snapshot(owner, table: Table, **computed) -> dict:
    """``table``'s names mapped to the value in ``computed``, else to
    ``owner``'s attribute of that name; a computed ``None`` (a component
    the owner runs without) leaves the name out."""
    values = {}
    for name in table:
        value = computed[name] if name in computed else getattr(owner, name)
        if value is not None:
            values[name] = value
    return values
