#!/usr/bin/env python3
"""Cyber-attack detection: the paper's Fig. 1 / Fig. 22 case study.

Monitors synthetic network traffic for the five-step information-
exfiltration pattern (victim browses a compromised site, downloads the
malware, registers at the C&C server, receives a command, exfiltrates data
— with strictly increasing timestamps t1 < t2 < t3 < t4 < t5).  One attack
is injected into seeded background traffic; the monitor must flag exactly
that attack, in real time, as the final exfiltration edge arrives.

Run:  python examples/cyber_attack_detection.py
"""

from repro import Session
from repro.datasets import (
    exfiltration_attack_query, generate_netflow_stream, inject_attack,
)

VICTIM = "10.0.0.66"
WEB_SERVER = "172.16.0.80"
CNC_SERVER = "203.0.113.9"


def main() -> None:
    print("generating background traffic (3,000 flows, 150 hosts)...")
    background = generate_netflow_stream(3000, seed=99, num_ips=150)
    stream = inject_attack(background, victim=VICTIM,
                           web_server=WEB_SERVER, cnc_server=CNC_SERVER)

    query = exfiltration_attack_query()
    session = Session(window=30.0)
    monitor = session.register("exfiltration", query)
    print(f"monitoring pattern with {monitor}\n")

    alerts = 0

    def alarm(name, match):
        nonlocal alerts
        alerts += 1
        mapping = match.vertex_mapping(query)
        print("⚠  EXFILTRATION PATTERN DETECTED")
        print(f"   victim      : {mapping['V']}")
        print(f"   web server  : {mapping['W']}")
        print(f"   C&C server  : {mapping['B']}")
        for step in range(1, 6):
            hop = match[f"t{step}"]
            sport, dport, proto = hop.label
            print(f"   t{step}: {hop.src:>13} -> {hop.dst:<13} "
                  f"dst-port {dport}/{proto}  @ {hop.timestamp:.3f}")
        print()

    session.add_sink(alarm, query="exfiltration")
    session.ingest(stream)             # batch ingestion from any iterable

    stats = session.stats()["exfiltration"]
    # Session-level arrival count: the engine only sees the arrivals
    # routed to it.
    print(f"processed {session.edges_pushed} flows, "
          f"{stats['edges_discarded']} label-matching flows discarded by "
          "timing pruning, "
          f"{alerts} alert(s) raised")
    assert alerts == 1, "expected exactly the injected attack"


if __name__ == "__main__":
    main()
