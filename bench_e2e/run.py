"""The benchmark's one command.

``python3 bench_e2e/run.py`` runs every workload and prints every
end-to-end metric by name with its unit; ``--trace`` adds the per-layer
metrics and writes the span traces; ``--workload NAME`` runs one workload
and ends with the one-line JSON result ``BENCHMARK.json``'s contract
asks for; ``--aa`` runs everything twice and compares the two sets
against the bounds; ``--quick`` is a two-pass smoke mode; ``--rebless``
rewrites ``expected.json``.  Exit code 1 on a wrong answer or a failed
operation.  See ``README.md`` in this directory.

A workload's passes are shared out over several child processes (each
with ``PYTHONHASHSEED=0``) and summarised here: on this host one
process's passes agree within 3 % while processes differ by up to 8 %
(memory-layout luck), so one process per run would carry that luck into
every number.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC_DIR = os.path.join(ROOT, "src")
EXPECTED_PATH = os.path.join(HERE, "expected.json")

if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
    sys.exit(f"bench_e2e: no system to measure: {SRC_DIR}/repro is missing")
# The script directory would shadow stdlib names (``trace``); import the
# benchmark as the package ``bench_e2e`` from the checkout root instead.
sys.path[0] = ROOT
sys.path.insert(0, SRC_DIR)

from bench_e2e import harness, inputs, layers  # noqa: E402
from bench_e2e.trace import Tracer  # noqa: E402
from bench_e2e.workloads import RESULTS_DIR, WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _spec:
    SPEC = json.load(_spec)
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: Child processes an untraced run's passes are shared out over.
PROCESSES = 3


# --------------------------------------------------------------------- #
# A share of one workload's passes, in this (child) process
# --------------------------------------------------------------------- #

def run_share(options) -> dict:
    """Run this process's share of the passes; everything the parent
    needs, as one JSON-able document."""
    quick = options.quick
    workload = WORKLOADS[options.workload](options.seed, quick)
    kernel = harness.Calibrator()
    passes = harness.run_passes(
        lambda: workload.run_pass(kernel), seconds=options.seconds,
        min_passes=options.min_passes)
    document = {
        "shape": inputs.shape_digest(workload.inputs),
        "measured_edges": workload.inputs.measured_edges,
        "edges": len(workload.inputs.warmup) + workload.inputs.measured_edges,
        "reference": workload.reference_answer() if options.share == 0
        else None,
        "passes": [vars(result) for result in passes],
        "traced": [], "spans": {}, "layers": {},
    }
    if options.trace:
        tracer = Tracer()
        with tracer.installed():
            document["traced"] = [vars(workload.run_pass(kernel, tracer))
                                  for _ in range(harness.TRACED_PASSES)]
        os.makedirs(RESULTS_DIR, exist_ok=True)
        tracer.write(os.path.join(RESULTS_DIR,
                                  f"trace-{options.workload}.jsonl"))
        document["spans"] = tracer.by_name()
        if not options.no_layers:
            document["layers"] = layers.run_all(options.seed, quick)
    return document


# --------------------------------------------------------------------- #
# One workload: children run the passes, this process sums them up
# --------------------------------------------------------------------- #

def _child(arguments: List[str]) -> dict:
    """Re-run this script with ``arguments`` under ``PYTHONHASHSEED=0``
    and parse the JSON document it prints."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    with subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)] + arguments,
            stdout=subprocess.PIPE, text=True, env=env) as proc:
        try:
            output, _ = proc.communicate()
        except BaseException:
            # Ctrl-C: give the child the time to stop its server and
            # remove its state directory, then make sure it is gone.
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(20)
            except subprocess.TimeoutExpired:
                proc.kill()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"child {arguments} exited {proc.returncode}")
    return json.loads(output)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool, with_layers: bool = True) -> dict:
    """Run one workload; ``values`` holds every number by name, ``failed``
    and ``problems`` what went wrong."""
    if quick:
        shares, min_passes, seconds = 1, harness.QUICK_PASSES, 0.0
    elif trace:
        shares, min_passes, seconds = 1, harness.TRACE_UNTRACED_PASSES, 0.0
    else:
        shares = PROCESSES
        min_passes = -(-harness.MIN_PASSES // shares)
    arguments = ["--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds / shares),
                 "--min-passes", str(min_passes), "--trace", str(int(trace))]
    arguments += ["--quick"] * quick + ["--no-layers"] * (not with_layers)
    documents = [_child(arguments + ["--share", str(share)])
                 for share in range(shares)]

    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        expected = json.load(handle)[name]["quick" if quick else "full"]
    first = documents[0]
    passes = [harness.PassResult.from_json(fields)
              for document in documents for fields in document["passes"]]
    traced = [harness.PassResult.from_json(fields)
              for fields in first["traced"]]
    problems: List[str] = []
    failed = 0
    if any(d["shape"] != expected["shape"] for d in documents):
        failed += len(passes)
        problems.append("inputs drifted from expected.json (generator "
                        "changed?); answers cannot be checked")
    answers = [("pass", result.answer) for result in passes + traced]
    if first["reference"] is not None:
        answers.append(("reference", first["reference"]))
    for index, (kind, answer) in enumerate(answers):
        if answer != expected["answers"]:
            failed += 1
            problems.append(f"answer {index} ({kind}) differs from "
                            "expected.json")
    for index, result in enumerate(passes + traced):
        failed += result.failed
        problems += [f"pass {index}: {note}" for note in result.notes]
        if result.expired_in_warmup <= 0:
            failed += 1
            problems.append(f"pass {index}: nothing expired during "
                            "warm-up, not steady state")
        if result.space_cells != passes[0].space_cells:
            failed += 1
            problems.append(f"pass {index}: space_cells differs")

    values = harness.end_to_end(passes, first["measured_edges"])
    if trace:
        values["harness.trace_overhead_ratio"] = \
            harness.trace_overhead(traced, passes)
        edges = len(traced) * first["edges"]
        for span, row in sorted(first["spans"].items()):
            values[f"trace.{span}.self_us_per_edge"] = \
                row["self_s"] / edges * 1e6
            values[f"trace.{span}.calls_per_edge"] = row["calls"] / edges
        values.update(first["layers"])
    return {
        "workload": name, "values": values, "failed": failed,
        "attempted": sum(p.attempted + 1 for p in passes),
        "problems": problems,
    }


def _emit(result: dict, trace: bool) -> dict:
    """Print every value by name with its unit, then the contract's JSON
    line (end-to-end metrics untraced, per-layer metrics traced)."""
    name = result["workload"]
    for key, value in result["values"].items():
        declared = END_TO_END.get(key) or PER_LAYER.get(key)
        # Undeclared extras carry their unit in their name.
        unit = declared["unit"] if declared else ""
        print(f"{name:22s} {key:52s} {value:16.6f} {unit}")
    for problem in result["problems"]:
        print(f"{name}: FAILED: {problem}")
    declared = PER_LAYER if trace else END_TO_END
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {key: {"value": result["values"][key], "unit": m["unit"]}
                    for key, m in declared.items()
                    if key in result["values"]}}
    print(json.dumps(line), flush=True)
    return line


# --------------------------------------------------------------------- #
# Everything
# --------------------------------------------------------------------- #

def run_everything(options) -> Dict[str, dict]:
    """Every workload (with ``--trace`` also its traced passes, and the
    layer suite once); name -> the JSON line printed for it."""
    lines = {}
    for name in WORKLOADS:
        lines[name] = _emit(run_workload(
            name, options.seed, options.seconds, False, options.quick),
            False)
        if options.trace:
            lines[name + " traced"] = _emit(run_workload(
                name, options.seed, options.seconds, True, options.quick,
                with_layers=False), True)
    if options.trace:
        values = _child(["--layers-only", "--seed", str(options.seed)]
                        + ["--quick"] * options.quick)
        lines["layers"] = _emit({
            "workload": "layers", "values": values, "failed": 0,
            "attempted": 1, "problems": []}, True)
    return lines


def run_aa(options) -> int:
    """Two full runs of the same code, compared against the bounds."""
    first, second = run_everything(options), run_everything(options)
    if not all(line["correct"] for line in {**first, **second}.values()):
        print("a run failed; nothing to compare")
        return 1
    unresolved = 0
    print(f"{'workload':22s} {'metric':14s} {'run A':>14s} {'run B':>14s} "
          f"{'gap':>8s} {'bound':>6s}")
    for name in WORKLOADS:
        for metric, declared in END_TO_END.items():
            a = first[name]["metrics"][metric]["value"]
            b = second[name]["metrics"][metric]["value"]
            gap = abs(a - b) / min(a, b)
            verdict = "PASS" if gap <= declared["bound"] else "UNRESOLVED"
            unresolved += verdict != "PASS"
            print(f"{name:22s} {metric:14s} {a:14.4f} {b:14.4f} "
                  f"{gap:8.2%} {declared['bound']:6.0%} {verdict}")
    print(f"UNRESOLVED rows: {unresolved}")
    return 1 if unresolved else 0


def rebless() -> int:
    """Recompute ``expected.json`` from one pass per workload and size."""
    expected = {}
    for name, cls in WORKLOADS.items():
        expected[name] = {}
        for size, quick in (("full", False), ("quick", True)):
            workload = cls(inputs.DEFAULT_SEED, quick)
            result = workload.run_pass(harness.Calibrator())
            if result.failed or workload.reference_answer() not in (
                    None, result.answer):
                print(f"{name}/{size}: refusing to bless: {result.notes}")
                return 1
            expected[name][size] = {
                "shape": inputs.shape_digest(workload.inputs),
                "answers": result.answer, "matches": result.matches}
            print(f"{name}/{size}: {result.matches} matches")
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


def _interrupt_once() -> None:
    """SIGINT/SIGTERM raise ``KeyboardInterrupt`` once, so ``with`` blocks
    unwind (server killed, state directory removed); a second signal
    cannot cut that unwinding short."""
    def handler(_signum, _frame):
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        raise KeyboardInterrupt
    signal.signal(signal.SIGINT, handler)
    signal.signal(signal.SIGTERM, handler)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]),
                        help="how long one workload run measures")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer metrics and spans")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: 2 passes, 50 batches, no gating")
    parser.add_argument("--aa", action="store_true",
                        help="run twice and compare against the bounds")
    parser.add_argument("--rebless", action="store_true",
                        help="rewrite expected.json from this code")
    internal = parser.add_argument_group(
        "internal (what this script passes to its child processes)")
    internal.add_argument("--share", type=int, help="run a share of the "
                          "passes and print them as JSON")
    internal.add_argument("--min-passes", type=int, default=1)
    internal.add_argument("--no-layers", action="store_true",
                          help="with --trace 1: skip the layer suite")
    internal.add_argument("--layers-only", action="store_true",
                          help="print the layer suite's values as JSON")
    options = parser.parse_args(argv)
    _interrupt_once()

    if options.share is not None:
        print(json.dumps(run_share(options)))
        return 0
    if options.layers_only:
        print(json.dumps(layers.run_all(options.seed, options.quick)))
        return 0
    if options.rebless:
        return rebless()
    if options.aa:
        return run_aa(options)
    if options.workload is None:
        started = time.monotonic()
        lines = run_everything(options)
        print(f"whole benchmark: {time.monotonic() - started:.1f} s")
        return 0 if all(line["correct"] for line in lines.values()) else 1
    line = _emit(run_workload(options.workload, options.seed,
                              options.seconds, bool(options.trace),
                              options.quick), bool(options.trace))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)
