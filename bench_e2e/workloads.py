"""The five workloads: what each builds, feeds and checks per pass.

Names are permanent (``BENCHMARK.json`` and ``expected.json`` key on
them).  Every workload is a closed loop with one producer: the next
batch is handed over when the previous one returned (for the served
workload: when its durable ack arrived).  Sizes are chosen so one pass
measures 400 batches in one to two seconds on the declared 2-core shape
and set-up (construct, register, warm-up) takes about a third of a
second, which lets a run fit six to ten passes inside the benchmark
driver's time cap; ``quick`` shrinks them for smoke runs.
"""

from __future__ import annotations

import bisect
import json
import os
import tempfile
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro import EngineConfig, Session, TimingMatcher

from . import inputs, serve
from .harness import PassResult

HERE = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(HERE), "src")
RESULTS_DIR = os.path.join(HERE, "results")

# name -> (batch edges, warm-up edges, measured batches)
SIZES = {
    "engine_join": (80, 10000, 400),
    "session_exact16": (128, 24000, 400),
    "session_predicates1k": (48, 4000, 400),
    "session_churn1k": (24, 4000, 400),
    "serve_wal_saturate": (48, 6144, 400),
}
QUICK_BATCHES = 50
SERVE_WARMUP_POST_EDGES = 512
#: In-process warm-up is handed over in this many chunks so the
#: calibration kernel can sample the host's speed during set-up.
WARMUP_CHUNKS = 24


def _sizes(name: str, quick: bool) -> Dict[str, int]:
    batch_edges, warmup, batches = SIZES[name]
    if quick:
        batches = QUICK_BATCHES
    return {"warmup": warmup, "batches": batches,
            "batch_edges": batch_edges}


def _chunks(items: list, count: int) -> List[list]:
    step = -(-len(items) // count)
    return [items[i:i + step] for i in range(0, len(items), step)]


def _session_keys(tagged) -> List[str]:
    return [inputs.match_key(name, ((eid, edge.timestamp) for eid, edge
                                    in match.edge_map.items()))
            for name, match in tagged]


def _record_key(record: dict) -> str:
    return inputs.match_key(record["query"], (
        (eid, edge["timestamp"]) for eid, edge in record["edges"].items()))


class Workload:
    """Inputs made once per run; :meth:`run_pass` as often as asked."""

    name = ""

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.inputs = self.make_inputs(seed, **_sizes(self.name, quick))

    def make_inputs(self, seed: int, **sizes) -> inputs.Inputs:
        raise NotImplementedError

    def run_pass(self, kernel, tracer=None) -> PassResult:
        """One pass; ``kernel`` is the harness's calibration kernel, run
        between the timed calls (never inside one)."""
        raise NotImplementedError

    def reference_answer(self) -> Optional[str]:
        """The answer digest from an independent route through the system
        that every pass must also equal (``None``: the committed digest
        is the only check)."""
        return None


class _InProcess(Workload):
    """A pass that builds the system in this process and times calls."""

    def build(self) -> Tuple[object, Callable[[int, list], list]]:
        """``(system, feed)``: ``feed(b, batch)`` hands one batch over
        and returns its matches (``b`` is -1 during warm-up)."""
        raise NotImplementedError

    def keys_of(self, matches) -> List[str]:
        return _session_keys(matches)

    def expired(self, system, pushed: int) -> int:
        return pushed - system.shared_window_cells()

    def run_pass(self, kernel, tracer=None) -> PassResult:
        result = PassResult()
        data = self.inputs
        clock = time.perf_counter
        serve.reset_vm_hwm()
        parts, samples = result.setup_parts_s, result.setup_kernel_s
        start = clock()
        system, feed = self.build()
        parts.append(clock() - start)
        samples.append(kernel())
        outputs = []
        for chunk in _chunks(data.warmup, WARMUP_CHUNKS):
            start = clock()
            outputs.extend(feed(-1, chunk))
            parts.append(clock() - start)
            samples.append(kernel())
        outputs = [outputs]
        result.expired_in_warmup = self.expired(system, len(data.warmup))
        times, samples = result.batch_s, result.batch_kernel_s
        for b, batch in enumerate(data.batches):
            if tracer is not None:
                tracer.batch = b
            start = clock()
            out = feed(b, batch)
            times.append(clock() - start)
            samples.append(kernel())
            outputs.append(out)
        result.space_cells = system.space_cells()
        result.peak_rss_mb = serve.read_vm_hwm_mb("self")
        result.attempted = len(data.warmup) + data.measured_edges \
            + len(data.batches)
        keys = [key for out in outputs for key in self.keys_of(out)]
        result.answer = inputs.answer_digest(keys)
        result.matches = len(keys)
        result.match_counts = [len(out) for out in outputs[1:]]
        return result


class EngineJoin(_InProcess):
    name = "engine_join"
    make_inputs = staticmethod(inputs.engine_join)

    def build(self):
        engine = TimingMatcher.from_config(
            self.inputs.queries["join"], self.inputs.window,
            config=EngineConfig())
        push = engine.push

        def feed(_b, batch):
            out = []
            for edge in batch:
                out.extend(push(edge))
            return out
        return engine, feed

    def keys_of(self, matches):
        return _session_keys(("join", match) for match in matches)

    def expired(self, system, pushed):
        return system.stats.expired_edges


class SessionExact16(_InProcess):
    name = "session_exact16"
    make_inputs = staticmethod(inputs.session_exact16)

    def build(self):
        session = Session(window=self.inputs.window, config=EngineConfig())
        for name, query in self.inputs.queries.items():
            session.register(name, query)
        return session, lambda _b, batch: session.push_many(batch)


class SessionPredicates1k(SessionExact16):
    name = "session_predicates1k"
    make_inputs = staticmethod(inputs.session_predicates1k)


class SessionChurn1k(SessionPredicates1k):
    name = "session_churn1k"

    def build(self):
        session, _ = super().build()
        queries = self.inputs.queries

        def feed(b, batch):
            if b >= 0:
                for name in inputs.churn_names(b):
                    session.deregister(name)
                    session.register(name, queries[name])
            return session.push_many(batch)
        return session, feed


class ServeWalSaturate(Workload):
    """``python -m repro serve`` with a WAL, fed over loopback HTTP."""

    name = "serve_wal_saturate"
    make_inputs = staticmethod(inputs.session_exact16)

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        data = self.inputs
        self.texts = inputs.query_texts(data.queries)
        path = f"/tenants/{serve.TENANT}/ingest"
        step = SERVE_WARMUP_POST_EDGES
        self.warm_posts = self._posts(path, [
            data.warmup[i:i + step]
            for i in range(0, len(data.warmup), step)])
        self.posts = self._posts(path, data.batches)
        #: First timestamp of each measured batch: a match's last edge
        #: (``matched_at``) falls in the last batch starting at or
        #: before it.
        self.batch_starts = [batch[0].timestamp for batch in data.batches]

    @staticmethod
    def _posts(path: str, batches) -> List[Tuple[bytes, bytes, int]]:
        posts = []
        for batch in batches:
            body = inputs.post_body(batch)
            posts.append((serve.post_head(path, body), body, len(batch)))
        return posts

    def reference_answer(self) -> str:
        session = Session(window=self.inputs.window, config=EngineConfig(
            duplicate_policy="skip"))
        for name, query in self.inputs.queries.items():
            session.register(name, query)
        tagged = session.push_many(self.inputs.warmup)
        for batch in self.inputs.batches:
            tagged.extend(session.push_many(batch))
        return inputs.answer_digest(_session_keys(tagged))

    def _post(self, result: PassResult, port: int, post) -> None:
        head, body, edges = post
        status, ack = serve.post(port, head, body)
        result.attempted += 1 + edges
        if status != 200:
            result.fail(f"POST -> {status} {ack}", edges)
        elif ack.get("accepted") != edges or ack.get("invalid") \
                or not ack.get("durable"):
            result.fail(f"bad ack {ack}", edges)

    def run_pass(self, kernel, tracer=None) -> PassResult:
        result = PassResult()
        data = self.inputs
        clock = time.perf_counter
        os.makedirs(RESULTS_DIR, exist_ok=True)
        root = tempfile.mkdtemp(prefix="serve-", dir=RESULTS_DIR)
        parts, samples = result.setup_parts_s, result.setup_kernel_s
        start = clock()
        host = serve.InProcessServer(root, self.texts, data.window) \
            if tracer is not None else \
            serve.Server(root, self.texts, data.window, SRC_DIR)
        with host:
            host.wait_ready()
            port = host.port
            subscriber = serve.Subscriber(port)
            try:
                parts.append(clock() - start)
                samples.append(kernel())
                for post in self.warm_posts:
                    start = clock()
                    self._post(result, port, post)
                    parts.append(clock() - start)
                    samples.append(kernel())
                sent = len(data.warmup)
                start = clock()
                drained = serve.wait_drained(port, sent)
                parts.append(clock() - start)
                samples.append(kernel())
                if drained is None:
                    result.fail("warm-up never drained", sent)
                result.expired_in_warmup = sent - int(serve.session_metrics(
                    port)["shared_window_cells"])
                sends = []
                for b, post in enumerate(self.posts):
                    if tracer is not None:
                        tracer.batch = b
                    start = clock()
                    self._post(result, port, post)
                    result.batch_s.append(clock() - start)
                    result.batch_kernel_s.append(kernel())
                    sends.append(start)
                sent += data.measured_edges
                start = clock()
                stats = serve.wait_drained(port, sent)
                delivered = stats["matches_delivered"] if stats else 0
                complete = subscriber.wait_for(delivered)
                result.drain_s = clock() - start
                if stats is None:
                    result.fail("stream never drained", sent)
                else:
                    rejected = stats["rejected_nonmonotonic"] \
                        + stats["rejected_duplicate"] \
                        + stats["worker_errors"]
                    if rejected:
                        result.fail(f"{rejected} edges rejected", rejected)
                if not complete:
                    result.fail("subscriber missed records",
                                delivered - len(subscriber.records))
                gauges = serve.session_metrics(port)
                result.space_cells = int(gauges["subplan_store_cells"]
                                         + gauges["window_cells"])
                result.peak_rss_mb = host.peak_rss_mb()
            finally:
                subscriber.close()
            host.stop()
            logged = sorted(_record_key(record) for record
                            in serve.read_match_log(host.state_dir))
        result.match_latency_s = {}
        keys = []
        for arrived, payload in subscriber.records:
            record = json.loads(payload)
            key = _record_key(record)
            keys.append(key)
            b = bisect.bisect_right(self.batch_starts,
                                    record["matched_at"]) - 1
            if b >= 0:
                result.match_latency_s[key] = (b, arrived - sends[b])
        if sorted(keys) != logged:
            result.fail("match log and WebSocket stream disagree")
        result.answer = inputs.answer_digest(keys)
        result.matches = len(keys)
        return result


WORKLOADS = {cls.name: cls for cls in (
    EngineJoin, SessionExact16, SessionPredicates1k, SessionChurn1k,
    ServeWalSaturate)}
