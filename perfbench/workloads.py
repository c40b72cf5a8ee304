"""The three workloads.  Each returns a :class:`Result`.

* ``paper_methods`` — the paper's experiment in-process: the six methods
  built through one ``BuildContext`` answer a frozen query set, one
  query at a time and as one batch.
* ``http_mixed`` — ``repro serve`` in its own process, warm-started from
  a snapshot, driven over one keep-alive HTTP/1.1 connection with /v1
  reads, batch reads and writes.
* ``sharded_mixed`` — an in-process 4-shard ``ShardedDatabase`` driven by
  the same kind of read/write stream.

All three are closed loops with one client thread.  The measured phase
runs whole rounds of operations until ``seconds`` have passed.  With
``trace`` the run measures half the time untraced, then rebuilds the
system with the tracer's shims in place and measures the other half
traced; per-layer numbers come from that run, end-to-end numbers only
from untraced runs.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import random
import re
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from inputs import Mix, OpStream, load_network, paper_query_set, read_pool
from tracing import Tracer, patch_program

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench-work"
TRACE_DIR = ROOT / ".perfbench-traces"

METHODS = (
    "spareach-bfl", "spareach-int", "georeach", "socreach", "3dreach",
    "3dreach-rev",
)
KERNELS = ("slab", "points", "bfl", "labels", "segments")
LAYERS = ("bench", "http", "serve", "shard", "system", "exec", "core",
          "kernels")
SETUP_REPEATS = 5

PAPER_SCALE = 0.02
#: The paper_methods query set is frozen; ``--seed`` only sets the order
#: of its single reads.
PAPER_QUERY_SEED = 11
PAPER_PER_CLASS = 10
PAPER_NEGATIVE_SLOTS = 3
PAPER_BATCH_EVERY = 4
PAPER_READS_PER_BATCH = 30

MIXED_SCALE = 0.005
#: The mixed workloads' reads come from one frozen pool, their batches
#: and writes from one frozen plan; ``--seed`` sets the order of the
#: single reads.  (On sharded_mixed the read after a write costs 0.03 to
#: 0.8 s depending on the edge written, and a batch 0.3 to 0.8 s: seeded
#: writes and batches spread its figures by 15 % or more.)
MIXED_READ_SEED = 13
MIXED_FROZEN_SEED = 17
MIXED_READS_PER_CLASS = 20
SHARDS = 4
#: 25 ops: 17 single reads, 3 batches, 3 additions (F: follow, C:
#: check-in) and 2 removals (f, c); each removal is followed by a single
#: read, which waits for the rebuild the removal forces.
HTTP_MIX = Mix(pattern="SSFSBSSfSSSCSBSScSSSFSBSS", batch_size=16)
#: 56 ops: 50 single reads, 2 batches, one addition and one removal of
#: each edge kind.  The read after a sharded write costs 0.03-0.8 s and
#: a batch ~0.5 s, so writes and batches are kept sparse to leave room
#: for enough reads in a run.
SHARDED_MIX = Mix(pattern="SSSSSFSSSSSSSBSSSSSSSfSSSSSS"
                          "SSSSSCSSSSSSSBSSSSSSScSSSSSS", batch_size=16)


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)

    def put(self, name: str, value: float) -> None:
        self.metrics[name] = value


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------
def percentile(values, q: int) -> float:
    """The q-th percentile (linear interpolation between ranks)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def rect(region):
    from repro.geometry import Rect

    return Rect(*region)


def registry_counters() -> dict:
    from repro.obs import REGISTRY

    return REGISTRY.snapshot()["counters"]


def kernel_calls(counters: dict) -> dict:
    """Kernel invocations by kind from registry counter samples."""
    calls = dict.fromkeys(KERNELS, 0.0)
    for key, value in counters.items():
        match = re.match(r'repro_kernel_invocations_total\{(.*)\}', key)
        if match:
            kind = re.search(r'kernel="([^"]+)"', match.group(1)).group(1)
            calls[kind] = calls.get(kind, 0.0) + value
    return calls


def put_kernel_metrics(result: Result, before: dict, after: dict,
                       queries: int) -> None:
    b, a = kernel_calls(before), kernel_calls(after)
    for kind in KERNELS:
        result.put(f"kernels.{kind}.calls_per_query",
                   (a[kind] - b[kind]) / max(1, queries))


def put_overlay_share(result: Result, before: dict, after: dict) -> None:
    """Share of database reads answered through the delta overlay."""
    overlay = (after.get("repro_db_overlay_queries_total", 0.0)
               - before.get("repro_db_overlay_queries_total", 0.0))
    plain = (after.get("repro_db_snapshot_queries_total", 0.0)
             - before.get("repro_db_snapshot_queries_total", 0.0))
    result.put("db.overlay_query_share", overlay / max(1.0, overlay + plain))


def put_self_times(result: Result, tracer: Tracer | None, ops: int) -> None:
    for layer in LAYERS:
        seconds = tracer.self_seconds.get(layer, 0.0) if tracer else 0.0
        result.put(f"{layer}.self_us_per_op", seconds / max(1, ops) * 1e6)


def fill_missing(result: Result, names) -> None:
    """Per-layer metrics of layers this workload never enters read 0."""
    for name in names:
        result.metrics.setdefault(name, 0.0)


def median_setup(build):
    """Run ``build`` :data:`SETUP_REPEATS` times, keeping only the last
    product alive; returns ``(median seconds, last product)``."""
    seconds, product = [], None
    for _ in range(SETUP_REPEATS):
        if product is not None:
            release = getattr(product, "close", None)
            if release is not None:
                release()
        product = None
        gc.collect()
        started = time.perf_counter()
        product = build()
        seconds.append(time.perf_counter() - started)
    return statistics.median(seconds), product


# ----------------------------------------------------------------------
# paper_methods
# ----------------------------------------------------------------------
class _MethodSuite:
    def __init__(self, network, first_query) -> None:
        from repro.core import build_methods
        from repro.pipeline import BuildContext

        self.context = BuildContext(network)
        self.methods = build_methods(METHODS, context=self.context)
        for method in self.methods.values():
            method.query(*first_query)


def run_paper_methods(seed: int, seconds: float, trace: bool,
                      scale: float = PAPER_SCALE,
                      per_class: int = PAPER_PER_CLASS) -> Result:
    copy = load_network(scale)
    raw, truths = paper_query_set(
        copy, copy.mirror(), random.Random(PAPER_QUERY_SEED), per_class,
        min(PAPER_NEGATIVE_SLOTS, per_class),
    )
    frozen = [(v, rect(region)) for v, region in raw]
    # The batch is a fixed quarter of the set; the seed orders the reads.
    batch_pairs = frozen[::PAPER_BATCH_EVERY]
    batch_truths = truths[::PAPER_BATCH_EVERY]
    order = list(range(len(raw)))
    random.Random(seed).shuffle(order)
    queries = [frozen[i] for i in order]
    truths = [truths[i] for i in order]
    network = copy.network
    result = Result()

    setup_s, suite = median_setup(lambda: _MethodSuite(network, queries[0]))
    result.put("setup_s", setup_s)
    result.put("index_mb", sum(
        m.size_bytes() for m in suite.methods.values()) / 1e6)

    def measure(suite, budget, tracer=None):
        methods = list(suite.methods.items())
        per_method = {name: [] for name in METHODS}
        reads, batch_rates = [], []

        def batch_read():
            if tracer:
                tracer.begin("bench", "batch")
            wrong, batch_seconds = False, 0.0
            for name, method in methods:
                t0 = time.perf_counter()
                answers = method.query_batch(batch_pairs)
                batch_seconds += time.perf_counter() - t0
                wrong |= answers != batch_truths
            if tracer:
                tracer.end()
            batch_rates.append(len(methods) * len(batch_pairs) / batch_seconds)
            result.attempted += 1
            result.failed += wrong

        started = time.perf_counter()
        while time.perf_counter() - started < budget:
            for i, ((v, region), truth) in enumerate(zip(queries, truths)):
                if tracer:
                    tracer.begin("bench", "read")
                total, wrong = 0.0, False
                for name, method in methods:
                    t0 = time.perf_counter()
                    answer = method.query(v, region)
                    dt = time.perf_counter() - t0
                    total += dt
                    per_method[name].append((dt, truth))
                    wrong |= answer != truth
                if tracer:
                    tracer.end()
                reads.append(total)
                result.attempted += 1
                result.failed += wrong
                if (i + 1) % min(PAPER_READS_PER_BATCH, len(queries)) == 0:
                    batch_read()
        elapsed = time.perf_counter() - started
        batch_queries = len(batch_rates) * len(methods) * len(batch_pairs)
        return dict(reads=reads, per_method=per_method, elapsed=elapsed,
                    ops=len(reads) + len(batch_rates),
                    batch_qps=statistics.median(batch_rates),
                    queries=len(reads) * len(methods) + batch_queries)

    if not trace:
        m = measure(suite, seconds)
        result.put("peak_rss_mb", own_peak_rss_mb())
        result.put("ops_per_s", m["ops"] / m["elapsed"])
        result.put("read_p50_ms", percentile(m["reads"], 50) * 1e3)
        result.put("read_p95_ms", percentile(m["reads"], 95) * 1e3)
        result.put("batch_qps", m["batch_qps"])
        return result

    before = registry_counters()
    m = measure(suite, seconds / 2)
    put_kernel_metrics(result, before, registry_counters(), m["queries"])
    for name, samples in m["per_method"].items():
        pos = [dt for dt, truth in samples if truth]
        neg = [dt for dt, truth in samples if not truth]
        result.put(f"{name}.query_us",
                   statistics.fmean(dt for dt, _ in samples) * 1e6)
        result.put(f"{name}.pos_query_us", statistics.fmean(pos) * 1e6)
        result.put(f"{name}.neg_query_us", statistics.fmean(neg) * 1e6)
        result.put(f"{name}.index_mb",
                   suite.methods[name].size_bytes() / 1e6)
    suite = None
    gc.collect()
    _paper_build_layers(result, network)

    tracer = Tracer()
    patch_program(tracer)
    try:
        suite = _MethodSuite(network, queries[0])
        tracer.active = True
        t = measure(suite, seconds / 2, tracer)
        tracer.active = False
    finally:
        tracer.restore()
    put_self_times(result, tracer, t["ops"])
    result.put("trace.overhead_pct",
               (m["ops"] / m["elapsed"]) / (t["ops"] / t["elapsed"]) * 100
               - 100)
    tracer.write(TRACE_DIR / f"paper_methods-seed{seed}.jsonl")
    return result


def _paper_build_layers(result: Result, network) -> None:
    """Pipeline stage times and each method's own (unshared) build time."""
    from repro.core import build_methods
    from repro.pipeline import BuildContext

    context = BuildContext(network)
    for name, stage in (("condense_s", context.condensed),
                        ("labeling_s", context.labeling),
                        ("reversed_labeling_s", context.reversed_labeling)):
        t0 = time.perf_counter()
        stage()
        result.put(f"pipeline.{name}", time.perf_counter() - t0)
    build_methods(METHODS, context=context)
    result.put("pipeline.rtree_s", context.stats()["build_seconds"]["rtree"])
    del context
    for name in METHODS:
        gc.collect()
        t0 = time.perf_counter()
        build_methods([name], network)
        result.put(f"{name}.build_s", time.perf_counter() - t0)


# ----------------------------------------------------------------------
# Shared by the two mixed workloads
# ----------------------------------------------------------------------
@dataclass
class MixedLog:
    """What one measured phase sent, got back and how long it took."""

    ops: list = field(default_factory=list)
    answers: list = field(default_factory=list)
    reads: list = field(default_factory=list)
    writes: list = field(default_factory=list)
    batch_rates: list = field(default_factory=list)
    batch_queries: int = 0
    elapsed: float = 0.0

    @property
    def queries(self) -> int:
        return len(self.reads) + self.batch_queries


def run_mixed_phase(stream: OpStream, budget: float, execute,
                    tracer: Tracer | None = None) -> MixedLog:
    """Closed loop over whole rounds of ``stream``.

    ``execute(op)`` performs one op and returns its answer (a bool for a
    read, a list for a batch, ``None`` for a write), or raises
    :class:`OpFailed`.
    """
    log = MixedLog()
    started = time.perf_counter()
    while time.perf_counter() - started < budget:
        for op in stream.round():
            if tracer:
                tracer.begin("bench", op[0])
            t0 = time.perf_counter()
            try:
                answer = execute(op)
            except OpFailed:
                answer = OpFailed
            dt = time.perf_counter() - t0
            if tracer:
                tracer.end()
            log.ops.append(op)
            log.answers.append(answer)
            if op[0] == "read":
                log.reads.append(dt)
            elif op[0] == "batch":
                log.batch_rates.append(len(op[1]) / dt)
                log.batch_queries += len(op[1])
            else:
                log.writes.append(dt)
    log.elapsed = time.perf_counter() - started
    return log


class OpFailed(Exception):
    """An operation the program refused or answered with an error."""


def check_log(copy, log: MixedLog) -> int:
    """Replay the phase on a fresh mirror; return the failed-op count.

    A write the program refused is not applied to the mirror either, so
    the mirror keeps following the program's state.
    """
    mirror = copy.mirror()
    failed = 0
    for op, answer in zip(log.ops, log.answers):
        kind = op[0]
        if answer is OpFailed:
            failed += 1
        elif kind == "read":
            failed += answer != mirror.reaches(op[1], op[2])
        elif kind == "batch":
            truth = [mirror.reaches(v, region) for v, region in op[1]]
            failed += answer != truth
        elif kind.startswith("add_"):
            mirror.add_edge(op[1], op[2])
        else:
            mirror.remove_edge(op[1], op[2])
    return failed


def put_mixed_e2e(result: Result, log: MixedLog) -> None:
    result.put("ops_per_s", len(log.ops) / log.elapsed)
    result.put("read_p50_ms", percentile(log.reads, 50) * 1e3)
    result.put("read_p95_ms", percentile(log.reads, 95) * 1e3)
    result.put("batch_qps", statistics.median(log.batch_rates))


def put_writes(result: Result, log: MixedLog) -> None:
    result.put("write_p50_ms", percentile(log.writes, 50) * 1e3)
    result.put("write_p95_ms", percentile(log.writes, 95) * 1e3)


def tally(result: Result, copy, log: MixedLog) -> None:
    result.attempted += len(log.ops)
    result.failed += check_log(copy, log)


# ----------------------------------------------------------------------
# http_mixed
# ----------------------------------------------------------------------
class Server:
    """``repro serve`` in a child process, warm-started from a snapshot
    copy, plus one keep-alive client connection."""

    def __init__(self, snapshot: Path, workdir: Path, name: str,
                 access_log: Path | None = None) -> None:
        own = workdir / name
        shutil.copytree(snapshot, own / "snapshot")
        argv = [sys.executable, "-m", "repro", "serve",
                "--snapshot-dir", str(own / "snapshot"), "--port", "0"]
        if access_log is not None:
            argv += ["--access-log", str(access_log)]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self._stderr = open(own / "stderr.txt", "w", encoding="utf-8")
        self.process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self._stderr, env=env,
            text=True, cwd=str(ROOT),
        )
        self.connection = None
        try:
            ready, _, _ = select.select([self.process.stdout], [], [], 120)
            line = self.process.stdout.readline() if ready else ""
            match = re.search(r"serving on http://[^:]+:(\d+)", line)
            if not match:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            self.connection = http.client.HTTPConnection(
                "127.0.0.1", int(match.group(1)), timeout=120
            )
        except BaseException:
            self.close()
            raise

    def call(self, method: str, path: str, body=None):
        """One request on the keep-alive connection:
        ``(status, decoded body, request id)``."""
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if body else {}
        self.connection.request(method, path, payload, headers)
        response = self.connection.getresponse()
        data = response.read()
        if response.getheader("Content-Type", "").startswith("application/json"):
            data = json.loads(data)
        return response.status, data, response.getheader("X-Request-Id")

    def v1(self, body: dict):
        status, data, request_id = self.call("POST", "/v1", body)
        if status != 200:
            raise OpFailed(f"{status}: {data}")
        return data, request_id

    def metrics(self) -> dict:
        """Counter samples of ``/metrics`` as ``{sample key: value}``."""
        _, text, _ = self.call("GET", "/metrics")
        if isinstance(text, bytes):
            text = text.decode()
        samples = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                key, _, value = line.rpartition(" ")
                samples[key] = float(value)
        return samples

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._stderr.close()


def _v1_body(op: tuple) -> dict:
    kind = op[0]
    if kind == "read":
        return {"op": "query", "vertex": op[1], "region": list(op[2])}
    if kind == "batch":
        return {"op": "batch",
                "queries": [[v, list(region)] for v, region in op[1]]}
    a, b = ("user", "venue") if kind.endswith("checkin") else (
        "follower", "followee")
    return {"op": "write", "method": kind, a: op[1], b: op[2]}


def _first_answer(server: Server) -> None:
    server.v1({"op": "query", "vertex": 0, "region": [0, 0, 1, 1]})


def run_http_mixed(seed: int, seconds: float, trace: bool,
                   scale: float = MIXED_SCALE) -> Result:
    from repro.obs import REGISTRY
    from repro.system import GeosocialDatabase

    copy = load_network(scale)
    pool = read_pool(copy, MIXED_READS_PER_CLASS, MIXED_READ_SEED)
    result = Result()
    workdir = WORK_DIR / f"http_mixed-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    servers: list[Server] = []
    try:
        snapshot = workdir / "snapshot"
        saved = REGISTRY.snapshot()["histograms"]
        database = GeosocialDatabase.from_network(
            copy.network, snapshot_dir=str(snapshot))
        database.refresh()
        result.put("index_mb", database.size_bytes() / 1e6)
        if trace:
            after = REGISTRY.snapshot()["histograms"]
            key = "repro_store_save_seconds"
            result.put("store.save_s", after[key]["sum"] - saved[key]["sum"])
            result.put("store.snapshot_mb", sum(
                f.stat().st_size for f in snapshot.rglob("*") if f.is_file()
            ) / 1e6)
            timings = []
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                database.refresh()
                timings.append(time.perf_counter() - t0)
            result.put("db.rebuild_ms", statistics.median(timings) * 1e3)
        del database
        gc.collect()

        starts = iter(range(100))

        def start(access_log=None) -> Server:
            server = Server(snapshot, workdir, f"server{next(starts)}",
                            access_log)
            servers.append(server)
            _first_answer(server)
            return server

        setup_s, server = median_setup(start)
        result.put("setup_s", setup_s)

        def phase(server, phase_seed, budget, tracer=None):
            stream = OpStream(copy, HTTP_MIX, random.Random(phase_seed),
                              pool, MIXED_FROZEN_SEED)
            requests = []

            def execute(op):
                if tracer is None:
                    data, _ = server.v1(_v1_body(op))
                else:
                    span = tracer.begin("http", "POST /v1")
                    try:
                        data, request_id = server.v1(_v1_body(op))
                    finally:
                        client = tracer.end()
                    started = time.perf_counter() - client
                    requests.append((request_id, span, started, client))
                if op[0] == "read":
                    return data["answer"]
                if op[0] == "batch":
                    return data["answers"]
                return None

            log = run_mixed_phase(stream, budget, execute, tracer)
            return log, requests

        if not trace:
            log, _ = phase(server, seed, seconds)
            result.put("peak_rss_mb", process_peak_rss_mb(server.process.pid))
            tally(result, copy, log)
            put_mixed_e2e(result, log)
            return result

        _, stats_before, _ = server.call("GET", "/stats")
        counters_before = server.metrics()
        log, _ = phase(server, seed, seconds / 2)
        _, stats_after, _ = server.call("GET", "/stats")
        counters_after = server.metrics()
        server.close()
        tally(result, copy, log)
        put_writes(result, log)
        _put_http_counters(result, stats_before, stats_after,
                           counters_before, counters_after, log.queries)

        access_log = workdir / "access.jsonl"
        traced = start(access_log)
        tracer = Tracer()
        tracer.active = True
        t_log, requests = phase(traced, seed + 1, seconds / 2, tracer)
        tracer.active = False
        traced.close()
        tally(result, copy, t_log)
        _put_stage_metrics(result, access_log, tracer, requests)
        put_self_times(result, tracer, len(t_log.ops))
        result.put("trace.overhead_pct",
                   (len(log.ops) / log.elapsed)
                   / (len(t_log.ops) / t_log.elapsed) * 100 - 100)
        tracer.write(TRACE_DIR / f"http_mixed-seed{seed}.jsonl")
        return result
    finally:
        for server in servers:
            server.close()
        shutil.rmtree(workdir, ignore_errors=True)


def _put_http_counters(result, stats_before, stats_after, before, after,
                       queries) -> None:
    db_before, db_after = stats_before["database"], stats_after["database"]
    for name in ("rebuilds", "removal_refreshes", "threshold_refreshes"):
        result.put(f"db.{name}", db_after[name] - db_before[name])

    def delta(key):
        return after.get(key, 0.0) - before.get(key, 0.0)

    put_overlay_share(result, before, after)
    put_kernel_metrics(result, before, after, queries)
    load = "repro_store_load_seconds_sum"
    result.put("store.load_s", after[load] / max(1.0, after.get(
        "repro_store_loads_total", 1.0)))
    batches = delta("repro_exec_batches_total")
    chunks = sum(v for k, v in after.items()
                 if k.startswith("repro_exec_chunks_total")) - sum(
        v for k, v in before.items()
        if k.startswith("repro_exec_chunks_total"))
    result.put("exec.chunks_per_batch", chunks / max(1.0, batches))
    result.put("exec.sequential_fallbacks",
               delta("repro_exec_sequential_fallbacks_total"))


#: Access-log stage name -> per-layer metric.
STAGES = (("parse", "serve.parse_ms"), ("queue.wait", "serve.queue_wait_ms"),
          ("exec", "serve.exec_ms"), ("encode", "serve.encode_ms"))


def _put_stage_metrics(result, access_log: Path, tracer: Tracer,
                       requests) -> None:
    """Join client timings with the server's access log by request id.

    The ``serve.*`` and ``http.outside_server_ms`` figures are medians
    per request (a typical request, not one that waits for a rebuild);
    the self times the tracer accumulates stay totals.
    """
    records = {}
    with open(access_log, encoding="utf-8") as lines:
        for line in lines:
            record = json.loads(line)
            records[record["trace_id"]] = record
    stages = {stage: [] for stage, _ in STAGES}
    server, outside = [], []
    for request_id, span, started, client in requests:
        record = records.get(request_id)
        if record is None:
            raise RuntimeError(f"request {request_id} is not in the access log")
        # Placed at the client span's start: the two clocks differ.
        tracer.attach(span, "http", "serve", "server", started,
                      record["duration_s"])
        for stage, samples in stages.items():
            samples.append(record["stages_s"].get(stage, 0.0))
        server.append(record["duration_s"])
        outside.append(client - record["duration_s"])
    for stage, name in STAGES:
        result.put(name, statistics.median(stages[stage]) * 1e3)
    result.put("serve.server_ms", statistics.median(server) * 1e3)
    result.put("http.outside_server_ms", statistics.median(outside) * 1e3)


# ----------------------------------------------------------------------
# sharded_mixed
# ----------------------------------------------------------------------
def _sharded(network, first_query):
    from repro.shard import ShardedDatabase

    database = ShardedDatabase.from_network(network, shards=SHARDS)
    database.refresh()
    database.range_reach(*first_query)
    return database


def _execute_in_process(database):
    def execute(op):
        kind = op[0]
        try:
            if kind == "read":
                return database.range_reach(op[1], rect(op[2]))
            if kind == "batch":
                return database.range_reach_many(
                    [(v, rect(region)) for v, region in op[1]])
            getattr(database, kind)(op[1], op[2])
        except (IndexError, ValueError) as exc:
            raise OpFailed(str(exc)) from None
        return None

    return execute


def run_sharded_mixed(seed: int, seconds: float, trace: bool,
                      scale: float = MIXED_SCALE) -> Result:
    copy = load_network(scale)
    pool = read_pool(copy, MIXED_READS_PER_CLASS, MIXED_READ_SEED)
    network = copy.network
    result = Result()
    first = (copy.users[0], rect((0.0, 0.0, 1.0, 1.0)))
    setup_s, database = median_setup(lambda: _sharded(network, first))
    result.put("setup_s", setup_s)
    result.put("index_mb", database.size_bytes() / 1e6)

    def phase(database, phase_seed, budget, tracer=None):
        stream = OpStream(copy, SHARDED_MIX, random.Random(phase_seed),
                          pool, MIXED_FROZEN_SEED)
        return run_mixed_phase(
            stream, budget, _execute_in_process(database), tracer)

    if not trace:
        log = phase(database, seed, seconds)
        result.put("peak_rss_mb", own_peak_rss_mb())
        tally(result, copy, log)
        put_mixed_e2e(result, log)
        return result

    from repro.shard import partition_network

    stats_before, counters_before = database.stats(), registry_counters()
    log = phase(database, seed, seconds / 2)
    stats_after, counters_after = database.stats(), registry_counters()
    tally(result, copy, log)
    put_writes(result, log)
    put_kernel_metrics(result, counters_before, counters_after, log.queries)
    _put_shard_counters(result, stats_before, stats_after, log.queries)
    put_overlay_share(result, counters_before, counters_after)
    t0 = time.perf_counter()
    partition_network(network, SHARDS)
    result.put("shard.partition_s", time.perf_counter() - t0)
    database = None
    gc.collect()

    tracer = Tracer()
    patch_program(tracer)
    try:
        database = _sharded(network, first)
        tracer.active = True
        t_log = phase(database, seed + 1, seconds / 2, tracer)
        tracer.active = False
    finally:
        tracer.restore()
    tally(result, copy, t_log)
    put_self_times(result, tracer, len(t_log.ops))
    result.put("trace.overhead_pct",
               (len(log.ops) / log.elapsed)
               / (len(t_log.ops) / t_log.elapsed) * 100 - 100)
    tracer.write(TRACE_DIR / f"sharded_mixed-seed{seed}.jsonl")
    return result


def _put_shard_counters(result, before, after, queries) -> None:
    for name in ("rebuilds", "removal_refreshes", "threshold_refreshes"):
        result.put(f"db.{name}", after[name] - before[name])
    result.put("shard.rebuilds", after["rebuilds"] - before["rebuilds"])
    b, a = before["scatter"], after["scatter"]

    def delta(key):
        return a[key] - b[key]

    checks = max(1, delta("region_checks"))
    result.put("shard.boundary_probes_per_query",
               delta("boundary_probes") / max(1, queries))
    result.put("shard.subqueries_per_query",
               delta("subqueries") / max(1, queries))
    result.put("shard.region_pruned_share", delta("region_pruned") / checks)
    result.put("shard.source_pruned_share", delta("source_pruned") / checks)


WORKLOADS = {
    "paper_methods": run_paper_methods,
    "http_mixed": run_http_mixed,
    "sharded_mixed": run_sharded_mixed,
}
