"""Spans and counts at continuum's layer boundaries, recorded from outside the program.

`Tracer.install()` replaces the public functions and methods of `bus`, `tcp`,
`wire`, `nn`, `data`, `pipeline`, `training`, `federated`, `configs` and `cli`
with wrappers, in every continuum module that holds a reference to them. The
program's own files are untouched. Two kinds of wrapper exist:

- a span wrapper records name, start, end, parent span and a group id (the
  round, epoch or item current when the span closed), and adds the call to
  that name's call count, busy time and self time (busy time minus the time
  covered by its child spans on the same thread);
- a counter wrapper only counts calls. It is used where a span would cost far
  more than the work measured: `topic_matches` (millions of calls on
  fl-fanout), `SimClock.step` and handler deliveries.

Spans are kept in memory, up to SPAN_CAP of them, and written out when the run
ends. Counts named in EXACT_COUNTERS must repeat exactly between runs of one
commit on one seed; the benchmark checks that they do.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from pathlib import Path

SPAN_CAP = 300_000

# Counts that are a pure function of the config and the commit.
EXACT_COUNTERS = (
    "bus.topic_matches.calls",
    "bus.deliveries",
    "bus.retained_envelopes",
    "tcp.frame_bytes",
    "wire.pack.bytes",
    "wire.encode_f64.bytes",
)

# (module, attribute or Class.method, span name). All configs.parse_* share one name.
SPANS = (
    ("bus", "SimBroker.publish", "bus.publish"),
    ("bus", "SimBroker.run_until_idle", "bus.run_until_idle"),
    ("bus", "SimBroker.drive", "bus.drive"),
    ("tcp", "TcpBrokerServer.__init__", "tcp.server_start"),
    ("tcp", "TcpBus.publish", "tcp.publish"),
    ("tcp", "TcpBus.drive", "tcp.drive"),
    ("tcp", "TcpBus.close", "tcp.close"),
    ("wire", "pack", "wire.pack"),
    ("wire", "unpack", "wire.unpack"),
    ("wire", "encode_f64", "wire.encode_f64"),
    ("wire", "decode_f64", "wire.decode_f64"),
    ("wire", "encode_i64", "wire.encode_i64"),
    ("wire", "decode_i64", "wire.decode_i64"),
    ("nn", "init_model", "nn.init_model"),
    ("nn", "forward", "nn.forward"),
    ("nn", "loss", "nn.loss"),
    ("nn", "gradient", "nn.gradient"),
    ("nn", "sgd_step", "nn.sgd_step"),
    ("nn", "evaluate", "nn.evaluate"),
    ("nn", "serialize_params", "nn.serialize_params"),
    ("nn", "deserialize_params", "nn.deserialize_params"),
    ("nn", "serialize_gradients", "nn.serialize_gradients"),
    ("nn", "deserialize_gradients", "nn.deserialize_gradients"),
    ("data", "synth_blobs", "data.synth_blobs"),
    ("data", "load_csv", "data.load_csv"),
    ("data", "partition", "data.partition"),
    ("data", "next_round_batch", "data.next_round_batch"),
    ("pipeline", "build_pipeline", "pipeline.build_pipeline"),
    ("pipeline", "run_pipeline", "pipeline.run_pipeline"),
    ("pipeline", "pipeline_stats", "pipeline.pipeline_stats"),
    ("training", "worker_epoch", "training.worker_epoch"),
    ("training", "aggregate_and_step", "training.aggregate_and_step"),
    ("training", "submit_job", "training.submit_job"),
    ("training", "run_training", "training.run_training"),
    ("federated", "fedavg", "federated.fedavg"),
    ("federated", "client_local_train", "federated.client_local_train"),
    ("federated", "split_train_test", "federated.split_train_test"),
    ("federated", "run_sync", "federated.run_sync"),
    ("federated", "run_async", "federated.run_async"),
    ("federated", "fl_metrics", "federated.fl_metrics"),
    ("configs", "parse_sdp", "configs.parse"),
    ("configs", "parse_dist_train", "configs.parse"),
    ("configs", "parse_fl", "configs.parse"),
    ("configs", "DatasetConfig.build", "configs.dataset_build"),
    ("cli", "_csv", "cli.csv"),
    ("cli", "_write_outputs", "cli.write"),
)

# Amounts added up at span boundaries; reported as 0 on workloads that never reach them.
AMOUNTS = (
    "tcp.frame_bytes",
    "wire.pack.bytes",
    "wire.encode_f64.bytes",
    "nn.evaluate.rows",
    "nn.gradient.rows",
    "pipeline.items",
    "training.epochs",
    "federated.rounds",
    "cli.output_bytes",
)

TCP_TAIL_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


def _percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil(n * pct / 100)
    return ordered[int(rank) - 1]


def tail_percentile(n: int) -> float | None:
    """The highest of TCP_TAIL_PERCENTILES that leaves at least 10 of n samples beyond it."""
    best = None
    for pct in TCP_TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            best = pct
    return best


def queue_high_water(records, stage: str) -> int:
    """Most items ever waiting (enqueued, not yet started) at one stage."""
    events = []
    for r in records:
        if r.stage == stage and r.start_ms > r.enqueue_ms:
            events.append((r.enqueue_ms, 1))
            events.append((r.start_ms, -1))
    events.sort()  # at equal times a start (-1) sorts before an enqueue (+1)
    depth = high = 0
    for _, step in events:
        depth += step
        high = max(high, depth)
    return high


class _CountingSocket:
    """Passes sendall through to a socket and adds the bytes sent to a counter."""

    def __init__(self, sock, tracer: "Tracer"):
        self._sock = sock
        self._tracer = tracer

    def sendall(self, data) -> None:
        self._tracer.add("tcp.frame_bytes", len(data))
        self._sock.sendall(data)


class Tracer:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._span_ids = itertools.count(1)
        self._call_counters: dict[str, itertools.count] = {}
        self.stats: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self.durations: dict[str, list[float]] = {"tcp.publish": []}
        self.counts: dict[str, float] = dict.fromkeys(AMOUNTS, 0)
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.group: str | None = None
        self.brokers: list = []
        self.queue_hwm = 0
        self.pipeline_records: list = []
        self._tcp_bus = type(None)  # continuum.tcp.TcpBus once installed
        self.utilization: dict[str, float] = {}
        self._aggregates = 0  # epochs aggregated so far (dist-train)
        self._fedavgs = 0  # rounds aggregated so far (federated)

    # -- recording ---------------------------------------------------------

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, before=None, after=None):
        """Wrap `fn` in a span; `before(args)` and `after(args, result)` observe the call."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        durations = self.durations.get(name)
        lock, spans, ids = self._lock, self.spans, self._span_ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if before is not None:
                before(args)
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
            finally:
                end = time.perf_counter()
                stack.pop()
                busy = end - start
                if stack:
                    stack[-1][1] += busy
                with lock:
                    stats[0] += 1
                    stats[1] += busy
                    stats[2] += busy - frame[1]
                    if durations is not None:
                        durations.append(busy)
                    if len(spans) < SPAN_CAP:
                        spans.append((frame[0], parent, name, start, end, self.group,
                                      threading.get_ident()))
                    else:
                        self.dropped_spans += 1
            return result

        return wrapper

    def counter(self, name: str, fn, before=None):
        """Wrap `fn` so that its calls are counted; next() on a count is atomic."""
        calls = self._call_counters.setdefault(name, itertools.count())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(calls)
            if before is not None:
                before(args)
            return fn(*args, **kwargs)

        return wrapper

    # -- observers ---------------------------------------------------------

    def _item_from_payload(self, args) -> None:
        payload = args[3]
        # pipeline items are packed as {"item_id": N, ...} with sorted keys
        if payload[:11] == b'{"item_id":':
            end = payload.find(b",", 11)
            if end > 11:
                self.group = "item:" + payload[11:end].decode("ascii")

    def _item_from_packed(self, args) -> None:
        if "item_id" in args[0]:
            self.group = f"item:{args[0]['item_id']}"

    def _item_from_unpacked(self, _args, result) -> None:
        if "item_id" in result:
            self.group = f"item:{result['item_id']}"

    def _round_of_client(self, args) -> None:
        self.group = f"round:{args[2]}"

    def _round_of_fedavg(self, _args) -> None:
        self.group = f"round:{self._fedavgs}"
        self._fedavgs += 1

    def _epoch_of_worker(self, _args) -> None:
        self.group = f"epoch:{self._aggregates + 1}"

    def _epoch_of_aggregate(self, _args) -> None:
        self._aggregates += 1
        self.group = f"epoch:{self._aggregates}"

    def _step_event(self, args) -> None:
        pending = args[0].pending()
        if pending > self.queue_hwm:
            self.queue_hwm = pending

    def _wrap_handler(self, subscribe):
        deliveries = self._call_counters.setdefault("bus.deliveries", itertools.count())

        def wrapper(bus, node, filt, handler):
            def counted(env):
                next(deliveries)
                return handler(env)

            return subscribe(bus, node, filt, counted)

        return wrapper

    def _wrap_send_frame(self, send_frame):
        def wrapper(sock, lock, obj):
            return send_frame(_CountingSocket(sock, self), lock, obj)

        return wrapper

    def _register_broker(self, init):
        def wrapper(broker, *args, **kwargs):
            init(broker, *args, **kwargs)
            self.brokers.append(broker)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import importlib

        names = ("bus", "tcp", "wire", "nn", "data", "pipeline", "training", "federated",
                 "configs", "cli")
        modules = {n: importlib.import_module(f"continuum.{n}") for n in names}
        before = {
            "bus.publish": self._item_from_payload,
            "wire.pack": self._item_from_packed,
            "federated.client_local_train": self._round_of_client,
            "federated.fedavg": self._round_of_fedavg,
            "training.worker_epoch": self._epoch_of_worker,
            "training.aggregate_and_step": self._epoch_of_aggregate,
        }
        after = {
            "wire.unpack": self._item_from_unpacked,
            "wire.pack": lambda a, r: self.add("wire.pack.bytes", len(r)),
            "wire.encode_f64": lambda a, r: self.add("wire.encode_f64.bytes", len(r)),
            "nn.evaluate": lambda a, r: self.add("nn.evaluate.rows", a[1].shape[0]),
            "nn.gradient": lambda a, r: self.add("nn.gradient.rows", len(a[1])),
            "pipeline.run_pipeline": self._after_run_pipeline,
            "pipeline.pipeline_stats": lambda a, r: self.utilization.update(
                r.per_stage_utilization),
            "training.run_training": lambda a, r: self.add("training.epochs", len(r.epochs)),
            "federated.fl_metrics": lambda a, r: self.add("federated.rounds", len(r) - 1),
            "cli.write": lambda a, r: self.add(
                "cli.output_bytes", sum(len(b) for b in a[4].values())),
        }
        for module, attr, name in SPANS:
            self._replace(modules, modules[module], attr,
                          lambda fn, n=name: self.span(n, fn, before.get(n), after.get(n)))
        bus, tcp = modules["bus"], modules["tcp"]
        self._tcp_bus = tcp.TcpBus
        self._replace(modules, bus, "topic_matches",
                      lambda fn: self.counter("bus.topic_matches", fn))
        self._replace(modules, bus, "SimClock.step",
                      lambda fn: self.counter("bus.events", fn, self._step_event))
        self._replace(modules, bus, "SimBroker.subscribe", self._wrap_handler)
        self._replace(modules, tcp, "TcpBus.subscribe", self._wrap_handler)
        self._replace(modules, tcp, "_send_frame", self._wrap_send_frame)
        self._replace(modules, bus, "SimBroker.__init__", self._register_broker)
        self._replace(modules, tcp, "TcpBus.__post_init__", self._register_broker)

    @staticmethod
    def _replace(modules: dict, module, attr: str, make) -> None:
        """Swap `module.attr` for make(original) wherever a continuum module refers to it."""
        owner_name, _, method = attr.rpartition(".")
        if owner_name:  # a method: the class is the only holder
            owner = getattr(module, owner_name)
            setattr(owner, method, make(owner.__dict__[method]))
            return
        original = getattr(module, attr)
        wrapped = make(original)
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                elif isinstance(value, dict):  # dispatch tables such as cli._KINDS
                    for k, v in list(value.items()):
                        if isinstance(v, tuple) and any(x is original for x in v):
                            value[k] = tuple(wrapped if x is original else x for x in v)

    def _after_run_pipeline(self, _args, result) -> None:
        traces, records = result
        self.add("pipeline.items", len(traces))
        self.pipeline_records = records

    # -- results -----------------------------------------------------------

    def call_count(self, name: str) -> int:
        """Calls counted so far; read each count once, at the end of the run."""
        counter = self._call_counters.get(name)
        return 0 if counter is None else next(counter)

    def metrics(self, stages: tuple[str, ...]) -> dict[str, float]:
        """Per-layer metrics named in BENCHMARK.json, plus every span's totals."""
        out: dict[str, float] = {}
        for name, (calls, busy, self_s) in sorted(self.stats.items()):
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = busy
            out[f"{name}.self_s"] = self_s
        out.update(self.counts)
        out["bus.topic_matches.calls"] = self.call_count("bus.topic_matches")
        out["bus.deliveries"] = self.call_count("bus.deliveries")
        out["bus.events"] = self.call_count("bus.events")
        out["bus.match_hit_ratio"] = (
            out["bus.deliveries"] / out["bus.topic_matches.calls"]
            if out["bus.topic_matches.calls"] else 0.0
        )
        out["bus.event_queue_hwm"] = self.queue_hwm
        retained = [env for broker in self.brokers for env in broker.published]
        out["bus.retained_envelopes"] = len(retained)
        out["bus.retained_payload_mb"] = sum(len(e.payload) for e in retained) / 2**20
        publish_ms = [d * 1000.0 for d in self.durations["tcp.publish"]]
        tail = tail_percentile(len(publish_ms))
        out["tcp.publish_ms_p50"] = _percentile(publish_ms, 50.0) if publish_ms else 0.0
        out["tcp.publish_ms_tail"] = _percentile(publish_ms, tail) if tail else 0.0
        out["tcp.publish_tail_percentile"] = tail or 0.0
        out["tcp.drive_wait_s"] = self.stats["tcp.drive"][1]
        published = sum(len(e.payload) for b in self.brokers if isinstance(b, self._tcp_bus)
                        for e in b.published)
        out["tcp.frame_bytes_per_payload_byte"] = (
            out["tcp.frame_bytes"] / published if published else 0.0
        )
        for stage in stages:
            out[f"pipeline.stage.{stage}.utilization"] = self.utilization.get(stage, 0.0)
            out[f"pipeline.stage.{stage}.queue_hwm"] = queue_high_water(
                self.pipeline_records, stage)
        out["trace.spans"] = len(self.spans)
        out["trace.dropped_spans"] = self.dropped_spans
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON array per line: id, parent id, name, start_s, end_s, group, thread."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
