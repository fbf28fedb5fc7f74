"""Command-line front door: run experiments from JSON configs, emit CSV metrics.

Exit codes are a stable contract: 0 success, 1 runtime error, 2 config error,
3 replay mismatch. Every run persists a manifest with the resolved config and
output hashes so `continuum replay-check` can re-execute and byte-compare.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import logging
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, federated
from .bus import Bus, SimBroker
from .configs import (
    ConfigError,
    DistTrainExperiment,
    FlExperiment,
    SdpExperiment,
    parse_dist_train,
    parse_fl,
    parse_sdp,
)
from .pipeline import build_pipeline, pipeline_stats, run_pipeline
from .tcp import TcpBrokerServer, TcpBus
from .training import TrainJob, run_training, submit_job

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_REPLAY = 3

log = logging.getLogger("continuum.cli")

# glibc's mallopt parameters, and the fixed values main sets them to
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 4 << 20
_TRIM_THRESHOLD_BYTES = 16 << 20


def _csv(header: list[str], row_format: str, rows: list[tuple]) -> bytes:
    """One CSV file: `row_format` is a %-format of one line, such as "%d,%.17g\\n"."""
    return (",".join(header) + "\n" + "".join(map(row_format.__mod__, rows))).encode("utf-8")


def _fix_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds; a no-op where the C library has no mallopt.

    By default glibc mmaps each block above a sliding threshold, which a freed
    mmapped block raises only to its own size, and trims the heap top once 128 KiB
    lie free there. The numpy temporaries that every epoch or round frees and makes
    again (512 KiB matmul outputs, parameter vectors) are then mapped and faulted
    in, or the heap regrown, on every call. The fixed mmap threshold sits above the
    largest per-call temporary of the bundled workloads (16000x32 f64, 4,096,000 B,
    in held-out evaluation). The trim threshold sits above the few such blocks one
    evaluation frees together: at 8 MiB, with no long-lived allocation pinning the
    heap top, glibc gave the freed evaluation temporaries of a 100-round 512-32-8 FL
    run back every round and faulted them in again (105k minor faults, against 3.5k
    at 16 MiB and 3.1k at 32 MiB; glibc 2.36, x86-64).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def _configure_logging() -> None:
    level = os.environ.get("CONTINUUM_LOG", "off").lower()
    if level == "trace":
        logging.basicConfig(level=logging.DEBUG, stream=sys.stderr)
    elif level == "info":
        logging.basicConfig(level=logging.INFO, stream=sys.stderr)
    else:
        logging.getLogger("continuum").setLevel(logging.CRITICAL + 1)


def _canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _resolved_doc(doc: dict, seed: int, exp) -> dict:
    """The config as persisted in the manifest: seed filled, file paths absolute."""
    resolved = json.loads(json.dumps(doc))
    resolved["seed"] = seed
    dataset = getattr(exp, "dataset", None)
    if dataset is not None and dataset.csv is not None and "csv" in resolved.get("dataset", {}):
        resolved["dataset"]["csv"]["path"] = dataset.csv["path"]
    return resolved


class _BusContext:
    """Owns the broker for one run; TCP mode spins a local broker server."""

    def __init__(self, backend: str, port: int):
        self.server: TcpBrokerServer | None = None
        self.bus: Bus
        if backend == "sim":
            self.bus = SimBroker()
        else:
            self.server = TcpBrokerServer(port=port)
            try:
                self.bus = self._tcp_bus = TcpBus(port=self.server.port)
            except BaseException:  # no caller holds this context to close it
                self.server.close()
                raise

    def close(self) -> None:
        if self.server is not None:
            self._tcp_bus.close()
            self.server.close()


def _execute_sdp(exp: SdpExperiment, backend: str, port: int):
    if backend != "sim":
        raise ConfigError("sdp-sim requires the simulated bus (virtual-time service queues)")
    broker = SimBroker()
    instance = build_pipeline(exp.pipeline, broker)
    traces, records = run_pipeline(instance, exp.arrivals, seed=exp.seed)
    stats = pipeline_stats(traces, records)
    items = _csv(
        ["item_id", "arrival_ms", "completion_ms", "sojourn_ms"],
        "%d,%.17g,%.17g,%.17g\n",
        [(t.item_id, t.arrival_ms, t.completion_ms, t.sojourn_ms) for t in traces],
    )
    stages = _csv(
        ["item_id", "stage", "enqueue_ms", "start_ms", "end_ms"],
        "%d,%s,%.17g,%.17g,%.17g\n",
        [(r.item_id, r.stage, r.enqueue_ms, r.start_ms, r.end_ms) for r in records],
    )
    summary = (
        f"{len(traces)} items completed; mean sojourn {stats.mean_sojourn_ms:.1f} ms, "
        f"max {stats.max_sojourn_ms:.1f} ms"
    )
    return {"items.csv": items, "stages.csv": stages}, summary


def _execute_dist_train(exp: DistTrainExperiment, backend: str, port: int):
    dataset = exp.dataset.build()
    try:  # every field comes from the config, which may not fit the dataset it built
        job = TrainJob(
            layer_sizes=exp.layer_sizes,
            hidden_activation=exp.activation,
            learning_rate=exp.learning_rate,
            epochs=exp.epochs,
            num_workers=exp.workers,
            seed=exp.seed,
            dataset=dataset,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    ctx = _BusContext(backend, port)
    try:
        handle = submit_job(job, ctx.bus)
        result = run_training(handle)
    finally:
        ctx.close()
    epochs = _csv(
        ["epoch", "loss", "accuracy"],
        "%d,%.17g,%.17g\n",
        [(m.epoch, m.loss, m.accuracy) for m in result.epochs],
    )
    final = result.epochs[-1]
    summary = f"{exp.epochs} epochs on {exp.workers} workers; final accuracy {final.accuracy:.4f}"
    return {"epochs.csv": epochs}, summary


def _execute_fl(exp: FlExperiment, backend: str, port: int):
    dataset = exp.dataset.build()
    try:  # the layers and client count come from the config, which may not fit its dataset
        federated.check_fit(exp.config, dataset)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if exp.config.mode == "async":
        if backend != "sim":
            raise ConfigError("fl-run in async mode requires the simulated bus (interval timers)")
        broker = SimBroker()
        result = federated.run_async(exp.config, broker, dataset, exp.stragglers)
    else:
        ctx = _BusContext(backend, port)
        try:
            result = federated.run_sync(exp.config, ctx.bus, dataset)
        finally:
            ctx.close()
    metrics = federated.fl_metrics(result)
    rows = _csv(
        ["round", "test_accuracy", "test_loss", "contributors"],
        "%d,%.17g,%.17g,%d\n",
        [(m.round, m.test_accuracy, m.test_loss, m.contributors) for m in metrics],
    )
    final = metrics[-1]
    summary = (
        f"{exp.config.mode} federated run, {exp.config.rounds} rounds, "
        f"{exp.config.num_clients} clients; final test accuracy {final.test_accuracy:.4f}"
    )
    return {"fl_rounds.csv": rows}, summary


_KINDS = {
    "sdp-sim": (parse_sdp, _execute_sdp),
    "dist-train": (parse_dist_train, _execute_dist_train),
    "fl-run": (parse_fl, _execute_fl),
}


def _parse_experiment(kind: str, doc, seed_override: int | None, config_dir: Path | None):
    parser = _KINDS[kind][0]
    if kind == "sdp-sim":
        return parser(doc, seed_override)
    return parser(doc, seed_override, config_dir)


def _write_outputs(
    out_dir: Path, kind: str, resolved: dict, seed: int, files: dict[str, bytes],
    started: str, finished: str, bus: str,
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for name, data in sorted(files.items()):
        (out_dir / name).write_bytes(data)
        entries.append(
            {"path": name, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        )
    manifest = {
        "kind": kind,
        "bus": bus,  # how the run was made, not what it computes: outside config_sha256
        "tool_version": __version__,
        "seed": seed,
        "config": resolved,
        "config_sha256": hashlib.sha256(_canonical(resolved)).hexdigest(),
        "started_at": started,
        "finished_at": finished,
        "outputs": entries,
    }
    tmp = out_dir / "manifest.json.tmp"
    tmp.write_bytes(json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8") + b"\n")
    tmp.replace(out_dir / "manifest.json")


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="milliseconds")


def _run_experiment(kind: str, args) -> int:
    config_path = Path(args.config)
    try:
        doc = json.loads(config_path.read_text(encoding="utf-8"))
        exp = _parse_experiment(kind, doc, args.seed, config_path.parent)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnicodeDecodeError as exc:
        print(f"config error: {config_path}: not UTF-8 text: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as exc:
        print(f"config error: {config_path}: invalid JSON at line {exc.lineno}, "
              f"column {exc.colno}: {exc.msg}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"config error: {config_path}: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    started = _utc_now()
    t0 = time.perf_counter()
    log.info("running %s from %s on the %s bus", kind, config_path, args.bus)
    try:
        files, summary = _KINDS[kind][1](exp, args.bus, args.bus_port)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    elapsed = time.perf_counter() - t0

    seed = exp.seed if hasattr(exp, "seed") else exp.config.seed
    out_dir = Path(args.out)
    try:
        _write_outputs(out_dir, kind, _resolved_doc(doc, seed, exp), seed, files, started,
                       _utc_now(), args.bus)
    except OSError as exc:
        print(f"runtime error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(summary)
    print(f"wrote {', '.join(sorted(files))} and manifest.json to {out_dir} "
          f"(seed {seed}, {elapsed:.2f}s)")
    return EXIT_OK


def _first_difference(a: bytes, b: bytes) -> int:
    limit = min(len(a), len(b))
    for i in range(limit):
        if a[i] != b[i]:
            return i
    return limit


def _manifest_problem(manifest) -> str | None:
    """What keeps a parsed manifest from being replayed, or None."""
    if not isinstance(manifest, dict):
        return "manifest is not a JSON object"
    kind = manifest.get("kind")
    if not (isinstance(kind, str) and kind in _KINDS):
        return f"manifest has unknown kind {kind!r}"
    if "config" not in manifest:
        return "manifest has no config"
    outputs = manifest.get("outputs", [])
    if not (isinstance(outputs, list)
            and all(isinstance(e, dict) and isinstance(e.get("path"), str) for e in outputs)):
        return "manifest outputs are not a list of entries that each have a path"
    return None


def _replay_check(args) -> int:
    manifest_path = Path(args.manifest)
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: invalid JSON or not UTF-8
        print(f"runtime error: cannot read manifest: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    problem = _manifest_problem(manifest)
    if problem is not None:
        print(f"runtime error: {manifest_path}: {problem}", file=sys.stderr)
        return EXIT_RUNTIME
    kind = manifest["kind"]
    out_dir = manifest_path.parent
    originals = {}
    for entry in manifest.get("outputs", []):
        path = out_dir / entry["path"]
        if not path.exists():
            print(f"runtime error: recorded output {path} is missing", file=sys.stderr)
            return EXIT_RUNTIME
        originals[entry["path"]] = path.read_bytes()
    try:
        exp = _parse_experiment(kind, manifest["config"], None, out_dir)
    except ConfigError as exc:
        print(f"config error: manifest config invalid: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    bus = manifest.get("bus", "sim")
    if bus != "sim":
        print(f"the run used the {bus} bus; replaying it on the sim bus")
    try:
        files, _summary = _KINDS[kind][1](exp, "sim", 0)
    except Exception as exc:  # noqa: BLE001
        print(f"runtime error: replay failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    for name, original in sorted(originals.items()):
        replayed = files.get(name)
        if replayed is None:
            print(f"replay mismatch: {name} was not produced on replay", file=sys.stderr)
            return EXIT_REPLAY
        if replayed != original:
            offset = _first_difference(original, replayed)
            print(f"replay mismatch: {name} differs at byte {offset}", file=sys.stderr)
            return EXIT_REPLAY
    print(f"replay check passed: {len(originals)} file(s) byte-identical")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="continuum",
        description="Deterministic edge-fog-cloud experiments: pipelines, distributed "
        "training, federated learning.",
    )
    parser.add_argument("--version", action="version", version=f"continuum {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind, help_text in (
        ("sdp-sim", "run a staged data-pipeline simulation"),
        ("dist-train", "run coordinator/worker data-parallel training"),
        ("fl-run", "run a federated learning experiment"),
    ):
        sp = sub.add_parser(kind, help=help_text)
        sp.add_argument("config", help="path to the experiment JSON document")
        sp.add_argument("--out", default="out", help="output directory (default: ./out)")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--bus", choices=("sim", "tcp"), default="sim",
                        help="bus backend (tcp forgoes byte-identical replay)")
        sp.add_argument("--bus-port", type=int, default=18883,
                        help="TCP broker port (default: 18883)")
    rc = sub.add_parser("replay-check", help="re-run a manifest and byte-compare outputs")
    rc.add_argument("manifest", help="path to a manifest.json written by a previous run")
    return parser


def main(argv: list[str] | None = None) -> int:
    _fix_malloc_thresholds()
    _configure_logging()
    args = _build_parser().parse_args(argv)
    if args.command == "replay-check":
        return _replay_check(args)
    return _run_experiment(args.command, args)


if __name__ == "__main__":
    sys.exit(main())
