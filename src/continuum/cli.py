"""Command-line front door: run experiments from JSON configs, emit CSV metrics.

Exit codes are a stable contract: 0 success, 1 runtime error, 2 config error,
3 replay mismatch. Every run persists a manifest with the resolved config and
output hashes so `continuum replay-check` can re-execute and byte-compare.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import itertools
import json
import logging
import os
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from . import __version__, federated
from .bus import Bus, HandlerRaised, SimBroker
from .configs import (
    ConfigError,
    DistTrainExperiment,
    FlExperiment,
    SdpExperiment,
    parse_dist_train,
    parse_fl,
    parse_sdp,
)
from .pipeline import ItemTrace, StageRecord, build_pipeline, pipeline_stats, run_pipeline
from .tcp import TcpBrokerServer, TcpBus
from .training import EpochMetrics, TrainJob, run_training, submit_job

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

# rows formatted and encoded at a time, so no per-row string outlives its chunk
_CSV_CHUNK_ROWS = 1024

# an output CSV as an executor returns it: its NamedTuple type, the %-format of one
# row, and the rows, written by `_csv`
_Table = tuple[type, str, Iterable[tuple]]


def _csv(record: type, row_format: str, rows: Iterable[tuple],
         write: Callable[[bytes], object]) -> None:
    """Hand one CSV file of `record`'s rows to `write`: first the header of the
    NamedTuple's fields, then each chunk of `_CSV_CHUNK_ROWS` rows, encoded. `rows`
    are tuples in field order, and `row_format` is a %-format of one line, such as
    "%d,%.17g\\n". No more than one chunk of the file is held at a time.
    """
    line = row_format.__mod__
    rows = iter(rows)
    write((",".join(record._fields) + "\n").encode("utf-8"))
    while chunk := "".join(map(line, itertools.islice(rows, _CSV_CHUNK_ROWS))):
        write(chunk.encode("utf-8"))


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


def _resolved_doc(doc: dict, exp: SdpExperiment | DistTrainExperiment | FlExperiment) -> dict:
    """The config as persisted in the manifest: seed filled, file paths absolute."""
    resolved = json.loads(json.dumps(doc))
    resolved["seed"] = exp.seed
    if exp.dataset is not None and exp.dataset.csv is not None:
        resolved["dataset"]["csv"]["path"] = exp.dataset.csv["path"]
    return resolved


@contextlib.contextmanager
def _open_bus(backend: str, port: int, sim_only: str | None = None) -> Iterator[Bus]:
    """The bus of one run: a SimBroker, or a TcpBus on a local TcpBrokerServer, closed
    bus first, then server, however the run ends. A run that needs the virtual clock
    passes as `sim_only` the config error that refuses any other backend."""
    if backend == "sim":
        yield SimBroker()
    elif sim_only is not None:
        raise ConfigError(sim_only)
    else:
        with contextlib.closing(TcpBrokerServer(port=port)) as server, \
                contextlib.closing(TcpBus(port=server.port)) as bus:
            yield bus


def _execute_sdp(exp: SdpExperiment, backend: str, port: int):
    with _open_bus(backend, port, "sdp-sim requires the simulated bus "
                   "(virtual-time service queues)") as broker:
        instance = build_pipeline(exp.pipeline, broker)
        traces, records = run_pipeline(instance, exp.arrivals, seed=exp.seed)
    stats = pipeline_stats(traces, records)
    summary = (
        f"{len(traces)} items completed; mean sojourn {stats.mean_sojourn_ms:.1f} ms, "
        f"max {stats.max_sojourn_ms:.1f} ms"
    )
    return {"items.csv": (ItemTrace, "%d,%.17g,%.17g,%.17g\n", traces.rows()),
            "stages.csv": (StageRecord, "%d,%s,%.17g,%.17g,%.17g\n", records.rows())}, summary


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
    with _open_bus(backend, port) as bus:
        result = run_training(submit_job(job, bus))
    final = result.epochs[-1]
    summary = f"{exp.epochs} epochs on {exp.workers} workers; final accuracy {final.accuracy:.4f}"
    return {"epochs.csv": (EpochMetrics, "%d,%.17g,%.17g\n", result.epochs)}, summary


def _execute_fl(exp: FlExperiment, backend: str, port: int):
    dataset = exp.dataset.build()
    try:  # the layers and client count come from the config, which may not fit its dataset
        federated.check_fit(exp.config, dataset)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if exp.config.mode == "async":
        with _open_bus(backend, port, "fl-run in async mode requires the simulated bus "
                       "(interval timers)") as broker:
            result = federated.run_async(exp.config, broker, dataset, exp.stragglers)
    else:
        with _open_bus(backend, port) as bus:
            result = federated.run_sync(exp.config, bus, dataset)
    metrics = federated.fl_metrics(result)
    final = metrics[-1]
    summary = (
        f"{exp.config.mode} federated run, {exp.config.rounds} rounds, "
        f"{exp.config.num_clients} clients; final test accuracy {final.test_accuracy:.4f}"
    )
    return {"fl_rounds.csv": (federated.RoundMetrics, "%d,%.17g,%.17g,%d\n", metrics)}, summary


# kind -> (parse(doc, seed_override, config_dir), execute(experiment, backend, port), help)
_KINDS = {
    "sdp-sim": (parse_sdp, _execute_sdp, "run a staged data-pipeline simulation"),
    "dist-train": (parse_dist_train, _execute_dist_train,
                   "run coordinator/worker data-parallel training"),
    "fl-run": (parse_fl, _execute_fl, "run a federated learning experiment"),
}


def _execute(kind: str, exp: SdpExperiment | DistTrainExperiment | FlExperiment,
             backend: str, port: int):
    """Run one experiment, with numpy's overflow, division by zero and invalid
    operations raised as FloatingPointError instead of printed as warnings, so a
    non-finite number ends the run; underflow stays silent."""
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        return _KINDS[kind][1](exp, backend, port)


@dataclass(frozen=True)
class _Written:
    """An output file as written: its SHA-256 hex digest and its length in bytes."""

    sha256: str
    size: int

    # perfbench's tracer sums len() of `_write_outputs`' files (ROADMAP item 1 retires it)
    def __len__(self) -> int:
        return self.size


def _write_table(path: Path, table: _Table) -> _Written:
    """Stream one table into the file at `path`, through a SHA-256 and a byte count."""
    digest = hashlib.sha256()
    size = 0
    with path.open("wb") as f:
        def write(chunk: bytes) -> None:
            nonlocal size
            digest.update(chunk)
            size += f.write(chunk)
        _csv(*table, write)
    return _Written(digest.hexdigest(), size)


def _write_tables(out_dir: Path, tables: dict[str, _Table]) -> dict[str, _Written]:
    """Write each table to `out_dir` under its name, in name order. Each is written
    to a temporary name and then renamed, so a failed write leaves no half file
    under the final name, and no temporary file."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written = {}
    for name, table in sorted(tables.items()):
        tmp = out_dir / f"{name}.tmp"
        try:
            written[name] = _write_table(tmp, table)
            tmp.replace(out_dir / name)
        finally:
            tmp.unlink(missing_ok=True)
    return written


def _write_outputs(
    out_dir: Path, kind: str, resolved: dict, seed: int, files: dict[str, _Written],
    started: str, finished: str, bus: str,
) -> None:
    """Write the run's manifest to `out_dir`, listing the `files` `_write_tables` wrote."""
    manifest = {
        "kind": kind,
        "bus": bus,  # how the run was made, not what it computes: outside config_sha256
        "tool_version": __version__,
        "seed": seed,
        "config": resolved,
        "config_sha256": hashlib.sha256(_canonical(resolved)).hexdigest(),
        "started_at": started,
        "finished_at": finished,
        "outputs": [{"path": name, "sha256": out.sha256, "bytes": out.size}
                    for name, out in sorted(files.items())],
    }
    tmp = out_dir / "manifest.json.tmp"
    tmp.write_bytes(json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8") + b"\n")
    tmp.replace(out_dir / "manifest.json")


def _describe(exc: BaseException) -> str:
    """An exception's text, or its type's name where it has none (as `MemoryError()`).
    A handler's exception is led by the node and topic it raised on, and its type."""
    text = str(exc)
    if isinstance(exc.__cause__, HandlerRaised):
        kind = type(exc).__name__
        return f"{exc.__cause__}: {kind}: {text}" if text else f"{exc.__cause__}: {kind}"
    return text or type(exc).__name__


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="milliseconds")


def _run_experiment(kind: str, args) -> int:
    config_path = Path(args.config)
    try:
        doc = json.loads(config_path.read_text(encoding="utf-8"))
        exp = _KINDS[kind][0](doc, args.seed, config_path.parent)
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
    except ValueError as exc:  # json.loads: an integer of more digits than int() converts
        print(f"config error: {config_path}: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    started = _utc_now()
    t0 = time.perf_counter()
    log.info("running %s from %s on the %s bus", kind, config_path, args.bus)
    try:
        tables, summary = _execute(kind, exp, args.bus, args.bus_port)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"runtime error: {_describe(exc)}", file=sys.stderr)
        return EXIT_RUNTIME
    elapsed = time.perf_counter() - t0
    finished = _utc_now()

    out_dir = Path(args.out)
    try:
        files = _write_tables(out_dir, tables)
        _write_outputs(out_dir, kind, _resolved_doc(doc, exp), exp.seed, files, started,
                       finished, args.bus)
    except OSError as exc:
        print(f"runtime error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(summary)
    print(f"wrote {', '.join(sorted(files))} and manifest.json to {out_dir} "
          f"(seed {exp.seed}, {elapsed:.2f}s)")
    return EXIT_OK


class _Differs(Exception):
    """Raised by `_difference`'s sink to stop `_csv` at the first differing chunk."""


def _difference(path: Path, table: _Table) -> str | None:
    """Where the replayed `table` first differs from the recorded file at `path`, as
    "byte N (line L, column C)" with 1-based line and column, or None where the two
    are equal. The file is read in step with the replayed chunks. Where one is longer,
    they differ at the shorter one's length."""
    at, line, line_at = 0, 1, 0  # bytes found equal; the line of byte `at` and its start

    def equal(data: bytes) -> None:
        nonlocal at, line, line_at
        line += data.count(b"\n")
        last = data.rfind(b"\n")
        if last >= 0:
            line_at = at + last + 1
        at += len(data)

    with path.open("rb") as recorded:
        def compare(chunk: bytes) -> None:
            original = recorded.read(len(chunk))
            if original != chunk:
                equal(os.path.commonprefix([original, chunk]))
                raise _Differs
            equal(chunk)
        try:
            _csv(*table, compare)
            if not recorded.read(1):
                return None
        except _Differs:
            pass
    return f"byte {at} (line {line}, column {at - line_at + 1})"


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
        originals[entry["path"]] = path
    try:
        exp = _KINDS[kind][0](manifest["config"], None, out_dir)
    except ConfigError as exc:
        print(f"config error: manifest config invalid: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    bus = manifest.get("bus", "sim")
    if bus != "sim":
        print(f"the run used the {bus} bus; replaying it on the sim bus")
    try:
        tables, _summary = _execute(kind, exp, "sim", 0)
    except Exception as exc:  # noqa: BLE001
        print(f"runtime error: replay failed: {_describe(exc)}", file=sys.stderr)
        return EXIT_RUNTIME
    for name, path in sorted(originals.items()):
        table = tables.get(name)
        if table is None:
            print(f"replay mismatch: {name} was not produced on replay", file=sys.stderr)
            return EXIT_REPLAY
        try:
            where = _difference(path, table)
        except OSError as exc:
            print(f"runtime error: cannot read recorded output: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        if where is not None:
            print(f"replay mismatch: {name} differs at {where}", file=sys.stderr)
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
    for kind, (_parse, _execute, help_text) in _KINDS.items():
        sp = sub.add_parser(kind, help=help_text)
        sp.add_argument("config", help="path to the experiment JSON document")
        sp.add_argument("--out", default="out", help="output directory (default: ./out)")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--bus", choices=("sim", "tcp"), default="sim",
                        help="bus backend (a tcp run writes the sim run's CSV bytes, "
                        "which CI's cmp step and the CLI tests check)")
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
