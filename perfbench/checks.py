"""Output gates: each run's CSVs are checked against the repo's own oracles.

A check returns a list of problems; an empty list means the outputs passed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from pathlib import Path

from workloads import SDP_STAGES

# completion_ms and the per-stage service times are read back from 17-digit
# CSV text, so the recurrence re-adds rounded differences; 1e-6 ms is far below
# the engine's millisecond resolution and far above that rounding.
SDP_TOLERANCE_MS = 1e-6


def output_hashes(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every CSV the run wrote."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*.csv"))}


def _rows(path: Path) -> list[dict]:
    return list(csv.DictReader(io.StringIO(path.read_text())))


def check_sdp(out_dir: Path, config: dict) -> list[str]:
    """completion_ms equals pipeline.tandem_oracle fed with the service times in stages.csv."""
    from continuum.pipeline import tandem_oracle

    items = _rows(out_dir / "items.csv")
    count = config["arrivals"]["count"]
    if [int(r["item_id"]) for r in items] != list(range(count)):
        return [f"items.csv does not list items 0..{count - 1} in order"]
    service = {stage: [0.0] * count for stage in SDP_STAGES}
    seen = 0
    for r in _rows(out_dir / "stages.csv"):
        service[r["stage"]][int(r["item_id"])] = float(r["end_ms"]) - float(r["start_ms"])
        seen += 1
    if seen != count * len(SDP_STAGES):
        return [f"stages.csv has {seen} rows, expected {count * len(SDP_STAGES)}"]
    oracle = tandem_oracle([float(r["arrival_ms"]) for r in items],
                           [service[stage] for stage in SDP_STAGES])
    for r, expected in zip(items, oracle):
        got = float(r["completion_ms"])
        if not math.isclose(got, expected, rel_tol=0.0, abs_tol=SDP_TOLERANCE_MS):
            return [f"item {r['item_id']}: completion_ms {got!r} != tandem oracle {expected!r}"]
    return []


def check_fl(out_dir: Path, config: dict) -> list[str]:
    """One row per round plus the baseline, and every client contributes every round."""
    rows = _rows(out_dir / "fl_rounds.csv")
    rounds, clients = config["rounds"], config["clients"]
    if [int(r["round"]) for r in rows] != list(range(rounds + 1)):
        return [f"fl_rounds.csv has rounds {[r['round'] for r in rows][:5]}..., "
                f"expected 0..{rounds}"]
    problems = []
    for r in rows:
        expected = 0 if r["round"] == "0" else clients
        if int(r["contributors"]) != expected:
            problems.append(f"round {r['round']}: {r['contributors']} contributors, "
                            f"expected {expected}")
        accuracy, loss = float(r["test_accuracy"]), float(r["test_loss"])
        if not (0.0 <= accuracy <= 1.0 and math.isfinite(loss)):
            problems.append(f"round {r['round']}: accuracy {accuracy} or loss {loss} invalid")
    return problems[:5]


def check_train(out_dir: Path, config: dict, sim_out_dir: Path) -> list[str]:
    """epochs.csv from the TCP bus is byte-identical to the same config on the sim bus."""
    tcp_csv = (out_dir / "epochs.csv").read_bytes()
    sim_csv = (sim_out_dir / "epochs.csv").read_bytes()
    if tcp_csv != sim_csv:
        return ["epochs.csv on the TCP bus differs from the sim-bus run"]
    epochs = tcp_csv.decode().splitlines()[1:]
    if len(epochs) != config["epochs"]:
        return [f"epochs.csv has {len(epochs)} epochs, expected {config['epochs']}"]
    return []
