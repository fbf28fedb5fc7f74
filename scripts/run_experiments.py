#!/usr/bin/env python3
"""Run the four bundled experiments end to end and verify replayability.

Writes results to out/<experiment>/ in the current directory:
  - iiot_surveillance: the staged surveillance pipeline (items.csv, stages.csv)
  - forestfire_synth:  coordinator/worker training (epochs.csv)
  - fmcw_synth:        synchronous federated learning (fl_rounds.csv)
  - fmcw_synth_async:  asynchronous federated learning with stragglers
"""

from __future__ import annotations

import sys
from pathlib import Path

from continuum.cli import main as continuum

ROOT = Path(__file__).resolve().parent.parent

EXPERIMENTS = [
    ("sdp-sim", "iiot_surveillance"),
    ("dist-train", "forestfire_synth"),
    ("fl-run", "fmcw_synth"),
    ("fl-run", "fmcw_synth_async"),
]


def main() -> int:
    for command, name in EXPERIMENTS:
        config = ROOT / "configs" / f"{name}.json"
        out = Path("out") / name
        print(f"== {command} {config.name} -> {out}")
        code = continuum([command, str(config), "--out", str(out)])
        if code != 0:
            return code
        code = continuum(["replay-check", str(out / "manifest.json")])
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
