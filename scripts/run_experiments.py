#!/usr/bin/env python3
"""Run the four bundled experiments end to end and verify replayability.

Writes results to out/<experiment>/ in the current directory:
  - iiot_surveillance: the staged surveillance pipeline (items.csv, stages.csv)
  - forestfire_synth:  coordinator/worker training (epochs.csv)
  - fmcw_synth:        synchronous federated learning (fl_rounds.csv)
  - fmcw_synth_async:  asynchronous federated learning with stragglers

After each replay check it prints each output's SHA-256 and path from the run's
manifest, as `sha256sum` does. The commands' own messages, which carry wall
times, go to stderr, so two checkouts whose outputs are byte-identical print
the same stdout, and `diff` of the two compares every output.
"""

from __future__ import annotations

import contextlib
import json
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
        print(f"== {command} {config.name} -> {out}", flush=True)
        with contextlib.redirect_stdout(sys.stderr):
            code = continuum([command, str(config), "--out", str(out)])
            if code == 0:
                code = continuum(["replay-check", str(out / "manifest.json")])
        if code != 0:
            return code
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        for entry in manifest["outputs"]:
            print(f"{entry['sha256']}  {out / entry['path']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
