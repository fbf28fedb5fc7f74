#!/usr/bin/env python3
"""Regenerate the frozen reference fixtures under tests/data/.

Two artifacts are produced:
  - dist_train_oracle.json: final accuracy of the single-process full-batch
    gradient-descent reference on the forest-fire-shaped synthetic job.
  - fl_sync_reference.json: the full per-round accuracy/loss curve of the
    bundled synchronous federated run, with its seed.

Run from the repository root. The last digits of the output depend on the
NumPy build, its BLAS library and the CPU, not only on continuum's numerics:
with OpenBLAS 0.3.31 on a 2-core x86-64 machine, a refreeze of an unchanged
tree rewrote the last digits of 31 losses in fl_sync_reference.json. The
acceptance suite therefore compares the frozen curve at an absolute tolerance
of 1e-9, and a diff in the last digits after a refreeze is not by itself a
change in the numerics.
"""

from __future__ import annotations

import json
from pathlib import Path

from continuum import federated, nn
from continuum.bus import SimBroker
from continuum.configs import parse_dist_train, parse_fl

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "tests" / "data"


def dist_train_oracle() -> dict:
    exp = parse_dist_train(json.loads((ROOT / "configs" / "forestfire_synth.json").read_text()))
    dataset = exp.dataset.build()
    model = nn.init_model(exp.layer_sizes, exp.activation, exp.seed)
    for _ in range(exp.epochs):
        model = nn.sgd_step(
            model, nn.gradient(model, dataset.features, dataset.labels), exp.learning_rate
        )
    result = nn.evaluate(model, dataset.features, dataset.labels)
    return {
        "config": "configs/forestfire_synth.json",
        "seed": exp.seed,
        "epochs": exp.epochs,
        "final_accuracy": result.accuracy,
        "final_loss": result.mean_loss,
    }


def fl_sync_reference() -> dict:
    exp = parse_fl(json.loads((ROOT / "configs" / "fmcw_synth.json").read_text()))
    result = federated.run_sync(exp.config, SimBroker(), exp.dataset.build())
    return {
        "config": "configs/fmcw_synth.json",
        "seed": exp.config.seed,
        "rounds": exp.config.rounds,
        "curve": [
            {"round": m.round, "accuracy": m.test_accuracy, "loss": m.test_loss,
             "contributors": m.contributors}
            for m in result.rows
        ],
    }


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    oracle = dist_train_oracle()
    (OUT / "dist_train_oracle.json").write_text(json.dumps(oracle, indent=2) + "\n")
    print(f"dist_train_oracle.json: final accuracy {oracle['final_accuracy']:.5f}")
    reference = fl_sync_reference()
    (OUT / "fl_sync_reference.json").write_text(json.dumps(reference, indent=2) + "\n")
    final = reference["curve"][-1]
    print(f"fl_sync_reference.json: round {final['round']} accuracy {final['accuracy']:.5f}")


if __name__ == "__main__":
    main()
