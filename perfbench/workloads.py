"""The benchmark's workloads: generated configs, the CLI call, and the reason for each.

Every config is a pure function of the workload seed, so the same seed gives
the same inputs. Each workload loads a different layer of continuum; why each
was chosen is in BENCHMARK.json, and the `predicts` lines state which per-layer
metric should move which end-to-end metric on that workload, so a later change
can state its prediction against this mapping before it is measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# The two fog stages of the bundled iiot_surveillance pipeline draw their
# service time from [1000, 2000] ms (mean 1500 ms, today's constant), so the
# seed changes the inputs.
SDP_ITEMS = 20_000
SDP_STAGES = ("capture", "compress", "resize", "extract_objects", "alert")


def fl_eval_config(seed: int) -> dict:
    """configs/fmcw_synth.json with the workload seed."""
    return {
        "mode": "sync",
        "clients": 3,
        "rounds": 100,
        "samples_per_round": 60,
        "local_epochs": 1,
        "lr": 0.1,
        "layers": [512, 32, 8],
        "activation": "sigmoid",
        "seed": seed,
        "dataset": {"synth": {"n": 32000, "d": 512, "classes": 8, "separation": 6.0,
                              "seed": seed}},
    }


def fl_fanout_config(seed: int) -> dict:
    clients, samples = 800, 8
    return {
        "mode": "sync",
        "clients": clients,
        "rounds": 10,
        "samples_per_round": samples,
        "local_epochs": 1,
        "lr": 0.1,
        "layers": [8, 8, 4],
        "activation": "sigmoid",
        "seed": seed,
        # two rows per client and round: half trains, half is held out
        "dataset": {"synth": {"n": 2 * clients * samples, "d": 8, "classes": 4,
                              "separation": 4.0, "seed": seed}},
    }


def sdp_stream_config(seed: int) -> dict:
    def stage(name, node, inp, out, service, kind):
        doc = {"name": name, "node": node, "input_topic": inp, "output_topic": out,
               "kind": kind}
        doc["service_uniform_ms" if isinstance(service, list) else "service_ms"] = service
        return doc

    return {
        "name": "iiot_surveillance",
        "seed": seed,
        "source_topic": "factory/cam1/images",
        "arrivals": {"count": SDP_ITEMS, "interval_ms": 5000},
        "stages": [
            stage("capture", "fog:node1", "factory/cam1/images", "factory/cam1/captured",
                  0, "process"),
            stage("compress", "fog:node1", "factory/cam1/captured", "factory/cam1/compressed",
                  [1000, 2000], "process"),
            stage("resize", "fog:node2", "factory/cam1/compressed", "factory/cam1/resized",
                  [1000, 2000], "process"),
            stage("extract_objects", "fog:node3", "factory/cam1/resized",
                  "factory/cam1/objects", 14000, "serverless_function"),
            stage("alert", "cloud:alerts", "factory/cam1/objects", None, 0,
                  "serverless_function"),
        ],
    }


def train_tcp_config(seed: int) -> dict:
    return {
        "layers": [64, 256, 8],
        "activation": "sigmoid",
        "lr": 0.5,
        "epochs": 400,
        "workers": 1,
        "seed": seed,
        "dataset": {"synth": {"n": 256, "d": 64, "classes": 8, "separation": 4.0,
                              "seed": seed}},
    }


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the continuum subcommand
    make_config: Callable[[int], dict]
    bus_args: tuple[str, ...]
    predicts: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fl-eval", "fl-run", fl_eval_config, (),
            (
                "nn.evaluate.s / nn.forward.s -> wall_s here and on train-tcp",
                "data.synth_blobs.s -> setup_s here",
                "wire.encode_f64.s / wire.decode_f64.s -> wall_s here, less than on train-tcp",
                "bus.* -> no change in wall_s (control case for bus routing)",
            ),
        ),
        Workload(
            "fl-fanout", "fl-run", fl_fanout_config, (),
            (
                "bus.topic_matches.calls / bus.publish.s / bus.match_hit_ratio -> wall_s here",
                "data.next_round_batch.s, federated.client_local_train.s -> wall_s here",
                "nn.* -> no change in wall_s (control case for nn changes)",
            ),
        ),
        Workload(
            "sdp-stream", "sdp-sim", sdp_stream_config, (),
            (
                "bus.publish.s / bus.events -> wall_s here, less than on fl-fanout",
                "wire.pack.s / wire.unpack.s -> wall_s here; a binary codec must not slow it",
                "pipeline.run_pipeline.self_s, cli.csv.s, cli.write.s -> wall_s here",
                "bus.retained_envelopes / pipeline.stage.*.queue_hwm -> peak_rss_mb here",
            ),
        ),
        Workload(
            "train-tcp", "dist-train", train_tcp_config, ("--bus", "tcp", "--bus-port", "0"),
            (
                "tcp.publish.s / tcp.frame_bytes / tcp.drive_wait_s -> wall_s here only",
                "wire.encode_f64.s / wire.decode_f64.s -> wall_s here",
                "nn.gradient.s, training.worker_epoch.s -> wall_s here",
                "bus.retained_envelopes / bus.retained_payload_mb -> peak_rss_mb here",
            ),
        ),
    )
}
