import errno
import json
import os
import platform
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

import continuum
from conftest import write_csv
from continuum import cli, federated, training
from continuum.cli import main

BUNDLED = Path(__file__).resolve().parent.parent / "configs"


def write_config(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=1))
    return path


def small_sdp_doc(seed: int = 3) -> dict:
    return {
        "name": "small",
        "seed": seed,
        "source_topic": "s/0",
        "arrivals": {"count": 4, "interval_ms": 50},
        "stages": [
            {"name": "a", "node": "fog:n1", "input_topic": "s/0", "output_topic": "s/1",
             "service_ms": 120},
            {"name": "b", "node": "fog:n2", "input_topic": "s/1", "output_topic": None,
             "service_ms": 30},
        ],
    }


def small_dist_doc(workers: int = 2, epochs: int = 5) -> dict:
    return {
        "layers": [6, 5, 3],
        "activation": "sigmoid",
        "lr": 0.3,
        "epochs": epochs,
        "workers": workers,
        "seed": 5,
        "dataset": {"synth": {"n": 90, "d": 6, "classes": 3, "separation": 3.0, "seed": 5}},
    }


def small_fl_doc(mode: str = "sync", **extra) -> dict:
    doc = {
        "mode": mode,
        "clients": 3,
        "rounds": 6,
        "samples_per_round": 8,
        "local_epochs": 1,
        "lr": 0.2,
        "layers": [6, 5, 3],
        "seed": 9,
        "dataset": {"synth": {"n": 180, "d": 6, "classes": 3, "separation": 3.0, "seed": 9}},
    }
    if mode == "async":
        doc["interval_ms"] = 1000
        doc["staleness_bound"] = 1
    doc.update(extra)
    return doc


def read_rows(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


def test_sdp_sim_bundled_config(tmp_path):
    out = tmp_path / "out"
    assert main(["sdp-sim", str(BUNDLED / "iiot_surveillance.json"), "--out", str(out)]) == 0
    rows = read_rows(out / "items.csv")
    assert rows[0] == ["0", "0", "17000", "17000"]
    assert len(rows) == 20
    assert (out / "stages.csv").exists()
    assert (out / "manifest.json").exists()


def test_malformed_json_exits_2_without_outputs(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text('{"name": "x", nope}')
    out = tmp_path / "out"
    assert main(["sdp-sim", str(config), "--out", str(out)]) == 2
    assert not out.exists()
    assert "line" in capsys.readouterr().err


def test_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(small_dist_doc()).replace('"lr": 0.3', '"lr": 1' + "0" * 5000))
    out = tmp_path / "out"
    assert main(["dist-train", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {config}: ")
    assert not out.exists()


def test_missing_field_exits_2_with_field_name(tmp_path, capsys):
    doc = small_sdp_doc()
    del doc["source_topic"]
    config = write_config(tmp_path / "c.json", doc)
    assert main(["sdp-sim", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "source_topic" in capsys.readouterr().err


def test_unknown_fl_mode_exits_2(tmp_path, capsys):
    config = write_config(tmp_path / "fl.json", small_fl_doc(mode="other"))
    assert main(["fl-run", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "mode" in capsys.readouterr().err


def _sdp_doc_with(arrivals=None, uniform=None, stage_name=None, input_topic=None) -> dict:
    doc = small_sdp_doc()
    if stage_name is not None:
        doc["stages"][0]["name"] = stage_name
    if input_topic is not None:  # of the last stage
        doc["stages"][-1]["input_topic"] = input_topic
    if arrivals is not None:
        doc["arrivals"] = {"times_ms": arrivals}
    if uniform is not None:
        del doc["stages"][0]["service_ms"]
        doc["stages"][0]["service_uniform_ms"] = uniform
    return doc


@pytest.mark.parametrize(
    "command, doc, field",
    [
        ("dist-train", dict(small_dist_doc(), lr=0), "lr"),
        ("dist-train", dict(small_dist_doc(), lr=10**400), "lr"),  # beyond float range
        ("dist-train", dict(small_dist_doc(), activation="swish"), "activation"),
        ("fl-run", small_fl_doc(activation="swish"), "activation"),
        ("sdp-sim", _sdp_doc_with(uniform=[5, 1]), "stages[0].service_uniform_ms[1]"),
        ("sdp-sim", _sdp_doc_with(arrivals=[0, "a"]), "arrivals.times_ms[1]"),
        ("sdp-sim", _sdp_doc_with(arrivals="abc"), "arrivals.times_ms"),
        ("sdp-sim", _sdp_doc_with(arrivals=[-5, 0]), "arrivals.times_ms[0]"),
        ("sdp-sim", _sdp_doc_with(arrivals=[0, True, 5]), "arrivals.times_ms[1]"),
        ("sdp-sim", _sdp_doc_with(stage_name=""), "stages[0].name"),
        ("sdp-sim", _sdp_doc_with(input_topic="s/#"), "stages"),
        ("sdp-sim", dict(small_sdp_doc(), arrivals={"count": 3, "interval_ms": 1e308}),
         "arrivals"),
        ("dist-train", dict(small_dist_doc(), dataset={"synth": {
            "n": 3, "d": 6, "classes": 4, "separation": 3.0, "seed": 5}}), "dataset.synth.n"),
        ("fl-run", small_fl_doc("async", interval_ms=0), "interval_ms"),
        ("fl-run", small_fl_doc("async", straggler_p=1.5), "straggler_p"),
        ("fl-run", small_fl_doc("async", straggler_delay_ms=[5, 1]), "straggler_delay_ms[1]"),
        ("fl-run", small_fl_doc("async", straggler_p=float("nan")), "straggler_p"),
        ("fl-run", small_fl_doc("async", lr=float("nan")), "lr"),
        ("fl-run", small_fl_doc("async", interval_ms=float("inf")), "interval_ms"),
        ("sdp-sim", dict(small_sdp_doc(), arrivals={"times_ms": [0, 10], "count": 500,
                                                     "interval_ms": 1}), "arrivals"),
        # the csv path need only exist: the config is rejected before the file is read
        ("dist-train", dict(small_dist_doc(), dataset={"csv": {
            "path": __file__, "label_column": 6, "num_classes": 3, "has_header": "no"}}),
         "dataset.csv.has_header"),
    ],
    ids=["dist-lr-0", "dist-lr-huge-int", "dist-swish", "fl-swish", "sdp-uniform-reversed",
         "sdp-time-string", "sdp-times-not-array", "sdp-time-negative", "sdp-time-bool",
         "sdp-stage-name-empty", "sdp-stage-hears-the-source", "sdp-last-arrival-overflows",
         "dist-synth-n-under-classes",
         "fl-async-interval-0", "fl-straggler-p-over-1", "fl-delay-reversed",
         "fl-straggler-p-nan", "fl-lr-nan", "fl-interval-infinite", "sdp-times-with-count",
         "csv-has-header-string"],
)
def test_bad_hyperparameter_exits_2_naming_its_field(tmp_path, capsys, command, doc, field):
    config = write_config(tmp_path / "c.json", doc)
    out = tmp_path / "out"
    assert main([command, str(config), "--out", str(out)]) == 2
    assert f"{config}: {field}:" in capsys.readouterr().err  # the field, named once
    assert not out.exists()


@pytest.mark.parametrize(
    "command, doc, field",
    [
        ("dist-train", small_dist_doc(workers=100), "workers"),
        ("dist-train", dict(small_dist_doc(), layers=[6, 5, 4]), "layers"),
        ("fl-run", small_fl_doc(layers=[6, 5, 4]), "layers"),
        ("fl-run", small_fl_doc(clients=200), "clients"),
    ],
    ids=["dist-workers-over-samples", "dist-layers-over-classes", "fl-layers-over-classes",
         "fl-clients-over-samples"],
)
def test_config_that_does_not_fit_its_dataset_exits_2(tmp_path, capsys, command, doc, field):
    config = write_config(tmp_path / "c.json", doc)
    out = tmp_path / "out"
    assert main([command, str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err
    assert not out.exists()


def test_missing_config_file_exits_2(tmp_path):
    assert main(["sdp-sim", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")]) == 2


def test_rerun_is_byte_identical(tmp_path):
    config = write_config(tmp_path / "c.json", small_fl_doc())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["fl-run", str(config), "--out", str(out1)]) == 0
    assert main(["fl-run", str(config), "--out", str(out2)]) == 0
    assert (out1 / "fl_rounds.csv").read_bytes() == (out2 / "fl_rounds.csv").read_bytes()


def test_seed_override_is_recorded_and_changes_outputs(tmp_path):
    config = write_config(tmp_path / "c.json", small_dist_doc())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["dist-train", str(config), "--out", str(out1)]) == 0
    assert main(["dist-train", str(config), "--out", str(out2), "--seed", "99"]) == 0
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["seed"] == 99
    assert manifest["config"]["seed"] == 99
    assert (out1 / "epochs.csv").read_bytes() != (out2 / "epochs.csv").read_bytes()


def test_entropy_seed_is_persisted_when_omitted(tmp_path):
    doc = small_dist_doc()
    del doc["seed"]
    config = write_config(tmp_path / "c.json", doc)
    out = tmp_path / "out"
    assert main(["dist-train", str(config), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert isinstance(manifest["seed"], int)
    assert manifest["config"]["seed"] == manifest["seed"]


def test_dist_train_single_epoch_single_row(tmp_path):
    config = write_config(tmp_path / "c.json", small_dist_doc(epochs=1))
    out = tmp_path / "out"
    assert main(["dist-train", str(config), "--out", str(out)]) == 0
    assert len(read_rows(out / "epochs.csv")) == 1


def test_dist_train_worker_count_invariance(tmp_path):
    out1, out3 = tmp_path / "w1", tmp_path / "w3"
    c1 = write_config(tmp_path / "c1.json", small_dist_doc(workers=1, epochs=20))
    c3 = write_config(tmp_path / "c3.json", small_dist_doc(workers=3, epochs=20))
    assert main(["dist-train", str(c1), "--out", str(out1)]) == 0
    assert main(["dist-train", str(c3), "--out", str(out3)]) == 0
    rows1, rows3 = read_rows(out1 / "epochs.csv"), read_rows(out3 / "epochs.csv")
    for r1, r3 in zip(rows1, rows3):
        assert r1[0] == r3[0]
        assert float(r1[1]) == pytest.approx(float(r3[1]), abs=1e-9)
        assert float(r1[2]) == pytest.approx(float(r3[2]), abs=1e-9)


def test_fl_async_without_stragglers_matches_sync(tmp_path):
    sync_config = write_config(tmp_path / "sync.json", small_fl_doc("sync"))
    async_config = write_config(tmp_path / "async.json", small_fl_doc("async"))
    out_sync, out_async = tmp_path / "s", tmp_path / "a"
    assert main(["fl-run", str(sync_config), "--out", str(out_sync)]) == 0
    assert main(["fl-run", str(async_config), "--out", str(out_async)]) == 0
    rows_sync = read_rows(out_sync / "fl_rounds.csv")
    rows_async = read_rows(out_async / "fl_rounds.csv")
    assert len(rows_sync) == len(rows_async) == 7
    for rs, ra in zip(rows_sync, rows_async):
        assert rs[0] == ra[0] and rs[3] == ra[3]
        assert float(ra[1]) == pytest.approx(float(rs[1]), abs=1e-9)
        assert float(ra[2]) == pytest.approx(float(rs[2]), abs=1e-9)


def test_fl_straggler_requires_async(tmp_path, capsys):
    config = write_config(tmp_path / "c.json", small_fl_doc("sync", straggler_p=0.5))
    assert main(["fl-run", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "async" in capsys.readouterr().err


def test_sdp_rejects_tcp_bus(tmp_path, capsys):
    config = write_config(tmp_path / "c.json", small_sdp_doc())
    assert main(["sdp-sim", str(config), "--out", str(tmp_path / "o"), "--bus", "tcp"]) == 2
    assert "simulated" in capsys.readouterr().err


def test_fl_async_rejects_tcp_bus(tmp_path):
    config = write_config(tmp_path / "c.json", small_fl_doc("async"))
    assert main(["fl-run", str(config), "--out", str(tmp_path / "o"), "--bus", "tcp"]) == 2


@pytest.mark.parametrize("command, doc, csv", [
    ("dist-train", small_dist_doc(epochs=3), "epochs.csv"),
    ("fl-run", small_fl_doc("sync", rounds=3), "fl_rounds.csv"),
], ids=["dist-train", "fl-sync"])
def test_run_over_tcp_writes_the_sim_runs_csv_bytes(tmp_path, command, doc, csv):
    config = write_config(tmp_path / "c.json", doc)
    out_sim, out_tcp = tmp_path / "sim", tmp_path / "tcp"
    assert main([command, str(config), "--out", str(out_sim)]) == 0
    assert main([command, str(config), "--out", str(out_tcp), "--bus", "tcp",
                 "--bus-port", "0"]) == 0
    assert (out_tcp / csv).read_bytes() == (out_sim / csv).read_bytes()


def test_manifest_records_the_bus_outside_the_config_hash(tmp_path, capsys):
    config = write_config(tmp_path / "c.json", small_dist_doc(epochs=2))
    out_sim, out_tcp = tmp_path / "sim", tmp_path / "tcp"
    assert main(["dist-train", str(config), "--out", str(out_sim)]) == 0
    assert main(["dist-train", str(config), "--out", str(out_tcp), "--bus", "tcp",
                 "--bus-port", "0"]) == 0
    sim = json.loads((out_sim / "manifest.json").read_text())
    tcp = json.loads((out_tcp / "manifest.json").read_text())
    assert (sim["bus"], tcp["bus"]) == ("sim", "tcp")
    assert sim["config_sha256"] == tcp["config_sha256"]
    capsys.readouterr()
    assert main(["replay-check", str(out_tcp / "manifest.json")]) == 0
    assert "the run used the tcp bus; replaying it on the sim bus" in capsys.readouterr().out
    assert main(["replay-check", str(out_sim / "manifest.json")]) == 0
    assert "replaying it on the sim bus" not in capsys.readouterr().out


def test_replay_check_passes_then_detects_tampering(tmp_path, capsys):
    config = write_config(tmp_path / "c.json", small_sdp_doc())
    out = tmp_path / "out"
    assert main(["sdp-sim", str(config), "--out", str(out)]) == 0
    assert main(["replay-check", str(out / "manifest.json")]) == 0

    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config"]["seed"] = 12345
    manifest["config"]["arrivals"]["interval_ms"] = 70
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["replay-check", str(manifest_path)]) == 3
    err = capsys.readouterr().err
    assert "differs at byte" in err


def test_replay_check_works_for_csv_datasets_from_other_cwd(tmp_path, monkeypatch):
    from continuum.data import synth_blobs

    csv_dir = tmp_path / "datasets"
    csv_dir.mkdir()
    write_csv(synth_blobs(60, 6, 3, separation=3.0, seed=2), csv_dir / "d.csv")
    doc = small_dist_doc(epochs=3)
    doc["dataset"] = {"csv": {"path": "datasets/d.csv", "label_column": 6, "num_classes": 3}}
    config = write_config(tmp_path / "c.json", doc)
    out = tmp_path / "out"
    monkeypatch.chdir(tmp_path)  # relative csv path resolves against the config dir
    assert main(["dist-train", str(config), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert Path(manifest["config"]["dataset"]["csv"]["path"]).is_absolute()
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert main(["replay-check", str(out / "manifest.json")]) == 0


def test_replay_check_missing_output_exits_1(tmp_path):
    config = write_config(tmp_path / "c.json", small_sdp_doc())
    out = tmp_path / "out"
    assert main(["sdp-sim", str(config), "--out", str(out)]) == 0
    (out / "items.csv").unlink()
    assert main(["replay-check", str(out / "manifest.json")]) == 1


def test_replay_check_on_an_unreadable_recorded_output_exits_1_naming_it(tmp_path, capsys):
    config = write_config(tmp_path / "c.json", small_sdp_doc())
    out = tmp_path / "out"
    assert main(["sdp-sim", str(config), "--out", str(out)]) == 0
    (out / "stages.csv").unlink()
    (out / "stages.csv").mkdir()
    capsys.readouterr()
    assert main(["replay-check", str(out / "manifest.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("runtime error: cannot read recorded output: ") and "stages.csv" in err


def test_replay_check_unreadable_manifest_exits_1(tmp_path):
    assert main(["replay-check", str(tmp_path / "missing.json")]) == 1


@pytest.mark.parametrize(
    "mangle, cause",
    [
        (lambda m: [m], "manifest is not a JSON object"),
        (lambda m: {k: v for k, v in m.items() if k != "config"}, "manifest has no config"),
        (lambda m: {**m, "outputs": [{"bytes": e["bytes"]} for e in m["outputs"]]},
         "manifest outputs are not a list of entries that each have a path"),
        (lambda m: {**m, "kind": ["sdp-sim"]}, "manifest has unknown kind ['sdp-sim']"),
    ],
    ids=["array", "no-config", "output-without-path", "unhashable-kind"],
)
def test_replay_check_on_a_manifest_of_the_wrong_shape_exits_1_naming_it(
    tmp_path, capsys, mangle, cause
):
    config = write_config(tmp_path / "c.json", small_sdp_doc())
    out = tmp_path / "out"
    assert main(["sdp-sim", str(config), "--out", str(out)]) == 0
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(mangle(json.loads(manifest_path.read_text()))))
    capsys.readouterr()
    assert main(["replay-check", str(manifest_path)]) == 1
    assert capsys.readouterr().err == f"runtime error: {manifest_path}: {cause}\n"


def test_replay_check_on_a_manifest_that_is_not_utf8_exits_1(tmp_path, capsys):
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_bytes(b'{"kind": "caf\xe9"}')
    assert main(["replay-check", str(manifest_path)]) == 1
    assert capsys.readouterr().err.startswith("runtime error: cannot read manifest:")


def test_config_that_is_not_utf8_exits_2_without_outputs(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_bytes(b'{"name": "caf\xe9"}')
    assert main(["sdp-sim", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {config}: not UTF-8 text:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, doc", [("dist-train", small_dist_doc()),
                                          ("fl-run", small_fl_doc())], ids=["dist-train", "fl-run"])
def test_a_tcp_bus_that_cannot_connect_leaves_no_broker_server_behind(
    tmp_path, capsys, monkeypatch, command, doc
):
    def refuse(**_kwargs):
        raise ConnectionRefusedError("connection refused")

    monkeypatch.setattr(cli, "TcpBus", refuse)
    config = write_config(tmp_path / "c.json", doc)
    before = set(threading.enumerate())
    assert main([command, str(config), "--out", str(tmp_path / "out"), "--bus", "tcp",
                 "--bus-port", "0"]) == 1
    assert capsys.readouterr().err == "runtime error: connection refused\n"
    assert set(threading.enumerate()) - before == set()  # the accept thread was joined


def test_runtime_error_without_text_names_its_type(tmp_path, capsys, monkeypatch):
    def exhausted(*_args, **_kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "run_pipeline", exhausted)
    config = write_config(tmp_path / "c.json", small_sdp_doc())
    assert main(["sdp-sim", str(config), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "runtime error: MemoryError\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bus", ["sim", "tcp"])
@pytest.mark.parametrize(
    "command, doc, handler, line",
    [("fl-run", small_fl_doc(), (federated._Client, "on_global"),
      "a handler of fog:client-0 raised on topic 'fl/global': KeyError: 'round'"),
     ("dist-train", small_dist_doc(), (training._Worker, "on_message"),
      "a handler of fog:worker-0 raised on topic 'train/job/worker/0': KeyError: 'round'")],
    ids=["fl-run-client", "dist-train-worker"],
)
def test_a_raising_handler_exits_1_naming_its_node_topic_and_exception(
    tmp_path, capsys, monkeypatch, command, doc, handler, line, bus
):
    def raises(_self, _env):
        raise KeyError("round")

    monkeypatch.setattr(*handler, raises)
    config = write_config(tmp_path / "c.json", doc)
    assert main([command, str(config), "--out", str(tmp_path / "out"), "--bus", bus,
                 "--bus-port", "0"]) == 1
    assert capsys.readouterr().err == f"runtime error: {line}\n"
    assert not (tmp_path / "out").exists()


def test_service_time_past_the_largest_finite_time_exits_1_naming_the_stage(tmp_path, capsys):
    doc = json.loads((BUNDLED / "iiot_surveillance.json").read_text())
    doc["stages"][3]["service_ms"] = 1e308
    config = write_config(tmp_path / "c.json", doc)
    assert main(["sdp-sim", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("runtime error: stage 'extract_objects': ")
    assert err.endswith(" ends past the largest finite time\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, config, lr, at",
    [("dist-train", "forestfire_synth", 1e300, "epoch 2"),
     ("fl-run", "fmcw_synth", 1e308, "round 1"),
     ("fl-run", "fmcw_synth_async", 1e308, "round 1")],
    ids=["dist-train", "fl-run-sync", "fl-run-async"],
)
def test_non_finite_training_numbers_exit_1_naming_the_epoch_or_round_and_lr(
    tmp_path, capsys, recwarn, command, config, lr, at
):
    doc = json.loads((BUNDLED / f"{config}.json").read_text())
    doc["lr"] = lr
    path = write_config(tmp_path / "c.json", doc)
    assert main([command, str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(re.escape(f"runtime error: {at} with lr {lr!r}: ") + r"[^\n]+\n", err), err
    assert [str(w.message) for w in recwarn] == []  # no numpy RuntimeWarning either
    assert not (tmp_path / "out").exists()


def test_no_writes_outside_output_dir(tmp_path, monkeypatch):
    workdir = tmp_path / "work"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    config = write_config(workdir / "c.json", small_sdp_doc())
    assert main(["sdp-sim", str(config), "--out", "out"]) == 0
    assert sorted(p.name for p in workdir.iterdir()) == ["c.json", "out"]
    assert sorted(p.name for p in (workdir / "out").iterdir()) == [
        "items.csv", "manifest.json", "stages.csv",
    ]


def test_csv_headers_and_float_format(tmp_path):
    config = write_config(tmp_path / "c.json", small_fl_doc(rounds=2))
    out = tmp_path / "out"
    assert main(["fl-run", str(config), "--out", str(out)]) == 0
    text = (out / "fl_rounds.csv").read_text()
    assert text.startswith("round,test_accuracy,test_loss,contributors\n")
    assert "\r" not in text
    value = text.splitlines()[1].split(",")[2]
    assert float(value) > 0  # parses back
    assert "." in value


# Runs cli.main in a fresh interpreter, so that no earlier test has shaped the
# allocator, and prints the minor page faults the call took.
_FAULTS_SCRIPT = """
import resource, sys
from continuum.cli import main
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
code = main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's")
@pytest.mark.parametrize("bus", [[], ["--bus", "tcp", "--bus-port", "0"]], ids=["sim", "tcp"])
def test_dist_train_takes_few_page_faults_per_epoch(tmp_path, bus):
    # the train-tcp shape: 256x64 -> 256 -> 8, where each epoch frees and reallocates
    # temporaries of 512 KiB (256x256 f64) and ~146 KiB (the parameter vector)
    env = dict(os.environ, PYTHONPATH=str(Path(continuum.__file__).parent.parent))
    faults = {}
    for epochs in (50, 100):
        config = write_config(tmp_path / f"{epochs}.json", {
            "layers": [64, 256, 8], "activation": "sigmoid", "lr": 0.5, "epochs": epochs,
            "workers": 1, "seed": 7,
            "dataset": {"synth": {"n": 256, "d": 64, "classes": 8, "separation": 4.0, "seed": 7}},
        })
        done = subprocess.run(
            [sys.executable, "-c", _FAULTS_SCRIPT, "dist-train", str(config),
             "--out", str(tmp_path / str(epochs)), *bus],
            env=env, capture_output=True, text=True, timeout=300, check=True)
        code, faults[epochs] = map(int, done.stdout.split()[-2:])
        assert code == 0, done.stderr
    assert (faults[100] - faults[50]) / 50 < 200, faults


@pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025, 3000])
def test_csv_streams_the_header_then_each_chunk_of_rows(count):
    rows = [(i, i / 7, -1e300 * i) for i in range(count)]
    chunks = []
    cli._csv(federated.RoundMetrics, "%d,%.17g,%.17g\n", rows, chunks.append)
    assert all(type(chunk) is bytes for chunk in chunks)
    assert len(chunks) == 1 + -(-count // cli._CSV_CHUNK_ROWS)
    assert b"".join(chunks) == ("round,test_accuracy,test_loss,contributors\n"
                                + "".join("%d,%.17g,%.17g\n" % row for row in rows)).encode()


# Writes a 7.3 MB CSV from flat columns to a file in a fresh interpreter, after
# main's malloc settings, and prints its size and how far the resident set rose
# above where it stood before the call.
_CSV_RSS_SCRIPT = """
import sys
from array import array
from continuum import cli, federated
cli._fix_malloc_thresholds()

def status(field):
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) * 1024 for line in f if line.startswith(field))

n = 200_000
columns = array("d", range(n)), array("d", (i / 7 for i in range(n)))
before = status("VmRSS:")
with open(sys.argv[1], "wb") as f:
    cli._csv(federated.RoundMetrics, "%d,%.17g,%.17g,%d\\n", zip(range(n), *columns, range(n)),
             f.write)
    size = f.tell()
print(size, status("VmHWM:") - before)
"""


@pytest.mark.skipif(platform.system() != "Linux", reason="reads /proc/self/status")
def test_csv_written_to_a_file_raises_the_resident_set_by_under_1_mib(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(continuum.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", _CSV_RSS_SCRIPT, str(tmp_path / "big.csv")],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    size, rise = map(int, done.stdout.split())
    assert size > 4 << 20
    assert size == (tmp_path / "big.csv").stat().st_size
    assert rise < 1 << 20, f"{size} B of CSV raised the resident set by {rise} B"


def _sdp_stream_doc(count: int) -> dict:
    """The bundled pipeline with `count` arrivals and uniform services, whose times
    print with up to 17 digits, as on the benchmark's sdp-stream workload."""
    doc = json.loads((BUNDLED / "iiot_surveillance.json").read_text())
    doc["arrivals"]["count"] = count
    for stage in doc["stages"][1:3]:
        del stage["service_ms"]
        stage["service_uniform_ms"] = [1000, 2000]
    return doc


def test_writing_and_replaying_outputs_take_memory_that_does_not_grow_with_the_run(
    tmp_path, monkeypatch
):
    # tracing starts once the run's statistics are taken, so each peak is that of
    # the CSVs and the manifest: written on the run, compared on its replay
    real_stats = cli.pipeline_stats

    def stats_then_trace(*args):
        stats = real_stats(*args)
        tracemalloc.start()
        return stats

    monkeypatch.setattr(cli, "pipeline_stats", stats_then_trace)
    peaks = {}
    for count in (2000, 4000):
        config = write_config(tmp_path / f"{count}.json", _sdp_stream_doc(count))
        out = tmp_path / str(count)
        for argv in (["sdp-sim", str(config), "--out", str(out)],
                     ["replay-check", str(out / "manifest.json")]):
            try:
                assert main(argv) == 0
                peaks[argv[0], count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert (tmp_path / "4000" / "stages.csv").stat().st_size > 1 << 20
    for command in ("sdp-sim", "replay-check"):
        # at 2,000 items, items.csv alone is 100 KB and stages.csv 592 KB
        assert peaks[command, 4000] - peaks[command, 2000] < 32 << 10, peaks


class _DiskFullAfter:
    """A file open for writing that takes `room` bytes, then raises ENOSPC."""

    def __init__(self, file, room: int):
        self.file, self.room = file, room

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.file.close()

    def write(self, data) -> int:
        taken = self.file.write(bytes(data[:self.room]))
        self.room -= taken
        if taken < len(data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return taken


def test_a_failed_write_leaves_no_partial_csv_and_no_temporary_file(
    tmp_path, capsys, monkeypatch
):
    real_open = Path.open

    def open_filling_up(self, mode="r", *args, **kwargs):
        file = real_open(self, mode, *args, **kwargs)
        if self.name.startswith("stages.csv") and "w" in mode:
            return _DiskFullAfter(file, 10_000)
        return file

    monkeypatch.setattr(Path, "open", open_filling_up)
    config = write_config(tmp_path / "c.json", _sdp_stream_doc(200))
    out = tmp_path / "out"
    assert main(["sdp-sim", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("runtime error: cannot write outputs: ") and "No space" in err
    assert not (out / "stages.csv").exists()
    assert list(out.glob("*.tmp")) == []
    assert not (out / "manifest.json").exists()


def _position(data: bytes, offset: int) -> str:
    """`offset` with its 1-based line and column in `data`."""
    line, line_at = data.count(b"\n", 0, offset) + 1, data.rfind(b"\n", 0, offset) + 1
    return f"byte {offset} (line {line}, column {offset - line_at + 1})"


@pytest.mark.parametrize(
    "tamper, offset",
    [(lambda data: data[:200] + b"#" + data[201:], lambda data: 200),
     (lambda data: data[:-3000] + b"#" + data[-2999:], lambda data: len(data) - 3000),
     (lambda data: data + b"1500,alert,0,0,0\n", len),
     (lambda data: data[:-10], lambda data: len(data) - 10)],
    ids=["first-chunk", "later-chunk", "recorded-longer", "recorded-shorter"],
)
def test_replay_mismatch_names_the_byte_line_and_column(tmp_path, capsys, tamper, offset):
    config = write_config(tmp_path / "c.json", _sdp_stream_doc(300))
    out = tmp_path / "out"
    assert main(["sdp-sim", str(config), "--out", str(out)]) == 0
    stages = out / "stages.csv"
    data = stages.read_bytes()
    assert data.count(b"\n") == 1 + 1500  # the header, then two chunks of rows
    stages.write_bytes(tamper(data))
    capsys.readouterr()
    assert main(["replay-check", str(out / "manifest.json")]) == 3
    where = _position(data, offset(data))
    assert capsys.readouterr().err == f"replay mismatch: stages.csv differs at {where}\n"
