"""Experiment configuration documents: JSON in, validated dataclasses out.

Every parse error names the offending field so the CLI can exit with a usable
diagnostic before any output is written.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

from .data import Dataset, load_csv, synth_blobs
from .federated import FlConfig, StragglerModel
from .nn import HIDDEN_ACTIVATIONS
from .pipeline import ArrivalSchedule, Constant, PipelineSpec, StageSpec, Uniform


class ConfigError(ValueError):
    """A configuration document failed validation."""


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError(f"{where}: missing required field {key!r}")
    return doc[key]


def _check_object(doc, allowed: set[str], where: str) -> None:
    """Reject a `doc` that is not a JSON object, or that has a field outside `allowed`."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected {'a JSON' if where == 'top level' else 'an'} object")
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}; expected {sorted(allowed)}")


def _int(value, where: str, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}: must be >= {minimum}, got {value}")
    return value


def _num(value, where: str, minimum: float | None = None, maximum: float | None = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # a JSON integer beyond float range
        raise ConfigError(f"{where}: expected a finite number, got an integer too large "
                          "for a float") from None
    if not math.isfinite(number):  # JSON's NaN and Infinity tokens parse to floats
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    if minimum is not None and number < minimum:
        raise ConfigError(f"{where}: must be >= {minimum}, got {value}")
    if maximum is not None and number > maximum:
        raise ConfigError(f"{where}: must be <= {maximum}, got {value}")
    return number


def _range(pair, where: str) -> tuple[float, float]:
    """A JSON [lo, hi] with 0 <= lo <= hi."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise ConfigError(f"{where}: expected [lo, hi]")
    lo = _num(pair[0], f"{where}[0]", 0.0)
    return lo, _num(pair[1], f"{where}[1]", lo)


def _str(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{where}: expected a non-empty string, got {value!r}")
    return value


def resolve_seed(doc_seed, override: int | None) -> int:
    """CLI override wins, then the document; otherwise draw one and record it."""
    if override is not None:
        seed = int(override)
    elif doc_seed is not None:
        if not isinstance(doc_seed, int) or isinstance(doc_seed, bool):
            raise ConfigError(f"seed: expected an integer, got {doc_seed!r}")
        seed = doc_seed
    else:
        seed = int.from_bytes(os.urandom(8), "big") >> 1
    if seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {seed}")
    return seed


@dataclass(frozen=True)
class DatasetConfig:
    synth: dict | None = None
    csv: dict | None = None

    def build(self) -> Dataset:
        if self.synth is not None:
            s = self.synth
            return synth_blobs(
                n=s["n"], d=s["d"], num_classes=s["classes"],
                separation=s["separation"], seed=s["seed"],
            )
        assert self.csv is not None
        c = self.csv
        return load_csv(
            c["path"], label_column=c["label_column"], num_classes=c["num_classes"],
            has_header=c.get("has_header", False),
        )


def parse_dataset(doc, where: str = "dataset", config_dir: Path | None = None) -> DatasetConfig:
    _check_object(doc, {"synth", "csv"}, where)
    if ("synth" in doc) == ("csv" in doc):
        raise ConfigError(f"{where}: exactly one of 'synth' or 'csv' must be present")
    if "synth" in doc:
        s = doc["synth"]
        _check_object(s, {"n", "d", "classes", "separation", "seed"}, f"{where}.synth")
        spec = {
            "n": _int(_require(s, "n", f"{where}.synth"), f"{where}.synth.n", 2),
            "d": _int(_require(s, "d", f"{where}.synth"), f"{where}.synth.d", 1),
            "classes": _int(_require(s, "classes", f"{where}.synth"), f"{where}.synth.classes", 2),
            "separation": _num(_require(s, "separation", f"{where}.synth"),
                               f"{where}.synth.separation", 0.0),
            "seed": _int(_require(s, "seed", f"{where}.synth"), f"{where}.synth.seed", 0),
        }
        if spec["n"] < spec["classes"]:
            raise ConfigError(f"{where}.synth.n: must be >= classes ({spec['classes']}), "
                              f"got {spec['n']}")
        return DatasetConfig(synth=spec)
    c = doc["csv"]
    _check_object(c, {"path", "label_column", "num_classes", "has_header"}, f"{where}.csv")
    path = Path(_str(_require(c, "path", f"{where}.csv"), f"{where}.csv.path"))
    if config_dir is not None and not path.is_absolute():
        path = config_dir / path
    if not path.exists():
        raise ConfigError(f"{where}.csv.path: file not found: {path}")
    spec = {
        "path": str(path),
        "label_column": _int(_require(c, "label_column", f"{where}.csv"),
                             f"{where}.csv.label_column", 0),
        "num_classes": _int(_require(c, "num_classes", f"{where}.csv"),
                            f"{where}.csv.num_classes", 2),
        "has_header": c.get("has_header", False),
    }
    if not isinstance(spec["has_header"], bool):
        raise ConfigError(f"{where}.csv.has_header: expected true or false, "
                          f"got {spec['has_header']!r}")
    return DatasetConfig(csv=spec)


@dataclass(frozen=True)
class SdpExperiment:
    name: str
    pipeline: PipelineSpec
    arrivals: ArrivalSchedule
    seed: int
    dataset: ClassVar[None] = None  # a pipeline reads no dataset


def parse_sdp(
    doc: dict, seed_override: int | None = None, config_dir: Path | None = None
) -> SdpExperiment:
    """`config_dir` is unused, as a pipeline names no file; every parse_* takes it."""
    _check_object(doc, {"name", "seed", "source_topic", "arrivals", "stages"}, "top level")
    name = _str(_require(doc, "name", "top level"), "name")
    seed = resolve_seed(doc.get("seed"), seed_override)
    source = _str(_require(doc, "source_topic", "top level"), "source_topic")

    arrivals_doc = _require(doc, "arrivals", "top level")
    _check_object(arrivals_doc, {"count", "interval_ms", "times_ms"}, "arrivals")
    if "times_ms" in arrivals_doc:
        if len(arrivals_doc) > 1:
            raise ConfigError("arrivals: times_ms excludes count and interval_ms")
        times = arrivals_doc["times_ms"]
        if not isinstance(times, list):
            raise ConfigError(f"arrivals.times_ms: expected an array of times, got {times!r}")
        schedule = {"times_ms": tuple(_num(t, f"arrivals.times_ms[{i}]", 0.0)
                                      for i, t in enumerate(times))}
    else:
        schedule = {
            "count": _int(_require(arrivals_doc, "count", "arrivals"), "arrivals.count", 1),
            "interval_ms": _num(_require(arrivals_doc, "interval_ms", "arrivals"),
                                "arrivals.interval_ms"),
        }
    try:
        arrivals = ArrivalSchedule(**schedule)
    except ValueError as exc:
        raise ConfigError(f"arrivals: {exc}") from None

    stages_doc = _require(doc, "stages", "top level")
    if not isinstance(stages_doc, list) or not stages_doc:
        raise ConfigError("stages: expected a non-empty array")
    stages = []
    for i, s in enumerate(stages_doc):
        where = f"stages[{i}]"
        _check_object(
            s,
            {"name", "node", "input_topic", "output_topic", "service_ms",
             "service_uniform_ms", "kind", "servers", "cold_start_ms",
             "cold_idle_threshold_ms"},
            where,
        )
        if ("service_ms" in s) == ("service_uniform_ms" in s):
            raise ConfigError(f"{where}: exactly one of service_ms or service_uniform_ms")
        if "service_ms" in s:
            service = Constant(_num(s["service_ms"], f"{where}.service_ms", 0.0))
        else:
            service = Uniform(*_range(s["service_uniform_ms"], f"{where}.service_uniform_ms"))
        output = s.get("output_topic")
        fields = dict(
            name=_str(_require(s, "name", where), f"{where}.name"),
            node=_str(_require(s, "node", where), f"{where}.node"),
            input_topic=_str(_require(s, "input_topic", where), f"{where}.input_topic"),
            output_topic=None if output is None else _str(output, f"{where}.output_topic"),
            service=service,
            kind=s.get("kind", "process"),
            servers=_int(s.get("servers", 1), f"{where}.servers", 1),
            cold_start_ms=_num(s.get("cold_start_ms", 0.0), f"{where}.cold_start_ms", 0.0),
            cold_idle_threshold_ms=_num(s.get("cold_idle_threshold_ms", 0.0),
                                        f"{where}.cold_idle_threshold_ms", 0.0),
        )
        try:  # only StageSpec's own checks lack a field name
            stages.append(StageSpec(**fields))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    try:
        pipeline = PipelineSpec(name=name, source_topic=source, stages=tuple(stages))
    except ValueError as exc:
        raise ConfigError(f"stages: {exc}") from None
    return SdpExperiment(name=name, pipeline=pipeline, arrivals=arrivals, seed=seed)


@dataclass(frozen=True)
class DistTrainExperiment:
    layer_sizes: tuple[int, ...]
    activation: str
    learning_rate: float
    epochs: int
    workers: int
    seed: int
    dataset: DatasetConfig


def _activation(doc: dict) -> str:
    name = _str(doc.get("activation", "sigmoid"), "activation")
    if name not in HIDDEN_ACTIVATIONS:
        raise ConfigError(f"activation: expected one of {list(HIDDEN_ACTIVATIONS)}, got {name!r}")
    return name


def _parse_layers(doc: dict, where: str = "layers") -> tuple[int, ...]:
    layers = _require(doc, "layers", "top level")
    if not isinstance(layers, list) or len(layers) < 2:
        raise ConfigError(f"{where}: expected an array of at least two layer sizes")
    return tuple(_int(v, f"{where}[{i}]", 1) for i, v in enumerate(layers))


def parse_dist_train(
    doc: dict, seed_override: int | None = None, config_dir: Path | None = None
) -> DistTrainExperiment:
    _check_object(
        doc, {"layers", "activation", "lr", "epochs", "workers", "seed", "dataset"}, "top level"
    )
    learning_rate = _num(_require(doc, "lr", "top level"), "lr")
    if not learning_rate > 0:
        raise ConfigError(f"lr: must be > 0, got {learning_rate}")
    return DistTrainExperiment(
        layer_sizes=_parse_layers(doc),
        activation=_activation(doc),
        learning_rate=learning_rate,
        epochs=_int(_require(doc, "epochs", "top level"), "epochs", 1),
        workers=_int(_require(doc, "workers", "top level"), "workers", 1),
        seed=resolve_seed(doc.get("seed"), seed_override),
        dataset=parse_dataset(_require(doc, "dataset", "top level"), config_dir=config_dir),
    )


@dataclass(frozen=True)
class FlExperiment:
    config: FlConfig
    stragglers: StragglerModel
    dataset: DatasetConfig

    @property
    def seed(self) -> int:
        return self.config.seed


def parse_fl(
    doc: dict, seed_override: int | None = None, config_dir: Path | None = None
) -> FlExperiment:
    _check_object(
        doc,
        {"mode", "clients", "rounds", "samples_per_round", "local_epochs", "lr",
         "interval_ms", "staleness_bound", "straggler_p", "straggler_delay_ms",
         "layers", "activation", "seed", "dataset"},
        "top level",
    )
    mode = _str(_require(doc, "mode", "top level"), "mode")
    if mode not in ("sync", "async"):
        raise ConfigError(f"mode: expected 'sync' or 'async', got {mode!r}")
    seed = resolve_seed(doc.get("seed"), seed_override)
    interval = _num(doc.get("interval_ms", 60_000), "interval_ms")
    if mode == "async" and not interval > 0:
        raise ConfigError(f"interval_ms: async mode needs > 0, got {interval}")
    # every field is checked here, so FlConfig and StragglerModel cannot reject it
    config = FlConfig(
        mode=mode,
        num_clients=_int(_require(doc, "clients", "top level"), "clients", 1),
        rounds=_int(_require(doc, "rounds", "top level"), "rounds", 1),
        layer_sizes=_parse_layers(doc),
        learning_rate=_num(_require(doc, "lr", "top level"), "lr", 0.0),
        samples_per_round=_int(doc.get("samples_per_round", 60), "samples_per_round", 1),
        local_epochs=_int(doc.get("local_epochs", 1), "local_epochs", 0),
        hidden_activation=_activation(doc),
        aggregation_interval_ms=interval,
        staleness_bound=_int(doc.get("staleness_bound", 1), "staleness_bound", 0),
        seed=seed,
    )
    delay = doc.get("straggler_delay_ms")
    if isinstance(delay, list):
        delay = _range(delay, "straggler_delay_ms")
    elif delay is not None:
        delay = _num(delay, "straggler_delay_ms", 0.0)
    stragglers = StragglerModel(
        miss_probability=_num(doc.get("straggler_p", 0.0), "straggler_p", 0.0, 1.0),
        delay_ms=delay,
        seed=seed,
    )
    if mode == "sync" and not stragglers.is_zero():
        raise ConfigError("straggler_p/straggler_delay_ms require async mode")
    return FlExperiment(
        config=config,
        stragglers=stragglers,
        dataset=parse_dataset(_require(doc, "dataset", "top level"), config_dir=config_dir),
    )
