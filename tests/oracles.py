"""Oracles that judge continuum's runs from outside the code they check."""

from __future__ import annotations

import numpy as np

from continuum import wire
from continuum.bus import Envelope
from continuum.data import Dataset
from continuum.federated import GLOBAL_TOPIC, UPDATE_TOPIC

_GLOBAL_KEYS = frozenset({"type", "round", "params"})
_UPDATE_KEYS = frozenset({"type", "client_id", "base_round", "params", "sample_count"})


def privacy_violations(
    envelopes: list[Envelope], dataset: Dataset | None = None, sample_rows: int = 64
) -> list[str]:
    """Structural scan of an FL trace: parameters and counts only, no raw data.

    Checks every published envelope's header keys against the two wire schemas
    and that its `params` field is a float64 vector, and, when a dataset is
    given, searches every raw payload for the bytes of sampled feature rows.
    Reports every problem; raises on none.
    """
    issues: list[str] = []
    for env in envelopes:
        if env.topic == GLOBAL_TOPIC:
            allowed = _GLOBAL_KEYS
        elif env.topic == UPDATE_TOPIC:
            allowed = _UPDATE_KEYS
        else:
            issues.append(f"msg {env.msg_id}: unexpected topic {env.topic!r} in an FL run")
            continue
        try:
            msg = wire.unpack(env.payload)
        except ValueError as exc:
            issues.append(f"msg {env.msg_id}: payload is not a JSON header plus blobs: {exc}")
            continue
        if set(msg) != allowed:
            issues.append(
                f"msg {env.msg_id} on {env.topic}: keys {sorted(msg)} != {sorted(allowed)}"
            )
        elif not (isinstance(msg["params"], np.ndarray) and msg["params"].dtype == np.float64
                  and msg["params"].ndim == 1):
            issues.append(f"msg {env.msg_id} on {env.topic}: params is not a float64 vector")
    if dataset is not None:
        step = max(1, len(dataset) // sample_rows)
        for i in range(0, len(dataset), step):
            row = np.ascontiguousarray(dataset.features[i], dtype="<f8").tobytes()
            if any(row in env.payload for env in envelopes):
                issues.append(f"raw bytes of sample {i} appear in a published payload")
    return issues
