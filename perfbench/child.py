"""One measured process: `python3 child.py <setup|run|replay> <spec.json>`.

The parent writes the spec (paths, CLI arguments, flags) and reads back the
result this process writes to spec["result"]. Nothing from continuum is
imported before the timed region of `setup`, so that mode times a cold start.

The process pins itself to the one CPU named in the spec. On a small shared
machine that removes scheduler migrations and, on the TCP bus, the cross-core
wake-ups between the bus threads, which otherwise spread wall times by 10-15%
between identical runs; every workload is measured on one core.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path


def _blas() -> dict:
    """Name, version and thread count of the BLAS numpy loaded."""
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "blas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads,
            "library": sorted(libs)}


def setup(spec: dict) -> dict:
    """Work before the first publish: import, parse, dataset build, broker construction."""
    start = time.perf_counter()
    from continuum import bus, configs, tcp

    config_path = Path(spec["config"])
    doc = json.loads(config_path.read_text())
    command = spec["command"]
    if command == "sdp-sim":
        configs.parse_sdp(doc)
    else:
        parse = configs.parse_fl if command == "fl-run" else configs.parse_dist_train
        parse(doc, None, config_path.parent).dataset.build()
    server = None
    if spec["tcp"]:
        server = tcp.TcpBrokerServer(port=0)
        tcp.TcpBus(port=server.port)
    else:
        bus.SimBroker()
    elapsed = time.perf_counter() - start
    if server is not None:
        server.close()

    import numpy as np

    return {
        "setup_s": elapsed,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": spec["nproc"],
        "pinned_cpu": spec["cpu"],
        "continuum": str(Path(bus.__file__).resolve().parent),
    }


def run(spec: dict) -> dict:
    """One `continuum` command through cli.main, optionally traced."""
    from continuum import cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    code = cli.main(spec["argv"])
    wall = time.perf_counter() - start
    result = {"exit_code": code, "wall_s": wall}
    if tracer is not None:
        result["layers"] = tracer.metrics(tuple(spec["stages"]))
        tracer.write_spans(Path(spec["spans"]))
    return result


def replay(spec: dict) -> dict:
    from continuum import cli

    return {"exit_code": cli.main(["replay-check", spec["manifest"]])}


def main() -> None:
    mode, spec_path = sys.argv[1], Path(sys.argv[2])
    spec = json.loads(spec_path.read_text())
    # Pinned before numpy loads, so OpenBLAS starts one thread for the one CPU.
    os.sched_setaffinity(0, {spec["cpu"]})
    result = {"setup": setup, "run": run, "replay": replay}[mode](spec)
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
