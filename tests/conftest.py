import re
from pathlib import Path


def write_csv(dataset, path: Path) -> None:
    """Write `dataset` as `data.load_csv` reads it: the features, then the label as
    the last column, one sample a line; each float round-trips exactly."""
    with path.open("w", newline="") as fh:
        for x, y in zip(dataset.features, dataset.labels):
            fh.write(",".join(repr(float(v)) for v in x))
            fh.write(f",{int(y)}\n")


def record(bus) -> list:
    """Every envelope `bus` delivers from now on, in delivery order.

    A bus keeps nothing it carried, so a test that reads the trace subscribes a
    recorder on '#'. On the sim bus its deliveries are extra events with their own
    FIFO sequence numbers, so every other handler runs in the order it would
    without the recorder.
    """
    trace: list = []
    bus.subscribe("cloud:recorder", "#", trace.append)
    return trace


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion after the run."""
    lines: dict[int, str] = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            match = re.search(r"test_criterion_(\d+)_(\w+)", nodeid)
            if not match:
                continue
            number = int(match.group(1))
            label = match.group(2).replace("_", " ")
            status = "PASS" if outcome == "passed" else "FAIL"
            lines[number] = f"criterion {number:2d} {status}: {label}"
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for number in sorted(lines):
            terminalreporter.write_line(lines[number])
