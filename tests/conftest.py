import re


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
