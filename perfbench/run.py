"""continuum's benchmark: one workload, one seed, end-to-end or traced metrics.

    python3 perfbench/run.py --workload fl-eval --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src. Every
measured command runs in a fresh child process (child.py) through
`continuum.cli.main` on a config generated from the seed (workloads.py).

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  setup_s      median over SETUP_REPS cold starts of import, config parse,
               dataset build and broker construction (TCP: server start too);
  wall_s       median over the CLI calls that fit in --seconds, each timed from
               the call to cli.main to its return with exit code 0;
  peak_rss_mb  median peak resident memory of those processes, read with
               wait4(), which reports the child's rusage the way
               getrusage(RUSAGE_CHILDREN) does, for that child alone.
--trace 1 alternates untraced and traced calls (tracer.py) for --seconds and
reports the per-layer metrics, including trace.overhead_s, the traced minus the
untraced median wall time.

Every call's outputs are gated: the workload's oracle (checks.py), identical
CSV SHA-256s across the calls of one seed (and between traced and untraced
calls) and `continuum replay-check` on the written manifest. A call that exits
non-zero or fails a gate counts in `failed`; failed / attempted is
failed_share. The traced run also checks that the counters in
tracer.EXACT_COUNTERS repeat exactly; a counter that does not makes the result
incorrect without failing a call. The last line of stdout is the JSON result;
the lines before it give each metric with quartiles and sample count, the
output hashes and the environment, which are also written with the spans under
.perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from tracer import EXACT_COUNTERS
from workloads import SDP_STAGES, WORKLOADS

SETUP_REPS = 9
MIN_RUNS = 3  # timed CLI calls per benchmark run, even past --seconds
MIN_TRACED_PAIRS = 2
RUN_DEADLINE_S = 165.0  # the whole benchmark run must end within 180 s
CHILD = Path(__file__).resolve().parent / "child.py"


class Runner:
    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.env["CONTINUUM_LOG"] = "off"
        cpus = os.sched_getaffinity(0)
        self.pinning = {"cpu": max(cpus), "nproc": len(cpus)}
        self.count = 0

    def spawn(self, mode: str, spec: dict) -> tuple[dict | None, float, str]:
        """Run child.py to completion; returns (result, peak RSS in MiB, error)."""
        self.count += 1
        tag = self.work / f"{self.count:03d}-{mode}"
        spec = {**spec, **self.pinning, "result": str(tag.with_suffix(".result.json"))}
        tag.with_suffix(".spec.json").write_text(json.dumps(spec))
        with tag.with_suffix(".log").open("w") as log:
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), mode, str(tag.with_suffix(".spec.json"))],
                stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=self.root,
            )
            status, usage = self._wait(proc)
        if status != 0:
            tail = tag.with_suffix(".log").read_text()[-400:]
            return None, 0.0, f"{mode} child exited with status {status}: {tail}"
        result = json.loads(Path(spec["result"]).read_text())
        return result, usage.ru_maxrss / 1024.0, ""

    def _wait(self, proc: subprocess.Popen):
        """Reap the child with wait4 (for its own rusage); kill it at the run deadline.

        The parent sleeps in select() on a pidfd rather than polling, so it takes no
        CPU from the measured child on the small machines this runs on.
        """
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(self.time_left(), 0.0))
        finally:
            os.close(pidfd)
        if not ready:
            os.kill(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode if ready else "killed at the run deadline"), usage

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


def summarize(values: list[float]) -> dict:
    """Median, quartiles and count of a sample."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


class Benchmark:
    def __init__(self, args, root: Path, spec: dict):
        self.args = args
        self.root = root
        self.workload = WORKLOADS[args.workload]
        self.spec = spec
        self.work = root / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.results = root / ".perfbench" / "results" / args.workload
        self.runner = Runner(root, self.work, time.monotonic() + RUN_DEADLINE_S)
        self.config = self.workload.make_config(args.seed)
        self.config_path = self.work / "config.json"
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def argv(self, out: Path, bus_args: tuple[str, ...]) -> list[str]:
        return [self.workload.command, str(self.config_path), "--out", str(out), *bus_args]

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def run_cli(self, out: Path, trace: bool, bus_args=None) -> tuple[dict | None, float, str]:
        """One `continuum` call: (result or None, peak RSS in MiB, error)."""
        bus_args = self.workload.bus_args if bus_args is None else bus_args
        spec = {"argv": self.argv(out, bus_args), "trace": trace, "stages": SDP_STAGES,
                "spans": str(self.results / f"seed-{self.args.seed}.spans.jsonl.gz")}
        result, rss, error = self.runner.spawn("run", spec)
        if result is None:
            return None, rss, error
        if result["exit_code"] != 0:
            return None, rss, f"continuum exited with code {result['exit_code']}"
        return result, rss, ""

    def gate_outputs(self, out: Path) -> list[str]:
        """The workload's oracle plus replay-check; train-tcp also re-runs on the sim bus."""
        try:
            if self.workload.command == "sdp-sim":
                problems = checks.check_sdp(out, self.config)
            elif self.workload.command == "fl-run":
                problems = checks.check_fl(out, self.config)
            else:
                sim_out = self.work / "sim-bus"
                _, _, error = self.run_cli(sim_out, trace=False, bus_args=())
                problems = [error] if error else checks.check_train(out, self.config, sim_out)
        except Exception as exc:  # noqa: BLE001 - malformed outputs fail the gate
            problems = [f"output check raised {exc!r}"]
        replay, _, error = self.runner.spawn("replay", {"manifest": str(out / "manifest.json")})
        if error:
            problems.append(f"replay-check: {error}")
        elif replay["exit_code"] != 0:
            problems.append(f"replay-check exited with code {replay['exit_code']}")
        return problems

    def timed_calls(self, trace_pairs: bool) -> list[tuple]:
        """CLI calls for --seconds: (kind, result, rss, hashes, out); kind is plain or traced."""
        kinds = ("plain", "traced") if trace_pairs else ("plain",)
        minimum = MIN_TRACED_PAIRS if trace_pairs else MIN_RUNS
        calls = []
        started = time.monotonic()
        durations: list[float] = []
        while True:
            rounds = len(calls) // len(kinds)
            elapsed = time.monotonic() - started
            typical = statistics.median(durations) if durations else 0.0
            if rounds >= minimum and elapsed + typical > self.args.seconds:
                break
            if rounds >= minimum and self.runner.time_left() < 3 * typical + 30:
                break
            round_start = time.monotonic()
            for kind in kinds:
                self.attempted += 1
                out = self.work / f"out-{len(calls)}"
                result, rss, error = self.run_cli(out, trace=(kind == "traced"))
                if error:
                    self.fail(f"{kind} call {len(calls)}: {error}")
                    hashes = {}
                else:
                    hashes = checks.output_hashes(out)
                    if any(c[1] is not None for c in calls):
                        shutil.rmtree(out)  # only the first good call's outputs are gated
                calls.append((kind, result, rss, hashes, out))
            durations.append(time.monotonic() - round_start)
            if self.runner.time_left() < 0:
                break
        return calls

    def gate_calls(self, calls) -> dict[str, str]:
        """Check the first good call's outputs; every other call must hash the same."""
        good = [c for c in calls if c[1] is not None]
        if not good:
            return {}
        reference = good[0]
        problems = self.gate_outputs(reference[4])
        if problems:
            for _ in good:
                self.fail("; ".join(problems))
            return reference[3]
        for kind, _result, _rss, hashes, _out in good[1:]:
            if hashes != reference[3]:
                self.fail(f"{kind} call wrote outputs with other SHA-256s than the first call")
        return reference[3]

    def end_to_end(self) -> tuple[dict, dict]:
        setups = []
        for _ in range(SETUP_REPS):
            self.attempted += 1
            spec = {"config": str(self.config_path), "command": self.workload.command,
                    "tcp": "tcp" in self.workload.bus_args}
            result, _rss, error = self.runner.spawn("setup", spec)
            if error:
                self.fail(f"setup: {error}")
            else:
                setups.append(result)
        calls = self.timed_calls(trace_pairs=False)
        hashes = self.gate_calls(calls)
        good = [c for c in calls if c[1] is not None]
        samples = {
            "wall_s": [c[1]["wall_s"] for c in good],
            "setup_s": [s["setup_s"] for s in setups],
            "peak_rss_mb": [c[2] for c in good],
        }
        env = {k: v for k, v in setups[0].items() if k != "setup_s"} if setups else {}
        report = {"samples": samples, "sha256": hashes, "environment": env}
        return {name: summarize(v) for name, v in samples.items() if v}, report

    def per_layer(self) -> tuple[dict, dict]:
        calls = self.timed_calls(trace_pairs=True)
        hashes = self.gate_calls(calls)
        plain = [c[1]["wall_s"] for c in calls if c[0] == "plain" and c[1] is not None]
        traced = [c[1] for c in calls if c[0] == "traced" and c[1] is not None]
        if not plain or not traced:
            return {}, {"sha256": hashes}
        layers = [t["layers"] for t in traced]
        for name in EXACT_COUNTERS:
            values = {layer.get(name, 0) for layer in layers}
            if len(values) > 1:  # the calls succeeded; the counter is what failed
                self.problems.append(f"exact counter {name} did not repeat: {sorted(values)}")
        names = sorted(set().union(*layers))
        stats = {name: summarize([layer.get(name, 0) for layer in layers]) for name in names}
        overhead = (statistics.median(t["wall_s"] for t in traced)
                    - statistics.median(plain))
        stats["trace.overhead_s"] = {"median": overhead, "q1": overhead, "q3": overhead,
                                     "n": len(traced)}
        report = {"sha256": hashes, "untraced_wall_s": plain,
                  "traced_wall_s": [t["wall_s"] for t in traced],
                  "exact_counters": {n: layers[0].get(n, 0) for n in EXACT_COUNTERS}}
        return stats, report

    def run(self) -> dict:
        self.work.mkdir(parents=True)
        self.results.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(self.config, indent=1))
        trace = self.args.trace == 1
        stats, report = self.per_layer() if trace else self.end_to_end()
        declared = self.spec["per_layer" if trace else "end_to_end"]
        metrics = {}
        for m in declared:
            if m["name"] in stats:
                metrics[m["name"]] = {"value": stats[m["name"]]["median"], "unit": m["unit"]}
            else:
                self.problems.append(f"metric {m['name']} was not measured")
        attempted = max(self.attempted, 1)
        correct = self.failed == 0 and not self.problems
        report.update(
            workload=self.workload.name, seed=self.args.seed, trace=self.args.trace,
            why=next(w["why"] for w in self.spec["workloads"] if w["name"] == self.workload.name),
            predicts=list(self.workload.predicts),
            git_commit=git_commit(self.root), config=self.config, stats=stats,
            attempted=attempted, failed=self.failed, problems=self.problems,
        )
        name = f"seed-{self.args.seed}{'.trace' if trace else ''}.json"
        (self.results / name).write_text(json.dumps(report, indent=1, sort_keys=True))
        self.print_report(declared, stats, report)
        return {"correct": correct, "attempted": attempted, "failed": self.failed,
                "metrics": metrics}

    def print_report(self, declared, stats, report) -> None:
        head = f"{self.workload.name} seed {self.args.seed}"
        for m in declared:
            s = stats.get(m["name"])
            if s is not None:
                print(f"{head}: {m['name']} = {s['median']:.6g} {m['unit']} "
                      f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']})")
        share = report["failed"] / report["attempted"]
        print(f"{head}: failed_share = {share:.6g} ratio "
              f"({report['failed']} of {report['attempted']} runs)")
        for problem in report["problems"][:10]:
            print(f"{head}: FAILED {problem}")
        for path, digest in sorted(report["sha256"].items()):
            print(f"{head}: sha256 {path} {digest}")
        env = report.get("environment")
        if env:
            print(f"{head}: python {env['python']}, numpy {env['numpy']}, "
                  f"blas {env['blas']['name']} {env['blas']['version']} "
                  f"({env['blas']['threads']} threads), nproc {env['nproc']}, "
                  f"measured on cpu {env['pinned_cpu']}, commit {report['git_commit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    root = Path.cwd()
    if not (root / "src" / "continuum" / "cli.py").is_file():
        print(f"{root}: no continuum sources under src/continuum; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(root / "src"))  # checks.py imports the repo's oracles
    bench = Benchmark(args, root, spec)
    try:
        result = bench.run()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
