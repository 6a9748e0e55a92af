"""Benchmark of ``quiverdias verify``, end to end and per layer.

    python3 bench/run.py --workload cooperad-m4 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nothing is installed.

``--trace 0`` runs the real CLI in fresh child processes with ``--workers 1``
and reports the end-to-end metrics:

* ``wall_s``: wall time of one verify child, spawn to exit (median over
  the run's children, after one untimed warm-up child), scaled to a fixed
  machine speed as below;
* ``setup_s``: wall time of a fresh process that does what the CLI does
  before its first check: interpreter start, ``import quiverdias.cli``,
  ``SweepConfig(...)`` and ``sweeps.build_tasks`` (median), scaled the same;
* ``peak_rss_mb``: ``ru_maxrss`` of one verify child, from ``os.wait4`` on
  that child alone (median).

On a shared host the speed of a core swings by up to 1.7x from one second
to the next and drifts by a third over minutes; processor time swings with
it.  Many short children steady the median within a run; the drift between
runs is taken out by a calibration child (``calibrate.py``: numpy import and
a fixed amount of pure-Python work, nothing of the program) run next to
each verify child.  Both times are multiplied by ``CALIBRATION_REF_S`` over
the run's median calibration time, so they read in seconds at the speed the
benchmark was defined at and move only when the program does.  The raw
medians are printed beside them.

``--trace 1`` alternates untraced verify children with traced passes
(``traced.py``) and reports the per-layer metrics (medians over the passes),
plus ``trace_overhead``: the median traced wall time, spawn to the return of
``cli.main``, over the median untraced wall time.  ``--workload all`` runs
every workload in both modes and prints all of their metrics.

Every verify run is gated: exit code 0, a summary record with the expected
check count and no failure, and report bytes whose sha256 equals the
reference pinned below.  A traced pass must also write the same bytes as the
untraced child of its run.  A run that fails the gate counts all of its
checks as failed; the failed share is ``failed / attempted`` in the result.

The sweeps are exhaustive, so ``--seed`` only sets the order in which the
repetitions of a run are interleaved.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# fresh set-up processes per run; their median is setup_s
SETUP_PROBES = 9
# median wall time of calibrate.py, spawn to exit, on the 2-vCPU x86-64 VM
# (Python 3.11, numpy 2.4) where the benchmark was defined
CALIBRATION_REF_S = 0.33


@dataclass(frozen=True)
class Workload:
    """One fixed ``quiverdias verify`` invocation and its pinned output."""

    name: str
    suite: str
    max_m: int
    oracle_max: int  # 0: the CLI default
    checks: int  # checks per verify run, a property of the workload
    sha256: str  # report bytes at the seed commit

    @property
    def command(self) -> list[str]:
        args = ["verify", "--suite", self.suite, "--max", str(self.max_m)]
        if self.oracle_max:
            args += ["--oracle-max", str(self.oracle_max)]
        return args + ["--workers", "1"]

    def verify_args(self, out_dir: Path) -> list[str]:
        return self.command + ["--out", str(out_dir)]

    @property
    def report_name(self) -> str:
        return f"verify-{self.suite}.jsonl"


WORKLOADS = {
    w.name: w
    for w in (
        # Sizes: a child takes under 1 s here, so a 40 s run holds 20 to 30
        # of them beside their calibration children; at m=6 and m=10 (12 s
        # and 6 s a child) a run held 3 to 6 and its median moved by a quarter
        # support calculus: clause sets, family builds, few large 4-axis
        # contracts; the oracle never runs
        Workload("cooperad-m4", "cooperad", 4, 0, 1080,
                 "27d3375934127a1b7314052c72b40cddbc807c66b6beb5588bab4b8a26646c48"),
        # class layer: nabla_k0 makes many tiny 1-axis x 3-axis contracts, so
        # per-call overhead of contract dominates; also fiber_reversal
        Workload("anticyclic-m7", "anticyclic", 7, 0, 405,
                 "3eb2b81123d0c746bdcfe998773ab75c563d637aabce9f069084949388f12214"),
        # oracle and exact elimination over GF(32003) and over Q; k=2 has
        # 72 trivial checks, so this is the smallest size (about 3 s a child)
        Workload("oracle-k3", "oracle", 3, 3, 378,
                 "f4afe9a49591bbcae13e0cc1813edc6c0b74cc31df0479f475e576437b065b06"),
        # every suite at tiny bounds, for the smoke test only
        Workload("smoke", "all", 2, 0, 135,
                 "e109685b60fbad802a20401911351fab454942d34c3370f65ec44fd1fb514efd"),
    )
}
BENCHMARK_WORKLOADS = ("cooperad-m4", "anticyclic-m7", "oracle-k3")

class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("QUIVERDIAS_OUT", None)
    return env


def spawn(argv: list[str], log: Path) -> tuple[int, float, float]:
    """Run a child to exit; returns (exit code, wall seconds, peak RSS MB)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    # the child is reaped; tell Popen so it does not wait again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, workload: Workload, seed: int, seconds: int, work: Path) -> None:
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.walls: list[float] = []
        self.rss: list[float] = []
        self.setups: list[float] = []
        self.calibrations: list[float] = []
        self.traced_walls: list[float] = []
        self.traced: list[dict] = []
        self.info: dict = {}
        self.n = 0

    def _gate(self, code: int, report: Path, log: Path, label: str) -> bytes | None:
        """Check one verify run; returns its report bytes, or None if it
        failed, in which case all of its checks count as failed."""
        self.attempted += self.w.checks
        problems = []
        data = report.read_bytes() if report.is_file() else b""
        if code != 0:
            problems.append(f"exit code {code}")
        if not data:
            problems.append("no report file")
        else:
            last = data.rstrip(b"\n").rsplit(b"\n", 1)[-1]
            try:
                summary = json.loads(last)
            except ValueError:
                summary = {}
            if summary != {"record": "summary", "total": self.w.checks,
                           "passed": self.w.checks, "failed": 0}:
                problems.append(f"summary {last[:200]!r}")
            digest = hashlib.sha256(data).hexdigest()
            if digest != self.w.sha256:
                problems.append(f"report sha256 {digest} != reference {self.w.sha256}")
        if problems:
            self.failed += self.w.checks
            tail = log.read_text(errors="replace")[-2000:] if log.is_file() else ""
            print(f"GATE FAILED ({label}): {'; '.join(problems)}\n{tail}", file=sys.stderr)
            return None
        return data

    def _fresh_dir(self) -> Path:
        self.n += 1
        d = self.work / f"r{self.n}"
        d.mkdir(parents=True)
        return d

    def verify(self, record: bool = True) -> bytes | None:
        d = self._fresh_dir()
        argv = [sys.executable, "-m", "quiverdias.cli", *self.w.verify_args(d)]
        code, wall, rss = spawn(argv, d / "log.txt")
        data = self._gate(code, d / self.w.report_name, d / "log.txt", "verify")
        if record:
            self.walls.append(wall)
            self.rss.append(rss)
        return data

    def calibrate(self) -> None:
        log = self._fresh_dir() / "log.txt"
        status, wall, _ = spawn([sys.executable, str(BENCH_DIR / "calibrate.py")], log)
        if status != 0:
            raise BenchError(f"calibration child failed (exit {status})")
        self.calibrations.append(wall)

    def setup(self, record: bool = True) -> float:
        w = self.w
        code = (
            "import quiverdias.cli\n"
            "from quiverdias import sweeps\n"
            f"config = sweeps.SweepConfig(suite={w.suite!r}, max_m={w.max_m}, "
            f"oracle_max={w.oracle_max}, workers=1)\n"
            "print(len(sweeps.build_tasks(config)))\n"
        )
        log = self._fresh_dir() / "log.txt"
        status, wall, _ = spawn([sys.executable, "-c", code], log)
        out = log.read_text().strip()
        if status != 0 or out != str(w.checks):
            raise BenchError(f"set-up probe failed (exit {status}): {out[-2000:]}")
        if record:
            self.setups.append(wall)
        return wall

    def traced_pass(self) -> bytes | None:
        d = self._fresh_dir()
        result = d / "traced.json"
        spans = OUT / f"spans-{self.w.name}-seed{self.seed}.jsonl"
        argv = [sys.executable, str(BENCH_DIR / "traced.py"), "--result", str(result),
                "--spans", str(spans), "--", *self.w.verify_args(d)]
        start = time.monotonic()
        code, _, _ = spawn(argv, d / "log.txt")
        doc = json.loads(result.read_text()) if code == 0 and result.is_file() else {}
        data = self._gate(doc.get("exit_code", code or 1), d / self.w.report_name,
                          d / "log.txt", "traced")
        if doc:
            self.traced_walls.append(doc["main_return"] - start)
            self.traced.append(doc["metrics"])
            self.info = doc["info"]
        return data

    def untraced(self) -> dict:
        deadline = time.perf_counter() + self.seconds
        per_setup = self.setup(record=False)  # compiles bytecode, warms the file cache
        # warm-up child: fills the file cache and sizes the schedule; not recorded
        start = time.perf_counter()
        self.verify(record=False)
        self.calibrate()
        per_pair = time.perf_counter() - start
        # fill the run up to its deadline; the seed orders the probes among the
        # verify runs and which of a pair, verify or calibration, goes first
        rng = random.Random(self.seed)
        left = deadline - time.perf_counter() - SETUP_PROBES * per_setup
        # twice the pairs that fit at the warm-up's pace, as the machine's pace
        # changes; each runs only if time is left when its turn comes
        schedule = ["pair"] * max(1, 2 * int(left // per_pair) + 1) + ["setup"] * SETUP_PROBES
        rng.shuffle(schedule)
        for item in schedule:
            if item == "setup":
                self.setup()
            elif not self.walls or (time.perf_counter() + statistics.median(self.walls)
                                    + statistics.median(self.calibrations) <= deadline):
                for step in rng.sample([self.verify, self.calibrate], 2):
                    step()
        scale = CALIBRATION_REF_S / statistics.median(self.calibrations)
        return {
            "wall_s": (statistics.median(self.walls) * scale, "s"),
            "setup_s": (statistics.median(self.setups) * scale, "s"),
            "peak_rss_mb": (statistics.median(self.rss), "MB"),
        }

    def traced_run(self) -> dict:
        start = time.perf_counter()
        rng = random.Random(self.seed)
        self.setup(record=False)
        while True:
            t0 = time.perf_counter()
            out = {item: self.verify() if item == "verify" else self.traced_pass()
                   for item in rng.sample(["verify", "traced"], 2)}
            if None not in out.values() and out["verify"] != out["traced"]:
                print("GATE FAILED (traced): report bytes differ from the untraced run",
                      file=sys.stderr)
                self.failed += self.w.checks
            pair = time.perf_counter() - t0
            if not self.traced or time.perf_counter() - start + pair > self.seconds:
                break
        metrics = {}
        for name, first in self.traced[0].items() if self.traced else ():
            values = [t[name]["value"] for t in self.traced]
            metrics[name] = (statistics.median(values), first["unit"])
        walls = statistics.median(self.walls) if self.walls else 0.0
        traced = statistics.median(self.traced_walls) if self.traced_walls else 0.0
        metrics["trace_overhead"] = (traced / walls if walls else 0.0, "ratio")
        return metrics


def measure(workload: Workload, seed: int, seconds: int, trace: bool) -> tuple[dict, Run]:
    """One run of one workload; returns ({metric: (value, unit)}, run)."""
    work = OUT / f"work-{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(workload, seed, seconds, work)
    try:
        metrics = run.traced_run() if trace else run.untraced()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return metrics, run


def environment() -> str:
    return (f"nproc {len(os.sched_getaffinity(0))}, python {platform.python_version()}, "
            f"numpy {metadata.version('numpy')}")


def print_run(workload: Workload, run: Run, metrics: dict, trace: bool) -> None:
    mode = "traced" if trace else "untraced"
    print(f"workload {workload.name} ({mode}): quiverdias "
          f"{' '.join(workload.command)}; {workload.checks} checks per run")
    print(f"  verify runs: {len(run.walls)}; set-up probes: {len(run.setups)}; "
          f"traced passes: {len(run.traced)}; checks attempted {run.attempted}, failed {run.failed}")
    if run.calibrations:
        print(f"  raw medians: verify wall {statistics.median(run.walls):.4f} s, set-up "
              f"{statistics.median(run.setups):.4f} s, calibration {statistics.median(run.calibrations):.4f} s "
              f"(reference {CALIBRATION_REF_S} s)")
    if run.info:
        print(f"  run_task tail percentile: p{run.info['tail_pct']:g} of {run.info['checks']} checks")
        print("  share of traced time by layer (self time): "
              + ", ".join(f"{k} {v:.3f}" for k, v in run.info["layer_share"].items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark of quiverdias verify")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        plan = [(WORKLOADS[n], t) for n in BENCHMARK_WORKLOADS for t in (False, True)]
    else:
        plan = [(WORKLOADS[args.workload], bool(args.trace))]
    if not (SRC / "quiverdias" / "cli.py").is_file():
        print(f"error: no quiverdias sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    print(f"seed {args.seed}; seconds {args.seconds}; {environment()}")
    attempted = failed = 0
    combined = {}
    try:
        for workload, trace in plan:
            load_before = " ".join(f"{x:.2f}" for x in os.getloadavg())
            metrics, run = measure(workload, args.seed, args.seconds, trace)
            load_after = " ".join(f"{x:.2f}" for x in os.getloadavg())
            print(f"load average before {load_before}, after {load_after}")
            print_run(workload, run, metrics, trace)
            attempted += run.attempted
            failed += run.failed
            prefix = f"{workload.name}." if len(plan) > 1 else ""
            combined.update({prefix + k: v for k, v in metrics.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result_line(failed == 0 and attempted > 0, attempted, failed, combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
