"""Benchmark of `kmeasure verify`: end to end, or per layer with --trace 1.

Run from the repository root:

    python3 perfbench/run.py --workload suite-parallel --seed 0 --seconds 60 --trace 0

With ``--trace 0`` the run is a closed loop of one CLI subprocess at a
time, ``PYTHONPATH=src python -m kmeasure.cli verify ...``, for the given
number of seconds.  Each workload invocation follows three invocations of
the same command at ``--qcap 0`` (the set-up cost: interpreter start,
imports, task list and pool start), so that both see the same host speed.
Wall time is taken around each subprocess and CPU time and peak RSS from
``RUSAGE_CHILDREN``.

With ``--trace 1`` the run calls ``kmeasure.cli.main`` in-process: one
untraced pass at the workload's ``--jobs`` for the pool numbers, then pairs
of an untraced and a traced ``--jobs 1`` pass (at least two pairs) until
the time is up.  Every count that
is marked exact in ``tracing.py`` must agree between the traced passes.

Every output, traced or not, goes through the output gate: the JSON report
minus ``elapsed_ms``, and the exit status, must equal the report recorded
in ``perfbench/expected`` from the commit that defined the benchmark.  A mismatch, a crash or a
timeout marks every check of that invocation as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the host context of the run (calibration loop time, load average,
steal ticks, core count, Python version, every invocation's raw times),
which is not a metric.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# name -> (q-order, --jobs, --identity filter, whether the seed picks --k)
WORKLOADS = {
    "suite-serial": (30, 1, None, True),
    "suite-parallel": (30, 2, None, True),
    "algebra-q40": (40, 1, "product-form", True),
    "oracle-q44": (44, 1, "durfee-equidistribution", False),
}
DEFAULT_KS = [1, 2, 3, 4, 5]
ALL_KS = range(1, 8)
# Expected reports are recorded at each workload's q-order, at q-order 0 for
# the set-up command, and at this tiny q-order for the smoke test.
SMOKE_QCAP = 6
SETUPS_PER_INVOCATION = 3
# A run starts no invocation after its time is up, so with 60-s runs a
# hung invocation still lets the run end within three minutes.
INVOCATION_TIMEOUT_S = 100
MIN_TRACED_PASSES = 2

UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "checks_passed_ratio": "ratio",
}


def seed_ks(seed: int) -> list[int]:
    """Seed 0 is the documented default; any other seed draws five distinct
    k from 1..7 in a seeded order."""
    if seed == 0:
        return list(DEFAULT_KS)
    return random.Random(seed).sample(ALL_KS, 5)


def verify_args(workload: str, ks, qcap: int, jobs: int | None = None) -> list[str]:
    _, default_jobs, identity, uses_k = WORKLOADS[workload]
    args = ["verify", "--qcap", str(qcap), "--jobs", str(jobs or default_jobs),
            "--format", "json"]
    if identity is not None:
        args += ["--identity", identity]
    if uses_k:
        args += ["--k", ",".join(map(str, ks))]
    return args


# ------------------------------------------------------------ output gate


def expected_name(workload: str, qcap: int) -> str:
    identity = WORKLOADS[workload][2] or "suite"
    return f"{identity}-q{qcap}.json"


class Gate:
    """The expected report of one command, from a recording over k = 1..7."""

    def __init__(self, workload: str, qcap: int, ks):
        recorded = json.loads((EXPECTED_DIR / expected_name(workload, qcap)).read_text())
        wanted = set(ks) if WORKLOADS[workload][3] else set(DEFAULT_KS)
        self.exit_status = recorded["exit_status"]
        self.reports = [r for r in recorded["reports"] if r["k"] is None or r["k"] in wanted]

    @property
    def checks(self) -> int:
        return len(self.reports)

    def passes(self, exit_status: int | None, stdout: str) -> bool:
        if exit_status != self.exit_status:
            return False
        try:
            reports = json.loads(stdout)
        except ValueError:
            return False
        if not isinstance(reports, list) or not all(isinstance(r, dict) for r in reports):
            return False
        return [strip_timing(r) for r in reports] == self.reports


def strip_timing(report: dict) -> dict:
    return {key: value for key, value in report.items() if key != "elapsed_ms"}


class Tally:
    """Checks attempted and failed, counted through the gate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, gate: Gate, ok: bool):
        self.attempted += gate.checks
        if not ok:
            self.failed += gate.checks


# ------------------------------------------------------ end-to-end runs


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("KMEASURE_JOBS", None)
    return env


def child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def invoke(args: list[str]) -> tuple[float, float, int | None, str]:
    """One CLI process (and its pool), timed from outside.

    Returns wall seconds, CPU seconds of the process tree, the exit status
    (None on timeout) and standard output.
    """
    cpu0 = child_cpu_s()
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "kmeasure.cli", *args],
        cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=INVOCATION_TIMEOUT_S)
        status = proc.returncode
    except subprocess.TimeoutExpired:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        stdout, _ = proc.communicate()
        status = None
    wall = perf_counter() - start
    return wall, child_cpu_s() - cpu0, status, stdout


def run_end_to_end(workload, ks, seconds, qcap):
    """Closed loop of set-up and workload invocations until `seconds` pass."""
    gate = Gate(workload, qcap, ks)
    setup_gate = Gate(workload, 0, ks)
    args = verify_args(workload, ks, qcap)
    setup_args = verify_args(workload, ks, 0)
    tally = Tally()
    times = {"wall_s": [], "cpu_s": [], "setup_s": []}

    def measured(command, command_gate):
        wall, cpu, status, stdout = invoke(command)
        tally.record(command_gate, command_gate.passes(status, stdout))
        return wall, cpu

    measured(setup_args, setup_gate)  # warm-up: bytecode caches, file cache
    start = perf_counter()
    while True:
        cycle = perf_counter()
        for _ in range(SETUPS_PER_INVOCATION):
            times["setup_s"].append(measured(setup_args, setup_gate)[0])
        wall, cpu = measured(args, gate)
        times["wall_s"].append(wall)
        times["cpu_s"].append(cpu)
        now = perf_counter()
        if now - start + (now - cycle) / 2 > seconds:
            break
    metrics = {name: statistics.median(values) for name, values in times.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics["checks_passed_ratio"] = 1 - tally.failed / tally.attempted
    return tally, {name: {"value": metrics[name], "unit": unit} for name, unit in UNITS.items()}, times


# ------------------------------------------------------------ traced runs


def in_process(args: list[str]) -> tuple[float, int | None, str]:
    """One call of ``kmeasure.cli.main``; a crash gives exit status None,
    which the output gate counts as a failure."""
    from kmeasure import cli

    out = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            status = cli.main(args)
    except Exception:
        traceback.print_exc()
        status = None
    return perf_counter() - start, status, out.getvalue()


def pool_pass(args: list[str]):
    """Untraced pass; times run_suite only, which runs in this process even
    when the checks run in pool workers."""
    from kmeasure import identities

    real = identities.run_suite
    suite_walls = []

    def timed(tasks, jobs=1):
        start = perf_counter()
        try:
            return real(tasks, jobs=jobs)
        finally:
            suite_walls.append(perf_counter() - start)

    identities.run_suite = timed
    try:
        wall, status, stdout = in_process(args)
    finally:
        identities.run_suite = real
    return status, stdout, suite_walls[0] if suite_walls else wall


def run_traced(workload, ks, seconds, qcap):
    sys.path.insert(0, str(SRC))
    from tracing import EXACT, Tracer, layer_metrics

    gate = Gate(workload, qcap, ks)
    tally = Tally()
    start = perf_counter()
    jobs = WORKLOADS[workload][1]

    def gated(status, stdout):
        ok = gate.passes(status, stdout)
        tally.record(gate, ok)
        return ok

    status, stdout, suite_wall = pool_pass(verify_args(workload, ks, qcap))
    check_s = 0.0
    if gated(status, stdout):
        check_s = sum(r["elapsed_ms"] for r in json.loads(stdout)) / 1000

    serial_args = verify_args(workload, ks, qcap, jobs=1)
    passes, traced_walls, untraced_walls = [], [], []
    while True:
        wall, status, stdout = in_process(serial_args)
        gated(status, stdout)
        untraced_walls.append(wall)
        tracer = Tracer()
        tracer.install()
        try:
            wall, status, stdout = in_process(serial_args)
        finally:
            tracer.uninstall()
        gated(status, stdout)
        passes.append(layer_metrics(tracer.spans))
        traced_walls.append(wall)
        pair_s = untraced_walls[-1] + traced_walls[-1]
        if len(passes) >= MIN_TRACED_PASSES and perf_counter() - start + pair_s > seconds:
            break

    inexact = [name for name in EXACT if len({p[name] for p in passes}) != 1]
    for name in inexact:
        print(f"exactness check failed: {name} = {[p[name] for p in passes]}", file=sys.stderr)
    metrics = {name: passes[0][name] if name in EXACT else statistics.median(p[name] for p in passes)
               for name in passes[0]}
    metrics["identities.run_suite.overhead_s"] = suite_wall - check_s / jobs
    metrics["identities.pool.utilization"] = check_s / (jobs * suite_wall)
    metrics["identities.pool.idle_s"] = jobs * suite_wall - check_s
    metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(untraced_walls)
    return tally, inexact, {name: {"value": v, "unit": layer_unit(name)} for name, v in metrics.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name == "identities.pool.utilization":
        return "ratio"
    if name.endswith("_rate"):
        return "1/s"
    if name.endswith("_bits"):
        return "bit"
    return "count"


# ------------------------------------------------------------ host context


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop (tuple-keyed dict updates and
    integer products, like the series arithmetic): the host's speed."""
    times = []
    for _ in range(3):
        start = perf_counter()
        acc = {}
        for i in range(30_000):
            key = (i % 61, i % 7)
            acc[key] = acc.get(key, 0) + i * 1_000_003
        times.append(perf_counter() - start)
    return statistics.median(times)


def steal_ticks() -> int | None:
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def load_average() -> str | None:
    try:
        with open("/proc/loadavg") as f:
            return f.read().strip()
    except OSError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--qcap", type=int, default=None,
                        help="override the workload's q-order (the smoke test uses a tiny one)")
    args = parser.parse_args(argv)

    if not (SRC / "kmeasure" / "cli.py").is_file():
        print(f"error: no kmeasure sources under {SRC}", file=sys.stderr)
        return 2
    qcap = WORKLOADS[args.workload][0] if args.qcap is None else args.qcap
    ks = seed_ks(args.seed)
    context = {
        "workload": args.workload, "seed": args.seed, "ks": ks, "qcap": qcap,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "loadavg_before": load_average(),
    }
    steal_before = steal_ticks()
    calibration_before = calibration_s()
    if args.trace:
        tally, inexact, metrics = run_traced(args.workload, ks, args.seconds, qcap)
    else:
        tally, metrics, context["invocations_s"] = run_end_to_end(
            args.workload, ks, args.seconds, qcap)
        inexact = []
    context["calibration_s"] = {"before": calibration_before, "after": calibration_s()}
    steal_after = steal_ticks()
    context["loadavg_after"] = load_average()
    context["steal_ticks"] = None if steal_before is None else steal_after - steal_before
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": tally.failed == 0 and not inexact,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
