"""CLI contract: exit codes, formats, determinism."""

import errno
import json
import os
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from kmeasure.cli import main
from kmeasure.partitions import consecutive_runs, durfee, enumerate_partitions, kmeasure


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_small_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--qcap", "6", "--k", "1,2", "--jobs", "1")
    assert code == 0
    summary = out.strip().splitlines()[-1]
    passed, total = summary.split()[0].split("/")
    assert passed == total and int(total) > 0


def test_verify_plain_output_is_deterministic(capsys):
    args = ("verify", "--qcap", "5", "--k", "2", "--jobs", "1")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_verify_json_reports(capsys):
    code, out, _ = run(
        capsys, "verify", "--qcap", "5", "--k", "2", "--jobs", "1",
        "--identity", "sum-form", "--format", "json",
    )
    assert code == 0
    reports = json.loads(out)
    assert {r["name"] for r in reports} == {"sum-form[all]", "sum-form[distinct]"}
    assert all(r["passed"] for r in reports)
    assert all("elapsed_ms" in r for r in reports)


def test_verify_csv_has_no_timing(capsys):
    code, out, _ = run(
        capsys, "verify", "--qcap", "5", "--k", "2", "--jobs", "1", "--format", "csv"
    )
    assert code == 0
    header = out.splitlines()[0]
    assert header == "name,k,qcap,zcap,passed,first_failure"
    assert "elapsed" not in out


def test_verify_identity_filter(capsys):
    code, out, _ = run(
        capsys, "verify", "--qcap", "8", "--k", "3", "--jobs", "1",
        "--identity", "qdiff", "--format", "csv",
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 2
    assert all(row.startswith("qdiff[") for row in rows)


def test_verify_durfee_equidistribution_at_order_80(capsys):
    # q-order 80 is reachable only by the counting oracle, not by enumeration
    code, out, _ = run(
        capsys, "verify", "--qcap", "80", "--k", "2", "--jobs", "1",
        "--identity", "durfee-equidistribution",
    )
    assert code == 0
    assert out.strip().splitlines()[-1].split()[0] == "1/1"


# The reports the benchmark's output gate compares every run against,
# recorded as (exit status, JSON reports minus elapsed_ms) per command.
# Read only: the records pin the output, they are never rewritten here.
RECORDS = Path(__file__).resolve().parent.parent / "perfbench" / "expected"


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("identity, qcap", [
    (identity, qcap)
    for identity, workload_qcap in (
        ("suite", 30), ("product-form", 40), ("durfee-equidistribution", 44)
    )
    for qcap in (0, 6, workload_qcap)
])
def test_verify_matches_the_benchmark_records(capsys, identity, qcap, jobs):
    recorded = json.loads((RECORDS / f"{identity}-q{qcap}.json").read_text())
    args = ["verify", "--qcap", str(qcap), "--jobs", jobs, "--format", "json"]
    if identity != "suite":
        args += ["--identity", identity]
    if identity != "durfee-equidistribution":  # recorded at the default ks
        args += ["--k", "1,2,3,4,5,6,7"]
    code, out, _ = run(capsys, *args)
    reports = [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in json.loads(out)]
    assert {"exit_status": code, "reports": reports} == recorded


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_verify_runs_a_repeated_k_once(monkeypatch, capsys, fmt):
    import kmeasure.identities as identities

    monkeypatch.setattr(identities, "perf_counter", lambda: 0.0)  # JSON timings read 0
    args = ("verify", "--qcap", "6", "--jobs", "1", "--format", fmt, "--k")
    assert run(capsys, *args, "2,2") == run(capsys, *args, "2")


def test_verify_unknown_identity_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--identity", "nosuch")
    assert code == 2
    assert "no identity matches" in err


def test_verify_parallel_jobs(capsys):
    code, out, _ = run(
        capsys, "verify", "--qcap", "5", "--k", "2", "--jobs", "2", "--format", "csv"
    )
    assert code == 0
    assert "False" not in out


def test_stats_plain(capsys):
    code, out, _ = run(capsys, "stats", "4,3,1", "--k", "1,2,3")
    assert code == 0
    assert "size:      8" in out
    assert "length:    3" in out
    assert "durfee:    2" in out
    assert "measure k=1: 3" in out
    assert "measure k=2: 2" in out


def test_stats_empty_partition(capsys):
    code, out, _ = run(capsys, "stats", "")
    assert code == 0
    assert "size:      0" in out
    assert "measure k=1: 0" in out


def test_stats_json(capsys):
    code, out, _ = run(capsys, "stats", "5,3,1", "--k", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["partition"] == [5, 3, 1]
    assert data["measures"] == {"2": 3}


CLI_RECORDS = Path(__file__).resolve().parent / "cli_records"


@pytest.mark.parametrize("fmt", ["plain", "json"])
@pytest.mark.parametrize("parts", ["4,3,1", "", "7,7,2,1", "12,9,9,5,4,4,1"])
def test_stats_matches_its_record_byte_for_byte(capsys, parts, fmt):
    code, out, _ = run(capsys, "stats", parts, "--k", "1,2,3,7", "--format", fmt)
    name = parts.replace(",", "-") or "empty"
    assert code == 0
    assert out == (CLI_RECORDS / f"stats-{name}.{fmt}").read_text()


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
@pytest.mark.parametrize("pair", ["mu2-durfee", "muk-length", "sylvester"])
def test_table_matches_its_record_byte_for_byte(capsys, pair, fmt):
    code, out, _ = run(capsys, "table", "--n-max", "6", "--pair", pair, "--format", fmt)
    assert code == 0
    assert out == (CLI_RECORDS / f"table-{pair}.{fmt}").read_text()


@pytest.mark.parametrize("fmt", ["plain", "csv"])
def test_verify_matches_its_record_byte_for_byte(capsys, fmt):
    # the ZCAP column names the q-order for the checks that the cut in z
    # truncates, and "-" for the others
    code, out, _ = run(capsys, "verify", "--qcap", "6", "--k", "1,2,3,4,5,6,7",
                       "--jobs", "1", "--format", fmt)
    assert code == 0
    assert out == (CLI_RECORDS / f"verify-q6.{fmt}").read_text()


def test_stats_rejects_increasing_parts(capsys):
    code, _, err = run(capsys, "stats", "1,3")
    assert code == 2
    assert "weakly decreasing" in err


def test_stats_rejects_garbage(capsys):
    code, _, err = run(capsys, "stats", "3,zebra")
    assert code == 2
    assert "not an integer" in err


def test_table_mu2_durfee_matches(capsys):
    code, out, _ = run(capsys, "table", "--n-max", "10", "--pair", "mu2-durfee")
    assert code == 0
    assert "MISMATCH" not in out


def test_table_single_row_at_zero(capsys):
    code, out, _ = run(capsys, "table", "--n-max", "0", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[1:] == ["0,0,1,1,True"]


def test_table_sylvester(capsys):
    code, out, _ = run(
        capsys, "table", "--n-max", "15", "--pair", "sylvester", "--format", "csv"
    )
    assert code == 0
    assert all(row.endswith("True") for row in out.strip().splitlines()[1:])


# per pair: (family, lhs statistic) and (family, rhs statistic) of a partition
ENUMERATED_PAIRS = {
    "mu2-durfee": (("all", lambda p: kmeasure(p, 2)), ("all", durfee)),
    "muk-length": (("all", lambda p: kmeasure(p, 3)), ("all", len)),
    "sylvester": (("odd", lambda p: len(set(p))), ("distinct", consecutive_runs)),
}


@pytest.mark.parametrize("pair", sorted(ENUMERATED_PAIRS))
def test_table_rows_match_enumeration(capsys, pair):
    n_max = 25
    expected = ["n,statistic_value,count_lhs,count_rhs,match"]
    for n in range(n_max + 1):
        lhs, rhs = (
            Counter(statistic(parts) for parts in enumerate_partitions(n, family))
            for family, statistic in ENUMERATED_PAIRS[pair]
        )
        for value in sorted(set(lhs) | set(rhs)):
            expected.append(f"{n},{value},{lhs[value]},{rhs[value]},{lhs[value] == rhs[value]}")
    code, out, _ = run(
        capsys, "table", "--n-max", str(n_max), "--pair", pair, "--k", "3", "--format", "csv"
    )
    assert out.splitlines() == expected
    assert code == 0 and (pair == "muk-length") == ("False" in out)


def test_table_muk_length_is_informational(capsys):
    # length and k-measure are genuinely different statistics; mismatching
    # rows must be flagged but do not fail the run
    code, out, _ = run(
        capsys, "table", "--n-max", "6", "--pair", "muk-length", "--k", "2"
    )
    assert code == 0
    assert "MISMATCH" in out


def test_table_csv_deterministic(capsys):
    args = ("table", "--n-max", "8", "--pair", "mu2-durfee", "--format", "csv")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_table_negative_nmax_is_usage_error(capsys):
    code, _, err = run(capsys, "table", "--n-max", "-1")
    assert code == 2


@pytest.mark.parametrize("argv, line", [
    (("verify", "--qcap", "-1"), "kmeasure verify: error: argument --qcap: must be a nonnegative integer"),
    (("table", "--n-max", "-1"), "kmeasure table: error: argument --n-max: must be a nonnegative integer"),
    (("stats", "3,4"), "kmeasure stats: error: argument partition: parts must be weakly decreasing"),
], ids=["qcap", "n-max", "partition"])
def test_the_parser_refuses_a_malformed_argument(capsys, argv, line):
    # with the usage line, before any engine work
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: kmeasure {argv[0]} ") and err.splitlines()[-1] == line


def test_table_nonpositive_k_is_usage_error(capsys):
    code, _, err = run(capsys, "table", "--n-max", "3", "--pair", "muk-length", "--k", "0")
    assert code == 2
    assert "error: argument --k: must be a positive integer" in err


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_verify_nonpositive_jobs_is_usage_error(capsys, jobs):
    code, out, err = run(capsys, "verify", "--qcap", "2", "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert "error: argument --jobs: must be a positive integer" in err


def test_verify_exit_one_on_failing_check(monkeypatch, capsys):
    import kmeasure.identities as identities

    def failing(memo):
        return (0, 0, 0, 1, 2)

    monkeypatch.setitem(identities._CHECK_FUNCS, "demo-fail", failing)
    monkeypatch.setattr(
        identities, "default_tasks", lambda qcap, ks: [("demo-fail", "demo-fail", {})]
    )
    code, out, _ = run(capsys, "verify", "--jobs", "1")
    assert code == 1
    assert "FAIL" in out and "1 != 2" in out


def test_verify_has_no_zcap_option(capsys):
    code, out, err = run(capsys, "verify", "--qcap", "3", "--zcap", "3")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --zcap 3" in err and "Traceback" not in err


def test_verify_runs_in_the_parent_when_fork_fails(monkeypatch, capsys, tmp_path):
    import kmeasure.identities as identities

    args = ("verify", "--qcap", "6", "--k", "1,2,3", "--format", "csv")
    code, serial, _ = run(capsys, *args, "--jobs", "1")
    ran, run_unit = tmp_path / "ran", identities._run_unit

    def logged(unit):
        with open(ran, "a") as log:
            log.write(f"{os.getpid()}\n")
        return run_unit(unit)

    error = BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    def fork():
        raise error

    monkeypatch.setattr(identities, "_run_unit", logged)
    monkeypatch.setattr(os, "fork", fork)
    pooled_code, pooled, err = run(capsys, *args, "--jobs", "2")
    assert (code, pooled_code) == (0, 0) and pooled == serial
    assert err == (f"kmeasure: cannot start a worker ({error}); "
                   "checks no worker takes run in this process\n")
    # every unit ran once, in this process
    tasks = identities.default_tasks(6, [1, 2, 3])
    units = {identities._unit_key(index, task) for index, task in enumerate(tasks)}
    assert ran.read_text().split() == [str(os.getpid())] * len(units)


def test_default_jobs_follows_the_cpus_the_process_may_run_on(monkeypatch):
    # as under `taskset -c 0`, on a machine with more CPUs
    from kmeasure.cli import _default_jobs

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert _default_jobs() == 1


def test_verify_reads_no_jobs_variable(capsys, monkeypatch):
    # --jobs is the one way to set the worker count
    monkeypatch.setenv("KMEASURE_JOBS", "junk")
    code, out, err = run(capsys, "verify", "--qcap", "2", "--identity", "sylvester")
    assert code == 0
    assert out.splitlines()[-1] == "1/1 checks passed"
    assert err == ""


def src_env():
    """The environment of a subprocess that imports this checkout's kmeasure."""
    import kmeasure

    src = str(Path(kmeasure.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("argv", [
    ["verify", "--qcap", "4", "--k", ",".join(map(str, range(1, 301))), "--jobs", "1"],
    ["verify", "--qcap", "4", "--k", ",".join(map(str, range(1, 301))), "--jobs", "1", "--format", "json"],
    ["table", "--n-max", "30"],
    ["stats", "4,3,1", "--k", ",".join(map(str, range(1, 2001)))],
], ids=["verify", "verify-json", "table", "stats"])
def test_closed_stdout_exits_one_without_a_traceback(argv):
    # as `kmeasure ... | head -1` when head has already exited
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "kmeasure.cli", *argv], env=src_env(), stdout=write,
            stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write)
    assert result.returncode == 1 and "Traceback" not in result.stderr, result.stderr


def buffered_run(argv):
    """Run ``python argv`` with stdout and stderr read through pipes and
    ``PYTHONUNBUFFERED`` unset, so that stdout is block-buffered, as in a
    shell pipeline; whatever the process leaves in its buffers is lost."""
    env = src_env()
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120,
    )


def test_output_larger_than_a_pipe_arrives_whole():
    result = buffered_run(["-m", "kmeasure.cli", "table", "--n-max", "40", "--pair", "muk-length",
                           "--k", "3", "--format", "json"])
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.encode()) == 89_425  # more than a 64 KiB pipe buffer
    assert len(json.loads(result.stdout)) == 821


def test_pooled_json_arrives_whole_and_agrees_with_csv():
    argv = ["-m", "kmeasure.cli", "verify", "--qcap", "30", "--jobs", "2", "--format"]
    as_json, as_csv = buffered_run(argv + ["json"]), buffered_run(argv + ["csv"])
    assert (as_json.returncode, as_csv.returncode) == (0, 0), as_json.stderr + as_csv.stderr
    verdicts = [(r["name"], "" if r["k"] is None else str(r["k"]), str(r["passed"]))
                for r in json.loads(as_json.stdout)]
    rows = [row.split(",") for row in as_csv.stdout.splitlines()[1:]]
    assert verdicts == [(name, k, passed) for name, k, _, _, passed, _ in rows]
    assert len(verdicts) == 56


def test_exit_statuses_survive_the_fast_exit():
    usage = buffered_run(["-m", "kmeasure.cli", "verify", "--qcap", "-1"])
    assert (usage.returncode, usage.stdout) == (2, "")
    assert usage.stderr.startswith("usage: kmeasure verify ")
    assert usage.stderr.endswith(
        "\nkmeasure verify: error: argument --qcap: must be a nonnegative integer\n")
    script = (
        "import sys\n"
        "import kmeasure.cli, kmeasure.identities\n"
        "kmeasure.identities._CHECK_FUNCS['sylvester-runs'] = lambda memo, **kwargs: (2, 1, 0, 1, 2)\n"
        "sys.argv = ['kmeasure', 'verify', '--qcap', '6', '--identity', 'sylvester', '--jobs', '1']\n"
        "kmeasure.cli.entrypoint()\n"
    )
    failed = buffered_run(["-c", script])
    assert failed.returncode == 1, failed.stderr
    assert "q^2 y^1 z^0: 1 != 2" in failed.stdout
    assert failed.stdout.endswith("\n0/1 checks passed\n")


def test_a_profiled_run_still_writes_its_profile():
    # the profiler writes its report at interpreter teardown, which the
    # fast exit would skip
    result = buffered_run(["-m", "cProfile", "-m", "kmeasure.cli", "verify", "--qcap", "4",
                           "--jobs", "1"])
    assert result.returncode == 0, result.stderr
    assert "checks passed" in result.stdout and "function calls" in result.stdout


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_interrupt_exits_130_in_one_line_and_leaves_no_worker(jobs):
    # Ctrl-C sends SIGINT to the whole foreground process group, workers too.
    # A runner that starts tests in the background ignores SIGINT, and a child
    # would inherit that, so the child gets the default disposition back.
    proc = subprocess.Popen(
        [sys.executable, "-m", "kmeasure.cli", "verify", "--qcap", "200", "--jobs", jobs],
        env=src_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True, preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        try:
            proc.wait(timeout=1)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 130, err
    assert err == "kmeasure: interrupted\n"
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def test_sigterm_exits_143_and_leaves_no_worker():
    # kill and timeout send SIGTERM to the parent alone: it must stop and
    # reap its workers itself, which would otherwise run on under init
    proc = subprocess.Popen(
        [sys.executable, "-m", "kmeasure.cli", "verify", "--qcap", "200", "--jobs", "2"],
        env=src_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        try:
            proc.wait(timeout=1.5)
        except subprocess.TimeoutExpired:
            proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    try:
        assert proc.returncode == 143, err
        assert "Traceback" not in err, err
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def test_interrupt_while_the_engine_loads_exits_130_in_one_line():
    # a SIGINT that lands while a command imports the engine: a finder that
    # raises KeyboardInterrupt for kmeasure.identities stands in for it
    script = (
        "import sys\n"
        "class Interrupt:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'kmeasure.identities':\n"
        "            raise KeyboardInterrupt\n"
        "sys.meta_path.insert(0, Interrupt())\n"
        "import kmeasure.cli\n"
        "sys.argv = ['kmeasure', 'verify', '--qcap', '4', '--jobs', '1']\n"
        "kmeasure.cli.entrypoint()\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 130, result.stderr
    assert result.stderr == "kmeasure: interrupted\n"


def test_serial_verify_never_imports_the_pool():
    # nor fractions: the series kernel is integer-only
    script = (
        "import sys\n"
        "import kmeasure.cli\n"
        "code = kmeasure.cli.main(['verify', '--qcap', '4', '--jobs', '1'])\n"
        "assert code == 0, code\n"
        "assert not {'pickle', 'select', 'fractions'} & set(sys.modules)\n"
        "code = kmeasure.cli.main(['verify', '--qcap', '4', '--jobs', '2'])\n"
        "assert code == 0, code\n"
        "assert not {'pickle', 'concurrent.futures', 'multiprocessing'} & set(sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_cli_import_pulls_in_no_dataclasses():
    # the records are namedtuples: dataclasses, and the inspect module it
    # imports, would add about 10 ms to the start-up of every process
    script = (
        "import sys\n"
        "import kmeasure.cli\n"
        "assert not {'dataclasses', 'inspect'} & set(sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_a_command_pulls_in_no_dataclasses():
    # the engine, which holds every record, loads only when a command runs,
    # so the import above alone would not see a dataclass in it
    script = (
        "import contextlib, io, sys\n"
        "import kmeasure.cli, kmeasure.forked\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert kmeasure.cli.main(['verify', '--qcap', '0', '--jobs', '1']) == 0\n"
        "engine = {'kmeasure.identities', 'kmeasure.partitions', 'kmeasure.series'}\n"
        "assert engine <= set(sys.modules), sorted(sys.modules)\n"
        "assert not {'dataclasses', 'inspect'} & set(sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_passing_verify_decodes_no_series(monkeypatch, capsys):
    # every check compares, substitutes and inverts packed rows: a passing
    # run reads no coefficient back, so it decodes no series
    from kmeasure.series import TriSeries

    decoded = []
    real_decode = TriSeries._decode

    def counted(self, row):
        decoded.append(self)
        return real_decode(self, row)

    monkeypatch.setattr(TriSeries, "_decode", counted)
    code, out, _ = run(capsys, "verify", "--qcap", "30", "--k", "1,2,3,4,5,6,7", "--jobs", "1")
    assert code == 0 and "72/72 checks passed" in out
    assert decoded == []


def test_verify_dead_worker_fails_only_its_check(monkeypatch, capsys):
    import kmeasure.identities as identities

    parent = os.getpid()

    def dies_in_workers(memo, **kwargs):
        if os.getpid() == parent:  # fail here rather than end pytest
            raise AssertionError("a lost unit ran in the parent")
        os._exit(3)

    monkeypatch.setitem(identities._CHECK_FUNCS, "sylvester-runs", dies_in_workers)
    code, out, err = run(capsys, "verify", "--qcap", "6", "--k", "1,2", "--jobs", "2")
    assert code == 1 and "Traceback" not in err
    failed = [line for line in out.splitlines() if " FAIL " in line]
    assert len(failed) == 1 and failed[0].startswith("sylvester-runs")
    assert failed[0].endswith("ChildProcessError: worker exited with status 3")
    total = int(out.rsplit("/", 1)[1].split()[0])
    assert f"{total - 1}/{total} checks passed" in out


@pytest.mark.parametrize("signum, status", [(signal.SIGINT, 1), (signal.SIGTERM, -15)],
                         ids=["SIGINT", "SIGTERM"])
def test_a_signal_as_a_worker_starts_loses_only_its_unit(signum, status):
    # the second worker signals itself as its fork returns, before any worker
    # code runs: it must end as a worker, and not unwind into the parent's
    # code, which would kill its sibling and end in a traceback
    script = (
        "import os, signal, sys\n"
        "import kmeasure.cli\n"
        "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
        "real_fork, forks = os.fork, []\n"
        "def fork():\n"
        "    forks.append(None)\n"
        "    pid = real_fork()\n"
        "    if pid == 0 and len(forks) == 2:\n"
        f"        os.kill(os.getpid(), {int(signum)})\n"
        "    return pid\n"
        "os.fork = fork\n"
        "sys.argv = ['kmeasure', 'verify', '--qcap', '12', '--jobs', '2', '--format', 'csv']\n"
        "kmeasure.cli.entrypoint()\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert (result.returncode, result.stderr) == (1, ""), result.stderr
    failed = [row for row in result.stdout.splitlines() if ",False," in row]
    assert failed == [
        f'heine-general[h=2],,12,12,False,"ChildProcessError: worker exited with status {status}"'
    ]
    assert len(result.stdout.splitlines()) == 57


def test_bad_flag_is_usage_error(capsys):
    assert main(["verify", "--qcap", "not-a-number"]) == 2


def test_bad_k_list_is_usage_error(capsys):
    assert main(["verify", "--k", "1,0"]) == 2


@pytest.mark.parametrize("argv", [
    ("verify", "--k", " "), ("verify", "--k", ","), ("verify", "--k", ""),
    ("stats", "4,3,1", "--k", " , "),
])
def test_empty_k_list_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "error: argument --k: k list must name at least one k" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_raising_check_fails_alone(monkeypatch, capsys, jobs):
    import kmeasure.identities as identities

    real_tasks = identities.default_tasks(4, [1, 2])
    raising = [
        ("sum-form[weird]", "sum-form", dict(k=1, qcap=4, family="weird")),
        # members of the ("all", 2) unit whose shared series cannot be built
        ("durfee-equidistribution[q=-1]", "durfee-equidistribution", dict(qcap=-1)),
        ("parity-distinct-odd[q=-1]", "parity-distinct-odd", dict(qcap=-1)),
    ]
    monkeypatch.setattr(
        identities, "default_tasks", lambda qcap, ks: real_tasks + raising
    )
    code, out, err = run(capsys, "verify", "--jobs", jobs, "--format", "json")
    assert code == 1
    assert "Traceback" not in err
    reports = {r["name"] + str(r["k"]): r for r in json.loads(out)}
    assert len(reports) == len(real_tasks) + len(raising)
    errors = {
        "sum-form[weird]1": "ValueError: unknown family 'weird'",
        "durfee-equidistribution[q=-1]None": "ValueError: qcap must be nonnegative",
        "parity-distinct-odd[q=-1]None": "ValueError: qcap must be nonnegative",
    }
    for key, report in reports.items():
        if key in errors:
            assert not report["passed"] and report["first_failure"] is None
            assert report["error"] == errors[key]
        else:
            assert report["passed"] and "error" not in report

    code, out, err = run(capsys, "verify", "--jobs", jobs)
    assert code == 1 and "Traceback" not in err
    row = next(line for line in out.splitlines() if line.startswith("sum-form[weird]"))
    assert "FAIL" in row and row.endswith("ValueError: unknown family 'weird'")
    assert f"{len(real_tasks)}/{len(reports)} checks passed" in out

    code, out, err = run(capsys, "verify", "--jobs", jobs, "--format", "csv")
    assert code == 1 and "Traceback" not in err
    assert "sum-form[weird],1,4,,False,\"ValueError: unknown family 'weird'\"" in out
