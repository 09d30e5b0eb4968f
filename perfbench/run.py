"""Benchmark runner for afftl: four batch workloads through the command line.

    python3 perfbench/run.py --workload enumerate --seed 0 --seconds 20 --trace 0

Run from the repository root; the program is imported from ./src.  Load
model: a closed loop with one client.  The runner starts one `afftl`
process at a time, single-threaded, waits for it to exit, checks its
output, and starts the next until --seconds have passed.  Each process is
fresh, so the caches start cold, as they do for a user.

The shared machine's speed drifts by tens of percent over tens of seconds,
so every time is normalised: before and after each repetition the runner
times perfbench/calibrate.py, a fixed piece of Python work, and reports
times as REFERENCE_CAL_S * (measured time / calibration time), using the
mean of the calibrations on either side; that is, in seconds on a machine
where the calibration takes REFERENCE_CAL_S.  Raw medians are printed
alongside.

--trace 0 reports the end-to-end metrics (medians over the repetitions):
  wall_s       spawn to exit of one command
  throughput   items one command completes, over wall_s
  setup_s      spawn until `afftl.cli` is imported and ready (three spawns
               before each repetition, after one warm-up spawn that writes
               the bytecode cache)
  peak_rss_mb  peak resident memory of the command's process
--trace 1 runs the same repetitions untraced, then one more command under
perfbench/tracer.py, and reports its per-layer metrics together with
trace.overhead_frac, the traced time to finish the work over the untraced
median, both normalised, minus one.  The per-layer times (`*.self_s`,
`verify.*.s`) are normalised with the calibrations around the traced
command; the printed `main` and self-time sums are raw seconds.

A repetition fails on a nonzero exit, an error JSON on stderr, a failed
correctness gate (see workloads.py), or a stdout whose sha256 differs from
the stored digest or from the run's first repetition.  Failures are
counted, never fatal; failed_frac is printed on its own line.  The last
stdout line is one JSON object with the keys correct, attempted, failed
and metrics.  The lines before it record the environment (Python, nproc,
git commit, source digest, load average before and after).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
TRACER = HERE / "tracer.py"
CALIBRATE = HERE / "calibrate.py"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(HERE))
from workloads import DEFAULT_SEED, WORKLOADS, Job, load_expected  # noqa: E402

SETUP_SPAWNS_PER_REP = 3  # spread over the run, so slow and fast spells both show
SETUP_CODE = "import time, afftl.cli; print(time.monotonic_ns())"
PROCESS_TIMEOUT_S = 150
REFERENCE_CAL_S = 0.2  # calibrate.py's time at the reference speed; never change


@dataclass
class Proc:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)  # the checkout's sources, never an installed copy
    env["PYTHONHASHSEED"] = "0"  # same set and dict layouts in every process
    env.pop("AFFTL_MAX_ELEMENTS", None)
    return env


def spawn(args: list[str], timeout_s: float = PROCESS_TIMEOUT_S) -> Proc:
    """Run `python3 <args>` to completion, stdout and stderr in anonymous files.

    Wall time runs from just before the spawn to the reaped exit; peak RSS
    is this child's own, from wait4.  A child still running after timeout_s
    is killed and reaped.
    """
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], child_env(), file_actions=actions)

        def kill(_signum, _frame):
            os.kill(pid, signal.SIGKILL)

        previous = signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        return Proc(os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024, out.read(), err.read())


def measure_setup(spawns: int) -> list[float]:
    """Seconds from spawn until `afftl.cli` is imported, one per spawn."""
    samples = []
    for _ in range(spawns):
        start = time.monotonic_ns()
        proc = spawn(["-c", SETUP_CODE])
        if proc.code != 0:
            raise RuntimeError(f"importing afftl.cli failed: {proc.stderr.decode()[-2000:]}")
        samples.append((int(proc.stdout) - start) / 1e9)
    return samples


def calibrate() -> float:
    """Wall seconds of the fixed calibration work, as a fresh process."""
    proc = spawn([str(CALIBRATE)])
    if proc.code != 0:
        raise RuntimeError(f"calibration failed: {proc.stderr.decode()[-2000:]}")
    return proc.wall_s


def failure(job: Job, proc: Proc, first_digest: str | None) -> str | None:
    """Why one repetition failed, or None when it passed every check."""
    if proc.code != 0:
        return f"exit code {proc.code}: {proc.stderr.decode()[-500:]}"
    if b'"error"' in proc.stderr:
        return f"error JSON on stderr: {proc.stderr.decode()[-500:]}"
    digest = hashlib.sha256(proc.stdout).hexdigest()
    if job.sha256 is not None and digest != job.sha256:
        return f"stdout sha256 {digest} differs from the stored {job.sha256}"
    if first_digest is not None and digest != first_digest:
        return f"stdout sha256 {digest} differs from the first repetition's {first_digest}"
    try:
        return job.check(proc.stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def git_sha() -> str | None:
    """HEAD's commit; None outside a git repository or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "afftl").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
    }


def declared_metrics() -> dict[str, list[dict]]:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def is_layer_time(name: str) -> bool:
    """Per-layer metrics that are seconds, and so get normalised."""
    return name.endswith(".self_s") or (name.startswith("verify.") and name.endswith(".s"))


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; prints a report and returns the result object."""
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))  # this run's inputs and trace output
    try:
        return _run(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work)


def _run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    declared = declared_metrics()["per_layer" if trace else "end_to_end"]
    env = environment()
    env["loadavg_before"] = os.getloadavg()
    job = WORKLOADS[workload](seed, work, load_expected())

    measure_setup(1)  # warm-up: writes the bytecode cache once
    setups: list[float] = []  # normalised
    ratios: list[float] = []  # repetition wall over the calibrations around it
    procs: list[Proc] = []
    reasons: list[str] = []
    first_digest = None
    cal = calibrate()
    deadline = time.perf_counter() + seconds
    while not procs or time.perf_counter() < deadline:
        setups += [REFERENCE_CAL_S * s / cal for s in measure_setup(SETUP_SPAWNS_PER_REP)]
        proc = spawn(["-m", "afftl.cli", *job.argv])
        after = calibrate()
        ratios.append(2 * proc.wall_s / (cal + after))
        cal = after
        reason = failure(job, proc, first_digest)
        if first_digest is None and proc.code == 0:
            first_digest = hashlib.sha256(proc.stdout).hexdigest()
        procs.append(proc)
        if reason:
            reasons.append(reason)

    walls = [p.wall_s for p in procs]
    wall = REFERENCE_CAL_S * statistics.median(ratios)
    values = {
        "wall_s": wall,
        "throughput": job.items / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in procs),
    }
    attempted = len(procs)
    if trace:
        out_json = work / "trace.json"
        start = time.monotonic_ns()
        proc = spawn([str(TRACER), "--out", str(out_json), "--", *job.argv])
        cal = (cal + calibrate()) / 2
        attempted += 1
        reason = failure(job, proc, first_digest)
        if reason:
            reasons.append(f"traced: {reason}")
        if proc.code == 0:
            layers = json.loads(out_json.read_text())
            traced_s = (layers["done_monotonic_ns"] - start) / 1e9
            scale = REFERENCE_CAL_S / cal
            values = {name: v * scale if is_layer_time(name) else v for name, v in layers.items()}
            values["trace.overhead_frac"] = scale * traced_s / wall - 1
            print(f"traced: {layers['spans']} spans, work done {traced_s:.4f} s after spawn, "
                  f"self times sum to {layers['self_s_sum']:.4f} s of {layers['wall_main_s']:.4f} s in main")
        else:
            values = {}
    env["loadavg_after"] = os.getloadavg()

    print("env " + json.dumps(env))
    print(f"workload {workload} seed {seed}: {attempted} runs, {len(reasons)} failed, "
          f"failed_frac {len(reasons) / attempted:.4f}, {job.items} items per run")
    print(f"raw wall seconds over {len(walls)} runs: median {statistics.median(walls):.4f}, "
          f"min {min(walls):.4f}, max {max(walls):.4f}; normalised wall_s {wall:.4f}; "
          f"setup_s over {len(setups)} spawns")
    for reason in reasons:
        print(f"FAILED {reason}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    return {
        "correct": not reasons and len(metrics) == len(declared),
        "attempted": attempted,
        "failed": len(reasons),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="afftl benchmark runner")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    if not (SRC / "afftl" / "cli.py").is_file():
        print(f"no afftl sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
