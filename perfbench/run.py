"""End-to-end and per-layer benchmark for npchunk.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --reference
    python3 perfbench/run.py --record-golden SEED [SEED ...]

Run from the repository root. Each workload (see workloads.py) is one
`npchunk run` job with seeded inputs. The loop is closed, with one client and
no other load: a job starts when the previous one has ended. Every job and
probe runs in a fresh interpreter with PYTHONHASHSEED pinned, because the
package's module-level caches would otherwise make repeats warm in a way no
command-line user sees.

With `--trace 0` a run repeats the job until `--seconds` are used. Before
each job it times three rounds of a fixed calibration computation
(calibrate.py, in as many processes at once as the job has workers) and one
set-up (child.py setup), each in a fresh interpreter.
It reports the end-to-end metrics:
  wall_s       wall time of the job, as the user waits for it (mean)
  setup_s      import, load_config, read_corpus on every input, build_plans
               (median)
  cpu_s        user plus system CPU of the job's whole process tree (mean)
  peak_rss_mb  the largest peak RSS of any one process in the job (median)
Times are scaled to the machine speed at which a calibration pass takes
calibrate.REFERENCE_S, which cancels the drift of a shared host's speed; see
scale_to_reference.

With `--trace 1` a run alternates an untraced job with a traced run of the
same experiment (child.py trace) and reports the medians of the per-layer
metrics. The traced run's per-run recall and counts must equal the job's
`runs.tsv`, and its e_full values the job's `summary.tsv`.

Output gate: a job's statistics outputs (summary, pairs, xcorr and samples
TSVs, without the `# config_hash=` stamp) are hashed. The digest must equal
the one recorded in golden.json for this workload and seed, when there is
one, and must be the same for every job of the run. Each run also runs a
tiny fixed-seed configuration whose digest is always recorded. A crash, a
digest mismatch or a failed cross-check counts as a failed operation.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it records
the run's provenance. `--self-check` checks that a tiny run prints every
metric BENCHMARK.json names, with its unit, and that altered outputs count
as failed. `--reference` runs the full test_08 configuration once and
writes reference.json. `--record-golden` records output digests; run it only
on a commit whose outputs are known good.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from calibrate import REFERENCE_S
from workloads import GATE, GATE_SEED, REFERENCE, REFERENCE_SEED, WORKLOADS, Workload, prepare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
GOLDEN = HERE / "golden.json"
CHILD = HERE / "child.py"
CALIBRATE = HERE / "calibrate.py"

HASH_SEED = "0"
MIN_JOBS = 3
CALIBRATIONS_PER_JOB = 3
STAT_FILES = ("summary.tsv", "pairs.tsv", "xcorr.tsv")
STAMP = b"# config_hash="
TEST_08_GATE_S = 600.0
# Children still running this long after a run starts are killed, so that a
# hung job cannot keep a run past its 180-second limit.
RUN_LIMIT_S = 165.0


class BenchError(Exception):
    pass


@dataclass
class Process:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str


class _Expired(Exception):
    pass


def _expire(signum, frame):
    raise _Expired


def run_child(args: list[str], cwd: Path, log: str, deadline: float | None) -> Process:
    """Run a fresh interpreter in cwd; raise BenchError if it fails.

    CPU and peak RSS come from wait4, which covers the child and every
    descendant it waited for (the pool workers of a job). A child still
    running at the deadline (a perf_counter value) is killed with its
    process group, as is one whose wait is interrupted.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=HASH_SEED)
    with open(cwd / f"{log}.out", "wb") as out, open(cwd / f"{log}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                                stdout=out, stderr=err, start_new_session=True)
        previous = signal.signal(signal.SIGALRM, _expire)
        try:
            if deadline is not None:
                signal.setitimer(signal.ITIMER_REAL, max(deadline - start, 0.001))
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException as exc:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if isinstance(exc, _Expired):
                raise BenchError(f"{log} killed at the run's time limit") from None
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (cwd / f"{log}.err").read_text(errors="replace").strip().splitlines()[-1:]
        raise BenchError(f"{log} exited with {proc.returncode}: {' '.join(tail)}")
    return Process(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                   (cwd / f"{log}.out").read_text())


def calibrate(cwd: Path, processes: int, deadline: float) -> list[tuple[float, float]]:
    """(wall, CPU) seconds of one calibration pass in each of `processes`
    fresh interpreters that run at once.

    A job whose pool computes in two processes meets the contention of two
    busy CPUs, which slows it less than it slows a lone process, so the
    calibration runs with the job's parallelism.
    """
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    procs = [subprocess.Popen([sys.executable, str(CALIBRATE)], cwd=cwd, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
             for _ in range(processes)]
    try:
        outputs = [proc.communicate(timeout=max(deadline - time.perf_counter(), 0.001))[0]
                   for proc in procs]
    except subprocess.TimeoutExpired:
        raise BenchError("calibration killed at the run's time limit") from None
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if any(proc.returncode != 0 for proc in procs):
        raise BenchError("calibration pass failed")
    return [(float(out.split()[0]), float(out.split()[1])) for out in outputs]


def run_job(job_dir: Path, deadline: float | None, tamper=None) -> Process:
    out_dir = job_dir / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    job = run_child(["-m", "npchunk.cli", "run", "--config", "job.cfg"], job_dir, "job",
                    deadline)
    if tamper is not None:
        tamper(out_dir)
    return job


def output_digest(out_dir: Path) -> str:
    """sha256 over the statistics outputs, without the config_hash stamp."""
    digest = hashlib.sha256()
    paths = [out_dir / name for name in STAT_FILES]
    paths += sorted((out_dir / "samples").glob("*.tsv"))
    for path in paths:
        body = b"".join(line for line in path.read_bytes().splitlines(keepends=True)
                        if not line.startswith(STAMP))
        digest.update(path.relative_to(out_dir).as_posix().encode() + b"\0" + body + b"\0")
    return digest.hexdigest()


def load_golden() -> dict:
    if not GOLDEN.is_file():
        return {}
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


class OutputGate:
    """Every digest of a run must match the recorded one and each other."""

    def __init__(self, expected: str | None):
        self.expected = expected

    def check(self, out_dir: Path) -> None:
        digest = output_digest(out_dir)
        if self.expected is None:
            self.expected = digest
        elif digest != self.expected:
            raise BenchError(f"output digest {digest[:16]} != expected {self.expected[:16]}")


def _tsv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split("\t") for line in lines[2:]]  # stamp and header first


def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def cross_check(trace: dict, out_dir: Path) -> dict:
    """The traced pipeline must reproduce the job's per-run metrics exactly."""
    traced = [[_fmt(v) for v in row] for row in trace["runs"]]
    if traced != _tsv_rows(out_dir / "runs.tsv"):
        raise BenchError("traced per-run metrics differ from runs.tsv")
    recorded = {(row[0], row[1]): row[6] for row in _tsv_rows(out_dir / "summary.tsv")}
    if {(s, t): _fmt(e) for s, t, e in trace["e_full"]} != recorded:
        raise BenchError("traced e_full differs from summary.tsv")
    return trace


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(trace: dict, job: Process, traced: Process) -> dict[str, float]:
    spans = sorted(trace["spans"], key=lambda s: s["start"])
    counters = trace["counters"]

    def durations(name: str) -> list[float]:
        return [s["end"] - s["start"] for s in spans if s["name"] == name]

    def total(name: str) -> float:
        return sum(durations(name))

    def first(name: str) -> float:
        return (durations(name) or [0.0])[0]

    def p50(name: str) -> float:
        return statistics.median(durations(name) or [0.0])

    def count(name: str) -> list[float]:
        return counters.get(name, [])

    def per_sentence_ms(layer: str) -> float:
        sentences = sum(count(f"{layer}.predicted_sentences"))
        return 1000.0 * total(f"{layer}.predict") / sentences if sentences else 0.0

    layer_time = _covered([(s["start"], s["end"]) for s in spans
                           if not s["name"].startswith("harness.")])
    metrics = {
        "corpus.read_s": total("corpus.read"),
        "corpus.tokens_read": sum(count("corpus.tokens_read")),
        "resample.plan_s": total("resample.plan"),
        "resample.view_s": total("resample.view"),
        "resample.view_unique_frac": statistics.fmean(count("resample.view_unique_frac")),
        "mbsl.train_s.first": first("mbsl.train"),
        "mbsl.train_s.p50": p50("mbsl.train"),
        "mbsl.train_s.max": max(durations("mbsl.train"), default=0.0),
        "mbsl.train_calls": len(durations("mbsl.train")),
        "mbsl.tiles": max(count("mbsl.tiles"), default=0),
        "mbsl.predict_s": total("mbsl.predict"),
        "mbsl.predict_ms_per_sentence": per_sentence_ms("mbsl"),
        "winnow.train_s.first": first("winnow.train"),
        "winnow.train_s.p50": p50("winnow.train"),
        "winnow.features": max(count("winnow.features"), default=0),
        "winnow.updates": sum(count("winnow.updates")),
        "winnow.predict_ms_per_sentence": per_sentence_ms("winnow"),
        "evalstats.score_s": total("evalstats.score"),
        "evalstats.stats_s": total("evalstats.summarize") + total("evalstats.compare"),
        "harness.overhead_s": job.wall_s - layer_time,
        "harness.cpu_per_wall": job.cpu_s / job.wall_s,
        "trace.overhead_s": traced.wall_s - job.wall_s,
    }
    # Absent once the per-sentence caches are gone from the package.
    if "mbsl.cache_hits" in counters:
        lookups = sum(count("mbsl.cache_hits")) + sum(count("mbsl.cache_misses"))
        metrics["mbsl.cache_hit_ratio"] = sum(count("mbsl.cache_hits")) / lookups
    return metrics


class Tally:
    """Operations attempted and failed; a failure is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, what: str, operation):
        self.attempted += 1
        try:
            return operation()
        except (BenchError, OSError, ValueError, KeyError, IndexError) as exc:
            self.failed += 1
            print(f"failed: {what}: {exc}", file=sys.stderr)
            return None


def _medians(samples: list[dict[str, float]]) -> dict[str, float]:
    names = {name for sample in samples for name in sample}
    return {name: statistics.median(s[name] for s in samples if name in s)
            for name in sorted(names)}


def scale_to_reference(samples: list[dict[str, float]], setups: list[float],
                       calibrations: list[tuple[float, float]]) -> dict[str, float]:
    """The run's end-to-end metrics, with times scaled to the machine speed
    at which the calibration pass takes REFERENCE_S.

    The host's speed swings by tens of percent within seconds and drifts
    over minutes, and a job's wall and CPU time follow it. Means over the
    run's jobs and calibration passes integrate both over the same stretch
    of time, so the job's wall time scales by REFERENCE_S over the mean
    calibration wall time, and its CPU time by REFERENCE_S over the mean
    calibration CPU time. Set-up time is the median of its probes, scaled
    like wall time; peak RSS is the median and is not scaled. The unscaled
    figures and the calibration means are kept under `raw.` and `speed.`
    names, which the result line leaves out and the provenance line reports.
    """
    cal_wall = statistics.fmean(c[0] for c in calibrations)
    cal_cpu = statistics.fmean(c[1] for c in calibrations)
    raw = {"wall_s": statistics.fmean(s["wall_s"] for s in samples),
           "cpu_s": statistics.fmean(s["cpu_s"] for s in samples),
           "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples)}
    if setups:
        raw["setup_s"] = statistics.median(setups)
    factors = {"wall_s": REFERENCE_S / cal_wall, "setup_s": REFERENCE_S / cal_wall,
               "cpu_s": REFERENCE_S / cal_cpu}
    metrics = {name: value * factors.get(name, 1.0) for name, value in raw.items()}
    metrics.update({f"raw.{name}": value for name, value in raw.items()})
    metrics.update({"speed.calibration_wall_s": cal_wall,
                    "speed.calibration_cpu_s": cal_cpu,
                    "speed.calibrations": len(calibrations),
                    "speed.jobs": len(samples)})
    return metrics


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            tamper=None) -> tuple[Tally, dict[str, float]]:
    """One benchmark run: (operations tally, metrics)."""
    limit = time.perf_counter() + RUN_LIMIT_S
    golden = load_golden()
    gate_dir = prepare(GATE, GATE_SEED, WORK)
    job_dir = prepare(workload, seed, WORK)
    gate = OutputGate(golden.get(workload.name, {}).get(str(seed)))
    fixed_gate = OutputGate(golden.get(GATE.name, {}).get(str(GATE_SEED)))
    tally = Tally()

    def gated_job(directory: Path, output_gate: OutputGate) -> Process:
        job = run_job(directory, limit, tamper)
        output_gate.check(directory / "out")
        print(f"job {directory.name}: wall {job.wall_s:.3f} s, cpu {job.cpu_s:.3f} s, "
              f"peak rss {job.peak_rss_mb:.1f} MiB", file=sys.stderr)
        return job

    def fixed():
        if fixed_gate.expected is None:
            raise BenchError("no recorded digest for the fixed-seed gate configuration")
        gated_job(gate_dir, fixed_gate)

    tally.attempt("fixed-seed gate job", fixed)

    deadline = time.perf_counter() + seconds
    samples: list[dict[str, float]] = []
    if not trace:
        # Before each job, calibration passes and one set-up probe, so that
        # all three sample the same stretches of a machine whose speed drifts.
        setups = []
        calibrations: list[tuple[float, float]] = []
        rounds: list[float] = []
        for attempt in itertools.count(1):
            started = time.perf_counter()
            for _ in range(CALIBRATIONS_PER_JOB):
                calibrations += calibrate(job_dir, workload.workers, limit)
            probe = tally.attempt("setup probe", lambda: run_child(
                [str(CHILD), "setup", "job.cfg"], job_dir, "setup", limit))
            if probe is not None:
                setups.append(float(probe.stdout.strip().splitlines()[-1]))
            job = tally.attempt("job", lambda: gated_job(job_dir, gate))
            if job is not None:
                samples.append({"wall_s": job.wall_s, "cpu_s": job.cpu_s,
                                "peak_rss_mb": job.peak_rss_mb})
            rounds.append(time.perf_counter() - started)
            if (attempt >= MIN_JOBS
                    and time.perf_counter() + statistics.median(rounds) > deadline):
                break
        if not samples:
            return tally, {}
        return tally, scale_to_reference(samples, setups, calibrations)

    trace_path = job_dir / "trace.json"
    while True:
        job = tally.attempt("job", lambda: gated_job(job_dir, gate))
        traced = tally.attempt("traced run", lambda: run_child(
            [str(CHILD), "trace", "job.cfg", trace_path.name], job_dir, "trace", limit))
        if job is None or traced is None:
            break
        data = tally.attempt("trace cross-check", lambda: cross_check(
            json.loads(trace_path.read_text(encoding="utf-8")), job_dir / "out"))
        if data is not None:
            samples.append(layer_metrics(data, job, traced))
        if time.perf_counter() + job.wall_s + traced.wall_s > deadline:
            break
    return tally, _medians(samples)


def provenance(load_before: tuple[float, ...]) -> dict:
    nproc = None
    if shutil.which("nproc"):
        nproc = subprocess.run(["nproc"], capture_output=True, text=True).stdout.strip()
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip() or None
    return {
        "nproc": nproc,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "pythonhashseed": HASH_SEED,
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "commit": commit,
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def report(tally: Tally, metrics: dict[str, float], trace: bool,
           load_before: tuple[float, ...]) -> None:
    """Print the provenance line, then the result line, on standard output."""
    units = declared_metrics(trace)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    for name, entry in result["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}", file=sys.stderr)
    unscaled = {name: value for name, value in metrics.items()
                if name.startswith(("raw.", "speed."))}
    print(json.dumps({"provenance": provenance(load_before), **unscaled}))
    print(json.dumps(result))


def self_check() -> list[str]:
    problems = []
    for trace in (False, True):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            report(*measure(GATE, GATE_SEED, 0.0, trace), trace, os.getloadavg())
        result = json.loads(printed.getvalue().strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            problems.append(f"trace={int(trace)}: clean run reported {result['failed']} failed")
        for name, unit in declared_metrics(trace).items():
            entry = result["metrics"].get(name, {})
            if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
                problems.append(f"trace={int(trace)}: metric {name} [{unit}] not printed")

    def alter(name: str):
        def tamper(out_dir: Path) -> None:
            path = out_dir / name
            data = path.read_bytes()
            path.write_bytes(data[:-2] + bytes([data[-2] ^ 1]) + data[-1:])
        return tamper

    for trace, name in ((False, "summary.tsv"), (False, "samples/winnow_atis.tsv"),
                        (True, "runs.tsv")):
        tally, _ = measure(GATE, GATE_SEED, 0.0, trace, tamper=alter(name))
        if tally.failed == 0:
            problems.append(f"an altered {name} was not reported as failed")
    return problems


def reference() -> dict:
    load_before = os.getloadavg()
    job_dir = prepare(REFERENCE, REFERENCE_SEED, WORK)
    job = run_job(job_dir, None)
    result = {
        "configuration": "test_08: wsj-like 8936 train, atis-like 190 + wsj-like 3x100 "
                         "test, bootstrap B=50, mbsl:c=1;mbsl:c=3;winnow, workers=1, seed 27",
        "wall_s": job.wall_s,
        "cpu_s": job.cpu_s,
        "peak_rss_mb": job.peak_rss_mb,
        "test_08_gate_s": TEST_08_GATE_S,
        "headroom_s": TEST_08_GATE_S - job.wall_s,
        "headroom_share": 1.0 - job.wall_s / TEST_08_GATE_S,
        "output_digest": output_digest(job_dir / "out"),
        "provenance": provenance(load_before),
    }
    (HERE / "reference.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return result


def record_golden(seeds: list[int]) -> None:
    golden = load_golden()
    targets = [(GATE, GATE_SEED)] + [(w, s) for w in WORKLOADS.values() for s in seeds]
    for workload, seed in targets:
        job_dir = prepare(workload, seed, WORK)
        run_job(job_dir, None)
        digest = output_digest(job_dir / "out")
        recorded = golden.setdefault(workload.name, {}).setdefault(str(seed), digest)
        if recorded != digest:
            raise BenchError(f"{workload.name} seed {seed}: digest {digest} "
                             f"differs from the recorded {recorded}")
        print(f"{workload.name}\t{seed}\t{digest}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--record-golden", type=int, nargs="+", metavar="SEED")
    args = parser.parse_args(argv)

    if not (SRC / "npchunk" / "__init__.py").is_file():
        print(f"error: no npchunk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.self_check:
            problems = self_check()
            for problem in problems:
                print(f"self-check: {problem}", file=sys.stderr)
            print("self-check failed" if problems else "self-check ok")
            return 1 if problems else 0
        if args.reference:
            print(json.dumps(reference(), indent=2))
            return 0
        if args.record_golden:
            record_golden(args.record_golden)
            return 0
        if None in (args.workload, args.seed, args.seconds, args.trace):
            parser.error("--workload, --seed, --seconds and --trace are required")
        load_before = os.getloadavg()
        tally, metrics = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                                 bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(tally, metrics, bool(args.trace), load_before)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
