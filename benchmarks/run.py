"""ratchet-lab benchmark: one workload per run, outputs checked, metrics as JSON.

    python3 benchmarks/run.py --workload figs --seed 0 --seconds 36 --trace 0

Run from anywhere; the program is imported from `src/` next to this
directory. `--trace 0` reports the end-to-end metrics with tracing off;
`--trace 1` reports the per-layer metrics of a traced run. `--seconds`
defaults to `run_seconds` in BENCHMARK.json. Every metric is printed by name
with its unit, the full result (with quartiles, sample counts and machine
metadata) is written to `.bench_results/`, and the last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. See benchmarks/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
RESULTS_DIR = ROOT / ".bench_results"
NPROC = len(os.sched_getaffinity(0))
SETUP_PROBES = 11
RSS_PROBES = 3


def _load_program() -> None:
    """Cap BLAS threads at nproc, unset the scan-pool cap, import ratchet_lab from src/.

    Runs before numpy is first imported, so the thread caps take effect here
    and in every child. Exits non-zero if the program is not in this checkout.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= NPROC):
            os.environ[var] = str(NPROC)
    os.environ.pop("RATCHET_LAB_THREADS", None)
    sys.path.insert(0, str(SRC))
    try:
        import ratchet_lab
    except ImportError as exc:
        raise SystemExit(f"benchmark: cannot import ratchet_lab from {SRC}: {exc}") from None
    if not Path(ratchet_lab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"benchmark: ratchet_lab imported from {ratchet_lab.__file__}, not {SRC}")


_load_program()

import checks  # noqa: E402  (these import ratchet_lab)
import probes  # noqa: E402
import spans  # noqa: E402
from ratchet_lab import cli  # noqa: E402
from ratchet_lab.config import parse_config  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count of one metric's samples."""
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": quartiles[0], "q3": quartiles[2],
            "samples": len(values), "values": values}


class Invocations:
    """Runs CLI invocations of one workload and tallies their failures.

    The first invocation is the reference: its artifacts must pass the
    workload's correctness checks. Every later invocation fails if it exits
    non-zero or if its artifacts differ from the reference's (which covers a
    missing artifact), and also if the reference failed its checks.
    """

    def __init__(self, workload, seed: int, work_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.out = work_dir / "out"
        self.cfg = parse_config("", workload.overrides(seed))
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.reference: dict[str, bytes] | None = None
        self.reference_ok = False

    def argv(self, out: Path) -> list[str]:
        return self.workload.argv(self.seed, str(out))

    def check(self, out: Path) -> list[str]:
        """The workload's correctness checks on the artifacts in `out`."""
        return checks.missing_artifacts(self.workload.name, out) or checks.CHECKS[self.workload.name](self.cfg, out)

    def fail(self, message: str) -> None:
        """Count one failed invocation; the first 20 messages are kept."""
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    def record(self, code: int | str, out: Path) -> None:
        """Tally one finished invocation that wrote into `out`."""
        self.attempted += 1
        if code != 0:
            self.fail(f"invocation exited {code}")
        elif self.reference is None:
            problems = self.check(out)
            self.reference = checks.snapshot(out)
            self.reference_ok = not problems
            if problems:
                self.fail("; ".join(problems))
        elif not self.reference_ok:
            self.fail("reference invocation failed its checks")
        elif checks.snapshot(out) != self.reference:
            missing = checks.missing_artifacts(self.workload.name, out)
            self.fail("; ".join(missing) or "artifacts differ from the reference invocation")

    def run(self) -> tuple[float, float]:
        """One in-process invocation into a fresh output directory; returns (wall_s, cpu_s)."""
        shutil.rmtree(self.out, ignore_errors=True)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            code = cli.main(self.argv(self.out))
        except Exception:  # a crash is a failed invocation; keep measuring
            code = f"with an exception:\n{traceback.format_exc()}"
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        self.record(code, self.out)
        return wall, cpu


def probe_schedule() -> list[tuple[float, str]]:
    """(share of the window at which it is due, kind) of every probe, in order.

    Each kind is spread evenly over the window, so that its median averages
    over the same stretch of machine load as the timings.
    """
    return sorted([((i + 0.5) / SETUP_PROBES, "setup") for i in range(SETUP_PROBES)]
                  + [((i + 0.5) / RSS_PROBES, "rss") for i in range(RSS_PROBES)])


def measure_end_to_end(workload, seed: int, seconds: float, work_dir: Path) -> tuple[dict, Invocations]:
    """Warm wall and CPU time in process; set-up time and peak memory in fresh children.

    The probes run inside the timed window, between invocations, so that the
    timings of one run cover as long a stretch of machine load as its budget allows.
    """
    runs = Invocations(workload, seed, work_dir)
    env = dict(os.environ)
    runs.run()  # reference invocation, checked; also warms the process
    rss_out = work_dir / "rss-out"
    schedule = probe_schedule()
    setup, rss, wall, cpu = [], [], [], []
    start = time.perf_counter()
    while schedule or not wall or time.perf_counter() - start < seconds:
        if schedule and time.perf_counter() - start >= schedule[0][0] * seconds:
            _, kind = schedule.pop(0)
            if kind == "setup":
                setup.append(probes.run_probe("setup", SRC, workload.overrides(seed), env)["setup_s"])
            else:
                shutil.rmtree(rss_out, ignore_errors=True)
                probe = probes.run_probe("rss", SRC, runs.argv(rss_out), env)
                rss.append(probe["peak_rss_mb"])
                runs.record(probe["exit_code"], rss_out)
        else:
            w, c = runs.run()
            wall.append(w)
            cpu.append(c)
    samples = {"setup_s": setup, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}
    return {name: summary(values) for name, values in samples.items()}, runs


def measure_layers(workload, seed: int, seconds: float, work_dir: Path) -> tuple[dict, Invocations]:
    """Per-layer metrics from traced invocations, alternated with untraced ones.

    The spans of the last traced invocation are written to .bench_results/.
    """
    runs = Invocations(workload, seed, work_dir)
    runs.run()  # untraced reference invocation, checked
    recorder = spans.SpanRecorder()
    with recorder:  # checked already; rerun only to time the Floquet oracle
        runs.check(runs.out)
    check_phase = spans.layer_metrics(recorder.spans)
    untraced, traced, per_invocation = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(runs.run()[0])
        recorder.reset()
        with recorder:
            traced.append(runs.run()[0])
        per_invocation.append(spans.layer_metrics(recorder.spans))
        if recorder.unattributed_ffts:
            runs.fail(f"{recorder.unattributed_ffts} FFTs ran outside any span")
    metrics = {name: summary([m[name] for m in per_invocation]) for name in per_invocation[0]}
    for name in spans.CHECK_ONLY:
        metrics[name] = summary([check_phase[name]])
    metrics["trace.overhead_s"] = summary([t - u for t, u in zip(traced, untraced)])
    RESULTS_DIR.mkdir(exist_ok=True)
    spans.write_spans(recorder.spans, RESULTS_DIR / f"{workload.name}-seed{seed}-spans.jsonl")
    return metrics, runs


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                          timeout=30)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def metadata(seed: int) -> dict:
    return {"commit": _commit(), "nproc": NPROC, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"), "seed": seed,
            "platform": platform.platform()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    units = {m["name"]: m["unit"] for m in bench["per_layer"] + bench["end_to_end"]}

    work_dir = WORK_DIR / f"{workload.name}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    measure = measure_layers if args.trace else measure_end_to_end
    try:
        metrics, runs = measure(workload, args.seed, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            WORK_DIR.rmdir()

    metrics = {name: {**stats, "unit": units[name]} for name, stats in metrics.items()}
    result = {
        "workload": workload.name, "why": workload.why, "trace": args.trace,
        "seconds": args.seconds, "overrides": workload.overrides(args.seed),
        "attempted": runs.attempted, "failed": runs.failed,
        "failed_frac": runs.failed / runs.attempted, "failures": runs.messages,
        "metrics": metrics, "machine": metadata(args.seed),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    result_path = RESULTS_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    for name, stats in metrics.items():
        print(f"{workload.name} {name} = {stats['median']!r} {stats['unit']} "
              f"(median of {stats['samples']}, q1 {stats['q1']!r}, q3 {stats['q3']!r})")
    print(f"{workload.name} failed_frac = {result['failed_frac']!r} ratio "
          f"({runs.failed} of {runs.attempted} invocations)")
    for message in runs.messages:
        print(f"{workload.name} failure: {message}")
    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": runs.failed == 0,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {name: {"value": metrics[name]["median"], "unit": units[name]} for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
