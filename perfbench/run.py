"""Benchmark of the snowball package: run from the repository root as

    python3 perfbench/run.py --workload moons-snowball --seed 0 --seconds 55 --trace 0

Each workload runs in a fresh interpreter with BLAS pinned to one thread.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced pass. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record (machine, per-round values, rows digest) is
written to ``perfbench/out/``. ``--workload all`` runs every workload in turn.
See NOTES.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("moons-snowball", "blobs-bigpool")
# The time of workloads.reference_work that timings are scaled to: about its
# fastest on the 2-core machine the benchmark was written on, so run_s and
# setup_s read close to that machine's unloaded seconds.
REFERENCE_S = 0.001
DEADLINE_S = 175.0  # for the whole invocation, which must end within 180 s
# BLAS on one thread; a fixed hash seed so dict layout is the same in every child
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    """The benchmark could not produce a result at all."""


def git_commit(root: Path) -> str:
    """The commit checked out at ``root``, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _child(deadline: float, *args) -> str:
    """Run worker.py in a fresh interpreter; return its last stdout line.

    The worker starts set-up probes of its own, so it runs in its own process
    group, and the whole group is killed and reaped if anything interrupts it."""
    command = [sys.executable, str(WORKER), *map(str, args)]
    with subprocess.Popen(command, env={**os.environ, **CHILD_ENV}, stdout=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except BaseException as err:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if isinstance(err, subprocess.TimeoutExpired):
                raise BenchError(f"{' '.join(command[1:])} ran past the deadline") from None
            raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(command[1:])} exited with code {proc.returncode}")
    return lines[-1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def at_reference_speed(segments: list[float], reference_s: list[float]) -> float:
    """Seconds the segments would take on a host that does the reference work
    in REFERENCE_S: each segment is scaled by REFERENCE_S over the mean time
    of the reference work at its two ends (segment k lies between reference
    runs k-1 and k). A run that raised before its first stage has no
    reference runs and is summed as it is."""
    if not reference_s:
        return sum(segments)
    return sum(segment * REFERENCE_S / statistics.fmean(reference_s[max(k - 1, 0):k + 1])
               for k, segment in enumerate(segments))


def end_to_end(raw: dict) -> dict[str, tuple[float, str]]:
    return {
        "run_s": (statistics.median(at_reference_speed(r["segments"], r["reference_s"])
                                    for r in raw["rounds"]), "s"),
        "setup_s": (statistics.median(at_reference_speed([setup], [reference])
                                      for setup, reference in raw["setup_s"]), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path,
                 deadline: float) -> dict:
    work_dir = OUT_DIR / f"work-{name}-{os.getpid()}"
    try:
        raw = json.loads(_child(deadline, "run", root / "src", name, seed, seconds,
                                int(trace), work_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    raw["machine"]["git_commit"] = git_commit(root)
    raw["machine"]["child_env"] = CHILD_ENV
    raw["metrics"] = raw.pop("layers") if trace else end_to_end(raw)
    return raw


def report(name: str, seed: int, raw: dict) -> None:
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"== {name} seed {seed}: {len(raw['rounds'])} untraced and "
          f"{len(raw['traced_rounds'])} traced rounds, {attempted} operations, {failed} failed")
    print(f"machine: {json.dumps(raw['machine'])}")
    for problem in raw["problems"]:
        print(f"CHECK FAILED: {problem}")
    for metric, (value, unit) in raw["metrics"].items():
        print(f"  {metric:<36} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':<36} {failed / attempted:>14.6g} ratio")
    for metric in ("test_err", "noise_rate"):
        values = [r[metric] for r in raw["rounds"] + raw["traced_rounds"]
                  if r[metric] is not None]
        if values:
            print(f"  {'mean final ' + metric:<36} {statistics.fmean(values):>14.6g} ratio")
    values = [r["run_s"] for r in raw["rounds"]]
    q1, q2, q3 = quartiles(values)
    print(f"  run_one wall time per untraced round (n={len(values)}, "
          f"{len(raw['rounds'][0]['segments'])} segments each): "
          f"q1 {q1:.4f} median {q2:.4f} q3 {q3:.4f}")
    reference = [t for r in raw["rounds"] for t in r["reference_s"]]
    if reference:
        q1, q2, q3 = quartiles(reference)
        print(f"  reference work (n={len(reference)}): "
              f"q1 {q1 * 1e3:.4f} median {q2 * 1e3:.4f} q3 {q3 * 1e3:.4f} ms")
    if raw["rounds"][0]["verify_s"] is not None:
        print(f"  verify_manifest of the first round: {raw['rounds'][0]['verify_s']:.4f} s")
    if raw["setup_s"]:
        q1, q2, q3 = quartiles([setup for setup, _ in raw["setup_s"]])
        print(f"  setup wall time per probe (n={len(raw['setup_s'])}): "
              f"q1 {q1:.4f} median {q2:.4f} q3 {q3:.4f}")
    print(f"rows digest {raw['digest']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    root = Path.cwd()
    if not (root / "src" / "snowball" / "__init__.py").is_file():
        print(f"error: {root} holds no src/snowball package; run from the repository root",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    OUT_DIR.mkdir(exist_ok=True)
    results = {}
    try:
        for name in names:
            raw = run_workload(name, args.seed, args.seconds, bool(args.trace), root, deadline)
            report(name, args.seed, raw)
            suffix = "-trace" if args.trace else ""
            (OUT_DIR / f"BENCH_{name}-seed{args.seed}{suffix}.json").write_text(
                json.dumps(raw, indent=2) + "\n")
            results[name] = raw
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    def key(name: str, metric: str) -> str:
        return metric if len(names) == 1 else f"{name}.{metric}"

    summary = {
        "correct": all(raw["failed"] == 0 for raw in results.values()),
        "attempted": sum(raw["attempted"] for raw in results.values()),
        "failed": sum(raw["failed"] for raw in results.values()),
        "metrics": {key(name, metric): {"value": value, "unit": unit}
                    for name, raw in results.items()
                    for metric, (value, unit) in raw["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    # SystemExit on SIGTERM makes _child kill and reap the worker's process group
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
