"""One workload in a fresh interpreter; run.py starts it with BLAS pinned.

    worker.py setup <src> <workload> <seed>
        prints, as a JSON list, the seconds taken by ``import snowball`` plus
        ``make_dataset`` and the median seconds of the reference work after it
    worker.py run <src> <workload> <seed> <seconds> <trace> <work_dir>
        repeats rounds of the workload for about <seconds> and prints one JSON
        object: timings per round, set-up probes, output-check counts, the
        rows digest, peak RSS, the machine record and, with trace 1, the
        per-layer metrics
"""

import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# fresh-interpreter set-up probes before each untraced round, so they sample
# the same stretch of time as the rounds do
PROBES_PER_ROUND = 2
REFERENCE_RUNS_AFTER_SETUP = 5
BLAS_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads")


def blas_threads() -> int | None:
    """Thread count reported by the BLAS library loaded into this process."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps
                if "blas" in line.lower() and line.split()[-1].startswith("/")}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in BLAS_THREAD_QUERIES:
            if hasattr(lib, symbol):
                query = getattr(lib, symbol)
                query.restype = ctypes.c_int
                return int(query())
    return None


def machine_record() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": blas_threads(),
    }


def setup(workload: str, seed: int) -> None:
    t0 = time.perf_counter()
    from workloads import WORKLOADS, reference_work
    from snowball.cli import make_dataset
    run = WORKLOADS[workload](seed)
    make_dataset(run.spec, run.config.seed)
    setup_s = time.perf_counter() - t0
    reference_s = []
    for _ in range(REFERENCE_RUNS_AFTER_SETUP):
        t0 = time.perf_counter()
        reference_work()
        reference_s.append(time.perf_counter() - t0)
    print(json.dumps([setup_s, statistics.median(reference_s)]))


def probe_setup(src: str, workload: str, seed: int) -> list[float]:
    """``setup`` in a fresh interpreter with this process's environment:
    its time and the median time of the reference work right after it."""
    out = subprocess.run([sys.executable, __file__, "setup", src, workload, str(seed)],
                         stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def run(src: str, workload: str, seed: int, seconds: float, trace: bool,
        work_dir: Path) -> None:
    from workloads import WORKLOADS, Marks, OutputCheck, run_round, warm_up
    import spans

    job = WORKLOADS[workload](seed)
    warm_up(job, work_dir)
    check = OutputCheck()
    rounds, traced, setup_s = [], [], []
    tracer, marks = spans.Tracer(), Marks()
    start = time.perf_counter()
    while True:
        # with trace on, untraced and traced rounds alternate; the untraced
        # ones are the reference for the tracing overhead. Traced rounds run
        # without marks, so no reference work lands in a layer's self time.
        if trace and len(rounds) > len(traced):
            uninstall = spans.install(tracer)
            try:
                traced.append(run_round(job, work_dir, check, marks, verify=True))
            finally:
                uninstall()
        else:
            if not trace:
                setup_s += [probe_setup(src, workload, seed) for _ in range(PROBES_PER_ROUND)]
            unmark = marks.install()
            try:
                rounds.append(run_round(job, work_dir, check, marks, verify=not rounds))
            finally:
                unmark()
        done = len(rounds) + len(traced)
        elapsed = time.perf_counter() - start
        if (not trace or traced) and elapsed * (done + 1) / done > seconds:
            break

    out = {
        "machine": machine_record(),
        "rounds": [vars(r) for r in rounds],
        "traced_rounds": [vars(r) for r in traced],
        "setup_s": setup_s,
        "attempted": check.attempted,
        "failed": check.failed,
        "problems": check.problems,
        "digest": check.digest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        executions = 2 * len(traced)  # each run_one and each verify runs the pipeline
        out["layers"] = spans.layer_metrics(tracer, executions)
        overhead = (statistics.median(r.run_s for r in traced)
                    - statistics.median(r.run_s for r in rounds))
        out["layers"]["trace.overhead_s"] = (overhead, "s")
        for name, field in (("orchestrator.test_err", "test_err"),
                            ("discovery.noise_rate", "noise_rate")):
            values = [getattr(r, field) for r in traced if getattr(r, field) is not None]
            out["layers"][name] = (statistics.fmean(values) if values else 0.0, "ratio")
    print(json.dumps(out))


def main(argv: list[str]) -> None:
    mode, src, workload, seed = argv[0], argv[1], argv[2], int(argv[3])
    sys.path.insert(0, src)
    if mode == "setup":
        setup(workload, seed)
    else:
        run(src, workload, seed, float(argv[4]), argv[5] == "1", Path(argv[6]))


if __name__ == "__main__":
    main(sys.argv[1:])
