"""The benchmark's workloads, one round of each, and the check of its outputs.

A round runs the workload's pipeline through ``snowball.cli.run_one``. The
first round, and every traced one, then re-checks the manifest it wrote with
``snowball.cli.verify_manifest`` (the ``report --verify`` path). The
benchmark repeats rounds; repetitions must reproduce the first round's
manifest rows bit for bit. In untraced rounds, reference work timed at the
entry and exit of each of the orchestrator's stages cuts a run into
segments and measures the host's speed at each cut.

Why each workload exists:

- ``moons-snowball``: the paper's headline desk-scale run. 2,700 student
  steps dominate it, so it shows every change to the training step.
- ``blobs-bigpool``: a 9,492-row pool, where discovery and master refinement
  do about half the work and memory grows with the pool.

Discovery is under 1% of a ``moons-snowball`` run, so that workload is the
one on which a change to discovery should show no change.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import shutil
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from snowball.cli import (DataSpec, benchmark_blobs, benchmark_two_moons,
                          run_one, verify_manifest)
from snowball.orchestrator import ExperimentConfig
from snowball.records import IterationRow, rows_equal


@dataclass(frozen=True)
class Run:
    algo: str
    config: ExperimentConfig
    spec: DataSpec


def moons_snowball(seed: int) -> Run:
    config, spec = benchmark_two_moons()
    return Run("snowball", replace(config, seed=seed), spec)


def blobs_bigpool(seed: int) -> Run:
    config, spec = benchmark_blobs()
    spec = replace(spec, n_per_class=2500, test_fraction=0.05)
    config = replace(config, seed=seed, discovery_schedule=(500, 1000, 2000),
                     fusion="feature_cascade", steps=100, ramp_len=50)
    return Run("snowball", config, spec)


WORKLOADS = {
    "moons-snowball": moons_snowball,
    "blobs-bigpool": blobs_bigpool,
}


def warm_up(run: Run, work_dir: Path) -> None:
    """One tiny run, so lazy set-up in numpy and the package is not timed."""
    config = replace(run.config, generations=1, iterations=1, steps=5, ramp_len=5)
    run_one(run.algo, config, run.spec, work_dir, name="warm-up")
    shutil.rmtree(work_dir)


class OutputCheck:
    """Counts operations and failed ones across rounds.

    An operation is one ``run_one`` or one ``verify_manifest`` call. It
    fails when it raises, when a run's rows differ from the rows the first
    round produced, or when a verify returns False.
    """

    def __init__(self):
        self.reference: list[IterationRow] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def run(self, rows: list[IterationRow] | None) -> None:
        self.attempted += 1
        if rows is None:
            self._fail("run raised")
            return
        if self.reference is None:
            self.reference = rows
        elif not rows_equal(self.reference, rows):
            self._fail("rows differ from the first round")

    def verify(self, ok: bool | None) -> None:
        self.attempted += 1
        if ok is None:
            self._fail("verify raised")
        elif not ok:
            self._fail("verify_manifest did not reproduce the manifest")

    def digest(self) -> str:
        """sha256 over the first round's metric rows, wall_time excluded."""
        h = hashlib.sha256()
        for row in self.reference or []:
            h.update(repr(row.manifest_values()[:6]).encode())
        return h.hexdigest()


# The orchestrator's stage functions, where it looks them up. Their entries
# and exits cut one execution of the pipeline into segments; a speed-up
# inside a stage keeps these calls.
STAGES = (
    ("snowball.orchestrator", "train_iteration"),
    ("snowball.orchestrator", "build_master"),
    ("snowball.orchestrator", "assign_pseudo_labels"),
    ("snowball.orchestrator", "fuse_distances"),
)

_rng = np.random.default_rng(0)
_REF_X, _REF_W1, _REF_W2 = (_rng.standard_normal(shape) for shape in ((64, 2), (2, 32), (32, 2)))


def reference_work() -> None:
    """A fixed piece of the small-array numpy work the pipeline is made of:
    60 softmax forward passes of a 2-32-2 network over 64 rows. It does not
    touch the package, so a change to the package leaves its time alone; its
    time measures how fast the host runs this kind of work at the moment."""
    for _ in range(60):
        h = np.maximum(_REF_X @ _REF_W1, 0.0)
        logits = h @ _REF_W2
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        e / e.sum(axis=1, keepdims=True)


class Marks:
    """Times ``reference_work`` at the entry and exit of each stage function.

    The pipeline's time between two marks is a segment; the reference work's
    own time is left out of the segments and kept beside them."""

    def __init__(self, clock=time.perf_counter, work=reference_work):
        self.clock = clock
        self.work = work
        self.times: list[float] = []  # start and end of each reference run

    def _mark(self) -> None:
        self.times.append(self.clock())
        self.work()
        self.times.append(self.clock())

    def _wrap(self, fn):
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            self._mark()
            try:
                return fn(*args, **kwargs)
            finally:
                self._mark()
        return marked

    def install(self):
        """Wrap every stage function; returns a function that unwraps them."""
        saved = []
        for module_name, attr in STAGES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original))

        def uninstall() -> None:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
        return uninstall

    def take(self, start: float, end: float) -> tuple[list[float], list[float]]:
        """The segments from ``start`` to ``end`` and the reference times
        between them (one fewer); the marks are then cleared."""
        points = [start, *self.times, end]
        self.times.clear()
        spans = [b - a for a, b in zip(points, points[1:])]
        return spans[::2], spans[1::2]


@dataclass
class Round:
    run_s: float = 0.0  # run_one's wall time, without the reference work
    segments: list[float] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)
    verify_s: float | None = None
    test_err: float | None = None
    noise_rate: float | None = None


def run_round(run: Run, work_dir: Path, check: OutputCheck, marks: Marks,
              verify: bool) -> Round:
    """Run the pipeline and, with ``verify``, re-check the manifest it wrote;
    artifacts are deleted afterwards. ``marks`` cuts the run into segments
    while it is installed."""
    out = Round()
    marks.times.clear()
    t0 = time.perf_counter()
    try:
        record, run_dir = run_one(run.algo, run.config, run.spec, work_dir,
                                  name=f"{run.algo}-seed{run.config.seed}")
        rows = record.rows
        # the record holds models, step metrics and discovery reports; drop
        # it so peak RSS is the verify's own, not the run's plus the verify's
        del record
    except Exception:
        traceback.print_exc()
        rows = None
    out.segments, out.reference_s = marks.take(t0, time.perf_counter())
    out.run_s = sum(out.segments)
    check.run(rows)
    if rows is not None:
        out.test_err = rows[-1].test_err
        out.noise_rate = rows[-1].noise_rate
    if rows is not None and verify:
        t0 = time.perf_counter()
        try:
            ok = verify_manifest(run_dir / "manifest.txt")
        except Exception:
            traceback.print_exc()
            ok = None
        out.verify_s = sum(marks.take(t0, time.perf_counter())[0])
        check.verify(ok)
    shutil.rmtree(work_dir, ignore_errors=True)
    return out
