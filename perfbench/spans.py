"""Span tracing around the package's public functions, from outside the package.

The traced pass replaces module attributes with timing wrappers at the place
each function is *looked up*: ``snowball.orchestrator`` binds
``train_iteration`` by name at import, so the orchestrator's copy is the one
that must be wrapped, while ``snowball.network`` functions are looked up
through the module at every call. Spans are aggregated on exit into inclusive
time, self time (duration minus the time covered by child spans) and call
counts per layer name; no per-call record is kept.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict


class Tracer:
    """A stack of open spans and per-name totals of closed ones."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [name, start, time covered by children]
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, children = self.stack.pop()
        duration = self.clock() - start
        self.total[name] += duration
        self.self_time[name] += duration - children
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += duration

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def wrap(self, fn, name: str, on_return=None):
        """``fn`` timed as a span called ``name``; ``on_return(tracer, args,
        result)`` runs after the span closes, while its parents are open."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if on_return is not None:
                on_return(self, args, result)
            return result
        return traced


def _count(key: str, measure):
    def on_return(tracer: Tracer, args, result) -> None:
        tracer.counts[key] += measure(args, result)
    return on_return


def _count_refine_step(tracer: Tracer, args, result) -> None:
    if tracer.inside("orchestrator.build_master"):
        tracer.counts["orchestrator.refine_steps"] += 1


_RANK_ROWS = _count("discovery.rank.rows", lambda args, result: len(result))
_ADOPTED = _count("discovery.adopted", lambda args, result: int(result.selected.sum()))

# (module, attribute, span name, counter hook)
PATCHES = (
    ("snowball.network", "forward_batch", "network.forward_batch",
     _count("network.forward_batch.rows", lambda args, result: len(result.logits))),
    ("snowball.network", "grad_from_dlogits", "network.grad_from_dlogits", None),
    ("snowball.network", "grad", "network.grad", _count_refine_step),
    ("snowball.network", "sgd_step", "network.sgd_step", None),
    ("snowball.network", "error_rate", "network.error_rate",
     _count("network.error_rate.rows", lambda args, result: len(args[2]))),
    ("snowball.network", "save_checkpoint", "network.save_checkpoint", None),
    ("snowball.training", "augment", "data.augment", None),
    ("snowball.training", "ema_update", "training.ema_update", None),
    ("snowball.orchestrator", "ema_update", "training.ema_update", None),
    ("snowball.orchestrator", "train_iteration", "training.train_iteration",
     _count("training.steps", lambda args, result: len(result[2]))),
    ("snowball.orchestrator", "build_master", "orchestrator.build_master", None),
    ("snowball.orchestrator", "assign_pseudo_labels", "discovery.rank", _RANK_ROWS),
    ("snowball.orchestrator", "fuse_distances", "discovery.rank", _RANK_ROWS),
    ("snowball.orchestrator", "select_balanced", "discovery.select", _ADOPTED),
    ("snowball.orchestrator", "select_samples", "discovery.select", _ADOPTED),
    ("snowball.cli", "make_dataset", "data.make_dataset", None),
    ("snowball.cli", "run_algorithm", "orchestrator.run_algorithm", None),
    ("snowball.cli", "write_manifest", "records.write_manifest", None),
    ("snowball.cli", "write_step_metrics", "training.write_step_metrics", None),
    ("snowball.cli", "read_manifest", "records.read_manifest", None),
)


def install(tracer: Tracer):
    """Wrap every function in PATCHES and count ``ModelParams`` constructions.

    Returns a function that puts the originals back."""
    saved = []
    for module_name, attr, span, hook in PATCHES:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(original, span, hook))

    params_cls = importlib.import_module("snowball.network").ModelParams
    post_init = params_cls.__post_init__
    saved.append((params_cls, "__post_init__", post_init))

    def counted_post_init(params):
        tracer.counts["network.params_built"] += 1
        post_init(params)

    params_cls.__post_init__ = counted_post_init

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    return uninstall


# Per-layer metric name -> (source, key, unit). Sources: "self" and "total"
# seconds and "calls" of a span, "count" of a counter; all are divided by the
# number of pipeline executions traced.
LAYER_METRICS = {
    "network.forward_batch.s": ("self", "network.forward_batch", "s"),
    "network.forward_batch.calls": ("calls", "network.forward_batch", "count"),
    "network.forward_batch.rows": ("count", "network.forward_batch.rows", "count"),
    "network.grad_from_dlogits.s": ("self", "network.grad_from_dlogits", "s"),
    "network.grad_from_dlogits.calls": ("calls", "network.grad_from_dlogits", "count"),
    "network.sgd_step.s": ("self", "network.sgd_step", "s"),
    "network.sgd_step.calls": ("calls", "network.sgd_step", "count"),
    "network.error_rate.s": ("total", "network.error_rate", "s"),
    "network.error_rate.calls": ("calls", "network.error_rate", "count"),
    "network.error_rate.rows": ("count", "network.error_rate.rows", "count"),
    "network.params_built": ("count", "network.params_built", "count"),
    "network.save_checkpoint.s": ("self", "network.save_checkpoint", "s"),
    "training.train_iteration.s": ("total", "training.train_iteration", "s"),
    "training.train_iteration.self_s": ("self", "training.train_iteration", "s"),
    "training.ema_update.s": ("self", "training.ema_update", "s"),
    "training.ema_update.calls": ("calls", "training.ema_update", "count"),
    "training.write_step_metrics.s": ("self", "training.write_step_metrics", "s"),
    "training.steps": ("count", "training.steps", "count"),
    "data.make_dataset.s": ("self", "data.make_dataset", "s"),
    "data.augment.s": ("self", "data.augment", "s"),
    "discovery.rank.s": ("self", "discovery.rank", "s"),
    "discovery.rank.calls": ("calls", "discovery.rank", "count"),
    "discovery.rank.rows": ("count", "discovery.rank.rows", "count"),
    "discovery.select.s": ("self", "discovery.select", "s"),
    "orchestrator.build_master.s": ("total", "orchestrator.build_master", "s"),
    "orchestrator.build_master.calls": ("calls", "orchestrator.build_master", "count"),
    "orchestrator.refine_steps": ("count", "orchestrator.refine_steps", "count"),
    "orchestrator.run_algorithm.self_s": ("self", "orchestrator.run_algorithm", "s"),
    "records.write_manifest.s": ("self", "records.write_manifest", "s"),
    "records.read_manifest.s": ("self", "records.read_manifest", "s"),
}


def layer_metrics(tracer: Tracer, executions: int) -> dict[str, tuple[float, str]]:
    """Per-execution layer metrics as name -> (value, unit), plus
    ``discovery.adopted_frac``, the rows selected over the rows ranked."""
    sources = {"self": tracer.self_time, "total": tracer.total,
               "calls": tracer.calls, "count": tracer.counts}
    out = {name: (sources[source][key] / executions, unit)
           for name, (source, key, unit) in LAYER_METRICS.items()}
    ranked = tracer.counts["discovery.rank.rows"]
    out["discovery.adopted_frac"] = (
        tracer.counts["discovery.adopted"] / ranked if ranked else 0.0, "ratio")
    return out
