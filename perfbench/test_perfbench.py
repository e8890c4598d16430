"""Tests for the benchmark's own code: span arithmetic, metric names, the
output check and the traced pass's patching."""

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from snowball import network, orchestrator  # noqa: E402
from snowball.records import IterationRow  # noqa: E402

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_nested_children():
    # outer [0, 10] holds a [1, 4] and b [5, 9]; b holds a [6, 7]
    tracer = spans.Tracer(FakeClock([0, 1, 4, 5, 6, 7, 9, 10]))
    tracer.enter("outer")
    tracer.enter("a")
    tracer.exit()
    tracer.enter("b")
    tracer.enter("a")
    tracer.exit()
    tracer.exit()
    tracer.exit()
    assert tracer.total == {"outer": 10, "a": 4, "b": 4}
    assert tracer.self_time == {"outer": 3, "a": 4, "b": 3}
    assert tracer.calls == {"outer": 1, "a": 2, "b": 1}
    assert tracer.stack == []


def test_wrap_closes_the_span_when_the_call_raises():
    tracer = spans.Tracer(FakeClock([0, 2]))

    def boom():
        raise ValueError

    try:
        tracer.wrap(boom, "boom")()
    except ValueError:
        pass
    assert tracer.total == {"boom": 2} and tracer.stack == []


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_fit_the_charset():
    spec = _benchmark_json()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert METRIC_NAME.fullmatch(metric["name"]), metric["name"]
        assert UNIT.fullmatch(metric["unit"]), metric["unit"]
    for workload in spec["workloads"]:
        assert METRIC_NAME.fullmatch(workload["name"])


def test_benchmark_json_lists_exactly_the_metrics_the_benchmark_prints():
    spec = _benchmark_json()
    raw = {"rounds": [{"segments": [1.0, 2.0], "reference_s": [0.001]}],
           "setup_s": [[0.2, 0.001]], "peak_rss_mb": 50.0}
    printed = bench.end_to_end(raw)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: unit for name, (_, unit) in printed.items()}
    layers = spans.layer_metrics(spans.Tracer(), 1)
    layers["trace.overhead_s"] = (0.0, "s")  # added by worker.py
    layers["orchestrator.test_err"] = (0.0, "ratio")
    layers["discovery.noise_rate"] = (0.0, "ratio")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (_, unit) in layers.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == \
        list(bench.WORKLOAD_NAMES)


def test_segments_are_scaled_by_the_reference_work_at_their_ends():
    reference = bench.REFERENCE_S
    # three segments between two reference runs; the middle one sits between
    # a run at reference speed and one at half that speed
    segments, reference_s = [1.0, 3.0, 2.0], [reference, 2 * reference]
    assert bench.at_reference_speed(segments, reference_s) == 1.0 + 2.0 + 1.0
    assert bench.at_reference_speed([0.5], []) == 0.5


def test_marks_keep_the_reference_work_out_of_the_segments():
    marks = workloads.Marks(FakeClock([2.0, 2.5, 3.5, 3.75]), work=lambda: None)
    marks._wrap(lambda: None)()
    assert marks.take(0.0, 4.0) == ([2.0, 1.0, 0.25], [0.5, 0.25])
    assert marks.times == []


def _rows():
    return [IterationRow(1, k, 0.25, 0.125, 0.0, 8 * k, 1.5) for k in (1, 2)]


def test_output_check_accepts_repeats_that_differ_only_in_wall_time():
    check = workloads.OutputCheck()
    check.run(_rows())
    check.run([replace(row, wall_time=9.0) for row in _rows()])
    check.verify(True)
    assert (check.attempted, check.failed) == (3, 0)


def test_output_check_fires_on_a_perturbed_row():
    check = workloads.OutputCheck()
    check.run(_rows())
    perturbed = _rows()
    perturbed[1] = replace(perturbed[1], test_err=perturbed[1].test_err + 2 ** -50)
    check.run(perturbed)
    assert (check.attempted, check.failed) == (2, 1)
    assert "differ" in check.problems[0]


def test_output_check_fires_on_a_failed_or_raising_verify_and_run():
    check = workloads.OutputCheck()
    check.verify(False)
    check.verify(None)
    check.run(None)
    assert (check.attempted, check.failed) == (3, 3)


def test_digest_changes_with_the_rows():
    a, b = workloads.OutputCheck(), workloads.OutputCheck()
    a.run(_rows())
    b.run([replace(row, noise_rate=0.5) for row in _rows()])
    assert a.digest() != b.digest()


def test_traced_run_counts_and_restores_the_package(tmp_path):
    original = network.forward_batch
    moons = workloads.moons_snowball(0)
    run = replace(moons, algo="mean-teacher", config=replace(moons.config, steps=3, ramp_len=3))
    train_iteration = orchestrator.train_iteration
    tracer, marks = spans.Tracer(), workloads.Marks()
    unmark = marks.install()
    uninstall = spans.install(tracer)
    try:
        out = workloads.run_round(run, tmp_path / "work", workloads.OutputCheck(), marks,
                                  verify=True)
    finally:
        uninstall()
        unmark()
    assert network.forward_batch is original
    assert orchestrator.train_iteration is train_iteration
    # mean-teacher's only stage is train_iteration, entered and left once per
    # iteration; the tracer saw it in the run and again in the verify
    iterations = tracer.calls["training.train_iteration"] // 2
    assert iterations >= 1 and len(out.segments) == 2 * iterations + 1
    assert len(out.reference_s) == 2 * iterations and min(out.reference_s) > 0
    assert out.verify_s > 0
    assert "__post_init__" in vars(network.ModelParams)
    layers = spans.layer_metrics(tracer, 2)  # one run and its verify
    assert layers["training.steps"] == (3.0, "count")
    assert layers["network.sgd_step.calls"] == (3.0, "count")
    assert layers["discovery.rank.calls"] == (0.0, "count")
    assert layers["records.read_manifest.s"][0] > 0
