"""Golden artifacts: three small pipelines must keep writing the same bytes.

The digests in DIGESTS were recorded before parameters moved into one flat
buffer and backpropagation started reusing the forward trace, when every
step still measured its error rates; both changes are meant to leave every
float bit-identical, and so every checkpoint and step CSV. With the step
evaluation cadence set back to every step they must all still match. At the
default cadence only the step CSVs change (their skipped error cells are
empty); the checkpoints keep the recorded digests. The 9-class run was
recorded while the student, teacher and master still ran as three separate
forward passes and every class-axis sum was numpy's own; its class axis is
wider than row_sum's column-by-column width. The digests hold for
float64 numpy 2.4 with OpenBLAS 0.3 on x86-64; another BLAS build or CPU may
round matrix products differently.
"""

import hashlib
import re
from dataclasses import replace

import pytest

from snowball import training
from snowball.cli import (DataSpec, benchmark_blobs, benchmark_two_moons, cli_run,
                          make_dataset, run_one)
from snowball.orchestrator import ExperimentConfig, run_algorithm

RUNS = {
    # relu, cross-entropy consistency, weight decay, feature-cascade fusion
    "snowball": ("snowball",
                 ExperimentConfig(generations=2, iterations=2, steps=40, ramp_len=20,
                                  discovery_schedule=(16, 32), l2=1e-3,
                                  fusion="feature_cascade", seed=3),
                 DataSpec(dataset="two-moons", n_samples=300, labels_per_class=4)),
    # tanh, MSE consistency (switched off by self-learning's lambda2 = 0)
    "self-learning": ("self-learning",
                      ExperimentConfig(generations=1, iterations=2, steps=40, ramp_len=20,
                                       discovery_schedule=(12, 24), activation="tanh",
                                       consistency="mse", hidden_dims=(16,), seed=5),
                      DataSpec(dataset="blobs", classes=3, n_per_class=60,
                               labels_per_class=2)),
    # nine classes, MSE consistency against teacher and a weighted master
    "wide-mse": ("snowball",
                 ExperimentConfig(generations=1, iterations=2, steps=40, ramp_len=20,
                                  discovery_schedule=(18, 36), consistency="mse",
                                  master_weight=0.7, seed=4),
                 DataSpec(dataset="blobs", classes=9, n_per_class=30, labels_per_class=2)),
}

DIGESTS = {
    "snowball": {
        "master.ckpt": "f53924b64a46e068f78047e0d656ba61c24026615c61e56fed2842715a857fae",
        "steps-g1-i1.csv": "ef3f8c3b96404f4a15c757009be5082d0e59b42cbe380d69b06b6ca16267a413",
        "steps-g1-i2.csv": "e3e547b10c942a77973ea0092cf8cc7f74e7138edb21a37523b126ddbd48d1bf",
        "steps-g2-i1.csv": "6ac9613c7f14e287395e8eb123c217d0dabe0eaff9cbbe5262b58323d6836dee",
        "steps-g2-i2.csv": "fea96b85236c540d700ec4f2ef90fdab5906d07a0db17871194af602695ccd32",
        "student.ckpt": "cb7b9b79b1f1c1ead0b0addb1bf0b4a5c35e38a0926a4e41e99d21cb575750e2",
        "teacher.ckpt": "b64f1ada09c4506b59ddc6f0537105728d76a8bf6eb620c24936e4b5e7c8a1ea",
    },
    "self-learning": {
        "steps-g1-i1.csv": "8a41652bace240f44fae4a6364ce849422b930378dfb2fd9d81c46bcbaa2058b",
        "steps-g1-i2.csv": "158be5990ca3ff0c4b79e3a7ff9d77491c1d720418d0ee88cc9bd074835f2f60",
        "student.ckpt": "603e2129980b95097f7bf7de945611207ae4c11990f87ac3f356a6cdf9a482f2",
        "teacher.ckpt": "df72a3837fad7a3f606b366cea35016e08925b768c04d0871fe0e4583e028494",
    },
    "wide-mse": {
        "master.ckpt": "2abe5892227b0c0e6b790d3e8736a53a0b56777a85f57f7e667801a5ca6914f0",
        "steps-g1-i1.csv": "6039e32fc9a8f3a0f0ef807ad5b8e09b6420cc7dbac994ce7543c8cf403b7ad2",
        "steps-g1-i2.csv": "b3db009224ea0935280afa4387684636a051208a4534cf995ca84ed7e2aa7537",
        "student.ckpt": "5d678bd86bcf7dcb95938258e00ce0112c1e3713c955bccc038002886edc5777",
        "teacher.ckpt": "260b16e2015fe0efb242d986c3265573edf804e4a2de2014724f4a76778d9e5a",
    },
}


# step CSVs at the default cadence, training.EVAL_EVERY = 25
DEFAULT_CADENCE_STEP_CSVS = {
    "snowball": {
        "steps-g1-i1.csv": "0fd1ad35e6f2ceee57a0e947ce6ce9680ccf3ec137bbf7fea9ec6739fac75340",
        "steps-g1-i2.csv": "56d8f79e810dcbcdceb131279a75eee00172407c41321548ac6184e299cf4b5f",
        "steps-g2-i1.csv": "621e70e9e1509db0082e9a3ae6b455f004073ac9e39402ff7f1684ae878c901f",
        "steps-g2-i2.csv": "05196c88136082ed5fe5c0eda73b6b2d469f7072db3273482e7c0deb6103d911",
    },
    "self-learning": {
        "steps-g1-i1.csv": "8ca698eb67e5086cddec14fcae5c0e606a8e71ad4cc168bd62812916ea04de68",
        "steps-g1-i2.csv": "257411bc6d9082e9ed9c83935e0994691f93e6d869e1540a6a9476f9b74f7b21",
    },
    "wide-mse": {
        "steps-g1-i1.csv": "982dc90f9a0cbf39bb48708ca932edbaec4eb9514abd916686071bfe065be916",
        "steps-g1-i2.csv": "e943ba9b37483dff39860f3bea77a6713cd72966e522439c62fe861bd6197efb",
    },
}


def artifact_digests(tmp_path, name):
    algo, config, spec = RUNS[name]
    _, run_dir = run_one(algo, config, spec, tmp_path, name=name)
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in run_dir.iterdir() if f.suffix in (".ckpt", ".csv")}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_artifacts_match_recorded_digests(tmp_path, monkeypatch, name):
    monkeypatch.setattr(training, "EVAL_EVERY", 1)
    assert artifact_digests(tmp_path, name) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_default_cadence_keeps_the_recorded_checkpoints(tmp_path, name):
    checkpoints = {f: d for f, d in DIGESTS[name].items() if f.endswith(".ckpt")}
    assert artifact_digests(tmp_path, name) == {**checkpoints,
                                                **DEFAULT_CADENCE_STEP_CSVS[name]}


# Discovery reports of small snowball runs on 3-class blobs, one per fusion.
# Four iterations put up to three past masters into the fused discoveries;
# the runs cover random, class-balanced, min and max selection. Each run
# writes its discovery CSVs next to its checkpoints, so the digests pin the
# reports and everything they feed (the training set, the master's extra
# candidates, the final models). They were recorded while distances were
# still computed over the whole pool at once; computing them in row blocks
# must leave every byte the same.
DISCOVERY_RUNS = {
    "feature_cascade": {"strategy": "random"},
    "average_distance": {"balance_classes": True},
    "average_sorting_score": {},
    "single": {"strategy": "max"},
}

DISCOVERY_DIGESTS = {
    "average_distance": {
        "discovery-g1-i1.csv": "e58085baa3025a4346fa2e3e8df42643fd4922ed5044e941ce202c591765da6a",
        "discovery-g1-i2.csv": "48b4b030dcd73cb760ed65c55d371129d7035349e3f863b9ef4bfed347603fff",
        "discovery-g1-i3.csv": "9fad53479b75fc308b7fd50e5fd1baf82ff905ad2e74ad6d626893b0ef359b2d",
        "discovery-g1-i4.csv": "b58ceb493b31e100a682655f4dbe436993e5170a6781d1f7f025585592ca66d5",
        "master.ckpt": "41c77e64242d8ceed5b68147c8e51715ee38f7218f43207e56bcc99fe3e36468",
        "student.ckpt": "7ef3f1df4b30b2c3420ddb4c90982eeaa4b909c3e50a8c3f9bf8e950531d45b9",
        "teacher.ckpt": "c7dd4868cbd7363c31c3f2f6f878fbd46c2aa2a49380fa6318938179de3d5537",
    },
    "average_sorting_score": {
        "discovery-g1-i1.csv": "c4187018b0f9eaf34327e164a58adc119c8e96780c30b0eb44420301903dfc86",
        "discovery-g1-i2.csv": "844f67810ea8f0b32b84d0c0479b3a5baa48cdb8926a7b3f28c60db963cba35b",
        "discovery-g1-i3.csv": "638413ae46652d09611bcb2184d35c0561a108779f62c47d39b4de0b7b423d5c",
        "discovery-g1-i4.csv": "10a89a47e98b11cfa090ab8cc1a3bac9861fc640f27f60adabbb0105d99be3d1",
        "master.ckpt": "8c762f1940de50f7023185b0ca6b7f02dc3c9d938d2019fedf32fcf3a116e4fd",
        "student.ckpt": "5c1b16df13da2f2932486973c6bbe5c2c6b230d62c3e30228be3cdf2bd938c12",
        "teacher.ckpt": "e0e122b69c3b24626733ab23f2ed7f87b72209ab48aa86a617c071aa502acce7",
    },
    "feature_cascade": {
        "discovery-g1-i1.csv": "4c25e7bed5fc2d42cc8596f9d221c088904abd11afc3391fe9f396175ff54316",
        "discovery-g1-i2.csv": "95612e66021aecc8b0c161f0e44377220e18a6b47ecb6580a885511094a5ff8c",
        "discovery-g1-i3.csv": "f854ebac567cd0a3ba100f506fb4cd4178c5aa530ca95b0ee7dc201d87045df1",
        "discovery-g1-i4.csv": "d8e0aa2d2b7976a3879a54a7236df2b5661ff6f2689bf76f19e83d9096b1630a",
        "master.ckpt": "67bc67a87b02cc46fe4f3f804e198951a05b5acb5f8e807e4c8d5d54ef10fc52",
        "student.ckpt": "76dfa64557389552741a26e459d1fc994de8145df02a7ef2aee5365050452f0a",
        "teacher.ckpt": "6e1185dcc46155ed80717fc1009a1eea58b0ef9a0ec28e4a354d2105b7f8b49d",
    },
    "single": {
        "discovery-g1-i1.csv": "eebf6bfe827cc57e02b528529241e3be61c80640f564fd3ce5b809198d49cdd5",
        "discovery-g1-i2.csv": "02b8ec9bdc0cefb58b28812bbe17d5cd1ba63323eda6e285e27f4a520ae9a0f2",
        "discovery-g1-i3.csv": "2f3906136ea40da5254ad6e90787eaeae9ebe54162d731c57dfc858da8d1e020",
        "discovery-g1-i4.csv": "2fff7304f30ed48c87e5f122a9eaf6d88d62e2d1381b7dff25f7c0c57e074b46",
        "master.ckpt": "25d66ac91c8a0960c6c8f97caf595923f26447c24c98e790dab551a721d7dd18",
        "student.ckpt": "31c344106438959385075d928d664dd6f6015c7db4212f68ff862ec932270eb8",
        "teacher.ckpt": "e422a5f1e71dd582961ff3e9209d143a80f9a06aefa9f77095b84f1bc045ac1d",
    },
}


def discovery_digests(tmp_path, fusion):
    config = ExperimentConfig(generations=1, iterations=4, steps=20, ramp_len=10,
                              discovery_schedule=(9, 12, 15, 18), fusion=fusion,
                              hidden_dims=(12, 6), seed=2, **DISCOVERY_RUNS[fusion])
    spec = DataSpec(dataset="blobs", classes=3, n_per_class=40, labels_per_class=2)
    _, run_dir = run_one("snowball", config, spec, tmp_path, name=fusion,
                         dump_discovery=True)
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in run_dir.iterdir()
            if f.suffix == ".ckpt" or f.name.startswith("discovery-")}


@pytest.mark.parametrize("fusion", sorted(DISCOVERY_RUNS))
def test_discovery_reports_match_recorded_digests(tmp_path, fusion):
    assert discovery_digests(tmp_path, fusion) == DISCOVERY_DIGESTS[fusion]


# A snowball run that trains on the selected rows' true labels. Noisy,
# overlapping blobs and random selection make many pseudo-labels wrong, so the
# step CSVs and checkpoints depend on the selected rows and the master's extra
# rows both being relabelled with the truth; the discovery CSVs keep the
# pseudo-labels. Two generations, three iterations each, average-distance
# fusion and class-balanced selection.
TRUE_LABEL_DIGESTS = {
    "discovery-g1-i1.csv": "2d68d2b3a8c4499a3e9d14dcb2122ab9a7a2ab4eeba1e424b29dd64b6e37660a",
    "discovery-g1-i2.csv": "9e25c78fc9f4cd3a4df98ed23e2a72e83a604f4a1a2680cb1b61a38d308593c7",
    "discovery-g1-i3.csv": "e311afea531404214ff09ea439ea0bf865ccdeab985d7600c60435213a5d93ab",
    "discovery-g2-i1.csv": "2e7d836b947b357d934138b313c3b02de73e2bcac7ce60bf9d5ed5ce06faa356",
    "discovery-g2-i2.csv": "0f25ab23895fe14c7fdcb726b16d50cce9eca5f36f86a228febb3479e44a101c",
    "discovery-g2-i3.csv": "a1fc2c976b68cd97efc45c00fbf26723dfcf280d926b4c415a1a64e5ace84a96",
    "master.ckpt": "ce2ad6129eb965ee44f2a849e2b26405021b1d47ea272479e8d740a7a4b39cc0",
    "steps-g1-i1.csv": "483892e8be32fb399bbf496cb34f8a77800294ce74ab41ef7cbb22e7e4e8dbdd",
    "steps-g1-i2.csv": "903ab44c01f9e464301c4f12d776e54bc7352a9a9640ff3fd3ec5ed8a45ad8ba",
    "steps-g1-i3.csv": "f46a268eb3a71023122e69fc742508463a3d3ccd751bede34ea79762493ccf0e",
    "steps-g2-i1.csv": "06e0ef98f61587e1a9404c231cef7b25db8415b3f786d25f40e26df62f89c9f1",
    "steps-g2-i2.csv": "62a791e0244efd4b2319f60f35052bca9e4e6accfe7583e822d12958f308cb5a",
    "steps-g2-i3.csv": "2a544d349af19d984efb788248ab62176909b5c507614b2612b9cd84a3d60530",
    "student.ckpt": "1de8cceb3afa80f89bc76aef8b2d45d4261f0f917cab1d341a570c68743ef996",
    "teacher.ckpt": "6e8903e5edad514318e0a2ad25345107bc0b01229bd03648dd2debcd022b8cc1",
}


def test_true_label_run_matches_recorded_digests(tmp_path):
    config = ExperimentConfig(generations=2, iterations=3, steps=20, ramp_len=10,
                              discovery_schedule=(9, 12, 15), fusion="average_distance",
                              balance_classes=True, use_true_labels=True,
                              hidden_dims=(12, 6), strategy="random", seed=6)
    spec = DataSpec(dataset="blobs", classes=3, n_per_class=40, data_noise=1.6,
                    separation=2.0, labels_per_class=2)
    record, run_dir = run_one("snowball", config, spec, tmp_path, name="true-labels",
                              dump_discovery=True)
    assert max(row.noise_rate for row in record.rows) > 0.0  # the truth differs
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in run_dir.iterdir() if f.suffix in (".ckpt", ".csv")} == TRUE_LABEL_DIGESTS


# The two benchmark workloads at seed 7, configured as perfbench/workloads.py
# configures them, pinned by the benchmark's rows digest: sha256 over
# repr(row.manifest_values()[:6]) of each row, wall time excluded. A speed-up
# that changes a single float of a row fails here before it reaches the
# benchmark.
def _moons_snowball():
    config, spec = benchmark_two_moons()
    return replace(config, seed=7), spec


def _blobs_bigpool():
    config, spec = benchmark_blobs()
    spec = replace(spec, n_per_class=2500, test_fraction=0.05)
    return replace(config, seed=7, discovery_schedule=(500, 1000, 2000),
                   fusion="feature_cascade", steps=100, ramp_len=50), spec


WORKLOADS = {"moons-snowball": _moons_snowball, "blobs-bigpool": _blobs_bigpool}

WORKLOAD_ROWS_DIGESTS = {
    "moons-snowball": "a7213e9a36a38a5781d18d3e49c55fc45195d27349c870cacea94e204869ab60",
    "blobs-bigpool": "13707ad7da0db748e685c40428e08c0d311143339a853d3c71a02d8676af1df2",
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_benchmark_workload_rows_match_recorded_digests(workload):
    config, spec = WORKLOADS[workload]()
    rows = run_algorithm("snowball", make_dataset(spec, config.seed), config).rows
    digest = hashlib.sha256()
    for row in rows:
        digest.update(repr(row.manifest_values()[:6]).encode())
    assert digest.hexdigest() == WORKLOAD_ROWS_DIGESTS[workload]


# What the command line writes beyond the digests above: each manifest, with
# its wall_time cells cut off (a measurement, not a metric), the sweep's
# aggregate CSV, and the discovery CSVs of a pseudo-label run (rank-averaged
# fusion, the selected rows keep their pseudo-labels) dumped by
# `train --dump-discovery`. The config section pins how the manifest spells
# floats, tuples and booleans.
CLI_OPTIONS = ["--dataset", "two-moons", "--set", "n_samples=300", "--set", "generations=1",
               "--set", "iterations=3", "--set", "steps=30", "--set", "ramp_len=15",
               "--set", "discovery_schedule=16,32,48", "--set", "hidden_dims=12,6",
               "--set", "fusion=average_sorting_score", "--set", "balance_classes=true"]

CLI_DIGESTS = {
    "pin-aggregate.csv":
        "f6e23f7e474802a0efc6279925414bbf987c2e50866322ba5185eb1dd893bb46",
    "pin-seed0/manifest.txt":
        "d6cf917d03319134912cf5cad1a843bc43262be4e0c0585ba7a2be3cdcf46c37",
    "pin-seed1/manifest.txt":
        "ee2a3099f5f8f4b8ceb7e6acd4cd887d0326911be34efb0fee89ec44e7549ce7",
    "dump/discovery-g1-i1.csv":
        "61abb248d241018da772fa58cefa3f41d66f89857df677b93fa2fc23641bc191",
    "dump/discovery-g1-i2.csv":
        "8add0338029e8ea5db305220c4be0d8d2c6fa18e1cd01eaf92ae80df68c77692",
    "dump/discovery-g1-i3.csv":
        "702abd887d1e0403808c9fea67c5af29398798a1ef3342bb45e38a9c72bb5218",
    "dump/manifest.txt":
        "aa9180969b0614aa98eba86b75815369b4931db91544c459bfe50427c3016949",
}


def without_wall_time(manifest: bytes) -> bytes:
    """The manifest with the last cell of every metric row cut off; metric
    rows are its only CRLF-terminated lines."""
    return re.sub(rb",[^,\r\n]*\r\n", b",\r\n", manifest)


def test_cli_artifacts_match_recorded_digests(tmp_path):
    out = ["--out-dir", str(tmp_path)]
    assert cli_run(["sweep", "--seeds", "0,1", "--name", "pin", *out, *CLI_OPTIONS]) == 0
    assert cli_run(["train", "--seed", "2", "--name", "dump", "--dump-discovery",
                    *out, *CLI_OPTIONS]) == 0
    digests = {}
    for path in sorted(tmp_path.rglob("*")):
        if path.name == "manifest.txt":
            data = without_wall_time(path.read_bytes())
        elif path.name.endswith("aggregate.csv") or path.name.startswith("discovery-"):
            data = path.read_bytes()
        else:
            continue
        digests[path.relative_to(tmp_path).as_posix()] = hashlib.sha256(data).hexdigest()
    assert digests == CLI_DIGESTS
