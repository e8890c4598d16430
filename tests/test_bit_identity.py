"""Golden artifacts: two small pipelines must keep writing the same bytes.

The digests in DIGESTS were recorded before parameters moved into one flat
buffer and backpropagation started reusing the forward trace, when every
step still measured its error rates; both changes are meant to leave every
float bit-identical, and so every checkpoint and step CSV. With the step
evaluation cadence set back to every step they must all still match. At the
default cadence only the step CSVs change (their skipped error cells are
empty); the checkpoints keep the recorded digests. The digests hold for
float64 numpy 2.4 with OpenBLAS 0.3 on x86-64; another BLAS build or CPU may
round matrix products differently.
"""

import hashlib

import pytest

from snowball import training
from snowball.cli import DataSpec, run_one
from snowball.orchestrator import ExperimentConfig

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
