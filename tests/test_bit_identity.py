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
