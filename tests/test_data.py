"""Dataset generators, the split, normalisation, and CSV loading."""

import numpy as np
import pytest

from snowball.data import (
    gen_gaussian_blobs,
    gen_rings,
    gen_two_moons,
    load_csv,
    split,
)
from snowball.errors import DataError


class TestTwoMoons:
    def test_noiseless_geometry(self):
        raw = gen_two_moons(400, 0.0, seed=0)
        x, y = raw.x, raw.y
        # class 0: unit circle around origin; class 1: unit circle around (1, 0.5)
        r0 = np.abs(np.linalg.norm(x[y == 0], axis=1) - 1.0)
        r1 = np.abs(np.linalg.norm(x[y == 1] - [1.0, 0.5], axis=1) - 1.0)
        assert r0.max() < 1e-12
        assert r1.max() < 1e-12
        assert np.all(x[y == 0][:, 1] >= -1e-12)          # upper half
        assert np.all(x[y == 1][:, 1] <= 0.5 + 1e-12)     # lower half

    def test_class_balance(self):
        raw = gen_two_moons(401, 0.1, seed=1)
        assert np.sum(raw.y == 0) == 201
        assert np.sum(raw.y == 1) == 200

    def test_same_seed_identical(self):
        a = gen_two_moons(100, 0.2, seed=5)
        b = gen_two_moons(100, 0.2, seed=5)
        np.testing.assert_array_equal(a.x, b.x)
        c = gen_two_moons(100, 0.2, seed=6)
        assert not np.array_equal(a.x, c.x)

    def test_negative_noise_rejected(self):
        with pytest.raises(DataError):
            gen_two_moons(100, -0.1)


class TestBlobs:
    def test_well_separated_nearest_centroid_perfect(self):
        noise = 0.05
        raw = gen_gaussian_blobs(4, 50, noise, separation=100 * noise, seed=0)
        angles = 2 * np.pi * np.arange(4) / 4
        centers = 100 * noise * np.column_stack([np.cos(angles), np.sin(angles)])
        d = np.linalg.norm(raw.x[:, None, :] - centers[None], axis=2)
        assert np.array_equal(np.argmin(d, axis=1), raw.y)

    def test_counts_and_determinism(self):
        a = gen_gaussian_blobs(3, 7, 0.5, 2.0, seed=3)
        assert len(a) == 21
        assert a.class_count == 3
        b = gen_gaussian_blobs(3, 7, 0.5, 2.0, seed=3)
        np.testing.assert_array_equal(a.x, b.x)

    def test_bad_args(self):
        with pytest.raises(DataError):
            gen_gaussian_blobs(1, 10, 0.1, 1.0)
        with pytest.raises(DataError):
            gen_gaussian_blobs(3, 0, 0.1, 1.0)


class TestRings:
    def test_radii(self):
        raw = gen_rings(3, 64, 0.0, seed=0)
        for c in range(3):
            r = np.linalg.norm(raw.x[raw.y == c], axis=1)
            np.testing.assert_allclose(r, c + 1.0, atol=1e-12)


class TestSplit:
    def test_sizes_and_disjoint_ids(self):
        raw = gen_two_moons(300, 0.1, seed=2)
        d = split(raw, labels_per_class=2, test_fraction=1 / 3, seed=2)
        assert len(d.labeled_ids) == 4           # 2 classes * 2
        assert len(d.test_ids) == 100
        assert len(d.unlabeled_ids) == 196
        all_ids = np.concatenate([d.labeled_ids, d.unlabeled_ids, d.test_ids])
        assert len(np.unique(all_ids)) == 300

    def test_labeled_set_balanced(self):
        raw = gen_gaussian_blobs(4, 30, 0.3, 2.0, seed=0)
        d = split(raw, labels_per_class=3, test_fraction=0.25, seed=1)
        for c in range(4):
            assert np.sum(d.true_y[d.labeled_ids] == c) == 3

    def test_all_labels_empty_pool(self):
        raw = gen_gaussian_blobs(2, 10, 0.3, 2.0, seed=0)
        d = split(raw, labels_per_class=10, test_fraction=0.0, seed=0)
        assert len(d.unlabeled_ids) == 0
        assert len(d.labeled_ids) == 20

    def test_insufficient_class_named(self):
        raw = gen_gaussian_blobs(2, 5, 0.3, 2.0, seed=0)
        with pytest.raises(DataError, match="class"):
            split(raw, labels_per_class=6, test_fraction=0.0, seed=0)

    def test_same_seed_identical(self):
        raw = gen_two_moons(200, 0.1, seed=0)
        a = split(raw, 2, 0.3, seed=9)
        b = split(raw, 2, 0.3, seed=9)
        np.testing.assert_array_equal(a.labeled_ids, b.labeled_ids)
        np.testing.assert_array_equal(a.test_ids, b.test_ids)

    def test_normalisation_from_training_pool_only(self):
        raw = gen_two_moons(600, 0.1, seed=4)
        d = split(raw, labels_per_class=5, test_fraction=0.5, seed=4)
        train = d.x[np.concatenate([d.labeled_ids, d.unlabeled_ids])]
        np.testing.assert_allclose(train.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(train.std(axis=0), 1.0, atol=1e-10)
        # test rows use the same statistics, so they are NOT exactly standard
        assert not np.allclose(d.x[d.test_ids].mean(axis=0), 0.0, atol=1e-12)

    def test_constant_dimension_divisor_one(self):
        x = np.column_stack([np.linspace(0, 1, 40), np.full(40, 3.0)])
        y = np.repeat([0, 1], 20)
        from snowball.data import RawDataset
        d = split(RawDataset(x, y, 2), labels_per_class=2, test_fraction=0.25, seed=0)
        assert np.all(np.isfinite(d.x))
        np.testing.assert_allclose(d.x[:, 1], 0.0, atol=1e-12)

    def test_x_is_every_sample_row_normalised_by_the_labelled_and_pool_rows(self):
        raw = gen_gaussian_blobs(3, 40, 0.3, 2.0, seed=5)
        d = split(raw, labels_per_class=4, test_fraction=0.3, seed=5)
        assert d.x.shape == raw.x.shape
        # the three id sets are disjoint and cover the rows
        ids = np.concatenate([d.labeled_ids, d.unlabeled_ids, d.test_ids])
        np.testing.assert_array_equal(np.sort(ids), np.arange(len(raw)))
        fit = raw.x[np.concatenate([d.labeled_ids, d.unlabeled_ids])]
        want = (raw.x - fit.mean(axis=0)) / fit.std(axis=0)
        assert d.x.tobytes() == want.tobytes()

    def test_true_y_is_the_label_of_every_sample_id(self):
        raw = gen_two_moons(120, 0.1, seed=3)
        d = split(raw, 2, 0.25, seed=3)
        np.testing.assert_array_equal(d.true_y, raw.y)
        assert d.true_y is not raw.y


class TestLoadCsv:
    def write(self, tmp_path, text):
        p = tmp_path / "data.csv"
        p.write_text(text)
        return p

    def test_two_samples(self, tmp_path):
        raw = load_csv(self.write(tmp_path, "0.0,1.0,0\n1.0,0.0,1\n"))
        assert len(raw) == 2
        assert raw.x.shape == (2, 2)
        assert raw.class_count == 2
        np.testing.assert_array_equal(raw.y, [0, 1])

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="no samples"):
            load_csv(self.write(tmp_path, ""))

    def test_non_numeric_feature(self, tmp_path):
        with pytest.raises(DataError, match="line 1"):
            load_csv(self.write(tmp_path, "a,1.0,0\n"))

    def test_fractional_label(self, tmp_path):
        with pytest.raises(DataError, match="line 1"):
            load_csv(self.write(tmp_path, "0,1,0.5\n"))

    def test_ragged_row(self, tmp_path):
        with pytest.raises(DataError, match="line 2"):
            load_csv(self.write(tmp_path, "0,1,0\n1,1\n"))

    @pytest.mark.parametrize("label", ["-1", "1e19"])
    def test_label_outside_the_inferable_range(self, tmp_path, label):
        with pytest.raises(DataError, match="line 2: label .* outside"):
            load_csv(self.write(tmp_path, f"0,1,0\n1,0,{label}\n"))

    def test_inferred_class_count(self, tmp_path):
        raw = load_csv(self.write(tmp_path, "0,1,0\n1,0,4\n"))
        assert raw.class_count == 5

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_feature(self, tmp_path, value):
        with pytest.raises(DataError, match="line 2: non-finite feature"):
            load_csv(self.write(tmp_path, f"0,1,0\n{value},1,1\n"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_label(self, tmp_path, value):
        with pytest.raises(DataError, match="line 2: non-finite label"):
            load_csv(self.write(tmp_path, f"0,1,0\n1,1,{value}\n"))

    def test_non_utf8_bytes_are_data_error(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"0,1,0\n1,1\xff,1\n")
        with pytest.raises(DataError, match=r"data\.csv: .*can't decode byte 0xff"):
            load_csv(path)
