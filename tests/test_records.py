"""Manifest serialisation and run-record equality semantics."""

import numpy as np
import pytest
import reference

from snowball.data import DatasetSplit, RawDataset
from snowball.discovery import DiscoveryReport
from snowball.errors import DataError
from snowball.network import BatchForward
from snowball.orchestrator import TrainingSet
from snowball.records import (IterationRow, RunRecord, read_manifest, rows_equal,
                              write_manifest)


def make_row(g=1, i=1, train=0.25, test=0.125, noise=0.0, size=8, wall=1.5):
    return IterationRow(g, i, train, test, noise, size, wall)


class TestIterationRow:
    def test_manifest_values_order(self):
        row = make_row(2, 3, 0.1, 0.2, 0.3, 40, 9.9)
        assert row.manifest_values() == (2, 3, 0.1, 0.2, 0.3, 40, 9.9)

    def test_frozen(self):
        row = make_row()
        with pytest.raises(AttributeError):
            row.test_err = 0.0


class TestRowsEqual:
    def test_identical(self):
        assert rows_equal([make_row()], [make_row()])

    def test_wall_time_ignored(self):
        assert rows_equal([make_row(wall=1.0)], [make_row(wall=999.0)])

    def test_metric_difference_detected(self):
        assert not rows_equal([make_row(test=0.10)], [make_row(test=0.11)])

    def test_nan_matches_nothing(self):
        # no run writes nan, so a row that holds one equals no row, itself included
        row = make_row(test=float("nan"))
        assert not rows_equal([row], [row])
        assert not rows_equal([row], [make_row()])

    def test_length_mismatch(self):
        assert not rows_equal([make_row()], [make_row(), make_row(g=2)])


class TestRunRecord:
    def test_final_test_err(self):
        rec = RunRecord("snowball", {}, [make_row(test=0.3), make_row(i=2, test=0.2)])
        assert rec.final_test_err() == 0.2

    def test_generation_final_errors(self):
        rows = [make_row(1, 1, test=0.5), make_row(1, 2, test=0.4),
                make_row(2, 1, test=0.3), make_row(2, 2, test=0.25)]
        rec = RunRecord("snowball", {}, rows)
        assert reference.generation_final_errors(rec) == [0.4, 0.25]


def make_report():
    return DiscoveryReport(np.arange(3), np.array([0, 1, 0]), np.arange(3.0),
                           np.array([True, False, False]))


# each builds a new instance from equal arrays on every call
ARRAY_VALUES = {
    "BatchForward": lambda: BatchForward((np.zeros((3, 2)), np.ones((3, 2)))),
    "DiscoveryReport": make_report,
    "TrainingSet": lambda: TrainingSet(np.arange(3), np.array([0, 1, 0])),
    "RawDataset": lambda: RawDataset(np.zeros((3, 2)), np.array([0, 1, 0]), 2),
    "DatasetSplit": lambda: DatasetSplit(*[np.arange(3)] * 5, class_count=2),
    "RunRecord": lambda: RunRecord("snowball", {}, [make_row()],
                                   reports={(1, 1): make_report()}),
}


@pytest.mark.parametrize("make", ARRAY_VALUES.values(), ids=ARRAY_VALUES)
def test_values_holding_arrays_compare_by_identity(make):
    # a generated __eq__ compares the arrays and raises, a generated __hash__ is None
    a, b = make(), make()
    assert a != b and not a == b
    assert a == a and b == b
    assert len({a, b, a}) == 2  # both hash
    assert "__eq__" not in vars(type(a)) and "__hash__" not in vars(type(a))


class TestManifestRoundTrip:
    def test_metrics_bit_exact(self, tmp_path):
        # awkward floats must survive the text round trip exactly
        rng = np.random.default_rng(11)
        rows = [make_row(1, k + 1, train=float(rng.random()),
                         test=float(np.pi / (k + 3)), noise=1.0 / 3.0,
                         size=4 * (k + 1), wall=float(rng.random()))
                for k in range(3)]
        rec = RunRecord("snowball", {"seed": 0, "steps": 300}, rows)
        path = tmp_path / "manifest.txt"
        write_manifest(path, rec)
        _, back = read_manifest(path)
        for orig, reread in zip(rows, back):
            assert reread.manifest_values() == orig.manifest_values()

    def test_config_values_returned_as_strings(self, tmp_path):
        rec = RunRecord("mean-teacher",
                        {"seed": 3, "learning_rate": 0.05,
                         "hidden_dims": (32, 32), "dataset": "two-moons"},
                        [make_row()])
        path = tmp_path / "m.txt"
        write_manifest(path, rec)
        cfg, _ = read_manifest(path)
        assert cfg["algo"] == "mean-teacher"
        assert cfg["seed"] == "3"
        assert cfg["learning_rate"] == "0.05"
        assert cfg["hidden_dims"] == "32,32"
        assert cfg["dataset"] == "two-moons"

    def test_rows_equal_after_round_trip(self, tmp_path):
        rows = [make_row(test=0.1 + 0.2)]  # classic non-representable sum
        rec = RunRecord("supervised", {"seed": 0}, rows)
        write_manifest(tmp_path / "m.txt", rec)
        _, back = read_manifest(tmp_path / "m.txt")
        assert rows_equal(rows, back)

    def test_empty_metrics_section(self, tmp_path):
        rec = RunRecord("supervised", {"seed": 0}, [])
        write_manifest(tmp_path / "m.txt", rec)
        cfg, back = read_manifest(tmp_path / "m.txt")
        assert back == []
        assert cfg["seed"] == "0"


class TestManifestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("NOT-A-MANIFEST\n[config]\n[metrics]\n")
        with pytest.raises(DataError, match="magic"):
            read_manifest(path)

    def test_missing_sections(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("SNOWBALL-RUN v1\nalgo = x\n")
        with pytest.raises(DataError, match=r"\[config\] or \[metrics\]"):
            read_manifest(path)

    def test_malformed_config_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("SNOWBALL-RUN v1\n[config]\nno equals sign here\n"
                        "[metrics]\n")
        with pytest.raises(DataError, match="line 3"):
            read_manifest(path)

    @pytest.mark.parametrize("row", ["2,1", "2,1,0.5,0.25,0.0,12", "2,1,0.5,x,0.0,12,1.5"])
    def test_short_or_unparsable_metrics_row(self, tmp_path, row):
        path = tmp_path / "m.txt"
        write_manifest(path, RunRecord("snowball", {"seed": 0}, [make_row()]))
        path.write_text(path.read_text() + row + "\n")
        with pytest.raises(DataError, match="line 8"):
            read_manifest(path)

    def test_non_utf8_bytes_are_data_error(self, tmp_path):
        path = tmp_path / "m.txt"
        write_manifest(path, RunRecord("snowball", {"seed": 0}, [make_row()]))
        path.write_bytes(path.read_bytes() + b"\xff\n")
        with pytest.raises(DataError, match=r"m\.txt: .*can't decode byte 0xff"):
            read_manifest(path)

    def test_wrong_metrics_header(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("SNOWBALL-RUN v1\n[config]\na = 1\n[metrics]\n"
                        "x,y\n")
        with pytest.raises(DataError, match="header"):
            read_manifest(path)
