import logging

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from budgetgp.dataio import (
    IngestionError,
    NormalizationError,
    ResultRecord,
    load_csv_dataset,
    normalize_apply,
    normalize_fit,
    read_results,
    smse,
    write_results,
)
from budgetgp.gp import Dataset


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_small_table(self, tmp_path, caplog):
        path = write_csv(tmp_path, "a,b,target\n1,2,3\n4,5,6\n7,8,9\n")
        with caplog.at_level(logging.WARNING, logger="budgetgp.dataio"):
            names, t = load_csv_dataset(path, "target")
        assert names == ("a", "b")
        npt.assert_array_equal(t.inputs, [[1, 2], [4, 5], [7, 8]])
        npt.assert_array_equal(t.targets, [3, 6, 9])
        assert not caplog.records  # no row dropped

    def test_non_numeric_cell_names_location(self, tmp_path):
        path = write_csv(tmp_path, "a,b,target\n1,2,3\n4,oops,6\n")
        with pytest.raises(IngestionError, match=r"row 3, column 'b'"):
            load_csv_dataset(path, "target")

    def test_missing_values_dropped_and_counted(self, tmp_path, caplog):
        path = write_csv(tmp_path, "a,target\n1,2\n,3\n4,nan\n5,6\n")
        with caplog.at_level(logging.WARNING, logger="budgetgp.dataio"):
            _, t = load_csv_dataset(path, "target")
        assert t.n == 2
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert "dropped 2 row(s)" in record.getMessage()

    def test_missing_target_column(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,2\n")
        with pytest.raises(IngestionError, match="missing target column"):
            load_csv_dataset(path, "target")

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path, "")
        with pytest.raises(IngestionError, match="empty"):
            load_csv_dataset(path, "target")

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestionError, match="no such file"):
            load_csv_dataset(tmp_path / "nope.csv", "target")

    def test_boston_shaped_file(self, tmp_path, rng):
        header = ",".join([f"f{i}" for i in range(13)] + ["medv"])
        rows = "\n".join(
            ",".join(f"{v:.4f}" for v in rng.normal(size=14)) for _ in range(506)
        )
        path = write_csv(tmp_path, header + "\n" + rows + "\n")
        names, t = load_csv_dataset(path, "medv")
        assert len(names) == 13
        assert t.inputs.shape == (506, 13)
        assert t.targets.shape == (506,)

    def test_order_preserving(self, tmp_path):
        path = write_csv(tmp_path, "a,target\n9,1\n8,2\n7,3\n")
        _, t = load_csv_dataset(path, "target")
        npt.assert_array_equal(t.inputs[:, 0], [9, 8, 7])


NAMES = ("x0", "x1", "x2")


def table(rng, n=20, p=3):
    return Dataset(
        rng.normal(size=(n, p)) * rng.uniform(0.5, 4, size=p) + rng.normal(size=p),
        rng.normal(size=n) + 5.0,
    )


class TestNormalization:
    def test_training_set_becomes_standard(self, rng):
        train = table(rng)
        stats = normalize_fit(train, NAMES)
        normed = normalize_apply(stats, train)
        npt.assert_allclose(normed.inputs.mean(axis=0), 0.0, atol=1e-10)
        npt.assert_allclose(normed.inputs.std(axis=0), 1.0, atol=1e-10)
        assert abs(normed.targets.mean()) < 1e-10

    def test_single_row_apply(self, rng):
        train = table(rng)
        stats = normalize_fit(train, NAMES)
        row = Dataset(train.inputs[:1], train.targets[:1])
        normed = normalize_apply(stats, row)
        expected = (train.inputs[0] - stats.feature_means) / stats.feature_stds
        npt.assert_allclose(normed.inputs[0], expected)

    def test_round_trip_recovers_originals(self, rng):
        train = table(rng)
        stats = normalize_fit(train, NAMES)
        normed = normalize_apply(stats, train)
        back = normed.inputs * stats.feature_stds + stats.feature_means
        npt.assert_allclose(back, train.inputs, rtol=1e-12)
        npt.assert_allclose(normed.targets + stats.target_mean, train.targets, rtol=1e-12)

    def test_constant_column_named(self, rng):
        t = table(rng)
        rows = t.inputs.copy()
        rows[:, 1] = 7.7
        bad = Dataset(rows, t.targets)
        with pytest.raises(NormalizationError, match="x1"):
            normalize_fit(bad, NAMES)

    def test_apply_never_refits(self, rng):
        train, other = table(rng), table(rng, n=30)
        stats = normalize_fit(train, NAMES)
        normed = normalize_apply(stats, other)
        assert abs(normed.inputs.mean()) > 1e-3  # stats came from train, not other


class TestSmse:
    def test_mean_predictor_is_exactly_one(self, rng):
        y = rng.normal(size=50)
        pred = np.full(50, y.mean())
        assert smse(pred, y) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_predictor_is_zero(self, rng):
        y = rng.normal(size=50)
        assert smse(y, y) == 0.0

    def test_worse_than_mean_exceeds_one(self, rng):
        y = rng.normal(size=50)
        pred = np.full(50, y.mean() + 10 * y.std())
        assert smse(pred, y) > 1.0

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            smse(np.zeros(5), np.ones(5))

    def test_length_checks(self):
        with pytest.raises(ValueError):
            smse(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            smse(np.zeros(1), np.zeros(1))

    @given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=2**31))
    def test_mean_predictor_identity_property(self, n, seed):
        gen = np.random.default_rng(seed)
        y = gen.normal(size=n)
        if np.var(y) == 0.0:
            return
        assert smse(np.full(n, y.mean()), y) == pytest.approx(1.0, abs=1e-12)


def sample_records():
    out = []
    for thr in (0.1, 0.2, 0.3):
        for crit in ("prior-entropy", "mean-relevance", "mll"):
            out.append(
                ResultRecord(
                    benchmark="rastrigin",
                    command="online-eval",
                    criterion=crit,
                    seed=3,
                    budget=100,
                    err_threshold=thr,
                    smse=0.123456789012345,
                    size=100,
                    revised=42,
                )
            )
    return out


class TestResults:
    def test_empty_record_list_gives_header_only_csv(self, tmp_path):
        path = tmp_path / "r.csv"
        write_results([], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("benchmark,command,criterion")

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_round_trip(self, tmp_path, suffix):
        path = tmp_path / f"r{suffix}"
        records = sample_records()
        write_results(records, path)
        assert read_results(path) == records

    def test_sweep_key_uniqueness(self, tmp_path):
        path = tmp_path / "r.csv"
        write_results(sample_records(), path)
        back = read_results(path)
        keys = {(r.err_threshold, r.criterion) for r in back}
        assert len(keys) == 9

    def test_byte_identical_rewrites(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results(sample_records(), a)
        write_results(sample_records(), b)
        assert a.read_bytes() == b.read_bytes()
