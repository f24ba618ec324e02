"""Tests for run records and the CSV/JSON emitters."""

import csv
import json

import numpy as np
import pytest

from prealign.errors import ConfigError
from prealign.records import RunRecord
from prealign.runner.emit import emit_csv, write_manifest


def record(trial=0, phase="train", epoch=1, train_loss=0.5, test_loss=0.6,
           train_acc=0.9, test_acc=0.8, metrics=None):
    return RunRecord(trial=trial, phase=phase, epoch=epoch,
                     train_loss=train_loss, test_loss=test_loss,
                     train_acc=train_acc, test_acc=test_acc,
                     metrics=metrics or {})


class TestRunRecord:
    def test_defaults(self):
        r = RunRecord(trial=1, phase="train", epoch=2, train_loss=0.1,
                      test_loss=None, train_acc=0.5, test_acc=None)
        assert r.metrics == {}
        assert r.test_loss is None

    def test_metrics_not_shared(self):
        a = record()
        b = record()
        a.metrics["x"] = 1.0
        assert "x" not in b.metrics


class TestEmitCsv:
    def test_header_and_row_layout(self, tmp_path):
        p = tmp_path / "records.csv"
        emit_csv([record(metrics={"beta": 2.0, "alpha": 1.0})], p)
        lines = p.read_text().splitlines()
        assert lines[0] == (
            "trial,phase,epoch,train_loss,test_loss,train_acc,test_acc,"
            "alpha,beta"
        )
        assert len(lines) == 2
        assert lines[1] == "0,train,1,0.5,0.6,0.9,0.8,1,2"

    def test_none_becomes_empty_cell(self, tmp_path):
        p = tmp_path / "records.csv"
        emit_csv([record(test_loss=None, test_acc=None)], p)
        row = p.read_text().splitlines()[1].split(",")
        assert row[4] == "" and row[6] == ""
        assert "0" not in (row[4], row[6])

    def test_metric_union_sorted_with_gaps_empty(self, tmp_path):
        p = tmp_path / "records.csv"
        emit_csv(
            [record(metrics={"z": 1.0}), record(epoch=2, metrics={"a": 2.0})],
            p,
        )
        lines = p.read_text().splitlines()
        assert lines[0].endswith(",a,z")
        first = lines[1].split(",")
        second = lines[2].split(",")
        assert first[-2] == "" and first[-1] == "1"
        assert second[-2] == "2" and second[-1] == ""

    def test_nine_significant_digits(self, tmp_path):
        p = tmp_path / "records.csv"
        emit_csv([record(train_loss=1.0 / 3.0)], p)
        assert "0.333333333" in p.read_text()

    def test_parses_back_with_csv_module(self, tmp_path):
        p = tmp_path / "records.csv"
        emit_csv([record(metrics={"m": 0.25}), record(epoch=2)], p)
        with open(p, newline="") as f:
            rows = list(csv.DictReader(f))
        assert rows[0]["m"] == "0.25"
        assert rows[1]["m"] == ""
        assert rows[1]["epoch"] == "2"

    def test_lf_line_endings(self, tmp_path):
        p = tmp_path / "records.csv"
        emit_csv([record()], p)
        raw = p.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_byte_identical_across_calls(self, tmp_path):
        recs = [record(epoch=e, train_loss=np.pi / (e + 1)) for e in range(1, 4)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(recs, a)
        emit_csv(recs, b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_csv([], tmp_path / "x.csv")


class TestManifest:
    def test_write_manifest_round_trip(self, tmp_path):
        p = tmp_path / "manifest.json"
        payload = {"z": 1, "a": {"nested": np.float64(2.5)}}
        write_manifest(payload, p)
        loaded = json.loads(p.read_text())
        assert loaded == {"z": 1, "a": {"nested": 2.5}}
        # keys come out sorted for stable diffs
        assert p.read_text().index('"a"') < p.read_text().index('"z"')
