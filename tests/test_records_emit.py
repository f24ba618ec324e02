"""Tests for run records and the CSV/SVG/JSON emitters."""

import csv
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from prealign import ConfigError, RunRecord
from prealign.runner.emit import emit_csv, emit_plot, jsonable, write_manifest


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


class TestEmitPlot:
    def test_valid_xml_with_one_polyline_per_series(self, tmp_path):
        p = tmp_path / "curves.svg"
        emit_plot(
            {"fa": ([1, 2, 3], [0.1, 0.5, 0.7]),
             "bp": ([1, 2, 3], [0.2, 0.6, 0.9])},
            p, title="accuracy", ylabel="test acc",
        )
        root = ET.parse(p).getroot()
        assert root.tag.endswith("svg")
        ns = "{http://www.w3.org/2000/svg}"
        polylines = root.iter(f"{ns}polyline")
        assert len(list(polylines)) == 2

    def test_axis_labels_and_title_present(self, tmp_path):
        p = tmp_path / "curves.svg"
        emit_plot({"s": ([0, 1], [0, 1])}, p, title="T<amp>&",
                  xlabel="epoch", ylabel="loss")
        text = p.read_text()
        assert "T&lt;amp&gt;&amp;" in text
        assert "epoch" in text and "loss" in text

    def test_points_stay_inside_viewbox(self, tmp_path):
        p = tmp_path / "curves.svg"
        emit_plot({"s": ([0, 10], [-5.0, 5.0])}, p)
        ns = "{http://www.w3.org/2000/svg}"
        root = ET.parse(p).getroot()
        for poly in root.iter(f"{ns}polyline"):
            for pair in poly.get("points").split():
                x, y = map(float, pair.split(","))
                assert 0 <= x <= 640 and 0 <= y <= 420

    def test_constant_series_does_not_divide_by_zero(self, tmp_path):
        p = tmp_path / "flat.svg"
        emit_plot({"s": ([1, 2, 3], [0.5, 0.5, 0.5])}, p)
        assert "NaN" not in p.read_text()

    def test_single_point_series(self, tmp_path):
        p = tmp_path / "dot.svg"
        emit_plot({"s": ([1], [0.0])}, p)
        assert "NaN" not in p.read_text()

    def test_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_plot({}, tmp_path / "x.svg")
        with pytest.raises(ConfigError):
            emit_plot({"s": ([1, 2], [1.0])}, tmp_path / "x.svg")
        with pytest.raises(ConfigError):
            emit_plot({"s": ([], [])}, tmp_path / "x.svg")


class TestManifest:
    def test_jsonable_converts_numpy(self):
        out = jsonable({
            "a": np.float64(0.5),
            "b": np.int32(3),
            "c": np.arange(3),
            "d": [np.float32(1.0), {"e": np.uint8(2)}],
        })
        assert json.dumps(out)
        assert out["a"] == 0.5 and out["b"] == 3
        assert out["c"] == [0, 1, 2]

    def test_write_manifest_round_trip(self, tmp_path):
        p = tmp_path / "manifest.json"
        payload = {"z": 1, "a": {"nested": np.float64(2.5)}}
        write_manifest(payload, p)
        loaded = json.loads(p.read_text())
        assert loaded == {"z": 1, "a": {"nested": 2.5}}
        # keys come out sorted for stable diffs
        assert p.read_text().index('"a"') < p.read_text().index('"z"')
