import sys
import threading
from dataclasses import replace

import pytest

import layers
import run
import tracer
from tracer import Span, Tracer


def _span(i, parent, start, end, name="f", thread=1):
    return Span(i, parent, name, thread, start, end)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(1, None, 0.0, 10.0, "root"),
        _span(2, 1, 1.0, 4.0, "a"),
        _span(3, 1, 3.0, 6.0, "b"),  # overlaps a: union of children is [1, 6]
        _span(4, 2, 2.0, 3.0, "c"),
        _span(5, 1, 9.5, 12.0, "d"),  # runs past its parent: clipped to 0.5
    ]
    selfs = tracer.self_times(spans)
    assert selfs == pytest.approx({1: 10.0 - 5.0 - 0.5, 2: 2.0, 3: 3.0, 4: 1.0, 5: 2.5})


def test_layer_stats_sum_calls_busy_self_and_counts():
    spans = [_span(1, None, 0.0, 4.0, "outer"), _span(2, 1, 1.0, 2.0, "inner"),
             _span(3, 1, 2.0, 3.5, "inner")]
    spans[1].counts = {"rows": 3}
    spans[2].counts = {"rows": 5}
    stats = tracer.layer_stats(spans)
    assert stats["outer"] == pytest.approx({"calls": 1, "busy_s": 4.0, "self_s": 1.5})
    assert stats["inner"] == pytest.approx({"calls": 2, "busy_s": 2.5, "self_s": 2.5, "rows": 8})


def test_p99_needs_ten_samples_beyond_it():
    assert tracer.percentile_us([1.0] * 999, 99) is None
    durations = [i * 1e-6 for i in range(1, 1001)]
    assert tracer.percentile_us(durations, 99) == pytest.approx(990.0)


def test_wrapper_records_parent_and_thread():
    t = Tracer()
    inner = t.wrap("m.inner", lambda x: x + 1)
    outer = t.wrap("m.outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    by_name = {s.name: s for s in t.spans}
    assert by_name["m.inner"].parent == by_name["m.outer"].span_id
    assert by_name["m.outer"].parent is None
    assert by_name["m.inner"].thread == by_name["m.outer"].thread


def test_spans_from_many_threads_are_all_kept():
    t = Tracer()
    inner = t.wrap("m.inner", lambda: None)
    outer = t.wrap("m.outer", lambda: inner())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda: [outer() for _ in range(500)])
                   for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert len(t.spans) == 8 * 2 * 500
    assert len({s.span_id for s in t.spans}) == len(t.spans)
    by_id = {s.span_id: s for s in t.spans}
    for s in t.spans:
        if s.name == "m.inner":
            assert by_id[s.parent].name == "m.outer" and by_id[s.parent].thread == s.thread


def _bindings():
    return {(name, attr): value for name, mod in list(sys.modules.items())
            if name == "prealign" or name.startswith("prealign.")
            for attr, value in vars(mod).items() if callable(value)}


def test_traced_run_restores_every_binding(tmp_path):
    import workloads
    from prealign.runner import experiment

    cfg = workloads.build("noise", 3, tmp_path / "out", tmp_path / "data", 1)
    cfg = replace(cfg, trials=1, pretrain=replace(cfg.pretrain, total_samples=640,
                                                  samples_per_epoch=320))
    selected = layers.select()
    before = _bindings()
    traced = run.one_run(experiment, cfg, Tracer(), selected)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {s.name for s in traced["spans"]}
    assert {"net.forward", "learn.adam_step", "runner._run_single", layers.HOOK} <= names
    assert traced["run_s"] > 0 and traced["setup_s"] > 0
    derived = layers.run_derived(traced["spans"], traced["run_s"])
    assert derived["runner.trial_overlap"] == pytest.approx(1.0, abs=1e-3)
    assert derived["trace.self_cover"] <= 1.0 + 1e-3  # the runner's few µs before setup
