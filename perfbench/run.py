"""prealign benchmark: run one workload through the real runner, check it,
and print every metric by name with its unit.

    python3 perfbench/run.py --workload noise --seed 1 --seconds 20 --trace 0

The workload's inputs come from ``--seed``, which is also the runs'
``master_seed``.  After an untimed alignment check, the workload runs back
to back (closed loop, one run at a time) until ``--seconds`` have passed,
and the medians over those runs are reported.  ``--trace 1`` alternates
untraced runs with runs whose prealign functions are wrapped in timing
spans, and reports per-layer metrics instead of end-to-end ones.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the metrics being those ``BENCHMARK.json``
lists for the mode.  Workload notes are in ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import gen
import layers
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
IMPORT_PROBES = 9
MIN_RUNS = 3
LATE_S = 100.0  # past this, stop at the deadline even with fewer runs: exit within 180 s

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "noise_samples_per_s": "1/s",
    "train_samples_per_s": "1/s",
    "probe_epochs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
    "final_angle_deg": "deg",
    "final_test_acc": "ratio",
}
LAYER_UNITS = {
    "calls": "count", "busy_s": "s", "self_s": "s", "us_p50": "us", "us_p99": "us",
    "rows": "count", "gflop": "gflop", "gflop_per_s": "gflop/s", "params": "count",
    "bytes": "B", "bytes_read": "B", "mb_per_s": "MB/s", "images": "count",
    "images_per_s": "1/s",
}
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import prealign; print(time.perf_counter() - t)"
)
_BLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_prealign():
    """Import prealign from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import prealign

    if Path(prealign.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"prealign resolved to {prealign.__file__}, not {SRC}")
    return prealign


def blas_threads() -> int | None:
    """BLAS thread count read from the loaded OpenBLAS, if it is one."""
    base = Path(np.__file__).resolve().parent
    for lib in sorted((base.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in _BLAS_THREAD_GETTERS:
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def host_record(seed: int, nproc: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_env": {k: v for k, v in os.environ.items()
                     if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": nproc,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "seed": seed,
    }


def import_seconds() -> float:
    """Time ``import prealign`` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60, cwd=ROOT,
    )
    return float(out.stdout.strip().splitlines()[-1])


@contextmanager
def setup_boundary(experiment):
    """Stamp the moment the runner finishes resolving its datasets."""
    stamps = []
    original = experiment._ResolvedData

    def resolved(cfg):
        data = original(cfg)
        stamps.append(time.perf_counter())
        return data

    experiment._ResolvedData = resolved
    try:
        yield stamps
    finally:
        experiment._ResolvedData = original


@contextmanager
def traced_bindings(spans, selected):
    if spans is None:
        yield
        return
    spans.install("prealign", selected, layers.WORK, layers.HOOKS)
    try:
        yield
    finally:
        spans.restore()


def one_run(experiment, cfg, spans=None, selected=()) -> dict:
    """One ``run_experiment`` call, split at the end of dataset resolution.
    With a :class:`tracer.Tracer` in ``spans``, the run is traced."""
    with traced_bindings(spans, selected), setup_boundary(experiment) as stamps:
        t0 = time.perf_counter()
        manifest = experiment.run_experiment(cfg)
        t1 = time.perf_counter()
    return {"setup_s": stamps[0] - t0, "run_s": t1 - stamps[0], "manifest": manifest,
            "spans": None if spans is None else spans.spans}


class Checks:
    """Counts attempted and failed operations; prints each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check FAIL {name} {detail}".rstrip())


def variant_dir(cfg, out_dir: Path, variant) -> Path:
    return out_dir if len(cfg.variants) == 1 else out_dir / variant.name


def _finite_cells(rows) -> bool:
    for row in rows:
        for key, cell in row.items():
            if key != "phase" and cell != "" and not math.isfinite(float(cell)):
                return False
    return True


def check_run(checks: Checks, cfg, run: dict, first: dict | None,
              reference: dict | None) -> dict:
    """Check one run's outputs against the expected shape, against the
    first run of the same seed and, for ``parallel``, against the serial
    run.  Returns its ``records.csv`` bytes and rows per variant."""
    import workloads

    manifest = run["manifest"]
    checks.attempted += cfg.trials * len(cfg.variants)
    checks.failed += len(manifest["failures"])
    for f in manifest["failures"]:
        print(f"check FAIL run trial={f['trial']} variant={f['variant']} {f['error']}")
    expected = workloads.expected_rows(cfg)
    raw, parsed = {}, {}
    for v in cfg.variants:
        path = variant_dir(cfg, Path(cfg.output_dir), v) / "records.csv"
        raw[v.name] = path.read_bytes() if path.exists() else b""
        rows = list(csv.DictReader(io.StringIO(raw[v.name].decode())))
        parsed[v.name] = rows
        checks.record(f"rows[{v.name}]", len(rows) == expected[v.name],
                      f"{len(rows)} rows, expected {expected[v.name]}")
        checks.record(f"finite[{v.name}]", _finite_cells(rows))
        if first is not None:
            checks.record(f"same_seed_bytes[{v.name}]", raw[v.name] == first.get(v.name))
        if reference is not None:
            checks.record(f"serial_bytes[{v.name}]", raw[v.name] == reference.get(v.name))
    return {"bytes": raw, "rows": parsed}


def check_alignment(checks: Checks, cfg, manifest: dict, rows: list) -> float | None:
    """Last-layer angle of trial 0 at the end of its noise phase, checked
    to lie below the angle it started from."""
    col = f"angle_mean_l{len(cfg.dims) - 2}"
    variant = cfg.variants[0].name
    initial = manifest["initial_metrics"].get(variant, {}).get("0", {}).get(col)
    noise_rows = [r for r in rows if r["trial"] == "0" and r["phase"] == "pretrain"]
    if initial is None or not noise_rows:
        checks.record("angle_drops", False, f"no {col} for trial 0")
        return None
    final = float(noise_rows[-1][col])
    checks.record("angle_drops", final < initial, f"final {final:.4f} vs initial {initial:.4f}")
    return final


def check_accuracy(checks: Checks, cfg, manifest: dict) -> float:
    """Mean final test accuracy over variants and trials, checked to lie
    above twice chance."""
    accs = [s["final_test_acc"] for v in cfg.variants
            for s in manifest["summary"].get(v.name, {}).values()]
    acc = statistics.fmean(accs) if accs else 0.0
    floor = 2.0 / cfg.dims[-1]
    checks.record("acc_above_chance", acc > floor, f"{acc:.4f} vs floor {floor:.4f}")
    return acc


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(name: str, cfg, timed: list, import_s: list, checks: Checks,
               quality: dict) -> dict:
    import workloads

    med = statistics.median
    out = {
        "setup_s": med(import_s) + med(r["setup_s"] for r in timed),
        "run_s": med(r["run_s"] for r in timed),
        "noise_samples_per_s": med(workloads.noise_samples(cfg) / r["run_s"] for r in timed),
        "peak_rss_mb": peak_rss_mb(),
        "error_rate": checks.failed / checks.attempted,
    }
    if cfg.train is not None:
        out["train_samples_per_s"] = med(
            workloads.train_sample_epochs(cfg) / r["run_s"] for r in timed)
    if name == "probes":
        out["probe_epochs_per_s"] = med(workloads.noise_epochs(cfg) / r["run_s"] for r in timed)
    out.update(quality)
    return out


def per_layer(traced: list, timed: list, rows_used: int) -> dict:
    med = statistics.median
    stats = tracer.median_stats([tracer.layer_stats(r["spans"]) for r in traced])
    out = {}
    for fn_name, st in stats.items():
        for stat, value in st.items():
            out[f"{fn_name}.{stat}"] = value
        for stat, (rate, scale) in layers.RATES.items():
            if st.get(stat) and st["busy_s"] > 0:
                out[f"{fn_name}.{rate}"] = st[stat] * scale / st["busy_s"]
    durations: dict[str, list[float]] = {}
    for r in traced:
        for s in r["spans"]:
            durations.setdefault(s.name, []).append(s.duration)
    for fn_name, ds in durations.items():
        out[f"{fn_name}.us_p50"] = med(ds) * 1e6
        p99 = tracer.percentile_us(ds, 99)
        if p99 is not None:
            out[f"{fn_name}.us_p99"] = p99
    derived = [layers.run_derived(r["spans"], r["run_s"]) for r in traced]
    for key in derived[0]:
        out[key] = med(d[key] for d in derived)
    parsed = out.get("data.load_idx.rows", 0)
    if parsed:
        out["data.rows_used_ratio"] = rows_used / parsed
    out["trace.overhead"] = med(r["run_s"] for r in traced) / med(r["run_s"] for r in timed)
    return out


def _unit(metric: str) -> str:
    if metric in E2E_UNITS:
        return E2E_UNITS[metric]
    return LAYER_UNITS.get(metric.rsplit(".", 1)[-1], "ratio")


def run_workload(args, tmp: Path, started: float) -> dict:
    import workloads
    from prealign.runner import experiment

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print("host", json.dumps(host_record(args.seed, nproc), sort_keys=True))
    data_dir = tmp / "data"
    generated = gen.generate(data_dir, args.seed, workloads.DATASETS[args.workload])
    import_s = [import_seconds() for _ in range(IMPORT_PROBES)]

    def config(workload: str, k):
        return workloads.build(workload, args.seed, tmp / f"run{k}", data_dir, nproc)

    checks = Checks()
    selected = layers.select() if args.trace else ()

    def attempt(cfg, first=None, reference=None, spans=None):
        """Run and check ``cfg``, then delete its outputs."""
        try:
            run = one_run(experiment, cfg, spans, selected)
            return run, check_run(checks, cfg, run, first, reference)
        except Exception:  # a failed run is counted and reported, not fatal
            traceback.print_exc()
            checks.record("run", False, f"{cfg.output_dir} raised")
            return None, None
        finally:
            shutil.rmtree(cfg.output_dir, ignore_errors=True)

    # The alignment check runs first and untimed; it also warms up the BLAS
    # threads, whose start-up would otherwise land in the first timed run.
    quality: dict = {}
    align = workloads.alignment_check(args.seed, tmp / "align")
    run, out = attempt(align)
    if run is not None:
        quality["final_angle_deg"] = check_alignment(
            checks, align, run["manifest"], out["rows"][align.variants[0].name])
    reference = None
    if args.workload == "parallel":
        _, out = attempt(config("noise", "serial"))
        reference = out["bytes"] if out else {}

    timed, traced = [], []
    first = None
    deadline = time.perf_counter() + args.seconds
    k = 0
    while True:
        trace_this = bool(args.trace) and k % 2 == 1
        cfg = config(args.workload, k)
        run, out = attempt(cfg, first, reference, tracer.Tracer() if trace_this else None)
        if run is not None:
            first = first or out["bytes"]
            if cfg.train is not None and "final_test_acc" not in quality:
                quality["final_test_acc"] = check_accuracy(checks, cfg, run["manifest"])
            (traced if trace_this else timed).append(run)
        k += 1
        enough = len(timed) >= MIN_RUNS and (not args.trace or len(traced) >= MIN_RUNS)
        late = time.perf_counter() - started > LATE_S
        if time.perf_counter() >= deadline and (enough or late):
            break

    metrics = {}
    if traced and timed:
        metrics.update(per_layer(traced, timed, workloads.rows_used(cfg, gen.TEST_ROWS)))
        cover = metrics.pop("trace.self_cover")
        checks.record("self_time_within_run", cover <= 1.0 + 1e-3,
                      f"one thread's self time is {cover:.4f} of run_s")
    if timed:
        metrics.update(end_to_end(args.workload, cfg, timed, import_s, checks, quality))
    print(f"runs timed={len(timed)} traced={len(traced)} import_probes={len(import_s)} "
          f"generated_rows={sum(generated.values())}")
    for name in E2E_UNITS:
        value = metrics.get(name)
        print(f"metric {name} {'n/a' if value is None else repr(value)} {E2E_UNITS[name]}")
    for name in sorted(m for m in metrics if m not in E2E_UNITS):
        print(f"layer {name} {metrics[name]!r} {_unit(name)}")
    return {"checks": checks, "metrics": metrics}


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        import_prealign()
    except ImportError as e:
        print(f"cannot import the program from {SRC}: {e}", file=sys.stderr)
        return 2
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT))
    try:
        outcome = run_workload(args, tmp, started)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass
    checks, metrics = outcome["checks"], outcome["metrics"]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    reported = {}
    for m in wanted:
        name = m["name"]
        value = metrics.get(name, 0.0 if args.trace else None)
        if value is None:
            checks.record(f"metric[{name}]", False, "not measured")
            continue
        reported[name] = {"value": value, "unit": m["unit"]}
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": max(1, checks.attempted),
        "failed": checks.failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
