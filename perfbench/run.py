#!/usr/bin/env python3
"""Benchmark of voxelcad on three workloads: cv-grayscale, cv-vaf, predict-stream.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cv-grayscale --seed 1 --seconds 30 --trace 0

The package is imported from ./src of that checkout and driven only through
`voxelcad.cli.dispatch`. Human-readable lines come first; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. `--trace 0` reports the end-to-end metrics, measured untraced;
`--trace 1` reports the per-layer metrics of a traced run and writes its
spans to .perfbench_work/. `--smoke` shrinks every workload to the unit-test
cohort shape so that a run takes seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cv-grayscale", "cv-vaf", "predict-stream")


def _pin_blas_threads() -> int:
    """Run BLAS/OpenMP on one thread, set before numpy loads; returns nproc.

    The package's matrices are small (at most 80 x 62,322), so a second
    OpenBLAS thread mostly spins: on 2 cores it made a grayscale eval about
    20% slower and left the run exposed to load on the other core.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def _import_package():
    """Import voxelcad from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "voxelcad" / "__init__.py").is_file():
        raise SystemExit(f"error: no voxelcad sources under {src}")
    sys.path.insert(0, str(src))
    import voxelcad
    import voxelcad.cli
    import voxelcad.evaluation
    import voxelcad.features
    import voxelcad.manifest
    import voxelcad.pipeline
    if Path(voxelcad.__file__).resolve().parent != src / "voxelcad":
        raise SystemExit(f"error: imported voxelcad from {voxelcad.__file__}, not {src}")
    return voxelcad


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(nproc: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "cpu": _cpu_model(),
        "platform": platform.platform(),
    }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(len(ordered) * q / 100), 1) - 1]


def _fit_max(fit_parts) -> float:
    """Fitting time of one eval or training round, each fit in it taken at
    its slowest over the run.

    The fits of one row run seconds apart, so summing per-fit maxima
    samples the host's speed at many moments instead of at one row's.
    """
    if not fit_parts:
        return 0.0
    return sum(max(col) for col in zip(*fit_parts))


def _summary(workload, seed, size, res, peak_rss_mb) -> list[str]:
    """Lines naming each figure the way a user of the CLI knows it."""
    lines = [f"workload {workload} seed {seed}: cohort {size.n_ad}+{size.n_hc} "
             f"subjects, dims {size.dims or 'default'}",
             f"  setup_s {_median(res.setup_s):.4f} (median of {len(res.setup_s)} syntheses)"]
    if workload == "predict-stream":
        lines += [
            f"  train_s p50 {_median([sum(p) for p in res.fit_parts]):.4f} "
            f"fit_max_s {_fit_max(res.fit_parts):.4f} ({len(res.fit_parts)} rounds "
            f"training both PCA bundles; bundle bytes "
            f"{res.detail.get('bundle_bytes')})",
            f"  predict_p50_ms {_median(res.op_ms):.3f} "
            f"predict_p95_ms {_percentile(res.op_ms, 95):.3f} "
            f"(n={len(res.op_ms)} untraced requests)",
        ]
    else:
        lines += [
            f"  cv_s p50 {_median(res.op_ms) / 1000:.4f} p95 "
            f"{_percentile(res.op_ms, 95) / 1000:.4f} (untraced evals "
            f"{[round(ms / 1000, 3) for ms in res.op_ms]})",
            f"  fold fitting inside eval: p50 {_median([sum(p) for p in res.fit_parts]):.4f} s, "
            f"fit_max_s {_fit_max(res.fit_parts):.4f}; accuracy "
            f"{res.detail.get('accuracy')}; aggregate {res.detail.get('aggregate')}",
        ]
    lines.append(f"  peak_rss_mb {peak_rss_mb:.1f}; attempted {res.attempted}, "
                 f"failed {res.failed}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="unit-test cohort shape; every workload in seconds")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    nproc = _pin_blas_threads()
    vc = _import_package()
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads as wl

    tracer = None
    if args.trace:
        try:
            tracer = tracing.Tracer()
        except tracing.TraceTargetError as err:
            print(f"error: {err}", file=sys.stderr)
            return 3

    env = environment(nproc)
    print("env " + json.dumps(env))
    size = wl.SMOKE if args.smoke else wl.FULL
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)["smoke" if args.smoke else "full"]
    res = wl.Result()
    runner = wl.Runner(vc.cli, tracer, res)
    out_root = ROOT / ".perfbench_work"
    work = out_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    # a terminated run still removes its cohorts
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if args.workload == "predict-stream":
            wl.run_predict(vc, runner, work, args.seed, args.seconds, size, bool(args.trace))
        else:
            kind = "grayscale" if args.workload == "cv-grayscale" else "vaf"
            wl.run_cv(vc, runner, work, args.seed, args.seconds, size, kind,
                      reference[args.workload], bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is None:
        values = {
            "setup_s": _median(res.setup_s),
            "op_p95_ms": _percentile(res.op_ms, 95),
            "fit_max_s": _fit_max(res.fit_parts),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        values = tracing.layer_metrics(tracer, len(res.traced_op_ms), res.fit_rounds)
        for pid in vc.pipeline.PIPELINES:
            values[f"pipeline.predict_obs_per_s.{pid}"] = _median(res.obs_per_s.get(pid, []))
        values["trace.overhead_ms"] = tracing.overhead_ms(res.traced_op_ms, res.op_ms)
        trace_path = out_root / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                  "smoke": args.smoke, "env": env})
        print(f"spans written to {trace_path}")

    for line in _summary(args.workload, args.seed, size, res, peak_rss_mb):
        print(line)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        units = {m["name"]: m["unit"]
                 for m in json.load(fh)["per_layer" if tracer else "end_to_end"]}
    if set(units) != set(values):
        print(f"error: metrics {sorted(set(values) ^ set(units))} are not both measured "
              "and listed in BENCHMARK.json", file=sys.stderr)
        return 4
    print(json.dumps({
        "correct": res.failed == 0 and res.attempted > 0,
        "attempted": max(res.attempted, 1),
        "failed": res.failed if res.attempted else 1,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
