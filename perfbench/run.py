"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload crossview-toy --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` and exits with status 2, printing no result, when that is missing.
``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` runs the workload once untraced and then from its pieces with a
span around every package call, and prints the per-layer metrics.  The last
line of standard output is the JSON result; the lines before it are a human
summary and the machine record.  Scratch files live in ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import machine
from spans import Tracer, median, percentile

ROOT = Path(__file__).resolve().parent.parent


def _loop(tracer, step, deadline) -> list[float]:
    """Run ``step`` at least once and until ``deadline``; timed seconds per run."""
    times = []
    while True:
        tracer.run += 1
        with tracer.span("iteration") as rec:
            step(tracer)
        times.append(tracer.timed(rec))
        if time.perf_counter() >= deadline:
            return times


def _layer_metrics(wl, tr, summary, untraced, traced) -> dict[str, float]:
    def ms_p50(name):
        return 1e3 * median(tr.durations(name))

    steps = tr.durations("train.step")
    values = {
        "tensor.backward_ms_p50": ms_p50("tensor.backward"),
        "tensor.tnsr_write_mb_per_s": tr.mb_per_s("tensor.write_tensor"),
        "tensor.tnsr_read_mb_per_s": tr.mb_per_s("tensor.read_tensor"),
        "vst.forward_ms_p50": ms_p50("vst.forward"),
        "vst.ckpt_save_mb_per_s": tr.mb_per_s("vst.save_checkpoint"),
        "vst.ckpt_load_mb_per_s": tr.mb_per_s("vst.load_checkpoint"),
        "train.step_ms_p50": 1e3 * median(steps),
        "train.step_ms_p90": 1e3 * percentile(steps, 90),
        "train.forward_ms_p50": ms_p50("vst.forward_batch"),
        "train.loss_ms_p50": ms_p50("train.cross_entropy"),
        "train.adamw_ms_p50": ms_p50("train.adamw_step"),
        "train.evaluate_ms": ms_p50("train.evaluate"),
        "train.train_clips_per_s": summary.get("train_clips_per_s", (0.0,))[0],
        "train.predict_clips_per_s": summary.get("predict_clips_per_s", (0.0,))[0],
        "data.render_ms_per_clip": ms_p50("data.render_clip"),
        "data.generate_s": median(tr.durations("data.generate_dataset")),
        "data.load_split_ms": ms_p50("data.load_split"),
        "ensemble.fuse_ms": ms_p50("ensemble.fuse"),
        "ensemble.pred_write_ms": ms_p50("ensemble.write_predictions"),
        "ensemble.pred_read_ms": ms_p50("ensemble.read_predictions"),
        "bench.trace_overhead_s": median(traced) - median(untraced),
    }
    for piece in ("embed", "wmsa", "swmsa", "merge", "head"):
        values[f"vst.{piece}_ms"] = 1e3 * median(tr.per_parent(f"vst.{piece}", "vst.forward"))
    for key in ("tensor.tape_nodes_per_step", "tensor.copy_nodes_per_step",
                "tensor.copy_mb_per_step", "vst.pad_token_share", "vst.masked_pair_share",
                "vst.forward_peak_mb", "ensemble.fused_top1", "ensemble.fused_top1_left",
                "ensemble.fused_top1_right"):
        values[key] = wl.counts.get(key, 0.0)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input to seconds-long sizes (smoke test)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "cvislr" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'cvislr'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from cvislr.tensor import Tensor
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    bench_dir = ROOT / ".bench_work"
    work_dir = bench_dir / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, str(work_dir), args.tiny)
    tracer = Tracer()
    try:
        setups = []
        for _ in range(wl.setup_reps):
            with tracer.span("setup") as rec:
                wl.setup(tracer)
            setups.append(rec["end"] - rec["start"])
        start = time.perf_counter()
        if args.trace:
            coarse = Tracer()
            untraced = _loop(coarse, wl.iteration, 0.0)
            times = _loop(tracer, wl.traced_iteration, start + args.seconds)
        else:
            coarse = tracer
            untraced = times = _loop(tracer, wl.iteration, start + args.seconds)
        summary = wl.summary(coarse, len(untraced))
        if args.trace:
            values = _layer_metrics(wl, tracer, summary, untraced, times)
        else:
            values = {"setup_s": median(setups), "pipeline_s": median(times),
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        dtype = Tensor([0.0]).data.dtype.name
        record = machine.describe(dtype)
        if args.trace:
            tracer.dump(str(bench_dir / f"trace-{args.workload}-seed{args.seed}.json"),
                        {"workload": args.workload, "seed": args.seed, "machine": record})
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for problem in wl.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload}: seed {args.seed}, {wl.setup_reps} set-ups, {len(times)} "
          f"{'traced ' if args.trace else ''}iterations timed at "
          + " ".join(f"{t:.4g}" for t in times) + " s")
    rows = dict(summary)
    if not args.trace:
        rows.update({m["name"]: (values[m["name"]], m["unit"]) for m in wanted})
    rows["failed_share"] = (wl.failed / max(wl.attempted, 1), "share")
    for name, (value, unit) in rows.items():
        print(f"  {name:<22} {value:12.6g} {unit}")
    print("machine: " + json.dumps(record))
    result = {
        "correct": wl.failed == 0 and not wl.problems,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
