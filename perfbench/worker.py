"""One pass of a workload in a fresh process.

    python3 perfbench/worker.py <request.json> <result.json>

The request names the workload, its spec, whether to trace, and the
parent's `time.perf_counter()` just before it started this process, so that
set-up time runs from process start until the package is imported and the
inputs are built.  The worker then runs each operation once, in order,
each starting after the previous one returned, and writes per-operation
wall and CPU times, outputs and the process's peak RSS to the result file.
Every time is written twice: raw, and scaled to the reference host speed
by the `speed.Sampler` that probes the host throughout the process.
The package comes from `src/` of the checkout this file sits in, never
from an installed copy.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main(request_path: str, result_path: str) -> int:
    with open(request_path, encoding="utf-8") as fh:
        req = json.load(fh)
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy
    import speed

    sampler = speed.Sampler()
    sampler.run()
    import quiverhearts

    if not Path(quiverhearts.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported quiverhearts from {quiverhearts.__file__}, not {SRC}")
    import workloads

    tracer = None
    if req["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    ops = workloads.setup(req["workload"], req["spec"], Path(req["scratch"]))
    setup_end, setup_cpu = time.perf_counter(), time.process_time()
    if req["setup_only"]:
        ops = []

    results, spans = [], []
    for index, (name, fn) in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            output = fn()
        except Exception:  # an operation that raises counts as failed
            output = {"error": traceback.format_exc(limit=3)}
        w1, c1 = time.perf_counter(), time.process_time()
        results.append({"name": name, "output": output})
        spans.append((w0, w1, c1 - c0))
    sampler.stop()

    for op, (w0, w1, cpu) in zip(results, spans):
        op["raw_wall_s"] = w1 - w0
        op["wall_s"], op["cpu_s"] = sampler.scaled(w0, w1, cpu)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"setup_s": sampler.scaled(req["spawned_at"], setup_end, setup_cpu)[0],
              "raw_setup_s": setup_end - req["spawned_at"],
              "peak_rss_mb": peak_kib / 1024.0, "ops": results,
              "probe_median_s": float(numpy.median(sampler.samples[1])),
              "numpy": numpy.__version__}
    if tracer is not None:
        tracer.op = -1
        # Span times scale with the host's speed over the whole pass.
        speed_factor = sampler.factor(spans[0][0], spans[-1][1])
        units = tracing.metric_units()
        result["per_layer"] = {k: v * speed_factor if units[k] == "s" else v
                               for k, v in tracer.summary().items()}
        result["counts"] = tracer.counts()
        tracer.dump(Path(req["scratch"]) / f"spans-{req['workload']}.npz")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
