"""One round of one workload in a fresh, single-threaded interpreter.

    python3 bench/worker.py --workload W --seed N --t0 T --mode setup|round
                            [--trace 0|1] [--check 0|1] [--spans FILE]

`--t0` is the parent's `time.monotonic()` just before it started this
process, so `setup_s` covers interpreter start, the banglab import and the
input build.  In `round` mode the worker times every item, then (outside
the timed phase) checks the outputs, and prints one JSON object as the last
line of its standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "round"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    ns = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS[ns.workload]
    inputs = wl.build(ns.seed)
    setup_s = time.monotonic() - ns.t0
    if ns.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    run = wl.run
    tracer = layer = None
    if ns.trace:
        import instrument
        from spans import ITEM, Tracer

        tracer = Tracer()
        layer = instrument.Instrumentation(tracer)
        run = tracer.wrap(wl.run, ITEM)

    outputs, latencies, errors = [], [], []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for i, item in enumerate(inputs):
        if tracer is not None:
            tracer.item_id = i
        start = time.perf_counter()
        try:
            out = run(item)
        except Exception as exc:  # a program fault fails this item only
            out = None
            errors.append([i, f"{type(exc).__name__}: {exc}"[:300]])
        latencies.append(time.perf_counter() - start)
        outputs.append(out)
        if layer is not None:
            layer.after_item()
    wall_s, cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
        "latencies": latencies, "rss_mb": rss_mb, "errors": errors,
        "decided": sum(1 for o in outputs if o is not None and wl.decided(o)),
        "digests": [None if o is None
                    else hashlib.sha1(wl.digest(o).encode()).hexdigest()[:16]
                    for o in outputs],
    }
    if layer is not None:
        tracer.restore()
        result["layer"] = layer.metrics(outputs)
        if ns.spans:
            tracer.write(ns.spans)
    if ns.check:
        result["failures"] = [[i, msg] for i, (item, out) in enumerate(zip(inputs, outputs))
                              if out is not None and (msg := wl.check(item, out))]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
