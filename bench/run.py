"""Benchmark of banglab: meaningfulness verdicts, CBN/CBV typing transfer
and long rewriting.

    python3 bench/run.py --workload meaning|transfer|rewrite --seed N \
                         --seconds S --trace 0|1

Run from the root of a checkout that holds `src/banglab`.  The command
starts one worker process at a time (see worker.py): first a few that only
set up, to time set-up, then whole rounds, each in a fresh interpreter with
cold caches, until the rounds' timed phases add up to at least S seconds.
The first round's outputs are checked; every later round must reproduce
them.  The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced round with `--trace 1`.
Details of every run are written to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("meaning", "transfer", "rewrite")
SETUP_ONLY = 8        # set-up-only workers per run, besides one per round
DEADLINE_S = 170      # a run must end within 180 s



class RunError(Exception):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    t0 = time.monotonic()
    left = deadline - t0
    if left <= 0:
        raise RunError(f"run exceeded {DEADLINE_S} s")
    cmd = [sys.executable, str(HERE / "worker.py"), "--t0", repr(t0), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired:
        raise RunError(f"run exceeded {DEADLINE_S} s") from None
    if proc.returncode != 0:
        raise RunError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _rate(r: dict) -> float:
    return len(r["latencies"]) / sum(r["latencies"])


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    setups = [_worker(base + ["--mode", "setup"], deadline)["setup_s"]
              for _ in range(SETUP_ONLY)]
    rounds: list[dict] = []
    while not rounds or sum(r["wall_s"] for r in rounds) < seconds:
        args = base + ["--mode", "round", "--trace", str(int(trace)),
                       "--check", str(int(not rounds))]
        if trace and not rounds:
            args += ["--spans", str(OUT / f"spans-{workload}.tsv")]
        rounds.append(_worker(args, deadline))
        setups.append(rounds[-1]["setup_s"])

    first = rounds[0]
    wrong = {i for i, _ in first["failures"]}
    failed, diverged = 0, set()
    for r in rounds:
        differs = {i for i, (a, b) in enumerate(zip(r["digests"], first["digests"]))
                   if a != b}
        diverged |= differs
        failed += len(wrong | differs | {i for i, _ in r["errors"]})
    latencies = [x for r in rounds for x in r["latencies"]]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    if trace:
        layer = {k: statistics.median(r["layer"][k] for r in rounds)
                 for k in first["layer"]}
        layer["trace.items_per_s"] = statistics.median(_rate(r) for r in rounds)
        values = dict(sorted(layer.items()))
    else:
        values = {
            "setup_s": statistics.median(setups),
            "items_per_s": statistics.median(_rate(r) for r in rounds),
            "item_p50_ms": statistics.median(latencies) * 1e3,
            "item_p90_ms": deciles[8] * 1e3,
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
            "decided": first["decided"],
        }
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    detail = {
        "workload": workload, "seed": seed, "trace": trace, "setup_samples": setups,
        "rounds": [{k: r[k] for k in ("wall_s", "cpu_s", "rss_mb", "decided")}
                   for r in rounds],
        "failures": first["failures"], "errors": first["errors"],
    }
    return {"correct": not (wrong or diverged), "attempted": len(latencies),
            "failed": failed, "metrics": metrics, "detail": detail}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if ns.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "banglab" / "__init__.py").is_file():
        print(f"run.py: no banglab sources under {ROOT / 'src'}; "
              "run from the root of a banglab checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        result = measure(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    except RunError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    detail = result.pop("detail")
    name = f"{ns.workload}-trace{ns.trace}-seed{ns.seed}.json"
    (OUT / name).write_text(json.dumps({**result, **detail}, indent=1) + "\n")
    for msg in detail["failures"] + detail["errors"]:
        print(f"item {msg[0]}: {msg[1]}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
