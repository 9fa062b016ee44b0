"""One pass of a workload in a fresh process.

    python3 bench/worker.py --workload W --inputs IN.json --result OUT.json \
        --spawned-at T [--trace SPANS.csv | --setup-only]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process; set-up time runs from there to the first timed item and covers
interpreter start, the cold ``import hermlab`` and parsing the inputs.  On
Linux ``time.monotonic`` reads the system-wide CLOCK_MONOTONIC, so the two
processes share one clock.  Between items, and before the first and after
the last, the worker times yardstick slices (see yardstick.py); they are left
out of the item latencies and the timed window.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import workloads
import yardstick

SRC = Path(__file__).resolve().parent.parent / "src"
YARDSTICK_EVERY_S = 0.1     # item time between two yardstick slices


def import_hermlab():
    """Import hermlab from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "hermlab" / "__init__.py").is_file():
        raise SystemExit(f"no hermlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hermlab
    if Path(hermlab.__file__).resolve().parent != (SRC / "hermlab").resolve():
        raise SystemExit(f"imported hermlab from {hermlab.__file__}, not {SRC}")
    return hermlab


def run_pass(workload: str, items: list, spawned_at: float, spans_path=None,
             setup_only: bool = False) -> dict:
    hermlab = import_hermlab()
    objs = workloads.prepare(workload, items, hermlab)
    if setup_only:
        return {"setup_s": time.monotonic() - spawned_at}
    tracer = None
    if spans_path is not None:
        from tracer import Tracer
        tracer = Tracer(hermlab)
        tracer.install()

    clock = time.perf_counter
    latencies, outputs, slices = [], [], []
    setup_s = time.monotonic() - spawned_at
    window_start = clock()
    since_slice = YARDSTICK_EVERY_S
    for i, obj in enumerate(objs):
        if since_slice >= YARDSTICK_EVERY_S:
            slices.append(yardstick.slice_time())
            since_slice = 0.0
        if tracer is not None:
            tracer.current_item = i
        t0 = clock()
        out = workloads.run_item(workload, obj, hermlab)
        latencies.append(clock() - t0)
        since_slice += latencies[-1]
        outputs.append(out)
    slices.append(yardstick.slice_time())
    window_s = clock() - window_start - sum(slices)

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.summary()
        layers["refused"] = sum(1 for o in outputs if o == ["refused"])
        tracer.write_spans(spans_path)

    failures = []
    for item, obj, out in zip(items, objs, outputs):
        oracle = None
        if workload == "isotropy" and item["shape"] == "quad" and item["h"] == 1:
            oracle = hermlab.quadform.qf_is_isotropic_oracle(obj)
        if not workloads.check(workload, item, out, oracle):
            failures.append({"item": item, "output": out})

    digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    return {
        "setup_s": setup_s,
        "window_s": window_s,
        "latencies": latencies,
        "yardstick_s": slices,
        "attempted": len(items),
        "failed": len(failures),
        "failures": failures[:5],
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "digest": digest,
        "layers": layers,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", default=None, help="write spans to this CSV file")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up and report only setup_s")
    args = ap.parse_args(argv)
    with open(args.inputs) as f:
        items = json.load(f)
    result = run_pass(args.workload, items, args.spawned_at, args.trace, args.setup_only)
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
