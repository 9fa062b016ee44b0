"""hermlab benchmark.

    python3 bench/run.py --workload {paper,recursion,isotropy} --seed N \
        --seconds S --trace {0,1}
    python3 bench/run.py --collect OUT.json [--runs 10] [--seconds S] [--trace 0]
    python3 bench/run.py --compare BASE.json NEW.json

A run is a closed loop with one client: passes of the workload run one after
another, each in a fresh worker process (see workloads.py), until ``--seconds``
of wall time have passed and at least MIN_ITEMS items are done.  Latency
quantiles are Harrell-Davis estimates over all items of the run; throughput
and peak RSS are computed per pass and the run reports their median over
passes.  ``setup_s`` is the median over the passes and SETUP_PROBES workers
that only set up.  Every timing is scaled to the yardstick's reference speed,
from the yardstick slices the workers time between items (see yardstick.py);
the unscaled figures and the scale go to standard error.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``, whose times are not scaled.

The traced run times a fixed set of passes (TRACE_PASSES) so that its counts
repeat exactly for one seed; it ignores ``--seconds``.  Each pass runs twice, untraced and traced, in
separate processes; the two must give identical outputs, and the ratio of
their timed wall times is ``trace.overhead``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import compare
import workloads
import yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

MIN_ITEMS = 100
SETUP_PROBES = 10           # extra set-up-only workers per run, for a steadier setup_s
MAX_WALL_S = 150            # stop starting passes after this, whatever --seconds says
PASS_TIMEOUT_S = 120
TRACE_PASSES = {"paper": 1, "recursion": 4, "isotropy": 8}


class BenchError(Exception):
    """A pass could not run; the benchmark prints no result."""


def run_pass(workload: str, seed: int, pass_index: int, traced: bool, workdir: Path,
             setup_only: bool = False) -> dict:
    items = workloads.generate(workload, seed, pass_index)
    inputs = workdir / "inputs.json"
    result = workdir / "result.json"
    inputs.write_text(json.dumps(items))
    if result.exists():
        result.unlink()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--inputs", str(inputs), "--result", str(result)]
    if traced:
        spans = OUT / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(spans / f"{workload}-pass{pass_index}.csv")]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                          stdout=subprocess.DEVNULL, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"{workload} pass {pass_index} exited with {proc.returncode}")
    out = json.loads(result.read_text())
    out["sections"] = [it.get("section") for it in items]
    return out


def measure(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    setups = [run_pass(workload, seed, i, False, workdir, setup_only=True)["setup_s"]
              for i in range(SETUP_PROBES)]
    start = time.monotonic()
    passes = []
    while True:
        passes.append(run_pass(workload, seed, len(passes), False, workdir))
        elapsed = time.monotonic() - start
        attempted = sum(p["attempted"] for p in passes)
        if (elapsed >= seconds and attempted >= MIN_ITEMS) or elapsed >= MAX_WALL_S:
            break
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for f in p["failures"]:
            print(f"FAILED {workload}: {json.dumps(f)[:400]}", file=sys.stderr)
    latencies = [lat for p in passes for lat in p["latencies"]]
    raw = {
        "setup_s": (statistics.median(setups + [p["setup_s"] for p in passes]), "s"),
        "throughput_items_s": (statistics.median(p["attempted"] / p["window_s"]
                                                 for p in passes), "items/s"),
        "latency_p50_ms": (1e3 * harrell_davis(latencies, 0.5), "ms"),
        "latency_p90_ms": (1e3 * harrell_davis(latencies, 0.9), "ms"),
    }
    # Timings are quoted at the yardstick's reference speed (see yardstick.py).
    slices = [s for p in passes for s in p["yardstick_s"]]
    scale = yardstick.REFERENCE_SLICE_S / statistics.fmean(slices)
    metrics = {k: (v / scale if u == "items/s" else v * scale, u) for k, (v, u) in raw.items()}
    metrics["peak_rss_mb"] = (statistics.median(p["rss_kb"] for p in passes) / 1024, "MB")
    print(f"{workload} seed {seed}: unscaled {json.dumps({k: v for k, (v, _) in raw.items()})}, "
          f"scale {scale:.4f} from {len(slices)} yardstick slices", file=sys.stderr)
    print(f"{workload} seed {seed}: {len(passes)} passes, {attempted} items "
          f"({failed} failed), "
          f"{time.monotonic() - start:.1f} s wall", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def harrell_davis(values: list, q: float) -> float:
    """The Harrell-Davis estimate of quantile ``q``: the mean of the order
    statistics weighted by the Beta((n+1)q, (n+1)(1-q)) mass over each one's
    interval [i/n, (i+1)/n].  It blends the order statistics around the
    quantile instead of taking one or two of them, so it is much steadier
    where the latencies have a gap there, as the p90 of ``paper`` does."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    mode = (a - 1) / (a + b - 2)
    sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
    lo = max(0, math.floor(n * (mode - 12 * sd)))
    hi = min(n, math.ceil(n * (mode + 12 * sd)))
    peak = (a - 1) * math.log(mode) + (b - 1) * math.log1p(-mode)
    steps = 16                  # midpoint-rule points per order statistic
    total = weighted = 0.0
    for i in range(lo, hi):
        w = sum(math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - peak)
                for t in ((i + (j + 0.5) / steps) / n for j in range(steps)))
        total += w
        weighted += w * xs[i]
    return weighted / total


def trace(workload: str, seed: int, workdir: Path) -> dict:
    plain, traced = [], []
    mismatched = 0
    for i in range(TRACE_PASSES[workload]):
        plain.append(run_pass(workload, seed, i, False, workdir))
        traced.append(run_pass(workload, seed, i, True, workdir))
        if plain[-1]["digest"] != traced[-1]["digest"]:
            mismatched += traced[-1]["attempted"]
            print(f"{workload} pass {i}: traced outputs differ from untraced",
                  file=sys.stderr)
    attempted = sum(p["attempted"] for p in plain + traced)
    failed = sum(p["failed"] for p in plain + traced) + mismatched
    metrics = layer_metrics(plain, traced)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def layer_metrics(plain: list, traced: list) -> dict:
    """Per-layer metrics summed over the traced passes."""
    calls, self_s, incl_s = {}, {}, {}
    qf_height, uquad_height = {}, {}
    extra = {"qf_entries": 0, "qf_repeats": 0, "div_repeats": 0, "refused": 0}
    for p in traced:
        lay = p["layers"]
        for src, dst in ((lay["calls"], calls), (lay["self_s"], self_s),
                         (lay["incl_s"], incl_s), (lay["uquad_height"], uquad_height)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        for h, (n, s) in lay["qf_height"].items():
            acc = qf_height.setdefault(h, [0, 0.0])
            acc[0] += n
            acc[1] += s
        for k in extra:
            extra[k] += lay[k]

    def module_self(mod):
        return sum((v for k, v in self_s.items() if k.split(".")[0] == mod), 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    qf_calls = calls.get("quadform.qf_is_isotropic", 0)
    div_calls = calls.get("brauer.bc_is_division", 0)
    m = {
        "fields.class_to_str.calls": (calls.get("fields.class_to_str", 0), "count"),
        "fields.sqcl_mul.calls": (calls.get("fields.sqcl_mul", 0), "count"),
        "fields.quadratic_extension.calls": (calls.get("fields.quadratic_extension", 0), "count"),
        "fields.self_s": (module_self("fields"), "s"),
        "quadform.qf_is_isotropic.calls": (qf_calls, "count"),
        "quadform.qf_is_isotropic.entries": (extra["qf_entries"], "count"),
        "quadform.qf_is_isotropic.self_s": (self_s.get("quadform.qf_is_isotropic", 0.0), "s"),
    }
    for h in range(1, 5):
        n, s = qf_height.get(str(h), (0, 0.0))
        m[f"quadform.qf_is_isotropic.h{h}.mean_us"] = (1e6 * ratio(s, n), "us")
    m["quadform.qf_is_isotropic.repeat_frac"] = (ratio(extra["qf_repeats"], qf_calls), "ratio")
    for h in range(3):
        m[f"quadform.u_quadratic.h{h}.s"] = (uquad_height.get(str(h), 0.0), "s")
    m.update({
        "quadform.oracle.calls": (calls.get("quadform.qf_is_isotropic_oracle", 0), "count"),
        "quadform.oracle.self_s": (self_s.get("quadform.qf_is_isotropic_oracle", 0.0), "s"),
        "brauer.bc_is_division.calls": (div_calls, "count"),
        "brauer.bc_is_division.repeat_frac": (ratio(extra["div_repeats"], div_calls), "ratio"),
        "brauer.bc_is_division.self_s": (self_s.get("brauer.bc_is_division", 0.0), "s"),
        "brauer.bc_single_symbol_rep.calls": (calls.get("brauer.bc_single_symbol_rep", 0), "count"),
        "brauer.classify_unitary_case.calls": (calls.get("brauer.classify_unitary_case", 0), "count"),
        "brauer.self_s": (module_self("brauer"), "s"),
        "hermitian.herm_is_isotropic.calls": (calls.get("hermitian.herm_is_isotropic", 0), "count"),
        "hermitian.herm_is_isotropic.self_s": (self_s.get("hermitian.herm_is_isotropic", 0.0), "s"),
        "hermitian.u_search.s": (incl_s.get("hermitian.u_search", 0.0), "s"),
        "uinv.u_exact.calls": (calls.get("uinv.u_exact", 0), "count"),
        "uinv.u_exact.self_s": (self_s.get("uinv.u_exact", 0.0), "s"),
        "uinv.witness.self_s": (self_s.get("uinv.witness", 0.0), "s"),
        "uinv.refused": (extra["refused"], "count"),
        "derivation.audit.self_s": (self_s.get("derivation.audit", 0.0), "s"),
        "lab.larmour_decompose.calls": (calls.get("lab.larmour_decompose", 0), "count"),
        "lab.choose_pid.self_s": (self_s.get("lab.choose_pid", 0.0), "s"),
        "lab.self_s": (module_self("lab"), "s"),
    })
    # Per-section wall time of verify paper, from the untraced twin passes.
    for section in workloads.SECTIONS:
        total = sum((lat for p in plain for lat, s in zip(p["latencies"], p["sections"])
                     if s == section), 0.0)
        m[f"cli.verify.{section}.s"] = (total, "s")
    m["cli.verify_paper.self_s"] = (self_s.get("cli.verify_paper", 0.0), "s")
    m["trace.overhead"] = (ratio(sum(p["window_s"] for p in traced),
                                 sum(p["window_s"] for p in plain)), "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--collect", metavar="OUT.json",
                    help="run the benchmark --runs times per workload into a result set")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--compare", nargs=2, metavar=("BASE.json", "NEW.json"))
    args = ap.parse_args(argv)

    if args.compare:
        return compare.compare(*args.compare)
    if args.collect:
        return compare.collect(args.collect, args.runs, args.seconds, args.trace)
    if args.workload is None:
        ap.error("--workload is required")

    if not (ROOT / "src" / "hermlab" / "__init__.py").is_file():
        print(f"no hermlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = trace(args.workload, args.seed, workdir)
        else:
            result = measure(args.workload, args.seed, args.seconds, workdir)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
