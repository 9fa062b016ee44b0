"""Result sets: collect repeated runs, summarise them, compare two of them.

A result set is a JSON file ``{"runs": [{"workload", "seed", "trace",
"result"}, ...]}`` where ``result`` is the last line a run printed.

``compare`` prints, per workload and metric, the median of each set and the
ratio new/base.  An end-to-end metric is flagged WORSE when its median is
worse than the base by more than its bound in BENCHMARK.json, and
UNRESOLVED when either set's spread (interquartile range over median) is
wider than the bound, unless every new run beats every base run.  It also
prints each workload's failed and attempted items, summed over the runs, and
flags a workload FAILED when any new run has a failed item.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"


def collect(out: str, runs: int, seconds: float, trace: int) -> int:
    """Run every workload with seeds 1..runs into the result set OUT."""
    records = []
    for workload in workloads.WORKLOADS:
        for seed in range(1, runs + 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            records.append({"workload": workload, "seed": seed, "trace": trace,
                            "result": result})
            Path(out).write_text(json.dumps({"runs": records}, indent=1))
    summarise(records)
    return 0


def _by_metric(records: list) -> dict:
    """{(workload, metric): [values]} plus units."""
    table, units = {}, {}
    for r in records:
        for name, m in r["result"]["metrics"].items():
            table.setdefault((r["workload"], name), []).append(m["value"])
            units[name] = m["unit"]
    return table, units


def spread(values) -> float:
    """Interquartile range over median, as statistics.quantiles gives them."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def summarise(records: list) -> None:
    table, units = _by_metric(records)
    print(f"{'workload':<10} {'metric':<42} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>7}  n")
    for (workload, name), values in sorted(table.items()):
        if len(values) >= 2:
            q1, med, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = med = q3 = values[0]
        print(f"{workload:<10} {name:<42} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{spread(values):>7.3f}  {len(values)} {units[name]}")


def _failures(records: list) -> dict:
    """{workload: [failed, attempted]} summed over the runs."""
    totals = {}
    for r in records:
        acc = totals.setdefault(r["workload"], [0, 0])
        acc[0] += r["result"]["failed"]
        acc[1] += r["result"]["attempted"]
    return totals


def compare(base_path: str, new_path: str) -> int:
    bounds = {m["name"]: m for m in json.loads(BENCHMARK_JSON.read_text())["end_to_end"]}
    base_runs = json.loads(Path(base_path).read_text())["runs"]
    new_runs = json.loads(Path(new_path).read_text())["runs"]
    base, _ = _by_metric(base_runs)
    new, units = _by_metric(new_runs)
    flagged = 0
    base_fail, new_fail = _failures(base_runs), _failures(new_runs)
    print(f"{'workload':<10} {'base failed/attempted':>24} {'new failed/attempted':>24}  verdict")
    for workload in sorted(set(base_fail) | set(new_fail)):
        fa, aa = base_fail.get(workload, (0, 0))
        fb, ab = new_fail.get(workload, (0, 0))
        verdict = "ok"
        if fb:
            verdict = "FAILED (new has failed items)"
            flagged += 1
        print(f"{workload:<10} {f'{fa}/{aa}':>24} {f'{fb}/{ab}':>24}  {verdict}")
    print(f"{'workload':<10} {'metric':<42} {'base':>12} {'new':>12} {'new/base':>9}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, name = key
        a, b = base[key], new[key]
        ma, mb = statistics.median(a), statistics.median(b)
        ratio = mb / ma if ma else float("inf")
        verdict = ""
        if name in bounds:
            bound = bounds[name]["bound"]
            lower = bounds[name]["better"] == "lower"
            worse = ratio > 1 + bound if lower else ratio < 1 - bound
            dominates = max(b) < min(a) if lower else min(b) > max(a)
            if max(spread(a), spread(b)) > bound and not dominates:
                verdict = "UNRESOLVED (spread above bound)"
            elif worse:
                verdict = f"WORSE (bound {bound})"
                flagged += 1
            else:
                verdict = "ok"
        print(f"{workload:<10} {name:<42} {ma:>12.6g} {mb:>12.6g} {ratio:>9.3f}  "
              f"{verdict} [{units[name]}, n={len(a)}/{len(b)}]")
    return 1 if flagged else 0
