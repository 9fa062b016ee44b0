"""Self-tests of the benchmark: inputs, checks, tracing, result line, compare.

Run with ``python3 -m pytest bench -q`` from the repository root.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import run
import springer
import workloads
import worker
import yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def hermlab():
    return worker.import_hermlab()


def run_worker(tmp_path, workload, items, traced=False):
    inputs, result = tmp_path / "in.json", tmp_path / "out.json"
    inputs.write_text(json.dumps(items))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--inputs", str(inputs), "--result", str(result),
           "--spawned-at", repr(time.monotonic())]
    if traced:
        cmd += ["--trace", str(tmp_path / "spans.csv")]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
    return json.loads(result.read_text())


# -- the reference decider -------------------------------------------------

def test_class_text_round_trips():
    for text in ("1", "u", "pi", "u*pi*t", "t*s*s2", "u*s2"):
        assert springer.render(springer.parse(text)) == text
    assert springer.parse("p") == springer.parse("pi")


def test_reference_decider_agrees_with_hermlab(hermlab):
    rng = random.Random(7)
    for _ in range(400):
        p, h = rng.choice(workloads.PRIMES), rng.randint(1, 3)
        k = hermlab.fields.parse_field(workloads.field_text(p, h))
        entries = [rng.randrange(1 << (h + 1)) for _ in range(rng.randint(1, 2 ** (h + 1) + 2))]
        q = hermlab.quadform.QuadForm(k, tuple(
            hermlab.fields.parse_class(k, springer.render(c)) for c in entries))
        assert springer.is_isotropic(p, entries) == hermlab.quadform.qf_is_isotropic(q)


# -- inputs ------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_seed(workload):
    a = workloads.generate(workload, 5, 0)
    assert a == workloads.generate(workload, 5, 0)
    assert a != workloads.generate(workload, 6, 0)
    assert a != workloads.generate(workload, 5, 1)


def test_isotropy_pass_shares_no_reduced_form():
    items = workloads.generate("isotropy", 3, 0)
    keys = set()
    for it in items:
        entries = [springer.parse(t) for t in it["form"].split(",")]
        if it["shape"] == "herm_a":
            a, b = (springer.parse(t) for t in it["symbol"])
            entries = springer.trace_reduction(it["p"], a, b, entries)
        elif it["shape"] == "herm_b":
            entries = springer.transfer_reduction(it["p"], springer.parse(it["lam"]), entries)
        keys.add((it["p"], it["h"], tuple(sorted(entries))))
    assert len(keys) == len(items) == workloads.ISOTROPY_PASS
    assert {it["h"] for it in items} == {1, 2, 3, 4}
    assert {it["shape"] for it in items} == {"quad", "herm_a", "herm_b"}


# -- checks count wrong answers --------------------------------------------

def test_checks_reject_wrong_answers():
    item = {"shape": "quad", "p": 5, "h": 1, "field": "CDV(F5)", "form": "1,u,pi,u*pi"}
    assert workloads.check_isotropy(item, False)
    assert not workloads.check_isotropy(item, True)
    assert not workloads.check_isotropy(item, False, oracle=True)
    assert not workloads.check_isotropy(item, ["error", "EngineError", ""])

    assert workloads.check_recursion(["ok", 6, 6, True, True])
    assert workloads.check_recursion(["refused"])
    assert not workloads.check_recursion(["ok", 6, 5, True, True])
    assert not workloads.check_recursion(["ok", 6, 6, False, True])
    assert not workloads.check_recursion(["ok", 6, 6, True, False])
    assert not workloads.check_recursion(["error", "EngineError", ""])

    good = json.dumps({"rows": [{"ok": True}, {"ok": True}]})
    bad = json.dumps({"rows": [{"ok": True}, {"ok": False}]})
    assert workloads.check_paper([0, good])
    assert not workloads.check_paper([0, bad])
    assert not workloads.check_paper([2, good])
    assert not workloads.check_paper([0, "not json"])


def _flip(output):
    if isinstance(output, bool):
        return not output
    if output[0] == "ok":
        return ["ok", output[1] + 1] + output[2:]
    return output


@pytest.mark.parametrize("workload", ["isotropy", "recursion"])
def test_flipped_answers_are_counted_as_failures(monkeypatch, hermlab, workload):
    items = workloads.generate(workload, 1, 0)[:60]
    honest = worker.run_pass(workload, items, time.monotonic())
    assert honest["failed"] == 0
    objs = workloads.prepare(workload, items, hermlab)
    refused = sum(1 for o in objs if workloads.run_item(workload, o, hermlab) == ["refused"])
    run_item = workloads.run_item
    monkeypatch.setattr(workloads, "run_item",
                        lambda w, obj, h: _flip(run_item(w, obj, h)))
    flipped = worker.run_pass(workload, items, time.monotonic())
    assert flipped["attempted"] == len(items)
    assert flipped["failed"] == len(items) - refused > 0


# -- tracing -----------------------------------------------------------------

@pytest.mark.parametrize("workload,size", [("isotropy", 400), ("recursion", 40)])
def test_traced_counts_repeat_exactly(tmp_path, workload, size):
    items = workloads.generate(workload, 2, 0)[:size]
    plain = run_worker(tmp_path, workload, items)
    first = run_worker(tmp_path, workload, items, traced=True)
    second = run_worker(tmp_path, workload, items, traced=True)
    assert plain["digest"] == first["digest"] == second["digest"]
    exact = ("calls", "qf_entries", "qf_repeats", "div_repeats", "refused")
    assert {k: first["layers"][k] for k in exact} == {k: second["layers"][k] for k in exact}
    assert first["layers"]["calls"]["quadform.qf_is_isotropic"] > 0
    spans = (tmp_path / "spans.csv").read_text().splitlines()
    assert spans[0] == "span,parent,item,name,start_s,end_s"
    assert len(spans) - 1 == sum(v for k, v in first["layers"]["calls"].items()
                                 if k not in ("fields.sqcl_mul", "fields.class_to_str"))


def test_tracer_rebinds_every_alias_and_restores(hermlab):
    from tracer import Tracer
    original = hermlab.quadform.qf_is_isotropic
    t = Tracer(hermlab)
    t.install()
    try:
        for mod in (hermlab.quadform, hermlab.brauer, hermlab.hermitian, hermlab.uinv,
                    hermlab.lab, hermlab):
            assert mod.qf_is_isotropic is not original
        k = hermlab.fields.parse_field("CDV(F5)")
        B = hermlab.brauer.parse_brauer(k, "(u,pi)")
        assert hermlab.brauer.bc_is_division(B).value == "quaternion"
    finally:
        t.uninstall()
    assert hermlab.brauer.qf_is_isotropic is original
    summary = t.summary()
    assert summary["calls"]["quadform.qf_is_isotropic"] == 1
    assert summary["calls"]["brauer.bc_is_division"] == 1
    assert summary["self_s"]["brauer.bc_is_division"] <= summary["incl_s"]["brauer.bc_is_division"]


# -- statistics and the yardstick ------------------------------------------

def test_harrell_davis_quantiles():
    rng = random.Random(3)
    xs = [rng.random() for _ in range(3000)]
    q = statistics.quantiles(xs, n=10)
    assert run.harrell_davis(xs, 0.5) == pytest.approx(q[4], abs=0.01)
    assert run.harrell_davis(xs, 0.9) == pytest.approx(q[8], abs=0.01)
    assert run.harrell_davis([0.25] * 100, 0.9) == pytest.approx(0.25)
    gap = run.harrell_davis(([1.0] * 27 + [10.0] * 3) * 7, 0.9)
    assert 1.0 < gap < 10.0


def test_yardstick_is_fixed_work(tmp_path):
    assert yardstick.work() == yardstick.work()
    out = run_worker(tmp_path, "isotropy", workloads.generate("isotropy", 1, 0)[:100])
    assert len(out["yardstick_s"]) >= 2 and min(out["yardstick_s"]) > 0


# -- the result line and the bare-directory refusal -------------------------

def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_metric(trace, section):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "isotropy",
                           "--seed", "4", "--seconds", "0.5", "--trace", str(trace)],
                          stdout=subprocess.PIPE, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    names = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def test_refuses_to_run_without_hermlab_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "paper",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- compare ---------------------------------------------------------------

def _result_set(path, throughput, failed=0):
    runs = [{"workload": "paper", "seed": s, "trace": 0,
             "result": {"correct": not failed, "attempted": 30, "failed": failed, "metrics": {
                 "throughput_items_s": {"value": throughput * (1 + s / 1000),
                                        "unit": "items/s"}}}}
            for s in range(10)]
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_flags_a_regression(tmp_path, capsys):
    base = _result_set(tmp_path / "a.json", 6.0)
    assert compare.compare(base, _result_set(tmp_path / "b.json", 5.95)) == 0
    assert compare.compare(base, _result_set(tmp_path / "c.json", 3.0)) == 1
    assert "WORSE" in capsys.readouterr().out
    assert compare.compare(base, _result_set(tmp_path / "d.json", 6.0, failed=1)) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out and "10/300" in out and "WORSE" not in out
