"""The benchmark calls hermlab from outside: its tracer wraps functions by
module and name, and its workloads build inputs and run items through the
public API.  Every name the tracer lists must still resolve, and a slice of
each workload must still pass the benchmark's own checks, or a benchmark
run breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import hermlab

BENCH = Path(__file__).parents[1] / "bench"
TRACER = BENCH / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("hermlab_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    tracer = load_tracer()
    names = [(mod, name) for table in (tracer.SPANNED, tracer.COUNTED)
             for mod, fnames in table.items() for name in fnames]
    assert names
    for mod, name in names:
        assert callable(getattr(getattr(hermlab, mod), name, None)), f"{mod}.{name}"
    # also read by the tracer: the audit method it wraps and the height tag
    assert callable(hermlab.derivation.Derivation.audit)
    assert callable(hermlab.fields.height)


# (workload, how many of the first items of seed 1, pass 0, or the paper
# sections to run at p = 5)
SLICES = [("recursion", 40, None), ("isotropy", 200, None),
          ("paper", None, ("local", "unitary"))]


@pytest.mark.parametrize("workload, count, sections", SLICES,
                         ids=[s[0] for s in SLICES])
def test_workload_slice_passes_the_benchmark_checks(monkeypatch, workload, count, sections):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    items = workloads.generate(workload, 1, 0)
    if sections is None:
        items = items[:count]
    else:
        items = [i for i in items if i["section"] in sections and i["p"] == 5]
    assert items
    objs = workloads.prepare(workload, items, hermlab)
    for item, obj in zip(items, objs):
        out = workloads.run_item(workload, obj, hermlab)
        oracle = None  # the quadratic height-1 items are also checked by the oracle
        if workload == "isotropy" and item["shape"] == "quad" and item["h"] == 1:
            oracle = hermlab.quadform.qf_is_isotropic_oracle(obj)
        assert workloads.check(workload, item, out, oracle), (item, out)
