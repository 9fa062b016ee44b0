"""The benchmark's tracer wraps hermlab functions by module and name from
outside; every name it lists must still resolve, or a traced run breaks."""

import importlib.util
from pathlib import Path

import hermlab

TRACER = Path(__file__).parents[1] / "bench" / "tracer.py"


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
