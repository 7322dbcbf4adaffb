"""The traced benchmark run (`perfbench/run.py --trace 1`) wraps program
functions by the name their callers look them up by.  A rename in the
program must fail here, not only in a traced run."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_function_is_an_attribute_of_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    table, datagen = spans._patches()
    # Tracer.install looks each one up as owner.__dict__[attr].
    missing = [(owner.__name__, attr) for owner, attr, *_ in table
               if attr not in owner.__dict__]
    assert not missing
    assert "prefetch" in datagen.__dict__
