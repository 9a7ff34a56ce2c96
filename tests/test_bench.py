"""The bench harness patches library functions by name; check the names."""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).parent.parent / "bench" / "spans.py"


def test_traced_attributes_resolve_in_weakmeas():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for mod_name, attr, _ in spans.TRACED:
        owner = importlib.import_module("weakmeas." + mod_name)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        # methods are looked up in the class's own namespace
        found = (name in owner.__dict__ if path
                 else callable(getattr(owner, name, None)))
        assert found, (mod_name, attr)
