"""The bench harness patches library functions by name and reads library
internals in its hooks; check both against the library."""

import importlib
import importlib.util
import json
import pathlib

from weakmeas import cli

SPANS = pathlib.Path(__file__).parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_attributes_resolve_in_weakmeas():
    spans = load_spans()
    for mod_name, attr, _ in spans.TRACED:
        owner = importlib.import_module("weakmeas." + mod_name)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        # methods are looked up in the class's own namespace
        found = (name in owner.__dict__ if path
                 else callable(getattr(owner, name, None)))
        assert found, (mod_name, attr)


def test_traced_runs_match_untraced_runs(tmp_path):
    grid = cli.preset("nonunique-rho50").to_dict()
    grid["meter"] = {"kind": "grid", "rho": 3.0, "n_points": 256,
                     "half_width": 12.0}
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    runs = (["limit-check", "--preset", "nonunique-rho50"],
            ["limit-check", "--config", str(grid_path)])

    def reports():
        out = []
        for i, argv in enumerate(runs):
            # the report echoes its --out path, so both passes use one
            path = tmp_path / f"report{i}.json"
            # looked up on the module, so the traced wrapper is the one run
            assert cli.main([*argv, "--format", "json",
                             "--out", str(path)]) == 0
            out.append(path.read_bytes())
        return out

    untraced = reports()
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.active = True
        traced = reports()
    finally:
        tracer.active = False
        tracer.uninstall()
    assert traced == untraced
    metrics = spans.layer_metrics(tracer)
    for layer in ("protocol.coupled_state", "hilbert.evolve_coupling"):
        calls, _ = metrics[layer + ".calls"]
        assert calls >= 1, layer
