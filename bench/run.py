"""weakmeas benchmark: CLI scenario throughput, one closed-loop client.

Each op is one in-process call of ``weakmeas.cli.main(argv)`` on a config
file drawn from the workload seed; the next op starts after the previous
one has written its JSON report. Interpreter start, ``import weakmeas``
and writing the configs are set-up, measured by ``setup_s``; parsing the
config into fresh Observables, building meters and cold
eigendecompositions are paid inside every op, as a CLI user pays them.

    python3 bench/run.py --workload grid-scenarios --seed 1 --seconds 28 \
        --trace 0

``--workload all`` runs every workload, each in its own process, and
prints every metric by name. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs the same ops untraced and then traced,
checks that the reports are byte-identical, and reports the per-layer
metrics. The last stdout line is one JSON object; a fuller record goes to
bench/results/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

SETUP_PROBES = 13         # set-ups per run; setup_s is their median
TAIL_SAMPLES = 10         # samples above the tail percentile in tail_ops ops

if not os.path.isfile(os.path.join(SRC, "weakmeas", "cli.py")):
    sys.exit(f"error: weakmeas sources not found under {SRC}")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import weakmeas  # noqa: E402
from weakmeas import cli  # noqa: E402
from weakmeas.oracle import (  # noqa: E402
    exact_outcome_distribution,
    monte_carlo_run,
)

import spans  # noqa: E402
import workloads as wl  # noqa: E402

_GENERATED_AT = re.compile(rb'"generated_at": "[^"]*"')


# ---------------------------------------------------------------------------
# set-up


def _prepare(args, workdir):
    work = wl.WORKLOADS[args.workload]
    return work, wl.prepare(work, args.seed, os.path.join(workdir, "configs"))


def _probe_setup(args, workdir) -> float:
    """Start a fresh interpreter that sets up exactly as this one did and
    stops where it would issue its first op; return the elapsed time."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1", "--trace", "0", "--probe-dir", workdir]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                         timeout=120)
    ready = float(out.stdout.strip().splitlines()[-1])
    return ready - t0


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_sha():
    # a checkout without its own .git has no SHA; do not let git search
    # the directories above it
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _l3_bytes():
    path = "/sys/devices/system/cpu/cpu0/cache/index3/size"
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024 ** 2}.get(text[-1], 1)
    return int(text.rstrip("KM")) * scale


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    n = 1024   # default grid: one dense complex n x n matrix
    return {
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "weakmeas": weakmeas.__version__,
        "l3_cache_bytes": _l3_bytes(),
        "grid_matrix_bytes": n * n * 16,
    }


# ---------------------------------------------------------------------------
# the closed loop


class Exact:
    """Exact conditional means for compare checks, one per pool entry."""

    def __init__(self):
        self._memo = {}

    def __call__(self, spec):
        if spec.path not in self._memo:
            config = cli.ExperimentConfig.load(spec.path)
            table = exact_outcome_distribution(config.setup(),
                                               config.eps_values[0])
            self._memo[spec.path] = table.conditional_mean
        return self._memo[spec.path]


def run_op(spec, report_path, tracer=None):
    """One CLI invocation. Returns (latency, failures, report bytes)."""
    argv = [spec.scenario, "--config", spec.path, "--out", report_path,
            "--format", "json"]
    if os.path.exists(report_path):
        os.unlink(report_path)
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:             # an op that crashes is a failed op
        code = traceback.format_exc()
    latency = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    if code != 0:
        return latency, [("exit", code, 0)], b""
    with open(report_path, "rb") as fh:
        raw = fh.read()
    return latency, None, raw


def closed_loop(pool, workdir, exact, seconds=None, n_ops=None, tracer=None,
                keep=False):
    """Run whole cycles until ``seconds`` have passed, or exactly ``n_ops``
    ops. Returns a list of op records (spec, latency, failures, report);
    the report bytes are kept only with ``keep``."""
    report_path = os.path.join(workdir, "report.json")
    ops = []
    start = time.perf_counter()
    for spec in wl.op_sequence(pool):
        if n_ops is not None and len(ops) >= n_ops:
            break
        if (seconds is not None and len(ops) % len(pool) == 0
                and time.perf_counter() - start >= seconds):
            break
        if tracer is not None:
            tracer.op_id = len(ops)
        latency, failures, raw = run_op(spec, report_path, tracer)
        if failures is None:
            try:
                failures = wl.check_report(spec, json.loads(raw), exact)
            except Exception:     # a report the checks cannot read
                failures = [("check_crashed",
                             traceback.format_exc().splitlines()[-1], None)]
        ops.append((spec, latency, failures, raw if keep else None))
    return ops


# ---------------------------------------------------------------------------
# metrics


def tail(latencies, work):
    """Latency at the workload's fixed tail percentile, the one that
    leaves TAIL_SAMPLES above it in ``work.tail_ops`` ops. The run is cut
    into consecutive blocks of at least ``tail_ops`` ops and the median
    over the blocks is reported: a burst of host slowness slows every op
    for a second or two, and so moves one block, not the figure."""
    pct = 100.0 * (1.0 - TAIL_SAMPLES / work.tail_ops)
    blocks = np.array_split(latencies, max(1, len(latencies)
                                           // work.tail_ops))
    values = [float(np.percentile(b, pct)) for b in blocks]
    return statistics.median(values), {
        "tail_percentile": pct, "samples": len(latencies),
        "blocks": len(blocks), "block_values_s": values}


def ops_per_s(ops) -> float:
    done = sum(1 for _, _, fails, _ in ops if not fails)
    return done / sum(lat for _, lat, _, _ in ops)


def end_to_end(ops, setup_samples, work) -> dict:
    lat = [lat for _, lat, _, _ in ops]
    value, tail_info = tail(lat, work)
    return {
        "ops_per_s": (ops_per_s(ops), "1/s"),
        "op_s.p50": (statistics.median(lat), "s"),
        "op_s.tail": (value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_samples), "s"),
    }, tail_info


def side_facts(ops) -> dict:
    """Numbers printed next to the gated metrics."""
    lat = sum(lat for _, lat, _, _ in ops)
    failed = sum(1 for _, _, fails, _ in ops if fails)
    trials = sum(wl.mc_trials(spec) for spec, _, fails, _ in ops
                 if not fails)
    return {"failed_frac": failed / len(ops),
            "trials_per_s": trials / lat if trials else None}


def failure_log(ops, seed, label) -> list:
    out = []
    for i, (spec, _, fails, _) in enumerate(ops):
        for check, value, limit in fails:
            out.append({"pass": label, "op": i, "scenario": spec.scenario,
                        "seed": seed,
                        "pool_index": spec.index,
                        "config": os.path.relpath(spec.path, ROOT),
                        "check": check, "value": value, "limit": limit})
    return out


def shard_check(pool) -> dict:
    """The Philox contract: shards [0, k) + [k, n) equal the serial run."""
    spec = next(s for specs in pool for s in specs if "mc" in s.config)
    config = cli.ExperimentConfig.load(spec.path)
    setup, eps = config.setup(), config.eps_values[0]
    n, seed = config.mc.n_trials, config.mc.seed
    k = n // 3 + 1
    serial = monte_carlo_run(setup, eps, n, seed).counts
    head = monte_carlo_run(setup, eps, k, seed).counts
    rest = monte_carlo_run(setup, eps, n - k, seed, trial_offset=k).counts
    return {"scenario": spec.scenario, "n_trials": n, "split": k,
            "identical": bool(np.array_equal(serial, head + rest))}


def transparency(untraced, traced) -> dict:
    mism = [i for i, (a, b) in enumerate(zip(untraced, traced))
            if _GENERATED_AT.sub(b"", a[3]) != _GENERATED_AT.sub(b"", b[3])]
    return {"ops_compared": len(traced), "mismatched_ops": mism[:20],
            "identical": not mism and len(untraced) == len(traced)}


# ROADMAP's Baseline groups, by span name
BASELINE_GROUPS = {
    "hilbert.eig_hermitian": ("hilbert.eig_hermitian",),
    "hilbert.Observable": ("hilbert.Observable",),
    "meters.*": ("meters.momentum_operator", "meters.position_operator",
                 "meters.gaussian_grid_meter", "meters.qubit_meter"),
}


def baseline_crosscheck(tracer, ops) -> dict:
    """Share of op time spent in each Baseline group, by self time, per
    scenario and over all ops of the traced pass: the quantities
    ROADMAP's Baseline table estimated from single cProfile runs."""
    members = {}
    for i, (spec, lat, _, _) in enumerate(ops):
        for key in (spec.scenario, "all"):
            members.setdefault(key, {})[i] = lat
    out = {}
    for key, lats in members.items():
        tot = tracer.totals(lats)
        op_s = sum(lats.values())
        row = out[key] = {"ops": len(lats), "mean_op_s": op_s / len(lats)}
        for group, names in BASELINE_GROUPS.items():
            self_s = sum(tot[n]["self_s"] for n in names if n in tot)
            calls = sum(tot[n]["calls"] for n in names if n in tot)
            row[group] = {"share": self_s / op_s,
                          "self_s_per_op": self_s / len(lats),
                          "calls_per_op": calls / len(lats)}
    return out


# ---------------------------------------------------------------------------
# entry points


def run_workload(args) -> int:
    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(RESULTS, f"work-{os.getpid()}")
    try:
        # half the set-up probes run before the timed ops and half after,
        # so that setup_s samples the host's drifting speed at two times
        probes = [os.path.join(workdir, f"p{i}") for i in range(SETUP_PROBES)]
        half = SETUP_PROBES // 2
        setup_samples = [_probe_setup(args, d) for d in probes[half:]]
        work, pool = _prepare(args, workdir)
        env = environment(args)
        exact = Exact()
        # one untimed op first: the first large allocations and BLAS
        # thread start-up land on it, and they are set-up, not op cost
        closed_loop(pool, workdir, exact, n_ops=1)
        ops = closed_loop(pool, workdir, exact, seconds=args.seconds,
                          keep=bool(args.trace))
        setup_samples += [_probe_setup(args, d) for d in probes[:half]]
        e2e, tail_info = end_to_end(ops, setup_samples, work)
        record = {"env": env, "setup_samples_s": setup_samples,
                  "tail": tail_info, **side_facts(ops),
                  "op_latencies_s": [[spec.scenario, lat]
                                     for spec, lat, _, _ in ops],
                  "failures": failure_log(ops, args.seed, "untraced")}
        checks_ok = not record["failures"]
        if work.check_shards:
            record["shard_check"] = shard_check(pool)
            checks_ok &= record["shard_check"]["identical"]
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = closed_loop(pool, workdir, exact, n_ops=len(ops),
                                     tracer=tracer, keep=True)
            finally:
                tracer.uninstall()
            record["transparency"] = transparency(ops, traced)
            checks_ok &= record["transparency"]["identical"]
            traced_rate = ops_per_s(traced)
            record["tracing_overhead"] = {
                "untraced_ops_per_s": e2e["ops_per_s"][0],
                "traced_ops_per_s": traced_rate,
                "difference_ops_per_s": e2e["ops_per_s"][0] - traced_rate}
            record["failures"] += failure_log(traced, args.seed, "traced")
            checks_ok &= not record["failures"]
            record["baseline_crosscheck"] = baseline_crosscheck(tracer,
                                                                traced)
            tracer.dump(os.path.join(
                RESULTS, f"spans_{args.workload}_seed{args.seed}.jsonl"))
            metrics = spans.layer_metrics(tracer)
            ops = ops + traced
        else:
            metrics = e2e
        _check_declared(metrics, "per_layer" if args.trace else "end_to_end")
        record["end_to_end"] = {k: {"value": v, "unit": u}
                                for k, (v, u) in e2e.items()}
        result = {
            "correct": bool(checks_ok),
            "attempted": len(ops),
            "failed": sum(1 for _, _, fails, _ in ops if fails),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["result"] = result
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, default=str)
    _print_human(args, record)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _check_declared(metrics, kind):
    """The emitted metrics must be exactly the ones BENCHMARK.json lists."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path, encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if emitted != declared:
        diff = sorted(set(emitted.items()) ^ set(declared.items()))
        raise SystemExit(f"error: {kind} metrics differ from "
                         f"BENCHMARK.json: {diff}")


def _print_human(args, record):
    print(f"workload {args.workload}  seed {args.seed}  "
          f"env {json.dumps(record['env'])}")
    for f in record["failures"]:
        print(f"FAILED {f['pass']} op {f['op']} {f['scenario']} "
              f"seed {f['seed']} {f['config']}: {f['check']} = "
              f"{f['value']} (limit {f['limit']})", file=sys.stderr)
    for name, m in record["end_to_end"].items():
        print(f"  {name:<14} {m['value']:.6g} {m['unit']}")
    t = record["tail"]
    print(f"  (op_s.tail is p{t['tail_percentile']:.2f}, median over "
          f"{t['blocks']} blocks of {t['samples']} ops)")
    print(f"  failed_frac    {record['failed_frac']:.6g}")
    if record["trials_per_s"] is not None:
        print(f"  trials_per_s   {record['trials_per_s']:.6g} 1/s")
    for key in ("shard_check", "transparency", "tracing_overhead"):
        if key in record:
            print(f"  {key}: {json.dumps(record[key])}")
    if "baseline_crosscheck" in record:
        for group, m in record["baseline_crosscheck"]["all"].items():
            if isinstance(m, dict):
                print(f"  share of op time in {group}: {m['share']:.3f} "
                      f"({m['calls_per_op']:.3g} calls per op)")


def run_all(args) -> int:
    results = {}
    code = 0
    for name in wl.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(out.stderr)
        if out.returncode != 0 and not lines:
            return out.returncode
        results[name] = json.loads(lines[-1])
        code = code or out.returncode
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(wl.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-dir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.probe_dir:
        _prepare(args, args.probe_dir)
        print(repr(time.perf_counter()))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
