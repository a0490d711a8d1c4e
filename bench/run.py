#!/usr/bin/env python3
"""Run one stringcalc benchmark workload and print its metrics.

    python3 bench/run.py --workload sentences_long --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
Every metric is printed as ``name value unit``; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, from an untraced closed
loop of whole op cycles.  With ``--trace 1`` they are the per-layer ones,
from running each op of the cycle untraced and then traced; the spans go
to ``bench/out/``.  See ``bench/README.md``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
VERSION = "1"
PROBES = 5  # fresh processes whose median is the set-up time
MIN_SAMPLES = 120  # ops per timed run, so that at least ten lie beyond p90
# Address-space cap for this process and its children: an op that asks
# numpy for more fails with MemoryError instead of exhausting a shared host.
MEMORY_LIMIT = 3 << 30

WORKLOADS = ("sentences_long", "sentences_wide", "rewrite_search", "cli")
LAYERS = ("load", "parse", "diagram", "normalize", "evaluate", "derived",
          "resources", "teleport", "cli")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "load.self_s": "s", "load.calls": "count", "load.json_bytes": "bytes",
    "parse.self_s": "s", "parse.combinations": "count",
    "parse.witnesses": "count", "parse.truncated": "count",
    "diagram.self_s": "s", "diagram.nodes_built": "count",
    "diagram.wires_built": "count",
    "normalize.self_s": "s", "normalize.rewrites": "count",
    "normalize.nodes_in": "count",
    "evaluate.thin.self_s": "s", "evaluate.thick.self_s": "s",
    "evaluate.calls": "count", "evaluate.nodes_in": "count",
    "evaluate.out_elements": "count", "evaluate.payload_bytes": "bytes",
    **{f"evaluate.{k}.L{n}.self_s": "s"
       for k in ("thin", "thick") for n in (19, 35, 67, 131)},
    "derived.self_s": "s", "derived.calls": "count",
    "resources.self_s": "s", "resources.queries": "count",
    "resources.witness_steps": "count",
    **{f"resources.N{n}.self_s": "s" for n in (8, 16, 24)},
    "teleport.self_s": "s", "teleport.branches": "count",
    **{f"teleport.D{d}.self_s": "s" for d in (2, 4, 8)},
    "cli.python_start_s": "s", "cli.import_s": "s",
    "cli.import_numpy_s": "s", "cli.command_s": "s",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "trace.overhead_s": "s",
    "fail_ratio": "ratio",
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="internal: time set-up in this fresh process, print it")
    args = ap.parse_args(argv)
    if not (SRC / "stringcalc" / "__init__.py").is_file():
        print(f"error: no stringcalc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One BLAS thread, here and in child processes, so that a run has no
    # threads besides its own: OpenBLAS's second thread spins between
    # calls and doubled the cycle-to-cycle spread of sentences_long on a
    # 2-core Xeon VM.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > MEMORY_LIMIT:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, hard))
    if args.probe:
        print(json.dumps(setup(args.workload, args.seed)[1]))
        return 0
    workload, _ = setup(args.workload, args.seed)
    probes = [probe(args) for _ in range(PROBES)]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("env " + json.dumps(environment(args)))
    if args.trace:
        metrics, records = traced_run(workload, args, probes)
    else:
        metrics, records = untraced_run(workload, args, probes)
    return report(metrics, records)


def setup(name: str, seed: int):
    """Import the package and build the workload's inputs, warm-up included."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    t1 = time.perf_counter()
    import stringcalc  # noqa: F401
    t2 = time.perf_counter()
    import workloads

    workload = workloads.build(name, seed, ROOT)
    run_cycle(workload.cycle[:workload.warmup])
    timing = {"import_numpy_s": t1 - t0, "import_s": t2 - t0,
              "setup_s": time.perf_counter() - START}
    return workload, timing


def probe(args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def environment(args) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "harness_version": VERSION, "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        **openblas(),
    }


def openblas() -> dict:
    """OpenBLAS version and thread count, read from numpy's bundled library."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if threads and config:
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                return {"openblas": config().decode(), "openblas_threads": threads()}
    return {"openblas": "unknown", "openblas_threads": None}


# -- measuring ----------------------------------------------------------------


def run_cycle(cycle, tracer=None) -> list[dict]:
    """Run each op once; time ``run`` only, then check its result."""
    from refs import CheckFailed

    records = []
    for op in cycle:
        if tracer is not None:
            tracer.begin_op(op.tag)
        cause = None
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # an op that raises is a failed op
            cause = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if cause is None:
            try:
                op.check(out)
            except CheckFailed as exc:
                cause = f"check: {exc}"
        records.append({"kind": op.kind, "tag": op.tag, "seconds": seconds,
                        "cause": cause})
    return records


def untraced_run(workload, args, probes):
    """Whole cycles, as many as end within --seconds, and more while fewer
    than MIN_SAMPLES ops have run, up to 4 * --seconds."""
    records = []
    begin = time.perf_counter()
    while True:
        started = time.perf_counter()
        records += run_cycle(workload.cycle)
        now = time.perf_counter()
        ends = now - begin + (now - started)
        if ends > 4 * args.seconds or (ends > args.seconds
                                       and len(records) >= MIN_SAMPLES):
            break
    ok = [r["seconds"] for r in records if r["cause"] is None]
    if workload.child_rss_kb:
        rss_kb = max(workload.child_rss_kb)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "ops_per_s": len(ok) / sum(r["seconds"] for r in records),
        "op_p50_ms": 1e3 * statistics.median(ok) if ok else float("nan"),
        "op_p90_ms": 1e3 * _p90(ok),
        "peak_rss_mb": rss_kb / 1024,
    }
    beyond = sum(x > _p90(ok) for x in ok)
    print(f"samples {len(ok)} correct ops, {beyond} beyond p90")
    return {k: (v, END_TO_END[k]) for k, v in values.items()}, records


def _p90(xs) -> float:
    return statistics.quantiles(xs, n=10)[-1] if len(xs) > 1 else float("nan")


def traced_run(workload, args, probes):
    """Each op of the cycle untraced, then traced, for --seconds."""
    import tracer as tracing

    tracer = tracing.Tracer()
    records, plain, traced, selves, counters, command = [], [], [], [], None, []
    begin = time.perf_counter()
    while True:
        started = time.perf_counter()
        first = len(tracer.spans)
        tracer.counters.clear()
        plain.append(0.0)
        traced.append(0.0)
        for op in workload.traced_cycle:
            records += run_cycle([op])
            plain[-1] += records[-1]["seconds"]
            tracer.install()
            try:
                records += run_cycle([op], tracer)
            finally:
                tracer.uninstall()
            traced[-1] += records[-1]["seconds"]
        selves.append(tracer.self_times(first))
        command.append(sum(end - start for name, start, end, parent, _
                           in tracer.spans[first:] if name == "cli" and parent < 0))
        counters = counters or dict(tracer.counters)
        now = time.perf_counter()
        if now - begin + (now - started) > args.seconds:
            break
    starts = [_python_start() for _ in range(PROBES)]
    values = {name: 0.0 for name in PER_LAYER}
    values.update(counters)
    op_time = statistics.median(traced)
    for key in {k for s in selves for k in s}:
        median = statistics.median(s.get(key, 0.0) for s in selves)
        if f"{key}.self_s" in values:
            values[f"{key}.self_s"] = median
        if key in LAYERS:
            values[f"{key}.share"] = median / op_time
    values.update({
        "cli.python_start_s": statistics.median(starts),
        "cli.import_s": statistics.median(p["import_s"] for p in probes),
        "cli.import_numpy_s": statistics.median(p["import_numpy_s"] for p in probes),
        "cli.command_s": statistics.median(command),
        "trace.overhead_s": op_time - statistics.median(plain),
        "fail_ratio": sum(r["cause"] is not None for r in records) / len(records),
    })
    print(f"cycles {len(traced)} traced, {len(workload.traced_cycle)} ops each; "
          f"per-layer seconds are medians per traced cycle")
    _write_spans(tracer, args)
    return {k: (values[k], PER_LAYER[k]) for k in PER_LAYER}, records


def _python_start() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
    return time.perf_counter() - start


def _write_spans(tracer, args) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans_{args.workload}_{args.seed}.json"
    path.write_text(json.dumps({
        "env": environment(args),
        "fields": ["name", "start", "end", "parent", "op"],
        "op_tags": tracer.op_tags,
        "spans": tracer.spans,
    }))
    print(f"spans {len(tracer.spans)} written to {path.relative_to(ROOT)}")


def report(metrics, records) -> int:
    failed = [r for r in records if r["cause"] is not None]
    print(f"fail_ratio {len(failed) / len(records):.6g} ratio "
          f"({len(failed)} of {len(records)} ops)")
    for r in failed[:20]:
        print(f"failed {r['kind']} {r['tag']}: {r['cause']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
