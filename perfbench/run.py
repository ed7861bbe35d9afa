"""ridgelab benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload optimum --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each run is one process with BLAS pinned to one thread.  It builds the
workload's spectra or ensembles, then runs ops generated from the seed in a
closed loop with one caller for ``--seconds`` of timed wall time, checking
each output against an independent reference right after its call,
outside the timed region.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs one op of each consecutive pair,
chosen at random, with span wrappers installed, and reports the per-layer
metrics.  The last
stdout line is one JSON object; the full result, with provenance and the
failing inputs, is also written to ``perfbench/out/``.
"""

import time

_T_PROCESS = time.perf_counter()  # before numpy and ridgelab are imported

import os  # noqa: E402

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

TRACE_COIN_SEED = 20201  # which op of each pair in a traced run carries wrappers


def _import_program():
    """Import ridgelab from the checkout's ``src``; exit non-zero without it."""
    sys.path.insert(0, str(SRC))
    try:
        import ridgelab
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import ridgelab from {SRC}: {exc}")
    if Path(ridgelab.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: ridgelab was imported from {ridgelab.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# timed loop
# ---------------------------------------------------------------------------


def _run_ops(op_module, prepared, source, seconds: float, tracer=None):
    """Closed loop, one caller, for ``seconds`` of timed wall time.

    Each op is drawn from ``source`` and built, timed, then checked and
    dropped; only the call itself is timed, and nothing an op returns is
    kept, so memory does not grow with throughput.  With a ``tracer``, each
    pair of consecutive ops runs one traced and one untraced, in an order
    set by a fixed coin (independent of the workload seed): traced and
    untraced ops then see the same mix of inputs and the same drift of the
    machine, which a regular alternation would not, as it aliases with the
    generator's rotations.
    """
    run = {"latencies": [], "traced": [], "failures": [], "mc_pairs": [], "peak_rss_mb": 0.0}
    coin = random.Random(TRACE_COIN_SEED)
    first_traced = False
    untimed = 0.0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 - untimed < seconds:
        p = time.perf_counter()
        op = next(source)
        call, context = prepared.build(op)
        if op["id"] % 2 == 0:
            first_traced = coin.random() < 0.5
        on = tracer is not None and first_traced == (op["id"] % 2 == 0)
        if on and not tracer.installed:
            tracer.install()
        elif tracer is not None and not on and tracer.installed:
            tracer.uninstall()
        if on:
            tracer.op = op["id"]
        a = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # a failing op is counted, not fatal
            out = exc
        b = time.perf_counter()
        if on:
            tracer.op = None
        run["latencies"].append(b - a)
        run["traced"].append(on)
        run["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        error = _check_one(op_module, prepared, op, context, out)
        if error is not None:
            run["failures"].append({"op": op, "error": error})
        elif on and prepared.workload in workloads.MC_SHAPES:
            run["mc_pairs"].append(op_module.mc_pairs(op, out))
        untimed += (a - p) + (time.perf_counter() - b)
    if tracer is not None:
        tracer.uninstall()
    run["wall"] = time.perf_counter() - t0 - untimed
    return run


def _check_one(op_module, prepared, op, context, out):
    if isinstance(out, Exception):
        return f"raised {type(out).__name__}: {out}"
    try:
        return op_module.check(prepared, op, context, out)
    except Exception as exc:  # a crash while checking is a failed check
        return f"check raised {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _end_to_end(latencies, wall, setup_s, peak_rss_mb):
    return {
        "ops_per_s": (len(latencies) / wall, "1/s"),
        "op_p50_ms": (1e3 * float(np.percentile(latencies, 50.0)), "ms"),
        "op_p90_ms": (1e3 * float(np.percentile(latencies, 90.0)), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


# ---------------------------------------------------------------------------
# provenance and output
# ---------------------------------------------------------------------------


def _git_commit():
    """Commit of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _provenance(args):
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 prints its configuration only
        blas = {}
    return {
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                        "MKL_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _report(args, provenance, metrics, attempted, failures, info):
    error_rate = len(failures) / attempted if attempted else 0.0
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} seconds={args.seconds}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for key, value in info.items():
        print(f"info {key} = {value}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"metric error_rate = {error_rate:.6g} ratio ({len(failures)} of {attempted} ops)")
    for f in failures:
        print("failure " + json.dumps(f, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, provenance=provenance, error_rate=error_rate, failures=failures, info=info)
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_workload(args) -> None:
    _import_program()
    import ops as op_module
    import tracing

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        tracer.op = tracing.SETUP_OP
    prepared = op_module.Prepared(args.workload, args.seed)
    if tracer is not None:
        tracer.op = None
        tracer.uninstall()
    setup_s = time.perf_counter() - _T_PROCESS

    source = workloads.stream(args.workload, args.seed)
    t_run = time.perf_counter()
    run = _run_ops(op_module, prepared, source, args.seconds, tracer)
    lat = run["latencies"]
    info = {"ops_timed": len(lat), "checks_and_draws_s": time.perf_counter() - t_run - run["wall"]}
    if tracer is None:
        metrics = _end_to_end(lat, run["wall"], setup_s, run["peak_rss_mb"])
    else:
        lat_on = [t for t, on in zip(lat, run["traced"]) if on]
        lat_off = [t for t, on in zip(lat, run["traced"]) if not on]
        overhead = (len(lat_on) * sum(lat_off)) / (len(lat_off) * sum(lat_on)) if lat_on and lat_off else 0.0
        metrics = tracing.layer_metrics(tracer, max(len(lat_on), 1), run["mc_pairs"], overhead)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans-{args.workload}.npz")
        info["ops_traced"] = len(lat_on)
    info["process_s"] = time.perf_counter() - _T_PROCESS
    _report(args, _provenance(args), metrics, len(lat), run["failures"], info)


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            sys.stdout.flush()
            status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
