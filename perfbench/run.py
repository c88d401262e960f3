"""crmfp benchmark: one workload per run, end-to-end or traced per layer.

    python3 perfbench/run.py --workload bench-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Runs in one process with one caller (closed loop) and BLAS pinned to one
thread.  The library is imported from ``src/`` of the checkout this file
sits in, never from an installed copy.  After set-up and one untimed
warm-up pass, passes of the workload repeat for ``--seconds`` seconds;
every pass must reproduce the warm-up pass bit for bit.  Times are
rescaled to a reference machine speed by a calibration loop run around
every pass (see Calibration).  Outputs are then checked against an
independent oracle, outside the timed phase.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, with ``--trace 1`` the per-layer ones, measured
on traced passes that alternate with untraced ones (the difference of
their medians is ``trace.overhead_frac``).  See README.md beside this file.
"""
import os

# Pin BLAS before numpy loads: one caller, one thread (the box has 2 cores).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bench-grid", "crm-large", "checks-exterior")
# Set-ups per run: at least SETUPS, spread over the measured time, and more
# while they take under SETUP_SHARE of it; setup_s is their median.
SETUPS = 3
SETUP_SHARE = 0.25
MIN_PASSES = 3    # timed passes per run at least (per side when traced)
# The calibration loop's duration at the reference speed (about its median
# on the 2-vCPU development box).
CALIBRATION_REF_S = 0.1
# Per-layer metrics timed during set-up; for workloads with a separate
# set-up the traced set-ups' median is added to the traced passes' median.
SETUP_LAYER_KEYS = ("instance_gen.gen_s", "instance_gen.initial_point_s", "ellipsoid.eig_s")


def import_library():
    """Import crmfp from the checkout's src/; None when it is not there."""
    src = ROOT / "src"
    if not (src / "crmfp" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import crmfp

    if Path(crmfp.__file__).resolve().parent != (src / "crmfp").resolve():
        return None
    return crmfp


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine():
    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = None
    return info


def median(values):
    return statistics.median(values) if values else float("nan")


class Calibration:
    """A fixed loop of numpy work, independent of crmfp.

    The host's speed drifts by up to 1.7x over tens of seconds.  The loop
    runs around every pass, and each pass (with the set-up before it) is
    timed in units of the mean of its two calibrations, times
    CALIBRATION_REF_S: seconds at the speed at which the loop takes
    CALIBRATION_REF_S.  The loop resembles the workload, so that it slows
    down the way the workload does: small-vector steps bound by interpreter
    overhead, and, for ``batched`` workloads, half of them replaced by
    batched rotations and concatenations of a few MB.
    """

    def __init__(self, batched: bool):
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((60, 60)) / 60.0
        self.vector = rng.standard_normal(60)
        self.rot = rng.standard_normal((200, 50, 50))
        self.rows = rng.standard_normal((200, 50))
        self.steps, self.batches = (9000, 90) if batched else (18000, 0)
        self.times = []

    def run(self) -> float:
        v = self.vector
        t0 = time.perf_counter()
        for i in range(self.steps):
            w = self.matrix @ v
            v = w / (1.0 + float(np.abs(w).sum())) + 0.01 * (i % 7)
        for _ in range(self.batches):
            np.matmul(self.rot.transpose(0, 2, 1), self.rows[..., None])
            np.concatenate([self.rot, self.rot[:10]])
        self.times.append(time.perf_counter() - t0)
        return self.times[-1]


def measure(workload, seconds: float, traced: bool):
    """Set up, warm up, time passes, verify; returns (metrics, verdict, record)."""
    import layers
    import workloads as wl

    tracer = layers.Tracer()
    verdict = wl.Verdict()
    calibration = Calibration(workload.batched_calibration)
    setup_times, setup_scaled, setup_layers = [], [], []
    plain, with_trace, pass_layers = [], [], []

    def maybe_traced(fn, layer_log):
        if layer_log is None:
            return fn()
        tracer.reset()
        tracer.install()
        try:
            return fn()
        finally:
            layer_log.append(tracer.layer_metrics())
            tracer.uninstall()

    def set_up():
        t0 = time.perf_counter()
        fresh = maybe_traced(workload.setup, setup_layers if traced else None)
        setup_times.append(time.perf_counter() - t0)
        return workload.prepare(fresh)

    before = calibration.run()
    state = set_up()
    reference = workload.run_pass(state)
    after = calibration.run()
    setup_scaled.append(setup_times[-1] * CALIBRATION_REF_S / (0.5 * (before + after)))
    ref_keys = reference.keys()
    reference.items = None
    last = None
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(plain) < MIN_PASSES or (traced and len(with_trace) < MIN_PASSES)):
        before = after
        set_up_again = False
        if last is not None:
            last.items = None   # a pass's items hold its inputs alive
            if (len(setup_times) < SETUPS
                    or sum(setup_times) < SETUP_SHARE * (time.perf_counter() - start)):
                # Set up again, spread over the measured time, on fresh
                # inputs that the following passes must reproduce on; the
                # old inputs go first, so one set is alive at a time.
                state = None
                state = set_up()
                set_up_again = True
        trace_this = traced and len(with_trace) < len(plain)
        last = maybe_traced(lambda: workload.run_pass(state),
                            pass_layers if trace_this else None)
        after = calibration.run()
        last.scale = CALIBRATION_REF_S / (0.5 * (before + after))
        if set_up_again:
            setup_scaled.append(setup_times[-1] * last.scale)
        verdict.attempted += len(last.items)
        keys = last.keys()
        mismatches = sum(a != b for a, b in zip(keys, ref_keys)) + abs(len(keys) - len(ref_keys))
        verdict.failed += mismatches
        if mismatches:
            verdict.notes.append(f"{mismatches} results differ from the warm-up pass"
                                 + (" (traced)" if trace_this else ""))
        (with_trace if trace_this else plain).append(last)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    resumed = []
    workload.verify(last, verdict, resumed)

    def times(results, scaled):
        inner = [r.setup_s * (r.scale if scaled else 1.0)
                 for r in results if r.setup_s is not None]
        k = [r.scale if scaled else 1.0 for r in results]
        return {
            "wall_s": median([r.wall_s * s for r, s in zip(results, k)]),
            "setup_s": median(inner) if inner else median(setup_scaled if scaled else setup_times),
            "us_per_iter": median([1e6 * r.work_s * s / r.iterations for r, s in zip(results, k)]),
            "us_per_eval": median([1e6 * r.work_s * s / r.evaluations for r, s in zip(results, k)]),
        }

    record = {
        "workload": workload.name,
        "passes": len(plain),
        "traced_passes": len(with_trace),
        "setups": len(setup_times),
        "calibration_s": median(calibration.times),
        "unscaled": times(plain, False),
        "solves": [item.record() for item in last.items if hasattr(item, "record")],
        "resumed": resumed,
        "failures": verdict.notes,
    }
    if traced:
        metrics = {}
        names = set().union(*pass_layers) | set().union(*setup_layers)
        for name in sorted(names):
            value = median([m.get(name, 0.0) for m in pass_layers])
            if name in SETUP_LAYER_KEYS and setup_layers:
                value += median([m.get(name, 0.0) for m in setup_layers])
            metrics[name] = value
        metrics["trace.overhead_frac"] = (
            median([r.wall_s * r.scale for r in with_trace])
            / median([r.wall_s * r.scale for r in plain]) - 1.0
        )
        return metrics, verdict, record

    metrics = times(plain, True)
    metrics["iterations"] = reference.iterations
    metrics["peak_rss_mb"] = peak_rss_mb
    return metrics, verdict, record


UNITS = {
    "wall_s": "s", "setup_s": "s", "iterations": "count", "us_per_iter": "us",
    "us_per_eval": "us", "peak_rss_mb": "MB", "failed_frac": "fraction",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb_computed"):
        return "MB"
    if name.endswith(("_share", "_frac")):
        return "fraction"
    if name.endswith("_per_exterior_row"):
        return "iterations"
    return "count"


def print_table(metrics, verdict):
    rows = dict(metrics)
    rows["failed_frac"] = verdict.failed / max(verdict.attempted, 1)
    width = max(len(k) for k in rows)
    for name, value in rows.items():
        print(f"{name:<{width}}  {value:>14.6g}  {unit_of(name)}")


def run_one(name, seed, seconds, traced):
    import workloads as wl

    workload = wl.build(name, seed, ROOT)
    metrics, verdict, record = measure(workload, seconds, traced)
    record["seed"] = seed
    record["machine"] = machine()
    print_table(metrics, verdict)
    print(json.dumps({"record": record}))
    return {
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def self_test() -> bool:
    """Tiny versions of the workloads, untraced and traced.

    Checks that both give the same iteration counts and solve records,
    that outputs pass every correctness check, and that every per-layer
    metric named in BENCHMARK.json is emitted.
    """
    import workloads as wl

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer_names = {m["name"] for m in spec["per_layer"]}
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    ok = True
    for name in WORKLOADS:
        plain_m, plain_v, plain_r = measure(wl.build(name, 7, ROOT, tiny=True), 0.0, False)
        traced_m, traced_v, traced_r = measure(wl.build(name, 7, ROOT, tiny=True), 0.0, True)
        problems = []
        if plain_v.failed or traced_v.failed:
            problems.append(f"failures: {plain_v.notes + traced_v.notes}")
        if plain_r["solves"] != traced_r["solves"] or plain_r["resumed"] != traced_r["resumed"]:
            problems.append("traced and untraced solves differ")
        if name != "checks-exterior" and traced_m.get("solvers.iterations") != plain_m["iterations"]:
            problems.append(f"traced iterations {traced_m.get('solvers.iterations')} != "
                            f"untraced {plain_m['iterations']}")
        missing = (layer_names - set(traced_m)) | (e2e_names - set(plain_m))
        if missing:
            problems.append(f"metrics not emitted: {sorted(missing)}")
        wrong_units = [k for k, u in units.items()
                       if k in traced_m or k in plain_m if unit_of(k) != u]
        if wrong_units:
            problems.append(f"units differ from BENCHMARK.json: {wrong_units}")
        print(f"self-test {name}: {'ok' if not problems else 'FAIL ' + '; '.join(problems)}")
        ok &= not problems
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if import_library() is None:
        print(f"error: no crmfp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        return 0 if self_test() else 1
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
