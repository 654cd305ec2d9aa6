"""Validation benchmark for joi_ray (see valbench/README.md).

One run:
    python3 valbench/run.py --workload flagship_clean --seed 1 --seconds 30 --trace 0

prints the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) as the last line of stdout, one JSON object:
    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
preceded by a readable summary and one ``{"detail": ...}`` line with the host
context, the tail percentile, fail_ratio and the trace overhead.

Steadiness check: repeat workloads in fresh processes on consecutive seeds and
print each metric's median, quartiles and spread:
    python3 valbench/run.py --workload all --repeat 5 --seed 1 --seconds 30
"""

from __future__ import annotations

import time

CLOCK = time.perf_counter
T_START = CLOCK()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".valbench")

WORKLOADS = ("flagship_clean", "flagship_dirty", "schema_zoo")
TAIL_LADDER = (99, 95, 90, 80, 75, 50)
TAIL_MIN_BEYOND = 10
SETUP_CHILDREN = 2  # extra cold set-ups, each in a fresh process; setup_s is the median
TRACE_SEGMENTS = 6  # plain and traced segments alternate, so host drift hits both alike


def _process_age() -> float:
    """Seconds since the kernel started this process, so set-up time counts
    interpreter start-up too."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as f:
            uptime = float(f.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(uptime - start_ticks / os.sysconf("SC_CLK_TCK"), 0.0)


PROCESS_START = T_START - _process_age()


# -- host context -------------------------------------------------------------

def host_probe() -> dict:
    """A fixed ~0.3 s probe of the host's current speed: interpreter loop,
    small matmuls and a 64 MB copy.  Runs in a child process (``--probe``)
    before and after every workload, so its buffers never count in the
    benchmark process's peak RSS."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((256, 256))
    buf = np.ones(8_000_000)
    out = {}
    t = CLOCK()
    sum(i * i for i in range(1_000_000))
    out["pyloop_s"] = CLOCK() - t
    t = CLOCK()
    for _ in range(40):
        a @ a
    out["matmul_s"] = CLOCK() - t
    t = CLOCK()
    for _ in range(4):
        buf.copy()
    out["memcopy_s"] = CLOCK() - t
    return out


def _child(*args: str) -> dict:
    """Run this script with ``args`` in a fresh process; its last stdout line is JSON."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), *args],
                          capture_output=True, text=True, timeout=170, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{' '.join(args)}: exit {proc.returncode}: {proc.stderr[-300:]}")
    return json.loads(lines[-1])


def _git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None  # not a git checkout of this tree
    return lines[1]


def host_context() -> dict:
    import platform
    from importlib import metadata

    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True, timeout=10).stdout)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        nproc = None
    ctx = {"nproc": nproc, "commit": _git_commit(), "python": platform.python_version()}
    for pkg in ("pyarrow", "ray", "numpy"):
        try:
            ctx[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            ctx[pkg] = None
    return ctx


def reset_peak_rss() -> bool:
    """Reset this process's peak RSS (VmHWM), so the peak read later covers
    only what follows.  False where the kernel does not offer it."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- timed calls ----------------------------------------------------------------

class Calls:
    """Wall times, work units and failures of one set of timed calls."""

    def __init__(self):
        self.times: list[float] = []
        self.units = 0
        self.failures: list[str] = []

    def record(self, dt: float, units: int, error: str | None):
        self.times.append(dt)
        self.units += units
        if error:
            self.failures.append(error)

    def per_s(self) -> float:
        return self.units / sum(self.times) if self.times else 0.0


def run_calls(wl, seconds: float, start: int, calls: Calls) -> int:
    """Cycle through ``wl.items`` for ``seconds``; time each call alone and
    check its output outside the timed region.  Returns the next item index."""
    items = wl.items
    deadline = CLOCK() + seconds
    i = start
    while items and CLOCK() < deadline:
        item = items[i % len(items)]
        i += 1
        t0 = CLOCK()
        try:
            out = wl.call(item)
        except Exception as e:  # noqa: BLE001 - a raising call is a counted failure
            calls.record(CLOCK() - t0, wl.size(item), f"raised {e!r}"[:300])
            continue
        dt = CLOCK() - t0
        try:
            error = wl.check(item, out)
        except Exception as e:  # noqa: BLE001 - a check that cannot read the output fails it
            error = f"check raised {e!r}"[:300]
        calls.record(dt, wl.size(item), error)
    return i


def tail(times: list[float]) -> tuple[int, float, int] | None:
    """The highest ladder percentile with at least TAIL_MIN_BEYOND samples
    above it: (percentile, value in seconds, samples above)."""
    import numpy as np

    n = len(times)
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 >= TAIL_MIN_BEYOND:
            value = float(np.percentile(times, p))
            return p, value, int(sum(t > value for t in times))
    return None


def make_workload(name: str):
    import workloads

    if name == "flagship_clean":
        return workloads.Flagship(dirty=False)
    if name == "flagship_dirty":
        return workloads.Flagship(dirty=True)
    if name == "schema_zoo":
        return workloads.SchemaZoo()
    raise SystemExit(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def cold_setup(args) -> int:
    """``--setup-only``: set up and stop.  Prints the seconds from process
    start to ready, the cold set-up time a fresh run pays."""
    sys.path.insert(1, ROOT)
    wl = make_workload(args.workload)
    wl.imports()
    wl.setup(args.seed)
    print(json.dumps({"setup_s": CLOCK() - PROCESS_START}))
    return 0


def run_once(args) -> int:
    import tracing

    sys.path.insert(1, ROOT)  # joi_ray and tools/ come from the checkout
    wl = make_workload(args.workload)
    tracer = tracing.Tracer() if args.trace else None
    wl.imports()
    import_s = CLOCK() - PROCESS_START
    if tracer:
        tracer.install()
    wl.setup(args.seed)
    if tracer:
        tracer.uninstall()
    # process start -> ready for the first timed call, paid once (cold)
    setup_main_s = CLOCK() - PROCESS_START
    probe_before = _child("--probe")
    rss_scope = "timed calls" if reset_peak_rss() else "process"

    plain, traced = Calls(), Calls()
    if not tracer:
        run_calls(wl, args.seconds, 0, plain)
    else:
        i = 0
        for seg in range(TRACE_SEGMENTS):
            if seg % 2:
                tracer.phase = "timed"
                tracer.install()
                i = run_calls(wl, args.seconds / TRACE_SEGMENTS, i, traced)
                tracer.uninstall()
            else:
                i = run_calls(wl, args.seconds / TRACE_SEGMENTS, i, plain)
    peak_mb = peak_rss_mb()
    probe_after = _child("--probe")

    setup_errors = list(getattr(wl, "setup_errors", []))
    setup_runs = [setup_main_s]
    if not tracer:
        for _ in range(SETUP_CHILDREN):
            try:
                setup_runs.append(_child("--workload", args.workload, "--seed", str(args.seed),
                                         "--setup-only")["setup_s"])
            except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
                setup_errors.append(f"cold set-up: {e!r}"[:300])
    failures = setup_errors + plain.failures + traced.failures
    attempted = len(plain.times) + len(traced.times) + len(setup_errors)
    tl = tail(plain.times)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "unit": wl.unit, "calls": attempted,
        "fail_ratio": len(failures) / max(attempted, 1), "failures": failures[:5],
        "tail_percentile": tl and tl[0], "tail_samples_beyond": tl and tl[2],
        "import_s": import_s, "setup_runs_s": setup_runs, "peak_rss_scope": rss_scope,
        "probe_before": probe_before, "probe_after": probe_after,
        "host": host_context(),
        **getattr(wl, "info", lambda: {})(),
    }
    if not tracer:
        metrics = {
            "docs_per_s": (plain.per_s(), "docs/s"),
            "call_p50_ms": (statistics.median(plain.times) * 1e3 if plain.times else 0.0, "ms"),
            "setup_s": (statistics.median(setup_runs), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        if tl:
            metrics["call_tail_ms"] = (tl[1] * 1e3, "ms")
    else:
        layers = tracer.layer_metrics(len(traced.times))
        metrics = {m: (layers[m], unit) for m, (_, _, unit) in tracing.LAYER_METRICS.items()}
        stage_ms = tracer.stage_total_ms(len(traced.times))
        detail["tracing"] = {
            "plain_docs_per_s": plain.per_s(), "traced_docs_per_s": traced.per_s(),
            "overhead": plain.per_s() / traced.per_s() - 1 if traced.per_s() else None,
            "absent": tracer.absent,
            "not_reached": sorted(set(metrics) - tracer.reached()),
            "stage_total_ms": stage_ms,
            "stage_layers_over_total": (sum(layers[m] for m in tracing.STAGE_LAYERS) / stage_ms
                                        if stage_ms else None),
            "spans_file": _write_spans(tracer, args),
        }
    _print_summary(metrics, detail)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _write_spans(tracer, args) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(path)
    return os.path.relpath(path, ROOT)


def _print_summary(metrics: dict, detail: dict):
    print(f"# {detail['workload']} seed={detail['seed']} calls={detail['calls']} "
          f"nproc={detail['host']['nproc']} probe_before={detail['probe_before']} "
          f"probe_after={detail['probe_after']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.4f} {unit}")
    print(f"  {'fail_ratio':40s} {detail['fail_ratio']:14.4f} ratio")
    if "tracing" in detail:
        print(f"  tracing overhead {detail['tracing']['overhead']}")


# -- steadiness mode ----------------------------------------------------------

def steadiness(args) -> int:
    """Run each workload ``args.repeat`` times in fresh processes on seeds
    seed, seed+1, ...; print per metric the median, quartiles and spreads,
    against the bounds in BENCHMARK.json when it is there."""
    names = WORKLOADS if args.workload == "all" else tuple(args.workload.split(","))
    bounds = {}
    bench = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(bench):
        with open(bench) as f:
            bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    status = 0
    for name in names:
        values: dict[str, list[float]] = {}
        failed = attempted = 0
        for k in range(args.repeat):
            seed = args.seed + k
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
            except subprocess.TimeoutExpired:
                print(f"{name} seed={seed}: timed out")
                status = 1
                continue
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{name} seed={seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                status = 1
                continue
            res = json.loads(lines[-1])
            fail_ratio = json.loads(lines[-2])["detail"]["fail_ratio"]
            attempted += res["attempted"]
            failed += res["failed"]
            for m, v in res["metrics"].items():
                values.setdefault(m, []).append(v["value"])
            values.setdefault("fail_ratio", []).append(fail_ratio)
            print(f"{name} seed={seed}: " + " ".join(f"{m}={v['value']:.4g}" for m, v in res["metrics"].items()),
                  flush=True)
        print(f"\n{name}: {len(values.get('fail_ratio', []))} runs, {attempted} calls, {failed} failed")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} "
              f"{'min':>12s} {'max':>12s} {'rng/med':>8s} {'bound':>6s}")
        for m, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            iqr = (q3 - q1) / med if med else 0.0
            rng = (max(vs) - min(vs)) / med if med else 0.0
            b = bounds.get(m)
            flag = "" if b is None or m == "setup_s" else ("  ok" if iqr < b / 3 else "  WIDE")
            print(f"  {m:34s} {med:12.4f} {q1:12.4f} {q3:12.4f} {iqr:8.3f} {min(vs):12.4f} "
                  f"{max(vs):12.4f} {rng:8.3f} {b if b is not None else '':>6}{flag}")
        print(flush=True)
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload",
                    help=f"one of {', '.join(WORKLOADS)}; with --repeat also 'all' or a comma list")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="steadiness mode: run each workload this many times in fresh processes")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe:
        print(json.dumps(host_probe()))
        return 0
    if not args.workload:
        ap.error("--workload is required")
    if args.repeat:
        return steadiness(args)
    if args.setup_only:
        return cold_setup(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
