"""parvikit benchmark: one workload, one process, end-to-end or per-layer figures.

    python3 bench/run.py --workload gmm2-run --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; parvikit is imported from its `src/`.
BLAS and OpenMP are pinned to one thread. After set-up (imports, inputs,
warm-up) the workload runs whole rounds of identical operations until
about `--seconds` have passed, then checks its outputs. The last line of stdout is
one JSON object: `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are `run_s` (the wall time of one round, each
operation taken at its fastest over the rounds), `setup_s` and `peak_rss_mb`; with `--trace 1` they are the per-layer figures
of tracing.PER_LAYER, per round, from spans the benchmark wraps around
parvikit's functions. A human-readable summary goes to stderr.
"""

import time

SCRIPT_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("gmm2-run", "gp-run", "gmm2-soak-m16", "sg10-soak-m512")


def process_age():
    """Seconds since this process started (10 ms resolution), or 0 where /proc is missing."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime", encoding="ascii") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(uptime - start_ticks / os.sysconf("SC_CLK_TCK"), 0.0)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seed >= 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    startup = process_age() - (time.perf_counter() - SCRIPT_START)
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "parvikit", "__init__.py")):
        print("error: no parvikit sources under %s; run from a source checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import parvikit  # noqa: F401
    import tracing
    import workloads

    if not os.path.abspath(parvikit.__file__).startswith(SRC + os.sep):
        print("error: imported parvikit from %s, not %s" % (parvikit.__file__, SRC), file=sys.stderr)
        return 2

    os.makedirs(OUT_ROOT, exist_ok=True)
    out_dir = os.path.join(OUT_ROOT, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(out_dir)
    try:
        return run(args, out_dir, workloads, tracing, startup)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(OUT_ROOT)
        except OSError:
            pass  # another run still uses it


def run(args, out_dir, workloads, tracing, startup):
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload = workloads.WORKLOADS[args.workload](out_dir)
    workload.setup(args.seed)
    setup_s = startup + (time.perf_counter() - SCRIPT_START)

    failed = 0
    round_s = []
    op_s = []  # per round, the seconds of each operation
    per_round = []
    if tracer is not None:
        tracer.clear_samples()
    window_start = time.perf_counter()
    # rounds are whole; one more starts only if it would end within half a round
    # of the window, so that the measured time stays near --seconds
    while not round_s or (time.perf_counter() - window_start
                          + 0.5 * statistics.median(round_s) < args.seconds):
        before = tracer.snapshot() if tracer is not None else None
        t0 = time.perf_counter()
        seconds, bad = workload.run_round()
        round_s.append(time.perf_counter() - t0)
        if tracer is not None:
            per_round.append(tracing.round_figures(before, tracer.snapshot()))
        op_s.append(seconds)
        failed += bad
        workload.after_round()
    attempted = sum(len(seconds) for seconds in op_s)

    failures = workload.check()
    # interference on a shared host only ever adds time, so each operation
    # counts at its fastest over the rounds (see README.md)
    run_s = sum(min(times) for times in zip(*op_s))
    if tracer is None:
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    else:
        figures = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
        figures.update(tracing.percentile_figures(tracer))
        if not failed:  # a failed operation leaves its counts partial
            for r in per_round:
                failures += workload.cross_check(r)
        metrics = {name: {"value": figures[name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}

    print("%s seed=%d trace=%d: run_s %.4f, setup %.3f s, %d rounds [%s]"
          % (args.workload, args.seed, args.trace, run_s, setup_s, len(round_s),
             " ".join("%.3f" % s for s in round_s)), file=sys.stderr)
    for failure in failures:
        print("CHECK FAILED: %s" % failure, file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
