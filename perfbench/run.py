"""Benchmark of the bibeta package, end to end and layer by layer.

Run from the repository root; the package is used from ``src/``, not an
installed copy:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py``): ``grid``, ``points``, ``sample-fit``,
``cli``.  Load is one single-threaded process, a closed loop with one
caller; BLAS and OpenMP pools are pinned to one thread.

With ``--trace 0`` the run repeats the workload's pass of operations for
``--seconds`` and reports, from the last line of standard output:

* ``setup_s``: median wall time of five fresh interpreters that import
  bibeta and make the first call into each layer the workload uses;
* ``pass_s``: wall time of one pass, as the sum over its operations of
  each operation's median over the passes;
* ``op_p50_ms``: the median of those per-operation medians;
* ``peak_rss_mb``: peak resident memory of this process, or of the largest
  ``bibeta.cli`` child for ``cli``.

Failures are reported as ``failed`` of ``attempted``, both counted over the
first pass.  Lines before the last one give the environment, the input
properties, the failure reasons and the workload's own metrics by name
(for example ``pdf_p99_us``).

With ``--trace 1`` the run alternates untraced and traced passes for
``--seconds``, wrapping each layer's entry points (``tracing.py``), and
reports the per-layer metrics of the first traced pass and the tracing
overhead (median traced over median untraced pass time, minus one).  Span
counts repeat exactly for a seed.  ``cli`` runs ``bibeta.cli.main``
in-process here.  The spans are written to ``.bench_out/`` at the end.
"""

import os

# before numpy loads, here and in every child process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gzip
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

SETUP_PROBES = 5
MIN_PASSES = 3
HERE = Path(__file__).resolve().parent


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid", "points", "sample-fit", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _git_sha(root: Path) -> str:
    # read the checkout's own .git, if it has one; never look above it
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(root: Path) -> dict:
    from importlib.metadata import version
    return {"git_sha": _git_sha(root), "python": platform.python_version(),
            **{pkg: version(pkg) for pkg in ("numpy", "scipy", "mpmath")},
            "nproc": os.cpu_count(), "machine": platform.machine()}


def _setup(workload: str, out_dir: Path) -> list:
    """Fresh-interpreter probes: [(wall seconds, probe's own report)]."""
    scratch = out_dir / "probe.out"
    runs = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        done = subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(scratch)],
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              timeout=120, check=True)
        runs.append((perf_counter() - t0, json.loads(done.stdout.splitlines()[-1])))
    scratch.unlink(missing_ok=True)
    return runs


def _call(fn):
    """Run one op; an exception is its outcome, which the check counts."""
    try:
        return fn()
    except Exception as exc:  # counted as a failure, never hidden
        return exc


def _outcome(wl, kind, out):
    return out if isinstance(out, BaseException) else wl.summarize(kind, out)


def _run_pass(wl, ops):
    return [_outcome(wl, kind, _call(fn)) for kind, fn in ops]


def _timed(wl, seconds: float):
    """Cycle through the pass's ops until ``seconds`` have gone and every op
    ran MIN_PASSES times; the last pass may stop part-way.  Returns the ops,
    each op's times and the first pass's outcomes."""
    ops = wl.ops()
    op_times = [[] for _ in ops]
    first = []
    start = perf_counter()
    while True:
        for i, (kind, fn) in enumerate(ops):
            t = perf_counter()
            out = _call(fn)
            op_times[i].append(perf_counter() - t)
            if len(first) < len(ops):
                first.append(_outcome(wl, kind, out))
            if len(op_times[-1]) >= MIN_PASSES and perf_counter() - start >= seconds:
                return ops, op_times, first


def _traced(wl, out_dir: Path, seed: int, seconds: float):
    """Alternate untraced and traced passes for ``seconds`` (at least
    MIN_PASSES pairs).  The first traced pass gives the spans; the pairs
    give the overhead as the ratio of median pass times."""
    from tracing import Tracer, layer_metrics
    ops = wl.trace_ops()
    tracer = Tracer()
    plain, traced = [], []
    outcomes = None
    start = perf_counter()
    while len(traced) < MIN_PASSES or perf_counter() - start < seconds:
        t0 = perf_counter()
        _run_pass(wl, ops)
        plain.append(perf_counter() - t0)
        with (tracer if outcomes is None else Tracer()).installed():
            t0 = perf_counter()
            out = _run_pass(wl, ops)
            traced.append(perf_counter() - t0)
        if outcomes is None:
            outcomes = out
    plain_s, traced_s = statistics.median(plain), statistics.median(traced)
    metrics = layer_metrics(tracer.spans)
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    metrics["cli.import_s"] = 0.0
    metrics["cli.rows"] = 0
    if wl.name == "cli":
        probes = _setup(wl.name, out_dir)
        metrics["cli.import_s"] = statistics.median(p["import_s"] for _, p in probes)
        metrics["cli.rows"] = wl.rows()
    spans_path = out_dir / f"spans-{wl.name}-seed{seed}.json.gz"
    with gzip.open(spans_path, "wt") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"],
                   "spans": [s[:4] for s in tracer.spans]}, fh)
    return metrics, outcomes, {"untraced_pass_s": plain_s, "traced_pass_s": traced_s,
                               "pairs": len(traced), "spans": len(tracer.spans),
                               "spans_file": str(spans_path)}


def main(argv=None) -> int:
    args = _args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "bibeta" / "__init__.py").is_file():
        print(f"error: no bibeta package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    from tracing import LAYER_METRICS
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, str(out_dir))
    try:
        record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
                  "env": _environment(root), "inputs": wl.properties()}
        print("env:", json.dumps(record["env"]))
        print("inputs:", json.dumps(record["inputs"]))
        if args.trace:
            layer, outcomes, record["trace_run"] = _traced(wl, out_dir, args.seed,
                                                           args.seconds)
            metrics = {k: {"value": layer[k], "unit": unit}
                       for k, (unit, _) in LAYER_METRICS.items()}
            print("trace:", json.dumps(record["trace_run"]))
        else:
            setup = _setup(wl.name, out_dir)
            ops, op_times, outcomes = _timed(wl, args.seconds)
            if wl.name == "cli":
                rss_kb = wl.max_child_rss_kb
            else:
                rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            # each op's median over the passes: one stalled pass moves nothing
            op_medians = [statistics.median(times) for times in op_times]
            pass_s = math.fsum(op_medians)
            metrics = {
                "setup_s": {"value": statistics.median(s for s, _ in setup), "unit": "s"},
                "pass_s": {"value": pass_s, "unit": "s"},
                "op_p50_ms": {"value": statistics.median(op_medians) * 1e3, "unit": "ms"},
                "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
            }
            by_kind = defaultdict(list)
            for (kind, _), times in zip(ops, op_times):
                by_kind[kind] += times
            record["passes"] = len(op_times[0])
            record["workload_metrics"] = {k: {"value": v, "unit": u} for k, (v, u)
                                          in wl.table(by_kind, pass_s).items()}
        check = wl.check(outcomes)
    finally:
        wl.close()

    record["failures"] = dict(check.reasons)
    record["fail_frac"] = check.failed / check.attempted
    print("failures:", json.dumps({"fail_frac": record["fail_frac"], "failed": check.failed,
                                   "attempted": check.attempted, "reasons": record["failures"]}))
    for name, m in record.get("workload_metrics", {}).items():
        print(f"metric: {name} = {m['value']!r} {m['unit']}")
    result = {"correct": check.correct, "attempted": check.attempted,
              "failed": check.failed, "metrics": metrics}
    record["result"] = result
    with open(out_dir / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
