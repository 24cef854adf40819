"""The kirchlab benchmark.

    python3 perfbench/run.py --workload suites|queries|cli --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from ./src.
Each workload is a closed loop with one caller and runs whole rounds until
S seconds have passed (at least one round).  Outputs are checked against
``reference`` after the timed part.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics when --trace 0, and the per-layer metrics of
a run with ``tracer`` installed when --trace 1.  A copy of the result with
the per-operation details goes to perfbench/results/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import inputs  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")
CHILD_TIMEOUT = 170  # seconds; the slowest suite takes about 40

CLI_SUBCOMMANDS = ("closure", "filter", "classify", "upset", "realize",
                   "gamma", "verify", "primes", "cmp")

# name -> unit of the metrics a --trace 1 run reports
PER_LAYER = {
    "numtheory.primes_upto.calls": "count",
    "numtheory.primes_upto.self_s": "s",
    "numtheory.sieve.limit": "int",
    "numtheory.sieve.regrowths": "count",
    "numtheory.prime_factors.calls": "count",
    "numtheory.prime_factors.self_s": "s",
    "numtheory.is_prime.calls": "count",
    "numtheory.is_prime.hit_rate": "ratio",
    "numtheory.factor_tuple.calls": "count",
    "numtheory.factor_tuple.hit_rate": "ratio",
    "numtheory.first_prime_in_progression.self_s": "s",
    "progressions.closure.calls": "count",
    "progressions.closure.self_s": "s",
    "progressions.members.self_s": "s",
    "progressions.members.values_scanned": "count",
    "filters.compute_A.calls": "count",
    "filters.compute_A.self_s": "s",
    "filters.compute_A.primes_scanned": "count",
    "filters.descriptor.self_s": "s",
    "filters.descriptor_cache.calls": "count",
    "filters.descriptor_cache.hit_rate": "ratio",
    "filters.filter_le.calls": "count",
    "filters.filter_le.self_s": "s",
    "filters.pair_A.self_s": "s",
    "filters.classify.self_s": "s",
    "filters.realize.self_s": "s",
    "filters.power_chain_equal_set.self_s": "s",
    "gamma.edges_by_definition.self_s": "s",
    "gamma.edges_closed_form.self_s": "s",
    **{f"verify.suite.{name}_s": "s" for name in inputs.SUITES},
    "verify.filter_le_oracle.calls": "count",
    "verify.filter_le_oracle.self_s": "s",
    "verify.children_peak_rss_mb": "MB",
    "cli.import.numpy_s": "s",
    "cli.import.kirchlab_s": "s",
    **{f"cli.call.{name}_s": "s" for name in CLI_SUBCOMMANDS},
    "trace.wall_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("KIRCHLAB_THREADS", None)  # the suites run at the program's defaults
    return env


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it has waited for."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def cold_import_s() -> float:
    """Seconds from starting a fresh interpreter to its exit after `import kirchlab`."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import kirchlab"], env=child_env(),
                   check=True, capture_output=True, timeout=CHILD_TIMEOUT)
    return time.perf_counter() - t0


def import_times() -> dict:
    """Cumulative import seconds of numpy and kirchlab, from -X importtime."""
    p = subprocess.run([sys.executable, "-X", "importtime", "-c", "import kirchlab"],
                       env=child_env(), check=True, capture_output=True, text=True,
                       timeout=CHILD_TIMEOUT)
    out = {}
    for line in p.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in ("numpy", "kirchlab"):
            out[parts[2].strip()] = int(parts[1]) / 1e6
    return out


class Op:
    """One timed operation: its input, output, latency and failure, if any."""

    def __init__(self, kind, args):
        self.kind, self.args = kind, args
        self.out = None
        self.error = None
        self.seconds = 0.0
        self.trace = None


def run_cli(argv, trace_dir):
    """One cold kirchlab process; traced through tracer.py when trace_dir is set."""
    op = Op(argv[0], argv)
    if trace_dir:
        out_path = os.path.join(trace_dir, f"{time.perf_counter_ns()}.json")
        cmd = [sys.executable, os.path.join(BENCH, "tracer.py"), out_path, *argv]
    else:
        cmd = [sys.executable, "-m", "kirchlab", *argv]
    t0 = time.perf_counter()
    try:
        p = subprocess.run(cmd, env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        op.seconds = time.perf_counter() - t0
        op.error = f"timed out after {CHILD_TIMEOUT} s"
        return op
    op.seconds = time.perf_counter() - t0
    op.out = p.stdout
    if p.returncode != 0:
        op.error = f"exit {p.returncode}: {p.stderr.decode(errors='replace')[-300:]}"
    if trace_dir and os.path.exists(out_path):
        with open(out_path) as fh:
            op.trace = json.load(fh)
    return op


# ----------------------------------------------------------------- workloads


def suites_round(seed, trace_dir):
    ops = [run_cli(["verify", name], trace_dir) for name in inputs.suite_order(seed)]
    problems = []
    for op in ops:
        if op.error is None:
            problems += checks.check_suite_report(op.args[1], json.loads(op.out))
    return ops, problems


def cli_round(seed, trace_dir):
    calls, reruns = inputs.cli_calls(seed)
    ops = [run_cli(argv, trace_dir) for argv in calls]
    problems = []
    order = []
    for op in ops:
        if op.error is None:
            problems += check_cli_output(op.args, op.out.decode(), order)
    problems += checks.check_order(order)
    for i in reruns:
        again = run_cli(calls[i], None)
        again.kind = "rerun"
        ops.append(again)
        if again.error is None and again.out != ops[i].out:
            problems.append(f"rerun of {calls[i]}: stdout differs")
    return ops, problems


def _ints(words):
    return [int(w) for w in words]


def check_cli_output(argv, text, order) -> list:
    cmd = argv[0]
    if cmd == "closure":
        a, b = int(argv[1]), int(argv[2])
        if "--window" in argv:
            lo, hi = _ints(argv[4:6])
            return checks.check_window(a, b, lo, hi, _ints(text.split()))
        return checks.check_closure(a, b, json.loads(text))
    if cmd == "filter":
        return checks.check_descriptor(_ints(argv[1:]), json.loads(text))
    if cmd == "classify":
        return checks.check_classify(_ints(argv[1:]), json.loads(text))
    if cmd == "upset":
        return checks.check_upset(_ints(argv[1:]), json.loads(text))
    if cmd == "realize":
        primes = _ints(argv[2].split(","))
        alpha = dict(zip(primes, _ints(argv[4].split(","))))
        got = json.loads(text)
        return checks.check_descriptor(got["E"], got) + checks.check_realize(primes, alpha, got["E"])
    if cmd == "gamma":
        p, bound = int(argv[1]), int(argv[3])
        if argv[5] == "dot":
            vertices, edges = checks.parse_dot(text)
        else:
            got = json.loads(text)
            vertices, edges = got["vertices"], got["edges"]
        return checks.check_gamma(p, bound, vertices, edges)
    if cmd == "verify":
        return checks.check_suite_report(argv[1], json.loads(text))
    if cmd == "primes":
        return checks.check_prime_shape(int(argv[2]), json.loads(text))
    if cmd == "cmp":
        cut = argv.index("--")
        E, F = _ints(argv[1:cut]), _ints(argv[cut + 1:])
        got = json.loads(text)
        e, f = tuple(sorted(set(E))), tuple(sorted(set(F)))
        order += [(e, f, got["E_le_F"]), (f, e, got["F_le_E"])]
        return checks.check_cmp(E, F, got)
    return [f"unknown subcommand {cmd}"]


def _query_calls(k):
    def closure_window(a, b, lo, hi):
        cs = k.closure(a, b)
        return cs, cs.members(lo, hi)

    return {
        "descriptor": k.descriptor,
        "classify": k.classify,
        "filter_le": k.filter_le,
        "closure": closure_window,
        "first_prime": k.first_prime_in_progression,
        "prime_factors": k.prime_factors,
        "gamma": k.gamma_graph,
        "realize": k.realize,
    }


def queries_round(seed, k):
    calls = _query_calls(k)
    ops = []
    for kind, args in inputs.queries(seed):
        op = Op(kind, args)
        fn = calls[kind]
        t0 = time.perf_counter()
        try:
            op.out = fn(*args)
        except Exception as err:  # a failed query is counted, not fatal
            op.error = repr(err)
        op.seconds = time.perf_counter() - t0
        ops.append(op)
    problems = []
    order = []
    for op in ops:
        if op.error is None:
            problems += check_query(op.kind, op.args, op.out, order)
    problems += checks.check_order(order)
    return ops, problems


def check_query(kind, args, out, order) -> list:
    if kind == "descriptor":
        return checks.check_descriptor(args[0], out.to_json_dict())
    if kind == "classify":
        return checks.check_classify(args[0], out.to_json_dict())
    if kind == "filter_le":
        E, F = (tuple(sorted(set(s))) for s in args)
        order.append((E, F, out))
        return []
    if kind == "closure":
        a, b, lo, hi = args
        cs, members = out
        return checks.check_closure(a, b, cs.to_json_dict()) + checks.check_window(a, b, lo, hi, members)
    if kind == "first_prime":
        return checks.check_first_prime(*args, out)
    if kind == "prime_factors":
        return checks.check_prime_factors(args[0], list(out))
    if kind == "gamma":
        return checks.check_gamma(*args, out.vertices, out.edges)
    if kind == "realize":
        return checks.check_realize(*args, out)
    return [f"unknown query {kind}"]


# ------------------------------------------------------------------ metrics


def hd_quantile(values, q):
    """Harrell-Davis estimate of the q-quantile.

    A Beta(q(n+1), (1-q)(n+1))-weighted mean of all order statistics.  The
    latencies of a mixed workload leave gaps between neighbouring order
    statistics; interpolating between two of them jumps when the seed moves
    one across a gap, while this estimate moves smoothly.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    steps = 64  # midpoint rule per order statistic; the weights are normalised
    weights = []
    for i in range(n):
        w = 0.0
        for k in range(steps):
            t = (i + (k + 0.5) / steps) / n
            w += math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        weights.append(w)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(setup_s, wall_s, ops) -> dict:
    ms = [op.seconds * 1000 for op in ops if op.kind != "rerun"]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "op_p50_ms": (hd_quantile(ms, 0.5), "ms"),
        "op_p90_ms": (hd_quantile(ms, 0.9), "ms"),
    }


def merge_traces(snaps) -> dict:
    """Sum span totals, counters and cache counts over processes."""
    total = {"spans": {}, "counters": {}, "caches": {}, "sieve_limit": 0}
    for snap in snaps:
        for name, (calls, dur, own) in snap["spans"].items():
            s = total["spans"].setdefault(name, [0, 0.0, 0.0])
            s[0] += calls
            s[1] += dur
            s[2] += own
        for name, v in snap["counters"].items():
            total["counters"][name] = total["counters"].get(name, 0) + v
        for name, (hits, misses) in snap["caches"].items():
            h, m = total["caches"].get(name, (0, 0))
            total["caches"][name] = (h + hits, m + misses)
        total["sieve_limit"] = max(total["sieve_limit"], snap["sieve_limit"])
    return total


def per_layer(trace, ops, wall_s, imports) -> dict:
    spans, counters = trace["spans"], trace["counters"]
    values = {}
    for name, unit in PER_LAYER.items():
        base, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = spans.get(base, [0])[0]
        elif field == "self_s":
            values[name] = spans.get(base, [0, 0.0, 0.0])[2]
        elif name.startswith("verify.suite."):
            values[name] = spans.get(name[:-2], [0, 0.0])[1]
    for name, (hits, misses) in trace["caches"].items():
        values[name + ".calls"] = hits + misses
        values[name + ".hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    values["numtheory.sieve.limit"] = trace["sieve_limit"]
    for name in ("numtheory.sieve.regrowths", "progressions.members.values_scanned",
                 "filters.compute_A.primes_scanned"):
        values[name] = counters.get(name, 0)
    children = [op.trace for op in ops if op.trace]
    values["verify.children_peak_rss_mb"] = max(
        [t["peak_rss_mb"] for t in children if t["call"][0] == "verify"], default=0.0)
    values["cli.import.numpy_s"] = imports.get("numpy", 0.0)
    values["cli.import.kirchlab_s"] = imports.get("kirchlab", 0.0)
    for sub in CLI_SUBCOMMANDS:
        times = [t["call"][1] for t in children if t["call"][0] == sub]
        values[f"cli.call.{sub}_s"] = statistics.median(times) if times else 0.0
    values["trace.wall_s"] = wall_s
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}


# --------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("suites", "queries", "cli"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kirchlab", "__init__.py")):
        print(f"error: no kirchlab sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    setup_s = cold_import_s()
    trace_dir = tempfile.mkdtemp(prefix="trace-", dir=BENCH) if args.trace else None
    tracer = k = None
    if args.workload == "queries":
        sys.path.insert(0, SRC)
        import kirchlab as k
        if args.trace:
            import tracer as tracing
            tracer = tracing.Tracer()
            modules = tracing.install(tracer)

    ops, problems, wall = [], [], 0.0
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < args.seconds:
        seed = args.seed * 1000 + rounds
        if args.workload == "suites":
            round_ops, round_problems = suites_round(seed, trace_dir)
        elif args.workload == "cli":
            round_ops, round_problems = cli_round(seed, trace_dir)
        else:
            round_ops, round_problems = queries_round(seed, k)
        # checks run after the timed operations; only the operations count
        wall += sum(op.seconds for op in round_ops if op.kind != "rerun")
        ops += round_ops
        problems += round_problems
        rounds += 1
    wall_s = wall / rounds

    failed = [op for op in ops if op.error is not None]
    if args.trace:
        snaps = [op.trace for op in ops if op.trace]
        if tracer:
            snaps.append(tracer.snapshot(modules))
        metrics = per_layer(merge_traces(snaps), ops, wall_s, import_times())
        for name in os.listdir(trace_dir):
            os.remove(os.path.join(trace_dir, name))
        os.rmdir(trace_dir)
    else:
        metrics = end_to_end(setup_s, wall_s, ops)
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    os.makedirs(RESULTS, exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed, rounds=rounds,
                  problems=problems[:200],
                  failures=[[op.kind, str(op.args), op.error] for op in failed],
                  ops=[[op.kind, str(op.args)[:200], op.seconds] for op in ops])
    out_name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, out_name), "w") as fh:
        json.dump(detail, fh, indent=1)
    for line in problems[:20] + [f"failed: {f}" for f in detail["failures"][:20]]:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
