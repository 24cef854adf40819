"""Per-layer tracing of kirchlab from outside the program.

``install`` replaces public functions of each kirchlab module by timing
wrappers.  Modules bind helpers with ``from .x import y``, so a wrapper
replaces the name in every kirchlab module that holds the original (for
example ``kirchlab.filters.primes_upto`` as well as
``kirchlab.numtheory.primes_upto``).  A span's self time is its duration
minus the time of the wrapped calls made inside it.  Spans are summed per
name in memory and written out once, when the process ends.

Run as a script, it is the traced stand-in for ``python -m kirchlab``:

    python perfbench/tracer.py OUT.json ARGV...

runs ``kirchlab.cli.dispatch(ARGV)`` with the wrappers installed, writes
the totals to OUT.json and exits with the CLI's status.
"""
from __future__ import annotations

import json
import resource
import sys
import time

# (span name, module, attribute); the module is relative to kirchlab
TARGETS = (
    ("numtheory.primes_upto", "numtheory", "primes_upto"),
    ("numtheory.prime_factors", "numtheory", "prime_factors"),
    ("numtheory.first_prime_in_progression", "numtheory", "first_prime_in_progression"),
    ("progressions.closure", "progressions", "closure"),
    ("filters.compute_A", "filters", "compute_A"),
    ("filters.descriptor", "filters", "descriptor"),
    ("filters.filter_le", "filters", "filter_le"),
    ("filters.pair_A", "filters", "pair_A"),
    ("filters.classify", "filters", "classify"),
    ("filters.realize", "filters", "realize"),
    ("filters.power_chain_equal_set", "filters", "power_chain_equal_set"),
    ("gamma.edges_by_definition", "gamma", "edges_by_definition"),
    ("gamma.edges_closed_form", "gamma", "edges_closed_form"),
    ("verify.filter_le_oracle", "verify", "filter_le_oracle"),
    ("verify.suite", "verify", "run_suite"),
)

CACHES = (
    ("numtheory.is_prime", "numtheory", "is_prime"),
    ("numtheory.factor_tuple", "numtheory", "_factor_tuple"),
    ("filters.descriptor_cache", "filters", "_descriptor_cached"),
)


class Tracer:
    """Span totals: name -> [calls, total seconds, self seconds], plus counters."""

    def __init__(self):
        self.spans = {}
        self.counters = {}
        self._open = []  # wrapped time of the children of each open span

    def count(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, observe=None, name_of=None):
        """fn timed as span name (or name_of(*args)); observe(args, result) runs after."""
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            open_.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                inner = open_.pop()
                if open_:
                    open_[-1] += dur
                key = name_of(*args, **kwargs) if name_of else name
                s = spans.get(key)
                if s is None:
                    s = spans[key] = [0, 0.0, 0.0]
                s[0] += 1
                s[1] += dur
                s[2] += dur - inner
            if observe:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def snapshot(self, modules: dict) -> dict:
        caches = {}
        for name, mod, attr in CACHES:
            info = getattr(modules[mod], attr).cache_info()
            caches[name] = [info.hits, info.misses]
        usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        return {
            "spans": self.spans,
            "counters": self.counters,
            "caches": caches,
            "sieve_limit": int(modules["numtheory"]._limit),
            "peak_rss_mb": usage / 1024,
        }


def _rebind(orig, wrapped) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "kirchlab" or mod_name.startswith("kirchlab.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapped)


def install(tracer: Tracer) -> dict:
    """Wrap kirchlab's public functions; returns {module name: module}."""
    import importlib

    modules = {m: importlib.import_module("kirchlab." + m)
               for m in ("numtheory", "progressions", "filters", "gamma", "verify", "cli")}
    nt = modules["numtheory"]

    last_limit = [nt._limit]

    def after_primes_upto(args, result):
        if nt._limit != last_limit[0]:
            last_limit[0] = nt._limit
            tracer.count("numtheory.sieve.regrowths", 1)

    def after_compute_A(args, result):
        E = set(args[0])
        pi_max = int(nt._primes.searchsorted(max(E), side="right"))
        tracer.count("filters.compute_A.primes_scanned", len(E) * pi_max)

    observers = {"numtheory.primes_upto": after_primes_upto, "filters.compute_A": after_compute_A}
    for name, mod, attr in TARGETS:
        orig = getattr(modules[mod], attr)
        name_of = None
        if name == "verify.suite":
            name_of = lambda suite, *a, **k: f"verify.suite.{suite}"  # noqa: E731
        _rebind(orig, tracer.wrap(name, orig, observers.get(name), name_of))

    cs = modules["progressions"].CongruenceSet

    def after_members(args, result):
        tracer.count("progressions.members.values_scanned", int(args[2]) - int(args[1]) + 1)

    cs.members = tracer.wrap("progressions.members", cs.members, after_members)
    return modules


def main(argv) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    modules = install(tracer)
    t0 = time.perf_counter()
    try:
        rc = modules["cli"].dispatch(cli_argv)
    finally:
        call_s = time.perf_counter() - t0
        sys.stdout.flush()
        snap = tracer.snapshot(modules)
        snap["call"] = [cli_argv[0] if cli_argv else "", call_s]
        with open(out_path, "w") as fh:
            json.dump(snap, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
