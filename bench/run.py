"""Benchmark of k3lat's exclusion sweep, fibre search and ``catalog verify``.

Usage, from the root of a checkout::

    python3 bench/run.py --workload sweep-fibred --seed 1 --seconds 24 --trace 0

The program is imported from ``src/`` of the checkout, never from an
installed copy.  One run:

1. builds the seeded inputs once (benchmark code, untimed), then sets up
   21 times (fresh import of k3lat compiled from source, inputs parsed)
   and reports the median as ``setup_s``, scaled by its own calibration
   slice (see ``SetupClock``);
2. repeats passes over the workload's fixed list of top-level calls for
   ``--seconds`` seconds, checking every output;
3. prints one ``name = value unit`` line per metric, a ``detail`` line of
   JSON with raw figures and counts, and as its last line the result JSON.

With ``--trace 1`` the first half of the time runs untraced passes and the
second half traced ones (see ``tracing.py``); the result holds the per-layer
metrics, and the spans are written to ``bench/out/``.

Timing on a shared machine drifts with the speed of the machine by tens of
percent over seconds to minutes, and the drift hits every Python loop
alike.  So the run interleaves a fixed calibration slice (exact rational
Gauss-Jordan, code of this file) with the work about every half second:
between calls, and inside long calls on entry to the functions in
``CHECKPOINTS``.  Each stretch of a call between two slices is scaled by
``CALIB_REF_S`` over the mean of those two slices, and the slices are
taken out of the timings.  Reported times are therefore seconds at the
speed where one slice takes ``CALIB_REF_S``; the raw times are in the
``detail`` line.  A change to k3lat moves the scaled times as it moves the
raw ones, because the slice does not run k3lat code.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import types
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

import gen  # noqa: E402  (bench/ is on sys.path as the script's directory)
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 21
CALIB_EVERY_S = 0.5
CALIB_REPS = 16
CALIB_REF_S = 0.02
# Functions a long call passes through often, where a calibration slice
# may run inside the call: (module, name) as the calling layer looks it up.
CHECKPOINTS = (("bounds", "gram"), ("kodaira", "recognize_component"), ("catalog", "verify_entry"))
# Set-up compiles k3lat from source each time, so it is scaled by a slice
# of the same kind of work: compiling and executing these benchmark modules.
SETUP_CALIB_MODULES = ("gen", "workloads", "tracing")
SETUP_CALIB_REPS = 2
SETUP_CALIB_REF_S = 0.016
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10

_CALIB_MATRIX = (
    (4, 1, 0, 2, 1, 0),
    (1, -3, 1, 0, 2, 1),
    (0, 1, 5, 1, 0, 2),
    (2, 0, 1, -4, 1, 0),
    (1, 2, 0, 1, 6, 1),
    (0, 1, 2, 0, 1, -5),
)


def _gauss_jordan(rows) -> list:
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


class Clock:
    """Calibration slices, taken between calls."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = float("-inf")

    def calibrate(self) -> int:
        t0 = perf_counter()
        for _ in range(CALIB_REPS):
            _gauss_jordan(_CALIB_MATRIX)
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.last = t1
        return len(self.samples) - 1

    def maybe(self) -> int:
        if perf_counter() - self.last >= CALIB_EVERY_S:
            return self.calibrate()
        return len(self.samples) - 1

    def factor(self, before: int) -> float:
        """Scale for a call that ran between slice ``before`` and the next."""
        after = min(before + 1, len(self.samples) - 1)
        return CALIB_REF_S / ((self.samples[before] + self.samples[after]) / 2)


class SetupClock(Clock):
    """Calibration slices for set-up: compile and execute the benchmark's
    own modules, as a fresh import of k3lat compiles and executes its."""

    def __init__(self):
        super().__init__()
        self.sources = [(BENCH_DIR / f"{m}.py").read_text() for m in SETUP_CALIB_MODULES]

    def calibrate(self) -> int:
        t0 = perf_counter()
        for _ in range(SETUP_CALIB_REPS):
            for name, text in zip(SETUP_CALIB_MODULES, self.sources):
                module = types.ModuleType(f"_setup_calib_{name}")
                sys.modules[module.__name__] = module  # dataclass looks itself up here
                try:
                    exec(compile(text, name, "exec"), module.__dict__)
                finally:
                    del sys.modules[module.__name__]
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.last = t1
        return len(self.samples) - 1

    def factor(self, before: int) -> float:
        return super().factor(before) * SETUP_CALIB_REF_S / CALIB_REF_S


class Runner:
    """Runs passes of a plan; ``call`` is the hook a workload's pass uses."""

    def __init__(self, plan, clock: Clock):
        self.plan = plan
        self.clock = clock
        self.tracer: Tracer | None = None
        # raw s, [(segment raw s, slice before it)], primary, pass
        self.calls: list[tuple[float, list, bool, int]] = []
        self.passes: list[dict] = []
        self.first_digests: dict[int, list] = {}
        self.digests: list = []
        self.input_set = 0
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self._overhead = 0.0
        self._segments: list[tuple[float, int]] | None = None
        self._segment_start = 0.0
        self._segment_slice = 0
        self._hooked: list[tuple[object, str, object]] = []

    def _bench_time(self, seconds: float) -> None:
        self._overhead += seconds
        if self.tracer is not None:
            self.tracer.exclude_time(seconds)

    def call(self, fn, check, digest, primary: bool = True):
        t_in = perf_counter()
        self._segments = []
        self._segment_slice = self.clock.maybe()
        self._segment_start = t0 = perf_counter()
        self._bench_time(t0 - t_in)
        try:
            out = self.tracer.top_level(fn) if self.tracer else fn()
            error = None
        except Exception as exc:  # a failed call is counted, the run goes on
            out, error = None, f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        segments, self._segments = self._segments, None
        segments.append((t1 - self._segment_start, self._segment_slice))
        raw = sum(seg for seg, _ in segments)
        self.calls.append((raw, segments, primary, len(self.passes)))
        self.attempted += 1
        position = len(self.digests)
        first = self.first_digests.get(self.input_set)
        value = None
        if error is None:
            value = digest(out)
            if first is None:
                if self.tracer is not None:
                    self.tracer.paused = True
                try:
                    error = check(out)
                finally:
                    if self.tracer is not None:
                        self.tracer.paused = False
            elif position >= len(first) or value != first[position]:
                error = "output differs from the first pass over these inputs"
        self.digests.append(value)
        if error is not None:
            self.failed += 1
            self.failures.append(error)
        self._bench_time(perf_counter() - t1)
        return out

    def checkpoint(self) -> None:
        """A point inside a long call where a calibration slice may run;
        each segment of the call is scaled by the slices around it."""
        now = perf_counter()
        if self._segments is None or now - self.clock.last < CALIB_EVERY_S:
            return
        self._segments.append((now - self._segment_start, self._segment_slice))
        self._segment_slice = self.clock.calibrate()
        self._segment_start = perf_counter()
        self._bench_time(self._segment_start - now)

    def hook_checkpoints(self, k3lat) -> None:
        """Run ``checkpoint`` on entry to each of CHECKPOINTS."""
        for layer, name in CHECKPOINTS:
            module = getattr(k3lat, layer, None)
            fn = getattr(module, name, None)
            if fn is None:
                continue

            def hooked(*args, _fn=fn, **kwargs):
                self.checkpoint()
                return _fn(*args, **kwargs)

            self._hooked.append((module, name, fn))
            setattr(module, name, hooked)

    def unhook_checkpoints(self) -> None:
        for module, name, fn in reversed(self._hooked):
            setattr(module, name, fn)
        self._hooked.clear()

    def scaled(self, segments: list) -> float:
        return sum(seg * self.clock.factor(before) for seg, before in segments)

    def run_pass(self, index: int) -> dict:
        self._overhead = 0.0
        self.digests = []
        self.input_set = index % self.plan.sets
        first_call = len(self.calls)
        spans_before = len(self.tracer.span_start) + self.tracer.dropped if self.tracer else 0
        t0 = perf_counter()
        self.plan.run_pass(self, self.input_set)
        t1 = perf_counter()
        self.clock.calibrate()
        raw = t1 - t0 - self._overhead
        calls = self.calls[first_call:]
        call_raw = sum(c[0] for c in calls)
        call_norm = sum(self.scaled(c[1]) for c in calls)
        record = {
            "raw_s": raw,
            "wall_s": raw * (call_norm / call_raw if call_raw > 0 else 1.0),
            "elapsed_s": perf_counter() - t0,
            "traced": self.tracer is not None,
            "input_set": self.input_set,
        }
        if self.tracer is not None:
            record["aggs"] = self.tracer.take_pass()
            record["spans"] = len(self.tracer.span_start) + self.tracer.dropped - spans_before
            record["exclude_calls"] = self.tracer.exclude_calls
            self.tracer.exclude_calls = None
        self.first_digests.setdefault(self.input_set, self.digests)
        self.passes.append(record)
        return record

    def phase(self, budget: float) -> list[dict]:
        """Passes over input sets 0, 1, ... while at least half of the next
        pass fits in the budget."""
        start = perf_counter()
        done = []
        while True:
            done.append(self.run_pass(len(done)))
            elapsed = perf_counter() - start
            if elapsed + statistics.median(p["elapsed_s"] for p in done) / 2 > budget:
                return done


def fresh_import():
    """Import k3lat anew from ``src/`` of this checkout, compiling it from
    source: no bytecode is read or written, whether or not a cache exists,
    so set-up times the same work everywhere."""
    sys.dont_write_bytecode = True
    sys.pycache_prefix = str(BENCH_DIR / "out" / "no-bytecode")
    for name in [m for m in sys.modules if m == "k3lat" or m.startswith("k3lat.")]:
        del sys.modules[name]
    k3lat = importlib.import_module("k3lat")
    importlib.import_module("k3lat.catalog")
    where = Path(k3lat.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"k3lat imported from {where}, not from {SRC}")
    return k3lat


def subsets_per_s(plan, passes: list[dict]) -> float | None:
    """Connected subsets of size <= cap in the definition of the passes'
    sweeps, per second of their wall_s."""
    if not plan.sweeps:
        return None
    counts = [
        sum(
            len(gen.connected_subsets(gen.adjacency(sw.vertices, sw.edges)[1], sw.cap))
            for sw in sweeps
        )
        for sweeps in plan.sweeps
    ]
    return sum(counts[p["input_set"]] for p in passes) / sum(p["wall_s"] for p in passes)


def percentile_tail(samples: list[float]) -> tuple[float, float, int] | None:
    """Highest ladder percentile with at least ten samples beyond it."""
    n = len(samples)
    ordered = sorted(samples)
    for p in TAIL_LADDER:
        rank = int(p / 100 * n)
        if n - rank - 1 >= TAIL_MIN_BEYOND:
            return p, ordered[rank], n - rank - 1
    return None


def sweep_counts(records) -> dict:
    """Counts over the exclude calls of one pass, computed by the
    benchmark from each call's input and verdict with its own arithmetic:
    subsets in the sweep's definition (connected, size <= cap), subsets
    visited up to the verdict in canonical order, the hyperbolic ones among
    them, and how many repeat a Gram matrix already visited in that call."""
    defined = visited = hyperbolic = repeats = 0
    inertia_cache: dict[tuple, tuple] = {}
    for args, kwargs, verdict in records:
        status = verdict.status.value
        if status not in ("HyperbolicExcluded", "HyperbolicUndecided"):
            continue
        cfg = args[0]
        cap = kwargs.get("subgraph_cap", args[3] if len(args) > 3 else 13)
        vertices = [(v.id, v.square) for v in cfg.vertices]
        edges = cfg.edge_items()
        ids, adj = gen.adjacency(vertices, edges)
        index = {v: i for i, v in enumerate(ids)}
        g = [[0] * len(ids) for _ in ids]
        for i, (_, square) in enumerate(vertices):
            g[i][i] = square
        for a, b, m in edges:
            g[index[a]][index[b]] = g[index[b]][index[a]] = m
        subsets = gen.connected_subsets(adj, min(cap, len(ids)))
        defined += len(subsets)
        stop = len(subsets)
        cert = verdict.certificates[0] if verdict.certificates else None
        if status == "HyperbolicExcluded":
            if cert.kind == "IntrinsicSquare":
                continue
            stop = subsets.index(tuple(sorted(index[v] for v in cert.support_ids))) + 1
        visited += stop
        seen = set()
        for s in subsets[:stop]:
            key = tuple(g[i][j] for i in s for j in s)
            if key in seen:
                repeats += 1
            seen.add(key)
            inertia = inertia_cache.get(key)
            if inertia is None:
                inertia = inertia_cache[key] = gen.inertia([[g[i][j] for j in s] for i in s])
            if inertia[0] == 1 and inertia[2] == 0:
                hyperbolic += 1
    return {
        "bounds.sweep_subsets": defined,
        "bounds.subsets_to_verdict": visited,
        "bounds.hyperbolic_subsets": hyperbolic,
        "bounds.gram_repeat_share": repeats / visited if visited else 0.0,
    }


# The wrapped names the per-layer metrics are read from.
LAYER_SOURCES = (
    "exact.inverse",
    "exact.signature",
    "exact.kernel_basis",
    "graph.connected_vertex_subsets",
    "graph.induced",
    "graph.gram",
    "bounds.exclude",
    "bounds.box_certificate",
    "bounds.rough_bound",
    "bounds.verify_certificate",
    "roots.recognize_component",
    "kodaira.find_kodaira_divisors",
    "catalog.verify_entry",
    "formats.parse_config",
)


def layer_metrics(traced: list[dict]) -> dict:
    """Per-layer metrics from the traced passes: times are means over
    passes (scaled like wall_s), counts come from the first traced pass."""

    def calls(name):
        a = first.get(name)
        return a.calls if a else 0

    def self_s(name, field="self_s"):
        return statistics.fmean(
            (getattr(aggs[name], field) if name in aggs else 0.0) * rec["wall_s"] / rec["raw_s"]
            for aggs, rec in ((p["aggs"], p) for p in traced)
        )

    first = traced[0]["aggs"]
    exact = [a for n, a in first.items() if n.startswith("exact.")]
    n_count = sum(a.n_count for a in exact)
    box = first.get("bounds.box_certificate")
    box_fallback = box.raised if box else 0
    box_ok = (box.calls - box.raised) if box else 0
    rec = first.get("roots.recognize_component")
    found = first.get("kodaira.find_kodaira_divisors")
    enum = first.get("graph.connected_vertex_subsets")
    out = {
        "exact.inverse.calls": calls("exact.inverse"),
        "exact.inverse.self_s": self_s("exact.inverse", "layer_s"),
        "exact.signature.calls": calls("exact.signature"),
        "exact.signature.self_s": self_s("exact.signature", "layer_s"),
        "exact.kernel_basis.calls": calls("exact.kernel_basis"),
        "exact.kernel_basis.self_s": self_s("exact.kernel_basis", "layer_s"),
        "exact.mean_n": sum(a.n_sum for a in exact) / n_count if n_count else 0.0,
        "exact.n3_sum": sum(a.n3_sum for a in exact),
        "graph.enumerate.self_s": self_s("graph.connected_vertex_subsets"),
        "graph.subsets": enum.items if enum else 0,
        "graph.induced.self_s": self_s("graph.induced"),
        "graph.gram.self_s": self_s("graph.gram"),
        "bounds.exclude.self_s": self_s("bounds.exclude"),
        "bounds.box_certificate.self_s": self_s("bounds.box_certificate"),
        "bounds.rough_bound.self_s": self_s("bounds.rough_bound"),
        "bounds.box_split.ok": box_ok,
        "bounds.box_split.fallback": box_fallback,
        "bounds.box_split.ok_ratio": box_ok / box.calls if box and box.calls else 0.0,
        "bounds.verify_certificate.calls": calls("bounds.verify_certificate"),
        "bounds.verify_certificate.self_s": self_s("bounds.verify_certificate"),
        "roots.recognize_component.calls": calls("roots.recognize_component"),
        "roots.recognize_component.self_s": self_s("roots.recognize_component"),
        "roots.recognized_ratio": (rec.calls - rec.none) / rec.calls if rec and rec.calls else 0.0,
        "kodaira.find.self_s": self_s("kodaira.find_kodaira_divisors"),
        "kodaira.divisors": found.items if found else 0,
        "catalog.verify_entry.self_s": self_s("catalog.verify_entry"),
        "formats.parse_config.self_s": self_s("formats.parse_config"),
    }
    return out


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric units, as BENCHMARK.json lists them."""
    spec = bench_spec()
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(bench_spec()["run_seconds"])
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not (SRC / "k3lat" / "__init__.py").is_file():
        print(f"k3lat sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    make_inputs, setup = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    clock = Clock()
    setup_clock = SetupClock()

    setup_times, setup_raw = [], []
    for _ in range(SETUP_REPEATS):
        plan = None
        gc.collect()
        before = setup_clock.calibrate()
        t0 = perf_counter()
        k3lat = fresh_import()
        plan = setup(k3lat, inputs)
        t1 = perf_counter()
        setup_clock.calibrate()
        setup_raw.append(t1 - t0)
        setup_times.append((t1 - t0) * setup_clock.factor(before))

    runner = Runner(plan, clock)
    metrics: dict[str, float] = {}
    detail: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    runner.hook_checkpoints(k3lat)
    if args.trace == 0:
        untraced = runner.phase(args.seconds)
        runner.unhook_checkpoints()
    else:
        untraced = runner.phase(args.seconds / 2)
        runner.unhook_checkpoints()
        tracer = Tracer(k3lat)
        tracer.install()
        try:
            before = clock.calibrate()
            tracer.top_level(setup, k3lat, inputs)
            parse_setup = tracer.take_pass().get("formats.parse_config")
            parse_setup_s = (parse_setup.self_s if parse_setup else 0.0) * clock.factor(before)
            runner.tracer = tracer
            tracer.exclude_calls = []
            runner.hook_checkpoints(k3lat)
            traced = runner.phase(args.seconds / 2)
        finally:
            runner.unhook_checkpoints()
            tracer.uninstall()
            runner.tracer = None
        metrics.update(layer_metrics(traced))
        counts = sweep_counts(traced[0]["exclude_calls"])
        metrics.update(counts)
        untraced_wall = statistics.fmean(p["wall_s"] for p in untraced)
        traced_wall = statistics.fmean(p["wall_s"] for p in traced)
        metrics["formats.parse_config.setup_self_s"] = parse_setup_s
        metrics["subsets_per_s"] = subsets_per_s(plan, untraced) or (
            counts["bounds.sweep_subsets"] / untraced_wall
        )
        metrics["trace.spans"] = traced[0]["spans"]
        metrics["trace.untraced_wall_s"] = untraced_wall
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"{args.workload}-seed{args.seed}.spans.json.gz"
        tracer.write(span_file, {"workload": args.workload, "seed": args.seed})
        detail["span_file"] = str(span_file.relative_to(ROOT))
        detail["missing"] = tracer.missing + [n for n in LAYER_SOURCES if n not in tracer.names]
        for name in detail["missing"]:
            print(f"missing: {name} (its metrics read 0)")
        detail["traced_passes"] = len(traced)

    final = plan.final_check(runner.first_digests) if plan.final_check else None
    if final:
        runner.failed += 1
        runner.failures.append(final)

    primary = [
        runner.scaled(segments)
        for _, segments, is_primary, pass_no in runner.calls
        if is_primary and not runner.passes[pass_no]["traced"]
    ]
    if args.trace == 0:
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["wall_s"] = statistics.fmean(p["wall_s"] for p in untraced)
        metrics["call_p50_s"] = statistics.median(primary)
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tail = percentile_tail(primary)
    detail.update(
        {
            "passes": len(untraced),
            "wall_raw_s": statistics.fmean(p["raw_s"] for p in untraced),
            "pass_wall_s": [p["wall_s"] for p in untraced],
            "setup_raw_s": statistics.median(setup_raw),
            "setup_calibration_median_s": statistics.median(setup_clock.samples),
            "calls_timed": len(primary),
            "call_s": primary,
            "call_tail": None if tail is None else {"percentile": tail[0], "value_s": tail[1], "beyond": tail[2]},
            "subsets_per_s": subsets_per_s(plan, untraced),
            "failed_ratio": runner.failed / max(runner.attempted, 1),
            "calibration_median_s": statistics.median(clock.samples),
        }
    )

    end_to_end, per_layer = metric_units()
    units = per_layer if args.trace else end_to_end
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    if tail is not None:
        print(f"call_tail_s = {tail[1]:.6g} s (p{tail[0]:g} of {len(primary)} calls, {tail[2]} beyond)")
    else:
        print(f"call_tail_s omitted: {len(primary)} calls")
    if detail["subsets_per_s"] is not None and not args.trace:
        print(f"subsets_per_s = {detail['subsets_per_s']:.6g} 1/s")
    print(f"failed_ratio = {detail['failed_ratio']:.6g} 1 ({runner.failed} of {runner.attempted})")
    for message in runner.failures[:20]:
        print(f"FAILED: {message}", file=sys.stderr)
    print("detail " + json.dumps(detail, sort_keys=True))
    correct = runner.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runner.attempted,
                "failed": min(runner.failed, runner.attempted),
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
