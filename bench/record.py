"""Run the benchmark over many seeds and record the figures.

Usage, from the root of a checkout::

    python3 bench/record.py --label baseline

For every workload in BENCHMARK.json this makes ``SETS`` sets of
untraced runs, one per seed in ``SEEDS``, and one traced run per set at
the first seed.
It writes ``bench/BENCH_<label>.json`` with the Python version, ``nproc``,
each end-to-end metric's median, quartiles and spread (the distance
between the quartiles over the median) per set, the shift between the
sets' medians, the per-layer metrics of the traced runs, and whether the
counts of the traced runs repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import percentile_tail  # noqa: E402

BENCH_JSON = ROOT / "BENCHMARK.json"
COUNT_UNITS = ("count",)
SEEDS = list(range(1, 11))
SETS = 2


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = command + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    detail = next((json.loads(x[len("detail "):]) for x in lines if x.startswith("detail ")), {})
    return {"seed": seed, "result": result, "detail": detail}


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    args = ap.parse_args(argv)

    spec = json.loads(BENCH_JSON.read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    out = {
        "label": args.label,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "run_seconds": spec["run_seconds"],
        "seeds": SEEDS,
        "sets": SETS,
        "workloads": {},
    }
    ok = True
    for workload in names:
        sets, traced = [], []
        for s in range(SETS):
            runs = []
            for seed in SEEDS:
                run = run_once(spec["command"], workload, seed, spec["run_seconds"], 0)
                runs.append(run)
                print(workload, f"set {s}", seed, json.dumps(run["result"]["metrics"]), flush=True)
            sets.append(runs)
            traced.append(run_once(spec["command"], workload, SEEDS[0], spec["run_seconds"], 1))
        entry = {"end_to_end": {}, "detail": {}, "correct": True}
        for runs in sets:
            entry["correct"] &= all(r["result"]["correct"] for r in runs)
        for name, m in bounds.items():
            per_set = [summary([r["result"]["metrics"][name]["value"] for r in runs]) for runs in sets]
            first = per_set[0]["median"]
            shifts = [(p["median"] - first) / first for p in per_set[1:]]
            worse = [x if m["better"] == "lower" else -x for x in shifts]
            steady = all(p["spread"] <= m["bound"] for p in per_set)
            entry["end_to_end"][name] = {
                "unit": m["unit"],
                "bound": m["bound"],
                "sets": per_set,
                "median_shift": shifts,
                "within_bound": steady and all(w <= m["bound"] for w in worse),
                "spread_below_third_of_bound": all(p["spread"] < m["bound"] / 3 for p in per_set),
            }
            ok &= entry["end_to_end"][name]["within_bound"]
        for key in ("wall_raw_s", "subsets_per_s", "calibration_median_s", "passes", "calls_timed"):
            vals = [r["detail"].get(key) for runs in sets for r in runs]
            vals = [v for v in vals if v is not None]
            if vals:
                entry["detail"][key] = summary(vals) if len(vals) >= 2 else vals
        entry["detail"]["call_tail_pooled"] = []
        for runs in sets:
            pooled = [x for r in runs for x in r["detail"].get("call_s", [])]
            tail = percentile_tail(pooled)
            entry["detail"]["call_tail_pooled"].append(
                None if tail is None else {"percentile": tail[0], "value_s": tail[1], "beyond": tail[2], "calls": len(pooled)}
            )
        per_layer = [t["result"]["metrics"] for t in traced]
        counts = {
            k: [p[k]["value"] for p in per_layer]
            for k, v in per_layer[0].items()
            if v["unit"] in COUNT_UNITS or k.endswith("_share")
        }
        entry["per_layer"] = per_layer[0]
        entry["per_layer_runs"] = per_layer
        entry["counts_repeat"] = all(len(set(v)) == 1 for v in counts.values())
        ok &= entry["counts_repeat"]
        ok &= entry["correct"]
        out["workloads"][workload] = entry
    path = Path(__file__).resolve().parent / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    for workload, entry in out["workloads"].items():
        for name, m in entry["end_to_end"].items():
            spreads = ", ".join(f"{p['spread']:.3f}" for p in m["sets"])
            meds = ", ".join(f"{p['median']:.5g}" for p in m["sets"])
            flag = "" if m["within_bound"] else "  OUT OF BOUND"
            third = "" if m["spread_below_third_of_bound"] else "  (spread >= bound/3)"
            print(f"{workload:14s} {name:14s} median {meds} spread {spreads} bound {m['bound']}{flag}{third}")
        print(f"{workload:14s} counts repeat: {entry['counts_repeat']}")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
