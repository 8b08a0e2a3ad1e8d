"""The four workloads: seeded inputs, the calls of one pass, output checks.

Each workload is a pair of functions.  ``inputs_*(seed)`` builds the
inputs from the seed with the benchmark's own generators and returns them
as JSON text; it does not touch k3lat and is not timed.  ``setup_*(k3lat,
inputs)`` hands the texts to k3lat through ``formats.parse_config`` and
returns a :class:`Plan`; it is the timed part of set-up.  A seeded
workload builds ``INPUT_SETS`` input sets; pass ``p`` of a run uses set
``p % INPUT_SETS``, so a run averages over many relabellings or random
configurations rather than timing one draw again and again.  A pass runs
every top-level call of its set through ``hooks.call``, which times the
call and checks its output.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass, field

import gen

INPUT_SETS = 6
DEFAULT_SEED = 1

# The fibration-shaped stress configuration: six I4 cycles plus a zero
# section, swept up to 6 curves.  Below h = 12 every sweep is a full,
# undecided sweep with best bound 22; at h = 12 it stops at the first
# subset with bound < 24, whose place depends on the vertex order.
FIBRED_SHAPE = (6, 4)
FIBRED_CAP = 6
FIBRED_BEST_BOUND = 22
FIBRED_H_FULL = 11
FIBRED_H_EARLY = 12
FIBRED_FULL_CALLS = 4
FIBRED_EARLY_CALLS = 2

# Random hyperbolic configurations of 10 curves, swept up to 6 curves at
# d = 3, h = 1: the cap d is large enough that no subset bounds 2h = 2, so
# every call is a full sweep.  The sweep's elimination work is about the
# sum of k^3 over the connected k-subsets; only configurations whose sum
# falls in the window are kept, so calls cost about the same from one seed
# to the next.
RANDOM_N = 10
RANDOM_CAP = 6
RANDOM_D = 3
RANDOM_H = 1
RANDOM_CALLS = 8
RANDOM_WORK_WINDOW = (36_000, 44_000)
# Verdict digest of sweep-random's first input set at DEFAULT_SEED.
RANDOM_DIGEST_AT_DEFAULT_SEED = "8639a394012d583e"

# (fibres, components) of the uniform fibrations searched for Kodaira
# divisors, with the divisor tags each must yield.  The seed renames the
# curves but keeps their order: reordering moves the search's time by
# about 7% from one draw to the next, renaming by no more than the noise.
FIBER_SHAPES = {
    (6, 4): {"I4": 6, "I*0": 15, "I*1": 60, "I*2": 15, "IV*": 160, "III*": 240},
    (8, 3): {"I3_OR_IV": 8, "I*0": 70, "IV*": 448},
    (12, 2): {"I2_OR_III": 12, "I*0": 495},
    (4, 6): {"I6": 4, "I*0": 1, "I*1": 12, "I*2": 6, "IV*": 44, "III*": 96, "II*": 144},
}
FIBER_COMPONENT_NAME = {4: "A~3", 3: "A~2", 2: "A~1", 6: "A~5"}

CATALOG_ENTRIES = 18


@dataclass
class Sweep:
    """One exclude call's input, kept for the benchmark's own counts."""

    vertices: list
    edges: list
    cap: int


@dataclass
class Plan:
    # run_pass(hooks, s) runs every call of input set s
    run_pass: object
    sets: int = 1
    # sweeps[s]: the exclude inputs of set s
    sweeps: list[list[Sweep]] = field(default_factory=list)
    # called with each set's output digests; returns an error or None
    final_check: object = None


def _rng(workload: str, seed: int, s: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{s}")


def _parse(k3lat, text: str):
    return k3lat.formats.parse_config(text).config


def _verdict_digest(verdict, back: dict | None = None) -> tuple:
    certs = []
    for cert in verdict.certificates:
        support = cert.support_ids
        if back is not None:
            support = tuple(sorted(back[v] for v in support))
        certs.append((cert.kind, str(cert.bound_on_2h), support))
    return (verdict.status.value, tuple(certs))


def _check_verdict(k3lat, cfg, verdict, h: int) -> str | None:
    """The status agrees with the certificate's bound and 2h, and the
    certificate re-verifies from scratch."""
    status = k3lat.bounds.ExclusionStatus
    if len(verdict.certificates) != 1:
        return f"{len(verdict.certificates)} certificates"
    cert = verdict.certificates[0]
    if not k3lat.bounds.verify_certificate(cert, cfg):
        return "certificate does not re-verify"
    if verdict.status is status.HYPERBOLIC_EXCLUDED:
        if not cert.bound_on_2h < 2 * h:
            return f"excluded with bound {cert.bound_on_2h} >= 2h = {2 * h}"
    elif verdict.status is status.HYPERBOLIC_UNDECIDED:
        if cert.bound_on_2h < 2 * h:
            return f"undecided with bound {cert.bound_on_2h} < 2h = {2 * h}"
    else:
        return f"unexpected status {verdict.status.value}"
    return None


def inputs_sweep_fibred(seed: int) -> tuple[list, list]:
    """(calls, sweeps): calls[s] holds (JSON text, h, back-renaming)."""
    vertices, edges = gen.fibration_config(*FIBRED_SHAPE)
    sets, sweeps = [], []
    for s in range(INPUT_SETS):
        rng = _rng("sweep-fibred", seed, s)
        hs = [FIBRED_H_FULL] * FIBRED_FULL_CALLS + [FIBRED_H_EARLY] * FIBRED_EARLY_CALLS
        rng.shuffle(hs)
        calls, inputs = [], []
        for i, h in enumerate(hs):
            v, e, back = gen.relabel(vertices, edges, rng, reorder=True)
            calls.append((gen.config_json(f"fibred-{s}-{i}", v, e), h, back))
            inputs.append(Sweep(v, e, FIBRED_CAP))
        sets.append(calls)
        sweeps.append(inputs)
    return sets, sweeps


def setup_sweep_fibred(k3lat, inputs: tuple[list, list]) -> Plan:
    texts, sweeps = inputs
    sets = [[(_parse(k3lat, text), h, back) for text, h, back in calls] for calls in texts]

    def check(cfg, h):
        def run(verdict):
            msg = _check_verdict(k3lat, cfg, verdict, h)
            if msg:
                return msg
            bound = verdict.certificates[0].bound_on_2h
            if h == FIBRED_H_FULL and bound != FIBRED_BEST_BOUND:
                return f"best bound {bound}, pinned {FIBRED_BEST_BOUND}"
            if h == FIBRED_H_EARLY and not FIBRED_BEST_BOUND <= bound < 2 * h:
                return f"first hit bound {bound} outside [{FIBRED_BEST_BOUND}, {2 * h})"
            return None

        return run

    def run_pass(hooks, s):
        for cfg, h, back in sets[s]:
            hooks.call(
                lambda cfg=cfg, h=h: k3lat.bounds.exclude(cfg, 1, h, subgraph_cap=FIBRED_CAP),
                check(cfg, h),
                lambda verdict, back=back: _verdict_digest(verdict, back),
            )

    return Plan(run_pass, INPUT_SETS, sweeps)


def random_configs(seed: int, s: int) -> list[tuple[list, list]]:
    """The configurations of sweep-random's input set ``s``."""
    rng = _rng("sweep-random", seed, s)
    lo, hi = RANDOM_WORK_WINDOW
    out = []
    while len(out) < RANDOM_CALLS:
        vertices, edges = gen.random_hyperbolic(rng, RANDOM_N)
        _, adj = gen.adjacency(vertices, edges)
        work = sum(len(sub) ** 3 for sub in gen.connected_subsets(adj, RANDOM_CAP))
        if lo <= work <= hi:
            out.append((vertices, edges))
    return out


def inputs_sweep_random(seed: int) -> tuple[int, list, list]:
    """(seed, texts, sweeps): texts[s] holds the JSON text of each call."""
    texts, sweeps = [], []
    for s in range(INPUT_SETS):
        configs = random_configs(seed, s)
        texts.append([gen.config_json(f"random-{s}-{i}", v, e) for i, (v, e) in enumerate(configs)])
        sweeps.append([Sweep(v, e, RANDOM_CAP) for v, e in configs])
    return seed, texts, sweeps


def setup_sweep_random(k3lat, inputs: tuple[int, list, list]) -> Plan:
    seed, texts, sweeps = inputs
    sets = [[_parse(k3lat, text) for text in calls] for calls in texts]

    def run_pass(hooks, s):
        for cfg in sets[s]:
            hooks.call(
                lambda cfg=cfg: k3lat.bounds.exclude(
                    cfg, RANDOM_D, RANDOM_H, subgraph_cap=RANDOM_CAP
                ),
                lambda verdict, cfg=cfg: _check_verdict(k3lat, cfg, verdict, RANDOM_H),
                _verdict_digest,
            )

    def final_check(digests: dict) -> str | None:
        if seed != DEFAULT_SEED:
            return None
        got = random_digest(digests[0])
        if got != RANDOM_DIGEST_AT_DEFAULT_SEED:
            return f"verdict digest {got}, pinned {RANDOM_DIGEST_AT_DEFAULT_SEED}"
        return None

    return Plan(run_pass, INPUT_SETS, sweeps, final_check)


def random_digest(digests: list) -> str:
    return hashlib.sha256(repr(digests).encode()).hexdigest()[:16]


def inputs_fiber_search(seed: int) -> list:
    """texts[s] holds (configuration, fibres only, tags, component names)."""
    texts = []
    for s in range(INPUT_SETS):
        rng = _rng("fiber-search", seed, s)
        calls = []
        for (fibers, comps), tags in FIBER_SHAPES.items():
            vertices, edges = gen.fibration_config(fibers, comps)
            v, e, back = gen.relabel(vertices, edges, rng, reorder=False)
            section = next(new for new, old in back.items() if old == "s")
            fv = [x for x in v if x[0] != section]
            fe = [x for x in e if section not in x[:2]]
            cfg = gen.config_json(f"uniform-{fibers}xI{comps}", v, e)
            fibres_only = gen.config_json(f"fibres-{fibers}xI{comps}", fv, fe)
            calls.append((cfg, fibres_only, tags, [FIBER_COMPONENT_NAME[comps]] * fibers))
        texts.append(calls)
    return texts


def setup_fiber_search(k3lat, texts: list) -> Plan:
    sets = [
        [(_parse(k3lat, cfg), _parse(k3lat, fo), tags, names) for cfg, fo, tags, names in calls]
        for calls in texts
    ]

    def check_divisors(cfg, tags):
        ids = set(cfg.ids())

        def run(divisors):
            got = dict(Counter(d.tag for d in divisors))
            if got != tags:
                return f"divisor tags {got}, pinned {tags}"
            if any(not set(d.support) <= ids for d in divisors):
                return "divisor support outside the configuration"
            return None

        return run

    def check_decomposition(names):
        def run(dec):
            if dec.unrecognized or dec.names() != names:
                return f"components {dec.names()}, unrecognized {len(dec.unrecognized)}"
            return None

        return run

    def run_pass(hooks, s):
        for cfg, fibres_only, tags, names in sets[s]:
            hooks.call(
                lambda cfg=cfg: k3lat.kodaira.find_kodaira_divisors(cfg),
                check_divisors(cfg, tags),
                lambda ds: tuple((d.tag, d.support, d.multiplicities) for d in ds),
            )
            hooks.call(
                lambda fo=fibres_only: k3lat.roots.decompose(fo),
                check_decomposition(names),
                lambda dec: tuple((c.kind, c.vertex_ids) for c in dec.components),
                primary=False,
            )

    return Plan(run_pass, INPUT_SETS)


def inputs_catalog(seed: int) -> None:
    """The shipped catalog is the input; the seed is unused."""
    return None


def setup_catalog(k3lat, inputs: None) -> Plan:
    """``catalog verify`` as users run it, one call per pass."""
    entries = k3lat.catalog.load_catalog()
    if len(entries) != CATALOG_ENTRIES:
        raise ValueError(f"catalog has {len(entries)} entries, expected {CATALOG_ENTRIES}")

    def check(reports):
        if len(reports) != CATALOG_ENTRIES:
            return f"{len(reports)} reports, expected {CATALOG_ENTRIES}"
        bad = [r.name for r in reports if not r.ok]
        return f"entries failed: {bad}" if bad else None

    def digest(reports):
        return tuple((r.name, r.ok, tuple((c.name, c.actual) for c in r.checks)) for r in reports)

    def run_pass(hooks, s):
        hooks.call(lambda: k3lat.catalog.verify_catalog(), check, digest)

    return Plan(run_pass)


# name -> (inputs from the seed, untimed; set-up from the inputs, timed)
WORKLOADS = {
    "sweep-fibred": (inputs_sweep_fibred, setup_sweep_fibred),
    "sweep-random": (inputs_sweep_random, setup_sweep_random),
    "catalog": (inputs_catalog, setup_catalog),
    "fiber-search": (inputs_fiber_search, setup_fiber_search),
}
