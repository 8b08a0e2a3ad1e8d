"""Command-line interface.

Every subcommand prints a deterministic report (text by default,
``--format json`` for machine consumption; exact rationals appear as
``p/q`` strings either way).  Exit codes: 0 for success or a verified
result, 1 when a violation, exclusion or failed check was reported, 2 for
input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import bounds, catalog, fibration, kodaira, roots
from .exact import positive_square_vector
from .formats import (
    format_fraction,
    parse_config,
    parse_model,
    parse_profile,
    read_json,
)
from .graph import classify, integer_gram


def _emit(report: dict, fmt: str, lines: list[str]) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write("\n".join(lines) + "\n")


def _read(path: str) -> str:
    return Path(path).read_text()


def _violations_payload(violations) -> list[dict]:
    return [
        {
            "rule": v.rule,
            "vertices": list(v.vertices),
            "message": v.message,
            "slack": None if v.slack is None else format_fraction(v.slack),
        }
        for v in violations
    ]


def _cmd_classify(args) -> int:
    doc = parse_config(_read(args.file), args.file)
    cls = classify(doc.config)
    witness = positive_square_vector(integer_gram(doc.config, range(doc.config.n)))
    # the computed class admits no pairing violation (validate_pairings
    # reports them for a claimed one), so the report lists none
    report = {
        "name": doc.config.name,
        "classification": cls.kind.value,
        "signature": {
            "n_plus": cls.signature.n_plus,
            "n_minus": cls.signature.n_minus,
            "n_zero": cls.signature.n_zero,
        },
        "violations": [],
    }
    if witness is not None:
        report["positive_square_vector"] = [format_fraction(x) for x in witness]
    lines = [
        f"{doc.config.name or args.file}: {cls.kind.value}",
        f"signature (n+, n-, n0) = {tuple(cls.signature)}",
        "no pairing violations",
    ]
    _emit(report, args.format, lines)
    return 1 if cls.kind.value == "Invalid" else 0


def _cmd_decompose(args) -> int:
    doc = parse_config(_read(args.file), args.file)
    try:
        dec = roots.decompose(doc.config)
    except roots.NotNegativeSemidefiniteError as exc:
        _emit(
            {"error": str(exc)},
            args.format,
            [f"cannot decompose: {exc}"],
        )
        return 1
    report = {
        "name": doc.config.name,
        "components": [
            {
                "kind": c.name,
                "vertices": list(c.vertex_ids),
                "kernel_vector": None
                if c.kernel_vector is None
                else list(c.kernel_vector),
            }
            for c in dec.components
        ],
        "unrecognized": [list(u) for u in dec.unrecognized],
        "total_rank": dec.total_rank,
    }
    lines = [f"{doc.config.name or args.file}: {len(dec.components)} component(s)"]
    for c in dec.components:
        kv = f" kernel {list(c.kernel_vector)}" if c.kernel_vector else ""
        lines.append(f"  {c.name}: {', '.join(c.vertex_ids)}{kv}")
    for u in dec.unrecognized:
        lines.append(f"  unrecognized: {', '.join(u)}")
    lines.append(f"total rank {dec.total_rank}")
    _emit(report, args.format, lines)
    return 1 if dec.unrecognized else 0


def _cmd_kodaira(args) -> int:
    if (args.d is None) != (args.h is None):
        sys.stderr.write("the low-degree check needs both --d and --h\n")
        return 2
    doc = parse_config(_read(args.file), args.file)
    divisors = kodaira.find_kodaira_divisors(doc.config, args.max_weight)
    report = {
        "name": doc.config.name,
        "divisors": [
            {
                "type": d.tag,
                "support": list(d.support),
                "multiplicities": list(d.multiplicities),
                "weight": d.weight,
                "euler": list(d.euler_range),
                "degree": kodaira.divisor_degree(d, doc.config),
                "nodal_or_cuspidal": d.nodal_or_cuspidal,
            }
            for d in divisors
        ],
    }
    lines = [f"{doc.config.name or args.file}: {len(divisors)} divisor(s) of fiber type"]
    for d in divisors:
        deg = kodaira.divisor_degree(d, doc.config)
        lines.append(
            f"  {d.tag}: weight {d.weight}, degree {deg}, "
            f"support {', '.join(d.support)}"
        )
    rc = 0
    if args.d is not None:
        violations = kodaira.exclusion_6d(doc.config, args.d, args.h)
        report["low_degree_violations"] = _violations_payload(violations)
        for v in violations:
            lines.append(f"violation [{v.rule}]: {v.message}")
        if violations:
            rc = 1
    _emit(report, args.format, lines)
    return rc


def _cmd_polarize(args) -> int:
    doc = parse_config(_read(args.file), args.file)
    cfg = doc.config
    ip = bounds.intrinsic_polarization(cfg)
    rng = bounds._h_range(classify(cfg), ip)
    report = {
        "name": cfg.name,
        "exists": ip.exists,
        "h_max": rng.h_max if rng.h_max is not None else "unbounded",
        "note": rng.note,
    }
    lines = [f"{cfg.name or args.file}:"]
    if ip.exists:
        report["coords"] = [format_fraction(c) for c in ip.coords]
        report["basis"] = list(ip.basis_ids)
        report["square"] = format_fraction(ip.square)
        coords = ", ".join(
            f"{format_fraction(c)}*{b}" for c, b in zip(ip.coords, ip.basis_ids)
        )
        lines.append(f"intrinsic polarization exists: {coords}")
        lines.append(f"square = {format_fraction(ip.square)}")
    else:
        report["obstruction"] = ip.note
        lines.append(f"no intrinsic polarization: {ip.note}")
    lines.append(
        "admissible h: "
        + ("unbounded" if rng.h_max is None else f"h <= {rng.h_max}")
        + f" ({rng.note})"
    )
    _emit(report, args.format, lines)
    return 0


def _certificate_payload(cert: bounds.BoundCertificate) -> dict:
    payload = {
        "kind": cert.kind,
        "bound_on_2h": format_fraction(cert.bound_on_2h),
        "support": list(cert.support_ids),
        "d": cert.d,
    }
    wit = cert.witness
    if isinstance(wit, bounds.BoxWitness):
        payload["witness"] = {
            name: [[format_fraction(Fraction(x, wit.delta)) for x in row] for row in part]
            for name, part in (
                ("negative_part", wit.negative_part),
                ("nonnegative_part", wit.nonnegative_part),
            )
        }
        payload["witness"]["x_max"] = [format_fraction(cert.d)] * len(cert.support_ids)
    return payload


def _cmd_bound(args) -> int:
    doc = parse_config(_read(args.file), args.file)
    cfg = doc.config
    span = bounds._Span(cfg)
    build = {"rough": span.rough_bound, "box": span.box_certificate, "auto": span.bound}
    try:
        cert = build[args.method](args.d)
    except bounds.NoDecompositionFoundError as exc:
        _emit({"error": str(exc)}, args.format, [f"no box certificate: {exc}"])
        return 1
    except bounds.DegenerateLatticeError as exc:
        _emit({"error": str(exc)}, args.format, [f"error: {exc}"])
        return 2
    verified = bounds.verify_certificate(cert, cfg)
    report = {"name": cfg.name, "certificate": _certificate_payload(cert), "verified": verified}
    lines = [
        f"{cfg.name or args.file}: {cert.kind}",
        f"bound on 2h: {format_fraction(cert.bound_on_2h)} (d = {args.d})",
        f"witness re-verified: {verified}",
    ]
    _emit(report, args.format, lines)
    return 0 if verified else 1


def _cmd_exclude(args) -> int:
    doc = parse_config(_read(args.file), args.file)
    verdict = bounds.exclude(
        doc.config, args.d, args.h, subgraph_cap=args.cap,
        use_pinned_degrees=args.pinned,
    )
    report = {
        "name": doc.config.name,
        "status": verdict.status.value,
        "certificates": [_certificate_payload(c) for c in verdict.certificates],
        "notes": list(verdict.notes),
    }
    lines = [f"{doc.config.name or args.file}: {verdict.status.value} (d = {args.d}, h = {args.h})"]
    for c in verdict.certificates:
        lines.append(
            f"  {c.kind} on {len(c.support_ids)} vertices: "
            f"bound {format_fraction(c.bound_on_2h)}"
        )
    lines.extend(f"  note: {n}" for n in verdict.notes)
    _emit(report, args.format, lines)
    excluded = verdict.status in (
        bounds.ExclusionStatus.HYPERBOLIC_EXCLUDED,
        bounds.ExclusionStatus.ELLIPTIC_EXCLUDED,
        bounds.ExclusionStatus.INVALID_EXCLUDED,
    )
    return 1 if excluded else 0


def _cmd_budget(args) -> int:
    prof = parse_profile(_read(args.file), args.file)
    report_obj = fibration.budget_check(prof)
    comp_bound = fibration.rational_component_bound(prof)
    st = fibration.shioda_tate_rank(prof, args.mw)
    report = {
        "profile": prof.describe(),
        "mode": report_obj.mode,
        "budget_ok": report_obj.ok,
        "total": report_obj.total,
        "component_total": report_obj.component_total,
        "component_bound": comp_bound,
        "shioda_tate_rank": st,
        "mw_rank": args.mw,
        "messages": list(report_obj.messages),
    }
    lines = [
        f"profile {prof.describe()} [{report_obj.mode}]",
        f"Euler budget: {report_obj.total} / 24 -> {'ok' if report_obj.ok else 'FAIL'}",
        f"components: {report_obj.component_total}, rational-curve bound {comp_bound}",
        f"trivial-lattice + MW rank (mw = {args.mw}): {st}",
    ]
    lines.extend(f"  {m}" for m in report_obj.messages)
    _emit(report, args.format, lines)
    return 0 if report_obj.ok else 1


def _cmd_enum_uniform(args) -> int:
    profiles = fibration.enumerate_uniform(args.rho_max)
    report = {
        "rho_max": args.rho_max,
        "profiles": [
            {
                "fibers": p.describe(),
                "st_rank": fibration.shioda_tate_rank(p, 0),
            }
            for p in profiles
        ],
    }
    lines = [f"uniform multiplicative configurations at rho_max = {args.rho_max}:"]
    lines.extend(
        f"  {p.describe()} (rank {fibration.shioda_tate_rank(p, 0)})"
        for p in profiles
    )
    _emit(report, args.format, lines)
    return 0


def _cmd_sd_bound(args) -> int:
    ctx = fibration.SurfaceContext(
        characteristic=args.char,
        unirational=False if args.non_unirational else None,
        artin_invariant=args.sigma,
    )
    res = fibration.sd_bound(ctx, restricted=args.restricted)
    report = {
        "bound": res.bound,
        "count": res.count,
        "h_threshold": format_fraction(res.h_threshold),
        "hypotheses": list(res.hypotheses),
        "conjectural": res.conjectural,
    }
    lines = [
        f"{res.count} <= {res.bound} for h > {format_fraction(res.h_threshold)} * d^2",
        "hypotheses: " + "; ".join(res.hypotheses),
    ]
    if res.conjectural:
        lines.append(f"conjectural: {res.conjectural}")
    _emit(report, args.format, lines)
    return 0


def _cmd_very_ample(args) -> int:
    model = parse_model(_read(args.file), args.file)
    verdict = fibration.very_ample_check(model)
    report = {
        "passes": verdict.passed,
        "failed": list(verdict.failed),
        "notes": list(verdict.notes),
    }
    lines = [f"very-ampleness criterion: {'pass' if verdict.passed else 'FAIL'}"]
    lines.extend(f"  failed: {f}" for f in verdict.failed)
    lines.extend(f"  note: {n}" for n in verdict.notes)
    _emit(report, args.format, lines)
    return 0 if verdict.passed else 1


def _cmd_catalog(args) -> int:
    if args.name and args.action != "show":
        sys.stderr.write(f"catalog {args.action} takes no entry name\n")
        return 2
    if args.action == "list":
        entries = catalog.load_catalog()
        report = {
            "entries": [
                {"name": e.name, "kind": e.kind, "description": e.description}
                for e in entries
            ]
        }
        lines = [f"{e.name} [{e.kind}]: {e.description}" for e in entries]
        _emit(report, args.format, lines)
        return 0
    if args.action == "show":
        if not args.name:
            sys.stderr.write("catalog show needs an entry name\n")
            return 2
        try:
            entry = catalog.get_entry(args.name)
        except KeyError as exc:
            sys.stderr.write(f"{exc.args[0]}\n")
            return 2
        report = {
            "name": entry.name,
            "kind": entry.kind,
            "description": entry.description,
            "source": entry.source,
            "expected": entry.expected,
        }
        lines = [
            f"{entry.name} [{entry.kind}]",
            f"description: {entry.description}",
            f"source: {entry.source}",
        ]
        if entry.file:
            text = catalog.entry_file_text(entry)
            report["file"] = entry.file
            report["payload"] = read_json(text, entry.file)
            lines.append(f"file: {entry.file}")
            lines.append(text.rstrip("\n"))
        if entry.payload:
            report["payload"] = entry.payload
            lines.append("payload: " + json.dumps(entry.payload, sort_keys=True))
        lines.append("expected: " + json.dumps(entry.expected, sort_keys=True))
        _emit(report, args.format, lines)
        return 0
    # verify
    reports = catalog.verify_catalog()
    ok = all(r.ok for r in reports)
    report = {
        "ok": ok,
        "entries": [
            {
                "name": r.name,
                "kind": r.kind,
                "ok": r.ok,
                "checks": [
                    {
                        "name": c.name,
                        "ok": c.ok,
                        "expected": c.expected,
                        "actual": c.actual,
                    }
                    for c in r.checks
                ],
            }
            for r in reports
        ],
    }
    lines = []
    for r in reports:
        lines.append(f"{'ok  ' if r.ok else 'FAIL'} {r.name} [{r.kind}]")
        for c in r.checks:
            if not c.ok:
                lines.append(
                    f"      {c.name}: expected {c.expected}, got {c.actual}"
                )
    lines.append(
        f"{sum(r.ok for r in reports)}/{len(reports)} entries verified"
    )
    _emit(report, args.format, lines)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="k3lat",
        description=(
            "exact lattice-theoretic certificates for rational-curve "
            "configurations on polarized K3 surfaces"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="output format (default text)",
        )
        p.set_defaults(func=func)
        return p

    p = add("classify", _cmd_classify, "definiteness class and pairing checks")
    p.add_argument("file")

    p = add("decompose", _cmd_decompose, "split into root-diagram components")
    p.add_argument("file")

    p = add("kodaira", _cmd_kodaira, "find divisors of fiber type")
    p.add_argument("file")
    p.add_argument("--max-weight", type=int, default=None)
    p.add_argument("--d", type=int, default=None, help="degree cap for the low-degree check")
    p.add_argument("--h", type=int, default=None, help="half-degree for the low-degree check")

    p = add("polarize", _cmd_polarize, "intrinsic polarization and admissible degrees")
    p.add_argument("file")

    p = add("bound", _cmd_bound, "degree bound certificate for the full configuration")
    p.add_argument("file")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--method", choices=("rough", "box", "auto"), default="auto")

    p = add("exclude", _cmd_exclude, "decide admissibility at a given degree")
    p.add_argument("file")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--cap", type=int, default=13, help="subgraph size cap")
    p.add_argument(
        "--pinned", action="store_true",
        help="treat the file's degrees as exact, enabling the pinned-degree certificate",
    )

    p = add("budget", _cmd_budget, "Euler-number budget of a fibration profile")
    p.add_argument("file")
    p.add_argument("--mw", type=int, default=0, help="Mordell-Weil rank")

    p = add("enum-uniform", _cmd_enum_uniform, "uniform fiber configurations")
    p.add_argument("--rho-max", type=int, required=True)

    p = add("sd-bound", _cmd_sd_bound, "curve-count bound for given hypotheses")
    p.add_argument("--char", type=int, required=True)
    p.add_argument("--non-unirational", action="store_true")
    p.add_argument("--sigma", type=int, default=None, help="Artin invariant")
    p.add_argument("--restricted", action="store_true")

    p = add("very-ample", _cmd_very_ample, "check the very-ampleness criterion")
    p.add_argument("file")

    p = add("catalog", _cmd_catalog, "list, show or verify the shipped catalog")
    p.add_argument("action", choices=("list", "show", "verify"))
    p.add_argument("name", nargs="?")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        sys.stderr.write(f"cannot read input: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
