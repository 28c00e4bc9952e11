"""Command-line front end.

Subcommands: classify, order, enumerate, isogeny, density, jvalue. Exit codes:
0 on success, 2 on usage or validation errors, 1 on internal-assertion
failures (which indicate a defect, not bad input). Identical invocations
produce byte-identical output; randomized runs record their seed.

Each handler returns (record, lines) and main alone prints them: the record
as one JSON object under --json, otherwise each line, a list of (label,
value) pairs, as space-joined label=value. density writes its CSV or JSON
payload itself and returns no record, only its summary line.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .cmpoints import TauExact, order_of_tau, parity_of_tau
from .density import (
    DensityConfig,
    _json_float,
    emit,
    fmt_float,
    sample_complex,
    sample_even,
    sample_odd,
)
from .enumeration import enumerate_real_odd_cm, min_j_gap
from .errors import InternalCheckError, NotRealJError
from .isogenies import RatMatrix2, odd_isogeny
from .modular import j_numeric, j_of_tau, t_representative
from .quadorders import (
    canonical_generator,
    order_discriminant,
    parity,
    quad_order,
    trace_lattice,
)


def _parse_triple(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("expected three comma-separated integers a,b,c")
    a, b, c = (int(p.strip()) for p in parts)
    return TauExact(a, b, c)


def _parse_matrix(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("expected four comma-separated rationals a,b,c,d")
    return RatMatrix2(*parts)


def _cmd_classify(args) -> tuple[dict, list]:
    tau = _parse_triple(args.tau)
    order = order_of_tau(tau)
    par = parity_of_tau(tau)
    # one reduction and one j give both the verdict and the locus point
    try:
        rep = t_representative(tau)
    except NotRealJError:
        rep = None
    real = rep is not None
    record = {
        "a": tau.a,
        "b": tau.b,
        "c": tau.c,
        "disc": tau.disc,
        "d": order.d.value,
        "f": order.conductor,
        "parity": par.value,
        "real_j": real,
    }
    if real:
        record["branch"] = rep.branch
        record["t"] = _json_float(rep.t)
    return record, [list(record.items())[3:]]  # the text line leaves out the triple


def _cmd_order(args) -> tuple[dict, list]:
    order = quad_order(args.squarefree, args.conductor)
    canon = canonical_generator(order)
    record = {
        "d": order.d.value,
        "f": order.conductor,
        "disc": order_discriminant(order),
        "parity": parity(order).value,
        "trace_lattice": "Z" if trace_lattice(order) == 1 else "2Z",
        "canonical_kind": canon.kind.value,
        "canonical_radicand": canon.radicand,
    }
    line = [
        ("disc", record["disc"]),
        ("parity", record["parity"]),
        ("trace", record["trace_lattice"]),
        ("canonical", f"{canon.kind.value}({canon.radicand})"),
    ]
    return record, [line]


def _cmd_enumerate(args) -> tuple[dict, list]:
    points = enumerate_real_odd_cm(args.disc)
    entries = [
        {"beta": p.beta, "a": p.tau.a, "b": p.tau.b, "c": p.tau.c, "j": _json_float(p.j_estimate)}
        for p in points
    ]
    lines = [[("disc", args.disc), ("count", len(entries)), ("min_j_gap", min_j_gap(points))]]
    lines += [
        [("beta", e["beta"]), ("tau", f"({e['a']},{e['b']},{e['c']})"), ("j", e["j"])]
        for e in entries
    ]
    return {"disc": args.disc, "count": len(entries), "entries": entries}, lines


def _cmd_isogeny(args) -> tuple[dict, list]:
    matrix = _parse_matrix(args.matrix)
    tau = _parse_triple(args.tau)
    iso = odd_isogeny(matrix, tau)
    moved = iso.source_tau
    record = {
        "degree": iso.degree,
        "multiplier": str(iso.u),
        "source": f"({moved.a},{moved.b},{moved.c})",
        "target": f"({tau.a},{tau.b},{tau.c})",
        "source_disc": moved.disc,
        "target_disc": tau.disc,
    }
    line = [
        ("degree", record["degree"]),
        ("u", record["multiplier"]),
        ("source", record["source"]),
        ("target", record["target"]),
    ]
    return record, [line]


def _cmd_jvalue(args) -> tuple[dict, list]:
    if (args.tau is None) == (args.point is None):
        raise ValueError("give exactly one of --tau or --point")
    if args.tau is not None:
        j = j_of_tau(_parse_triple(args.tau))
    else:
        parts = args.point.split(",")
        if len(parts) != 2:
            raise ValueError("expected --point re,im")
        j = j_numeric(complex(float(parts[0]), float(parts[1])))
    record = {"re_j": _json_float(j.real), "im_j": _json_float(j.imag)}
    return record, [[("j_re", j.real), ("j_im", j.imag)]]


def _cmd_density(args) -> tuple[None, list]:
    cfg = DensityConfig(
        base=_parse_triple(args.base),
        denom_bound=args.max_denominator,
        bin_width=args.bin_width,
        seed=args.seed,
        draws=args.draws,
    )
    runner = {"odd": sample_odd, "even": sample_even, "complex": sample_complex}[args.mode]
    report = runner(cfg)
    payload = emit(report, args.format)
    summary = [
        ("samples", len(report.samples)),
        ("min_j", report.min_j),
        ("max_j", report.max_j),
        ("bins_hit", report.bins_hit),
        ("all_below_1728", report.all_below_1728),
    ]
    if args.mode == "complex":
        summary.append(("seed", report.seed))
    del report  # its samples need not outlive the payload's bytes
    if args.out == "-":
        sys.stdout.buffer.write(payload)
    else:
        with open(args.out, "wb") as handle:
            handle.write(payload)
    return None, [summary]


@functools.cache  # building it costs more than most commands do
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmparity",
        description="Parity of CM points, odd isogenies, and real j-invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify an exact CM point a,b,c")
    p.add_argument("--tau", required=True, help="triple a,b,c with a*t^2+b*t+c=0")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("order", help="describe the order of conductor f in Q(sqrt(d))")
    p.add_argument("--squarefree", type=int, required=True, help="squarefree d")
    p.add_argument("--conductor", type=int, required=True, help="conductor f >= 1")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_order)

    p = sub.add_parser(
        "enumerate", help="list real CM j-invariants of an odd discriminant"
    )
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("isogeny", help="construct an odd-degree isogeny")
    p.add_argument("--matrix", required=True, help="entries a,b,c,d (rationals)")
    p.add_argument("--tau", required=True, help="target point triple a,b,c")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_isogeny)

    p = sub.add_parser("jvalue", help="numeric j-invariant of a point")
    p.add_argument("--tau", help="exact triple a,b,c")
    p.add_argument("--point", help="numeric point re,im")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_jvalue)

    p = sub.add_parser("density", help="run a coverage experiment")
    p.add_argument("--mode", choices=["odd", "even", "complex"], required=True)
    p.add_argument("--base", required=True, help="base point triple a,b,c")
    p.add_argument("--max-denominator", type=int, default=9)
    p.add_argument("--draws", type=int, default=1000, help="complex mode draw count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bin-width", type=float, default=100.0)
    p.add_argument("--out", default="-", help="output path, or - for stdout")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(handler=_cmd_density, json=False)

    return parser


def _text(value) -> str:
    """One value as every text line prints it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt_float(value)
    return "n/a" if value is None else str(value)


def main(argv: list[str] | None = None) -> int:
    """Run one command, print what its handler returns, give the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        record, lines = args.handler(args)
        if args.json:
            print(json.dumps(record))
        else:
            for line in lines:
                print(" ".join(f"{label}={_text(value)}" for label, value in line))
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
