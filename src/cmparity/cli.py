"""Command-line front end.

Subcommands: classify, order, enumerate, isogeny, density, jvalue. Exit codes:
0 on success, 2 on usage or validation errors, 1 on internal-assertion
failures (which indicate a defect, not bad input). Identical invocations
produce byte-identical output; randomized runs record their seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .cmpoints import TauExact, order_of_tau, parity_of_tau
from .density import (
    DensityConfig,
    Mode,
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


def _cmd_classify(args) -> int:
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
        record["t"] = float(fmt_float(rep.t))
    if args.json:
        print(json.dumps(record))
    else:
        pieces = [
            f"disc={record['disc']}",
            f"d={record['d']}",
            f"f={record['f']}",
            f"parity={record['parity']}",
            f"real_j={'true' if real else 'false'}",
        ]
        if real:
            pieces += [f"branch={record['branch']}", f"t={fmt_float(record['t'])}"]
        print(" ".join(pieces))
    return 0


def _cmd_order(args) -> int:
    order = quad_order(args.squarefree, args.conductor)
    disc = order_discriminant(order)
    par = parity(order)
    canon = canonical_generator(order)
    trace = trace_lattice(order)
    record = {
        "d": order.d.value,
        "f": order.conductor,
        "disc": disc,
        "parity": par.value,
        "trace_lattice": "Z" if trace == 1 else "2Z",
        "canonical_kind": canon.kind.value,
        "canonical_radicand": canon.radicand,
    }
    if args.json:
        print(json.dumps(record))
    else:
        print(
            f"disc={disc} parity={par.value} trace={record['trace_lattice']} "
            f"canonical={canon.kind.value}({canon.radicand})"
        )
    return 0


def _cmd_enumerate(args) -> int:
    points = enumerate_real_odd_cm(args.disc)
    entries = [
        {
            "beta": p.beta,
            "a": p.tau.a,
            "b": p.tau.b,
            "c": p.tau.c,
            "j": float(fmt_float(p.j_estimate)),
        }
        for p in points
    ]
    if args.json:
        print(json.dumps({"disc": args.disc, "count": len(entries), "entries": entries}))
    else:
        print(f"disc={args.disc} count={len(entries)} min_j_gap={fmt_float(min_j_gap(points))}")
        for e in entries:
            print(
                f"beta={e['beta']} tau=({e['a']},{e['b']},{e['c']}) j={fmt_float(e['j'])}"
            )
    return 0


def _cmd_isogeny(args) -> int:
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
    if args.json:
        print(json.dumps(record))
    else:
        print(
            f"degree={iso.degree} u={iso.u} source={record['source']} "
            f"target={record['target']}"
        )
    return 0


def _cmd_jvalue(args) -> int:
    if (args.tau is None) == (args.point is None):
        print("error: give exactly one of --tau or --point", file=sys.stderr)
        return 2
    if args.tau is not None:
        j = j_of_tau(_parse_triple(args.tau))
    else:
        parts = args.point.split(",")
        if len(parts) != 2:
            raise ValueError("expected --point re,im")
        j = j_numeric(complex(float(parts[0]), float(parts[1])))
    if args.json:
        print(json.dumps({"re_j": float(fmt_float(j.real)), "im_j": float(fmt_float(j.imag))}))
    else:
        print(f"j_re={fmt_float(j.real)} j_im={fmt_float(j.imag)}")
    return 0


def _cmd_density(args) -> int:
    mode = Mode(args.mode)
    cfg = DensityConfig(
        mode=mode,
        base=_parse_triple(args.base),
        denom_bound=args.max_denominator,
        bin_width=args.bin_width,
        seed=args.seed,
        draws=args.draws,
    )
    runner = {
        Mode.ODD_REAL: sample_odd,
        Mode.EVEN_REAL: sample_even,
        Mode.COMPLEX: sample_complex,
    }[mode]
    report = runner(cfg)
    payload = emit(report, args.format)
    summary = (
        f"samples={len(report.samples)} "
        f"min_j={'n/a' if report.min_j is None else fmt_float(report.min_j)} "
        f"max_j={'n/a' if report.max_j is None else fmt_float(report.max_j)} "
        f"bins_hit={report.bins_hit} "
        f"all_below_1728={'true' if report.all_below_1728 else 'false'}"
    )
    if mode is Mode.COMPLEX:
        summary += f" seed={report.seed}"
    del report  # its samples need not outlive the payload's bytes
    if args.out == "-":
        sys.stdout.buffer.write(payload)
    else:
        with open(args.out, "wb") as handle:
            handle.write(payload)
    print(summary)
    return 0


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
    p.set_defaults(handler=_cmd_density)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
