"""Command-line front end.

Subcommands: classify, order, enumerate, isogeny, density, jvalue. Exit codes:
0 on success, 2 on usage or validation errors, 1 on internal-assertion
failures (which indicate a defect, not bad input). Identical invocations
produce byte-identical output; randomized runs record their seed.

Each handler returns (record, lines) and main alone prints them: the record
as one JSON object under --json, otherwise each line, a list of (label,
value) pairs, as space-joined label=value. density writes its CSV or JSON
payload itself and returns no record, only its summary line.

Importing this module loads no layer of the package: each handler imports the
layers it uses as modules, and calls through them, the first time it runs.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import InternalCheckError, NotRealJError


def _parse_triple(text: str):
    import cmparity.cmpoints as cmpoints

    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("expected three comma-separated integers a,b,c")
    a, b, c = (int(p.strip()) for p in parts)
    return cmpoints.TauExact(a, b, c)


def _parse_matrix(text: str):
    import cmparity.isogenies as isogenies

    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("expected four comma-separated rationals a,b,c,d")
    return isogenies.RatMatrix2(*parts)


def _cmd_classify(args) -> tuple[dict, list]:
    import cmparity.cmpoints as cmpoints
    import cmparity.modular as modular

    tau = _parse_triple(args.tau)
    order = cmpoints.order_of_tau(tau)
    par = cmpoints.parity_of_tau(tau)
    # one reduction and one j give both the verdict and the locus point
    try:
        rep = modular.t_representative(tau)
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
        record["t"] = modular._json_float(rep.t)
    return record, [list(record.items())[3:]]  # the text line leaves out the triple


def _cmd_order(args) -> tuple[dict, list]:
    import cmparity.quadorders as quadorders

    order = quadorders.quad_order(args.squarefree, args.conductor)
    canon = quadorders.canonical_generator(order)
    record = {
        "d": order.d.value,
        "f": order.conductor,
        "disc": quadorders.order_discriminant(order),
        "parity": quadorders.parity(order).value,
        "trace_lattice": "Z" if quadorders.trace_lattice(order) == 1 else "2Z",
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
    import cmparity.enumeration as enumeration
    import cmparity.modular as modular

    points = enumeration.enumerate_real_odd_cm(args.disc)
    entries = [
        {"beta": p.beta, "a": p.tau.a, "b": p.tau.b, "c": p.tau.c,
         "j": modular._json_float(p.j_estimate)}
        for p in points
    ]
    gap = enumeration.min_j_gap(points)
    lines = [[("disc", args.disc), ("count", len(entries)), ("min_j_gap", gap)]]
    lines += [
        [("beta", e["beta"]), ("tau", f"({e['a']},{e['b']},{e['c']})"), ("j", e["j"])]
        for e in entries
    ]
    return {"disc": args.disc, "count": len(entries), "entries": entries}, lines


def _cmd_isogeny(args) -> tuple[dict, list]:
    import cmparity.isogenies as isogenies

    matrix = _parse_matrix(args.matrix)
    tau = _parse_triple(args.tau)
    iso = isogenies.odd_isogeny(matrix, tau)
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
    import cmparity.modular as modular

    if (args.tau is None) == (args.point is None):
        raise ValueError("give exactly one of --tau or --point")
    if args.tau is not None:
        j = modular.j_of_tau(_parse_triple(args.tau))
    else:
        parts = args.point.split(",")
        if len(parts) != 2:
            raise ValueError("expected --point re,im")
        j = modular.j_numeric(complex(float(parts[0]), float(parts[1])))
    record = {"re_j": modular._json_float(j.real), "im_j": modular._json_float(j.imag)}
    return record, [[("j_re", j.real), ("j_im", j.imag)]]


def _cmd_density(args) -> tuple[None, list]:
    import cmparity.density as density

    cfg = density.DensityConfig(
        base=_parse_triple(args.base),
        denom_bound=args.max_denominator,
        bin_width=args.bin_width,
        seed=args.seed,
        draws=args.draws,
    )
    runner = {
        "odd": density.sample_odd,
        "even": density.sample_even,
        "complex": density.sample_complex,
    }[args.mode]
    report = runner(cfg)
    payload = density.emit(report, args.format)
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
        import cmparity.modular as modular  # loaded already by the command that made a float

        return modular.fmt_float(value)
    return "n/a" if value is None else str(value)


def main(argv: list[str] | None = None) -> int:
    """Run one command, print what its handler returns, give the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        record, lines = args.handler(args)
        if args.json:
            import json

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
