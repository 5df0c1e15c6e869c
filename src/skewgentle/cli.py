"""Command-line front end.

Exit codes: 0 success, 1 validation failed, 2 parse error, 3 limit
exceeded, 4 usage error.  Diagnostics go to stderr, data to stdout, and
every command is deterministic: the same file yields byte-identical output.
The environment variable QSG_ORACLE_CAP, a positive integer, overrides the
oracle path cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .algebra import DEFAULT_ORACLE_CAP, corner_data, dimension, dimension_oracle
from .dsl import parse, serialize
from .errors import (
    LimitExceeded,
    NotGentle,
    NotSkewedGentle,
    NotSpecial,
    ParseError,
    SkewGentleError,
)
from .quiver import SkewedGentleTriple
from .reports import (
    build_invariant_report,
    descriptor_pretty,
    report_json,
    to_dot,
)
from .validate import admissible_special_sets


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="skewgentle", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check the skewed-gentle conditions")
    v.add_argument("file")
    v.add_argument("--json", action="store_true")

    c = sub.add_parser("construct", help="emit Q^sp, Q^sg, or Q^g")
    c.add_argument("file")
    c.add_argument("--target", required=True, choices=("sp", "sg", "g"))
    c.add_argument("--format", default="text", choices=("text", "dot", "json"))

    i = sub.add_parser("invariants", help="cycles, descriptors, gldim flags")
    i.add_argument("file")
    i.add_argument("--json", action="store_true")
    i.add_argument("--dims", action="store_true")

    d = sub.add_parser("dim", help="algebra dimension")
    d.add_argument("file")
    d.add_argument("--algebra", required=True, choices=("gentle", "sg", "g"))
    d.add_argument("--oracle", action="store_true")

    r = sub.add_parser("reduce", help="corner data for one special vertex")
    r.add_argument("file")
    r.add_argument("--vertex", required=True)
    r.add_argument("--json", action="store_true")

    s = sub.add_parser("spset", help="admissible special subsets of the pair")
    s.add_argument("file")
    return p


def _load(path: str) -> SkewedGentleTriple:
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(
            f"input is not UTF-8: byte 0x{data[e.start]:02x} at offset {e.start}"
        ) from None
    return parse(text)


def _oracle_cap() -> int:
    value = os.environ.get("QSG_ORACLE_CAP")
    if not value:
        return DEFAULT_ORACLE_CAP
    if not (value.isascii() and value.isdigit()) or int(value) == 0:
        raise _UsageError(f"QSG_ORACLE_CAP must be a positive integer, got {value!r}")
    return int(value)


def _flags_line(rep):
    def yn(b):
        return "yes" if b else "no"

    return (f"flags: special_biserial={yn(rep.special_biserial)}"
            f" gentle={yn(rep.gentle)}"
            f" finite_dimensional={yn(rep.finite_dimensional)}"
            f" skewed_gentle={yn(rep.skewed_gentle)}")


def _print_validation(t, rep, out):
    print(f"name: {t.name}", file=out)
    print(_flags_line(rep), file=out)
    for v in rep.violations:
        print(f"violation {v.rule}: {', '.join(v.items)}", file=out)


def _cmd_validate(args, out):
    t = _load(args.file)
    rep = t.validation
    if args.json:
        out.write(report_json(rep, name=t.name))
    else:
        _print_validation(t, rep, out)
    return 0 if rep.skewed_gentle else 1


def _cmd_construct(args, out):
    t = _load(args.file)
    if args.target == "sp":
        pair = t.sp_pair
        made = SkewedGentleTriple(pair, frozenset(), name=f"{t.name}_sp")
        if args.format == "text":
            out.write(serialize(made) + "\n")
        elif args.format == "dot":
            out.write(to_dot(pair, name=made.name))
        else:
            out.write(_pair_json(made))
    elif args.target == "g":
        labels = t.g_pair
        made = SkewedGentleTriple(labels.pair, frozenset(), name=f"{t.name}_g")
        if args.format == "text":
            out.write(serialize(made) + "\n")
        elif args.format == "dot":
            out.write(to_dot(labels, name=made.name))
        else:
            out.write(_pair_json(made))
    else:
        pres = t.sg_presentation
        if args.format == "text":
            _print_sg(t, pres, out)
        elif args.format == "dot":
            out.write(to_dot(pres, name=f"{t.name}_sg"))
        else:
            out.write(_sg_json(t, pres))
    return 0


def _pair_json(made):
    q = made.pair.quiver
    payload = {
        "name": made.name,
        "vertices": list(q.vertex_list),
        "arrows": [
            {"name": a.name, "source": a.source, "target": a.target} for a in q.arrows
        ],
        "relations": sorted(f"{x}*{y}" for x, y in made.pair.relations),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _sg_json(t, pres):
    payload = {
        "name": f"{t.name}_sg",
        "vertices": list(pres.vertex_names),
        "arrows": [
            {"name": a.name, "base": a.base, "source": a.source, "target": a.target}
            for a in sorted(pres.arrows, key=lambda a: a.name)
        ],
        "zero_relations": sorted(f"{x}*{y}" for x, y in pres.zero_relations),
        "comm_relations": [
            {"plus": f"{c.plus[0]}*{c.plus[1]}", "minus": f"{c.minus[0]}*{c.minus[1]}"}
            for c in sorted(pres.comm_relations, key=lambda c: c.plus)
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _print_sg(t, pres, out):
    print(f"sg-presentation {t.name}_sg", file=out)
    print(f"vertices: {', '.join(pres.vertex_names)}", file=out)
    arrows = ", ".join(
        f"{a.name}: {a.source} -> {a.target}"
        for a in sorted(pres.arrows, key=lambda a: a.name)
    )
    print(f"arrows: {arrows}", file=out)
    print(f"zero: {', '.join(sorted(f'{x}*{y}' for x, y in pres.zero_relations))}", file=out)
    comm = ", ".join(
        f"{c.plus[0]}*{c.plus[1]} = {c.minus[0]}*{c.minus[1]}"
        for c in sorted(pres.comm_relations, key=lambda c: c.plus)
    )
    print(f"comm: {comm}", file=out)


def _cmd_invariants(args, out):
    cap = _oracle_cap() if args.dims else None
    t = _load(args.file)
    rep = t.validation
    if not rep.skewed_gentle:
        if args.json:
            out.write(report_json(rep, name=t.name))
        else:
            _print_validation(t, rep, out)
        return 1
    report = build_invariant_report(t, with_dims=args.dims, oracle_cap=cap)
    if args.json:
        out.write(report_json(report))
        return 0
    _print_validation(t, rep, out)
    for c in report.cycles:
        print(f"cycle: [{', '.join(c.arrows)}] length={c.length} parity={c.parity}", file=out)
    for which in ("gentle", "sg", "g"):
        d = report.descriptors[which]
        shifts = "{" + ", ".join(str(n) for n in d.shifts) + "}"
        print(f"descriptor {which}: {shifts} = {descriptor_pretty(d)}", file=out)
    flags = " ".join(
        f"{k}={'yes' if v else 'no'}" for k, v in sorted(report.gldim_finite.items())
    )
    print(f"gldim_finite: {flags}", file=out)
    if report.dims is not None:
        dims = " ".join(f"{k}={v}" for k, v in sorted(report.dims.items()))
        print(f"dims: {dims}", file=out)
    return 0


def _cmd_dim(args, out):
    cap = _oracle_cap() if args.oracle else None
    t = _load(args.file)
    value = dimension(t, args.algebra)
    print(value, file=out)
    if args.oracle:
        oracle = dimension_oracle(t, args.algebra, cap=cap)
        print(f"oracle: {oracle}", file=out)
        if oracle != value:
            raise SkewGentleError(
                f"dimension {value} disagrees with oracle {oracle}"
            )
    return 0


def _cmd_reduce(args, out):
    t = _load(args.file)
    data = corner_data(t, args.vertex)
    if args.json:
        out.write(report_json(data, name=t.name))
        return 0
    print(f"name: {t.name} vertex: {data.special_vertex}", file=out)
    print(f"dim gamma: {data.dim_gamma}", file=out)
    print(f"dim gamma': {data.dim_gamma_prime}", file=out)
    print(f"dim A: {data.dim_a}", file=out)
    print(f"dim M: {data.dim_m} (M'={data.dim_m_prime})", file=out)
    print(f"dim N: {data.dim_n} (N'={data.dim_n_prime})", file=out)
    print(f"dim im phi: {data.dim_im_phi}", file=out)
    print(f"identity: {'holds' if data.identity_holds else 'FAILS'}", file=out)
    return 0


def _cmd_spset(args, out):
    t = _load(args.file)
    for subset in admissible_special_sets(t.pair):
        print("{" + ", ".join(subset) + "}", file=out)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "construct": _cmd_construct,
    "invariants": _cmd_invariants,
    "dim": _cmd_dim,
    "reduce": _cmd_reduce,
    "spset": _cmd_spset,
}


def run(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=err)
        return 4
    except SystemExit as e:  # --help prints and exits
        return 0 if e.code in (0, None) else 4
    try:
        return _COMMANDS[args.command](args, out)
    except _UsageError as e:
        print(f"usage error: {e}", file=err)
        return 4
    except ParseError as e:
        print(f"parse error: {e}", file=err)
        return 2
    except LimitExceeded as e:
        print(f"limit exceeded: {e}", file=err)
        return 3
    except (NotGentle, NotSkewedGentle, NotSpecial) as e:
        print(f"validation failed: {e}", file=err)
        return 1
    except OSError as e:
        print(f"cannot read input: {e}", file=err)
        return 2
    except SkewGentleError as e:
        print(f"error: {e}", file=err)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
