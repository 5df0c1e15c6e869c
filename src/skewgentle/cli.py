"""Command-line front end.

Exit codes: 0 success, 1 validation failed, 2 parse error, 3 limit
exceeded, 4 usage error.  Diagnostics go to stderr, data to stdout, and
every command is deterministic: the same file yields byte-identical output.
The environment variable QSG_ORACLE_CAP, a positive integer, overrides the
oracle path cap.

This module holds no output format: it parses arguments, loads the input,
reads the oracle cap and maps errors to exit codes.  Every report and
presentation is rendered by ``reports``; ``dim`` and ``spset`` print bare
values, one per line.

The argument parser is built once, at import, and names each command's
handler; ``run`` loads the input once and hands the triple to it.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import redirect_stdout

from .algebra import DEFAULT_ORACLE_CAP, corner_data, dimension, dimension_oracle
from .dsl import parse
from .errors import (
    LimitExceeded,
    NotGentle,
    NotSkewedGentle,
    NotSpecial,
    ParseError,
    SkewGentleError,
)
from .quiver import SkewedGentleTriple
from .reports import build_invariant_report, report_json, report_text, to_dot
from .validate import admissible_special_sets


_TARGETS = {"sp": "sp_pair", "sg": "sg_presentation", "g": "g_pair"}
_FORMATS = {"text": report_text, "dot": to_dot, "json": report_json}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


_DESCRIPTION = (
    "Validate a skewed-gentle triple (Q, Sp, I) given as a quiver file, build "
    "Q^sp, Q^sg and Q^g, and compute cycles, singularity-category descriptors, "
    "gldim flags, dimensions and corner data. Diagnostics go to stderr, data to "
    "stdout, and the same file always gives byte-identical output."
)
_EPILOG = (
    "Exit codes: 0 success, 1 validation failed, 2 parse error, 3 limit exceeded, "
    "4 usage error. The environment variable QSG_ORACLE_CAP, a positive integer, "
    f"overrides the oracle path cap (default {DEFAULT_ORACLE_CAP})."
)


def _build_parser() -> _Parser:
    p = _Parser(prog="skewgentle", description=_DESCRIPTION, epilog=_EPILOG)
    # not required: with a required command, argparse reports the missing
    # command before an unknown option such as `skewgentle --bogus`
    sub = p.add_subparsers(dest="command")

    def command(name, handler, help):
        # defaults set before the options are added become the options' defaults
        c = sub.add_parser(name, help=help)
        c.set_defaults(handler=handler, format="text", oracle=False)
        c.add_argument("file")
        return c

    v = command("validate", _cmd_validate, "check the skewed-gentle conditions")
    v.add_argument("--json", action="store_const", const="json", dest="format")

    c = command("construct", _cmd_construct, "emit Q^sp, Q^sg, or Q^g")
    c.add_argument("--target", required=True, choices=tuple(_TARGETS))
    c.add_argument("--format", choices=tuple(_FORMATS))

    i = command("invariants", _cmd_invariants, "cycles, descriptors, gldim flags")
    i.add_argument("--json", action="store_const", const="json", dest="format")
    i.add_argument("--dims", action="store_true", dest="oracle")

    d = command("dim", _cmd_dim, "algebra dimension")
    d.add_argument("--algebra", required=True, choices=("gentle", "sg", "g"))
    d.add_argument("--oracle", action="store_true")

    r = command("reduce", _cmd_reduce, "corner data for one special vertex")
    r.add_argument("--vertex", required=True)
    r.add_argument("--json", action="store_const", const="json", dest="format")

    command("spset", _cmd_spset, "admissible special subsets of the pair")
    return p


def _load(path: str) -> SkewedGentleTriple:
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(
            f"input is not UTF-8: byte 0x{data[e.start]:02x} at offset {e.start}"
        ) from None
    return parse(text)


_ECHOED = 40  # characters of a bad QSG_ORACLE_CAP the usage error repeats


def _oracle_cap() -> int:
    value = os.environ.get("QSG_ORACLE_CAP")
    if not value:
        return DEFAULT_ORACLE_CAP
    digits = value.lstrip("0")
    if not (value.isascii() and value.isdigit() and digits):
        shown = repr(value[:_ECHOED])
        if len(value) > _ECHOED:
            shown += f"... ({len(value)} characters)"
        raise _UsageError(f"QSG_ORACLE_CAP must be a positive integer, got {shown}")
    # int() refuses thousands of digits on some interpreters, and a cap of 19
    # digits is already beyond any path count a run can reach
    return int(digits) if len(digits) < 19 else sys.maxsize


def _cmd_validate(args, t, out):
    out.write(_FORMATS[args.format](t.validation, name=t.name))
    return 0 if t.validation.skewed_gentle else 1


def _cmd_construct(args, t, out):
    made = getattr(t, _TARGETS[args.target])
    out.write(_FORMATS[args.format](made, name=f"{t.name}_{args.target}"))
    return 0


def _cmd_invariants(args, t, out):
    render = _FORMATS[args.format]
    if not t.validation.skewed_gentle:
        out.write(render(t.validation, name=t.name))
        return 1
    out.write(render(build_invariant_report(t, with_dims=args.oracle, oracle_cap=args.cap)))
    return 0


def _cmd_dim(args, t, out):
    value = dimension(t, args.algebra)
    print(value, file=out)
    if args.oracle:
        oracle = dimension_oracle(t, args.algebra, cap=args.cap)
        print(f"oracle: {oracle}", file=out)
        if oracle != value:
            raise SkewGentleError(
                f"dimension {value} disagrees with oracle {oracle}"
            )
    return 0


def _cmd_reduce(args, t, out):
    out.write(_FORMATS[args.format](corner_data(t, args.vertex), name=t.name))
    return 0


def _cmd_spset(args, t, out):
    out.writelines("{" + ", ".join(subset) + "}\n" for subset in admissible_special_sets(t.pair))
    return 0


# Built once: parse_args fills a new namespace and leaves the parser as it was,
# and building the seven parsers costs more than a small command itself.
_PARSER = _build_parser()


def run(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        with redirect_stdout(out):  # argparse prints --help to sys.stdout
            args = _PARSER.parse_args(argv)
        if args.command is None:
            raise _UsageError("the following arguments are required: command")
        # the cap is read before the input, so a bad cap wins over a bad file
        args.cap = _oracle_cap() if args.oracle else DEFAULT_ORACLE_CAP
        try:
            t = _load(args.file)
        except OSError as e:  # only the read: the handler's OSError is a failed write
            print(f"cannot read input: {e}", file=err)
            return 2
        code = args.handler(args, t, out)
        out.flush()
        return code
    except SystemExit:  # only --help exits; a usage error raises _UsageError
        return 0
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
        print(f"error: cannot write output: {e}", file=err)
        return 1
    except SkewGentleError as e:
        print(f"error: {e}", file=err)
        return 1


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except OSError:
        # a closed stdout (`skewgentle spset FILE | head -1`) is already
        # reported; point it at devnull so the exit flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
