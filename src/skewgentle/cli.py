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

Each command is declared once, in ``_COMMANDS``.  ``_read_argv`` reads a
plainly written command line from that table; anything else (help, an
abbreviation, ``--opt=value``, ``--``, a repeated option, every usage error)
goes to the argparse parser built from the same table on first need, so help
and usage wording stay argparse's own.  ``run`` loads the input once and
hands the triple to the command's handler.
"""

from __future__ import annotations

import os
import sys
from functools import cache
from types import SimpleNamespace

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


_TARGETS = {"sp": "sp_pair", "sg": "sg_presentation", "g": "g_presentation"}
# Renderers by name, looked up in this module at each call, so a rebinding of
# the module's name (a tracer's or a test's wrapper) is the one called.
_FORMATS = {"text": "report_text", "dot": "to_dot", "json": "report_json"}


def _renderer(fmt):
    return globals()[_FORMATS[fmt]]


class _UsageError(Exception):
    pass


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
    out.write(_renderer(args.format)(t.validation, name=t.name))
    return 0 if t.validation.skewed_gentle else 1


def _cmd_construct(args, t, out):
    made = getattr(t, _TARGETS[args.target])
    out.write(_renderer(args.format)(made, name=f"{t.name}_{args.target}"))
    return 0


def _cmd_invariants(args, t, out):
    render = _renderer(args.format)
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
    out.write(_renderer(args.format)(corner_data(t, args.vertex), name=t.name))
    return 0


_SPSET_CHUNK = 4096  # sets joined and written at a time, so the text held stays bounded


def _cmd_spset(args, t, out):
    sets = admissible_special_sets(t.pair)
    for i in range(0, len(sets), _SPSET_CHUNK):
        out.write("{" + "}\n{".join(map(", ".join, sets[i:i + _SPSET_CHUNK])) + "}\n")
    return 0


_JSON = {"action": "store_const", "const": "json", "dest": "format"}

# name: (handler, help, options).  Each option's keywords go to argparse's
# add_argument as they stand, and _read_argv reads the same keywords.
_COMMANDS = {
    "validate": (_cmd_validate, "check the skewed-gentle conditions", {"--json": _JSON}),
    "construct": (_cmd_construct, "emit Q^sp, Q^sg, or Q^g", {
        "--target": {"required": True, "choices": tuple(_TARGETS)},
        "--format": {"choices": tuple(_FORMATS)}}),
    "invariants": (_cmd_invariants, "cycles, descriptors, gldim flags", {
        "--json": _JSON, "--dims": {"action": "store_true", "dest": "oracle"}}),
    "dim": (_cmd_dim, "algebra dimension", {
        "--algebra": {"required": True, "choices": ("gentle", "sg", "g")},
        "--oracle": {"action": "store_true"}}),
    "reduce": (_cmd_reduce, "corner data for one special vertex", {
        "--vertex": {"required": True}, "--json": _JSON}),
    "spset": (_cmd_spset, "admissible special subsets of the pair", {}),
}
_DEFAULTS = {"format": "text", "oracle": False}  # every command's, before its options


def _read_argv(argv):
    """The namespace argparse gives for a plainly written ``argv``, read in one
    pass: a command, one operand, and each of its options at most once and
    spelled in full, with a value from its choices.  None for anything else,
    which argparse then reads or diagnoses."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    handler, _, options = _COMMANDS[argv[0]]
    args = {"command": argv[0], "handler": handler, **_DEFAULTS}
    operands, seen, words = [], set(), iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            operands.append(word)
            continue
        spec = options.get(word)
        if spec is None or word in seen:
            return None
        seen.add(word)
        if "action" in spec:
            value = spec.get("const", True)
        else:
            value = next(words, "-")  # a missing value reads as "-" and is refused
            if value.startswith("-") or value not in spec.get("choices", (value,)):
                return None
        args[spec.get("dest", word[2:])] = value
    if len(operands) != 1 or any(spec.get("required") and flag not in seen
                                 for flag, spec in options.items()):
        return None
    return SimpleNamespace(file=operands[0], **args)


# Built once, on first need: importing argparse and building the seven parsers
# costs more than a small command itself.
@cache
def _build_parser():
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(message)

    p = _Parser(prog="skewgentle", description=_DESCRIPTION, epilog=_EPILOG)
    # not required: with a required command, argparse reports the missing
    # command before an unknown option such as `skewgentle --bogus`
    sub = p.add_subparsers(dest="command")
    for name, (handler, help, options) in _COMMANDS.items():
        # defaults set before the options are added become the options' defaults
        c = sub.add_parser(name, help=help)
        c.set_defaults(handler=handler, **_DEFAULTS)
        c.add_argument("file")
        for flag, spec in options.items():
            c.add_argument(flag, **spec)
    return p


def run(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _read_argv(argv)
        if args is None:
            from contextlib import redirect_stdout

            with redirect_stdout(out):  # argparse prints --help to sys.stdout
                args = _build_parser().parse_args(argv)
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
