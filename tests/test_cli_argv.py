"""The one-pass command-line reader agrees with argparse.

Whenever ``_read_argv`` reads an argv itself, argparse must give a namespace
with the same fields for it.  Argv are drawn, seeded, from a pool of command
and option names, abbreviations, ``--opt=value`` forms, ``--``, ``-h``,
operands that start with a dash, empty strings and repeated or missing
options.  Every form of the README's command-line synopsis, options spelled
in full, must be read without argparse.
"""

import itertools
import random
import re
from pathlib import Path

from skewgentle.cli import _COMMANDS, _build_parser, _read_argv

README = Path(__file__).resolve().parents[1] / "README.md"

_NAMES = (*_COMMANDS, "frobnicate", "val", "")
_OPTIONS = ("--json", "--target", "--format", "--dims", "--algebra", "--oracle", "--vertex",
            "--alg", "--t", "--form", "--js", "--d", "--o", "--ver", "--bogus",
            "--algebra=sg", "--target=g", "--format=json", "--vertex=2", "--json=x",
            "--", "-h", "--help", "-1", "-")
_VALUES = ("sp", "sg", "g", "gentle", "text", "dot", "json", "xml", "2", "v0", "SG")
_OPERANDS = ("a.q", "b.q", "", "-x.q", "-", "validate", "--", "has space")


def _draw(rng):
    """A command, then operands, its own options with a value drawn mostly from
    their choices, and noise from the pools."""
    command = rng.choice(tuple(_COMMANDS))
    options = _COMMANDS[command][2]
    argv = [command if rng.random() < 0.9 else rng.choice(_NAMES)]
    for _ in range(rng.randrange(7)):
        kind = rng.randrange(5)
        if kind < 2 and options:
            flag, spec = rng.choice(tuple(options.items()))
            argv.append(flag)
            if "action" not in spec and rng.random() < 0.9:
                argv.append(rng.choice(spec.get("choices", _VALUES)
                                       if rng.random() < 0.8 else _VALUES + _OPERANDS))
        else:
            argv.append(rng.choice((_OPERANDS, _OPERANDS, _OPERANDS, _OPTIONS, _VALUES)[kind]))
    if rng.random() < 0.1:
        rng.shuffle(argv)
    return argv


def _agrees(argv):
    args = _read_argv(argv)
    if args is not None:
        assert vars(args) == vars(_build_parser().parse_args(argv)), argv
    return args is not None


def test_reader_agrees_with_argparse_on_random_argv():
    rng = random.Random(18)
    accepted = [argv for argv in (_draw(rng) for _ in range(40000)) if _agrees(argv)]
    # the reader reads a share of the draws itself, for every command
    assert len(accepted) > 1000
    assert {argv[0] for argv in accepted} == set(_COMMANDS)


def _synopsis_forms():
    """Each README synopsis line with every choice of its optional options and
    of its alternatives, FILE and V filled in."""
    block = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    lines = block.split("```")[1].strip().splitlines()
    assert len(lines) == len(_COMMANDS)
    for line in lines:
        optional = re.findall(r"\[([^\]]*)\]", line)
        required = re.sub(r"\[[^\]]*\]", "", line).split()[1:]
        for kept in itertools.product((False, True), repeat=len(optional)):
            words = required + [w for group, k in zip(optional, kept) if k for w in group.split()]
            words = [{"FILE": "a.q", "V": "2"}.get(w, w).split("|") for w in words]
            yield from (list(argv) for argv in itertools.product(*words))


def test_every_synopsis_form_is_read_without_argparse():
    forms = list(_synopsis_forms())
    assert len(forms) == 27
    for argv in forms:
        assert _agrees(argv), argv
