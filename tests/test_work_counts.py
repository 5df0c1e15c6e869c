"""Each triple is decided once, each derived pair is built once per command,
paths are listed only where the output lists them, and source positions are
computed only for a diagnostic."""

import io
import sys

import pytest

from conftest import fixture_path

from skewgentle import ParseError, algebra, construct, dsl, quiver, validate
from skewgentle.cli import run


def _count_calls(monkeypatch, fn):
    """Route every package reference to ``fn`` through a recorder of (arg, result)."""
    calls = []

    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append((args[0], result))
        return result

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "skewgentle" and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


@pytest.mark.parametrize("argv,triples", [
    (["invariants", "FILE", "--dims", "--json"], 1),
    (["reduce", "FILE", "--vertex", "2"], 2),  # the triple and its reduced triple
])
def test_one_decision_per_triple(monkeypatch, argv, triples):
    decisions = _count_calls(monkeypatch, validate.validate_skewed_gentle)
    sp_builds = _count_calls(monkeypatch, construct.build_sp_pair)
    gentle_checks = _count_calls(monkeypatch, validate.is_gentle)
    argv = [str(fixture_path("fix_a2.q")) if a == "FILE" else a for a in argv]

    assert run(argv, out=io.StringIO(), err=io.StringIO()) == 0

    assert len(decisions) == triples
    assert len(sp_builds) == triples
    checked = [bq for bq, _ in gentle_checks]
    assert len({id(bq) for bq in checked}) == len(checked), "a pair was checked twice"
    for _, sp in sp_builds:
        assert sum(bq is sp for bq in checked) == 1


@pytest.mark.parametrize("argv,listings", [
    (["dim", "FILE", "--algebra", "gentle"], 0),
    (["dim", "FILE", "--algebra", "sg"], 0),
    (["dim", "FILE", "--algebra", "g"], 0),
    (["invariants", "FILE", "--dims", "--json"], 0),
    (["reduce", "FILE", "--vertex", "2"], 1),  # the basis printed as t1/t2
])
def test_paths_listed_only_for_the_basis(monkeypatch, argv, listings):
    listed = _count_calls(monkeypatch, quiver.relation_free_paths)
    bases = _count_calls(monkeypatch, algebra.basis)
    argv = [str(fixture_path("fix_a2.q")) if a == "FILE" else a for a in argv]

    assert run(argv, out=io.StringIO(), err=io.StringIO()) == 0

    assert len(listed) == listings
    assert len(bases) == listings
    for (bq, _), (t, _) in zip(listed, bases):
        assert bq is t.admissible_pair


def test_parse_builds_a_source_span_only_for_a_diagnostic(monkeypatch):
    made, source_span = [], dsl.SourceSpan

    def counted(*args):
        made.append(args)
        return source_span(*args)

    monkeypatch.setattr(dsl, "SourceSpan", counted)
    dsl.parse(fixture_path("fix_a2.q").read_text(encoding="utf-8"))
    assert made == []

    with pytest.raises(ParseError):
        dsl.parse("quiver C {\n}")
    assert made == [(2, 2, 1)]
