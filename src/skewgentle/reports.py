"""Every output of the package in its three formats, plus the invariant report.

This is the one module that knows an output format.  There is one
renderer per format, ``report_text``, ``report_json`` and ``to_dot``, and
each takes every object the command line prints: a ValidationReport, an
InvariantReport, CornerData, the bound quiver Q^sp, and Q^g and Q^sg as
their presentations, GPresentation and SgPresentation.  The text form of a
pair, Q^g's included, is its canonical DSL form, as ``serialize`` writes it.

All output is deterministic: identifiers are sorted before emission and
JSON objects have sorted keys, so equal inputs give byte-identical text.

JSON is byte for byte what ``json.dumps(payload, sort_keys=True,
indent=2)`` writes for the object's payload, and every string goes through
the C ``encode_basestring_ascii``.  A bound quiver, Q^g and Q^sg, most of
the bytes, are written straight from their records, with no payload: each
list of rows (the arrows of a pair, the arrows and comm relations of Q^sg)
is one ``%`` over one row template repeated once per row, its values
encoded by one C-level ``map``, and each list of strings (vertices,
relations) is one ``map`` too.  Q^g and Q^sg are read as their plain name
tuples: arrows sort by name and comm relations by plus side, an
``itemgetter`` puts each Q^sg row's values in key order, and DOT doubles
Q^g's unsigned vertices and Q^sg's split lifts, off their lift tables.
Every other report is a payload written by ``_json``, the general
recursion, whose lists of strings take the same ``map``.  The payloads
hold only str, int, bool, None, lists, tuples and str-keyed dicts; any
other value, a float included, raises TypeError.
"""

from __future__ import annotations

from itertools import chain, starmap
from json.encoder import encode_basestring_ascii as _str
from operator import itemgetter

from .algebra import (
    DEFAULT_ORACLE_CAP,
    BasisPath,
    CornerData,
    dimension_oracle,
    dimensions,
)
from .construct import GPresentation, SgPresentation
from .cycles import (
    CycleClass,
    SingularityDescriptor,
    descriptors,
    gldim_flags,
)
from .dsl import _serialized
from .errors import InternalInconsistency
from .quiver import BoundQuiver, Record, SkewedGentleTriple, _set, relation_text
from .validate import ValidationReport


class InvariantReport(Record, eq=False):
    """Everything the tool knows about one triple, ready for rendering."""

    __slots__ = ("name", "validation", "cycles", "descriptors", "gldim_finite", "dims")

    def __init__(self, name: str, validation: ValidationReport, cycles: tuple[CycleClass, ...],
                 descriptors: dict[str, SingularityDescriptor], gldim_finite: dict[str, bool],
                 dims: dict[str, int] | None = None):
        _set(self, "name", name)
        _set(self, "validation", validation)
        _set(self, "cycles", cycles)
        _set(self, "descriptors", descriptors)
        _set(self, "gldim_finite", gldim_finite)
        _set(self, "dims", dims)


def build_invariant_report(t: SkewedGentleTriple, with_dims: bool = False,
                           oracle_cap: int = DEFAULT_ORACLE_CAP) -> InvariantReport:
    """Assemble the full report; with_dims adds the dimensions, all three
    from one counting pass, with two witnesses: the sg oracle, and for the
    g count over (Q, I1) the count of Q^g's free threads, which checks Q^g's
    lift rows gentle and finite."""
    validation = t.validation
    dims = None
    if with_dims:
        dims = dimensions(t)
        oracle = dimension_oracle(t, "sg", cap=oracle_cap)
        if oracle != dims["sg"]:
            raise InternalInconsistency(
                f"sg dimension {dims['sg']} disagrees with oracle {oracle}"
            )
        threads = t.g_presentation.dimension
        if threads != dims["g"]:
            raise InternalInconsistency(
                f"g dimension {dims['g']} disagrees with Q^g's free threads: {threads}"
            )
    found = descriptors(t)
    return InvariantReport(t.name, validation, t.cycles, found, gldim_flags(found), dims)


def descriptor_pretty(d: SingularityDescriptor) -> str:
    """Human form: orbit-category factors with their Nakayama aliases."""
    if d.is_trivial:
        return "trivial (no factors)"
    return " x ".join(f"D^b(k)/[{n}] (S_{n}-stable)" for n in d.shifts)


_FLAGS = ("special_biserial", "gentle", "finite_dimensional", "skewed_gentle")


def _yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


def _comm_text(plus, minus) -> str:
    """A comm relation, its plus side then its minus side."""
    return f"{relation_text(*plus)} = {relation_text(*minus)}"


def _name(r, name):
    """The name an output carries: the one given, else the object's own, else Q."""
    return name or getattr(r, "name", None) or "Q"


_first = itemgetter(0)


def _pair_rows(x):
    """The vertices, arrows (name, source, target) and relations written
    out of a bound quiver or of Q^g, each sorted: an arrow by its name,
    which is distinct.  Q^g's relations are sorted by their text, which
    orders them as their name pairs do, as "*" sorts below every character
    of an identifier, and compares strings instead of tuples."""
    if isinstance(x, GPresentation):
        return (sorted(chain.from_iterable(x.lifts.values())), sorted(x.arrows, key=_first),
                sorted(starmap(relation_text, x.relations.items())))
    if isinstance(x, BoundQuiver):
        return (x.quiver.vertex_list, x.quiver.arrows,
                list(starmap(relation_text, x.relation_list)))
    raise TypeError(f"cannot render {type(x).__name__}")


def _sg_view(p: SgPresentation):
    """The arrows, the zero relations written out and the comm relations, in
    output order: an arrow by its name, which is distinct, a zero relation
    by its text, as in ``_pair_rows``, and a comm relation by its plus side,
    which determines it."""
    return (sorted(p.arrows, key=_first),
            sorted(starmap(relation_text, p.zero_relations)),
            sorted(p.comm_relations, key=_first))


def _validation_lines(name, report):
    flags = " ".join(f"{f}={_yes_no(getattr(report, f))}" for f in _FLAGS)
    return [f"name: {name}", f"flags: {flags}",
            *(f"violation {v.rule}: {', '.join(v.items)}" for v in report.violations)]


def _text_lines(r, name):
    if isinstance(r, ValidationReport):
        return _validation_lines(name, r)
    if isinstance(r, InvariantReport):
        lines = _validation_lines(r.name, r.validation)
        lines += [f"cycle: [{', '.join(c.arrows)}] length={c.length} parity={c.parity}"
                  for c in r.cycles]
        for which, d in r.descriptors.items():
            shifts = "{" + ", ".join(str(n) for n in d.shifts) + "}"
            lines.append(f"descriptor {which}: {shifts} = {descriptor_pretty(d)}")
        lines.append("gldim_finite: " + " ".join(
            f"{k}={_yes_no(v)}" for k, v in sorted(r.gldim_finite.items())))
        if r.dims is not None:
            lines.append("dims: " + " ".join(f"{k}={v}" for k, v in sorted(r.dims.items())))
        return lines
    if isinstance(r, CornerData):
        return [f"name: {name} vertex: {r.special_vertex}",
                f"dim gamma: {r.dim_gamma}",
                f"dim gamma': {r.dim_gamma_prime}",
                f"dim A: {r.dim_a}",
                f"dim M: {r.dim_m} (M'={r.dim_m_prime})",
                f"dim N: {r.dim_n} (N'={r.dim_n_prime})",
                f"dim im phi: {r.dim_im_phi}",
                f"identity: {'holds' if r.identity_holds else 'FAILS'}"]
    if isinstance(r, SgPresentation):
        arrows, zero, comm = _sg_view(r)
        return [f"sg-presentation {name}",
                f"vertices: {', '.join(r.vertex_names)}",
                "arrows: " + ", ".join(f"{n}: {src} -> {tgt}" for n, _, src, tgt in arrows),
                f"zero: {', '.join(zero)}",
                f"comm: {', '.join(starmap(_comm_text, comm))}"]
    vertices, arrows, relations = _pair_rows(r)
    return [_serialized(name, vertices, (), arrows, relations)]


def report_text(r, name: str | None = None) -> str:
    """The text form, one line per fact; a pair's is its canonical DSL form."""
    return "\n".join(_text_lines(r, _name(r, name))) + "\n"


def _validation_payload(name, report):
    return {
        "name": name,
        "valid": report.skewed_gentle,
        "flags": {f: getattr(report, f) for f in _FLAGS},
        "violations": [
            {"rule": v.rule, "items": list(v.items)} for v in report.violations
        ],
    }


def _basis_path_payload(p: BasisPath):
    return {"arrows": list(p.arrows), "source": p.source, "target": p.target}


def _payload(r, name):
    if isinstance(r, ValidationReport):
        return _validation_payload(name, r)
    if isinstance(r, InvariantReport):
        payload = _validation_payload(r.name, r.validation)
        payload["cycles"] = [
            {"arrows": list(c.arrows), "length": c.length, "parity": c.parity}
            for c in r.cycles
        ]
        payload["descriptors"] = {k: list(d.shifts) for k, d in r.descriptors.items()}
        payload["gldim_finite"] = dict(r.gldim_finite)
        if r.dims is not None:
            payload["dims"] = dict(r.dims)
        return payload
    if isinstance(r, CornerData):
        return {
            "name": name,
            "vertex": r.special_vertex,
            "dims": {
                "gamma": r.dim_gamma,
                "gamma_prime": r.dim_gamma_prime,
                "A": r.dim_a,
                "M": r.dim_m,
                "N": r.dim_n,
                "im_phi": r.dim_im_phi,
                "M_prime": r.dim_m_prime,
                "N_prime": r.dim_n_prime,
            },
            "identity_holds": r.identity_holds,
            "t1_basis": [_basis_path_payload(p) for p in r.t1_basis],
            "t2_basis": [_basis_path_payload(p) for p in r.t2_basis],
        }


def _json(value, pad: str) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes it,
    its nested lines indented past ``pad``."""
    if isinstance(value, str):
        return _str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) == {str}:
            rows = map(_str, value)
        else:
            rows = [_json(v, inner) for v in value]
        open_, close = "[", "]"
    elif isinstance(value, dict):
        if not value:
            return "{}"
        for k in value:
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
        rows = [f"{_str(k)}: {_json(value[k], inner)}" for k in sorted(value)]
        open_, close = "{", "}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return f"{open_}\n{inner}" + f",\n{inner}".join(rows) + f"\n{pad}{close}"


def _row_template(*keys) -> str:
    """One row of a top-level list: an object with ``keys``, given sorted, a ``%s`` each."""
    fields = ",\n".join(f"      {_str(k)}: %s" for k in keys)
    return f"{{\n{fields}\n    }}"


_PAIR_ARROW = _row_template("name", "source", "target")
_SG_ARROW = _row_template("base", "name", "source", "target")
_COMM = _row_template("minus", "plus")
# a Q^sg arrow tuple (name, base, source, target) in _SG_ARROW's key order,
# and as DOT's (name, source, target); a comm relation minus side first
_sg_arrow_row, _sg_dot_fields = itemgetter(1, 0, 2, 3), itemgetter(0, 2, 3)
_minus_plus = itemgetter(1, 0)


def _row_list(row: str, count: int, values) -> str:
    """A top-level list of ``count`` rows of the template ``row``: one ``%``
    over the template repeated once per row.  ``values`` holds the rows'
    strings row by row, in key order."""
    if not count:
        return "[]"
    rows = ",\n    ".join([row] * count) % tuple(map(_str, values))
    return f"[\n    {rows}\n  ]"


def _object(fields) -> str:
    """The top-level object of ``fields``, (key, written value) pairs in key order."""
    return "{\n" + ",\n".join(f"  {_str(k)}: {v}" for k, v in fields) + "\n}\n"


def _pair_json(name: str, vertices, arrows, relations) -> str:
    """A pair from its sorted vertices, arrow rows (name, source, target)
    and relations written out."""
    return _object((
        ("arrows", _row_list(_PAIR_ARROW, len(arrows), chain.from_iterable(arrows))),
        ("name", _str(name)),
        ("relations", _json(relations, "  ")),
        ("vertices", _json(vertices, "  ")),
    ))


def _sg_json(p: SgPresentation, name: str) -> str:
    arrows, zero, comm = _sg_view(p)
    arrow_values = chain.from_iterable(map(_sg_arrow_row, arrows))
    comm_values = starmap(relation_text, chain.from_iterable(map(_minus_plus, comm)))
    return _object((
        ("arrows", _row_list(_SG_ARROW, len(arrows), arrow_values)),
        ("comm_relations", _row_list(_COMM, len(comm), comm_values)),
        ("name", _str(name)),
        ("vertices", _json(p.vertex_names, "  ")),
        ("zero_relations", _json(zero, "  ")),
    ))


def report_json(r, name: str | None = None) -> str:
    """Deterministic JSON: sorted keys, multisets as ascending arrays."""
    name = _name(r, name)
    if isinstance(r, (ValidationReport, InvariantReport, CornerData)):
        return _json(_payload(r, name), "") + "\n"
    if isinstance(r, SgPresentation):
        return _sg_json(r, name)
    return _pair_json(name, *_pair_rows(r))


def _dot_quote(s):
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(x, name: str | None = None) -> str:
    """One DOT digraph; special/split vertices drawn as double circles."""
    name = _name(x, name)
    if isinstance(x, SgPresentation):
        sg_arrows, zero, comm = _sg_view(x)
        arrows = map(_sg_dot_fields, sg_arrows)
        nodes = x.vertex_names
        doubled = x.split
        comments = [f"zero: {z}" for z in zero] + [f"comm: {c}" for c in starmap(_comm_text, comm)]
    else:
        nodes, arrows, relations = _pair_rows(x)
        doubled = frozenset()
        if isinstance(x, GPresentation):
            # Q^g draws doubled its unsigned vertices, the special ones: the
            # one-name entries of its lift table
            doubled = frozenset(names[0] for names in x.lifts.values() if len(names) == 1)
        comments = [f"zero: {z}" for z in relations]

    lines = [f"digraph {_dot_quote(name)} {{"]
    lines += [f"  // {comment}" for comment in comments]
    for v in nodes:
        attr = " [shape=doublecircle]" if v in doubled else ""
        lines.append(f"  {_dot_quote(v)}{attr};")
    for n, src, tgt in arrows:
        lines.append(f"  {_dot_quote(src)} -> {_dot_quote(tgt)} [label={_dot_quote(n)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
