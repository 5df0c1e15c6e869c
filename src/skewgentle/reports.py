"""Every output of the package in its three formats, plus the invariant report.

This is the one module that knows an output format.  There is one
renderer per format, ``report_text``, ``report_json`` and ``to_dot``, and
each takes every object the command line prints: a ValidationReport, an
InvariantReport, CornerData, the bound quiver Q^sp, the GPairLabels of Q^g,
and the SgPresentation of Q^sg.  The text form of a pair is its canonical
DSL form from ``serialize``.

All output is deterministic: identifiers are sorted before emission and
JSON objects have sorted keys, so equal inputs give byte-identical text.

JSON is written by ``_json``, byte for byte what ``json.dumps(payload,
sort_keys=True, indent=2)`` writes, at C speed for the bulk of it: every
string goes through the C ``encode_basestring_ascii``, a list of strings
(vertices, relations, a witness's items) is encoded by one C-level ``map``
with no Python call per item, and a list of str-valued objects that share
one key set (the arrows of a pair and the comm relations of Q^sg, most of
the bytes) is written from one ``%`` template per list, one formatting per
row.  Anything else takes the general recursion.  The payloads hold only
str, int, bool, None, lists, tuples and str-keyed dicts; any other value, a
float included, raises TypeError.
"""

from __future__ import annotations

from itertools import chain
from json.encoder import encode_basestring_ascii as _str
from operator import itemgetter

from .algebra import (
    DEFAULT_ORACLE_CAP,
    BasisPath,
    CornerData,
    dimension,
    dimension_oracle,
    pair_dimension,
)
from .construct import CommRelation, GPairLabels, SgPresentation
from .cycles import (
    CycleClass,
    SingularityDescriptor,
    descriptor_g,
    gldim_flags,
)
from .dsl import serialize
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
    """Assemble the full report; with_dims adds the dimensions with two
    witnesses: the sg oracle, and the paths of the constructed Q^g, which
    the gldim flags read, for the g count over (Q, I1)."""
    validation = t.validation
    cycles = t.cycles
    base = SingularityDescriptor.of(c.length for c in cycles)
    # sg is singularity equivalent to the base pair (Chen-Lu): one descriptor
    descriptors = {"gentle": base, "sg": base, "g": descriptor_g(t)}
    dims = None
    if with_dims:
        dims = {which: dimension(t, which) for which in ("gentle", "sg", "g")}
        oracle = dimension_oracle(t, "sg", cap=oracle_cap)
        if oracle != dims["sg"]:
            raise InternalInconsistency(
                f"sg dimension {dims['sg']} disagrees with oracle {oracle}"
            )
        built = pair_dimension(t.g_pair.pair)
        if built != dims["g"]:
            raise InternalInconsistency(
                f"g dimension {dims['g']} disagrees with the constructed Q^g's {built}"
            )
    return InvariantReport(t.name, validation, cycles, descriptors,
                           gldim_flags(t), dims)


def descriptor_pretty(d: SingularityDescriptor) -> str:
    """Human form: orbit-category factors with their Nakayama aliases."""
    if d.is_trivial:
        return "trivial (no factors)"
    return " x ".join(f"D^b(k)/[{n}] (S_{n}-stable)" for n in d.shifts)


_FLAGS = ("special_biserial", "gentle", "finite_dimensional", "skewed_gentle")


def _yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


def _comm_text(c: CommRelation) -> str:
    return f"{relation_text(*c.plus)} = {relation_text(*c.minus)}"


def _name(r, name):
    """The name an output carries: the one given, else the object's own, else Q."""
    return name or getattr(r, "name", None) or "Q"


def _pair_view(x) -> BoundQuiver:
    """A bound quiver, or Q^g as its pair."""
    if isinstance(x, GPairLabels):
        return x.pair
    if isinstance(x, BoundQuiver):
        return x
    raise TypeError(f"cannot render {type(x).__name__}")


def _sg_view(p: SgPresentation):
    """(name, arrow) pairs by name, zero relations and comm relations, in
    output order; each name is read from ``arrow_map``, not formatted again."""
    return (sorted(p.arrow_map.items(), key=itemgetter(0)),
            [relation_text(x, y) for x, y in sorted(p.zero_relations)],
            sorted(p.comm_relations, key=lambda c: c.plus))


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
                "arrows: " + ", ".join(f"{n}: {a.source} -> {a.target}" for n, a in arrows),
                f"zero: {', '.join(zero)}",
                f"comm: {', '.join(map(_comm_text, comm))}"]
    return [serialize(SkewedGentleTriple(_pair_view(r), frozenset(), name=name))]


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
    if isinstance(r, SgPresentation):
        arrows, zero, comm = _sg_view(r)
        return {
            "name": name,
            "vertices": list(r.vertex_names),
            "arrows": [{"name": n, "base": a.base, "source": a.source, "target": a.target}
                       for n, a in arrows],
            "zero_relations": zero,
            "comm_relations": [{"plus": relation_text(*c.plus), "minus": relation_text(*c.minus)}
                               for c in comm],
        }
    pair = _pair_view(r)
    q = pair.quiver
    return {
        "name": name,
        "vertices": list(q.vertex_list),
        "arrows": [{"name": a.name, "source": a.source, "target": a.target} for a in q.arrows],
        "relations": [relation_text(x, y) for x, y in pair.relation_list],
    }


def _rows(items, pad):
    """The items of a list of dicts, at ``pad``, each from one template when
    all have one nonempty set of str keys and only str values; else None."""
    first = items[0]
    if (not first or set(map(type, first)) != {str}
            or not all(map(first.keys().__eq__, map(dict.keys, items)))
            or set(map(type, chain.from_iterable(map(dict.values, items)))) != {str}):
        return None
    keys = sorted(first)
    inner = pad + "  "
    template = "{\n" + ",\n".join(
        f"{inner}{_str(k).replace('%', '%%')}: %s" for k in keys) + f"\n{pad}}}"
    get = itemgetter(*keys)
    if len(keys) == 1:
        return [template % _str(get(d)) for d in items]
    return [template % tuple(map(_str, get(d))) for d in items]


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
        kinds = set(map(type, value))
        if kinds == {str}:
            rows = map(_str, value)
        else:
            rows = kinds == {dict} and _rows(value, inner) or [_json(v, inner) for v in value]
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


def report_json(r, name: str | None = None) -> str:
    """Deterministic JSON: sorted keys, multisets as ascending arrays."""
    return _json(_payload(r, _name(r, name)), "") + "\n"


def _dot_quote(s):
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(x, name: str | None = None) -> str:
    """One DOT digraph; special/split vertices drawn as double circles."""
    name = _name(x, name)
    if isinstance(x, SgPresentation):
        arrows, zero, comm = _sg_view(x)
        nodes = x.vertex_names
        doubled = frozenset(v.name for v in x.vertices if v.sign != "")
        comments = [f"zero: {z}" for z in zero] + [f"comm: {_comm_text(c)}" for c in comm]
    else:
        pair = _pair_view(x)
        nodes = pair.quiver.vertex_list
        arrows = [(a.name, a) for a in pair.quiver.arrows]
        doubled = frozenset()
        if isinstance(x, GPairLabels):
            # Q^g draws doubled its unsigned vertices, the special ones: the
            # one-name entries of its lift table
            doubled = frozenset(names[0] for names in x.lifts.values() if len(names) == 1)
        comments = [f"zero: {relation_text(a, b)}" for a, b in pair.relation_list]

    lines = [f"digraph {_dot_quote(name)} {{"]
    lines += [f"  // {comment}" for comment in comments]
    for v in nodes:
        attr = " [shape=doublecircle]" if v in doubled else ""
        lines.append(f"  {_dot_quote(v)}{attr};")
    for n, a in arrows:
        src, tgt, label = _dot_quote(a.source), _dot_quote(a.target), _dot_quote(n)
        lines.append(f"  {src} -> {tgt} [label={label}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
