"""DOT and JSON renderings plus the aggregated invariant report.

All output is deterministic: identifiers are sorted before emission and
JSON is dumped with sorted keys, so equal inputs give byte-identical text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .algebra import BasisPath, CornerData, dimension, dimension_oracle
from .construct import GPairLabels, SgPresentation
from .cycles import (
    CycleClass,
    SingularityDescriptor,
    descriptor_g,
    descriptor_sg,
    gldim_flags,
)
from .errors import InternalInconsistency
from .quiver import BoundQuiver, Quiver, SkewedGentleTriple
from .validate import ValidationReport


@dataclass(frozen=True, eq=False)
class InvariantReport:
    """Everything the tool knows about one triple, ready for rendering."""

    name: str
    validation: ValidationReport
    cycles: tuple[CycleClass, ...]
    descriptors: dict[str, SingularityDescriptor]
    gldim_finite: dict[str, bool]
    dims: dict[str, int] | None = None


def build_invariant_report(t: SkewedGentleTriple, with_dims: bool = False,
                           oracle_cap: int | None = None) -> InvariantReport:
    """Assemble the full report; with_dims adds the sg oracle cross-check."""
    validation = t.validation
    cycles = t.cycles
    descriptors = {
        "gentle": SingularityDescriptor.of(c.length for c in cycles),
        "sg": descriptor_sg(t),
        "g": descriptor_g(t),
    }
    dims = None
    if with_dims:
        dims = {which: dimension(t, which) for which in ("gentle", "sg", "g")}
        kwargs = {} if oracle_cap is None else {"cap": oracle_cap}
        oracle = dimension_oracle(t, "sg", **kwargs)
        if oracle != dims["sg"]:
            raise InternalInconsistency(
                f"sg dimension {dims['sg']} disagrees with oracle {oracle}"
            )
    return InvariantReport(t.name, validation, cycles, descriptors,
                           gldim_flags(t), dims)


def descriptor_pretty(d: SingularityDescriptor) -> str:
    """Human form: orbit-category factors with their Nakayama aliases."""
    if d.is_trivial:
        return "trivial (no factors)"
    return " x ".join(f"D^b(k)/[{n}] (S_{n}-stable)" for n in d.shifts)


def _validation_payload(name, report):
    return {
        "name": name,
        "valid": report.skewed_gentle,
        "flags": {
            "special_biserial": report.special_biserial,
            "gentle": report.gentle,
            "finite_dimensional": report.finite_dimensional,
            "skewed_gentle": report.skewed_gentle,
        },
        "violations": [
            {"rule": v.rule, "items": list(v.items)} for v in report.violations
        ],
    }


def _basis_path_payload(p: BasisPath):
    return {"arrows": list(p.arrows), "source": p.source, "target": p.target}


def _payload(r, name):
    if isinstance(r, ValidationReport):
        return _validation_payload(name or "Q", r)
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
            "name": name or "Q",
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
    raise TypeError(f"cannot render {type(r).__name__} as a report")


def report_json(r, name: str | None = None) -> str:
    """Deterministic JSON: sorted keys, multisets as ascending arrays."""
    return json.dumps(_payload(r, name), sort_keys=True, indent=2) + "\n"


def _dot_quote(s):
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(x, name: str | None = None) -> str:
    """One DOT digraph; special/split vertices drawn as double circles."""
    special = frozenset()
    comments = []
    if isinstance(x, SkewedGentleTriple):
        name = name or x.name
        special = x.special
        bq = x.pair
        nodes = bq.quiver.vertex_list
        edges = [(a.name, a.source, a.target) for a in bq.quiver.arrows]
        comments = [f"zero: {a}*{b}" for a, b in bq.relation_list]
    elif isinstance(x, GPairLabels):
        special = frozenset(n for n, sv in x.vertex_label.items() if sv.sign == "")
        nodes = x.pair.quiver.vertex_list
        edges = [(a.name, a.source, a.target) for a in x.pair.quiver.arrows]
        comments = [f"zero: {a}*{b}" for a, b in x.pair.relation_list]
    elif isinstance(x, BoundQuiver):
        nodes = x.quiver.vertex_list
        edges = [(a.name, a.source, a.target) for a in x.quiver.arrows]
        comments = [f"zero: {a}*{b}" for a, b in x.relation_list]
    elif isinstance(x, Quiver):
        nodes = x.vertex_list
        edges = [(a.name, a.source, a.target) for a in x.arrows]
    elif isinstance(x, SgPresentation):
        special = frozenset(v.name for v in x.vertices if v.sign != "")
        nodes = x.vertex_names
        edges = sorted((a.name, a.source, a.target) for a in x.arrows)
        comments = [f"zero: {a}*{b}" for a, b in sorted(x.zero_relations)]
        comments += [
            f"comm: {c.plus[0]}*{c.plus[1]} = {c.minus[0]}*{c.minus[1]}"
            for c in sorted(x.comm_relations, key=lambda c: c.plus)
        ]
    else:
        raise TypeError(f"cannot render {type(x).__name__} as DOT")

    lines = [f"digraph {_dot_quote(name or 'Q')} {{"]
    for comment in comments:
        lines.append(f"  // {comment}")
    for v in nodes:
        attr = " [shape=doublecircle]" if v in special else ""
        lines.append(f"  {_dot_quote(v)}{attr};")
    for label, src, tgt in edges:
        lines.append(f"  {_dot_quote(src)} -> {_dot_quote(tgt)} [label={_dot_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
