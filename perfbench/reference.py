"""Independent reference model of skewed-gentle triples.

Nothing here imports the package under test.  The benchmark checks every
command's output against values computed from this module: closed forms for
the full-relation cycles and the free lines, and for random triples a direct
implementation of the definitions (gentle checks, path counts by dynamic
programming over arrows, the sg and g constructions, relation cycles).

A triple is a plain ``Spec``.  A relation ``(x, y)`` says that the 2-path
"y, then x" is zero, as in the package's input language.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

# README: "QSG_ORACLE_CAP overrides the oracle's path cap (default 20000)".
DEFAULT_ORACLE_CAP = 20000


@dataclass(frozen=True)
class Spec:
    name: str
    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]  # (name, source, target)
    relations: frozenset[tuple[str, str]]
    special: frozenset[str] = frozenset()


# ---------------------------------------------------------------- closed forms

def cycle_forms(n: int, k: int) -> dict:
    """Invariants of the full-relation n-cycle with every k-th vertex special.

    Requires k >= 2 and k | n, so no two special vertices are adjacent and
    s = n / k vertices are special.
    """
    if k < 2 or n % k:
        raise ValueError("need k >= 2 dividing n")
    s = n // k
    odd = s % 2 == 1
    return {
        "parity": "odd" if odd else "even",
        "dims": {"gentle": 2 * n, "sg": 2 * n + 4 * s, "g": 4 * n + s},
        "descriptors": {"gentle": [n], "sg": [n], "g": [2 * n] if odd else [n, n]},
        "gldim_finite": {"gentle": False, "sg": False, "g": False},
        # sg: trivial n + s, signed arrows n + 2s, one comm relation per special
        # vertex, each ordinary middle lifted over its special neighbours
        "sg_counts": {"vertices": n + s, "arrows": n + 2 * s, "comm": s,
                      "zero": 2 * n if k == 2 else n + s},
        "g_counts": {"vertices": 2 * n - s, "arrows": 2 * n, "relations": 2 * n},
        # removing one special vertex v: M = {x}, N = {y}, one path through v
        "corner": {"gamma": 2 * n + 4 * s, "gamma_prime": 2 * n + 4 * s - 4,
                   "A": 2 * n + 4 * s - 3, "M": 1, "N": 1, "im_phi": 1,
                   "M_prime": 1, "N_prime": 1, "identity_holds": True},
    }


def line_forms(n: int) -> dict:
    """Invariants of the linearly oriented free line A_n (no relations, no specials)."""
    tri = n * (n + 1) // 2
    return {
        "dims": {"gentle": tri, "sg": tri, "g": 2 * tri},
        "descriptors": {"gentle": [], "sg": [], "g": []},
        "gldim_finite": {"gentle": True, "sg": True, "g": True},
    }


# ------------------------------------------------------------- general model

def _ends(spec):
    return {name: (src, tgt) for name, src, tgt in spec.arrows}


def _out_in(spec):
    outs = {v: [] for v in spec.vertices}
    ins = {v: [] for v in spec.vertices}
    for name, src, tgt in spec.arrows:
        outs[src].append(name)
        ins[tgt].append(name)
    return outs, ins


def continuations(spec) -> dict[str, list[str]]:
    """For each arrow a, the arrows x with s(x) = t(a) and x*a not a relation."""
    outs, _ = _out_in(spec)
    ends = _ends(spec)
    return {a: [x for x in outs[ends[a][1]] if (x, a) not in spec.relations]
            for a in ends}


def _topological(spec) -> list[str] | None:
    """Arrows ordered so each comes before its continuations; None on a cycle."""
    cont = continuations(spec)
    indeg = {a: 0 for a in cont}
    for a in cont:
        for x in cont[a]:
            indeg[x] += 1
    order = [a for a in cont if indeg[a] == 0]
    for a in order:
        for x in cont[a]:
            indeg[x] -= 1
            if indeg[x] == 0:
                order.append(x)
    return order if len(order) == len(cont) else None


def finite_dimensional(spec) -> bool:
    return _topological(spec) is not None


def _forward(spec, weight):
    """h(a): paths whose first arrow is a, each weighted by weight(target)."""
    order = _topological(spec)
    if order is None:
        raise ValueError(f"{spec.name}: relation-free cycle")
    cont, ends = continuations(spec), _ends(spec)
    h = {}
    for a in reversed(order):
        h[a] = weight(ends[a][1]) + sum(h[x] for x in cont[a])
    return h


def _backward(spec, weight):
    """k(a): paths whose last arrow is a, each weighted by weight(source)."""
    order = _topological(spec)
    if order is None:
        raise ValueError(f"{spec.name}: relation-free cycle")
    cont, ends = continuations(spec), _ends(spec)
    k = {a: weight(ends[a][0]) for a in order}
    for a in order:
        for x in cont[a]:
            k[x] += k[a]
    return k


def nontrivial_paths(spec, weight=lambda v: 1) -> int:
    """Relation-free paths of length >= 1, weighted by weight(source) * weight(target)."""
    h = _forward(spec, weight)
    ends = _ends(spec)
    return sum(weight(ends[a][0]) * h[a] for a in h)


def longest_path(spec) -> int:
    order = _topological(spec)
    if order is None:
        raise ValueError(f"{spec.name}: relation-free cycle")
    cont = continuations(spec)
    best = {}
    for a in reversed(order):
        best[a] = 1 + max((best[x] for x in cont[a]), default=0)
    return max(best.values(), default=0)


def special_biserial(spec) -> bool:
    """At most two arrows in and out of each vertex, one relation-free continuation each side."""
    outs, ins = _out_in(spec)
    if any(len(outs[v]) > 2 or len(ins[v]) > 2 for v in spec.vertices):
        return False
    return all(sum((x, a) not in spec.relations for x in outs[tgt]) <= 1
               and sum((a, b) not in spec.relations for b in ins[src]) <= 1
               for a, (src, tgt) in _ends(spec).items())


def is_gentle(spec) -> bool:
    later = [x for x, _ in spec.relations]
    first = [y for _, y in spec.relations]
    # no arrow has two relation partners on one side
    return (len(set(later)) == len(later) and len(set(first)) == len(first)
            and special_biserial(spec))


def sp_spec(spec, special=None) -> Spec:
    """Adjoin a squared-zero loop at each special vertex."""
    special = spec.special if special is None else special
    taken = {a for a, _, _ in spec.arrows}
    loops = tuple((f"sp_{v}", v, v) for v in sorted(special))
    if any(name in taken for name, _, _ in loops):
        raise ValueError("loop name collides with an arrow")
    relations = spec.relations | {(name, name) for name, _, _ in loops}
    return Spec(spec.name, spec.vertices, spec.arrows + loops, frozenset(relations))


def skewed_gentle(spec, special=None) -> bool:
    sp = sp_spec(spec, special)
    return is_gentle(sp) and finite_dimensional(sp)


def base_flags(spec) -> dict:
    return {"special_biserial": special_biserial(spec), "gentle": is_gentle(spec),
            "finite_dimensional": finite_dimensional(spec),
            "skewed_gentle": skewed_gentle(spec)}


def _multiplicity(spec):
    return lambda v: 2 if v in spec.special else 1


def admissible_spec(spec) -> Spec:
    """(Q, I1): keep only the relations whose middle vertex is ordinary."""
    ends = _ends(spec)
    kept = frozenset((x, y) for x, y in spec.relations if ends[y][1] not in spec.special)
    return Spec(spec.name, spec.vertices, spec.arrows, kept, spec.special)


def g_spec(spec) -> Spec:
    """The associated gentle pair: split ordinary vertices, double every arrow."""
    def end(v, sign):
        return v if v in spec.special else v + sign

    vertices = sorted(v if v in spec.special else v + sign
                      for v in spec.vertices
                      for sign in (("",) if v in spec.special else ("+", "-")))
    arrows = tuple((a + sign, end(src, sign), end(tgt, sign))
                   for a, src, tgt in sorted(spec.arrows) for sign in ("+", "-"))
    ends = _ends(spec)
    relations = set()
    for x, y in spec.relations:
        if ends[y][1] in spec.special:
            relations |= {(x + "+", y + "-"), (x + "-", y + "+")}
        else:
            relations |= {(x + "+", y + "+"), (x + "-", y + "-")}
    return Spec(spec.name + "_g", tuple(vertices), arrows, frozenset(relations))


def dims(spec) -> dict:
    m = _multiplicity(spec)
    g = g_spec(spec)
    return {
        "gentle": len(spec.vertices) + nontrivial_paths(spec),
        "sg": sum(map(m, spec.vertices)) + nontrivial_paths(admissible_spec(spec), m),
        "g": len(g.vertices) + nontrivial_paths(g),
    }


def _lifts(spec):
    return {v: (v + "+", v + "-") if v in spec.special else (v,) for v in spec.vertices}


def sg_presentation(spec) -> dict:
    """Q^sg with its relations, named as the package names them."""
    lifts, ends = _lifts(spec), _ends(spec)
    arrows = sorted((f"{a}@{s}@{t}", a, s, t)
                    for a, src, tgt in spec.arrows for s in lifts[src] for t in lifts[tgt])
    zero, comm = set(), set()
    for x, y in spec.relations:
        mid = ends[y][1]
        for outer_src in lifts[ends[y][0]]:
            for outer_tgt in lifts[ends[x][1]]:
                if mid in spec.special:
                    comm.add(((f"{x}@{mid}+@{outer_tgt}", f"{y}@{outer_src}@{mid}+"),
                              (f"{x}@{mid}-@{outer_tgt}", f"{y}@{outer_src}@{mid}-")))
                else:
                    zero.add((f"{x}@{mid}@{outer_tgt}", f"{y}@{outer_src}@{mid}"))
    vertices = sorted(w for v in spec.vertices for w in lifts[v])
    return {"vertices": vertices, "arrows": arrows, "zero": zero, "comm": comm}


def sg_json(spec) -> dict:
    pres = sg_presentation(spec)
    return {
        "name": f"{spec.name}_sg",
        "vertices": pres["vertices"],
        "arrows": [{"name": n, "base": b, "source": s, "target": t}
                   for n, b, s, t in pres["arrows"]],
        "zero_relations": sorted(f"{x}*{y}" for x, y in pres["zero"]),
        "comm_relations": [{"plus": f"{p[0]}*{p[1]}", "minus": f"{q[0]}*{q[1]}"}
                           for p, q in sorted(pres["comm"])],
    }


def g_json(spec) -> dict:
    g = g_spec(spec)
    return {
        "name": g.name,
        "vertices": list(g.vertices),
        "arrows": [{"name": a, "source": s, "target": t} for a, s, t in sorted(g.arrows)],
        "relations": sorted(f"{x}*{y}" for x, y in g.relations),
    }


def cycles(spec) -> list[dict]:
    """Full relation cycles in canonical rotation, with parity over the specials."""
    follower = dict(spec.relations)  # x -> y: y is applied just before x
    ends = _ends(spec)
    found, placed = [], set()
    for start in sorted(ends):
        if start in placed:
            continue
        seq = [start]
        while seq[-1] in follower and follower[seq[-1]] not in seq:
            seq.append(follower[seq[-1]])
        if follower.get(seq[-1]) != start:
            continue
        placed.update(seq)
        k = seq.index(min(seq))
        seq = seq[k:] + seq[:k]
        junctions = sum(ends[a][1] in spec.special for a in seq)
        found.append({"arrows": seq, "length": len(seq),
                      "parity": "odd" if junctions % 2 else "even"})
    return sorted(found, key=lambda c: c["arrows"])


def descriptors(found) -> dict:
    g = []
    for c in found:
        g += [2 * c["length"]] if c["parity"] == "odd" else [c["length"]] * 2
    base = sorted(c["length"] for c in found)
    return {"gentle": base, "sg": list(base), "g": sorted(g)}


def oracle_paths(vertex_count, arrows, bound, cap=DEFAULT_ORACLE_CAP) -> tuple[int, bool]:
    """Paths the brute-force oracle enumerates, and whether that passes the cap.

    The oracle lists every walk of length 1..bound of the presentation's quiver
    (relations play no part in the listing), adding trivial paths first and
    stopping with an error as soon as the running total exceeds the cap.
    """
    total = vertex_count
    if total > cap:
        return total, True
    ending = {}
    for _, src, tgt in arrows:
        ending.setdefault(tgt, []).append(src)
    walks = None  # walks of the current length, by end vertex
    for _ in range(bound):
        if walks is None:
            walks = {}
            for _, _, tgt in arrows:
                walks[tgt] = walks.get(tgt, 0) + 1
        else:
            walks = {v: sum(walks.get(u, 0) for u in srcs) for v, srcs in ending.items()}
        layer = sum(walks.values())
        if not layer:
            break
        total += layer
        if total > cap:
            return total, True
    return total, False


def sg_oracle(spec, cap=DEFAULT_ORACLE_CAP) -> tuple[int, bool]:
    pres = sg_presentation(spec)
    arrows = [(n, s, t) for n, _, s, t in pres["arrows"]]
    return oracle_paths(len(pres["vertices"]), arrows, longest_path(sp_spec(spec)), cap)


def g_oracle(spec, cap=DEFAULT_ORACLE_CAP) -> tuple[int, bool]:
    g = g_spec(spec)
    return oracle_paths(len(g.vertices), g.arrows, longest_path(g), cap)


def corner(spec, vertex) -> dict:
    """Dimension bookkeeping for removing the split vertex ``vertex``."""
    m = _multiplicity(spec)
    i1 = admissible_spec(spec)
    ends = _ends(i1)
    fwd_m, fwd_1 = _forward(i1, m), _forward(i1, lambda v: 1)
    bwd_m, bwd_1 = _backward(i1, m), _backward(i1, lambda v: 1)
    leaving = [a for a, (src, _) in ends.items() if src == vertex]
    entering = [a for a, (_, tgt) in ends.items() if tgt == vertex]
    gamma = dims(spec)["sg"]
    reduced = Spec(spec.name, spec.vertices, spec.arrows, spec.relations,
                   spec.special - {vertex})
    gamma_prime = dims(reduced)["sg"]
    big_m = sum(fwd_m[a] for a in leaving)
    big_n = sum(bwd_m[a] for a in entering)
    a_dim = gamma - 1 - big_m - big_n
    return {"gamma": gamma, "gamma_prime": gamma_prime, "A": a_dim, "M": big_m,
            "N": big_n, "im_phi": big_m * big_n,
            "M_prime": sum(fwd_1[a] for a in leaving),
            "N_prime": sum(bwd_1[a] for a in entering),
            "identity_holds": gamma_prime == a_dim - big_m * big_n}


def admissible_sets(spec) -> list[tuple[str, ...]]:
    """Special subsets making the pair skewed-gentle, by size then in order."""
    outs, ins = _out_in(spec)
    candidates = [v for v in sorted(spec.vertices) if len(outs[v]) + len(ins[v]) <= 2]
    return [subset
            for size in range(len(candidates) + 1)
            for subset in combinations(candidates, size)
            if skewed_gentle(spec, frozenset(subset))]
