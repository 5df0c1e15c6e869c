"""The three workloads: their inputs, command lists and expected outputs.

Each workload is a fixed list of triples.  The seed draws the identifiers,
which vertices of a cycle are special and the order of the commands; it does
not change the isomorphism classes of the triples, so every seed does the
same amount of work:

* ``relcycle`` - full-relation n-cycles of 60 to 240 vertices, every k-th
  vertex special.  Heavy on relations: validate, construct and cycles
  dominate, paths stay short.
* ``pathline`` - free linearly oriented lines A_n of 6 to 190 vertices.
  Heavy on paths: O(n^2) relation-free paths, nothing to validate.  At
  n = 190 the sg oracle lists 18145 paths, under the default cap of 20000.
* ``corpus`` - the generator's draws ``random_triple(seed=i, 12, 16)`` for
  i < 20, as users and the test suite produce them.  Thousands of tiny
  validations (``spset``), and the exponential tails of the oracle and of
  ``spset``; two commands exceed the oracle cap.

Every list holds at least 100 commands, so ten lie beyond ``op_p90_ms``.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

from reference import (
    Spec,
    admissible_sets,
    base_flags,
    corner,
    cycle_forms,
    cycles,
    descriptors,
    dims,
    g_json,
    g_oracle,
    line_forms,
    sg_json,
    sg_oracle,
)

RELCYCLE = ((60, 2), (72, 8), (84, 4), (96, 3), (108, 4), (120, 8), (132, 3), (144, 16),
            (150, 2), (160, 5), (176, 2), (192, 3), (208, 16), (224, 4), (240, 3))
PATHLINE = tuple(range(6, 43, 2)) + (45, 48, 51, 54, 57, 60, 64, 68, 72, 76, 80, 88, 96, 110, 120,
                                     190)
CORPUS_DRAWS = 20
CORPUS_MAX_VERTICES = 12
CORPUS_MAX_ARROWS = 16
WORKLOADS = ("relcycle", "pathline", "corpus")

_ALPHABET = string.ascii_lowercase + string.digits


@dataclass(frozen=True)
class Expect:
    code: int
    stdout: str | None = None  # exact text
    payload: object = None  # JSON value stdout must parse to
    stderr_prefix: str = ""  # "" when stderr must stay empty


@dataclass(frozen=True)
class Command:
    kind: str
    argv: tuple[str, ...]
    expect: Expect


@dataclass(frozen=True)
class Input:
    spec: Spec
    file: str  # file name inside the work directory
    info: dict


def _labels(rng, prefix, count):
    """Distinct identifiers of equal length, so parse cost does not depend on the seed."""
    seen = set()
    out = []
    while len(out) < count:
        name = prefix + "".join(rng.choice(_ALPHABET) for _ in range(5))
        if name not in seen:
            seen.add(name)
            out.append(name)
    return out


def _relcycle(seed):
    rng = random.Random(f"relcycle-{seed}")
    inputs = []
    for n, k in RELCYCLE:
        vs, arrows = _labels(rng, "v", n), _labels(rng, "a", n)
        offset = rng.randrange(k)
        special = frozenset(vs[i] for i in range(offset, n, k))
        spec = Spec(f"C{n}k{k}", tuple(vs),
                    tuple((arrows[i], vs[i], vs[(i + 1) % n]) for i in range(n)),
                    frozenset((arrows[(i + 1) % n], arrows[i]) for i in range(n)), special)
        inputs.append(Input(spec, f"{spec.name}.q",
                            {"n": n, "k": k, "vertex": rng.choice(sorted(special))}))
    return inputs


def _pathline(seed):
    rng = random.Random(f"pathline-{seed}")
    inputs = []
    for index, n in enumerate(PATHLINE):
        vs, arrows = _labels(rng, "v", n), _labels(rng, "a", n - 1)
        if rng.random() < 0.5:
            vs.reverse()
        spec = Spec(f"A{n}", tuple(vs),
                    tuple((arrows[i], vs[i], vs[i + 1]) for i in range(n - 1)), frozenset())
        inputs.append(Input(spec, f"{spec.name}.q",
                            {"n": n, "algebra": ("gentle", "sg", "g")[index % 3]}))
    return inputs


def spec_of(triple) -> Spec:
    """Plain data of a package triple, read field by field."""
    q = triple.pair.quiver
    return Spec(triple.name, tuple(q.vertex_list),
                tuple((a.name, a.source, a.target) for a in q.arrows),
                frozenset(triple.pair.relations), frozenset(triple.special))


def relabel(spec, rng, name) -> tuple[Spec, dict]:
    vmap = dict(zip(spec.vertices, _labels(rng, "v", len(spec.vertices))))
    amap = dict(zip((a for a, _, _ in spec.arrows), _labels(rng, "a", len(spec.arrows))))
    return Spec(name, tuple(vmap[v] for v in spec.vertices),
                tuple((amap[a], vmap[s], vmap[t]) for a, s, t in spec.arrows),
                frozenset((amap[x], amap[y]) for x, y in spec.relations),
                frozenset(vmap[v] for v in spec.special)), vmap


def draw_corpus(pkg):
    """The generator's draws behind ``corpus``, as the package returns them."""
    return [pkg.random_triple(seed=draw, max_vertices=CORPUS_MAX_VERTICES,
                              max_arrows=CORPUS_MAX_ARROWS) for draw in range(CORPUS_DRAWS)]


def _corpus(seed, pkg):
    rng = random.Random(f"corpus-{seed}")
    inputs = []
    for draw, triple in enumerate(draw_corpus(pkg)):
        original = spec_of(triple)
        spec, vmap = relabel(original, rng, f"R{draw}")
        vertex = vmap[min(original.special)] if original.special else None
        inputs.append(Input(spec, f"{spec.name}.q", {"vertex": vertex, "drawn": original}))
    return inputs


def make_inputs(workload, seed, pkg) -> list[Input]:
    """The workload's triples; ``corpus`` draws them with the package's generator."""
    if workload == "relcycle":
        return _relcycle(seed)
    if workload == "pathline":
        return _pathline(seed)
    return _corpus(seed, pkg)


def to_triple(pkg, spec):
    arrows = [pkg.Arrow(a, s, t) for a, s, t in spec.arrows]
    pair = pkg.BoundQuiver(pkg.build_quiver(list(spec.vertices), arrows), spec.relations)
    return pkg.SkewedGentleTriple(pair, spec.special, name=spec.name)


# ------------------------------------------------------------ expected outputs

def _yn(flag):
    return "yes" if flag else "no"


def _validate_text(spec, flags):
    return (f"name: {spec.name}\nflags: special_biserial={_yn(flags['special_biserial'])}"
            f" gentle={_yn(flags['gentle'])}"
            f" finite_dimensional={_yn(flags['finite_dimensional'])}"
            f" skewed_gentle={_yn(flags['skewed_gentle'])}\n")


def _report(spec, flags, found, descs, gldim, dimensions):
    return {
        "name": spec.name,
        "valid": True,
        "flags": flags,
        "violations": [],
        "cycles": found,
        "descriptors": descs,
        "gldim_finite": gldim,
        "dims": dimensions,
    }


def _reduce_text(spec, vertex, c):
    return (f"name: {spec.name} vertex: {vertex}\n"
            f"dim gamma: {c['gamma']}\n"
            f"dim gamma': {c['gamma_prime']}\n"
            f"dim A: {c['A']}\n"
            f"dim M: {c['M']} (M'={c['M_prime']})\n"
            f"dim N: {c['N']} (N'={c['N_prime']})\n"
            f"dim im phi: {c['im_phi']}\n"
            f"identity: {'holds' if c['identity_holds'] else 'FAILS'}\n")


_ALL_YES = {"special_biserial": True, "gentle": True, "finite_dimensional": True,
            "skewed_gentle": True}
_CAPPED = "limit exceeded:"


def _relcycle_commands(item, path):
    spec, n, k = item.spec, item.info["n"], item.info["k"]
    forms = cycle_forms(n, k)
    found = cycles(spec)
    if [(c["length"], c["parity"]) for c in found] != [(n, forms["parity"])]:
        raise AssertionError(f"{spec.name}: cycle model disagrees with the closed form")
    sg, g = sg_json(spec), g_json(spec)
    counts = {"vertices": len(sg["vertices"]), "arrows": len(sg["arrows"]),
              "comm": len(sg["comm_relations"]), "zero": len(sg["zero_relations"])}
    g_counts = {"vertices": len(g["vertices"]), "arrows": len(g["arrows"]),
                "relations": len(g["relations"])}
    if counts != forms["sg_counts"] or g_counts != forms["g_counts"]:
        raise AssertionError(f"{spec.name}: construction model disagrees with the closed form")
    report = _report(spec, _ALL_YES, found, forms["descriptors"], forms["gldim_finite"],
                     forms["dims"])
    return [
        Command("validate", ("validate", path), Expect(0, _validate_text(spec, _ALL_YES))),
        Command("invariants", ("invariants", path, "--dims", "--json"), Expect(0, payload=report)),
        Command("construct", ("construct", path, "--target", "sg", "--format", "json"),
                Expect(0, payload=sg)),
        Command("construct", ("construct", path, "--target", "g", "--format", "json"),
                Expect(0, payload=g)),
        Command("dim", ("dim", path, "--algebra", "sg"), Expect(0, f"{forms['dims']['sg']}\n")),
        Command("dim", ("dim", path, "--algebra", "g"), Expect(0, f"{forms['dims']['g']}\n")),
        Command("reduce", ("reduce", path, "--vertex", item.info["vertex"]),
                Expect(0, _reduce_text(spec, item.info["vertex"], forms["corner"]))),
    ]


def _pathline_commands(item, path):
    spec, algebra = item.spec, item.info["algebra"]
    forms = line_forms(item.info["n"])
    report = _report(spec, _ALL_YES, [], forms["descriptors"], forms["gldim_finite"],
                     forms["dims"])
    return [
        Command("validate", ("validate", path), Expect(0, _validate_text(spec, _ALL_YES))),
        Command("dim", ("dim", path, "--algebra", algebra),
                Expect(0, f"{forms['dims'][algebra]}\n")),
        Command("invariants", ("invariants", path, "--dims", "--json"), Expect(0, payload=report)),
    ]


def _corpus_commands(item, path):
    spec, vertex = item.spec, item.info["vertex"]
    flags = base_flags(spec)
    if not flags["skewed_gentle"]:
        raise AssertionError(f"{spec.name}: the generator returned an invalid triple")
    found = cycles(spec)
    descs = descriptors(found)
    gldim = {which: not found for which in ("gentle", "sg", "g")}
    dimensions = dims(spec)
    _, sg_capped = sg_oracle(spec)
    _, g_capped = g_oracle(spec)
    if sg_capped:
        invariants = Expect(3, "", stderr_prefix=_CAPPED)
    else:
        invariants = Expect(0, payload=_report(spec, flags, found, descs, gldim, dimensions))
    dim_g = f"{dimensions['g']}\n"
    oracle = Expect(3, dim_g, stderr_prefix=_CAPPED) if g_capped else \
        Expect(0, f"{dim_g}oracle: {dimensions['g']}\n")
    spset = "".join("{" + ", ".join(s) + "}\n" for s in admissible_sets(spec))
    commands = [
        Command("validate", ("validate", path), Expect(0, _validate_text(spec, flags))),
        Command("invariants", ("invariants", path, "--dims", "--json"), invariants),
        Command("dim", ("dim", path, "--algebra", "sg"), Expect(0, f"{dimensions['sg']}\n")),
        Command("dim_oracle", ("dim", path, "--algebra", "g", "--oracle"), oracle),
        Command("spset", ("spset", path), Expect(0, spset)),
    ]
    if vertex is not None:
        commands.append(Command("reduce", ("reduce", path, "--vertex", vertex),
                                Expect(0, _reduce_text(spec, vertex, corner(spec, vertex)))))
    return commands


def make_commands(workload, seed, inputs, workdir) -> list[Command]:
    """Every input's commands with their expected outputs, in a seeded order."""
    build = {"relcycle": _relcycle_commands, "pathline": _pathline_commands,
             "corpus": _corpus_commands}[workload]
    commands = [c for item in inputs for c in build(item, str(workdir / item.file))]
    random.Random(f"order-{workload}-{seed}").shuffle(commands)
    return commands
