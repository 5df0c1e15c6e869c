"""Per-layer tracing of the package from outside it.

``installed`` rebinds every public function of each package module, in every
package module that holds a reference to it, to a wrapper that records a span
(name, parent span, start ns, end ns) in a ``Recorder``.  Spans stay in memory
in compact columns, one command at a time; ``self_times`` gives each span's
duration minus the time its child spans cover, and ``LayerTotals`` turns a
command's spans into per-layer busy time and counters.  Busy time is scaled
to the reference speed, as the command's end-to-end time is (see
``run.py``).  A wrapper may also keep a note of the call for a counter: the
triple validated, the number of paths returned, and so on.  At the end the spans of every traced command are
written out as collapsed stacks: one line per call path with its calls and
self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "dsl", "validate", "construct", "cycles", "quiver", "algebra", "reports",
          "generate")

# Private functions traced as well: the oracle's elimination step, for its row count.
_PRIVATE = {"algebra": ("_rank",)}


def _first_arg(args, kwargs, result):
    return args[0] if args else next(iter(kwargs.values()), None)


def _length(args, kwargs, result):
    return 0 if result is None else len(result)


def _oracle(args, kwargs, result):
    which = args[1] if len(args) > 1 else kwargs["which"]
    return args[0], which, result


NOTES = {
    "dsl.parse": lambda args, kwargs, result: len(args[0]),
    "validate.validate_skewed_gentle": _first_arg,
    "validate.admissible_special_sets": _length,
    "quiver.relation_free_paths": _length,
    "algebra.basis": _length,
    "algebra.dimension_oracle": _oracle,
    "algebra._rank": lambda args, kwargs, result: len(args[0]),
}
for _name in ("build_sp_pair", "build_sg_presentation", "build_g_pair", "canonical_involution",
              "sg_vertex_lifts", "g_vertex_lifts"):
    NOTES[f"construct.{_name}"] = _first_arg


class Spans:
    """Spans in columns; parents precede their children."""

    def __init__(self, names, table, notes):
        self.names = names  # name id -> name
        self.table = table  # name id, parent index (-1 at the root), start ns, end ns
        self.notes = notes  # span index -> note

    @classmethod
    def of(cls, rows, notes=None):
        """Spans from (name, parent, start, end) rows."""
        names = sorted({row[0] for row in rows})
        ids = {name: i for i, name in enumerate(names)}
        table = array("q")
        for name, parent, start, end in rows:
            table.extend((ids[name], parent, start, end))
        return cls(names, table, dict(notes or {}))

    def __len__(self):
        return len(self.table) // 4

    def name(self, i):
        return self.names[self.table[4 * i]]

    def parent(self, i):
        return self.table[4 * i + 1]


class Recorder:
    """Spans of the calls made while the wrappers are installed."""

    def __init__(self):
        self.names: list[str] = []
        self.table = array("q")
        self.notes: dict[int, object] = {}
        self._stack: list[int] = []

    def take(self) -> Spans:
        spans = Spans(list(self.names), self.table, self.notes)
        self.table, self.notes = array("q"), {}
        return spans

    def wrap(self, name, fn):
        note = NOTES.get(name)
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            table = self.table
            index = len(table) // 4
            table.extend((name_id, stack[-1] if stack else -1, 0, 0))
            stack.append(index)
            result = None
            table[4 * index + 2] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                table[4 * index + 3] = time.perf_counter_ns()
                stack.pop()
                if note is not None:
                    self.notes[index] = note(args, kwargs, result)

        return traced


def _targets(pkg_name):
    for layer in LAYERS:
        module = sys.modules[f"{pkg_name}.{layer}"]
        for attr, obj in vars(module).items():
            public = not attr.startswith("_") or attr in _PRIVATE.get(layer, ())
            if public and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                yield f"{layer}.{attr}", obj


@contextmanager
def installed(pkg, recorder):
    """Trace every call into the package's layers while the block runs."""
    wrappers = {fn: recorder.wrap(name, fn) for name, fn in _targets(pkg.__name__)}
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != pkg.__name__ and not mod_name.startswith(pkg.__name__ + "."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
                patched.append((module, attr, obj))
    try:
        yield recorder
    finally:
        for module, attr, obj in patched:
            setattr(module, attr, obj)


def self_times(spans: Spans) -> list[int]:
    """Each span's duration minus the part of its interval its child spans cover."""
    t = spans.table
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for i in range(len(spans)):
        if t[4 * i + 1] >= 0:
            children[t[4 * i + 1]].append((t[4 * i + 2], t[4 * i + 3]))
    out = []
    for i in range(len(spans)):
        start, end = t[4 * i + 2], t[4 * i + 3]
        covered, reach = 0, start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


class LayerTotals:
    """Per-layer sums over traced commands, turned into per-command averages."""

    def __init__(self, oracle_model):
        self.commands = 0
        self.busy_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.by_kind: dict[str, Counter] = defaultdict(Counter)
        self._path_ids: dict[tuple[int, str], int] = {}  # (parent path, name) -> path
        self._paths: list[list] = []  # path -> [(parent path, name), calls, self ns]
        self._oracle_model = oracle_model  # (triple, which) -> (paths, capped)

    def add_command(self, kind, spans: Spans, scale=1.0):
        """Add one command's spans; ``scale`` takes their times to the reference speed."""
        self.commands += 1
        self.by_kind[kind]["commands"] += 1
        validated, constructed = set(), set()
        path_ids: list[int] = []
        for i, own in enumerate(self_times(spans)):
            own *= scale
            name, parent, note = spans.name(i), spans.parent(i), spans.notes.get(i)
            layer = name.split(".", 1)[0]
            key = (path_ids[parent] if parent >= 0 else -1, name)
            if key not in self._path_ids:
                self._path_ids[key] = len(self._paths)
                self._paths.append([key, 0, 0])
            path_ids.append(self._path_ids[key])
            self._paths[path_ids[i]][1] += 1
            self._paths[path_ids[i]][2] += own
            self.busy_ns[layer] += own
            self.calls[layer] += 1
            self.calls[name] += 1
            self.by_kind[kind][name] += 1
            if name == "validate.validate_skewed_gentle":
                validated.add(note)
                if parent >= 0 and spans.name(parent) == "validate.admissible_special_sets":
                    self.counts["subsets"] += 1
            elif name == "validate.admissible_special_sets":
                self.counts["admissible"] += note
            elif layer == "construct":
                constructed.add(note)
            elif name in ("quiver.relation_free_paths", "algebra.basis", "dsl.parse"):
                self.counts[name] += note
            elif name in ("algebra.dimension_oracle", "algebra._rank"):
                self.busy_ns["oracle"] += own
            if name == "algebra._rank":
                self.counts["oracle_rows"] += note
            elif name == "algebra.dimension_oracle":
                triple, which, dim = note
                enumerated, capped = self._oracle_model(triple, which)
                self.counts["oracle_paths"] += enumerated
                if not capped and dim is not None:
                    self.counts["oracle_dim"] += dim
                    self.counts["oracle_decided_paths"] += enumerated
        self.counts["validated_distinct"] += len(validated)
        self.counts["constructed_distinct"] += len(constructed)

    def metrics(self) -> dict[str, float]:
        n = max(self.commands, 1)

        def ratio(part, whole):
            return part / whole if whole else 0.0

        calls, counts, busy = self.calls, self.counts, self.busy_ns
        out = {f"{layer}.busy_ms": busy[layer] / n / 1e6 for layer in LAYERS
               if layer != "generate"}
        out.update({
            "dsl.kb": counts["dsl.parse"] / n / 1024,
            "validate.calls": calls["validate.validate_skewed_gentle"] / n,
            "validate.gentle_calls": calls["validate.is_gentle"] / n,
            "validate.unique_ratio": ratio(counts["validated_distinct"],
                                           calls["validate.validate_skewed_gentle"]),
            "validate.subsets": counts["subsets"] / n,
            "validate.admissible_ratio": ratio(counts["admissible"], counts["subsets"]),
            "construct.calls": calls["construct"] / n,
            "construct.unique_ratio": ratio(counts["constructed_distinct"], calls["construct"]),
            "cycles.calls": calls["cycles"] / n,
            "quiver.paths": counts["quiver.relation_free_paths"] / n,
            "quiver.fd_calls": calls["quiver.finite_dimensional_witness"] / n,
            "algebra.basis_size": counts["algebra.basis"] / n,
            "algebra.oracle_busy_ms": busy["oracle"] / n / 1e6,
            "algebra.oracle_paths": counts["oracle_paths"] / n,
            "algebra.oracle_rows": counts["oracle_rows"] / n,
            "algebra.oracle_useful_ratio": ratio(counts["oracle_dim"],
                                                 counts["oracle_decided_paths"]),
        })
        return out

    def calls_per_command(self) -> dict[str, dict[str, float]]:
        """Calls of each traced function per command, by command kind."""
        return {kind: {name: count / names["commands"] for name, count in sorted(names.items())
                       if name != "commands"}
                for kind, names in sorted(self.by_kind.items())}

    def collapsed_stacks(self) -> str:
        """One line per call path: "outer;inner calls self_ms"."""
        full: list[str] = []
        for (parent, name), _, _ in self._paths:
            full.append(f"{full[parent]};{name}" if parent >= 0 else name)
        return "".join(f"{path} {calls} {own / 1e6:.3f}\n"
                       for path, (_, calls, own) in sorted(zip(full, self._paths)))


def generate_metrics(spans: Spans) -> dict[str, float]:
    """Generator busy time and validations per drawn triple, for one set-up."""
    own = self_times(spans)
    busy = sum(t for i, t in enumerate(own) if spans.name(i).startswith("generate."))
    draws = {i for i in range(len(spans)) if spans.name(i) == "generate.random_triple"}
    validations = sum(1 for i in range(len(spans))
                      if spans.name(i) == "validate.validate_skewed_gentle"
                      and spans.parent(i) in draws)
    return {"generate.busy_ms": busy / 1e6,
            "generate.validations_per_triple": validations / len(draws) if draws else 0.0}
