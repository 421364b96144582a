"""Span tracing of sphmach's public functions from outside the package.

``Tracer.install`` replaces each listed function on its module or class,
and in every sphmach module namespace that imported it by name, with a
wrapper that records a span (name, start, end, parent) plus counts.
Spans stay in memory, in flat arrays, until ``report`` turns them into
per-function self times: a span's duration minus the part covered by
its child spans.  The benchmark opens one root span per timed
operation, so the self times of all spans add up to the traced wall
time by construction.  What ``report`` does check is the span tree:
every span must be closed and lie inside its parent, and every span
without a parent must be an operation's root span.
"""

from __future__ import annotations

import importlib
import os
import sys
from array import array
from time import perf_counter

ROOT = "op"


def _letters(tr, key, args, res):
    tr.add(key, len(res))


def _call_stats(tr, key, args, res):
    w = args[1]
    if hasattr(w, "__len__"):
        tr.add(key + ".letters_in", len(w))
    tr.add(key + ".letters_out", len(res))


def _graph_stats(tr, key, args, res):
    graph = args[0]
    tr.add(key + ".letters_in", sum(len(w) for w in graph.gens))
    tr.add(key + ".states", len(graph.states()))


def _machine_degree(tr, key, args, res):
    d = max(getattr(args[0], "degree", 0) if args else 0,
            getattr(res, "degree", 0))
    tr.peak("machine.degree_max", d)


def _tensor_degree(tr, key, args, res):
    tr.peak("machine.degree_max", res.degree)


def knitting_letters(edge):
    """Letters of a table edge's knitting: the automorphism's images, or
    the twist word."""
    if edge.knitting_auto is not None:
        return sum(len(w) for w in edge.knitting_auto.images)
    return len(edge.knitting_word or ())


def _biset_sizes(tr, key, args, res):
    tr.peak("mcbiset.orbits", res.size)
    tr.peak("mcbiset.edges", len(res.table))
    sizes = [knitting_letters(e) for e in res.table.values()]
    tr.peak("mcbiset.knitting_letters_max", max(sizes, default=0))
    tr.add("mcbiset.knitting_letters_total", sum(sizes))
    tr.add("mcbiset.knitting_edges", len(sizes))


def _rewrite_letters(tr, key, args, res):
    tr.peak("mcbiset.rewrite.word_letters_max",
            max(len(args[2]), len(res[0]) if isinstance(res[0], tuple) else 0))


def _steps(tr, key, args, res):
    tr.add(key + ".steps", res.steps)


def _saved_bytes(tr, key, args, res):
    tr.add(key + ".bytes", os.path.getsize(args[1]))


def _cli_name(args, kwargs):
    argv = kwargs.get("argv", args[0] if args else None) or sys.argv[1:]
    sub = next((a for a in argv if not a.startswith("-")), "none")
    return f"cli.main.{sub}"


# (module, attribute path, hook run inside the span after the call)
TARGETS = [
    ("words", "Automorphism.__call__", _call_stats),
    ("words", "Automorphism.compose", None),
    ("words", "outer_normalize", None),
    ("words", "is_conjugate", None),
    ("words", "SphereGroup.normal_form", None),
    ("words", "wmul", lambda tr, k, a, r: _letters(tr, k + ".letters_out", a, r)),
    ("folding", "SubgroupGraph.__init__", _graph_stats),
    ("folding", "SubgroupGraph.express", None),
    ("folding", "expand_expression",
     lambda tr, k, a, r: _letters(tr, k + ".letters_out", a, r)),
    ("machine", "pre_compose", _machine_degree),
    ("machine", "post_compose", _machine_degree),
    ("machine", "normalize_basis", _machine_degree),
    ("machine", "change_basis", _machine_degree),
    ("machine", "validate_sphere", _machine_degree),
    ("machine", "tensor", _tensor_degree),
    ("machine", "multiset_of_lifts", _machine_degree),
    ("mcbiset", "compute_mcbiset", _biset_sizes),
    ("mcbiset", "distill", None),
    ("mcbiset", "machine_isomorphism", None),
    ("mcbiset", "lift_multiset_in_mcbiset", None),
    ("mcbiset", "twist_fingerprint", None),
    ("mcbiset", "rewrite", _rewrite_letters),
    ("mcbiset", "conjugacy_iterate", _steps),
    ("multicurve", "thurston_matrix", None),
    ("multicurve", "is_obstructed", None),
    ("multicurve", "charpoly", None),
    ("multicurve", "count_real_roots", None),
    ("multicurve", "solve_twist_fixed_point", None),
    ("multicurve", "mc_to_gog", None),
    ("machfile", "parse_machine_file", None),
    ("machfile", "parse_word", lambda tr, k, a, r: _letters(tr, k + ".letters", a, r)),
    ("machfile", "mcb_to_json", None),
    ("machfile", "mcb_from_json", _biset_sizes),
    ("machfile", "save_mcb", _saved_bytes),
    ("machfile", "load_mcb", None),
    ("cli", "main", None),
]

LAYERS = ("words", "folding", "machine", "mcbiset", "multicurve", "machfile", "cli")

CLI_SUBCOMMANDS = ("mcbiset", "validate", "monodromy", "lifts", "thurston-matrix",
                   "obstructed", "solve-twists", "split", "classify-twist", "iso")

# Statistics besides calls and self_s: sums over the repetition, or
# maxima for the degree and the biset and rewrite sizes.
EXTRA_STATS = [
    "words.Automorphism.__call__.letters_in",
    "words.Automorphism.__call__.letters_out",
    "words.wmul.letters_out",
    "folding.SubgroupGraph.__init__.letters_in",
    "folding.SubgroupGraph.__init__.states",
    "folding.expand_expression.letters_out",
    "machine.degree_max",
    "mcbiset.conjugacy_iterate.steps",
    "mcbiset.orbits",
    "mcbiset.edges",
    "mcbiset.knitting_letters_max",
    "mcbiset.knitting_letters_mean",
    "mcbiset.rewrite.word_letters_max",
    "machfile.parse_word.letters",
    "machfile.save_mcb.bytes",
]


def function_names():
    """Span names of every traced function, CLI split by subcommand."""
    out = []
    for mod, path, _ in TARGETS:
        if (mod, path) == ("cli", "main"):
            out.extend(f"cli.main.{sub}" for sub in CLI_SUBCOMMANDS)
        else:
            out.append(f"{mod}.{path}")
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.sums: dict[str, float] = {}
        self.peaks: dict[str, float] = {}
        self._undo: list = []

    # -- recording ---------------------------------------------------------
    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str, t: float | None = None) -> int:
        i = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter() if t is None else t)
        return i

    def close(self, i: int, t: float | None = None):
        self.end[i] = perf_counter() if t is None else t
        self.stack.pop()

    def add(self, key: str, value):
        self.sums[key] = self.sums.get(key, 0) + value

    def peak(self, key: str, value):
        if value > self.peaks.get(key, 0):
            self.peaks[key] = value

    # -- installation ------------------------------------------------------
    def _wrap(self, key, fn, hook, name_of=None):
        tracer = self

        def wrapper(*args, **kwargs):
            i = tracer.open(name_of(args, kwargs) if name_of else key)
            try:
                res = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, key, args, res)
            finally:
                tracer.close(i)
            return res

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__qualname__ = getattr(fn, "__qualname__", key)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        mods = [m for n, m in list(sys.modules.items())
                if n == "sphmach" or n.startswith("sphmach.")]
        for modname, path, hook in TARGETS:
            mod = importlib.import_module(f"sphmach.{modname}")
            key = f"{modname}.{path}"
            name_of = _cli_name if key == "cli.main" else None
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(key, orig, hook))
                self._undo.append((cls, attr, orig))
                continue
            orig = getattr(mod, path)
            wrapper = self._wrap(key, orig, hook, name_of)
            for m in mods:
                if m.__dict__.get(path) is orig:
                    setattr(m, path, wrapper)
                    self._undo.append((m, path, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def write_spans(self, path):
        """One line per span: name, start, end (seconds), parent index."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\n")

    # -- report ------------------------------------------------------------
    def report(self) -> dict:
        """Per-function calls and self time, per-layer self time, the time
        in root spans outside every traced function, and the counters."""
        n = len(self.start)
        start, end, parent, name_id = self.start, self.end, self.parent, self.name_id
        covered = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        orphans = misnested = 0
        for i in range(n):
            nid = name_id[i]
            p = parent[i]
            if not (start[i] <= end[i] and
                    (p < 0 or start[p] <= start[i] and end[i] <= end[p])):
                misnested += 1
            calls[nid] += 1
            self_s[nid] += end[i] - start[i] - covered[i]
            if p < 0 and self.names[nid] != ROOT:
                orphans += 1
        out: dict[str, float] = {}
        for name in function_names():
            nid = self._ids.get(name)
            out[name + ".calls"] = calls[nid] if nid is not None else 0
            out[name + ".self_s"] = self_s[nid] if nid is not None else 0.0
        for name, nid in self._ids.items():
            if name != ROOT and name + ".calls" not in out:
                raise RuntimeError(f"span {name!r} has no metric")
        for layer in LAYERS:
            out[layer + ".self_s"] = sum(
                self_s[nid] for name, nid in self._ids.items()
                if name.split(".")[0] == layer)
        root = self._ids.get(ROOT)
        out["unlisted.self_s"] = self_s[root] if root is not None else 0.0
        for key in EXTRA_STATS:
            out[key] = self.sums.get(key, self.peaks.get(key, 0))
        edges = self.sums.get("mcbiset.knitting_edges", 0)
        out["mcbiset.knitting_letters_mean"] = (
            self.sums.get("mcbiset.knitting_letters_total", 0) / edges
            if edges else 0.0)
        out["trace.spans"] = n
        out["_orphans"] = orphans
        out["_misnested"] = misnested
        return out
