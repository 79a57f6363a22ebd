"""Spans around calls into omflow's public functions, installed from outside.

The tracer never edits the package: it rebinds names.  A public function is
replaced at every module attribute (and every value of a module-level dict,
such as ``identities.SUITES``) bound to that same function object, so
``from .coflows import a_poly`` copies in ``identities``, ``pom`` and ``cli``
are traced too and identity tests like ``fn is verify_duality`` still hold.
Methods are replaced on their class, under every name bound to them
(``Poly.__rmul__`` is ``Poly.__mul__``).  A name that no longer exists is
listed in ``Tracer.absent`` and its metrics are reported as absent.

Spans (name, start, end, parent, item) stay in memory, in flat arrays, and
are written out once, at the end.  A layer's self time is its spans'
duration minus the part covered by their child spans.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from fractions import Fraction

# (module, attribute) of every traced function; span names drop "omflow."
FUNCTIONS = {
    "omflow.coflows": (
        "coflow_histogram", "a_eval", "a_poly", "a_even_poly", "char_pair",
        "even_char_pair", "b_poly", "digraph_a_eval",
    ),
    "omflow.algebra": ("interpolate", "mat_rank", "column_analysis"),
    "omflow.tutte": ("tutte", "potts", "characteristic"),
    "omflow.cocycles": ("reorientation_classes", "verify_class_counts"),
    "omflow.pom": (
        "t1", "t2", "t1_by_subsets", "t2_by_subsets", "t_by_recurrence",
        "t_by_activities", "verify_pom",
    ),
    "omflow.identities": (
        "run_suites", "verify_basic", "verify_tutte_relations",
        "verify_expansions", "verify_reciprocity", "verify_duality",
        "verify_recurrences",
    ),
    "omflow.fixtures": ("default_corpus", "corpus_poms"),
    "omflow.cli": ("main",),
}
METHODS = {
    ("omflow.matroid", "OrientedMatroid"): (
        "rank_of", "dual", "minor", "from_digraph", "from_matrix",
    ),
    ("omflow.algebra", "Poly"): ("__mul__", "__add__"),
}

SUITE_SPANS = {
    "basic": "identities.verify_basic",
    "tutte": "identities.verify_tutte_relations",
    "expansions": "identities.verify_expansions",
    "reciprocity": "identities.verify_reciprocity",
    "duality": "identities.verify_duality",
    "recurrences": "identities.verify_recurrences",
}

# metric -> (unit, how, spans).  "self" sums the spans' self time, "incl"
# their inclusive time, "calls" counts them, and "count" is an exact work
# count, kept in Tracer.counts under the metric's last name part and
# computed from the arguments and results of the spans' calls.
LAYER_METRICS = {
    "coflows.hist_self_s": ("s", "self", ("coflows.coflow_histogram",)),
    "coflows.assign_per_s": ("1/s", "rate", ("coflows.coflow_histogram",)),
    "coflows.hist_calls": ("count", "calls", ("coflows.coflow_histogram",)),
    "coflows.hist_small_calls": ("count", "count", ("coflows.coflow_histogram",)),
    "coflows.assignments": ("count", "count", ("coflows.coflow_histogram",)),
    "coflows.kernel_macs": ("count", "count", ("coflows.coflow_histogram",)),
    "coflows.box_self_s": ("s", "self", ("coflows.char_pair", "coflows.even_char_pair")),
    "coflows.potential_self_s": ("s", "self", ("coflows.b_poly", "coflows.digraph_a_eval")),
    "coflows.assemble_self_s": ("s", "self", ("coflows.a_poly", "coflows.a_even_poly")),
    "coflows.enum_free_ratio": ("ratio", "enum_free", ("coflows.a_poly", "coflows.a_even_poly", "coflows.char_pair")),
    "algebra.interpolate_calls": ("count", "calls", ("algebra.interpolate",)),
    "algebra.interpolate_self_s": ("s", "self", ("algebra.interpolate",)),
    "algebra.poly_mul_calls": ("count", "calls", ("algebra.Poly.__mul__",)),
    "algebra.poly_mul_self_s": ("s", "self", ("algebra.Poly.__mul__",)),
    "algebra.poly_add_self_s": ("s", "self", ("algebra.Poly.__add__",)),
    "algebra.mat_rank_calls": ("count", "calls", ("algebra.mat_rank",)),
    "algebra.mat_rank_self_s": ("s", "self", ("algebra.mat_rank",)),
    "algebra.column_analysis_self_s": ("s", "self", ("algebra.column_analysis",)),
    "matroid.build_self_s": ("s", "self", ("matroid.OrientedMatroid.from_digraph", "matroid.OrientedMatroid.from_matrix")),
    "matroid.rank_of_calls": ("count", "calls", ("matroid.OrientedMatroid.rank_of",)),
    "matroid.rank_of_self_s": ("s", "self", ("matroid.OrientedMatroid.rank_of",)),
    "matroid.dual_self_s": ("s", "self", ("matroid.OrientedMatroid.dual",)),
    "matroid.minor_calls": ("count", "calls", ("matroid.OrientedMatroid.minor",)),
    "matroid.minor_self_s": ("s", "self", ("matroid.OrientedMatroid.minor",)),
    "tutte.subsets": ("count", "count", ("tutte.tutte", "tutte.potts")),
    "tutte.self_s": ("s", "self", ("tutte.tutte", "tutte.potts", "tutte.characteristic")),
    "cocycles.members": ("count", "count", ("cocycles.reorientation_classes",)),
    "cocycles.classes_self_s": ("s", "self", ("cocycles.reorientation_classes",)),
    "pom.t1_self_s": ("s", "self", ("pom.t1",)),
    "pom.t2_self_s": ("s", "self", ("pom.t2",)),
    "pom.recurrence_self_s": ("s", "self", ("pom.t_by_recurrence",)),
    "pom.activities_self_s": ("s", "self", ("pom.t_by_activities",)),
    "pom.subsets_self_s": ("s", "self", ("pom.t1_by_subsets", "pom.t2_by_subsets")),
    **{
        f"identities.{suite}_s": ("s", "incl", (span,))
        for suite, span in SUITE_SPANS.items()
    },
    "identities.checks": ("count", "count", ("identities.run_suites",)),
    "identities.skips": ("count", "count", ("identities.run_suites",)),
    "fixtures.corpus_s": ("s", "incl", ("fixtures.default_corpus", "fixtures.corpus_poms")),
    "cli.main_self_s": ("s", "self", ("cli.main",)),
}
ENUM_SPANS = ("coflows.a_eval", "coflows.coflow_histogram")
COUNT_KEYS = tuple(m.split(".", 1)[1] for m, v in LAYER_METRICS.items() if v[1] == "count")
SMALL_HIST = 1000  # a histogram call under this many assignments is "small"


class Tracer:
    """Records spans around the traced calls of one process."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.item = array("i")
        self.current_item = -1
        self._stack = [-1]
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self.absent: list = []
        self._undo: list = []
        self._ranks: dict = {}

    # -- recording ---------------------------------------------------------

    def _begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.item.append(self.current_item)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name: str, fn):
        nid = self._nid(name)
        begin, finish, count = self._begin, self._finish, self._count
        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = begin(nid)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        finish(idx)
                    yield value

            traced_gen.__wrapped__ = fn
            return traced_gen

        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                finish(idx)
            count(name, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, args, out) -> None:
        c = self.counts
        if name == "coflows.coflow_histogram":
            om = args[0]
            r = self._rank(om)
            total = out.q**r
            c["assignments"] += total
            c["kernel_macs"] += total * om.n * r
            c["hist_small_calls"] += total < SMALL_HIST
        elif name in ("tutte.tutte", "tutte.potts"):
            c["subsets"] += 1 << args[0].n
        elif name == "cocycles.reorientation_classes":
            c["members"] += len(out.members)
        elif name == "identities.run_suites":
            skips = sum(r.status == "skip" for r in out)
            c["skips"] += skips
            c["checks"] += len(out) - skips

    def _rank(self, om) -> int:
        # the tracer's own elimination, so the count neither adds spans, nor
        # fills the matroid's rank cache, nor depends on omflow's names
        r = self._ranks.get(om.rows)
        if r is None:
            r = self._ranks[om.rows] = rank_of_rows(om.rows)
        return r

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "omflow" or k.startswith("omflow."))]
        for modname, attrs in FUNCTIONS.items():
            mod = sys.modules.get(modname)
            for attr in attrs:
                orig = getattr(mod, attr, None) if mod else None
                label = f"{modname[len('omflow.'):]}.{attr}"
                if orig is None:
                    self.absent.append(label)
                    continue
                self._rebind(mods, orig, self._wrap(label, orig))
        for (modname, clsname), attrs in METHODS.items():
            cls = getattr(sys.modules.get(modname), clsname, None)
            for attr in attrs:
                raw = cls.__dict__.get(attr) if cls else None
                label = f"{modname[len('omflow.'):]}.{clsname}.{attr}"
                if raw is None:
                    self.absent.append(label)
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(label, raw.__func__))
                else:
                    new = self._wrap(label, raw)
                for key, val in list(cls.__dict__.items()):
                    if val is raw:
                        self._undo.append((setattr, cls, key, raw))
                        setattr(cls, key, new)
        return self

    def _rebind(self, mods, orig, new) -> None:
        for mod in mods:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((setattr, mod, key, orig))
                    setattr(mod, key, new)
                elif type(val) is dict:
                    for k, v in list(val.items()):
                        if v is orig:
                            self._undo.append((dict.__setitem__, val, k, orig))
                            val[k] = new

    def uninstall(self) -> None:
        for op, target, key, orig in reversed(self._undo):
            op(target, key, orig)
        self._undo.clear()

    # -- output ------------------------------------------------------------

    def spans(self) -> list:
        """[(name, start_ns, end_ns, parent_index, item)] in call order."""
        return [
            (self.names[n], s, e, p, i)
            for n, s, e, p, i in zip(self.name, self.start, self.end, self.parent, self.item)
        ]

    def write(self, path) -> None:
        """Spans as five little-endian column arrays after a JSON header line."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "columns": [["name", "i"], ["start", "q"], ["end", "q"], ["parent", "i"], ["item", "i"]],
        }
        with open(path, "wb") as f:
            f.write((json.dumps(header) + "\n").encode())
            for col in (self.name, self.start, self.end, self.parent, self.item):
                col.tofile(f)


def rank_of_rows(rows) -> int:
    """Rank of an exact (Fraction or int) matrix by Gaussian elimination."""
    work = [list(row) for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        prow = work[rank]
        for i, row in enumerate(work):
            if i != rank and row[col]:
                f = Fraction(row[col]) / prow[col]
                work[i] = [a - f * b for a, b in zip(row, prow)]
        rank += 1
    return rank


def read_spans(path) -> list:
    """Inverse of Tracer.write."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        n = header["count"]
        cols = []
        for _name, code in header["columns"]:
            a = array(code)
            a.fromfile(f, n)
            cols.append(a)
    names = header["names"]
    return [(names[a], s, e, p, i) for a, s, e, p, i in zip(*cols)]


def self_times(spans) -> list:
    """Self time of every span: its duration minus its children's durations.

    Children of one span are disjoint in a single thread, so subtracting
    their durations removes exactly the part of the interval they cover.
    """
    out = [e - s for _n, s, e, _p, _i in spans]
    for _n, s, e, p, _i in spans:
        if p >= 0:
            out[p] -= e - s
    return out


def aggregate(spans, counts: dict) -> dict:
    """Per-span-name totals of one process, in a form that adds up.

    {"self_ns", "incl_ns", "calls", "enum_free"}: {span name: number}, plus
    "counts".  "enum_free" counts the spans with no a_eval or
    coflow_histogram span below them, that is calls a memo served.
    """
    own = self_times(spans)
    enumerated = set()
    for name, _s, _e, p, _i in spans:
        if name in ENUM_SPANS:
            while p >= 0 and p not in enumerated:
                enumerated.add(p)
                p = spans[p][3]
    agg = {"self_ns": {}, "incl_ns": {}, "calls": {}, "enum_free": {}, "counts": dict(counts)}
    for idx, ((name, s, e, _p, _i), own_ns) in enumerate(zip(spans, own)):
        for key, value in (("self_ns", own_ns), ("incl_ns", e - s), ("calls", 1),
                           ("enum_free", idx not in enumerated)):
            agg[key][name] = agg[key].get(name, 0) + value
    return agg


def merge(aggs) -> dict:
    """Sum of several aggregate() results."""
    out = {"self_ns": {}, "incl_ns": {}, "calls": {}, "enum_free": {}, "counts": {}}
    for agg in aggs:
        for key, table in agg.items():
            for name, value in table.items():
                out[key][name] = out[key].get(name, 0) + value
    return out


def layer_metrics(agg: dict, absent=()) -> dict:
    """{metric: value} of LAYER_METRICS; None when a span it needs is absent."""
    absent = set(absent)
    out = {}

    def total(key, names):
        return sum(agg[key].get(n, 0) for n in names)

    for metric, (_unit, how, what) in LAYER_METRICS.items():
        if absent.intersection(what):
            out[metric] = None
        elif how == "count":
            out[metric] = agg["counts"].get(metric.split(".", 1)[1], 0)
        elif how == "self":
            out[metric] = total("self_ns", what) / 1e9
        elif how == "incl":
            out[metric] = total("incl_ns", what) / 1e9
        elif how == "calls":
            out[metric] = total("calls", what)
        elif how == "rate":
            busy = total("incl_ns", what) / 1e9
            out[metric] = agg["counts"].get("assignments", 0) / busy if busy else 0.0
        elif how == "enum_free":
            calls = total("calls", what)
            out[metric] = total("enum_free", what) / calls if calls else 0.0
    return out
