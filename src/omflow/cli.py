"""Command-line front end.

Four subcommands: ``compute`` prints one invariant of one instance as JSON,
``verify`` runs check suites over a corpus (or a single instance) and prints
a JSON array of reports, ``corpus`` writes the instance corpus to disk as
JSON files, and ``classes`` reports reorientation-class structure.

Everything written to stdout is canonical JSON (sorted keys, fixed
separators), so identical invocations are byte-identical.  Exit codes:
0 success / all checks pass, 1 a verification check failed, 2 usage or input
error, 3 work-budget exceeded.
"""

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .algebra import as_frac, json_dumps_canonical
from .coflows import (
    DEFAULT_BUDGET,
    a_eval,
    a_even_poly,
    a_poly,
    b_poly,
    char_pair,
)
from .cocycles import reorientation_classes, verify_class_counts
from .errors import (
    BudgetExceeded,
    DegreeSafetyCheckFailed,
    InvariantViolated,
    OmflowError,
)
from .fixtures import (
    NAMED_FIXTURES,
    NAMED_POMS,
    corpus_digraphs,
    corpus_doubled,
    corpus_poms,
    default_corpus,
    fixture_names,
    get_fixture,
    get_pom_fixture,
    pom_graph,
)
from .identities import SUITES, run_suites
from .matroid import Digraph, OrientedMatroid
from .pom import make_pom, t1, t2, verify_pom
from .tutte import potts, tutte

IDENTITY_SUITES = tuple(SUITES)
ALL_SUITES = IDENTITY_SUITES + ("pom", "classes")


class CliError(Exception):
    """Bad arguments or unusable input; mapped to exit code 2."""


# ---------------------------------------------------------------------------
# input resolution
# ---------------------------------------------------------------------------


def _pom_from_pairs(om: OrientedMatroid, pairs, source: str):
    """Ground partition from label pairs; unlisted elements stay oriented."""
    index = {lab: i for i, lab in enumerate(om.labels)}
    blocks = []
    used = set()
    for pair in _list(pairs, f"{source}: 'pairs'"):
        _list(pair, f"{source}: pair {json.dumps(pair)}", length=2)
        try:
            b = tuple(index[str(lab)] for lab in pair)
        except KeyError as e:
            raise CliError(f"unknown element label {e.args[0]!r} in pairs") from None
        blocks.append(b)
        used.update(b)
    blocks.extend((i,) for i in range(om.n) if i not in used)
    return make_pom(om, blocks)


def _vertex_count(obj, source: str) -> int:
    if "vertices" not in obj:
        raise CliError(f"{source}: a graph input needs the key 'vertices'")
    return _integer(obj["vertices"], f"{source}: 'vertices'")


def _integer(x, what: str) -> int:
    # JSON true and false arrive as Python bools, which are ints
    if isinstance(x, bool) or not isinstance(x, int):
        raise CliError(f"{what} must be an integer, got {json.dumps(x)}")
    return x


def _rational(x, what: str) -> Fraction:
    """An integer or a string such as "-3/7"; floats are inexact."""
    if not isinstance(x, bool):
        try:
            return as_frac(x)
        except (TypeError, ValueError, ZeroDivisionError):
            pass
    raise CliError(f"{what} must be an integer or a rational string, not {json.dumps(x)}")


def _list(x, what: str, length=None) -> list:
    if not isinstance(x, list) or length not in (None, len(x)):
        shape = "a list" if length is None else f"a list of {length}"
        raise CliError(f"{what} must be {shape}, got {json.dumps(x)}")
    return x


def _labels(obj, source: str):
    """The optional "labels": distinct strings, as many as the elements."""
    if "labels" not in obj:
        return None
    labels = _list(obj["labels"], f"{source}: 'labels'")
    if not all(isinstance(x, str) for x in labels):
        raise CliError(f"{source}: 'labels' must be strings, got {json.dumps(labels)}")
    if len(set(labels)) != len(labels):
        raise CliError(f"{source}: 'labels' repeats a label: {json.dumps(labels)}")
    return labels


def _arc(a, what: str) -> tuple:
    u, v = _list(a, what, length=2)
    return _integer(u, what), _integer(v, what)


def load_input(source: str, assume_tu: bool = False):
    """Resolve --input to ("om", om, digraph_or_None) or ("pom", pom).

    `source` is the name of a built-in fixture or a path to a JSON file
    holding a digraph {"vertices", "arcs", "labels"?}, a matrix {"rows",
    "labels"?}, or a mixed graph {"vertices", "edges", "labels"?}; the first
    two may carry "pairs" (label doubletons) to leave some elements
    unoriented.  A mixed graph's edges are [u, v, "directed"|"undirected"];
    its labels follow :func:`fixtures.pom_graph`.
    """
    if source in NAMED_FIXTURES:
        om, d = get_fixture(source)
        return ("om", om, d)
    if source in NAMED_POMS:
        return ("pom", get_pom_fixture(source))
    try:
        text = Path(source).read_text()
    except OSError as e:
        raise CliError(f"cannot read input {source!r}: {e}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise CliError(f"{source}:{e.lineno}:{e.colno}: {e.msg}") from None
    if not isinstance(obj, dict):
        raise CliError(f"{source}: top-level JSON value must be an object")
    try:
        return _from_json(obj, source, assume_tu)
    except TypeError as e:
        raise CliError(f"{source}: a value has the wrong type: {e}") from None


def _from_json(obj: dict, source: str, assume_tu: bool):
    labels = _labels(obj, source)
    if "edges" in obj:
        directed, undirected = [], []
        for e in _list(obj["edges"], f"{source}: 'edges'"):
            what = f"{source}: edge {json.dumps(e)}"
            *arc, kind = _list(e, what, length=3)
            if kind not in ("directed", "undirected"):
                raise CliError(f"edge {e!r} is not [u, v, 'directed'|'undirected']")
            (directed if kind == "directed" else undirected).append(_arc(arc, what))
        nv = _vertex_count(obj, source)
        p = pom_graph(nv, directed, undirected, labels)
        if p.pairs:
            return ("pom", p)
        return ("om", p.om, Digraph.make(nv, directed, labels))
    if "arcs" in obj:
        arcs = [
            _arc(a, f"{source}: arc {json.dumps(a)}")
            for a in _list(obj["arcs"], f"{source}: 'arcs'")
        ]
        d = Digraph.make(_vertex_count(obj, source), arcs, labels)
        om = OrientedMatroid.from_digraph(d)
        if "pairs" in obj:
            return ("pom", _pom_from_pairs(om, obj["pairs"], source))
        return ("om", om, d)
    if "rows" in obj:
        entry = f"{source}: matrix entry"
        rows = [
            [_rational(x, entry) for x in _list(row, f"{source}: a row")]
            for row in _list(obj["rows"], f"{source}: 'rows'")
        ]
        assume = obj.get("assume_tu", False)
        if not isinstance(assume, bool):
            raise CliError(f"{source}: 'assume_tu' must be a boolean, not {json.dumps(assume)}")
        om = OrientedMatroid.from_matrix(
            rows, labels=labels, tu_mode="assume" if assume_tu or assume else "check"
        )
        if "pairs" in obj:
            return ("pom", _pom_from_pairs(om, obj["pairs"], source))
        return ("om", om, None)
    raise CliError(
        f"{source}: expected one of the keys 'arcs', 'rows', 'edges' "
        "or the name of a built-in fixture"
    )


def _require_om(resolved, what: str):
    if resolved[0] != "om":
        raise CliError(f"{what} needs a fully oriented input, got unoriented pairs")
    return resolved[1], resolved[2]


def _as_pom(resolved):
    if resolved[0] == "pom":
        return resolved[1]
    om = resolved[1]
    return make_pom(om, [(i,) for i in range(om.n)])


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def parse_at(spec) -> dict:
    """"q=3,y=1/2" -> {"q": Fraction(3), "y": Fraction(1, 2)}."""
    out = {}
    if not spec:
        return out
    for part in spec.split(","):
        var, eq, val = part.partition("=")
        var, val = var.strip(), val.strip()
        if not eq or not var or not val:
            raise CliError(f"--at binding {part!r} is not var=value")
        if var in out:
            raise CliError(f"--at binds {var!r} twice")
        try:
            out[var] = Fraction(val)
        except (ValueError, ZeroDivisionError):
            raise CliError(f"--at value {val!r} is not a rational") from None
    return out


def _apply_at(poly, at: dict, bound: set):
    for var, val in at.items():
        if var in poly.vars:
            poly = poly.subs_scalar(var, val)
            bound.add(var)
    return poly


def cmd_compute(args) -> int:
    at = parse_at(args.at)
    resolved = load_input(args.input, assume_tu=args.assume_tu)
    what = args.what

    parts: dict
    if what in ("t1", "t2"):
        p = _as_pom(resolved)
        fn = t1 if what == "t1" else t2
        parts = {None: fn(p, budget=args.budget, jobs=args.jobs)}
    elif what == "b":
        om, d = _require_om(resolved, "the b-polynomial")
        if d is None:
            raise CliError("the b-polynomial needs a digraph input")
        parts = {None: b_poly(d, budget=args.budget)}
    else:
        om, _d = _require_om(resolved, f"computing {what}")
        if what == "a":
            q0 = at.get("q")
            if (
                set(at) == {"q"}
                and q0.denominator == 1
                and q0 >= 1
                and q0.numerator % 2 == 1
            ):
                # evaluate directly at the requested odd q; no interpolation
                poly = a_eval(om, int(q0), budget=args.budget, jobs=args.jobs)
                print(json_dumps_canonical(poly.to_json_obj()))
                return 0
            parts = {None: a_poly(om, budget=args.budget, jobs=args.jobs)}
        elif what == "tutte":
            parts = {None: tutte(om, budget=args.budget)}
        elif what == "potts":
            parts = {None: potts(om, budget=args.budget)}
        elif what == "char":
            cp = char_pair(om, budget=args.budget)
            parts = {"strict": cp.strict, "weak": cp.weak}
        elif what == "a-even":
            ev = a_even_poly(om, budget=args.budget, jobs=args.jobs)
            parts = {"odd": ev.odd, "even": ev.even}
        else:  # pragma: no cover - argparse restricts choices
            raise CliError(f"unknown computation {what!r}")

    bound: set = set()
    parts = {k: _apply_at(v, at, bound) for k, v in parts.items()}
    unused = sorted(set(at) - bound)
    if unused:
        raise CliError(f"--at binds {', '.join(unused)} not present in the result")
    if None in parts:
        obj = parts[None].to_json_obj()
    else:
        obj = {k: v.to_json_obj() for k, v in parts.items()}
    print(json_dumps_canonical(obj))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _verify_instance(resolved, name: str, suites, budget, jobs) -> list:
    reports = []
    id_suites = [s for s in suites if s in SUITES]
    if resolved[0] == "pom" and (id_suites or "classes" in suites):
        if set(suites) != {"pom"} and tuple(suites) != ALL_SUITES:
            raise CliError("identity/classes suites need a fully oriented input")
        id_suites = []
        suites = ("pom",)
    if id_suites:
        om, d = resolved[1], resolved[2]
        reports += run_suites(om, name, suites=id_suites, budget=budget, jobs=jobs, digraph=d)
    if "pom" in suites:
        reports += verify_pom(_as_pom(resolved), name, budget=budget, jobs=jobs)
    if "classes" in suites and resolved[0] == "om":
        reports += verify_class_counts(resolved[1], name, budget=budget)
    return reports


def cmd_verify(args) -> int:
    suites = ALL_SUITES if args.suite == "all" else (args.suite,)
    reports = []
    if args.input is not None:
        resolved = load_input(args.input, assume_tu=args.assume_tu)
        reports = _verify_instance(resolved, args.input, suites, args.budget, args.jobs)
    else:
        id_suites = [s for s in suites if s in SUITES]
        named = not args.corpus_no_named
        if id_suites or "classes" in suites:
            for name, om, d in default_corpus(
                args.corpus_max_vertices,
                args.corpus_max_arcs,
                args.corpus_doubled_vertices,
                args.corpus_doubled_edges,
                include_named=named,
            ):
                if id_suites:
                    reports += run_suites(
                        om, name, suites=id_suites, budget=args.budget,
                        jobs=args.jobs, digraph=d,
                    )
                if "classes" in suites:
                    reports += verify_class_counts(om, name, budget=args.budget)
        if "pom" in suites:
            for name, p in corpus_poms(args.corpus_pom_vertices, args.corpus_pom_edges, named):
                reports += verify_pom(p, name, budget=args.budget, jobs=args.jobs)

    print(json_dumps_canonical([r.to_json_obj() for r in reports]))
    failing = [r for r in reports if r.status == "fail"]
    if failing:
        print(failing[0].line(), file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# corpus export
# ---------------------------------------------------------------------------

def cmd_corpus(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    entries = []

    def emit(name, obj):
        path = outdir / f"{name}.json"
        path.write_text(json_dumps_canonical(obj) + "\n")
        entries.append(name)

    for name, d in corpus_digraphs(args.corpus_max_vertices, args.corpus_max_arcs):
        emit(name, d.to_json_obj())
    for name, (nv, edges), _om in corpus_doubled(
        args.corpus_doubled_vertices, args.corpus_doubled_edges
    ):
        emit(name, {
            "vertices": nv,
            "edges": [[u, v, "undirected"] for u, v in edges],
        })
    if not args.corpus_no_named:
        for name in fixture_names():
            om, d = get_fixture(name)
            if d is not None:
                emit(name, d.to_json_obj())
                continue
            obj = {"rows": [[str(x) for x in row] for row in om.rows],
                   "labels": list(om.labels)}
            if om.tu_status != "true":
                obj["assume_tu"] = True
            emit(name, obj)
    (outdir / "index.json").write_text(
        json_dumps_canonical({"instances": sorted(entries)}) + "\n"
    )
    print(json_dumps_canonical({"written": len(entries), "out": str(outdir)}))
    return 0


# ---------------------------------------------------------------------------
# reorientation classes
# ---------------------------------------------------------------------------


def cmd_classes(args) -> int:
    resolved = load_input(args.input, assume_tu=args.assume_tu)
    om, _d = _require_om(resolved, "class counting")
    rc = reorientation_classes(om, universe=args.universe, budget=args.budget)
    obj = {
        "universe": rc.universe,
        "count": rc.count,
        "acyclic_count": rc.acyclic_count,
        "classes": [
            {"size": len(cls), "acyclic": flag}
            for cls, flag in zip(rc.classes, rc.acyclic_flags)
        ],
    }
    print(json_dumps_canonical(obj))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _int_at_least(least: int):
    """argparse type: an int no smaller than `least` (else exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return parse


def _add_common(sp, jobs=True):
    sp.add_argument("--budget", type=_int_at_least(0), default=DEFAULT_BUDGET,
                    help="work cap; exceeding it exits 3")
    if jobs:
        sp.add_argument("--jobs", type=_int_at_least(1), default=1,
                        help="worker processes for coflow counting, at most "
                        "the number of CPUs")
    sp.add_argument("--assume-tu", action="store_true",
                    help="keep a matrix input whose circuits do not certify "
                    "it regular, instead of exiting 2; its coflow counts are "
                    "then filtered by every circuit")


def _add_corpus_caps(sp, poms=False):
    sp.add_argument("--corpus-max-vertices", type=int, default=4)
    sp.add_argument("--corpus-max-arcs", type=int, default=5)
    sp.add_argument("--corpus-doubled-vertices", type=int, default=5)
    sp.add_argument("--corpus-doubled-edges", type=int, default=4)
    if poms:
        sp.add_argument("--corpus-pom-vertices", type=int, default=4)
        sp.add_argument("--corpus-pom-edges", type=int, default=3)
    sp.add_argument("--corpus-no-named", action="store_true",
                    help="leave the named fixtures out of the corpus")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omflow",
        description="Exact coflow statistics and Tutte-style invariants "
        "of digraphs and of matrices that represent regular oriented matroids "
        "(every circuit's kernel vector rescales to {-1, 0, 1}).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("compute", help="print one invariant as JSON")
    sp.add_argument("what", choices=["a", "tutte", "potts", "char", "t1", "t2",
                                     "a-even", "b"])
    sp.add_argument("--input", required=True,
                    help="fixture name or path to a JSON instance")
    sp.add_argument("--at", default=None,
                    help="comma-separated var=value bindings, e.g. q=3,y=1/2")
    _add_common(sp)
    sp.set_defaults(func=cmd_compute)

    sp = sub.add_parser("verify", help="run check suites, print JSON reports")
    sp.add_argument("--suite", default="all", choices=list(ALL_SUITES) + ["all"])
    sp.add_argument("--input", default=None,
                    help="verify one instance instead of the corpus")
    _add_common(sp)
    _add_corpus_caps(sp, poms=True)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("corpus", help="write the instance corpus as JSON files")
    sp.add_argument("--out", required=True, help="output directory")
    _add_corpus_caps(sp)
    sp.set_defaults(func=cmd_corpus)

    sp = sub.add_parser("classes", help="reorientation classes of one instance")
    sp.add_argument("--input", required=True)
    sp.add_argument("--universe", default="cocycles", choices=["cocycles", "all"])
    _add_common(sp, jobs=False)
    sp.set_defaults(func=cmd_classes)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (DegreeSafetyCheckFailed, InvariantViolated) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (CliError, OmflowError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
