"""Properties of the package source itself."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import omflow

SOURCES = sorted(Path(omflow.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips assert statements; invariants must raise instead
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} asserts at lines {lines}"


def _tu_status_literals(tree):
    """(line, value) of every constant compared with an `x.tu_status`."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        if not any(getattr(x, "attr", None) == "tu_status" for x in operands):
            continue
        for x in operands:
            for leaf in getattr(x, "elts", [x]):  # a tuple, list or set literal
                if isinstance(leaf, ast.Constant):
                    yield leaf.lineno, leaf.value


def test_tu_status_comparisons_use_known_states():
    # a misspelt state would silently switch a suite's regularity gate
    found = [
        (path.name, line, value)
        for path in SOURCES
        for line, value in _tu_status_literals(ast.parse(path.read_text()))
    ]
    assert found, "no comparison with tu_status found"
    unknown = [f for f in found if f[2] not in ("true", "not-tu")]
    assert unknown == [], f"unknown tu_status states compared: {unknown}"


def test_lattice_count_shares_no_counting_machinery():
    # lattice_count is the oracle for the basis-parametrized counters, so it
    # must not reach their kernel, tally or extension matrix
    path = Path(omflow.__file__).parent / "coflows.py"
    tree = ast.parse(path.read_text())
    [fn] = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "lattice_count"
    ]
    used = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(fn)}
    shared = used & {"_codes", "_coflow_parts", "_tally", "_decode", "extension_matrix"}
    assert shared == set(), f"lattice_count uses {sorted(shared)}"


def _unbounded_caches(tree):
    """Lines where a functools cache is used without an integer maxsize:
    `functools.cache` in any form, and `lru_cache` unless it is called with
    an int constant as its `maxsize` (by keyword or first argument)."""
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name == "cache" for alias in node.names):
                yield node.lineno
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools":
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        else:
            continue
        if name == "cache" and isinstance(node, ast.Attribute):
            yield node.lineno
        elif name == "lru_cache":
            call = calls.get(id(node))
            sizes = [] if call is None else [
                *call.args[:1], *(k.value for k in call.keywords if k.arg == "maxsize")
            ]
            if not any(
                isinstance(x, ast.Constant) and type(x.value) is int for x in sizes
            ):
                yield node.lineno


def test_cache_check_flags_unbounded_caches():
    flagged = [
        "@functools.cache\ndef f(): pass",
        "from functools import cache",
        "@functools.lru_cache\ndef f(): pass",
        "@functools.lru_cache(maxsize=None)\ndef f(): pass",
        "from functools import lru_cache\n@lru_cache()\ndef f(): pass",
    ]
    for text in flagged:
        assert list(_unbounded_caches(ast.parse(text))), text
    bounded = "@functools.lru_cache(maxsize=32)\ndef f(): pass\n@lru_cache(8)\ndef g(): pass"
    assert list(_unbounded_caches(ast.parse(bounded))) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_caches_are_bounded(path):
    # a cache that grows with its input outlives the run that filled it
    lines = list(_unbounded_caches(ast.parse(path.read_text(), filename=str(path))))
    assert lines == [], f"{path.name} has unbounded caches at lines {lines}"


def _raw_poly_reads(tree):
    """Lines that read `Poly`'s raw numerator storage: the attribute `_nums`,
    or the string "_nums" (as `getattr` takes it)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_nums":
            yield node.lineno
        elif isinstance(node, ast.Constant) and node.value == "_nums":
            yield node.lineno


def test_raw_storage_check_flags_raw_reads():
    flagged = [
        "p._nums",
        "for e, c in p._nums.items(): pass",
        "n = {e: c for e, c in other._nums.items()}",
        "getattr(p, '_nums')",
    ]
    for text in flagged:
        assert list(_raw_poly_reads(ast.parse(text))), text
    accessor = "nums = p.numerators()\nd = p.den\nt = obj['terms']"
    assert list(_raw_poly_reads(ast.parse(accessor))) == []


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "algebra.py"], ids=lambda p: p.name
)
def test_poly_storage_is_read_only_in_algebra(path):
    # every other module reads numerators through `Poly.numerators()`, over
    # `Poly.den`, so none can mistake a numerator for a coefficient
    lines = list(_raw_poly_reads(ast.parse(path.read_text(), filename=str(path))))
    assert lines == [], f"{path.name} reads Poly._nums at lines {lines}"


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _worker_names():
    """Dotted `module.attr...` chains that perfbench/worker.py reads from
    the omflow modules it binds with `modules(...)`."""
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    bound = {}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", None) == "modules"
        ):
            names = [t.id for t in node.targets[0].elts]
            bound.update(zip(names, (a.value for a in node.value.args)))
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            yield bound[node.id], chain


def test_benchmark_names_exist():
    # the benchmark wraps and calls these names; deleting one must fail here
    # rather than crash the benchmark or drop its metrics as absent
    spec = importlib.util.spec_from_file_location("tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wanted = [(mod, [attr]) for mod, attrs in tracer.FUNCTIONS.items() for attr in attrs]
    wanted += [
        (mod, [cls, attr]) for (mod, cls), attrs in tracer.METHODS.items() for attr in attrs
    ]
    worker = list(_worker_names())
    assert ("algebra", ["mat_rank"]) in worker
    wanted += [(f"omflow.{mod}", chain) for mod, chain in worker]
    missing = []
    for mod, chain in wanted:
        obj = importlib.import_module(mod)
        for attr in chain:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(".".join([mod, *chain]))
    assert missing == []


def _reads(tree, names):
    """Lines that name one of `names` as a function or attribute, so a bound
    method passed around is caught as well as a call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        else:
            continue
        if name in names:
            yield node.lineno


def _dual_reads(tree):
    """Lines that name `dual` or `cocircuits`."""
    return _reads(tree, ("dual", "cocircuits"))


def _minor_builds(tree):
    """Lines that name `delete`, `contract` or `minor`."""
    return _reads(tree, ("delete", "contract", "minor"))


def _function(tree, name):
    """The top-level function `name` of a module tree."""
    [fn] = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    return fn


def _partition_walks(fn):
    """The loops `for R in ...` of a function: its walks over the deleted or
    contracted set R."""
    return [
        node for node in ast.walk(fn)
        if isinstance(node, ast.For) and getattr(node.target, "id", None) == "R"
    ]


IDENTITIES = Path(omflow.__file__).parent / "identities.py"


def test_dual_check_flags_dual_reads():
    flagged = [
        "p.om.dual()",
        "under.cocircuits()",
        "[d.support for d in om.cocircuits()]",
        "f = om.dual\nf()",
        "from omflow.matroid import dual\ndual(om)",
    ]
    for text in flagged:
        assert list(_dual_reads(ast.parse(text))), text
    ranks = "om.rank_of(om.full_mask & ~m) < om.rank\ndual_rank = 3\n'no dual is built'"
    assert list(_dual_reads(ast.parse(ranks))) == []


def test_pom_asks_rank_questions_only():
    # pair kinds and activities are ranks from the stored circuit list; a
    # dual costs an elimination and a circuit enumeration per instance
    path = Path(omflow.__file__).parent / "pom.py"
    lines = list(_dual_reads(ast.parse(path.read_text(), filename=str(path))))
    assert lines == [], f"pom.py reads dual/cocircuits at lines {lines}"


def test_minor_check_flags_minor_builds():
    flagged = [
        "om.delete(R)",
        "om.contract(1 << a)",
        "om.minor(delete=d, contract=c)",
        "f = om.contract\nf(R)",
    ]
    for text in flagged:
        assert list(_minor_builds(ast.parse(text))), text
    reads = "[c.drop(R) for c in om.circuits]\nom.rank_of(rest)\n'no minor is built'"
    assert list(_minor_builds(ast.parse(reads))) == []


def test_function_scoped_checks_flag_their_function():
    text = (
        "def verify_reciprocity(om):\n"
        "    for R in range(1 << om.n):\n"
        "        m = om.contract(R)\n"
        "    om.contract(flat)\n"
        "def verify_recurrences(om):\n"
        "    supports = {d.support for d in om.cocircuits()}\n"
        "def other(om):\n"
        "    om.dual()\n"
    )
    tree = ast.parse(text)
    [walk] = _partition_walks(_function(tree, "verify_reciprocity"))
    assert list(_minor_builds(walk)) == [3]
    assert list(_dual_reads(_function(tree, "verify_recurrences"))) == [6]
    with pytest.raises(ValueError):
        _function(tree, "verify_duality")


def test_reciprocity_partition_sums_build_no_minors():
    # the partition sums read M minus R and M/R as the parent's circuit
    # lists; the cyclic-flat expansion after them contracts each cyclic flat
    fn = _function(ast.parse(IDENTITIES.read_text()), "verify_reciprocity")
    walks = _partition_walks(fn)
    assert walks, "verify_reciprocity walks no R"
    lines = [line for walk in walks for line in _minor_builds(walk)]
    assert lines == [], f"verify_reciprocity builds minors at lines {lines}"


def test_recurrences_read_no_dual():
    # an opposite pair is a cocircuit when deleting it drops the rank
    fn = _function(ast.parse(IDENTITIES.read_text()), "verify_recurrences")
    lines = list(_dual_reads(fn))
    assert lines == [], f"verify_recurrences reads dual/cocircuits at lines {lines}"


def _interpolation_reads(tree):
    """(enclosing top-level function or class, or None at module level, line)
    of every read of `interpolate_columns`."""
    for node in tree.body:
        owner = getattr(node, "name", None)
        for line in _reads(node, ("interpolate_columns",)):
            yield owner, line


def _lru_caches(tree):
    """Lines that name `lru_cache`."""
    return _reads(tree, ("lru_cache",))


def test_interpolation_checks_flag_their_targets():
    text = (
        "from omflow.algebra import interpolate_columns\n"
        "def _interpolated(nodes, cols):\n"
        "    return interpolate_columns(nodes, cols)\n"
        "def a_poly(om):\n"
        "    f = algebra.interpolate_columns\n"
        "cols = interpolate_columns(range(1, 4), [[0, 1, 2]])\n"
    )
    assert list(_interpolation_reads(ast.parse(text))) == [
        ("_interpolated", 3), ("a_poly", 5), (None, 6)
    ]
    cached = "@functools.lru_cache(maxsize=32)\ndef f(): pass\n@lru_cache(8)\ndef g(): pass"
    assert list(_lru_caches(ast.parse(cached))) == [1, 3]
    assert list(_lru_caches(ast.parse("_PRODUCTS = {}\n'no lru_cache here'"))) == []


def test_interpolation_has_one_route():
    # every polynomial in q is interpolated through `_interpolated`, which
    # checks the spare nodes; `interpolate` is its one-column wrapper
    found = {
        (path.name, owner)
        for path in SOURCES
        for owner, _ in _interpolation_reads(ast.parse(path.read_text()))
    }
    assert ("coflows.py", "_interpolated") in found
    others = found - {("coflows.py", "_interpolated"), ("algebra.py", "interpolate")}
    assert others == set(), f"interpolate_columns is read from {sorted(others)}"


def test_algebra_holds_no_lru_cache():
    # interpolation works over progressions and keeps no table across calls
    path = Path(omflow.__file__).parent / "algebra.py"
    lines = list(_lru_caches(ast.parse(path.read_text())))
    assert lines == [], f"algebra.py uses lru_cache at lines {lines}"
