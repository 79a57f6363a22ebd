"""Named small instances and the default verification corpus.

The corpus is what the ``verify`` command and the identity tests run over:
every digraph with at most 4 vertices and 5 arcs, every doubled multigraph
with at most 4 edges on at most 5 vertices, and a handful of named
instances.  Digraphs are enumerated as arc multisets up to relabeling of the
vertices, with isolated vertices excluded (they leave the column matroid
unchanged and rescale both sides of the coloring identities by the same
power of q; the empty and one-vertex digraphs are kept to pin those cases).

Multigraphs (directed or not) are walked in one enumeration order.  The
first member of each relabeling orbit that the walk meets is mapped
through every vertex permutation; the least image is the orbit's
canonical form, and all the images are recorded, so every later member
of that orbit is recognised by one set lookup.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .matroid import Digraph, OrientedMatroid
from .pom import PartialOrientedMatroid, make_pom

# ---------------------------------------------------------------------------
# named instances
# ---------------------------------------------------------------------------

R10_ROWS = [
    [1, 0, 0, 0, 0, -1, 1, 0, 0, 1],
    [0, 1, 0, 0, 0, 1, -1, 1, 0, 0],
    [0, 0, 1, 0, 0, 0, 1, -1, 1, 0],
    [0, 0, 0, 1, 0, 0, 0, 1, -1, 1],
    [0, 0, 0, 0, 1, 1, 0, 0, 1, -1],
]

U24_ROWS = [
    [1, 0, 1, 1],
    [0, 1, 1, -1],
]


def _fix_u24():
    om = OrientedMatroid.from_matrix(
        U24_ROWS, labels=("a", "b", "c", "d"), tu_mode="assume"
    )
    return om, None


def _fix_exp_apoly():
    d = Digraph.make(3, [(0, 1), (1, 2), (0, 2), (2, 0)], ["a", "b", "c", "d"])
    return OrientedMatroid.from_digraph(d), d


def _fix_cocycle_classes():
    d = Digraph.make(
        4, [(0, 1), (1, 2), (2, 0), (2, 3), (0, 3)], ["1", "2", "3", "4", "5"]
    )
    return OrientedMatroid.from_digraph(d), d


def _fix_r10():
    om = OrientedMatroid.from_matrix(
        R10_ROWS, labels=tuple(f"e{i}" for i in range(10)), tu_mode="check"
    )
    return om, None


NAMED_FIXTURES = {
    "U24": _fix_u24,
    "fig-exp-Apoly": _fix_exp_apoly,
    "fig-cocycle-classes": _fix_cocycle_classes,
    "R10": _fix_r10,
}


def fixture_names() -> list:
    return sorted(NAMED_FIXTURES)


def get_fixture(name: str):
    """Return (oriented matroid, digraph or None) for a named instance."""
    try:
        builder = NAMED_FIXTURES[name]
    except KeyError:
        raise KeyError(
            f"unknown fixture {name!r}; known: {', '.join(fixture_names())}"
        ) from None
    return builder()


# ---------------------------------------------------------------------------
# digraph corpus
# ---------------------------------------------------------------------------


def _classes(max_vertices: int, max_arcs: int, directed: bool) -> tuple:
    """(vertices, least relabeling) of every multigraph class whose arcs
    (or edges, when not `directed`) meet every vertex, in walk order."""
    out = []
    for nv in range(1, max_vertices + 1):
        arc_types = [(u, v) for u in range(nv) for v in range(0 if directed else u, nv)]
        # each vertex permutation as a map from arc type to arc type, so the
        # recorded images share their arc tuples instead of copying them
        moves = [
            {(u, v): (perm[u], perm[v]) if directed else tuple(sorted((perm[u], perm[v])))
             for u, v in arc_types}
            for perm in itertools.permutations(range(nv))
        ]
        for k in range(1, max_arcs + 1):
            seen = set()  # every image of the classes found with k arcs
            for arcs in itertools.combinations_with_replacement(arc_types, k):
                if arcs in seen or len({x for arc in arcs for x in arc}) != nv:
                    continue
                images = {tuple(sorted(map(move.__getitem__, arcs))) for move in moves}
                seen |= images
                out.append((nv, min(images)))
    return tuple(out)


@lru_cache(maxsize=8)
def corpus_digraph_arcsets(max_vertices: int = 4, max_arcs: int = 5) -> tuple:
    """All (vertices, arcs) classes up to vertex relabeling.

    Arcs may repeat and may be self-loops; every vertex of a multi-vertex
    instance must meet some arc.
    """
    return ((0, ()), (1, ())) + _classes(max_vertices, max_arcs, directed=True)


def corpus_digraphs(max_vertices: int = 4, max_arcs: int = 5):
    """Yield (name, digraph) over the deduplicated digraph corpus."""
    for i, (nv, arcs) in enumerate(corpus_digraph_arcsets(max_vertices, max_arcs)):
        yield f"digraph-{nv}v-{len(arcs)}a-{i}", Digraph.make(nv, arcs)


# ---------------------------------------------------------------------------
# doubled corpus
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def corpus_edge_multisets(max_vertices: int = 5, max_edges: int = 4) -> tuple:
    """Multigraph classes (vertices, edges) up to vertex relabeling.

    Every connected multigraph with at most ``max_edges`` edges fits in
    ``max_edges + 1`` vertices, so the default vertex cap only omits
    disconnected unions that factor as direct sums of smaller classes.
    """
    return _classes(max_vertices, max_edges, directed=False)


def doubled_matroid(nv: int, edges) -> OrientedMatroid:
    """The doubled column matroid of a multigraph: each edge contributes one
    arc per direction, labeled e<i> and e<i>'."""
    arcs = []
    labels = []
    for i, (u, v) in enumerate(edges):
        arcs.append((u, v))
        labels.append(f"e{i}")
    for i, (u, v) in enumerate(edges):
        arcs.append((v, u))
        labels.append(f"e{i}'")
    d = Digraph.make(nv, arcs, labels)
    return OrientedMatroid.from_digraph(d)


def corpus_doubled(max_vertices: int = 5, max_edges: int = 4):
    """Yield (name, multigraph spec, doubled matroid) over the edge corpus."""
    for i, (nv, edges) in enumerate(corpus_edge_multisets(max_vertices, max_edges)):
        yield f"doubled-{nv}v-{len(edges)}e-{i}", (nv, edges), doubled_matroid(nv, edges)


# ---------------------------------------------------------------------------
# partially oriented fixtures and corpus
# ---------------------------------------------------------------------------


def pom_graph(nv: int, directed, undirected, labels=None) -> PartialOrientedMatroid:
    """Partially oriented graph: directed edges become oriented singletons,
    undirected edges become doubletons of antiparallel arcs.

    `labels`, if given, covers the arcs in that order: all directed arcs
    first, then the two arcs (u,v), (v,u) of each undirected edge.
    """
    arcs = [tuple(a) for a in directed]
    blocks = [(i,) for i in range(len(arcs))]
    for u, v in undirected:
        j = len(arcs)
        arcs.append((u, v))
        arcs.append((v, u))
        blocks.append((j, j + 1))
    d = Digraph.make(nv, arcs, labels)
    return make_pom(OrientedMatroid.from_digraph(d), blocks)


def doubled_pom(nv: int, edges) -> PartialOrientedMatroid:
    """The doubled matroid of a multigraph with its canonical all-doubleton
    ground partition."""
    om = doubled_matroid(nv, edges)
    m = len(tuple(edges))
    return make_pom(om, [(i, i + m) for i in range(m)])


def half_oriented_pom(nv: int, edges) -> PartialOrientedMatroid:
    """Like :func:`doubled_pom` but with the first half of the edges oriented
    (rounding up), exercising mixed ground partitions."""
    edges = tuple(edges)
    k = (len(edges) + 1) // 2
    return pom_graph(nv, edges[:k], edges[k:])


def _pom_p0():
    # one oriented self-loop
    return pom_graph(1, [(0, 0)], [])


def _pom_p1():
    # one oriented arc
    return pom_graph(2, [(0, 1)], [])


def _pom_p2():
    # triangle with undirected sides a, b, c and one directed arc d
    # parallel to side a
    return pom_graph(
        3,
        [(0, 1)],
        [(0, 1), (1, 2), (0, 2)],
        ["d", "a", "a'", "b", "b'", "c", "c'"],
    )


def _pom_fig():
    # three directed arcs around a triangle plus two undirected edges
    # hanging the fourth vertex off it
    return pom_graph(4, [(0, 1), (1, 2), (2, 0)], [(2, 3), (3, 0)])


NAMED_POMS = {
    "P0": _pom_p0,
    "P1": _pom_p1,
    "P2": _pom_p2,
    "fig-partially-oriented": _pom_fig,
}


def pom_fixture_names() -> list:
    return sorted(NAMED_POMS)


def get_pom_fixture(name: str) -> PartialOrientedMatroid:
    try:
        builder = NAMED_POMS[name]
    except KeyError:
        raise KeyError(
            f"unknown partially oriented fixture {name!r}; "
            f"known: {', '.join(pom_fixture_names())}"
        ) from None
    return builder()


def corpus_poms(max_vertices: int = 4, max_edges: int = 3, include_named: bool = True):
    """Yield (name, pom) pairs: every multigraph class up to the caps as a
    fully unoriented instance plus a half-oriented variant, then the named
    fixtures unless `include_named` is False."""
    for i, (nv, edges) in enumerate(corpus_edge_multisets(max_vertices, max_edges)):
        yield f"pom-doubled-{nv}v-{len(edges)}e-{i}", doubled_pom(nv, edges)
        yield f"pom-mixed-{nv}v-{len(edges)}e-{i}", half_oriented_pom(nv, edges)
    if include_named:
        for name in pom_fixture_names():
            yield name, get_pom_fixture(name)


# ---------------------------------------------------------------------------
# the default corpus for verification runs
# ---------------------------------------------------------------------------


def default_corpus(
    max_vertices: int = 4,
    max_arcs: int = 5,
    doubled_vertices: int = 5,
    doubled_edges: int = 4,
    include_named: bool = True,
):
    """Yield (name, oriented matroid, digraph or None) for every instance."""
    for name, d in corpus_digraphs(max_vertices, max_arcs):
        yield name, OrientedMatroid.from_digraph(d), d
    for name, _spec, om in corpus_doubled(doubled_vertices, doubled_edges):
        yield name, om, None
    if include_named:
        for name in fixture_names():
            om, d = get_fixture(name)
            yield name, om, d
