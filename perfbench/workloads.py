"""Seeded inputs of the benchmark's workloads.

Every function here is pure: the same workload and seed give the same
plan.  A plan is a list of child specs; one pass of a workload runs each
spec, in order, in a fresh process (see worker.py).  Nothing here imports
omflow, so the harness can plan a run before the program is loaded.
"""

from __future__ import annotations

import random

# why each was chosen: BENCHMARK.json and manifest.json
WORKLOADS = ("verify-sample", "apoly-large", "tutte-subsets")

CORPUS_SAMPLE = 20  # of the 1,076 corpus instances other than R10
POM_SAMPLE = 15  # of the 62 partially oriented corpus instances
APOLY_TARGETS = ("a", "a-even", "char")


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def stratified_sample(keys, size: int, rng: random.Random, proxy) -> list:
    """Indices of a sample of `size` drawn stratum by stratum.

    `keys[i]` is the stratum of item i.  Each stratum gets its proportional
    share, rounded by largest remainder, so the share depends only on the
    stratum sizes.  Within a stratum the members are ordered by `proxy[i]`
    (a cost proxy) and taken at evenly spaced positions from a seeded
    start, so every seed draws a sample that spans each stratum's range of
    cost and the seed-to-seed spread of the sample's time stays small.  The
    indices come back sorted, so the sample keeps the corpus order.
    """
    strata: dict = {}
    for i, k in enumerate(keys):
        strata.setdefault(k, []).append(i)
    total = len(keys)
    quota = {k: len(v) * size / total for k, v in strata.items()}
    share = {k: int(q) for k, q in quota.items()}
    left = size - sum(share.values())
    for k in sorted(quota, key=lambda k: (share[k] - quota[k], k))[:left]:
        share[k] += 1
    out = []
    for k in sorted(strata):
        if not share[k]:
            continue
        members = sorted(strata[k], key=lambda i: (proxy[i], i))
        step = len(members) / share[k]
        start = rng.random() * step
        out.extend(members[int(start + j * step)] for j in range(share[k]))
    return sorted(out)


def connected_multigraph(nv: int, m: int, rng: random.Random) -> list:
    """`m` loopless edges on `nv` vertices: a random spanning tree plus extras.

    Being connected pins the rank of the digraph (or doubled) matroid at
    nv - 1 whatever the seed, which keeps the work per seed comparable.
    """
    order = list(range(nv))
    rng.shuffle(order)
    edges = []
    for i in range(1, nv):
        u, v = order[i], order[rng.randrange(i)]
        edges.append((u, v) if rng.random() < 0.5 else (v, u))
    while len(edges) < m:
        u, v = rng.randrange(nv), rng.randrange(nv)
        if u != v:
            edges.append((u, v))
    rng.shuffle(edges)
    return edges


def digraph_obj(nv: int, arcs) -> dict:
    return {"vertices": nv, "arcs": [list(a) for a in arcs]}


def plan(workload: str, seed: int) -> list:
    """Child specs of one pass of `workload` at `seed`."""
    rng = rng_for(workload, seed)
    if workload == "verify-sample":
        # one process: the sample is drawn there, from the enumerated corpus
        return [{"kind": "verify", "seed": seed}]
    if workload == "apoly-large":
        # three rank-5 digraphs (6 vertices, 12 arcs) and one of rank 6
        # (7 vertices, 10 arcs).  The cheap rank-5 calls fill the middle of
        # the latency distribution.  a-even, char and b at rank 6 would take
        # 4-20 s per call.
        g5 = [digraph_obj(6, connected_multigraph(6, 12, rng)) for _ in range(3)]
        g6 = digraph_obj(7, connected_multigraph(7, 10, rng))
        calls = [("R10", None, 5, APOLY_TARGETS), ("g5a", g5[0], 5, ("a", "char", "b")),
                 ("g5b", g5[1], 5, ("a", "char", "b")), ("g5c", g5[2], 5, ("a",)),
                 ("g6", g6, 6, ("a",))]
        return [{"kind": "compute", "name": name, "target": t, "input": inst, "rank": rank}
                for name, inst, rank, targets in calls for t in targets]
    if workload == "tutte-subsets":
        # 12 elements each: the doubled matroid of 6 edges on 5 vertices
        # (rank 4) and a digraph with 12 arcs on 6 vertices (rank 5)
        doubled = {"vertices": 5, "edges": [list(e) for e in connected_multigraph(5, 6, rng)]}
        dig = digraph_obj(6, connected_multigraph(6, 12, rng))
        calls = ["tutte", "potts", "characteristic", "classes"]
        return [
            {"kind": "subsets", "name": "doubled", "input": doubled, "rank": 4, "calls": calls},
            {"kind": "subsets", "name": "digraph", "input": dig, "rank": 5, "calls": calls},
        ]
    raise ValueError(f"unknown workload {workload!r}")
