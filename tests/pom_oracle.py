"""The cocircuit-based pair kinds and activities that rank questions
replaced in `omflow.pom`, kept as an oracle for tests/test_pom.py.

`_pair_kind` and `activities` are the earlier code verbatim.  They build
the dual of the underlying matroid and read its cocircuits, where the
package now asks `rank_of` over the stored circuits.  `_underlying` reads
the unoriented blocks through `PartialOrientedMatroid.pairs`, which
replaced the `pair_blocks` property.
"""

from __future__ import annotations

from omflow.matroid import OrientedMatroid, bits_of


def _pair_kind(p, j: int) -> str:
    a, b = p.blocks[j]
    m = 1 << a | 1 << b
    if m & p.om.loops_mask == m:
        return "loop"
    if any(d.support == m for d in p.om.cocircuits()):
        return "coloop"
    return "generic"


def _underlying(p) -> OrientedMatroid:
    """One representative element per block; signs are irrelevant for the
    unsigned circuit/cocircuit supports used by the activity rules."""
    drop = 0
    for b in (p.blocks[j] for j in p.pairs):
        drop |= 1 << b[1]
    return p.om.delete(drop)


def activities(p, basis, order) -> tuple:
    """(internal, external) activity sets of a potential basis.

    order lists the unoriented block positions from smallest to largest.
    Internal: e in B minimal in a cocircuit of the underlying matroid lying
    inside (H \\ B) + e; external: e outside B minimal in a circuit inside
    B + e.  Matroid elements here are blocks, tracked by their position.
    """
    under = _underlying(p)
    # map matroid indices of the underlying representative to block positions
    kept = sorted(b[0] for b in p.blocks)
    to_block = {}
    for new, orig in enumerate(kept):
        for j, b in enumerate(p.blocks):
            if b[0] == orig:
                to_block[new] = j
    rank_order = {j: i for i, j in enumerate(order)}
    pair_set = {j for j, b in enumerate(p.blocks) if len(b) == 2}
    bset = set(basis)
    cobset = pair_set - bset

    def min_block(mask):
        members = [to_block[i] for i in bits_of(mask)]
        return min(members, key=lambda j: rank_order[j])

    internal = set()
    for d in under.cocircuits():
        members = {to_block[i] for i in bits_of(d.support)}
        if not members <= pair_set:
            continue
        for e in members & bset:
            if members <= cobset | {e} and min_block(d.support) == e:
                internal.add(e)
    external = set()
    for c in under.circuits:
        members = {to_block[i] for i in bits_of(c.support)}
        if not members <= pair_set:
            continue
        for e in members & cobset:
            if members <= bset | {e} and min_block(c.support) == e:
                external.add(e)
    return tuple(sorted(internal)), tuple(sorted(external))
