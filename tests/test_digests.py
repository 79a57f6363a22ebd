"""Byte-identity of omflow's outputs over the default corpus.

`digests.json` holds one SHA-256 per output family (see make_digests.py,
which also regenerates it).  A family whose digest moved means that some
output changed, down to the byte of its canonical JSON.  Two processes
share the work where two CPUs exist.
"""

import json

from make_digests import DIGESTS, compute


def test_every_output_family_matches_its_digest():
    want = json.loads(DIGESTS.read_text())
    got = compute(jobs=2)
    assert sorted(got) == sorted(want)
    moved = sorted(fam for fam in want if got[fam] != want[fam])
    assert not moved, f"output families changed: {', '.join(moved)}"
