"""SHA-256 digests of omflow's outputs over the default corpus.

Each family is the canonical JSON of one output over every instance it
covers, as a list of [instance name, output]; `tests/test_digests.py`
recomputes every family and compares it with `tests/digests.json`.  To
regenerate the file after an intended output change (and justify that
change in CHANGES.md), run from the repository root:

    PYTHONPATH=src python tests/make_digests.py
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from omflow.algebra import json_dumps_canonical
from omflow.cocycles import verify_class_counts
from omflow.coflows import (
    a_even_poly,
    a_poly,
    b_poly,
    char_pair,
    digraph_a_eval,
    even_char_pair,
)
from omflow.fixtures import corpus_digraphs, corpus_doubled, corpus_poms, default_corpus
from omflow.identities import run_suites
from omflow.matroid import CIRCUIT_GROUND_CAP
from omflow.pom import t1, t2, verify_pom
from omflow.tutte import characteristic, potts, tutte

DIGESTS = Path(__file__).with_name("digests.json")
SUITE_STRIDE = 8  # the suite reports cover every 8th corpus instance
POTTS_STRIDE = 2  # potts and characteristic cover every 2nd instance


def _circuits(om) -> list:
    return [[c.pos, c.neg] for c in om.circuits]


def _share(part: int, parts: int) -> dict:
    """{family: canonical JSON of each [name, output]} over every `parts`-th
    instance of each family, starting at the `part`-th."""
    out: dict = {}

    def add(family, name, obj):
        out.setdefault(family, []).append(json_dumps_canonical([name, obj]))

    corpus = list(default_corpus())
    for name, om, _ in corpus[part::parts]:
        key = {"tu_status": om.tu_status, "key": [om.n, _circuits(om)],
               "dual": _circuits(om.dual())}
        add("canonical_key+dual_circuits", name, key)
        add("tutte", name, tutte(om).to_json_obj())
        cp = char_pair(om)
        add("a_poly+char_pair", name, {"a": a_poly(om).to_json_obj(),
                                       "strict": cp.strict.to_json_obj(),
                                       "weak": cp.weak.to_json_obj()})
        add("a_even_poly", name, a_even_poly(om).to_json_obj())
        ecp = even_char_pair(om)
        add("even_char_pair", name, {"strict": ecp.strict.to_json_obj(),
                                     "weak": ecp.weak.to_json_obj()})
    doublable = [(name, om) for name, om, _ in corpus if 2 * om.n <= CIRCUIT_GROUND_CAP]
    for name, om in doublable[part::parts]:
        dbl = om.double()
        add("double", name, {"tu_status": dbl.tu_status, "labels": list(dbl.labels),
                             "key": [dbl.n, _circuits(dbl)]})
    for name, om, _ in corpus[::POTTS_STRIDE][part::parts]:
        add("potts+characteristic", name, {"potts": potts(om).to_json_obj(),
                                           "char": characteristic(om).to_json_obj()})
    digraphs = [(name, d) for name, _, d in corpus if d is not None]
    for name, d in digraphs[part::parts]:
        evals = {str(q): digraph_a_eval(d, q).to_json_obj() for q in (1, 3, 5)}
        add("digraph_routes", name, {"b": b_poly(d).to_json_obj(), "a_eval": evals})
    for name, p in list(corpus_poms())[part::parts]:
        add("t1+t2", name, {"t1": t1(p).to_json_obj(), "t2": t2(p).to_json_obj()})
    for name, om, d in corpus[::SUITE_STRIDE][part::parts]:
        add("suite_reports", name, [r.to_json_obj() for r in run_suites(om, name, digraph=d)])
    for name, p in list(corpus_poms())[part::parts]:
        add("pom_reports", name, [r.to_json_obj() for r in verify_pom(p, name)])
    for name, om, _ in corpus[part::parts]:
        reports = verify_class_counts(om, name)
        add("class_count_reports", name, [r.to_json_obj() for r in reports])
    # the instances `omflow corpus` writes, in the objects it writes
    instances = [(name, d.to_json_obj()) for name, d in corpus_digraphs()]
    instances += [
        (name, {"vertices": nv, "edges": [[u, v, "undirected"] for u, v in edges]})
        for name, (nv, edges), _ in corpus_doubled()
    ]
    for name, obj in instances[part::parts]:
        add("corpus_instances", name, obj)
    return out


def compute(jobs: int = 1) -> dict:
    """{family: SHA-256 of the family's canonical JSON}, computed in up to
    `jobs` processes (never more than the CPUs), each taking every
    jobs-th instance of every family."""
    parts = max(1, min(jobs, os.cpu_count() or 1))
    if parts == 1:
        shares = [_share(0, 1)]
    else:
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=parts, mp_context=spawn) as pool:
            shares = list(pool.map(_share, range(parts), [parts] * parts))
    digests = {}
    for family in shares[0]:
        items = [None] * sum(len(s.get(family, ())) for s in shares)
        for part, share in enumerate(shares):
            items[part::parts] = share.get(family, [])
        text = "[" + ",".join(items) + "]"
        digests[family] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def main() -> None:
    digests = compute(jobs=os.cpu_count() or 1)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
