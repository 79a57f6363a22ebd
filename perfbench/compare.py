"""Read the records run.py appends to .bench_out/results.jsonl.

    python3 perfbench/compare.py RESULTS.jsonl
        One set of runs: per workload and end-to-end metric the median,
        quartiles and spread against the metric's bound; the item tail
        pooled over the set; tracing overhead (traced minus untraced
        wall_s); and whether outputs and exact counts repeat.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
        Two sets, the parent commit's and the change's, run with the same
        benchmark and settings.  One row per workload and end-to-end
        metric, judged by the gain rule: the change wins at least 9 of 10
        pairs (ties count for neither) and the medians differ by more than
        the parent's interquartile spread.  A metric whose parent spread
        exceeds its bound is "unresolved" unless every change run beats
        every parent run.  Every item digest that differs is flagged, and
        the per-layer medians of traced runs are set side by side.

    python3 perfbench/compare.py --freeze RESULTS.jsonl
        Write reference.json from the digests of the untraced runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import REFERENCE, ROOT, percentile, tail_level

COUNTS = ("coflows.assignments", "coflows.hist_calls", "tutte.subsets",
          "identities.checks", "identities.skips", "matroid.rank_of_calls")


def load(path) -> list:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def bounds() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def by_workload(records, trace: int) -> dict:
    out: dict = {}
    for rec in records:
        if rec["trace"] == trace and rec["metrics"]:
            out.setdefault(rec["workload"], []).append(rec)
    return out


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def digest_conflicts(records) -> list:
    """(workload, seed, item) whose digest differs between runs of one set."""
    seen: dict = {}
    bad = set()
    for rec in records:
        for item, d in rec["digests"].items():
            key = (rec["workload"], rec["seed"], item)
            if seen.setdefault(key, d) != d:
                bad.add(key)
    return sorted(bad)


def summary(records) -> int:
    spec = bounds()
    status = 0
    plain, traced = by_workload(records, 0), by_workload(records, 1)
    for workload in sorted(plain):
        runs = plain[workload]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{workload}: {len(runs)} runs, seeds {sorted({r['seed'] for r in runs})}, "
              f"fail_frac {failed / attempted:.4g} ({failed}/{attempted})")
        for name, m in spec.items():
            vals = [r["metrics"][name] for r in runs]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "ok" if spread <= m["bound"] / 3 else ("within bound" if spread <= m["bound"] else "TOO WIDE")
            print(f"  {name:14s} median {med:12.6g} {m['unit']:3s} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.3f} (bound {m['bound']}) {flag}")
        items = [ms for r in runs for ms in r["item_ms"]]
        level = tail_level(len(items))
        print(f"  pooled items: p50 {statistics.median(items):.6g} ms, "
              f"{'max' if level == 100 else f'p{level:g}'} {percentile(items, level):.6g} ms "
              f"of {len(items)} items")
        if workload in traced:
            t_wall = statistics.median(r["metrics"]["trace.wall_s"] for r in traced[workload])
            p_wall = statistics.median(r["metrics"]["wall_s"] for r in runs)
            print(f"  tracing overhead: {t_wall:.4g} s traced - {p_wall:.4g} s untraced "
                  f"= {t_wall - p_wall:+.4g} s ({(t_wall - p_wall) / p_wall:+.1%})")
    for workload in sorted(traced):
        for name in COUNTS:
            per_seed: dict = {}
            for r in traced[workload]:
                per_seed.setdefault(r["seed"], set()).add(r["metrics"][name])
            if any(len(v) > 1 for v in per_seed.values()):
                print(f"  {workload}: exact count {name} differs between runs of one seed")
                status = 1
    for key in digest_conflicts(records):
        print(f"  DIGEST differs between runs of one set: {key}")
        status = 1
    return status


def judge(p_vals, c_vals, pairs, better: str, bound: float) -> str:
    sign = 1 if better == "lower" else -1
    q1, p_med, q3 = quartiles(p_vals)
    c_med = statistics.median(c_vals)
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    spread = (q3 - q1) / p_med if p_med else float("inf")
    gained = sign * (p_med - c_med)
    all_better = max(c_vals) < min(p_vals) if sign > 0 else min(c_vals) > max(p_vals)
    if pairs and wins >= 0.9 * len(pairs) and gained > q3 - q1:
        return f"GAIN ({wins}/{len(pairs)} pairs won)"
    if spread > bound and not all_better:
        return f"unresolved (parent spread {spread:.3f} > bound {bound})"
    if -gained > bound * p_med:
        return f"REGRESSION (worse by {-gained / p_med:.1%} > bound {bound:.0%})"
    return f"no change beyond bound ({wins}/{len(pairs)} pairs won)"


def compare(parent, change) -> int:
    spec = bounds()
    status = 0
    p_runs, c_runs = by_workload(parent, 0), by_workload(change, 0)
    print(f"{'workload':14s} {'metric':14s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s}  verdict")
    for workload in sorted(set(p_runs) & set(c_runs)):
        pr, cr = p_runs[workload], c_runs[workload]
        for name, m in spec.items():
            p_vals = [r["metrics"][name] for r in pr]
            c_vals = [r["metrics"][name] for r in cr]
            pairs = []
            for seed in sorted({r["seed"] for r in pr} & {r["seed"] for r in cr}):
                ps = [r["metrics"][name] for r in pr if r["seed"] == seed]
                cs = [r["metrics"][name] for r in cr if r["seed"] == seed]
                pairs += list(zip(ps, cs))
            pq, cq = quartiles(p_vals), quartiles(c_vals)
            verdict = judge(p_vals, c_vals, pairs, m["better"], m["bound"])
            status |= verdict.startswith("REGRESSION")
            print(f"{workload:14s} {name:14s} "
                  f"{pq[1]:12.6g} [{pq[0]:.6g}, {pq[2]:.6g}] {m['unit']:>3s} "
                  f"{cq[1]:12.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {m['unit']:>3s}  {verdict}")
    p_dig, c_dig = {}, {}
    for recs, dig in ((parent, p_dig), (change, c_dig)):
        for rec in recs:
            for item, d in rec["digests"].items():
                dig[(rec["workload"], rec["seed"], item)] = d
    for key in sorted(set(p_dig) & set(c_dig)):
        if p_dig[key] != c_dig[key]:
            print(f"DIGEST differs: {key[0]} seed {key[1]} item {key[2]}")
            status = 1
    for recs, which in ((parent, "parent"), (change, "change")):
        for key in digest_conflicts(recs):
            print(f"DIGEST differs within the {which} set: {key}")
            status = 1
    p_tr, c_tr = by_workload(parent, 1), by_workload(change, 1)
    for workload in sorted(set(p_tr) & set(c_tr)):
        for name in COUNTS:
            p_cnt = {r["seed"]: r["metrics"][name] for r in p_tr[workload]}
            c_cnt = {r["seed"]: r["metrics"].get(name) for r in c_tr[workload]}
            moved = {s: (p_cnt[s], c_cnt[s]) for s in set(p_cnt) & set(c_cnt) if p_cnt[s] != c_cnt[s]}
            if moved:
                print(f"{workload}: exact count {name} moved (seed: parent, change): {moved}")
        print(f"{workload}: per-layer medians of traced runs (parent -> change)")
        for name in p_tr[workload][0]["metrics"]:
            pv = [r["metrics"][name] for r in p_tr[workload] if r["metrics"][name] is not None]
            cv = [r["metrics"][name] for r in c_tr[workload] if r["metrics"].get(name) is not None]
            pm = f"{statistics.median(pv):.6g}" if pv else "absent"
            cm = f"{statistics.median(cv):.6g}" if cv else "absent"
            print(f"  {name:32s} {pm:>14s} -> {cm:>14s}")
    return status


def freeze(records) -> int:
    conflicts = digest_conflicts([r for r in records if r["trace"] == 0])
    if conflicts:
        print(f"error: digests differ between runs: {conflicts[:5]}", file=sys.stderr)
        return 1
    ref: dict = {}
    for rec in records:
        if rec["trace"] == 0 and rec["failed"] == 0:
            ref.setdefault(rec["workload"], {}).setdefault(str(rec["seed"]), {}).update(rec["digests"])
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}: " + ", ".join(f"{w} seeds {sorted(s, key=int)}" for w, s in ref.items()))
    return 0


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "--freeze":
        return freeze(load(argv[1]))
    if len(argv) == 1:
        return summary(load(argv[0]))
    if len(argv) == 2:
        return compare(load(argv[0]), load(argv[1]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
