"""The omflow benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run plans the workload's inputs from the seed (workloads.py) and then
repeats passes over them in a closed loop with one caller: each child
process starts when the previous one has ended, and every child is a fresh
interpreter, so module caches and rank caches start cold, as they do for
every invocation of the ``omflow`` command.  A new pass starts while fewer
than S seconds have gone by, and a run makes at least three, so it
measures whole passes.  Every figure is taken over the items' medians across
the passes.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 the
children run under the tracer (tracer.py) and the run reports the
per-layer metrics instead.  Every item's output digest must match
reference.json where that file holds the seed; an item also fails if it
raises, exits non-zero or fails a check.  The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; the whole record, with each
item's time and digest, is appended to .bench_out/results.jsonl for
compare.py.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
RESULTS = OUT / "results.jsonl"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
RUN_LIMIT_S = 170  # a run, children included, ends within this
# at least three passes, so that every item has a median over passes
MIN_PASSES = 3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {m: unit for m, (unit, _how, _what) in tracer.LAYER_METRICS.items()}
PER_LAYER["trace.wall_s"] = "s"


class ChildFailed(Exception):
    pass


def run_child(spec: dict, trace: int, spans, workdir: Path, timeout: float) -> dict:
    """Run one child spec in a fresh interpreter; its record, or ChildFailed."""
    full = dict(spec, trace=trace, spans=spans, workdir=str(workdir))
    full["spawn_ns"] = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(full)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise ChildFailed(f"exit code {proc.returncode}: {tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_level(count: int) -> float:
    """Highest ladder percentile with at least ten of `count` items beyond
    it, or 100 (the maximum) when there are too few items for p90."""
    for p in TAIL_LADDER:
        if count - math.ceil(p / 100 * count) >= 10:
            return p
    return 100.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(math.ceil(p / 100 * len(s)), 1) - 1]


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 reference: dict) -> dict:
    """One run: passes until `seconds` have gone by; the full record."""
    specs = workloads.plan(workload, seed)
    workdir = OUT / "work" / f"{workload}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    spans_dir = OUT / "spans" / workload
    if trace:
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
    want = reference.get(workload, {}).get(str(seed))

    start = time.monotonic()
    passes = []
    failures = []
    attempted = 0
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        children = []
        for c, spec in enumerate(specs):
            left = RUN_LIMIT_S - (time.monotonic() - start)
            spans = str(spans_dir / f"p{len(passes)}-c{c}.spans") if trace else None
            try:
                if left <= 0:
                    raise ChildFailed("run time limit reached")
                rec = run_child(spec, trace, spans, workdir, left)
            except ChildFailed as e:
                failures.append(f"child {c} ({spec.get('name', spec['kind'])}): {e}")
                attempted += 1
                continue
            for item in rec["items"]:
                attempted += 1
                problems = list(item["problems"])
                if want is not None and want.get(item["id"]) != item["digest"]:
                    problems.append("digest differs from reference.json")
                if problems:
                    failures.append(f"{item['id']}: {'; '.join(problems)}")
            children.append(rec)
        passes.append(children)
        if failures and not children:
            break

    records = [rec for children in passes for rec in children]
    times: dict = {}
    digests = {}
    for item in (i for r in records for i in r["items"]):
        times.setdefault(item["id"], []).append(item["ns"] / 1e6)
        if digests.setdefault(item["id"], item["digest"]) != item["digest"]:
            failures.append(f"{item['id']}: digest changed between passes")
    # each item at its median over the passes, so that a pass run while the
    # host was slow moves no figure on its own
    item_ms = sorted(statistics.median(v) for v in times.values())
    level = tail_level(len(item_ms))
    result = {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        "passes": len(passes), "attempted": max(attempted, 1),
        "failed": len(failures), "failures": failures, "digests": digests,
        "item_ms": [ms for v in times.values() for ms in v],
        "tail": {"percentile": level, "count": len(item_ms)},
        "metrics": {},
    }
    full = [children for children in passes if len(children) == len(specs)]
    if not full:
        return result
    wall_s = sum(item_ms) / 1e3
    if trace:
        absent = sorted({a for r in records for a in r["absent"]})
        per_pass = [tracer.layer_metrics(tracer.merge(r["layers"] for r in children), absent)
                    for children in full]
        metrics = {}
        for m, (unit, _how, _what) in tracer.LAYER_METRICS.items():
            # median_low keeps a count whole; counts repeat from pass to pass
            middle = statistics.median_low if unit == "count" else statistics.median
            metrics[m] = None if per_pass[0][m] is None else middle(p[m] for p in per_pass)
        metrics["trace.wall_s"] = wall_s
        result["absent"] = absent
    else:
        metrics = {
            "setup_s": statistics.median(r["setup_ns"] / 1e9 for r in records),
            "wall_s": wall_s,
            "item_p50_ms": statistics.median(item_ms),
            "item_tail_ms": percentile(item_ms, level),
            "peak_rss_mb": max(r["rss_kb"] for r in records) / 1024,
        }
    result["metrics"] = metrics
    return result


def latest(workload: str, seed: int, trace: int):
    """The last record in results.jsonl of this workload, seed and mode."""
    found = None
    if RESULTS.exists():
        for line in RESULTS.read_text().splitlines():
            rec = json.loads(line)
            if (rec["workload"], rec["seed"], rec["trace"]) == (workload, seed, trace):
                found = rec
    return found


def report(result: dict) -> None:
    units = PER_LAYER if result["trace"] else END_TO_END
    n_items = result["tail"]["count"]
    print(f"{result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{result['passes']} passes, {n_items} items, {result['failed']} failed "
          f"(fail_frac {result['failed'] / result['attempted']:.4g})")
    for line in result["failures"][:10]:
        print(f"  FAIL {line}")
    for name, value in result["metrics"].items():
        note = ""
        if name == "item_tail_ms":
            level = result["tail"]["percentile"]
            what = f"p{level:g}" if level < 100 else "max"
            note = f"  ({what} of {n_items} item medians)"
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:32s} {shown:>14s} {units[name]}{note}")
    if result["trace"] and result["metrics"]:
        plain = latest(result["workload"], result["seed"], 0)
        if plain and plain["metrics"]:
            traced = result["metrics"]["trace.wall_s"]
            base = plain["metrics"]["wall_s"]
            print(f"  tracing overhead: {traced:.4g} s traced - {base:.4g} s untraced "
                  f"= {traced - base:.4g} s ({(traced - base) / base:+.1%})")
        if result.get("absent"):
            print(f"  absent from the program: {', '.join(result['absent'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "omflow" / "__init__.py").is_file():
        print(f"error: no omflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    result = run_workload(args.workload, args.seed, args.seconds, args.trace, load_reference())
    OUT.mkdir(exist_ok=True)
    with RESULTS.open("a") as f:
        f.write(json.dumps(result, sort_keys=True) + "\n")
    report(result)
    if not result["metrics"]:
        print("error: no child process completed", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": 0.0 if value is None else value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
