#!/usr/bin/env python3
"""Diff two directories of BENCH_*.json perf reports into a markdown table.

Usage:  bench_diff.py PREV_DIR CURR_DIR [--threshold PCT]

Pairs files by name, flattens numeric fields (nested objects become
dot.paths), and prints one markdown section per bench with previous value,
current value, and the relative delta — written for a CI job summary
($GITHUB_STEP_SUMMARY), so a perf regression is visible in the run page
without downloading artifacts. Noise-level deltas never gate (CI runners
are too jittery for hard perf thresholds), but *disappearance* does: a
bench file or a measured field that existed in the previous run and is
gone from the current one exits 1 — a family silently dropping out of the
reports is how perf coverage rots, and it is cheap to catch here. Only the
reports and fields named in RETIRED may disappear without failing.

Fields whose name suggests wall time or latency are marked so a reader can
tell "higher is worse" rows from throughput rows; nothing is auto-judged,
because CI runners are too noisy for hard perf gates (the |delta| >=
--threshold rows just get a marker).

The "capacity" section bench_capacity splices into BENCH_net.json (schema
fisone-bench-capacity/v1) is special-cased: its rung ladder has a
run-dependent length, so flattening it into dot.path fields would trip the
disappearance gate whenever the frontier shifts by a rung. It is rendered
as its own goodput/p99 frontier table instead, rungs paired by offered
rate; only the section vanishing outright gates.
"""

import argparse
import json
import sys
from pathlib import Path

# Reports retired on purpose: (file, field prefix), where a prefix of None
# retires the whole file. Only these may vanish without tripping the
# disappearance gate; everything else that disappears still exits 1.
#  - BENCH_batch/service/federation/api.json came from
#    bench_batch_throughput, bench_service_throughput, bench_federation and
#    bench_api_cache, deleted once perfbench's ladder rungs and its
#    cold_campaign/warm_cache workloads measured the same paths and the
#    ctests carried their determinism checks.
#  - BENCH_kernels.json's pipeline.* fields were bench_kernels' batch_runner
#    fleet section, deleted for the same reason (perfbench's
#    runtime.buildings_per_s rung).
RETIRED = (
    ("BENCH_batch.json", None),
    ("BENCH_service.json", None),
    ("BENCH_federation.json", None),
    ("BENCH_api.json", None),
    ("BENCH_kernels.json", "pipeline."),
)

LOWER_IS_BETTER = ("seconds", "_ms", "latency", "wall")
HIGHER_IS_BETTER = ("per_sec", "speedup", "throughput", "rate")


def retired(name, field):
    """True when RETIRED lets `field` of bench report `name` (or the whole
    report, for field None) disappear."""
    return any(file == name and (prefix is None or (field or "").startswith(prefix))
               for file, prefix in RETIRED)


def flatten(obj, prefix=""):
    """Yield (dot.path, value) for every numeric leaf of a JSON object."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from flatten(value, f"{prefix}{key}." if prefix else f"{key}.")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from flatten(value, f"{prefix}{i}.")
    elif isinstance(obj, bool):
        pass  # true/false toggles are config, not perf
    elif isinstance(obj, (int, float)):
        yield prefix.rstrip("."), float(obj)


def direction(field):
    if any(tok in field for tok in LOWER_IS_BETTER):
        return "lower-better"
    if any(tok in field for tok in HIGHER_IS_BETTER):
        return "higher-better"
    return ""


def fmt(value):
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


def capacity_table(name, prev_cap, curr_cap):
    """Render the closed-loop capacity frontier as its own table.

    One row per offered rate (the union of both runs' ladders, since the
    explorer stops at the shed-threshold crossing and the crossing moves),
    goodput / shed rate / p99 side by side. Returns True when the section
    existed previously but is gone now — the only capacity condition that
    gates, mirroring the whole-file disappearance contract.
    """
    if curr_cap is None:
        if prev_cap is None:
            return False
        print(f"**MISSING: capacity section of {name} present in the previous run only.**\n")
        return True
    def by_rate(cap):
        return {r["offered_per_sec"]: r for r in (cap or {}).get("rungs", [])
                if isinstance(r, dict) and "offered_per_sec" in r}
    prev_rungs, curr_rungs = by_rate(prev_cap), by_rate(curr_cap)
    terminated = curr_cap.get("terminated", "?")
    print(f"#### capacity frontier ({name}) — terminated: {terminated}\n")
    print("| offered/s | goodput/s prev | goodput/s curr | shed prev | shed curr "
          "| p99 ms prev | p99 ms curr |")
    print("|---:|---:|---:|---:|---:|---:|---:|")
    def cell(rung, field, scale=1.0):
        if rung is None or field not in rung:
            return "—"
        return fmt(float(rung[field]) * scale)
    for rate in sorted(set(prev_rungs) | set(curr_rungs)):
        p, c = prev_rungs.get(rate), curr_rungs.get(rate)
        print(f"| {fmt(float(rate))} "
              f"| {cell(p, 'goodput_per_sec')} | {cell(c, 'goodput_per_sec')} "
              f"| {cell(p, 'shed_rate')} | {cell(c, 'shed_rate')} "
              f"| {cell(p, 'p99_ms')} | {cell(c, 'p99_ms')} |")
    print()
    return False


def diff_file(name, prev, curr, threshold):
    """Print one bench's table; return the fields present only previously."""
    # The capacity section's rung count varies run to run; pull it out for
    # the dedicated frontier renderer before flattening the rest.
    prev_cap = prev.pop("capacity", None) if isinstance(prev, dict) else None
    curr_cap = curr.pop("capacity", None) if isinstance(curr, dict) else None
    prev_fields = dict(flatten(prev))
    curr_fields = dict(flatten(curr))
    rows = []
    for field in sorted(set(prev_fields) | set(curr_fields)):
        p, c = prev_fields.get(field), curr_fields.get(field)
        if p is None or c is None:
            rows.append((field, p, c, None))
            continue
        # A zero baseline has no meaningful relative delta (a field that
        # just became nonzero would print "+inf%"); report it as unmarked.
        delta = (c - p) / abs(p) * 100.0 if p != 0 else (0.0 if c == 0 else None)
        rows.append((field, p, c, delta))

    print(f"### {name}\n")
    print("| field | previous | current | delta | |")
    print("|---|---:|---:|---:|---|")
    for field, p, c, delta in rows:
        if p is None:
            print(f"| {field} | — | {fmt(c)} | new | |")
            continue
        if c is None:
            status = "retired" if retired(name, field) else "gone"
            print(f"| {field} | {fmt(p)} | — | {status} | |")
            continue
        if delta is None:
            print(f"| {field} | {fmt(p)} | {fmt(c)} | n/a (was 0) | |")
            continue
        mark = ""
        if abs(delta) >= threshold:
            d = direction(field)
            if d == "lower-better":
                mark = "regressed" if delta > 0 else "improved"
            elif d == "higher-better":
                mark = "improved" if delta > 0 else "regressed"
            else:
                mark = "changed"
        print(f"| {field} | {fmt(p)} | {fmt(c)} | {delta:+.1f}% | {mark} |")
    print()
    gone = [field for field, p, c, _ in rows if c is None]
    if capacity_table(name, prev_cap, curr_cap):
        gone.append("capacity")
    return gone


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("prev_dir", type=Path)
    parser.add_argument("curr_dir", type=Path)
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="mark rows whose |delta| meets this percent (default 10)")
    args = parser.parse_args()

    # Either directory may be missing outright — the first run of a new
    # bench has no previous artifact. That is routine and does not deserve
    # a stack trace; only reports that *were* there and vanished gate.
    prev_files = (
        {p.name: p for p in sorted(args.prev_dir.glob("BENCH_*.json"))}
        if args.prev_dir.is_dir() else {}
    )
    curr_files = (
        {p.name: p for p in sorted(args.curr_dir.glob("BENCH_*.json"))}
        if args.curr_dir.is_dir() else {}
    )
    if not args.prev_dir.is_dir():
        print(f"bench_diff: no previous dir {args.prev_dir} (first run?)", file=sys.stderr)
    if not curr_files:
        print(f"bench_diff: no BENCH_*.json under {args.curr_dir}", file=sys.stderr)
        print("_bench_diff: nothing to compare (no current bench reports)._")
        gone = [name for name in prev_files if not retired(name, None)]
        if gone:
            print(f"bench_diff: MISSING: all {len(gone)} previous bench report(s) "
                  "disappeared from the current run", file=sys.stderr)
            sys.exit(1)
        return

    print("## Bench comparison vs previous run\n")
    missing = []  # (bench, field-or-None) pairs that vanished since the previous run
    for name, curr_path in curr_files.items():
        try:
            curr = json.loads(curr_path.read_text())
        except (OSError, json.JSONDecodeError) as e:
            print(f"_bench_diff: unreadable {name}: {e}_\n")
            continue
        prev_path = prev_files.get(name)
        if prev_path is None:
            print(f"### {name}\n\n_new bench — no previous report to compare._\n")
            if isinstance(curr, dict):
                capacity_table(name, None, curr.get("capacity"))
            continue
        try:
            prev = json.loads(prev_path.read_text())
        except (OSError, json.JSONDecodeError) as e:
            print(f"_bench_diff: unreadable previous {name}: {e}_\n")
            continue
        missing.extend((name, field) for field in diff_file(name, prev, curr, args.threshold))
    for name in sorted(set(prev_files) - set(curr_files)):
        if retired(name, None):
            print(f"### {name}\n\n_retired: present in the previous run only._\n")
            continue
        print(f"### {name}\n\n**MISSING: present in the previous run only.**\n")
        missing.append((name, None))

    missing = [(name, field) for name, field in missing if not retired(name, field)]
    if missing:
        for name, field in missing:
            what = f"field {field!r} of {name}" if field else f"bench report {name}"
            print(f"bench_diff: MISSING: {what} disappeared since the previous run",
                  file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
