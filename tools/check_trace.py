#!/usr/bin/env python3
"""Validate a fisone Chrome trace-event dump (the --trace-out / /dump_trace
output) without loading it into Perfetto.

Usage:  check_trace.py TRACE.json [--min-events N] [--require-span NAME ...]
        check_trace.py --check-src SRC_DIR

Checks, in order:
  - the file parses as JSON and is an object;
  - `traceFormatVersion` is present and a version this checker understands
    (currently `fisone-trace/v1`);
  - `traceEvents` is a list of complete ("ph": "X") events, each carrying
    the keys Perfetto needs (name/ts/dur/pid/tid) with sane types and
    non-negative times, plus the fisone id args (trace/span/parent as hex
    strings);
  - every span name is in the KNOWN_SPANS registry (catches producer typos
    and instrumentation added without updating the tooling);
  - parent links resolve: every event whose `args.parent` is nonzero has
    some event in the same trace carrying that id as its `args.span`
    (skipped when `otherData.dropped` > 0 — a wrapped ring legitimately
    loses the oldest spans, parents included);
  - `otherData.recorded` matches the event count;
  - at least --min-events events (default 1) and every --require-span name
    is present.

With --check-src, no trace is read: instead every span-name string literal
passed to `scoped_span` / `emit_span` / `emit_child_span` in the C++ sources
under SRC_DIR is collected, and the check fails unless that set equals
KNOWN_SPANS — so the registry can neither miss a span nor keep a dead one.

Exit code 0 on a valid trace, 1 with a one-line reason otherwise — written
for CI (validate the smoke-test artifact before uploading it).
"""

import argparse
import json
import re
import sys
from pathlib import Path

KNOWN_VERSIONS = ("fisone-trace/v1",)
REQUIRED_EVENT_KEYS = ("name", "ph", "ts", "dur", "pid", "tid", "args")
REQUIRED_ARG_KEYS = ("trace", "span", "parent")

# Every span name the instrumentation can emit. A name outside this registry
# fails the check: either the producer has a typo, or a new span was added
# without teaching the tooling about it — both are worth a red build. Kept in
# sync with the scoped_span / emit_span / emit_child_span literals in src/ by
# `--check-src src`, which CI runs.
KNOWN_SPANS = frozenset({
    # net front door
    "net.accept", "net.read", "net.decode", "net.dispatch", "net.respond",
    "net.flush", "net.request",
    # federation fan-out and fault tolerance
    "federation.dispatch", "federation.route", "federation.retry",
    "federation.failover", "federation.resident_load",
    # API server
    "api.identify", "api.cache_probe",
    # live ingestion
    "ingest.append", "ingest.reindex", "net.push",
    # floor service
    "service.queue_wait", "service.execute", "service.report",
    # pipeline stages
    "pipeline.graph_build", "pipeline.gnn_embed", "pipeline.floor_count",
    "pipeline.cluster", "pipeline.index", "pipeline.export",
})


def fail(reason):
    print(f"check_trace: FAIL: {reason}", file=sys.stderr)
    sys.exit(1)


# A span-name literal at a producer call site: `scoped_span var("name")`,
# `scoped_span("name")`, `emit_span("name", ...)`, `emit_child_span("name", ...)`.
SPAN_LITERAL = re.compile(
    r'\b(?:scoped_span(?:\s+\w+)?|emit_span|emit_child_span)\s*\(\s*"([^"]*)"')
SOURCE_SUFFIXES = (".cpp", ".hpp", ".h", ".cc")


def check_sources(src_dir):
    if not src_dir.is_dir():
        fail(f"{src_dir} is not a directory")
    found = set()
    for path in sorted(src_dir.rglob("*")):
        if path.suffix in SOURCE_SUFFIXES:
            found.update(SPAN_LITERAL.findall(path.read_text()))
    problems = []
    missing = sorted(found - KNOWN_SPANS)
    if missing:
        problems.append(f"span names in {src_dir} missing from KNOWN_SPANS: "
                        f"{', '.join(missing)}")
    stale = sorted(KNOWN_SPANS - found)
    if stale:
        problems.append(f"KNOWN_SPANS names no literal in {src_dir} emits: {', '.join(stale)}")
    if problems:
        fail("; ".join(problems))
    print(f"check_trace: OK: {len(found)} span names in {src_dir} match KNOWN_SPANS")


def parse_hex_id(event, key):
    raw = event["args"].get(key)
    if not isinstance(raw, str) or not raw.startswith("0x"):
        fail(f"event {event.get('name')!r}: args.{key} is not a hex id string: {raw!r}")
    try:
        return int(raw, 16)
    except ValueError:
        fail(f"event {event.get('name')!r}: args.{key} is not parseable hex: {raw!r}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", type=Path, nargs="?")
    parser.add_argument("--check-src", type=Path, metavar="SRC_DIR",
                        help="check KNOWN_SPANS against the span literals under SRC_DIR "
                             "instead of validating a trace")
    parser.add_argument("--min-events", type=int, default=1,
                        help="fail unless at least this many events (default 1)")
    parser.add_argument("--require-span", action="append", default=[],
                        metavar="NAME", help="fail unless a span with this name exists")
    args = parser.parse_args()
    if args.check_src is not None:
        if args.trace is not None:
            parser.error("--check-src takes no trace file")
        check_sources(args.check_src)
        return
    if args.trace is None:
        parser.error("a trace file is required (or --check-src SRC_DIR)")

    try:
        doc = json.loads(args.trace.read_text())
    except OSError as e:
        fail(f"cannot read {args.trace}: {e}")
    except json.JSONDecodeError as e:
        fail(f"{args.trace} is not valid JSON: {e}")
    if not isinstance(doc, dict):
        fail("top level is not a JSON object")

    version = doc.get("traceFormatVersion")
    if version not in KNOWN_VERSIONS:
        fail(f"unknown traceFormatVersion {version!r} (known: {', '.join(KNOWN_VERSIONS)})")

    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail("traceEvents is missing or not a list")

    # Pass 1: shape. Pass 2: parent links, which need the full span-id set.
    spans_by_trace = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            fail(f"traceEvents[{i}] is not an object")
        for key in REQUIRED_EVENT_KEYS:
            if key not in event:
                fail(f"traceEvents[{i}] is missing key {key!r}")
        if event["ph"] != "X":
            fail(f"traceEvents[{i}] has phase {event['ph']!r}, expected complete ('X')")
        if not isinstance(event["name"], str) or not event["name"]:
            fail(f"traceEvents[{i}] has a non-string or empty name")
        if event["name"] not in KNOWN_SPANS:
            fail(f"traceEvents[{i}] has unregistered span name {event['name']!r} "
                 f"(add it to KNOWN_SPANS if it is a new instrumentation point)")
        for key in ("ts", "dur"):
            if not isinstance(event[key], (int, float)) or event[key] < 0:
                fail(f"traceEvents[{i}] ({event['name']}): bad {key}: {event[key]!r}")
        if not isinstance(event["args"], dict):
            fail(f"traceEvents[{i}] ({event['name']}): args is not an object")
        for key in REQUIRED_ARG_KEYS:
            if key not in event["args"]:
                fail(f"traceEvents[{i}] ({event['name']}): args missing {key!r}")
        trace_id = parse_hex_id(event, "trace")
        span_id = parse_hex_id(event, "span")
        if trace_id == 0 or span_id == 0:
            fail(f"traceEvents[{i}] ({event['name']}): zero trace or span id")
        spans_by_trace.setdefault(trace_id, set()).add(span_id)

    other = doc.get("otherData")
    if not isinstance(other, dict):
        fail("otherData is missing or not an object")
    recorded = other.get("recorded")
    if recorded != len(events):
        fail(f"otherData.recorded = {recorded!r} but traceEvents has {len(events)}")

    if not other.get("dropped"):
        for i, event in enumerate(events):
            trace_id = parse_hex_id(event, "trace")
            parent_id = parse_hex_id(event, "parent")
            if parent_id and parent_id not in spans_by_trace[trace_id]:
                fail(f"traceEvents[{i}] ({event['name']}): parent 0x{parent_id:x} "
                     f"not found in trace 0x{trace_id:x}")

    if len(events) < args.min_events:
        fail(f"only {len(events)} events, expected at least {args.min_events}")
    names = {event["name"] for event in events}
    for want in args.require_span:
        if want not in names:
            fail(f"required span {want!r} absent (saw: {', '.join(sorted(names))})")

    traces = len(spans_by_trace)
    print(f"check_trace: OK: {len(events)} events, {traces} trace(s), "
          f"{other.get('threads')} thread(s), {other.get('dropped')} dropped")


if __name__ == "__main__":
    main()
