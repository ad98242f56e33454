#!/usr/bin/env python3
"""Diff two run reports, ignoring process-accounting noise.

Usage: diff_reports.py <a.json> <b.json> [--ignore PREFIX ...]

The crash-safe runner's determinism contract (DESIGN.md §11) is that
a resumed run reproduces the *results* of an uninterrupted run bit
for bit, not its process accounting: a resume skips completed units,
so counters that meter work performed (simulated intervals, memo
traffic, journal activity, fault-site fires) legitimately differ,
while every result-bearing stat (suite.* metrics, controller
decisions, model quality gauges) must match exactly. This tool
encodes that split so CI can compare an interrupted-then-resumed run
against a straight-through baseline.

Compared: "counters", "gauges", and "histograms" objects, minus any
key starting with an ignored prefix. Ignored wholesale: "phases"
(wall-clock timings) and any key ending in _ns or _ms. Exits 1 with
one line per mismatch; exits 0 when the result sets are identical.
"""

import argparse
import json
import sys

# Work-metering stats: how much was *done*, not what was *computed*.
# A resumed run does less of all of these.
DEFAULT_IGNORE = [
    "runner.",   # journal skip/execute/retry accounting
    "memo.",     # simulation memo-cache traffic
    "replay.",   # replay-walker serve/catch-up/settle accounting
    "record.",   # trace-record cache traffic
    "sim.",      # raw simulation work counters
    "fault.",    # fault-site fires track executed sites
    "uc.",       # firmware VM op/inference counts
    "trace.",    # span-trace event/drop accounting (telemetry plane)
    "events.",   # structured event-log accounting
    "http.",     # live-endpoint request counts
    "dist.",     # fleet wire/assignment accounting (varies with -N)
    "chaos.",    # chaos-soak schedule/recovery accounting
    "serve.",    # adaptation-service lifecycle accounting
    "drift.",    # drift-detector window statistics
]


def load_report(path):
    """Parse one run report, exiting 2 with a clear message instead of
    a traceback when the file is missing, truncated (a crashed run's
    partial dump), or not JSON at all."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        print(f"error: cannot read report {path}: {e.strerror or e}",
              file=sys.stderr)
    except json.JSONDecodeError as e:
        print(f"error: report {path} is not valid JSON "
              f"(truncated or corrupt dump?): {e}", file=sys.stderr)
    except UnicodeDecodeError as e:
        print(f"error: report {path} is not UTF-8 text: {e}",
              file=sys.stderr)
    sys.exit(2)


def flatten(doc, ignore):
    """Yield (dotted_key, value) for every compared leaf."""
    for section in ("counters", "gauges", "histograms"):
        for name, value in doc.get(section, {}).items():
            key = f"{section}.{name}"
            if name.endswith(("_ns", "_ms")):
                continue
            if any(name.startswith(p) for p in ignore):
                continue
            if isinstance(value, dict):
                for sub, v in sorted(value.items()):
                    yield f"{key}.{sub}", v
            else:
                yield key, value


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--ignore", action="append", default=[],
                    metavar="PREFIX",
                    help="extra stat-name prefix to ignore "
                         "(repeatable; adds to the built-in list)")
    args = ap.parse_args()
    ignore = DEFAULT_IGNORE + args.ignore

    a = dict(flatten(load_report(args.a), ignore))
    b = dict(flatten(load_report(args.b), ignore))

    mismatches = 0
    for key in sorted(set(a) | set(b)):
        if key not in a:
            print(f"MISMATCH {key}: only in {args.b} (= {b[key]})")
        elif key not in b:
            print(f"MISMATCH {key}: only in {args.a} (= {a[key]})")
        elif a[key] != b[key]:
            print(f"MISMATCH {key}: {a[key]} != {b[key]}")
        else:
            continue
        mismatches += 1

    if mismatches:
        print(f"{mismatches} result stat(s) differ between "
              f"{args.a} and {args.b}")
        return 1
    print(f"reports match: {len(a)} result stats identical "
          f"({len(ignore)} accounting prefixes ignored)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
