#!/usr/bin/env python3
"""Compare a BENCH_*.json run report against a recorded perf baseline.

Usage: check_perf.py <report.json> <baseline.json> [--threshold 0.20]
                     [--blocking] [--update-baseline]

For every gauge named in the baseline's "gauges" object, warn (GitHub
workflow-command format, so the annotation surfaces on the PR) when
the measured value falls more than the tolerated fraction below the
recorded value. A gauge entry is either a bare number or an object
``{"value": 19.5, "tolerance_pct": 25}``; the per-gauge tolerance
overrides --threshold, so noisy wall-clock gauges can carry a wider
band than stable ratio gauges.

By default the script always exits 0 (warn-only): local runs and
laptops are noisy, so a warning is a nudge to look, not a verdict.
With --blocking, any regressed gauge exits 1 — the CI perf-smoke job
runs in this mode and gates the merge. When a blocking run fails on
an intentional change (new kernel, retuned model), re-record with
--update-baseline on a quiet machine and commit the result.

A baselined gauge that is missing from the report warns, and with
--blocking also exits 1: a gauge must not drop out of the ratchet
silently. When one is renamed or retired on purpose, remove or
rename its baseline entry in the same change. A missing baseline
file only warns (a fresh checkout has none); record one with
--update-baseline, which rewrites the baseline's gauge values from
the measured report (preserving any per-gauge tolerance_pct) and
exits 0.
"""

import argparse
import json
import os
import sys


def entry_value(entry):
    """Recorded value of a gauge entry (number or object form)."""
    if isinstance(entry, dict):
        return float(entry["value"])
    return float(entry)


def entry_tolerance(entry, default_frac):
    """Tolerated fractional drop for a gauge entry."""
    if isinstance(entry, dict) and "tolerance_pct" in entry:
        return float(entry["tolerance_pct"]) / 100.0
    return default_frac


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("report")
    ap.add_argument("baseline")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="default tolerated fractional drop when a "
                         "gauge carries no tolerance_pct (default "
                         "0.20)")
    ap.add_argument("--blocking", action="store_true",
                    help="exit 1 when any gauge regressed or is "
                         "missing from the report (CI gate); without "
                         "it both only warn")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline's gauge values from "
                         "the report instead of comparing")
    args = ap.parse_args()

    try:
        with open(args.report) as f:
            measured = json.load(f).get("gauges", {})
    except (OSError, json.JSONDecodeError) as err:
        print(f"::warning::perf report {args.report} unreadable "
              f"({err}); nothing to check")
        return 0

    if args.update_baseline:
        doc = {}
        if os.path.exists(args.baseline):
            try:
                with open(args.baseline) as f:
                    doc = json.load(f)
            except (OSError, json.JSONDecodeError):
                doc = {}
        # Keep previously tracked gauge names (and their tolerances)
        # where possible so a partial report doesn't silently shrink
        # coverage or drop tuning.
        old = doc.get("gauges", {})
        tracked = set(old) | set(measured)
        gauges = {}
        for name in sorted(tracked):
            if name not in measured:
                continue
            prior = old.get(name)
            if isinstance(prior, dict):
                entry = dict(prior)
                entry["value"] = measured[name]
            else:
                entry = measured[name]
            gauges[name] = entry
        doc["gauges"] = gauges
        with open(args.baseline, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"baseline {args.baseline} updated: "
              f"{len(doc['gauges'])} gauges recorded")
        return 0

    if not os.path.exists(args.baseline):
        print(f"::warning::perf baseline {args.baseline} missing; "
              f"record one with --update-baseline")
        return 0
    try:
        with open(args.baseline) as f:
            baseline = json.load(f).get("gauges", {})
    except (OSError, json.JSONDecodeError) as err:
        print(f"::warning::perf baseline {args.baseline} unreadable "
              f"({err}); re-record with --update-baseline")
        return 0

    regressed = 0
    missing = 0
    for name, entry in sorted(baseline.items()):
        got = measured.get(name)
        if got is None:
            print(f"::warning::perf gauge {name} missing from "
                  f"{args.report}; drop or rename its baseline entry "
                  f"if it was retired or renamed")
            missing += 1
            continue
        recorded = entry_value(entry)
        tolerance = entry_tolerance(entry, args.threshold)
        floor = recorded * (1.0 - tolerance)
        verdict = "ok"
        if got < floor:
            verdict = "REGRESSED"
            print(f"::warning::perf regression: {name} = {got:.2f}, "
                  f"recorded {recorded:.2f} "
                  f"(floor {floor:.2f} at -{tolerance:.0%})")
            regressed += 1
        print(f"  {name}: measured {got:.2f} vs recorded "
              f"{recorded:.2f} [-{tolerance:.0%} floor "
              f"{floor:.2f}] [{verdict}]")

    failed = regressed + missing
    if failed and not args.blocking:
        print(f"{regressed} gauge(s) regressed, {missing} missing; "
              f"warn-only mode (pass --blocking to gate)")
        return 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
