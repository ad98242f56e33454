#!/usr/bin/env python3
"""Per-layer split of one traced benchmark iteration.

Inputs are the driver's results JSON (its own call spans, with the stat
counters at both edges of each call) and the program's Chrome trace
(PSCA_TRACE). For each driver call and each program span name inside
it, split() gives the count, the total time and the self time (duration
minus the same-thread child spans it covers). The driver thread's self
times plus `unattributed_s` sum to the call's wall by construction.
per_layer() derives the per-layer metrics listed in BENCHMARK.json.

    python3 benchmark/layers.py RESULTS.json TRACE.json [FLEET_TRACE.json]

prints the split of one iteration; run.py keeps both files of the last
traced iteration of each workload under benchmark/build/out/.
"""

import json
import statistics
import sys
from collections import defaultdict

# Driver calls grouped the way the per-layer metrics name them.
GROUPS = {
    "setup": ("setup_experiment", "serve_construct"),
    "crossval": ("crossval",),
    "train": ("train_best_rf", "train_charstar", "train_srch"),
    "package": ("package",),
    "eval": ("eval_firmware", "eval_charstar", "eval_srch", "serve_run"),
    "fleet": ("fleet",),
    "decode": ("decode",),
}
EVAL_SUITES = ("eval_firmware", "eval_charstar", "eval_srch")
# Calls that make up the measured workload (probes and the decode
# probe are extra work done only for the metrics).
WORKLOAD_CALLS = {c for g in ("setup", "crossval", "train", "package",
                              "eval", "fleet") for c in GROUPS[g]}


class Span:
    __slots__ = ("name", "tid", "start", "end", "self_us")

    def __init__(self, name, tid, start, dur):
        self.name, self.tid = name, tid
        self.start, self.end = start, start + dur
        self.self_us = dur


def load_spans(path):
    """Complete ('X') events of a Chrome trace, times in microseconds,
    with self times filled in per thread."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = [Span(e["name"], e["tid"], e["ts"], e["dur"])
             for e in events if e.get("ph") == "X"]
    by_tid = defaultdict(list)
    for s in spans:
        by_tid[s.tid].append(s)
    for group in by_tid.values():
        group.sort(key=lambda s: (s.start, -s.end))
        stack = []
        for s in group:
            while stack and stack[-1].end <= s.start:
                stack.pop()
            if stack:
                parent = stack[-1]
                parent.self_us -= min(s.end, parent.end) - s.start
            stack.append(s)
    return spans


def call_windows(results, spans, child_spans):
    """(name, spans inside, main thread, wall_s) of each top-level call.
    The fleet call's spans are the child process's trace, on that
    process's own clock, so the call owns all of them."""
    for c in results["calls"]:
        if c["parent"] != -1:
            continue
        wall = (c["end_ns"] - c["start_ns"]) / 1e9
        if c["name"] == "fleet":
            roots = [s for s in child_spans if s.name == "setup_experiment"]
            yield c["name"], child_spans, roots[0].tid if roots else 0, wall
        else:
            lo, hi = c["start_ns"] / 1e3, c["end_ns"] / 1e3
            yield (c["name"], [s for s in spans if lo <= s.start < hi],
                   results["trace_tid"], wall)


def split(results, spans, child_spans=()):
    """Per call: wall, per-span-name stats, and the unattributed rest of
    the driver thread's time."""
    table = {}
    for name, inside, tid, wall in call_windows(results, spans,
                                                child_spans):
        names = defaultdict(lambda: {"count": 0, "total_s": 0.0,
                                     "self_s": 0.0, "main_self_s": 0.0})
        for s in inside:
            row = names[s.name]
            row["count"] += 1
            row["total_s"] += (s.end - s.start) / 1e6
            row["self_s"] += s.self_us / 1e6
            if s.tid == tid:
                row["main_self_s"] += s.self_us / 1e6
        covered = sum(r["main_self_s"] for r in names.values())
        unattributed = wall - covered
        if unattributed < -1e-5:
            raise ValueError(f"call {name}: driver-thread spans cover "
                             f"{covered:.6f} s of a {wall:.6f} s wall")
        entry = table.setdefault(name, {"wall_s": 0.0, "spans": {},
                                        "unattributed_s": 0.0})
        entry["wall_s"] += wall
        entry["unattributed_s"] += max(unattributed, 0.0)
        for span_name, row in names.items():
            acc = entry["spans"].setdefault(span_name, dict.fromkeys(row, 0))
            for k, v in row.items():
                acc[k] += v
    return table


def _spans_in(spans, results, call_names):
    windows = [(c["start_ns"] / 1e3, c["end_ns"] / 1e3)
               for c in results["calls"] if c["name"] in call_names]
    return [s for s in spans
            if any(lo <= s.start < hi for lo, hi in windows)]


def delta(results, call_names, counter):
    return sum(c["after"].get(counter, 0) - c["before"].get(counter, 0)
               for c in results["calls"] if c["name"] in call_names)


def _wall(results, call_names):
    return sum(c["end_ns"] - c["start_ns"] for c in results["calls"]
               if c["name"] in call_names) / 1e9


def _top_level(spans, tid, names):
    """Outermost driver-thread spans with one of @p names."""
    own = sorted((s for s in spans if s.tid == tid and s.name in names),
                 key=lambda s: (s.start, -s.end))
    out, end = [], float("-inf")
    for s in own:
        if s.start >= end:
            out.append(s)
            end = s.end
    return out


def report_counter(reports, name):
    return sum(r.get("counters", {}).get(name, 0) for r in reports)


def phase_wall_s(reports, name):
    """Total wall of phase @p name over run reports' phase trees."""
    total, todo = 0.0, [n for r in reports for n in r.get("phases", [])]
    while todo:
        node = todo.pop()
        if node["name"] == name:
            total += node["wall_ms"] / 1e3
        todo.extend(node.get("children", []))
    return total


def per_layer(results, spans, extras, child_spans=()):
    """Every per-layer metric of BENCHMARK.json for one traced iteration.

    @p extras carries what the driver cannot see: file sizes after the
    run (memo_mb, journal_mb, ckpt_files, ring_mb), the fleet's run
    reports (fleet_reports, coordinator first), and untraced_wall_s,
    the median wall of the same run's untraced iterations.
    @p child_spans is the fleet coordinator's trace."""
    table = split(results, spans, child_spans)
    m = {}
    measures, items = results["measures"], results["items"]
    fleet = results["workload"] == "fleet_cold"
    reports = extras.get("fleet_reports", [])
    threads = results["threads"]
    tid = results["trace_tid"]
    setup_calls, eval_calls = GROUPS["setup"], GROUPS["eval"]

    def counter(name, calls=WORKLOAD_CALLS):
        return report_counter(reports, name) if fleet \
            else delta(results, calls, name)

    def span_total(name, calls=WORKLOAD_CALLS):
        ss = child_spans if fleet else _spans_in(spans, results, calls)
        return sum(s.end - s.start for s in ss if s.name == name) / 1e6

    # core/builder
    m["builder.record_traces"] = counter("record.traces")
    m["builder.record_busy_s"] = (phase_wall_s(reports, "record_trace")
                                  if fleet else span_total("record_trace"))
    m["builder.corpus_cache_hits"] = counter("record.cache_hits")

    # sim
    m["sim.replay_busy_s.setup"] = (
        counter("sim.replay_ns") if fleet
        else delta(results, setup_calls, "sim.replay_ns")) / 1e9
    m["sim.replay_busy_s.eval"] = (
        0 if fleet else delta(results, eval_calls, "sim.replay_ns")) / 1e9
    muops = counter("sim.instructions_retired") / 1e6
    replay_s = counter("sim.replay_ns") / 1e9
    m["sim.muops"] = muops
    m["sim.muops_per_busy_s"] = muops / replay_s if replay_s else 0.0

    # sim/memo
    hits, misses = counter("memo.hits"), counter("memo.misses")
    m["memo.hit_pct"] = 100.0 * hits / (hits + misses) if hits + misses \
        else 0.0
    m["memo.stores"] = counter("memo.stores")
    m["memo.mb"] = extras.get("memo_mb", 0.0)

    # trace
    decode_s = _wall(results, GROUPS["decode"])
    m["trace.decode_muops_per_s"] = (
        measures.get("decode_uops", 0) / decode_s / 1e6 if decode_s else 0.0)

    # core/controller
    eval_spans = [] if fleet else _spans_in(spans, results, EVAL_SUITES)
    loops = sorted((s.end - s.start) / 1e3 for s in eval_spans
                   if s.name == "closed_loop_replay")
    hist = results["histograms"].get("controller.decision_latency_ns", {})
    decide_s = hist.get("count", 0) * hist.get("mean", 0.0) / 1e9
    m["closed_loop.runs"] = len(loops)
    m["closed_loop.busy_s"] = sum(loops) / 1e3
    if len(loops) >= 2:
        q = statistics.quantiles(loops, n=100, method="inclusive")
        m["closed_loop.ms_p50"], m["closed_loop.ms_p95"] = q[49], q[94]
    else:
        m["closed_loop.ms_p50"] = m["closed_loop.ms_p95"] = \
            loops[0] if loops else 0.0
    m["closed_loop.nonsim_s"] = (
        m["closed_loop.busy_s"] - delta(results, EVAL_SUITES,
                                         "sim.replay_ns") / 1e9 - decide_s
        if loops else 0.0)
    covers = []
    for c in results["calls"]:
        if c["name"] in EVAL_SUITES:
            busy = sum(s.end - s.start for s in
                       _spans_in(spans, results, (c["name"],))
                       if s.name == "closed_loop_replay") / 1e3
            covers.append(100.0 * busy / ((c["end_ns"] - c["start_ns"]) / 1e6))
    m["closed_loop.eval_cover_pct"] = min(covers) if covers else 0.0

    # uc, core/firmware_image, ml inference
    m["controller.decide_us_p50"] = hist.get("p50", 0) / 1e3
    m["controller.decide_us_p99"] = hist.get("p99", 0) / 1e3
    m["controller.decide_s"] = decide_s
    vm_calls = ("eval_firmware", "serve_run")
    inferences = delta(results, vm_calls, "uc.inferences")
    m["uc.ops_per_inference"] = (
        delta(results, vm_calls, "uc.ops_executed") / inferences
        if inferences else 0.0)

    # ml, core/crossval
    if fleet:
        m["train.busy_s"] = phase_wall_s(reports[:1], "train_dual")
        m["crossval.busy_s"] = phase_wall_s(reports[:1], "cross_validation")
    else:
        m["train.busy_s"] = (_wall(results, GROUPS["train"]) +
                             span_total("train_dual", ("serve_run",)))
        m["crossval.busy_s"] = _wall(results, GROUPS["crossval"])
    m["firmware.package_ms"] = _wall(results, GROUPS["package"]) * 1e3

    # common/parallel
    for group, calls in (("setup", setup_calls), ("eval", eval_calls)):
        wall = _wall(results, calls)
        busy = span_total("pool.task", calls)
        m[f"pool.busy_pct.{group}"] = (100.0 * busy / (threads * wall)
                                       if wall else 0.0)

    # common/journal
    m["journal.units_executed"] = (
        reports[0].get("gauges", {}).get("runner.units_executed", 0)
        if fleet else delta(results, WORKLOAD_CALLS,
                             "journal.units_executed"))
    m["journal.unit_busy_s"] = span_total("journal.unit")
    m["journal.mb"] = extras.get("journal_mb", 0.0)
    m["journal.ckpt_files"] = extras.get("ckpt_files", 0)

    # serve
    blocks = int(items.get("outcome.blocks", 0))
    run_s = _wall(results, ("serve_run",))
    lifecycle = sum(s.end - s.start for s in _top_level(
        _spans_in(spans, results, ("serve_run",)), tid,
        ("train_dual", "record_trace"))) / 1e6
    m["serve.blocks"] = blocks
    m["serve.drifts"] = int(items.get("outcome.drifts", 0))
    m["serve.promotions"] = int(items.get("outcome.promotions", 0))
    m["serve.rejections"] = int(items.get("outcome.rejections", 0))
    m["serve.rollbacks"] = int(items.get("outcome.rollbacks", 0))
    m["serve.lifecycle_busy_s"] = lifecycle
    m["serve.steady_us_per_block"] = ((run_s - lifecycle) / blocks * 1e6
                                      if blocks else 0.0)
    m["serve.blocks_per_s"] = blocks / run_s if run_s else 0.0
    m["serve.ring_mb"] = extras.get("ring_mb", 0.0)

    # dist
    coord = reports[:1]
    sent = report_counter(coord, "dist.bytes_sent") / 1e6
    received = report_counter(coord, "dist.bytes_received") / 1e6
    fleet_s = _wall(results, GROUPS["fleet"])
    m["dist.units_assigned"] = report_counter(coord, "dist.units_assigned")
    m["dist.units_reassigned"] = report_counter(coord,
                                                 "dist.units_reassigned")
    m["dist.local_fallbacks"] = report_counter(reports,
                                                "dist.local_fallbacks")
    m["dist.mb_sent"] = sent
    m["dist.mb_received"] = received
    m["dist.mb_per_s"] = (sent + received) / fleet_s if fleet_s else 0.0

    # obs
    untraced = extras.get("untraced_wall_s")
    m["obs.trace_overhead_pct"] = (
        100.0 * (measures["wall_s"] / untraced - 1.0) if untraced else 0.0)

    for group, calls in GROUPS.items():
        m[f"unattributed_s.{group}"] = sum(
            table[c]["unattributed_s"] for c in calls if c in table)
    return m


def print_split(table, out=sys.stdout):
    for call, entry in table.items():
        print(f"{call}: wall {entry['wall_s']:.4f} s, unattributed "
              f"{entry['unattributed_s']:.4f} s", file=out)
        rows = sorted(entry["spans"].items(),
                      key=lambda kv: -kv[1]["total_s"])
        for name, r in rows:
            print(f"  {name:<28} n={r['count']:<6} total "
                  f"{r['total_s']:10.4f} s  self {r['self_s']:10.4f} s  "
                  f"driver-thread self {r['main_self_s']:10.4f} s",
                  file=out)


if __name__ == "__main__":
    if len(sys.argv) not in (3, 4):
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        res = json.load(f)
    child = load_spans(sys.argv[3]) if len(sys.argv) == 4 else ()
    print_split(split(res, load_spans(sys.argv[2]), child))
