#!/usr/bin/env python3
"""Reproduction benchmark: build the driver, run workloads, check their
results against the goldens, and print every metric with its unit.

    python3 benchmark/run.py [--rounds R] [--seconds S] [--seed N] [--out F]
        build and run one full set (see README.md), print every metric
    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
        one run of one workload; the last stdout line is its JSON result
    python3 benchmark/run.py compare PARENT.json CHANGE.json
        apply BENCHMARK.json's bounds to two sets
    python3 benchmark/run.py --record-golden
        rewrite benchmark/golden/ (only in a change to the benchmark)

Every run works in a fresh directory under benchmark/build/run/ with
the inherited PSCA_* environment scrubbed; outputs worth keeping (set
results, the last traced iteration per workload) go to
benchmark/build/out/.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = BENCH / "build"
OUT = BUILD / "out"
GOLDEN = BENCH / "golden"
DRIVER = BUILD / "psca_benchmark"
PSCA = BUILD / "tools" / "psca"

# PSCA_THREADS per workload, and how many set-up calls one iteration
# makes (setup_s is their median). Only the warm cache load is cheap
# enough to repeat; the others set up once per iteration.
WORKLOADS = {
    "repro_cold": {"threads": 4, "setups": 1},
    "repro_warm": {"threads": 4, "setups": 9},
    "serve_shift": {"threads": 4, "setups": 1},
    "fleet_cold": {"threads": 1, "setups": 1},
}
SERVE_BLOCKS = 8 * 256
ITERATION_TIMEOUT_S = 170


class RunFailed(Exception):
    pass


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build():
    """Configure benchmark/build from the repository root with the
    targets.cmake hook and build the driver and the psca CLI."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("run.py: no repository sources next to benchmark/ "
                 "to build the driver from")
    cache = BUILD / "CMakeCache.txt"
    if cache.exists() and \
            f"CMAKE_HOME_DIRECTORY:INTERNAL={ROOT}\n" not in cache.read_text():
        shutil.rmtree(BUILD)  # configured for another checkout
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(BUILD),
                      f"-DCMAKE_PROJECT_INCLUDE={BENCH / 'targets.cmake'}"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "psca_benchmark", "psca", "-j", jobs])
    with open(BUILD / "build.log", "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                out.flush()
                tail = (BUILD / "build.log").read_text().splitlines()[-30:]
                sys.exit("run.py: build failed:\n" + "\n".join(tail))


@functools.lru_cache(maxsize=None)
def driver_stamp():
    h = hashlib.sha256()
    with open(DRIVER, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def machine():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    build_type = ""
    cache = BUILD / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1]
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "build_type": build_type or "RelWithDebInfo (repository default)",
            "git_commit": commit}


# ------------------------------------------------------------ iterations

def scrubbed_env(workload, run_dir, trace):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PSCA_")}
    env.update(PSCA_THREADS=str(WORKLOADS[workload]["threads"]),
               PSCA_SCALE="quick",
               PSCA_CACHE_DIR=str(run_dir / "cache"),
               PSCA_REPORT_DIR=str(run_dir / "report"),
               PSCA_LOG_LEVEL="warn")
    if trace:
        env["PSCA_TRACE"] = str(trace)
    return env


def run_driver(cmd, cwd, env, timeout):
    """Run the driver in its own process group, so a timeout also stops
    the fleet processes it spawned; always waits for all of them."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed(f"{cmd[2]} timed out after {timeout:.0f} s")
    finally:
        try:  # reap anything left in the group (fleet workers)
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RunFailed(f"driver exited {proc.returncode}:\n"
                        + "\n".join(output.splitlines()[-20:]))


def dir_mb(path, prefix=""):
    if not path.is_dir():
        return 0.0
    return sum(p.stat().st_size for p in path.rglob(prefix + "*")
               if p.is_file()) / 1e6


def iteration(workload, seed, traced, snapshot_to=None, timeout=None):
    """One driver invocation in a fresh run directory. Returns the
    driver's results and the extras layers.py needs."""
    run_dir = BUILD / "run" / f"{workload}-{os.getpid()}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    try:
        if workload == "repro_warm":
            shutil.copytree(warm_snapshot(), run_dir / "cache")
        trace = OUT / f"{workload}.trace.json" if traced else None
        if trace:
            OUT.mkdir(parents=True, exist_ok=True)
            for stale in (trace, Path(f"{trace}.fleet.json")):
                stale.unlink(missing_ok=True)
        out = run_dir / "results.json"
        cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
               "--out", str(out),
               "--setups", str(WORKLOADS[workload]["setups"])]
        if workload == "fleet_cold":
            cmd += ["--psca", str(PSCA)]
        run_driver(cmd, run_dir, scrubbed_env(workload, run_dir, trace),
                   timeout or ITERATION_TIMEOUT_S)
        results = json.loads(out.read_text())

        cache = run_dir / "cache"
        extras = {
            "memo_mb": dir_mb(cache, "simmemo_"),
            "journal_mb": dir_mb(cache, "journal.psj"),
            "ckpt_files": len(list(cache.glob("ckpt_*"))),
            "ring_mb": dir_mb(run_dir / "ring"),
        }
        if workload == "fleet_cold":
            paths = [run_dir / "report" / "fleet.json"] + sorted(
                (cache / "workers").glob("w*/fleet.json"))
            extras["fleet_reports"] = [json.loads(p.read_text())
                                       for p in paths]
            # The campaign's result gauges are golden items too.
            for k, v in sorted(extras["fleet_reports"][0]["gauges"].items()):
                if k.startswith("fleet."):
                    results["items"]["gauge." + k] = repr(v)
        if traced:
            shutil.copy(out, OUT / f"{workload}.results.json")
        if snapshot_to is not None:
            for p in list(cache.glob("ckpt_*")) + [cache / "journal.psj"]:
                p.unlink(missing_ok=True)
            shutil.move(str(cache), str(snapshot_to))
        return results, extras
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def make_warm_snapshot(check):
    """Run one cold campaign (seed 1) and keep its cache, minus journal
    and checkpoints, as the snapshot repro_warm restores before every
    iteration. Returns the campaign's results."""
    log("run.py: recording the warm-cache snapshot (one cold campaign)")
    tmp = BUILD / "warm.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    results, _ = iteration("repro_cold", 1, False, snapshot_to=tmp / "cache")
    if check:
        attempted, failed, first = check_items("repro_cold", 1,
                                               results["items"])
        if failed:
            raise RunFailed(f"warm snapshot campaign failed its golden "
                            f"check ({failed}/{attempted}; first: {first})")
    (tmp / "stamp").write_text(driver_stamp())
    shutil.rmtree(BUILD / "warm", ignore_errors=True)
    tmp.rename(BUILD / "warm")
    return results


def warm_snapshot():
    """The warm-cache snapshot, rebuilt whenever the driver changes."""
    stamp = BUILD / "warm" / "stamp"
    if not stamp.is_file() or stamp.read_text() != driver_stamp():
        make_warm_snapshot(check=True)
    return BUILD / "warm" / "cache"


# --------------------------------------------------------------- goldens

def golden_path(workload, seed):
    if workload == "fleet_cold":
        return GOLDEN / "fleet.json"
    kind = "serve" if workload == "serve_shift" else "repro"
    return GOLDEN / f"{kind}.seed{seed}.json"


def load_golden(path):
    if not path.is_file():
        return None
    with open(path) as f:
        return json.load(f)["items"]


def compare_items(golden, items):
    """(attempted, failed, first bad item) comparing every golden item
    exactly; items the golden does not have also count as failures."""
    failed, first = 0, None
    for key, want in golden.items():
        if items.get(key) != want:
            failed += 1
            first = first or f"{key}: want {want!r}, got {items.get(key)!r}"
    extra = [k for k in items if k not in golden]
    if extra:
        failed += len(extra)
        first = first or f"{extra[0]}: not in the golden"
    return len(golden) + len(extra), failed, first


def _finite_fields(value):
    return all(math.isfinite(float(f.split("=")[1]))
               for f in value.split()[:4])


def invariants(workload, items):
    """Checks for a seed without a golden: the seed-independent items
    exactly (repro: plan and corpus records, the closed-loop prediction
    counts) and structural invariants of the rest."""
    checks = []
    if workload == "serve_shift":
        checks = [
            ("outcome.blocks", items.get("outcome.blocks") ==
             str(SERVE_BLOCKS)),
            ("lifecycle.000", items.get("lifecycle.000", "").startswith(
                "b=0 BOOTSTRAP")),
            ("outcome.retrain_failures",
             items.get("outcome.retrain_failures") == "0"),
            ("outcome.swap_failures",
             items.get("outcome.swap_failures") == "0"),
            ("outcome.active_version",
             int(items.get("outcome.active_version", "0")) >= 1),
            ("ring.ring.manifest", "ring.ring.manifest" in items),
            ("outcome.promotions", int(items.get("outcome.promotions", 0)) +
             int(items.get("outcome.rejections", 0)) <=
             int(items.get("outcome.retrains", 0))),
        ]
    else:
        ref = load_golden(golden_path(workload, 1)) or {}
        checks.append(("item set", set(ref) == set(items)))
        for key, want in ref.items():
            got = items.get(key, "")
            if key == "plan.hash" or key.startswith("record."):
                checks.append((key, got == want))
            elif key.startswith("loop."):
                checks.append((key, _finite_fields(got) and
                               got.split()[-1] == want.split()[-1]))
            elif key.endswith("rsv_pct"):
                checks.append((key, 0.0 <= float(got or "nan") <= 100.0))
    bad = [k for k, ok in checks if not ok]
    return len(checks), len(bad), (f"{bad[0]}: invariant violated"
                                   if bad else None)


def check_items(workload, seed, items):
    golden = load_golden(golden_path(workload, seed))
    if golden is not None:
        return compare_items(golden, items)
    if workload == "fleet_cold":
        return 1, 1, f"missing golden {golden_path(workload, seed)}"
    return invariants(workload, items)


# --------------------------------------------------------------- metrics

def end_to_end(results, extras):
    m = results["measures"]
    wall = m["wall_s"]
    if results["workload"] == "fleet_cold":
        reports = extras["fleet_reports"]
        setup = layers.phase_wall_s(reports[:1], "setup_experiment")
        instr = layers.report_counter(reports, "sim.instructions_retired")
    else:
        setup = statistics.median(v for k, v in m.items()
                                  if k.startswith("setup_s."))
        instr = layers.delta(results, layers.WORKLOAD_CALLS,
                             "sim.instructions_retired")
    return {"wall_s": wall, "setup_s": setup,
            "peak_rss_mb": m["peak_rss_kb"] / 1024.0,
            "sim_minstr_per_s": instr / 1e6 / wall}


def median_metrics(rows):
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def one_run(workload, seed, seconds, trace):
    """One run of one workload: iterate for about @p seconds (at least once),
    check every iteration, report medians. Traced runs alternate an
    untraced and a traced iteration and report the per-layer metrics."""
    if workload == "repro_warm":
        warm_snapshot()  # untimed preparation
    start = time.monotonic()
    attempted = failed = 0
    first_bad = None
    untraced, traced = [], []
    while True:
        t0 = time.monotonic()
        for is_traced in ((False, True) if trace else (False,)):
            budget = ITERATION_TIMEOUT_S - (time.monotonic() - start)
            results, extras = iteration(workload, seed, is_traced,
                                        timeout=max(budget, 10))
            a, f, first = check_items(workload, seed, results["items"])
            attempted, failed = attempted + a, failed + f
            first_bad = first_bad or first
            if not is_traced:
                untraced.append((results, extras))
                continue
            # The next traced iteration overwrites the trace files.
            path = OUT / f"{workload}.trace.json"
            child = (layers.load_spans(f"{path}.fleet.json")
                     if workload == "fleet_cold" else [])
            traced.append((results, extras, layers.load_spans(path), child))
        now = time.monotonic()
        if now + (now - t0) > start + seconds:
            break
    e2e = median_metrics([end_to_end(r, x) for r, x in untraced])
    if trace:
        rows = []
        for results, extras, spans, child in traced:
            extras["untraced_wall_s"] = e2e["wall_s"]
            rows.append(layers.per_layer(results, spans, extras, child))
        metrics = median_metrics(rows)
    else:
        metrics = e2e
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "first_bad": first_bad,
            "iterations": len(untraced), "metrics": metrics}


def workload_main(args):
    if args.workload not in WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}")
    build()
    wanted = spec()["per_layer" if args.trace else "end_to_end"]
    run = one_run(args.workload, args.seed, args.seconds, args.trace)
    if set(run["metrics"]) != {m["name"] for m in wanted}:
        sys.exit("run.py: computed metrics do not match BENCHMARK.json")
    if run["first_bad"]:
        log(f"run.py: {run['failed']}/{run['attempted']} result items "
            f"failed; first: {run['first_bad']}")
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(run, workload=args.workload, seed=args.seed,
                  trace=args.trace, machine=machine())
    (OUT / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    for m in wanted:
        print(f"{args.workload} {m['name']} = {run['metrics'][m['name']]:.6g} "
              f"{m['unit']}")
    print(json.dumps({
        "correct": run["correct"], "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": run["metrics"][m["name"]],
                                "unit": m["unit"]} for m in wanted}}))


# ------------------------------------------------------------------ sets

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def set_main(args):
    """One untimed repro_cold run (the warm snapshot), then `rounds`
    interleaved rounds of every workload, then one traced run each."""
    build()
    s = spec()
    make_warm_snapshot(check=True)
    values = {w: defaultdict(list) for w in WORKLOADS}
    checks = {w: {"attempted": 0, "failed": 0, "first_bad": None}
              for w in WORKLOADS}
    per_layer = {}

    def tally(workload, run):
        c = checks[workload]
        c["attempted"] += run["attempted"]
        c["failed"] += run["failed"]
        c["first_bad"] = c["first_bad"] or run["first_bad"]

    for r in range(args.rounds):
        for w in WORKLOADS:
            log(f"run.py: round {r + 1}/{args.rounds}: {w}")
            run = one_run(w, args.seed, args.seconds, False)
            tally(w, run)
            for k, v in run["metrics"].items():
                values[w][k].append(v)
    for w in WORKLOADS:
        log(f"run.py: traced run: {w}")
        run = one_run(w, args.seed, args.seconds, True)
        tally(w, run)
        per_layer[w] = run["metrics"]

    print(f"{'metric':<34} {'unit':<9} {'workload':<12} {'median':>12} "
          f"{'q1':>12} {'q3':>12}  n")
    for m in s["end_to_end"]:
        for w in WORKLOADS:
            vals = values[w][m["name"]]
            q1, med, q3 = quartiles(vals)
            print(f"{m['name']:<34} {m['unit']:<9} {w:<12} {med:12.6g} "
                  f"{q1:12.6g} {q3:12.6g}  {len(vals)}")
    for m in s["per_layer"]:
        for w in WORKLOADS:
            print(f"{m['name']:<34} {m['unit']:<9} {w:<12} "
                  f"{per_layer[w][m['name']]:12.6g}  (traced, n=1)")
    for w, c in checks.items():
        status = "ok" if c["failed"] == 0 else f"FAILED ({c['first_bad']})"
        print(f"results {w:<12} {c['failed']}/{c['attempted']} items "
              f"failed: {status}")

    out = Path(args.out) if args.out else \
        OUT / f"set-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "machine": machine(), "seed": args.seed, "rounds": args.rounds,
        "seconds": args.seconds, "values": values, "per_layer": per_layer,
        "checks": checks}, indent=1) + "\n")
    print(f"set written to {out}")
    return 0 if all(c["failed"] == 0 for c in checks.values()) else 1


def verdict(parent, change, bound, better, judge_spread=True):
    """better / same / worse / unresolved for one (metric, workload)."""
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (cmed - pmed) / pmed
    spread = max((pq3 - pq1) / pmed, (cq3 - cq1) / cmed)
    if better == "lower":
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    if judge_spread and spread > bound and not all_better:
        return "unresolved", worse_by, spread
    if worse_by > bound:
        return "worse", worse_by, spread
    if all_better or -worse_by > spread > 0:
        return "better", worse_by, spread
    return "same", worse_by, spread


def compare_main(parent_path, change_path):
    with open(parent_path) as f:
        parent = json.load(f)
    with open(change_path) as f:
        change = json.load(f)
    bad = 0
    print(f"{'metric':<18} {'workload':<12} {'verdict':<11} "
          f"{'change':>9} {'spread':>8} {'bound':>7}")
    for m in spec()["end_to_end"]:
        for w in WORKLOADS:
            p = parent["values"].get(w, {}).get(m["name"])
            c = change["values"].get(w, {}).get(m["name"])
            if not p or not c:
                continue
            # Set-up runs once per iteration, too few times to be as
            # steady as the wall: judge setup_s on its median alone.
            v, worse_by, spread = verdict(p, c, m["bound"], m["better"],
                                          m["name"] != "setup_s")
            bad += v in ("worse", "unresolved")
            print(f"{m['name']:<18} {w:<12} {v:<11} "
                  f"{-worse_by * 100:+8.2f}% {spread * 100:7.2f}% "
                  f"{m['bound'] * 100:6.1f}%")
    print("(change: positive = better than the parent)")
    return 1 if bad else 0


def record_golden_main():
    """Rewrite the goldens: seeds 1 and 2 of repro (cold and warm must
    agree) and serve, and the seed-less fleet campaign."""
    build()
    GOLDEN.mkdir(exist_ok=True)

    def write(path, workload, seed, items):
        path.write_text(json.dumps({"workload": workload, "seed": seed,
                                    "items": items}, indent=1) + "\n")
        log(f"run.py: wrote {path.relative_to(ROOT)} ({len(items)} items)")

    cold = make_warm_snapshot(check=False)
    for seed in (1, 2):
        warm, _ = iteration("repro_warm", seed, False)
        if seed == 1 and warm["items"] != cold["items"]:
            sys.exit("run.py: repro_cold and repro_warm disagree")
        write(golden_path("repro_warm", seed), "repro", seed, warm["items"])
        serve, _ = iteration("serve_shift", seed, False)
        write(golden_path("serve_shift", seed), "serve_shift", seed,
              serve["items"])
    fleet, _ = iteration("fleet_cold", 1, False)
    write(golden_path("fleet_cold", 1), "fleet_cold", None, fleet["items"])
    return 0


def main():
    # Unwind on SIGTERM too, so run_driver's cleanup kills the driver's
    # process group instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            sys.exit(__doc__)
        return compare_main(sys.argv[2], sys.argv[3])
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--out")
    p.add_argument("--record-golden", action="store_true")
    args = p.parse_args()
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    try:
        if args.record_golden:
            return record_golden_main()
        if args.workload:
            return workload_main(args)
        return set_main(args)
    except RunFailed as e:
        sys.exit(f"run.py: {args.workload or 'set'}: {e}")


if __name__ == "__main__":
    sys.exit(main())
