#!/usr/bin/env python3
"""The benchmark's one command (perf/README.md).

Full pass:

    python3 perf/run.py [--trace] [--smoke] [--out PATH]

builds perf/ against the repository's root CMakeLists.txt, makes 5
measured runs of each of the four workloads, round-robin, at the default
seed, prints every metric by name and unit (median, q1, q3, n over the
runs) and writes a results JSON that compare.py reads. `--trace` adds
one traced process per workload, with the per-layer self times and the
tracing overhead. `--smoke` runs every workload once, in one process, at
about 1/10 size, with every check.

One measured run (the form BENCHMARK.json names):

    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1

runs set-up-only processes, then repeats workload W in fresh processes
for about S seconds, and prints, as the last line of stdout, {"correct",
"attempted", "failed", "metrics"} with BENCHMARK.json's end-to-end
metrics (--trace 0) or its per-layer metrics (--trace 1).

Bounds:

    python3 perf/run.py --calibrate

makes two sets of ten measured runs of every workload, each run at
another seed, and writes perf/baseline/bounds.json: every end-to-end
metric's spread and regression bound per workload (perf/metrics.py).

A check fails when a library call returns an error, a reader acquires a
torn view, a restored crawler re-saves to different bytes, the engine's
phase ledger exceeds a RunUntil call's wall time, or an output
fingerprint varies across repeats or, at the default seed, differs from
perf/baseline/seed.json. Any failed check makes the exit code non-zero.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep perf/ free of build output
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics as M  # noqa: E402

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)
BUILD = os.path.join(ROOT, "build-perf")  # ignored by git as build*/
BUILD_DIR = os.path.join(BUILD, "perf")
EXE = os.path.join(BUILD_DIR, "webevo_perf")
BASELINE = os.path.join(PERF, "baseline", "seed.json")
DEFAULT_SEED = 19990217
REPEATS = 5  # per workload in a full pass; 1 under --smoke
SETUP_PROCESSES = 8  # set-up-only processes per measured run
CALIBRATION_SETS = (range(1, 11), range(11, 21))  # seeds of each set
REP_TIMEOUT_S = 170
MAX_TRACE_GAP = 0.02  # share of the timed region the spans may miss


class Failure(Exception):
    """The benchmark could not produce a result (build, crash, bad setup)."""


def log(msg=""):
    print(msg, flush=True)


# ------------------------------------------------------------------ build

def check_manifest():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            committed = json.load(f)
        expected = M.manifest()
    except (OSError, ValueError, KeyError) as e:
        raise Failure(f"cannot read the benchmark's manifest: {e}")
    if committed != expected:
        raise Failure("BENCHMARK.json differs from perf/metrics.py; "
                      "regenerate it with: python3 perf/metrics.py "
                      "> BENCHMARK.json")


def run_quiet(cmd, what):
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       env=dict(os.environ, TMPDIR=tmp))
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-4000:] + p.stderr[-4000:])
        raise Failure(f"{what} failed: {' '.join(cmd)}")


def build():
    """Configures once, then builds; a no-op when up to date."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", PERF, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"], "configure")
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "webevo_perf",
               "-j", "4"], "build")


# ------------------------------------------------------------------- runs

def run_rep(workload, seed, smoke=False, trace_path=None, setup_only=False):
    """One webevo_perf process; returns its JSON result."""
    scratch = os.path.join(BUILD, "scratch", f"{workload}-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = [EXE, f"--workload={workload}", f"--seed={seed}",
           f"--scratch-dir={scratch}"]
    if smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    if trace_path:
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        cmd.append(f"--trace={trace_path}")
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise Failure(f"{workload} run exceeded {REP_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-4000:])
        raise Failure(f"webevo_perf exited {p.returncode} on {workload}")
    rep = json.loads(p.stdout.strip().splitlines()[-1])
    rep["trace_path"] = trace_path
    if rep.get("errors"):
        for e in rep["errors"]:
            log(f"  ERROR {workload}: {e}")
    return rep


def trace_file(workload, seed, k):
    return os.path.join(BUILD, "traces", f"{workload}-{seed}-{k}.jsonl")


def load_baseline():
    try:
        with open(BASELINE) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


class Checks:
    """Benchmark operations attempted and failed across runs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add_reps(self, reps):
        for r in reps:
            self.attempted += r["attempted"]
            self.failed += r["failed"]
            self.errors += [f'{r["workload"]}: {e}' for e in r["errors"]]

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
            log(f"  CHECK FAILED: {what}")


def check_fingerprints(workload, reps, seed, smoke, baseline, checks):
    """Outputs are a pure function of the seed: equal across repeats, and
    equal to the committed baseline at the default seed."""
    first = reps[0]["fingerprint"]
    for r in reps[1:]:
        checks.record(r["fingerprint"] == first,
                      f"{workload}: fingerprint {r['fingerprint']} varies "
                      f"across repeats (first {first})")
    if seed != DEFAULT_SEED or baseline is None:
        return
    key = "smoke_fingerprints" if smoke else "fingerprints"
    expected = baseline.get(key, {}).get(workload)
    if expected is not None:
        checks.record(first == expected,
                      f"{workload}: fingerprint {first} differs from "
                      f"baseline {expected}")


def measure(workload, seed, seconds, baseline, traced=False, smoke=False):
    """One measured run: repeats `workload` in fresh processes for about
    `seconds` seconds, starting a process only while it is expected to
    end in time (so 0 seconds makes one). Untraced at full size,
    SETUP_PROCESSES set-up-only processes run first, so that setup_s
    rests on many processes even where one workload process fills the
    run. Returns the workload processes' results, every set-up time and
    the checks over all of them."""
    start = time.monotonic()
    setup_reps = [] if traced or smoke else [
        run_rep(workload, seed, setup_only=True)
        for _ in range(SETUP_PROCESSES)]
    reps = []
    while True:
        path = trace_file(workload, seed, len(reps)) if traced else None
        reps.append(run_rep(workload, seed, smoke=smoke, trace_path=path))
        elapsed = time.monotonic() - start
        if elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    checks = Checks()
    checks.add_reps(setup_reps + reps)
    check_fingerprints(workload, reps, seed, smoke, baseline, checks)
    log(f"{workload}: seed {seed}, {len(setup_reps)} set-up and "
        f"{len(reps)} workload processes {'traced ' if traced else ''}in "
        f"{elapsed:.1f} s; config {json.dumps(reps[0]['config'])}")
    setups = [s for r in setup_reps + reps for s in r["setups_s"]]
    return reps, setups, checks


# ---------------------------------------------------------------- summary

def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def e2e_values(workload, reps, setups, failed, attempted):
    """Every end-to-end metric of `workload` over `reps`, the processes of
    one run: throughput and CPU per page as ratios of the timed regions'
    totals, set-up as the median of `setups`, error_rate as
    failed / attempted, the rest as medians over the processes."""
    fetches = sum(r["fetches"] for r in reps)
    values = {
        "setup_s": statistics.median(setups),
        "pages_per_s": fetches / sum(r["timed_s"] for r in reps),
        "cpu_us_per_page": 1e6 * sum(r["timed_cpu_s"] for r in reps)
                           / fetches,
        "error_rate": failed / max(attempted, 1),
    }
    for m in M.E2E:
        if m.name not in values and workload in m.workloads:
            values[m.name] = statistics.median(
                [r["e2e"][m.name] for r in reps])
    return values


def queries_valid(rep):
    late = rep["layer"].get("serving.generator_late_ms_tail")
    return late is None or late <= 1.0


def fmt(v):
    if v is None:
        return "-"
    if v == 0 or 1e-3 <= abs(v) < 1e7:
        return f"{v:.6g}"
    return f"{v:.4e}"


def print_metric_table(workload, rows):
    log(f"\n{workload}")
    log(f"  {'metric':<34} {'unit':<7} {'median':>12} {'q1':>12} "
        f"{'q3':>12} {'n':>3}")
    for name, unit, med, q1, q3, n, note in rows:
        log(f"  {name:<34} {unit:<7} {fmt(med):>12} {fmt(q1):>12} "
            f"{fmt(q3):>12} {n:>3} {note}")


# ------------------------------------------------------------------ trace

def self_times(path):
    """Per span name: count, total and self seconds (duration minus the
    part its child spans cover)."""
    with open(path) as f:
        spans = [json.loads(line) for line in f]
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(s)
    by_name = {}
    for s in spans:
        start, end = s["start_us"], s["end_us"]
        covered, cursor = 0.0, start
        for c in sorted(children.get(s["id"], []),
                        key=lambda c: c["start_us"]):
            lo, hi = max(c["start_us"], cursor), min(c["end_us"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        agg = by_name.setdefault(s["name"], {"count": 0, "total_s": 0.0,
                                             "self_s": 0.0})
        agg["count"] += 1
        agg["total_s"] += (end - start) / 1e6
        agg["self_s"] += (end - start - covered) / 1e6
    return by_name


def trace_report(workload, rep, path, checks):
    """Prints per-layer self times and checks that the harness's spans
    account for the timed region."""
    times = self_times(path)
    log(f"\n{workload}: per-layer self time (traced run, {path})")
    log(f"  {'span':<40} {'count':>7} {'total s':>10} {'self s':>10}")
    for name, a in sorted(times.items(), key=lambda kv: -kv[1]["self_s"]):
        log(f"  {name:<40} {a['count']:>7} {a['total_s']:>10.4f} "
            f"{a['self_s']:>10.4f}")
    root = times.get("workload")
    if root and root["total_s"] > 0:
        gap = root["self_s"] / root["total_s"]
        checks.record(gap <= MAX_TRACE_GAP,
                      f"{workload}: spans leave {gap:.2%} of the timed "
                      f"region unaccounted (limit {MAX_TRACE_GAP:.0%})")
    run_until = times.get("crawler.RunUntil")
    if run_until:
        # The phase spans are the engine ledger laid inside each RunUntil
        # span and crawler.unattributed_s is the rest, so the two add up
        # to the RunUntil wall by construction. The check that can fail,
        # phases exceeding their call's wall, runs in webevo_perf on every
        # call of every run.
        unattributed = rep["layer"]["crawler.unattributed_s"]
        log(f"  RunUntil wall {run_until['total_s']:.4f} s = engine phases "
            f"{run_until['total_s'] - unattributed:.4f} s + "
            f"crawler.unattributed_s {unattributed:.4f} s")
    return times


def layer_values(reps):
    """Median of each per-layer metric over `reps`; 0 where a workload
    does not run the layer."""
    out = {}
    for m in M.LAYER:
        vals = [r["layer"][m.name] for r in reps if m.name in r["layer"]]
        out[m.name] = statistics.median(vals) if vals else 0.0
    return out


# ------------------------------------------------------- one measured run

def measured_run(args):
    check_manifest()
    build()
    traced = args.trace == "1"
    reps, setups, checks = measure(args.workload, args.seed, args.seconds,
                                   load_baseline(), traced)
    if traced:
        for r in reps:
            trace_report(args.workload, r, r["trace_path"], checks)
        values = layer_values(reps)
        names = [m["name"] for m in M.manifest()["per_layer"]]
        shown = [m.name for m in M.LAYER if args.workload in m.workloads]
    else:
        values = e2e_values(args.workload, reps, setups, checks.failed,
                            checks.attempted)
        names = [m["name"] for m in M.manifest()["end_to_end"]]
        shown = list(values)
    for name in shown:
        log(f"  {name:<34} {fmt(values[name]):>14} {M.BY_NAME[name].unit}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {n: {"value": values[n], "unit": M.BY_NAME[n].unit}
                    for n in names},
    }
    print(json.dumps(result), flush=True)
    return 0 if checks.failed == 0 else 1


# ---------------------------------------------------------- calibration

def calibrate():
    """Measures every end-to-end metric's spread, (q3 - q1) / median over
    ten runs at ten seeds, in each of two sets, and writes the bounds
    perf/metrics.py derives from the wider one."""
    build()
    start = time.monotonic()
    values = {}  # workload -> metric -> one list of run values per set
    for k, seeds in enumerate(CALIBRATION_SETS):
        for w in M.WORKLOADS:
            for seed in seeds:
                reps, setups, checks = measure(w, seed, M.RUN_SECONDS, None)
                if checks.failed:
                    raise Failure(f"{w} seed {seed}: {checks.errors[:3]}")
                run = e2e_values(w, reps, setups, checks.failed,
                                 checks.attempted)
                per_metric = values.setdefault(w, {})
                for m in M.E2E:
                    if w in m.workloads and not m.deterministic:
                        sets = per_metric.setdefault(
                            m.name, [[] for _ in CALIBRATION_SETS])
                        sets[k].append(run[m.name])
    out = {"host": host_info(), "run_seconds": M.RUN_SECONDS,
           "seeds": [list(s) for s in CALIBRATION_SETS],
           "calibration_seconds": time.monotonic() - start,
           "workloads": {}}
    log(f"\n{'workload':<17} {'metric':<19} {'set medians':>23} "
        f"{'spreads':>13} {'bound':>6}  note")
    for w, per_metric in values.items():
        rows = out["workloads"][w] = {}
        for name, sets in per_metric.items():
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            bound = M.bound_from_spread(max(spreads))
            m = M.BY_NAME[name]
            sign = 1.0 if m.better == "higher" else -1.0
            shift = sign * (medians[0] - medians[1]) / abs(medians[0])
            notes = []
            if M.SPREAD_FACTOR * max(spreads) > M.MAX_BOUND:
                notes.append("spread above a third of the largest bound")
            if bound > 0.10:
                notes.append("bound above 0.10")
            if shift > bound:
                notes.append(f"second set worse by {shift:.3f}")
            rows[name] = {"values": sets, "medians": medians,
                          "spreads": spreads, "shift": shift,
                          "bound": bound}
            log(f"{w:<17} {name:<19} {fmt(medians[0]):>11} "
                f"{fmt(medians[1]):>11} {spreads[0]:>6.3f} "
                f"{spreads[1]:>6.3f} {bound:>6.3f}  {'; '.join(notes)}")
    with open(M.BOUNDS_FILE, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"\nbounds: {M.BOUNDS_FILE}; now run: "
        f"python3 perf/metrics.py > BENCHMARK.json")
    return 0


# -------------------------------------------------------------- full pass

def host_info():
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine()}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    info["build_type"] = line.split("=", 1)[1].strip()
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    compiler = line.split("=", 1)[1].strip()
                    p = subprocess.run([compiler, "--version"],
                                       capture_output=True, text=True)
                    info["compiler"] = p.stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    info["git_sha"] = p.stdout.strip() if p.returncode == 0 else "unknown"
    p = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                       capture_output=True, text=True)
    info["git_dirty"] = p.returncode == 0 and bool(p.stdout.strip())
    return info


def full_pass(args):
    check_manifest()
    build()
    baseline = None if args.write_baseline else load_baseline()
    repeats = 1 if args.smoke else REPEATS
    seconds = 0 if args.smoke else M.RUN_SECONDS
    workloads = list(M.WORKLOADS)
    # Each repeat is one measured run, as BENCHMARK.json's command makes
    # it, so that its values have the spread the bounds were measured on.
    runs = {w: [] for w in workloads}
    start = time.monotonic()
    for i in range(repeats):
        log(f"repeat {i + 1}/{repeats}")
        for w in workloads:
            runs[w].append(measure(w, args.seed, seconds, baseline,
                                   smoke=args.smoke))
    traced = {}
    if args.trace:
        for w in workloads:
            traced[w] = run_rep(w, args.seed, smoke=args.smoke,
                                trace_path=trace_file(w, args.seed, "pass"))

    checks = Checks()
    results = {"kind": "webevo-perf-results", "host": host_info(),
               "seed": args.seed, "smoke": args.smoke, "repeats": repeats,
               "workloads": {}, "fingerprints": {}}
    for w in workloads:
        for _, _, run_checks in runs[w]:
            checks.merge(run_checks)
        # Each run checked its own processes; this checks across runs.
        check_fingerprints(w, [reps[0] for reps, _, _ in runs[w]],
                           args.seed, args.smoke, None, checks)
        first = runs[w][0][0][0]
        valid = all(queries_valid(r) for reps, _, _ in runs[w] for r in reps)
        entry = {"config": first["config"],
                 "fingerprint": first["fingerprint"],
                 "extra": first["extra"], "metrics": {}}
        per_repeat = [e2e_values(w, reps, setups, c.failed, c.attempted)
                      for reps, setups, c in runs[w]]
        rows = []
        for m in M.E2E:
            if w not in m.workloads:
                continue
            vals = [v[m.name] for v in per_repeat]
            q1, med, q3 = quartiles(vals)
            invalid = m.name.startswith("query_") and not valid
            entry["metrics"][m.name] = {
                "unit": m.unit, "better": m.better, "values": vals,
                "median": med, "q1": q1, "q3": q3, "n": len(vals),
                "valid": not invalid}
            rows.append((m.name, m.unit, med, q1, q3, len(vals),
                         "INVALID: generator ran late" if invalid else ""))
        print_metric_table(w, rows)
        results["fingerprints"][w] = entry["fingerprint"]
        if w in traced:
            t = traced[w]
            checks.add_reps([t])
            checks.record(t["fingerprint"] == entry["fingerprint"],
                          f"{w}: traced run fingerprint {t['fingerprint']} "
                          f"differs from {entry['fingerprint']}")
            times = trace_report(w, t, t["trace_path"], checks)
            layer = {m.name: t["layer"][m.name] for m in M.LAYER
                     if m.name in t["layer"]}
            untraced_pps = entry["metrics"]["pages_per_s"]["median"]
            log(f"  pages_per_s traced {fmt(t['e2e']['pages_per_s'])} vs "
                f"untraced median {fmt(untraced_pps)} (host noise "
                f"included; trace.overhead_share is the measured cost)")
            log(f"\n{w}: per-layer metrics (traced run)")
            for name, v in layer.items():
                m = M.BY_NAME[name]
                tail = t["tails"].get(name)
                note = (f"p{tail['pct']:g} of {tail['n']}" if tail else "")
                log(f"  {name:<34} {fmt(v):>12} {m.unit:<6} {note:<14} "
                    f"-> {m.moves}")
            entry["layer"] = layer
            entry["tails"] = t["tails"]
            entry["self_times"] = times
        results["workloads"][w] = entry
    wall = time.monotonic() - start
    results.update({"pass_seconds": wall, "attempted": checks.attempted,
                    "failed": checks.failed, "errors": checks.errors})
    log(f"\nfull pass: {wall:.0f} s; {checks.attempted} operations, "
        f"{checks.failed} failed")

    if args.write_baseline:
        results["smoke_fingerprints"] = {
            w: run_rep(w, args.seed, smoke=True)["fingerprint"]
            for w in workloads}
    out = BASELINE if args.write_baseline else args.out
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump(results, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"results: {out}")
    return 0 if checks.failed == 0 else 1


def main():
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=list(M.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=M.RUN_SECONDS)
    p.add_argument("--trace", nargs="?", const="1", choices=["0", "1"],
                   help="with --workload: 0 or 1; alone: add traced runs")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--out", default=os.path.join(BUILD, "results.json"))
    p.add_argument("--write-baseline", action="store_true",
                   help="write the results to perf/baseline/seed.json")
    p.add_argument("--calibrate", action="store_true",
                   help="measure the bounds into perf/baseline/bounds.json")
    args = p.parse_args()
    if not 0 <= args.seed < 2 ** 64:
        p.error("--seed must be in [0, 2^64)")
    if args.write_baseline and (args.smoke or args.workload):
        p.error("--write-baseline takes a full-size full pass")
    if args.calibrate and (args.workload or args.smoke or args.trace
                           or args.write_baseline):
        p.error("--calibrate takes no other option")
    try:
        if args.calibrate:
            return calibrate()
        if args.workload:
            return measured_run(args)
        args.trace = args.trace == "1"
        return full_pass(args)
    except Failure as e:
        sys.stderr.write(f"perf/run.py: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
