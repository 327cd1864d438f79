#!/usr/bin/env python3
"""End-to-end scenario benchmark: four workloads on the 11,271-node fat-tree.

One workload, as the benchmark contract in BENCHMARK.json runs it; the last
line of stdout is one JSON object (correct, attempted, failed, metrics):

    python3 bench/e2e/run.py --workload fabric_http --seed 3 --seconds 10 --trace 0

Every measured repetition is preceded by one run of the reference kernel
(bench_ref.cpp); throughput metrics are divided by its speed (see
end_to_end). An end-to-end metric's value is built from means of the better
half of the run's repetitions (see better_half).

Every workload, REPS interleaved repetitions plus one traced pass each; prints
every metric with its unit (and what the end-to-end ones are built from as
median [min, max]), checks the outputs and writes BENCH_e2e.json (and
BENCH_e2e_trace_<workload>.json) to the working directory:

    python3 bench/e2e/run.py [--build-dir DIR]

    --calibrate  10 runs per workload (seeds 1..10, interleaved) -> calibration.json
    --bless      rewrite golden.json at the default seed; only for changes
                 that are meant to alter simulation behaviour
    --smoke      a 20 ms traced and untraced run of every workload; checks
                 that exactly the metrics named in BENCHMARK.json are emitted
                 and that the setup sub-phases agree with setup's timing

Each repetition is a fresh bench_e2e process (see bench_e2e.cpp). The first
call configures and builds both programs, in Release, under .bench_build/e2e.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = HERE / "golden.json"
CALIBRATION = HERE / "calibration.json"

DEFAULT_SEED = 1
REPS = 3  # interleaved repetitions per workload in the all-workloads mode
MIN_REPS = 3  # untraced repetitions per run, however short --seconds is
SHARDED = 4  # shard count of the sharded workload and of companion runs
MAX_RUN_DELAY = 0.05  # a repetition waiting longer for a CPU is invalid
REP_TIMEOUT_S = 120
# Bound rule of --calibrate: at least BOUND_SPREADS times the largest
# relative IQR, so that a run-to-run spread stays under a third of its
# bound; no less than BOUND_FLOOR, rounded up to a multiple of 0.05, and
# never above MAX_BOUND, the largest bound BENCHMARK.json accepts.
BOUND_SPREADS = 3
BOUND_FLOOR = 0.05
MAX_BOUND = 0.25
# Traced repetitions in --smoke keep coming for this long: setup timings are
# compared on medians, since one 0.1 s setup is too noisy to hold to 10%.
SMOKE_TRACED_S = 4.0


def ratio(num, den):
    return num / den if den else 0.0


# Each workload: inputs (.scn under workloads/), shard count, and the
# property its outputs must have for it to exercise the layer it was chosen
# for (a failed property is an output-check failure).
def fabric_property(r):
    if r["cache_lookups"]:
        return "cache lookups on a workload without an edge cache"
    return None


def hit_property(r):
    edge = 1 - ratio(r["origin_requests"], r["requests"])
    if edge < 0.5:
        return f"only {edge:.1%} of requests served at the edge (need >= 50%)"
    if r["cache_evictions"] > 0.01 * r["cache_fills"]:
        return f"{r['cache_evictions']} evictions of {r['cache_fills']} fills (need <= 1%)"
    return None


def churn_property(r):
    hits = ratio(r["cache_hits"], r["requests"])
    if hits >= 0.01:
        return f"{hits:.2%} of requests hit (need < 1%)"
    if r["cache_evictions"] < 0.4 * r["cache_fills"]:
        return f"{r['cache_evictions']} evictions of {r['cache_fills']} fills (need >= 40%)"
    return None


WORKLOADS = {
    "fabric_http": ("fat_tree_http.scn", 1, fabric_property),
    "fabric_http_4shard": ("fat_tree_http.scn", SHARDED, fabric_property),
    "edge_cache_hit": ("edge_cache_hit.scn", 1, hit_property),
    "edge_cache_churn": ("edge_cache_churn.scn", 1, churn_property),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build -------------------------------------------------------------------

def build(build_dir):
    """Configures (once) and builds bench_e2e and bench_ref into build_dir."""
    if not (ROOT / "src" / "scenario" / "scenario.cpp").exists():
        sys.exit(f"error: simulator sources not found under {ROOT / 'src'}")
    build_dir.mkdir(parents=True, exist_ok=True)
    logf = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    # One target per step: a step that finds CMakeLists.txt changed
    # regenerates the build files, and only later steps see new targets.
    for target in ("bench_e2e", "bench_ref"):
        steps.append(["cmake", "--build", str(build_dir), "--target", target,
                      "-j", str(min(4, os.cpu_count() or 1))])
    with open(logf, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(logf.read_text()[-4000:])
                sys.exit(f"error: build failed: {' '.join(cmd)}")


def fingerprint(build_dir):
    cache = {}
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":")[0]] = value
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        compiler = subprocess.run([cxx, "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        compiler = cxx
    cpu = "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "compiler": compiler,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "")}


# --- one repetition ----------------------------------------------------------

def run_json(cmd):
    """Runs cmd; returns the JSON object on the last line of its stdout."""
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    r = json.loads(p.stdout.strip().splitlines()[-1])
    if p.returncode:
        raise ValueError(f"exit code {p.returncode}")
    return r


class Runner:
    def __init__(self, build_dir, release, duration=None):
        self.binary = build_dir / "bench_e2e"
        self.ref_binary = build_dir / "bench_ref"
        self.release = release
        self.duration = duration  # simulated seconds override (smoke)
        self.attempted = 0
        self.failed = 0

    def rep(self, workload, seed, shards=None, trace_path=None, reference=False):
        """Runs one fresh bench_e2e process, after one of bench_ref if
        `reference`; returns the parsed JSON line (with the reference's
        ref_ns_per_update), or a dict with an "error" key."""
        scn, default_shards, _ = WORKLOADS[workload]
        cmd = [str(self.binary), f"--scn={HERE / 'workloads' / scn}",
               f"--seed={seed}", f"--shards={shards or default_shards}"]
        if self.duration:
            cmd.append(f"--duration={self.duration}")
        if trace_path:
            cmd.append(f"--trace={trace_path}")
        self.attempted += 1
        try:
            ref = run_json([str(self.ref_binary)]) if reference else None
            if ref and ref["sum"] != ref["updates"] * (ref["updates"] - 1) // 2:
                raise ValueError(f"reference kernel sum {ref['sum']} is wrong")
            r = run_json(cmd)
        except (subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as e:
            self.failed += 1
            log(f"  {workload} seed {seed}: repetition failed: {e}")
            return {"error": str(e), "workload": workload, "seed": seed}
        if ref:
            r["ref_ns_per_update"] = ref["ns_per_update"]
        r["scn"] = scn
        r["workload"] = workload
        r["cache_lookups"] = r["cache_hits"] + r["cache_misses"]
        r["valid"] = self.release and r["run_delay_frac"] <= MAX_RUN_DELAY
        ref_note = f", reference {r['ref_ns_per_update']:.2f} ns/update" if ref else ""
        log(f"  {workload} seed {seed} shards {r['shards']}"
            f"{' traced' if trace_path else ''}: setup {r['setup_s']:.3f} s, "
            f"run {r['run_s']:.3f} s, {ratio(r['delivered_pkts'], r['run_s']):.4g} pkt/s"
            f"{ref_note}{'' if r['valid'] else ' (invalid)'}")
        return r


def measured(reps):
    """Valid successful repetitions; all successful ones if none is valid."""
    ok = [r for r in reps if "error" not in r]
    valid = [r for r in ok if r["valid"]]
    if ok and not valid:
        log("  warning: every repetition is invalid (run delay or build type); "
            "the estimates include them")
    return valid or ok


def med(reps, f):
    return statistics.median(f(r) for r in reps)


# --- metrics -----------------------------------------------------------------

UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# What one untraced repetition measures, and in which direction it is better.
PER_REP = {
    "setup_s": (lambda r: r["setup_s"], "lower"),
    "pkts_per_s": (lambda r: ratio(r["delivered_pkts"], r["run_s"]), "higher"),
    "cpu_ns_per_pkt": (lambda r: ratio(r["run_cpu_s"] * 1e9, r["delivered_pkts"]), "lower"),
    "peak_rss_mb": (lambda r: r["peak_rss_mb"], "lower"),
    "ref_ns_per_update": (lambda r: r["ref_ns_per_update"], "lower"),
}


def better_half(values, better):
    """Mean of the better half of a run's repetitions (the better two of
    three). The measuring host has slow episodes a few seconds long that
    make a repetition up to 1.6x slower and never faster; a median still
    moves with how many repetitions an episode hit, the mean of the better
    half does not."""
    ranked = sorted(values, reverse=better == "higher")
    return statistics.fmean(ranked[:(len(ranked) + 1) // 2])


def run_values(reps):
    """PER_REP's better-half means over the measured repetitions."""
    reps = measured(reps)
    return {k: better_half([f(r) for r in reps], b) for k, (f, b) in PER_REP.items()}


def end_to_end(reps):
    """The end-to-end metrics of one run of untraced repetitions.

    Throughput is measured in the reference kernel's time: one `upd` is the
    time bench_ref takes for one update, on the same host, just before each
    repetition. The host slows the simulator and the kernel together for
    minutes at a time, so the ratio stays steady where seconds do not."""
    v = run_values(reps)
    upd_ns = v["ref_ns_per_update"]
    return {
        "setup_s": v["setup_s"],
        "pkts_per_mupd": v["pkts_per_s"] * upd_ns * 1e-3,  # pkt/s x s per 10^6 upd
        "cpu_upd_per_pkt": v["cpu_ns_per_pkt"] / upd_ns,
        "peak_rss_mb": v["peak_rss_mb"],
    }


def raw_values(reps):
    """The run's throughput in seconds and the reference kernel's own speed,
    which end_to_end divides; reported per layer."""
    v = run_values(reps)
    return {"run.pkts_per_s": v["pkts_per_s"], "run.cpu_ns_per_pkt": v["cpu_ns_per_pkt"],
            "host.ref_ns_per_update": v["ref_ns_per_update"]}


def per_layer(shards, traced, plain, other, serial_traced):
    """Per-layer values of one traced pass. `traced`/`plain`: traced and
    untraced repetitions at the workload's shard count; `other`: untraced
    repetitions at the other shard count; `serial_traced`: traced serial
    repetitions (the event loop can only be sliced serially)."""
    traced, plain = measured(traced), measured(plain)
    other, serial_traced = measured(other), measured(serial_traced)
    t, s = traced[0], serial_traced[0]  # counts: equal digests, equal counts
    serial_run, sharded_run = (plain, other) if shards == 1 else (other, plain)
    return {
        "scenario.topology_s": med(traced, lambda r: r["topology_s"]),
        "scenario.workload_s": med(traced, lambda r: r["workload_s"]),
        "scenario.requests": t["requests"],
        "scenario.completed": t["completed"],
        "scenario.origin_frac": ratio(t["origin_requests"], t["requests"]),
        "scenario.timeout_frac": ratio(t["timeouts"], t["requests"]),
        "runtime.install_s": install_s(traced),
        "runtime.handled": t["asp_handled"],
        "runtime.passed": t["asp_passed"],
        "runtime.sent": t["asp_sent"],
        "runtime.errors": t["asp_errors"],
        "planp.cache.lookups": t["cache_lookups"],
        "planp.cache.hit_frac": ratio(t["cache_hits"], t["cache_lookups"]),
        "planp.cache.fills": t["cache_fills"],
        "planp.cache.evictions": t["cache_evictions"],
        "net.event.events": s["events"],
        "net.event.ns_per_event": med(serial_traced,
                                      lambda r: ratio(r["slices_s"] * 1e9, r["events"])),
        "net.event.pending_max": s["pending_max"],
        "net.event.slice_ms_p50": med(serial_traced, lambda r: r["slice_ms_p50"]),
        "net.event.slice_ms_p99": med(serial_traced, lambda r: r["slice_ms_p99"]),
        "net.medium.delivered_pkts": t["delivered_pkts"],
        "net.medium.delivered_bytes": t["delivered_bytes"],
        "net.medium.drop_frac": ratio(t["dropped_pkts"],
                                      t["delivered_pkts"] + t["dropped_pkts"]),
        "net.medium.pkts_per_event": ratio(s["delivered_pkts"], s["events"]),
        "net.node.rx_pkts": t["rx_pkts"],
        "net.node.route_cache_hit_frac": ratio(
            t["route_cache_hits"], t["route_cache_hits"] + t["route_cache_misses"]),
        "net.exec.partition_s": med(traced, lambda r: r["partition_s"]),
        "net.exec.islands": t["islands"],
        "net.exec.cpu_util": med(plain,
                                 lambda r: r["run_cpu_s"] / (r["run_s"] * r["shards"])),
        "net.exec.vol_csw_per_sim_ms": med(plain, lambda r: r["vol_csw"] / (r["sim_s"] * 1e3)),
        "net.exec.speedup": med(serial_run, lambda r: r["run_s"])
                            / med(sharded_run, lambda r: r["run_s"]),
        "mem.heap_allocs_per_pkt": med(traced,
                                       lambda r: ratio(r["heap_allocs"], r["delivered_pkts"])),
        "mem.pool_miss_frac": med(traced, lambda r: ratio(
            r["pool_misses"], r["pool_hits"] + r["pool_misses"])),
        "mem.spills": max(r["spills"] for r in traced + plain),
        "mem.remote_freed": t["remote_freed"],
        "trace.overhead": med(traced, lambda r: r["run_s"])
                          / med(plain, lambda r: r["run_s"]) - 1,
        "host.run_delay_frac": med(plain, lambda r: r["run_delay_frac"]),
        "host.invol_csw": med(plain, lambda r: r["invol_csw"]),
        **raw_values(plain),
    }


def install_s(traced):
    """Scenario constructor minus the separately timed topology and workload
    builds, on medians: the ASP installs (about 0 without ASPs; never below
    0). Medians first, because the per-repetition difference of two ~0.1 s
    timings is mostly noise."""
    return max(0.0, med(traced, lambda r: r["construct_s"])
               - med(traced, lambda r: r["topology_s"])
               - med(traced, lambda r: r["workload_s"]))


# --- output checks -----------------------------------------------------------

def load_golden():
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def check(reps, golden, full_length=True):
    """Output checks over repetitions of one or more workloads; returns a
    list of failure messages. Repetitions with the same inputs (.scn, seed)
    must report the same metrics digest at every shard count."""
    errors = [f"{r['workload']} seed {r['seed']}: {r['error']}"
              for r in reps if "error" in r]
    ok = [r for r in reps if "error" not in r]
    by_input = {}
    for r in ok:
        by_input.setdefault((r["scn"], r["seed"]), set()).add(r["digest"])
    for (scn, seed), digests in sorted(by_input.items()):
        if len(digests) > 1:
            errors.append(f"{scn} seed {seed}: metrics digest differs between "
                          f"repetitions or shard counts: {sorted(digests)}")
    for r in ok:
        w = r["workload"]
        if r["delivered_pkts"] == 0:
            errors.append(f"{w}: no packets delivered")
        if r["spills"] > 0:
            errors.append(f"{w}: {r['spills']:.0f} pool spills (must be 0)")
        if r["completed"] + r["timeouts"] > r["requests"] \
                or r["origin_requests"] > r["requests"]:
            errors.append(f"{w}: more completions or origin requests than requests")
        if r["timeouts"] > 0.01 * r["requests"]:
            errors.append(f"{w}: {r['timeouts']:.0f} of {r['requests']:.0f} requests "
                          "timed out (more than 1%)")
        if not full_length:
            continue  # goldens and workload properties hold at full length only
        want = golden.get(w, {}).get(str(r["seed"]))
        if want and r["digest"] != want:
            errors.append(f"{w} seed {r['seed']}: metrics digest {r['digest']} "
                          f"!= golden {want}")
        broken = WORKLOADS[w][2](r)
        if broken:
            errors.append(f"{w}: {broken}")
    return sorted(set(errors))


# --- runs --------------------------------------------------------------------

def repeat(seconds, least, once):
    """Calls once() at least `least` times, and again for as long as the
    longest call so far still fits in `seconds`; returns the results."""
    out, start, longest = [], time.monotonic(), 0.0
    while True:
        t0 = time.monotonic()
        out.append(once())
        longest = max(longest, time.monotonic() - t0)
        if len(out) >= least and time.monotonic() - start + longest > seconds:
            return out


def run_untraced(runner, workload, seed, seconds):
    """Untraced repetitions within `seconds` (at least MIN_REPS). A sharded
    workload adds one serial repetition of the same inputs, for the
    shard-count determinism check."""
    shards = WORKLOADS[workload][1]
    reps = repeat(seconds, MIN_REPS, lambda: runner.rep(workload, seed, reference=True))
    companions = [runner.rep(workload, seed, shards=1)] if shards > 1 else []
    return reps, companions


def run_traced(runner, workload, seed, seconds, trace_path):
    """The traced pass: (traced, untraced) pairs within `seconds` (at least
    one), then untraced repetitions at the other shard count (speedup), and
    for a sharded workload a traced serial repetition (event-loop ledger)."""
    shards = WORKLOADS[workload][1]
    other = 1 if shards > 1 else SHARDED
    pairs = repeat(seconds, 1, lambda: (runner.rep(workload, seed, trace_path=trace_path),
                                        runner.rep(workload, seed, reference=True)))
    traced, plain = [p[0] for p in pairs], [p[1] for p in pairs]
    others = [runner.rep(workload, seed, shards=other)]
    serial_traced = traced
    if shards > 1:
        serial_traced = [runner.rep(workload, seed, shards=1,
                                    trace_path=trace_path.with_name(
                                        trace_path.stem + "_serial.json"))]
    return traced, plain, others, serial_traced


def fmt(v):
    return f"{v:.6g}"


def print_workload(workload, reps, e2e, layers):
    """Every metric with its unit, then each per-repetition quantity the
    end-to-end metrics are built from as median [min, max]."""
    print(f"{workload}:")
    for name, v in {**e2e, **layers}.items():
        print(f"  {name:32s} {fmt(v):>12s} {UNITS[name]}")
    reps = measured(reps)
    for name, (f, _) in PER_REP.items():
        vals = [f(r) for r in reps]
        print(f"  per repetition {name:17s} median {fmt(statistics.median(vals))} "
              f"[{fmt(min(vals))}, {fmt(max(vals))}]")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--build-dir", type=Path, default=ROOT / ".bench_build" / "e2e")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--calibrate", action="store_true")
    mode.add_argument("--bless", action="store_true")
    mode.add_argument("--smoke", action="store_true")
    a = ap.parse_args()

    build_dir = a.build_dir.resolve()
    build(build_dir)
    host = fingerprint(build_dir)
    release = host["build_type"] == "Release"
    if not release:
        log(f"warning: build type '{host['build_type']}' is not Release; "
            "every repetition is marked invalid")
    if a.smoke:
        return smoke(Runner(build_dir, release, duration=0.02))
    runner = Runner(build_dir, release)
    if a.calibrate:
        return calibrate(runner)
    if a.bless:
        return bless(runner)
    if a.workload:
        return one_workload(runner, a, host)
    return all_workloads(runner, a, host)


def one_workload(runner, a, host):
    """The benchmark contract: one workload, one JSON line last."""
    w = a.workload
    if a.trace:
        trace_path = Path.cwd() / f"BENCH_e2e_trace_{w}.json"
        traced, plain, others, serial_traced = run_traced(
            runner, w, a.seed, a.seconds, trace_path)
        reps = traced + plain + others + serial_traced
        errors = check(reps, load_golden())
        if not all(map(measured, (traced, plain, others, serial_traced))):
            return fail(errors)
        values = per_layer(WORKLOADS[w][1], traced, plain, others, serial_traced)
    else:
        reps, companions = run_untraced(runner, w, a.seed, a.seconds)
        errors = check(reps + companions, load_golden())
        if not measured(reps):
            return fail(errors)
        values = end_to_end(reps)
        reps += companions
    for e in errors:
        log(f"CHECK FAILED: {e}")
    write_json(Path.cwd() / "BENCH_e2e.json",
               {"host": host, "workload": w, "seed": a.seed, "trace": a.trace,
                "errors": errors, "metrics": values, "repetitions": reps})
    print(json.dumps({
        "correct": not errors, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}}))
    return 0


def fail(errors):
    for e in errors:
        log(f"CHECK FAILED: {e}")
    log("error: no successful repetition to measure")
    return 1


def all_workloads(runner, a, host):
    """Every workload: REPS interleaved untraced repetitions, then one traced
    pass each. Exit code 1 when an output check fails."""
    reps = {w: [] for w in WORKLOADS}
    for i in range(REPS):
        log(f"round {i + 1}/{REPS}")
        for w in WORKLOADS:
            reps[w].append(runner.rep(w, a.seed, reference=True))
    report, all_reps = {"host": host, "seed": a.seed, "workloads": {}}, []
    for w in WORKLOADS:
        log(f"traced pass: {w}")
        traced = run_traced(runner, w, a.seed, 0, Path.cwd() / f"BENCH_e2e_trace_{w}.json")
        if not all(map(measured, (reps[w],) + traced)):
            return fail(check(reps[w] + [r for t in traced for r in t], load_golden()))
        e2e = end_to_end(reps[w])
        layers = per_layer(WORKLOADS[w][1], *traced)
        print_workload(w, reps[w], e2e, layers)
        report["workloads"][w] = {
            "end_to_end": e2e, "per_layer": layers,
            "repetitions": reps[w], "traced_pass": [r for t in traced for r in t]}
        all_reps += reps[w] + [r for t in traced for r in t]
    errors = check(all_reps, load_golden())
    report["errors"] = errors
    report["invalid_repetitions"] = sum(1 for r in all_reps if not r.get("valid"))
    write_json(Path.cwd() / "BENCH_e2e.json", report)
    print(f"host: {host}")
    for e in errors:
        print(f"CHECK FAILED: {e}")
    print("output checks: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


def calibrate(runner):
    """Ten runs of every workload exactly as the benchmark contract makes
    them (run_seconds each, seeds 1..10, workloads interleaved), and the
    spread over them of each end-to-end metric and of the un-normalized
    throughput and reference speed (raw_values) it is divided from."""
    seconds = SPEC["run_seconds"]
    runs = {w: [] for w in WORKLOADS}
    errors = []
    for seed in range(1, 11):
        for w in WORKLOADS:
            log(f"calibrate: {w} seed {seed}")
            reps, companions = run_untraced(runner, w, seed, seconds)
            errors += check(reps + companions, load_golden())
            runs[w].append({**end_to_end(reps), **raw_values(reps)})
    out = {"run_seconds": seconds, "workloads": {}, "suggested_bounds": {},
           "rule_not_met": []}
    for w, values in runs.items():
        out["workloads"][w] = {}
        for name in values[0]:
            vals = [v[name] for v in values]
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            out["workloads"][w][name] = {
                "values": vals, "median": q2, "q1": q1, "q3": q3,
                "min": min(vals), "max": max(vals), "rel_iqr": (q3 - q1) / q2}
    bounds = out["suggested_bounds"]
    for m in SPEC["end_to_end"]:
        name = m["name"]
        spread = max(out["workloads"][w][name]["rel_iqr"] for w in WORKLOADS)
        bound = max(BOUND_FLOOR, BOUND_SPREADS * spread)
        if name == "setup_s":
            floor = max(0.020 / out["workloads"][w][name]["median"] for w in WORKLOADS)
            bound = max(bound, floor)
        if bound > MAX_BOUND:
            out["rule_not_met"].append(name)
        bounds[name] = min(math.ceil(round(bound * 20, 6)) / 20, MAX_BOUND)
    bounds["setup_s"] = max(bounds.values())
    out["errors"] = sorted(set(errors))
    write_json(CALIBRATION, out)
    for w in WORKLOADS:
        for name, s in out["workloads"][w].items():
            print(f"{w:20s} {name:22s} median {fmt(s['median']):>10s} "
                  f"IQR/median {s['rel_iqr']:.4f}")
    print(f"suggested bounds: {bounds}")
    if out["rule_not_met"]:
        print(f"{BOUND_SPREADS}x relative IQR exceeds the {MAX_BOUND} cap for: "
              f"{', '.join(out['rule_not_met'])}")
    return 1 if errors else 0


def bless(runner):
    golden = {}
    for w in WORKLOADS:
        r = runner.rep(w, DEFAULT_SEED)
        if "error" in r:
            return 1
        golden[w] = {str(DEFAULT_SEED): r["digest"]}
    write_json(GOLDEN, golden)
    print(f"wrote {GOLDEN}")
    return 0


def smoke(runner):
    """Short traced and untraced runs of every workload: the metric names
    match BENCHMARK.json, the separately timed setup sub-phases agree with
    the constructor they split, and the output checks (except goldens and
    workload properties, which need full length) pass."""
    # The CPUs of a shared host can run the memory-bound setup at speeds tens
    # of percent apart. On one CPU, the child process that times the
    # sub-phases and the constructor it is compared with run alike.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    errors = []
    for w in WORKLOADS:
        reps, companions = run_untraced(runner, w, DEFAULT_SEED, 0)
        trace_path = Path.cwd() / f"BENCH_e2e_trace_{w}.json"
        traced = run_traced(runner, w, DEFAULT_SEED, SMOKE_TRACED_S, trace_path)
        errors += check(reps + companions + [r for t in traced for r in t],
                        {}, full_length=False)
        if not all(map(measured, (reps,) + traced)):
            errors.append(f"{w}: no successful repetition")
            continue
        emitted = set(end_to_end(reps)) | set(per_layer(WORKLOADS[w][1], *traced))
        named = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
        if emitted != named:
            errors.append(f"{w}: emitted metrics differ from BENCHMARK.json: "
                          f"{sorted(emitted ^ named)}")
        # Topology and workload are timed on a scratch copy, apart from the
        # real constructor. Without ASPs they are all the constructor does;
        # with ASPs the installs are the remainder (runtime.install_s), so
        # the parts may only not exceed the whole.
        share = med(measured(traced[0]),
                    lambda r: (r["topology_s"] + r["workload_s"]) / r["construct_s"])
        if WORKLOADS[w][0] == "fat_tree_http.scn":  # installs no ASP
            if abs(share - 1) > 0.1:
                errors.append(f"{w}: topology + workload take {share:.3f} of the "
                              "constructor's time (over 10% from 1)")
        elif share > 1.1:
            errors.append(f"{w}: topology + workload take {share:.3f} of the "
                          "whole constructor's time (over 1.1)")
    for e in errors:
        print(f"SMOKE FAILED: {e}")
    print("smoke: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2, sort_keys=False) + "\n")


if __name__ == "__main__":
    sys.exit(main())
