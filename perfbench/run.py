#!/usr/bin/env python3
"""esamr benchmark: four workloads, end-to-end metrics, and a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the repository root. The first call builds the library and the
measurement program (perfbench/CMakeLists.txt) into .bench_build/. Every
workload runs P = 4 rank threads in one process as a closed loop.

--trace 0 runs the workload for S seconds and prints the end-to-end metrics.
--trace 1 spends the same S seconds on an untraced run, a traced run (spans
around every call into forest, sfem, resil and par), a P = 1 run, a
STREAM-triad / multiply-add probe and a solver probe (one Fig. 7 mantle solve,
the only solver user), prints the layer table and the per-layer metrics, and
writes a Chrome trace (load it in Perfetto) under .bench_build/results/.

Timing metrics leave out loops during which the hypervisor stole more than 2%
of the VM's CPU (every loop counts when none is clean); a run with fewer than
three clean loops may take up to 1.5 S. Correctness checks count in every loop.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit status is 0 only when every
correctness check passed. Self-tests:
    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics as M  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "esamr_perfbench")
RANKS = 4
WORKLOADS = ("fractal_build", "front_adapt", "advect_shell")
# Loop length of the P = 1 baseline (steps), short enough to fit its budget.
P1_STEPS = {"fractal_build": 2, "front_adapt": 40, "advect_shell": 32}
# The mantle solve is the only solver user but too sensitive to the VM's
# synchronisation latency to gate on (one solve took 1.05-1.93 s across ten
# runs of an hour), so it is a per-layer probe of every traced run.
SOLVER_PROBE = "mantle_annulus"
ADVECT_DEGREE = 3
RK_STAGES = 5

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("step_p50_s", "s"), ("adapt_p50_s", "s"),
    ("core_s", "s"), ("peak_rss_mb", "MB"), ("pass_frac", "frac"),
]


def per_layer_spec():
    """Every per-layer metric name with its unit, in print order."""
    spec = []
    for phase in M.FOREST_PHASES:
        spec += [("forest.%s.%s" % (phase, f), u) for f, u in M.PHASE_FIELDS]
    spec += [
        ("forest.octants", "count"), ("forest.balance.s_per_Moct", "s/Moct"),
        ("forest.nodes.s_per_Moct", "s/Moct"), ("forest.balance.octants_sent", "count"),
        ("forest.balance.exchange_rounds", "count"), ("forest.balance.keep_ratio", "ratio"),
        ("forest.nodes.requests_sent", "count"), ("forest.nodes.rounds", "count"),
        ("forest.ghost.octants_sent", "count"), ("forest.incr.delta_octants", "count"),
        ("forest.incr.reuse_ratio", "ratio"), ("forest.incr.nodes_reused", "count"),
        ("forest.incr.nodes_patched", "count"), ("forest.nodes.busy_share", "ratio"),
        ("forest.incr.busy_share", "ratio"),
    ]
    for phase in M.SFEM_PHASES:
        spec += [("sfem.%s.%s" % (phase, f), u) for f, u in M.PHASE_FIELDS]
    spec += [
        ("sfem.step.elem_stages_per_s", "1/s"), ("sfem.step.flops_computed", "flop"),
        ("sfem.step.bytes_computed", "B"), ("sfem.step.flop_per_byte", "flop/B"),
        ("sfem.step.roofline_frac", "ratio"), ("sfem.step.busy_share", "ratio"),
        ("solver.minres.iters", "count"), ("solver.solve.busy_s", "s"),
        ("solver.vcycle.busy_s", "s"), ("solver.iter_busy_s", "s"),
        ("apps.mantle.amr.busy_s", "s"), ("solver.busy_share", "ratio"),
        ("par.msgs", "count"), ("par.bytes", "B"), ("par.wait_s", "s"),
        ("par.coll_calls", "count"), ("par.bytes_verified", "B"), ("par.retransmits", "count"),
        ("par.buffer.copies", "count"), ("par.buffer.zero_copy_takes", "count"),
        ("resil.full.write_s", "s"), ("resil.full.bytes", "B"), ("resil.delta.write_s", "s"),
        ("resil.delta.bytes", "B"), ("resil.delta.MBps", "MB/s"), ("resil.delta_ratio", "ratio"),
        ("resil.restore_s", "s"), ("resil.disk_retries", "count"),
        ("trace.overhead_frac", "ratio"), ("scale.speedup_p1", "ratio"),
        ("machine.triad_GBps", "GB/s"), ("machine.fma_GFlops", "GFlop/s"),
        ("machine.triad_array_MiB", "MiB"), ("machine.llc_MiB", "MiB"),
        ("machine.steal_frac", "ratio"),
        ("run.steps", "count"), ("run.step_p90_s", "s"), ("run.step.busy_s", "s"),
        ("run.step.self_s", "s"),
    ]
    return spec


PER_LAYER = per_layer_spec()


class StrictParser(argparse.ArgumentParser):
    """argparse that treats --help like any other bad argument: usage, exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        sys.exit(2)


def parse_args(argv):
    p = StrictParser(prog="perfbench/run.py", add_help=False, allow_abbrev=False,
                     description="esamr benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not 0 < args.seconds <= 600:
        p.error("--seconds must be in (0, 600]")
    if args.workload == "all" and args.trace:
        p.error("--workload all runs with --trace 0 only")
    return args


def log(msg):
    sys.stderr.write(msg + "\n")
    sys.stderr.flush()


def build():
    """Configure (once) and build esamr_perfbench; raises on failure."""
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target", "esamr_perfbench"],
                   check=True, stdout=sys.stderr)


def invoke(args):
    """Run esamr_perfbench and return its JSON report."""
    proc = subprocess.run([BINARY] + [str(a) for a in args], stdout=subprocess.PIPE, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError("esamr_perfbench %s exited with %d" % (" ".join(map(str, args)),
                                                                proc.returncode))
    return json.loads(proc.stdout)


def run_workload(workload, seed, seconds, trace, ranks=RANKS, min_loops=1, loop_steps=None):
    out_dir = os.path.join(BUILD, "run-out")
    os.makedirs(out_dir, exist_ok=True)
    args = ["--workload", workload, "--seed", seed, "--seconds", seconds, "--ranks", ranks,
            "--trace", trace, "--min-loops", min_loops, "--out-dir", out_dir]
    if loop_steps:
        args += ["--loop-steps", loop_steps]
    return invoke(args)


def source_digest():
    """sha256 over the library and benchmark sources (the checkout may lack git)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint(raw):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, idx, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(base, idx, "type")) as f:
                kind = f.read().strip()
            with open(os.path.join(base, idx, "size")) as f:
                caches["L%s%s" % (level, {"Data": "d", "Instruction": "i"}.get(kind, ""))] = \
                    f.read().strip()
        except OSError:
            continue
    try:
        sha = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL).stdout.strip()
    except OSError:
        sha = ""
    return {"cpu": cpu, "nproc": os.cpu_count(), "caches": caches,
            "compiler": raw["build"]["compiler"], "build_type": raw["build"]["build_type"],
            "git_sha": sha or "none", "source_sha256": source_digest()}


def end_to_end(raw):
    checks = raw["checks"]
    raw = M.clean_loops(raw)
    passed = checks["attempted"] - checks["failed"]
    return {
        "setup_s": M.median(raw["setup_s"]),
        "wall_s": M.median(raw["loop_wall_s"]),
        "step_p50_s": M.median(raw["step_s"]),
        "adapt_p50_s": M.median(raw["adapt_s"]),
        "core_s": M.median(raw["loop_core_s"]),
        "peak_rss_mb": M.median(raw["peak_rss_kb"]) / 1024.0,
        "pass_frac": passed / checks["attempted"] if checks["attempted"] else 0.0,
    }


def per_layer(workload, untraced, traced, p1, probe, solver):
    """Per-layer metrics from the three sub-runs and the machine and solver
    probes."""
    steal = M.median(untraced["loop_steal_frac"] + traced["loop_steal_frac"])
    untraced, traced, p1 = (M.clean_loops(r) for r in (untraced, traced, p1))
    spans = M.parse_spans(traced)
    names = ["forest." + p for p in M.FOREST_PHASES] + ["sfem." + p for p in M.SFEM_PHASES] + \
        ["resil.delta", "step", "adapt"]
    table = M.phase_table(spans, names)
    out = {}
    for name in names[:len(M.FOREST_PHASES) + len(M.SFEM_PHASES)]:
        row = table[name]
        for field, _ in M.PHASE_FIELDS:
            out["%s.%s" % (name, field)] = row[field]

    # A workload runs either the full or the incremental form of a phase, so
    # summing over both forms yields the value of the one that ran.
    def ops_total(field, *phases):
        return sum(table[p]["ops_total"].get(field, 0.0) for p in phases)

    def ops_median(field, *phases):
        return sum(table[p]["ops"].get(field, 0.0) for p in phases)

    octants = M.sample0_median(traced, "octants") or M.sample0_median(traced, "elements")
    mocts_per_rank = octants / RANKS / 1e6 if octants else 0.0
    balance = ("forest.balance", "forest.balance_incr")
    nodes = ("forest.nodes", "forest.nodes_incr")
    ghost = ("forest.ghost", "forest.ghost_incr")
    incr = ("forest.balance_incr", "forest.ghost_incr", "forest.nodes_incr")
    step_busy = table["step"]["busy_total"] + table["adapt"]["busy_total"]
    seed_oct = ops_total("balance_seed_octants", *balance)
    reused = ops_total("nodes_reused", *nodes)
    patched = ops_total("nodes_patched", *nodes)
    out.update({
        "forest.octants": octants,
        "forest.balance.s_per_Moct":
            out["forest.balance.busy_s"] / mocts_per_rank if mocts_per_rank else 0.0,
        "forest.nodes.s_per_Moct":
            out["forest.nodes.busy_s"] / mocts_per_rank if mocts_per_rank else 0.0,
        "forest.balance.octants_sent": ops_median("balance_octants_sent", *balance),
        "forest.balance.exchange_rounds": ops_median("balance_exchange_rounds", *balance),
        "forest.balance.keep_ratio":
            ops_total("balance_closure_kept", *balance) / seed_oct if seed_oct else 0.0,
        "forest.nodes.requests_sent": ops_median("nodes_requests_sent", *nodes),
        "forest.nodes.rounds": ops_median("nodes_rounds", *nodes),
        "forest.ghost.octants_sent": ops_median("ghost_octants_sent", *ghost),
        "forest.incr.delta_octants": ops_median("delta_octants", *incr),
        "forest.incr.reuse_ratio": reused / (reused + patched) if reused + patched else 0.0,
        "forest.incr.nodes_reused": ops_median("nodes_reused", *nodes),
        "forest.incr.nodes_patched": ops_median("nodes_patched", *nodes),
        "forest.nodes.busy_share":
            table["forest.nodes"]["busy_total"] / step_busy if step_busy else 0.0,
        "forest.incr.busy_share":
            sum(table[p]["busy_total"] for p in incr) / step_busy if step_busy else 0.0,
    })

    # sfem: rates from the untraced run, counts by hand (computed, not measured).
    step_p50 = M.median(untraced["step_s"])
    elements = M.sample0_median(untraced, "elements") if workload == "advect_shell" else 0.0
    flops_el, bytes_el = M.advect_computed(ADVECT_DEGREE)
    flops = elements * RK_STAGES * flops_el
    nbytes = elements * RK_STAGES * bytes_el
    fpb = flops / nbytes if nbytes else 0.0
    peak = min(probe["fma_GFlops"], probe["triad_GBps"] * fpb) * 1e9
    out.update({
        "sfem.step.elem_stages_per_s": elements * RK_STAGES / step_p50 if elements else 0.0,
        "sfem.step.flops_computed": flops,
        "sfem.step.bytes_computed": nbytes,
        "sfem.step.flop_per_byte": fpb,
        "sfem.step.roofline_frac": flops / step_p50 / peak if flops and peak else 0.0,
        "sfem.step.busy_share":
            table["sfem.step"]["busy_total"] / step_busy if step_busy else 0.0,
    })

    # solver: MantleSimulation accessors sampled around run() in the probe.
    iters = M.sample0_median(solver, "solver.minres.iters")
    solve = M.samples_median_max(solver, "solver.solve.busy_s")
    vcycle = M.samples_median_max(solver, "solver.vcycle.busy_s")
    solver_sum = sum(sum(v) for k in ("solver.solve.busy_s", "solver.vcycle.busy_s")
                     for v in solver["samples"].get(k, []))
    run_busy = M.phase_table(M.parse_spans(solver), ["apps.mantle.run"])[
        "apps.mantle.run"]["busy_total"]
    out.update({
        "solver.minres.iters": iters,
        "solver.solve.busy_s": solve,
        "solver.vcycle.busy_s": vcycle,
        "solver.iter_busy_s": (solve + vcycle) / iters if iters else 0.0,
        "apps.mantle.amr.busy_s": M.samples_median_max(solver, "apps.mantle.amr.busy_s"),
        "solver.busy_share": solver_sum / run_busy if run_busy else 0.0,
    })

    # par: whole timed loop of the untraced run, per loop.
    comm = untraced["comm"]
    loops = len(untraced["loop_wall_s"])
    out.update({
        "par.msgs": comm["msgs"] / loops, "par.bytes": comm["bytes"] / loops,
        "par.wait_s": comm["wait_s"] / loops, "par.coll_calls": comm["coll_calls"] / loops,
        "par.bytes_verified": comm["bytes_verified"] / loops,
        "par.retransmits": comm["retransmits"] / loops,
        "par.buffer.copies": comm["buffer_copies"] / loops,
        "par.buffer.zero_copy_takes": comm["buffer_zero_copy_takes"] / loops,
    })

    # resil (front_adapt): delta checkpoints are spans, the rest samples.
    delta_write = table["resil.delta"]["wall_s"]
    delta_bytes = ops_median("ckpt_delta_bytes", "resil.delta")
    full_bytes = M.sample0_median(traced, "resil.full.bytes")
    out.update({
        "resil.full.write_s": M.samples_median_max(traced, "resil.full.write_s"),
        "resil.full.bytes": full_bytes,
        "resil.delta.write_s": delta_write,
        "resil.delta.bytes": delta_bytes,
        "resil.delta.MBps": delta_bytes / delta_write / 1e6 if delta_write else 0.0,
        "resil.delta_ratio": delta_bytes / full_bytes if full_bytes else 0.0,
        "resil.restore_s": M.samples_median_max(traced, "resil.restore_s"),
        "resil.disk_retries": sum(traced["samples"].get("resil.disk_retries", [[0]])[0]),
    })

    wall_untraced = M.median(untraced["loop_wall_s"])
    tail = M.tail_percentile(untraced["step_s"])
    out.update({
        "trace.overhead_frac": M.median(traced["loop_wall_s"]) / wall_untraced - 1.0,
        "scale.speedup_p1": M.median(p1["step_s"]) / step_p50,
        "machine.triad_GBps": probe["triad_GBps"],
        "machine.fma_GFlops": probe["fma_GFlops"],
        "machine.triad_array_MiB": probe["array_bytes"] / 2.0 ** 20,
        "machine.llc_MiB": probe["llc_bytes"] / 2.0 ** 20,
        "machine.steal_frac": steal,
        "run.steps": len(untraced["step_s"]),
        "run.step_p90_s": tail if tail is not None else 0.0,
        "run.step.busy_s": table["step"]["busy_s"],
        "run.step.self_s": M.median(M.root_self_times(spans)),
    })
    return out, table, spans


def print_layer_table(table, workload):
    print("layer table (%s, traced run): per-step medians; busy = max over ranks, "
          "wait/msgs/bytes = sum over ranks" % workload)
    print("  %-22s %7s %11s %11s %10s %12s %9s" % ("span", "calls", "busy_s", "wait_s", "msgs",
                                                   "bytes", "share"))
    total = table["step"]["busy_total"] + table["adapt"]["busy_total"]
    for name, row in table.items():
        if not row["calls"]:
            continue
        share = row["busy_total"] / total if total else 0.0
        print("  %-22s %7d %11.6f %11.6f %10.0f %12.0f %8.1f%%" % (
            name, row["calls"], row["busy_s"], row["wait_s"], row["msgs"], row["bytes"],
            100.0 * share))


def result_line(correct, attempted, failed, values, spec):
    return json.dumps({
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in spec},
    })


def save(name, payload):
    path = os.path.join(BUILD, "results", name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(payload, f)
    return os.path.relpath(path, ROOT)


def checks_of(*raws):
    attempted = sum(r["checks"]["attempted"] for r in raws)
    failed = sum(r["checks"]["failed"] for r in raws)
    for r in raws:
        for why in r["checks"]["failures"]:
            log("CHECK FAILED: " + why)
    return attempted, failed


def main_untraced(workloads, seed, seconds):
    rows = {}
    raws = []
    for w in workloads:
        raw = run_workload(w, seed, seconds, 0, min_loops=3)
        raws.append(raw)
        rows[w] = end_to_end(raw)
        view = M.clean_loops(raw)
        print("%s seed=%d inputs: %s" % (w, seed, raw["inputs"]))
        print("  steps=%d adapts=%d loops=%d of %d (the rest lost >2%% CPU to steal)" % (
            len(view["step_s"]), len(view["adapt_s"]), len(view["loop_wall_s"]),
            len(raw["loop_wall_s"])))
        for name, unit in END_TO_END:
            print("  %-12s %14.6g %s" % (name, rows[w][name], unit))
        tail = M.tail_percentile(view["step_s"])
        if tail is not None:
            print("  step_p90_s   %14.6g s (n=%d)" % (tail, len(view["step_s"])))
    attempted, failed = checks_of(*raws)
    fp = fingerprint(raws[0])
    print("fingerprint: " + json.dumps(fp))
    if len(workloads) == 1:
        values, spec = rows[workloads[0]], END_TO_END
    else:
        values = {"%s.%s" % (w, n): rows[w][n] for w in workloads for n, _ in END_TO_END}
        spec = [("%s.%s" % (w, n), u) for w in workloads for n, u in END_TO_END]
    save("%s-seed%d-trace0.json" % ("all" if len(workloads) > 1 else workloads[0], seed),
         {"seed": seed, "fingerprint": fp, "metrics": values})
    print(result_line(failed == 0, attempted, failed, values, spec))
    return 0 if failed == 0 else 1


def main_traced(workload, seed, seconds):
    untraced = run_workload(workload, seed, 0.35 * seconds, 0)
    traced = run_workload(workload, seed, 0.35 * seconds, 1)
    p1 = run_workload(workload, seed, 0.15 * seconds, 0, ranks=1, loop_steps=P1_STEPS[workload])
    probe = invoke(["--probe", "--ranks", RANKS])
    solver = run_workload(SOLVER_PROBE, seed, 0, 1)
    print("%s seed=%d inputs: %s" % (workload, seed, traced["inputs"]))
    print("probe: triad %.2f GB/s, multiply-add %.2f GFlop/s on %d threads; triad arrays "
          "%.0f MiB each, last-level cache %.0f MiB" % (
              probe["triad_GBps"], probe["fma_GFlops"], RANKS, probe["array_bytes"] / 2 ** 20,
              probe["llc_bytes"] / 2 ** 20))
    print("solver probe: %s, %d MINRES iterations" % (
        solver["inputs"], M.sample0_median(solver, "solver.minres.iters")))
    values, table, spans = per_layer(workload, untraced, traced, p1, probe, solver)
    print_layer_table(table, workload)
    trace_path = save("trace-%s-seed%d.json" % (workload, seed),
                      M.chrome_trace(spans, workload, seed))
    print("chrome trace: %s (%d spans)" % (trace_path, len(spans)))
    attempted, failed = checks_of(untraced, traced, p1, solver)
    fp = fingerprint(traced)
    print("fingerprint: " + json.dumps(fp))
    for name, unit in PER_LAYER:
        print("  %-34s %16.6g %s" % (name, values[name], unit))
    save("%s-seed%d-trace1.json" % (workload, seed),
         {"seed": seed, "fingerprint": fp, "metrics": values})
    print(result_line(failed == 0, attempted, failed, values, PER_LAYER))
    return 0 if failed == 0 else 1


def main(argv):
    args = parse_args(argv)
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        log("perfbench: build failed: %s" % e)
        return 1
    try:
        if args.trace:
            return main_traced(args.workload, args.seed, args.seconds)
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        return main_untraced(workloads, args.seed, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        log("perfbench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
