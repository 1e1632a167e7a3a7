#!/usr/bin/env python3
"""Seeded benchmark of the optimal task-graph scheduler.

    python3 perfbench/run.py --workload heavy_serial --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --make-references

Run from the repository root. The first run builds the solver and the
timing harness (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). Every input is generated from --seed; the
harness times the calls into the solver's layers and this script checks
every output against the committed reference optima, derives the metrics
and prints them as the last line of standard output. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import perfbench as pb  # noqa: E402

WORKLOADS = ["heavy_serial", "heavy_ws2", "heavy_dist2", "serve_mix"]
REFERENCES = HERE / "references.json"
HARNESS_TIMEOUT_S = 170
HEAVY_SETUP_REPS = 21      # in-process materializations (layer metric)
HEAVY_SETUP_PROCS = 31     # set-up processes timed for setup_s
SERVE_SETUP_REPS = 31
SOLVE_MEMORY_MB = 3072      # per-solve search-memory cap: a breach fails
SOLVE_BUDGET_MS = 60000     # per-solve time cap: a breach fails

# Reference generation (--make-references).
HEAVY_CANDIDATES = 500      # scenario seeds tried for the heavy pool
HEAVY_BAND = (150000, 450000)  # serial A* expansions kept in the pool
SERVE_POOL = 1000           # scenario seeds per serve class


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    """Configure (once) and build the harness and the CLI; exits on error."""
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target",
                  "perfbench_harness", "optsched_cli", "-j", jobs])
    with open(bdir / "build.log", "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log("build failed: %s (see %s)" % (" ".join(cmd),
                                                   bdir / "build.log"))
                sys.exit(1)
    return bdir / "perfbench_harness", bdir / "optsched" / "examples" / "optsched_cli"


def run_harness(harness, mode, job, rundir):
    """Run one harness job in its own process group; returns its records."""
    rundir.mkdir(parents=True, exist_ok=True)
    job_path, out_path = rundir / (mode + ".job.json"), rundir / (mode + ".out.jsonl")
    job_path.write_text(json.dumps(job))
    proc = subprocess.Popen([str(harness), mode, str(job_path), str(out_path)],
                            cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        rc = proc.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("harness %s timed out after %d s" % (mode, HARNESS_TIMEOUT_S))
        sys.exit(1)
    if rc != 0:
        log("harness %s exited with %d" % (mode, rc))
        sys.exit(1)
    return pb.load_json_lines(out_path)


def time_setup(harness, job, rundir, reps):
    """Wall time of `reps` fresh harness processes that do only the set-up
    a solve needs (process start, registry, materialization)."""
    rundir.mkdir(parents=True, exist_ok=True)
    job_path = rundir / "setup.job.json"
    job_path.write_text(json.dumps(job))
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        rc = subprocess.run([str(harness), "setup", str(job_path), os.devnull],
                            cwd=ROOT, timeout=60).returncode
        out.append({"kind": "process_setup", "s": time.perf_counter() - t0})
        if rc != 0:
            log("harness setup exited with %d" % rc)
            sys.exit(1)
    return out


def solve_references(harness, specs, rundir, max_expansions=0, threads=2):
    """Serial A* on each spec: {spec: record} (no timing is kept)."""
    job = {"engine": "astar", "specs": specs, "threads": threads,
           "max_expansions": max_expansions, "memory_mb": SOLVE_MEMORY_MB}
    return {specs[r["i"]]: r for r in run_harness(harness, "reference", job, rundir)}


def ensure_references(harness, specs, table, rundir):
    """Compute optima missing from the committed table before timing."""
    missing = [s for s in dict.fromkeys(specs) if s not in table]
    if not missing:
        return
    log("computing %d reference optima before timing" % len(missing))
    for spec, r in solve_references(harness, missing, rundir).items():
        if r.get("termination") != "optimal" or not r.get("valid"):
            log("reference solve failed for %s: %s" % (spec, r.get("error")))
            sys.exit(1)
        table[spec] = (r["makespan"], r["stats"]["expanded"])


def make_references(harness, rundir):
    candidates = [pb.heavy_spec(s) for s in range(1, HEAVY_CANDIDATES + 1)]
    heavy = solve_references(harness, candidates, rundir,
                             max_expansions=HEAVY_BAND[1] + 1)
    pool = []
    for s in range(1, HEAVY_CANDIDATES + 1):
        r = heavy[pb.heavy_spec(s)]
        if r.get("termination") == "optimal" and r.get("valid") and \
                HEAVY_BAND[0] <= r["stats"]["expanded"] <= HEAVY_BAND[1]:
            pool.append([s, r["makespan"], r["stats"]["expanded"],
                         r["stats"]["generated"]])
    startup = solve_references(harness, [pb.STARTUP_SPEC], rundir)[pb.STARTUP_SPEC]
    serve = {}
    for cls, _ in pb.SERVE_CLASSES:
        specs = [pb.serve_spec(cls, s) for s in range(1, SERVE_POOL + 1)]
        got = solve_references(harness, specs, rundir)
        rows = []
        for spec in specs:
            r = got[spec]
            if r.get("termination") != "optimal" or not r.get("valid"):
                log("reference solve failed for %s" % spec)
                sys.exit(1)
            rows.append([r["makespan"], r["stats"]["expanded"]])
        serve[cls] = rows
    doc = {
        "about": "Serial A* optima and expansion counts. heavy.pool rows are "
                 "[scenario_seed, optimum, expanded, generated] for '%s' seeds 1..%d "
                 "whose expansions lie in heavy.band; serve.pool[class][i] "
                 "is [optimum, expanded] of scenario seed i+1; startup is the "
                 "trivial instance timed for dist.startup_s. Regenerate "
                 "with: python3 perfbench/run.py --make-references"
                 % (pb.HEAVY_FAMILY, HEAVY_CANDIDATES),
        "heavy": {"family": pb.HEAVY_FAMILY, "band": list(HEAVY_BAND),
                  "pool": pool},
        "serve": {"classes": dict(pb.SERVE_CLASSES), "pool": serve},
        "startup": {"spec": pb.STARTUP_SPEC,
                    "ref": [startup["makespan"], startup["stats"]["expanded"]]},
    }
    with open(REFERENCES, "w") as f:
        json.dump(doc, f, separators=(",", ":"))
        f.write("\n")
    log("wrote %s: %d heavy, %d serve instances"
        % (REFERENCES, len(pool), SERVE_POOL * len(serve)))


def cpu_times():
    """Aggregate jiffies from /proc/stat (user .. steal), or None."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_frac(before, after):
    """Share of CPU time the hypervisor gave to other guests in between:
    the main source of run-to-run noise on a shared virtual machine."""
    if not before or not after:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return pb.ratio(delta[7], sum(delta))


def host_block(bdir):
    def first_line(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT).stdout.splitlines()[0].strip()
        except (OSError, IndexError):
            return None

    cache = {}
    for line in (bdir / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and ":" in line.split("=")[0]:
            key, value = line.split("=", 1)
            cache[key.split(":")[0]] = value
    cpu, ram = None, None
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        for line in open("/proc/meminfo"):
            if line.startswith("MemTotal"):
                ram = round(int(line.split()[1]) / (1 << 20), 1)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")) + [ROOT / "examples" / "optsched_cli.cpp"]:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    host = {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "ram_gb": ram,
        "compiler": first_line([cache.get("CMAKE_CXX_COMPILER", "c++"), "--version"]),
        "build_type": build_type,
        "release": build_type == "Release",
        "git_sha": first_line(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None,
        "source_sha256": digest.hexdigest(),
    }
    if not host["release"]:
        log("WARNING: build type is %r, not Release; timings are not comparable"
            % build_type)
    return host


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--make-references", action="store_true",
                    help="regenerate perfbench/references.json")
    args = ap.parse_args()
    if not args.make_references and not args.workload:
        ap.error("--workload is required")

    bdir = build_dir()
    harness, cli = build(bdir)
    rundir = bdir / "run"
    if args.make_references:
        make_references(harness, rundir)
        return 0

    host = host_block(bdir)
    refs_doc = json.loads(REFERENCES.read_text())
    table = pb.reference_table(refs_doc)
    w = args.workload
    trace = bool(args.trace)
    cpu_before = cpu_times()

    if w == "serve_mix":
        specs, stream = pb.serve_stream(args.seed, refs_doc["serve"]["pool"])
        ensure_references(harness, specs, table, rundir)
        job = {"cli": str(cli), "socket": os.path.relpath(rundir / "d.sock", ROOT),
               "workers": 1, "clients": 1, "engines": pb.SERVE_ENGINES,
               "specs": specs, "stream": stream, "seconds": args.seconds,
               "trace": trace, "setup_reps": SERVE_SETUP_REPS,
               "cpus_per_pass": pb.CPUS_PER_PASS[w]}
        recs = pb.by_kind(run_harness(harness, "serve", job, rundir))
        for r in recs["request"]:
            r["spec"] = specs[stream[r["k"]][0]]
            r["engine"] = pb.SERVE_ENGINES[stream[r["k"]][1]]
        e2e, attempted, failed = pb.serve_end_to_end(recs, table)
    else:
        engine = pb.HEAVY_ENGINES[w]
        specs = pb.heavy_corpus(args.seed, refs_doc["heavy"]["pool"])
        ensure_references(harness, specs, table, rundir)
        job = {"engine": engine, "specs": specs, "seconds": args.seconds,
               "trace": trace, "setup_reps": HEAVY_SETUP_REPS,
               "memory_mb": SOLVE_MEMORY_MB, "budget_ms": SOLVE_BUDGET_MS,
               "cpus_per_pass": pb.CPUS_PER_PASS[w]}
        if w == "heavy_dist2":
            job.update({"startup_spec": pb.STARTUP_SPEC, "startup_reps": 7})
        setup = time_setup(harness, job, rundir, HEAVY_SETUP_PROCS)
        recs = pb.by_kind(run_harness(harness, "heavy", job, rundir) + setup)
        for r in recs["solve"]:
            r["spec"] = specs[r["i"]]
        for r in recs["startup"]:
            r["spec"] = pb.STARTUP_SPEC
        e2e, attempted, failed = pb.heavy_end_to_end(recs, table, engine)

    host["steal_frac"] = steal_frac(cpu_before, cpu_times())
    if trace:
        spans = recs["span"]
        metrics = pb.metric_block(pb.layer_metrics(w, recs, table, spans),
                                  pb.PER_LAYER_UNITS)
        trace_path = bdir / "traces" / ("%s-seed%d.json" % (w, args.seed))
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps({
            "workload": w, "seed": args.seed, "self_time_s": pb.self_times(spans),
            "spans": spans}))
    else:
        metrics = pb.metric_block(e2e, pb.UNITS)

    for why in failed[:20]:
        log("FAILED: " + why)
    print(json.dumps({"host": host, "workload": w, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace}))
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
