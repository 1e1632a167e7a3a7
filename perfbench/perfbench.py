"""Testable logic of the seeded benchmark: input generation, reference
checks, statistics and metric derivation. run.py is the command."""

import json
import math
import statistics
from collections import defaultdict

MASK64 = (1 << 64) - 1


class Rng:
    """splitmix64: a fixed, documented generator, so a seed gives the same
    inputs on every Python version."""

    def __init__(self, seed):
        self.state = seed & MASK64

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n):
        return self.next() % n

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def workload_rng(seed, workload):
    """Independent stream per (seed, workload): mix the name into the seed."""
    h = 0xCBF29CE484222325
    for byte in workload.encode():
        h = ((h ^ byte) * 0x100000001B3) & MASK64
    return Rng(seed ^ h)


# --- inputs -----------------------------------------------------------------

HEAVY_FAMILY = "family=random nodes=12 ccr=1 machine=clique:3"
HEAVY_CORPUS = 10

HEAVY_ENGINES = {
    "heavy_serial": "astar",
    "heavy_ws2": "parallel:mode=ws:ppes=2",
    "heavy_dist2": "parallel:mode=dist:procs=2",
}
# CPUs each pass runs on (0: all); every pass moves on by one CPU. serve
# shares one CPU between the harness and the daemon: a round trip then
# hands over between processes on that CPU instead of waking an idle
# one, which on a virtual machine costs more, and varies more, than the
# request itself.
CPUS_PER_PASS = {"heavy_serial": 1, "heavy_ws2": 2, "heavy_dist2": 3,
                 "serve_mix": 1}
# Trivial instance whose solve time is the engine's fixed start-up cost.
STARTUP_SPEC = "family=chain length=3 machine=clique:3 seed=1"

SERVE_CLASSES = [
    ("random8-ccr0.1", "family=random nodes=8 ccr=0.1 machine=clique:3"),
    ("random8-ccr1", "family=random nodes=8 ccr=1 machine=clique:3"),
    ("random8-ccr10", "family=random nodes=8 ccr=10 machine=clique:3"),
    ("random9-ccr1", "family=random nodes=9 ccr=1 machine=clique:3"),
    ("gauss4", "family=gauss dim=4 jitter=1 machine=clique:2"),
    ("forkjoin5", "family=forkjoin width=5 jitter=1 machine=clique:3"),
    ("fft4", "family=fft points=4 jitter=1 machine=clique:2"),
]
SERVE_ENGINES = ["astar", "aeps:epsilon=0.2", "chenyu"]
SERVE_REPEAT = 0.4      # share of requests that repeat an earlier key
SERVE_PER_PAIR = 24     # fresh instances per (class, engine) pair in a pass


def heavy_spec(scenario_seed):
    return "%s seed=%d" % (HEAVY_FAMILY, scenario_seed)


def heavy_corpus(seed, pool, size=HEAVY_CORPUS):
    """The committed heavy corpus in seeded order. `pool` rows are
    [scenario_seed, optimum, serial_expanded, serial_generated]; the corpus
    is the middle row of each of `size` strata of the pool ranked by
    generated states (the count that best tracks solve time), so it spans
    the pool's cost range. Only the order depends on the seed: instances
    of this family differ in cost by up to 8x, and any seeded subset
    small enough to solve in one run moved the corpus time by 10-30%
    between seeds."""
    rows = sorted(pool, key=lambda r: (r[3], r[0]))
    if len(rows) < size:
        raise ValueError("heavy pool has %d rows, needs %d" % (len(rows), size))
    picks = [rows[(len(rows) * (2 * s + 1)) // (2 * size)] for s in range(size)]
    workload_rng(seed, "heavy").shuffle(picks)
    return [heavy_spec(r[0]) for r in picks]


def serve_spec(cls, scenario_seed):
    return "%s seed=%d" % (dict(SERVE_CLASSES)[cls], scenario_seed)


def serve_picks(rows, size=SERVE_PER_PAIR):
    """Scenario seeds of the middle row of each of `size` strata of one
    class's pool ranked by serial A* expansions. `rows[i]` is
    [optimum, expanded] of scenario seed i + 1."""
    if len(rows) < size:
        raise ValueError("serve pool has %d rows, needs %d" % (len(rows), size))
    order = sorted(range(len(rows)), key=lambda i: (rows[i][1], i))
    return [order[(len(order) * (2 * s + 1)) // (2 * size)] + 1
            for s in range(size)]


def serve_stream(seed, pools, per_pair=SERVE_PER_PAIR, repeat=SERVE_REPEAT):
    """One pass of the serve workload: the request stream a fresh daemon
    answers. Every (class, engine) pair asks for the same `per_pair`
    instances of its class (serve_picks over `pools`, {class: rows}) for
    every seed; the seed sets their order and the repeats. Fresh keys come
    in rounds that visit every pair once in seeded order. In every block of
    ten requests, round(10 * repeat) at seeded positions repeat a
    uniformly chosen earlier key (cache hits); the others ask for the next
    fresh key (misses). Returns (specs, stream): stream entries are
    [spec_index, engine_index] and specs the distinct instances in
    first-use order."""
    rng = workload_rng(seed, "serve")
    pairs = [(c, e) for c, _ in SERVE_CLASSES for e in range(len(SERVE_ENGINES))]
    unused = {}
    for c, e in pairs:
        unused[(c, e)] = serve_picks(pools[c], per_pair)
        rng.shuffle(unused[(c, e)])
    fresh = []
    for _ in range(per_pair):
        order = list(pairs)
        rng.shuffle(order)
        fresh.extend((c, unused[(c, e)].pop(), e) for c, e in order)
    fresh.reverse()

    repeats = round(10 * repeat)
    specs, index, issued, stream, pattern = [], {}, [], [], []
    while fresh or pattern:
        if not pattern:
            pattern = [True] * repeats + [False] * (10 - repeats)
            rng.shuffle(pattern)
        if (pattern.pop() or not fresh) and issued:
            key = issued[rng.below(len(issued))]
        else:
            key = fresh.pop()
            issued.append(key)
        spec = serve_spec(key[0], key[1])
        if spec not in index:
            index[spec] = len(specs)
            specs.append(spec)
        stream.append([index[spec], key[2]])
    return specs, stream


# --- references ---------------------------------------------------------------


def reference_table(refs):
    """spec line -> (optimum, serial astar expansions) from references.json."""
    table = {}
    for row in refs["heavy"]["pool"]:
        table[heavy_spec(row[0])] = (row[1], row[2])
    for cls, rows in refs["serve"]["pool"].items():
        for i, (opt, expanded) in enumerate(rows):
            table[serve_spec(cls, i + 1)] = (opt, expanded)
    table[refs["startup"]["spec"]] = tuple(refs["startup"]["ref"])
    return table


def engine_epsilon(engine):
    """Suboptimality bound of an engine spec: epsilon of aeps, else 0."""
    name, _, opts = engine.partition(":")
    if name != "aeps":
        return 0.0
    for kv in opts.split(":"):
        k, _, v = kv.partition("=")
        if k == "epsilon":
            return float(v)
    return 0.0


def check_result(makespan, termination, valid, error, optimum, epsilon):
    """Why a solve failed, or None. Exact engines must match the optimum;
    bounded ones stay within (1 + epsilon) of it."""
    if error:
        return error
    if not valid:
        return "schedule failed the validator"
    allowed = ("optimal", "bounded-optimal") if epsilon > 0 else ("optimal",)
    if termination not in allowed:
        return "terminated with %s" % termination
    tol = 1e-9 * max(1.0, abs(optimum))
    if makespan < optimum - tol:
        return "makespan %r below the optimum %r" % (makespan, optimum)
    if makespan > optimum * (1.0 + epsilon) + tol:
        return "makespan %r above %r x optimum %r" % (makespan, 1 + epsilon, optimum)
    return None


# --- statistics -----------------------------------------------------------------


def percentile(values, q):
    """q-th percentile (0..100), linear between closest ranks; 0 if empty."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def ratio(num, den):
    """num / den, defined as 0 when the base is 0 (an idle layer)."""
    return num / den if den else 0.0


def median(values):
    return statistics.median(values) if values else 0.0


def self_times(spans):
    """Self time per span name: duration minus the part covered by its
    children. Spans are dicts keyed by (tid, id) with parent ids."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[(s["tid"], s["parent"])].append(s)
    out = defaultdict(float)
    for s in spans:
        covered = []
        for c in children[(s["tid"], s["id"])]:
            lo, hi = max(c["start"], s["start"]), min(c["end"], s["end"])
            if hi > lo:
                covered.append((lo, hi))
        covered.sort()
        busy, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in covered:
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    busy += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            busy += cur_hi - cur_lo
        out[s["name"]] += max(0.0, (s["end"] - s["start"]) - busy)
    return dict(out)


def unattributed_frac(spans):
    """1 - (self time of every layer span) / (root span time): the share of
    solve wall time that no layer span covers."""
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    selfs = self_times(spans)
    root_names = {s["name"] for s in spans if s["parent"] is None}
    layer = sum(v for k, v in selfs.items() if k not in root_names)
    return 1.0 - ratio(layer, roots) if roots else 0.0


# --- metrics ----------------------------------------------------------------------

END_TO_END = ["setup_s", "solve_s.p50", "solve_s.p99", "corpus_s",
              "throughput_rps", "peak_rss_mb", "ok_frac", "quality_ratio"]
UNITS = {"setup_s": "s", "solve_s.p50": "s", "solve_s.p99": "s",
         "corpus_s": "s", "throughput_rps": "1/s", "peak_rss_mb": "MB",
         "ok_frac": "ratio", "quality_ratio": "ratio"}

CORE = ["core.search_s", "core.expanded", "core.expand_rate",
        "core.useful_frac", "core.dup_frac", "core.prune_frac",
        "core.full_load_frac", "core.replay_per_expanded",
        "core.peak_state_mb", "core.bytes_per_expanded", "core.max_open"]
WS = ["ws.search_s", "ws.search_overhead", "ws.expand_rate", "ws.imbalance",
      "ws.steal_success", "ws.transferred_per_expanded", "ws.shard_hit_frac",
      "ws.full_load_frac", "ws.peak_state_mb"]
DIST = ["dist.startup_s", "dist.search_s", "dist.search_overhead",
        "dist.expand_rate", "dist.full_load_frac",
        "dist.serialized_per_expanded", "dist.termination_rounds",
        "wire.bytes_per_state", "wire.states_per_batch",
        "wire.send_dedup_frac", "dist.peak_state_mb"]
SERVER = ["server.hit_frac", "server.hit_rtt_s.p50", "server.miss_rtt_s.p50",
          "server.overhead_s.p50", "server.queue_wait_s.p50",
          "server.reject_frac", "server.cache_mb", "core.astar_engine_s.p50",
          "core.aeps_engine_s.p50", "bnb.chenyu_engine_s.p50"]
PER_LAYER = (["workload.materialize_s", "core.problem_build_s"] + CORE + WS
             + DIST + SERVER + ["api.dispatch_frac", "server.overhead_frac",
                                "trace.overhead_frac",
                                "trace.unattributed_frac"])
PER_LAYER_UNITS = defaultdict(lambda: "ratio", {
    "workload.materialize_s": "s", "core.problem_build_s": "s",
    "core.search_s": "s", "ws.search_s": "s", "dist.search_s": "s",
    "dist.startup_s": "s", "server.hit_rtt_s.p50": "s",
    "server.miss_rtt_s.p50": "s", "server.overhead_s.p50": "s",
    "server.queue_wait_s.p50": "s", "core.astar_engine_s.p50": "s",
    "core.aeps_engine_s.p50": "s", "bnb.chenyu_engine_s.p50": "s",
    "core.expanded": "count", "core.max_open": "count",
    "dist.termination_rounds": "count", "core.expand_rate": "1/s",
    "ws.expand_rate": "1/s", "dist.expand_rate": "1/s",
    "core.peak_state_mb": "MB", "ws.peak_state_mb": "MB",
    "dist.peak_state_mb": "MB", "server.cache_mb": "MB",
    "core.bytes_per_expanded": "B", "wire.bytes_per_state": "B",
})
MIB = float(1 << 20)


def by_kind(records):
    out = defaultdict(list)
    for r in records:
        out[r["kind"]].append(r)
    return out


def failures(records, refs, engine):
    """Check every solve/request record; returns (attempted, [reasons])."""
    reasons = []
    for r in records:
        ref = refs[r["spec"]]
        why = check_result(r.get("makespan"), r.get("termination"),
                           r.get("valid", False), r.get("error"), ref[0],
                           engine_epsilon(r.get("engine", engine)))
        if why:
            reasons.append("%s [%s]: %s" % (r["spec"], r.get("engine", engine), why))
    return len(records), reasons


def median_by(records, key, value):
    """{key: median of `value` over the records with that key}: each
    element's median over the passes of a run. A stretch of seconds in
    which the host runs the guest slower moves it less than it moves a
    pass total or a percentile over single solves, and unlike each
    element's best pass it does not drift with the number of passes a
    run happens to fit."""
    groups = defaultdict(list)
    for r in records:
        groups[r[key]].append(r[value])
    return {k: median(v) for k, v in groups.items()}


def heavy_end_to_end(recs, refs, engine):
    solves = [r for r in recs["solve"] if r["phase"] == 0]
    # Percentiles are across the corpus instances, so p99 is in effect
    # the slowest instance.
    typical = list(median_by(solves, "i", "solve_s").values())
    corpus = sum(typical)
    # dist: the harness plus its workers, sampled per solve; the sum
    # depends on how the search happened to spread over the workers, so it
    # too is each instance's median, and the peak the largest of them.
    sampled = [r for r in solves if "rss_mb" in r]
    peak_rss = (max(median_by(sampled, "i", "rss_mb").values())
                if sampled else recs["rss"][-1]["peak_mb"])
    attempted, failed = failures(recs["solve"] + recs["startup"], refs, engine)
    return {
        "setup_s": median([r["s"] for r in recs["process_setup"]]),
        "solve_s.p50": percentile(typical, 50),
        "solve_s.p99": percentile(typical, 99),
        "corpus_s": corpus,
        "throughput_rps": ratio(len(typical), corpus),
        "peak_rss_mb": peak_rss,
        "ok_frac": 1.0 - ratio(len(failed), attempted),
        "quality_ratio": statistics.fmean(
            r["makespan"] / refs[r["spec"]][0] for r in solves
            if "makespan" in r) if solves else 0.0,
    }, attempted, failed


def serve_end_to_end(recs, refs):
    reqs = [r for r in recs["request"] if r["phase"] == 0]
    passes = [r for r in recs["pass"] if r["phase"] == 0]
    # Every pass answers the same stream on a fresh daemon: corpus_s is
    # the median pass. A solve is a request the daemon solved (a miss),
    # over all passes; hits are reported by the per-layer
    # server.hit_rtt_s.p50.
    rtts = [r["rtt_s"] for r in reqs if r.get("hit") is False]
    corpus = median([p["wall_s"] for p in passes])
    aeps = [r["makespan"] / refs[r["spec"]][0] for r in reqs
            if engine_epsilon(r["engine"]) > 0 and "makespan" in r]
    attempted, failed = failures(recs["request"], refs, None)
    return {
        "setup_s": median([r["s"] for r in recs["setup"]]),
        "solve_s.p50": percentile(rtts, 50),
        "solve_s.p99": percentile(rtts, 99),
        "corpus_s": corpus,
        "throughput_rps": ratio(passes[0]["requests"], corpus),
        "peak_rss_mb": recs["rss"][-1]["peak_mb"],
        "ok_frac": 1.0 - ratio(len(failed), attempted),
        "quality_ratio": statistics.fmean(aeps) if aeps else 1.0,
    }, attempted, failed


def search_layer(prefix, solves, refs, passes):
    """Counters of the search engine summed over the traced solves."""
    st = [r["stats"] for r in solves if "stats" in r]
    tot = defaultdict(float)
    for s in st:
        for k, v in s.items():
            if not isinstance(v, list):
                tot[k] += v
    ref_expanded = sum(refs[r["spec"]][1] for r in solves if "stats" in r)
    loads = tot["loads_full"] + tot["loads_incremental"]
    out = {
        prefix + ".search_s": ratio(tot["search_s"], passes),
        prefix + ".expand_rate": ratio(tot["expanded"], tot["search_s"]),
        prefix + ".full_load_frac": ratio(tot["loads_full"], loads),
        prefix + ".peak_state_mb": max((s["peak_memory_bytes"] for s in st),
                                       default=0) / MIB,
        prefix + ".search_overhead": ratio(tot["expanded"], ref_expanded),
    }
    return out, tot, st


def layer_metrics(workload, recs, refs, spans):
    m = {name: 0.0 for name in PER_LAYER}
    m["workload.materialize_s"] = median(
        [r["materialize_s"] for r in recs["setup"]])
    selfs = self_times(spans)
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    m["trace.unattributed_frac"] = unattributed_frac(spans)
    if workload == "serve_mix":
        m.update(serve_layers(recs))
        m["server.overhead_frac"] = ratio(selfs.get("server.solve_raw", 0.0), roots)
        untraced = [r["rtt_s"] for r in recs["request"] if r["phase"] == 0]
        traced = [r["rtt_s"] for r in recs["request"] if r["phase"] == 1]
    else:
        solves = [r for r in recs["solve"] if r["phase"] == 1]
        passes = len([r for r in recs["pass"] if r["phase"] == 1])
        m["core.problem_build_s"] = median([r["build_s"] for r in solves
                                            if "build_s" in r])
        m["api.dispatch_frac"] = ratio(selfs.get("api.solve", 0.0), roots)
        prefix = {"heavy_serial": "core", "heavy_ws2": "ws",
                  "heavy_dist2": "dist"}[workload]
        base, tot, st = search_layer(prefix, solves, refs, passes)
        m.update({k: v for k, v in base.items() if k in m})
        if prefix == "core":
            gen = tot["generated"]
            m.update({
                "core.expanded": ratio(tot["expanded"], passes),
                "core.useful_frac": ratio(tot["expanded"], gen),
                "core.dup_frac": ratio(tot["duplicates_dropped"], gen),
                "core.prune_frac": ratio(tot["pruned_upper_bound"], gen),
                "core.replay_per_expanded": ratio(tot["assignments_replayed"],
                                                  tot["expanded"]),
                "core.bytes_per_expanded": ratio(tot["peak_memory_bytes"],
                                                 tot["expanded"]),
                "core.max_open": max((s["max_open_size"] for s in st), default=0),
            })
        elif prefix == "ws":
            imb = [ratio(max(s["expanded_per_ppe"]),
                         statistics.fmean(s["expanded_per_ppe"]))
                   for s in st if s["expanded_per_ppe"]]
            m.update({
                "ws.imbalance": statistics.fmean(imb) if imb else 0.0,
                "ws.steal_success": ratio(tot["steals"], tot["steal_attempts"]),
                "ws.transferred_per_expanded": ratio(tot["states_transferred"],
                                                     tot["expanded"]),
                "ws.shard_hit_frac": ratio(tot["shard_hits"], tot["generated"]),
            })
        else:
            m.update({
                "dist.startup_s": median([r["solve_s"] for r in recs["startup"]]),
                "dist.serialized_per_expanded": ratio(tot["states_serialized"],
                                                      tot["expanded"]),
                "dist.termination_rounds": ratio(tot["termination_rounds"],
                                                 len(st)),
                "wire.bytes_per_state": ratio(tot["bytes_sent"],
                                              tot["states_serialized"]),
                "wire.states_per_batch": ratio(tot["states_serialized"],
                                               tot["batches_sent"]),
                "wire.send_dedup_frac": ratio(
                    tot["states_deduped_at_send"],
                    tot["states_deduped_at_send"] + tot["states_serialized"]),
            })
        # Same instances in both phases: compare per-solve time directly.
        untraced = [r["solve_s"] for r in recs["solve"] if r["phase"] == 0]
        traced = [r["solve_s"] for r in solves]
    if traced and untraced:
        m["trace.overhead_frac"] = ratio(statistics.fmean(traced),
                                         statistics.fmean(untraced)) - 1.0
    return m


def serve_layers(recs):
    reqs = [r for r in recs["request"] if r["phase"] == 1]
    ok = [r for r in reqs if "hit" in r]
    hits = [r for r in ok if r["hit"]]
    misses = [r for r in ok if not r["hit"]]
    rejects = [r for r in reqs if str(r.get("error", "")).startswith("reject:")]

    def engine_p50(prefix):
        return percentile([r["engine_s"] for r in misses
                           if r["engine"].startswith(prefix)], 50)

    return {
        "server.hit_frac": ratio(len(hits), len(ok)),
        "server.hit_rtt_s.p50": percentile([r["rtt_s"] for r in hits], 50),
        "server.miss_rtt_s.p50": percentile([r["rtt_s"] for r in misses], 50),
        "server.overhead_s.p50": percentile(
            [r["rtt_s"] - r["queue_wait_s"] - r["engine_s"] for r in ok], 50),
        "server.queue_wait_s.p50": percentile(
            [r["queue_wait_s"] for r in misses], 50),
        "server.reject_frac": ratio(len(rejects), len(reqs)),
        "server.cache_mb": max((r["cache_bytes"] for r in ok), default=0) / MIB,
        "core.astar_engine_s.p50": engine_p50("astar"),
        "core.aeps_engine_s.p50": engine_p50("aeps"),
        "bnb.chenyu_engine_s.p50": engine_p50("chenyu"),
    }


def metric_block(values, units):
    return {k: {"value": values[k], "unit": units[k]} for k in values}


def load_json_lines(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]
