"""Pure functions that turn esamr_perfbench's raw measurements into metrics.

Kept free of I/O so the unit tests in test_bench.py can exercise them.
"""
import math
import statistics

# Fixed leading columns of a span row; OpStats deltas follow.
SPAN_FIXED = ("name", "rank", "loop", "parent", "t0", "t1", "busy", "wait", "msgs", "bytes")

FOREST_PHASES = ("new", "refine", "coarsen", "partition", "balance", "ghost", "nodes",
                 "balance_incr", "ghost_incr", "nodes_incr")
SFEM_PHASES = ("step", "mesh", "transfer")
PHASE_FIELDS = (("busy_s", "s"), ("wait_s", "s"), ("calls", "count"), ("msgs", "count"),
                ("bytes", "B"))


def median(values):
    return statistics.median(values) if values else 0.0


PER_LOOP = ("setup_s", "loop_wall_s", "loop_core_s", "peak_rss_kb", "loop_steal_frac",
            "loop_clean", "loop_steps", "loop_adapts")


def clean_loops(raw):
    """The report restricted to loops the hypervisor stole (almost) no CPU
    from, or the whole report when no loop was clean. Checks and samples are
    kept whole: a failed check counts whatever loop it ran in."""
    n = len(raw["loop_wall_s"])
    keep = [i for i, c in enumerate(raw["loop_clean"]) if c] or list(range(n))
    out = dict(raw, kept_loops=keep)
    if len(keep) == n:
        return out
    for key in PER_LOOP:
        out[key] = [raw[key][i] for i in keep]
    for values, counts in (("step_s", "loop_steps"), ("adapt_s", "loop_adapts")):
        starts = [0]
        for c in raw[counts]:
            starts.append(starts[-1] + int(c))
        out[values] = [v for i in keep for v in raw[values][starts[i]:starts[i + 1]]]
    return out


def tail_percentile(values, q=0.9, beyond=10):
    """Nearest-rank q-quantile, or None unless at least `beyond` samples lie above it."""
    n = len(values)
    if n == 0:
        return None
    rank = math.ceil(q * n)
    if n - rank < beyond:
        return None
    return sorted(values)[rank - 1]


def self_time(t0, t1, children):
    """Duration of [t0, t1] minus the part covered by the child intervals."""
    covered = 0.0
    end = t0
    for c0, c1 in sorted(children):
        c0, c1 = max(c0, end), min(c1, t1)
        if c1 > c0:
            covered += c1 - c0
            end = c1
    return (t1 - t0) - covered


def parse_spans(raw):
    """Span rows of the report's kept loops as dicts with resolved names and
    op deltas; "id" is the row index that "parent" refers to."""
    names = raw["span_names"]
    ops = raw["op_fields"]
    loops = set(raw.get("kept_loops", range(len(raw["loop_wall_s"]))))
    spans = []
    for i, row in enumerate(raw["spans"]):
        if int(row[2]) not in loops:
            continue
        s = dict(zip(SPAN_FIXED, row[:len(SPAN_FIXED)]))
        s["id"] = i
        s["name"] = names[int(s["name"])]
        s["rank"], s["loop"], s["parent"] = int(s["rank"]), int(s["loop"]), int(s["parent"])
        s["ops"] = dict(zip(ops, row[len(SPAN_FIXED):]))
        spans.append(s)
    return spans


def span_instances(spans):
    """Group spans by the root call they belong to.

    Ranks issue the same sequence of root spans, so (loop, ordinal of the root
    on its rank) identifies one step across ranks. Returns
    {instance key: {"root": name, "ranks": {rank: [spans]}}} where each rank's
    list holds the root span first, then its descendants.
    """
    root_of = {}
    ordinal = {}
    instances = {}
    for s in spans:
        if s["parent"] < 0:
            k = (s["rank"], s["loop"])
            ordinal[k] = ordinal.get(k, -1) + 1
            key = (s["loop"], ordinal[k])
            root_of[s["id"]] = key
            inst = instances.setdefault(key, {"root": s["name"], "ranks": {}})
            inst["ranks"].setdefault(s["rank"], []).insert(0, s)
        else:
            key = root_of[s["parent"]]
            root_of[s["id"]] = key
            instances[key]["ranks"].setdefault(s["rank"], []).append(s)
    return instances


def phase_table(spans, names):
    """Per span name: per-instance busy and wall (max over ranks), wait, msgs
    and bytes (sums over ranks), the median of each over the instances that
    contain the name, calls on one rank, and busy summed over every rank and
    call."""
    instances = span_instances(spans)
    table = {}
    for name in names:
        per = {"busy_s": [], "wall_s": [], "wait_s": [], "msgs": [], "bytes": []}
        ops = {}
        busy_total = 0.0
        for inst in instances.values():
            busy_by_rank = []
            wall_by_rank = []
            wait = msgs = nbytes = 0.0
            found = False
            inst_ops = {}
            for rank_spans in inst["ranks"].values():
                b = w = 0.0
                for s in rank_spans:
                    if s["name"] != name:
                        continue
                    found = True
                    b += s["busy"]
                    w += s["t1"] - s["t0"]
                    wait += s["wait"]
                    msgs += s["msgs"]
                    nbytes += s["bytes"]
                    for f, v in s["ops"].items():
                        inst_ops[f] = inst_ops.get(f, 0.0) + v
                busy_by_rank.append(b)
                wall_by_rank.append(w)
                busy_total += b
            if found:
                per["busy_s"].append(max(busy_by_rank))
                per["wall_s"].append(max(wall_by_rank))
                per["wait_s"].append(wait)
                per["msgs"].append(msgs)
                per["bytes"].append(nbytes)
                for f, v in inst_ops.items():
                    ops.setdefault(f, []).append(v)
        calls = sum(1 for s in spans if s["name"] == name and s["rank"] == 0)
        row = {k: median(v) for k, v in per.items()}
        row.update(calls=calls, busy_total=busy_total, instances=len(per["busy_s"]),
                   ops={f: median(v) for f, v in ops.items()},
                   ops_total={f: sum(v) for f, v in ops.items()})
        table[name] = row
    return table


def root_self_times(spans):
    """Per "step" instance: the maximum over ranks of the root's self time.
    Descendants lie inside the root's children, so their union is the same."""
    out = []
    for inst in span_instances(spans).values():
        if inst["root"] != "step":
            continue
        worst = 0.0
        for rank_spans in inst["ranks"].values():
            root = rank_spans[0]
            kids = [(s["t0"], s["t1"]) for s in rank_spans[1:]]
            worst = max(worst, self_time(root["t0"], root["t1"], kids))
        out.append(worst)
    return out


def chrome_trace(spans, workload, seed):
    """Chrome trace-event JSON (Perfetto loads it): one thread per rank."""
    events = []
    ranks = sorted({s["rank"] for s in spans})
    for r in ranks:
        events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": r,
                       "args": {"name": "rank %d" % r}})
    events.append({"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                   "args": {"name": "%s seed %d" % (workload, seed)}})
    for s in spans:
        args = {"busy_s": s["busy"], "wait_s": s["wait"], "msgs": s["msgs"],
                "bytes": s["bytes"], "loop": s["loop"]}
        args.update({k: v for k, v in s["ops"].items() if v})
        events.append({"name": s["name"], "cat": s["name"].split(".")[0], "ph": "X",
                       "ts": s["t0"] * 1e6, "dur": (s["t1"] - s["t0"]) * 1e6, "pid": 1,
                       "tid": s["rank"], "args": args})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def samples_median_max(raw, key):
    """Median over samples of the maximum over ranks (ranks sample in step)."""
    per_rank = raw["samples"].get(key)
    if not per_rank:
        return 0.0
    n = min(len(v) for v in per_rank)
    return median([max(v[i] for v in per_rank) for i in range(n)])


def sample0_median(raw, key):
    per_rank = raw["samples"].get(key)
    return median(per_rank[0]) if per_rank and per_rank[0] else 0.0


def advect_computed(degree, dim=3):
    """Hand-counted flops and bytes of one RK stage on one element.

    Volume: tensor derivative along each axis (2 np flops per node and axis)
    plus the flux-coefficient dot product; faces: interpolation-free upwind
    flux per face node; RK update: 4 flops per node. Bytes: the nodal field,
    rhs, RK residual, mass and flux coefficients streamed once, plus per-face
    normal velocity and surface Jacobian. Labelled "computed": cache misses
    are not counted.
    """
    np_ = degree + 1
    nv = np_ ** dim
    npf = np_ ** (dim - 1)
    nfaces = 2 * dim
    flops = dim * 2 * np_ * nv + 2 * dim * nv + nfaces * npf * 12 + 4 * nv
    words = nv * (1 + 1 + 2 + 1 + dim) + nfaces * npf * 2 + 2 * nv
    return float(flops), float(words * 8)
