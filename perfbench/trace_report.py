"""Per-layer metrics and identity checks from the traced walk.

tia-perfbench trace writes every span as [name, tag, start_us, end_us,
parent, thread] plus exact counts; analyse() turns them into the per-layer
metrics of BENCHMARK.json and checks the spans and counters against the
program's own identities.
"""

import json
import statistics

LAYERS = ("uarch", "workloads", "cache", "exec", "vlsi", "obs", "serve")
WORKLOADS = ("bst", "gcd", "mean", "arg_max", "dot_product", "filter",
             "merge", "stream", "string_search", "udiv")


class Spans:
    def __init__(self, rows):
        self.rows = rows
        self.children = [[] for _ in rows]
        for i, row in enumerate(rows):
            if row[4] >= 0:
                self.children[row[4]].append(i)
        self.pipeline = [self._pipeline(i) for i in range(len(rows))]

    def _pipeline(self, i):
        while i >= 0:
            if self.rows[i][0] == "exec.pipeline":
                return self.rows[i][1]
            if self.rows[i][0] == "cache.warm_pass":
                return "warm"
            i = self.rows[i][4]
        return None

    def dur(self, i):
        return self.rows[i][3] - self.rows[i][2]

    def select(self, name, tag=None, pipeline=None):
        return [i for i, r in enumerate(self.rows)
                if r[0] == name and (tag is None or r[1] == tag)
                and (pipeline is None or self.pipeline[i] == pipeline)]

    def durations(self, name, tag=None, pipeline=None):
        return [self.dur(i) for i in self.select(name, tag, pipeline)]

    def self_time(self, i):
        """Duration minus the part of it that child spans cover."""
        start, end = self.rows[i][2], self.rows[i][3]
        intervals = sorted((max(start, self.rows[c][2]),
                            min(end, self.rows[c][3]))
                           for c in self.children[i])
        covered, cur_s, cur_e = 0.0, None, None
        for s, e in intervals:
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        return (end - start) - covered

    def nesting_errors(self):
        bad = 0
        for i, row in enumerate(self.rows):
            p = row[4]
            if row[3] < row[2]:
                bad += 1
            elif p >= 0 and (row[2] < self.rows[p][2] or
                             row[3] > self.rows[p][3]):
                bad += 1
        return bad


def mean(values):
    return statistics.fmean(values) if values else 0.0


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, pct):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def pipeline_metrics(spans, label, jobs):
    """Utilization, tail idle and sink wait of one SweepPipeline run."""
    (pipe,) = spans.select("exec.pipeline", label)
    start, end = spans.rows[pipe][2], spans.rows[pipe][3]
    wall = end - start
    tasks = spans.select("exec.task", pipeline=label)
    busy = sum(spans.dur(i) for i in tasks)
    last_end = {}
    for i in tasks:
        thread = spans.rows[i][5]
        last_end[thread] = max(last_end.get(thread, start), spans.rows[i][3])
    idle_threads = max(0, jobs - len(last_end))
    tail_idle = sum(end - e for e in last_end.values()) + idle_threads * wall
    sink = sum(spans.durations("exec.sink", pipeline=label))
    return {
        "utilization": busy / (jobs * wall),
        "tail_idle_s": tail_idle / 1e6,
        "sink_wait_s": max(0.0, wall - sink) / 1e6,
    }


def analyse(trace, daemon, golden, sweep_cycles):
    """Return (metrics, failed checks, attempted, failed).

    A walk without serve load (trace["serve"] is null) has no serve
    metrics and no obs.json_parse_us."""
    spans = Spans(trace["spans"])
    counts, walls, jobs = trace["counts"], trace["walls"], trace["jobs"]
    serve = trace["serve"]
    checks = []
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    # uarch: simulator busy time per Table 3 workload, one worker.
    busy_total = 0.0
    for wl in WORKLOADS:
        busy = sum(spans.durations("uarch.runCycle", wl, "jobs1")) / 1e6
        busy_total += busy
        put(f"uarch.busy_s.{wl}", busy, "s")
    put("uarch.ns_per_pe_step",
        busy_total * 1e9 / max(1, counts["pe_steps_executed"]), "ns")
    put("uarch.run_us.small", mean(spans.durations("uarch.runCycle.small")),
        "us")
    steps = counts["pe_steps_executed"] + counts["pe_steps_skipped"]
    put("uarch.sleep_ratio", counts["pe_steps_skipped"] / max(1, steps),
        "ratio")
    resolved = counts["resolution_skips"] + counts["resolution_fulls"]
    put("uarch.resolution_skip_ratio",
        counts["resolution_skips"] / max(1, resolved), "ratio")
    put("uarch.sim_cycles", counts["sim_cycles"], "count")
    put("uarch.instructions", counts["instructions"], "count")
    put("uarch.sim_mcycles_per_s",
        counts["sim_cycles"] / walls["matrix_jobsN_s"] / 1e6, "Mcycle/s")

    put("workloads.build_ms.full",
        median(spans.durations("workloads.allWorkloads", "full")) / 1e3, "ms")
    put("workloads.build_us.small",
        mean(spans.durations("workloads.factory", "small")), "us")

    put("cache.key_us.full", mean(spans.durations("cache.key", "full",
                                                  "warm")), "us")
    put("cache.key_us.small", mean(spans.durations("cache.key", "small")),
        "us")
    put("cache.lookup_us", mean(spans.durations("cache.lookup",
                                                pipeline="warm")), "us")
    put("cache.decode_us", mean(spans.durations("cache.decode",
                                                pipeline="warm")), "us")
    put("cache.encode_us", mean(spans.durations("cache.encode",
                                                pipeline="jobs1")), "us")
    put("cache.save_ms", sum(spans.durations("cache.save")) / 1e3, "ms")
    put("cache.load_ms", median(spans.durations("cache.load")) / 1e3, "ms")
    stats = list(counts["cache"])
    if daemon.get("cache"):
        stats.append(daemon["cache"])
    for s in stats:
        if s["hits"] + s["misses"] + s["coalesced"] != s["lookups"]:
            checks.append(f"cache identity broken: {s}")
    walk = counts["cache"]
    put("cache.hit_ratio", sum(s["hits"] for s in walk) /
        max(1, sum(s["lookups"] for s in walk)), "ratio")
    put("cache.coalesced", sum(s["coalesced"] for s in stats), "count")
    put("cache.tier_bytes", counts["tier_bytes"], "bytes")

    for name, value in pipeline_metrics(spans, "jobsN", jobs).items():
        put(f"exec.{name}", value, "s" if name.endswith("_s") else "ratio")
    put("exec.scaling_eff",
        walls["matrix_jobs1_s"] / walls["matrix_jobsN_s"] / jobs, "ratio")

    put("vlsi.dse_ms", sum(spans.durations("vlsi.enumerateStreamed")) / 1e3,
        "ms")
    put("vlsi.eval_ratio",
        counts["dse_evaluated"] / max(1, counts["dse_grid_points"]), "ratio")
    put("vlsi.frontier_points", counts["frontier_points"], "count")

    put("obs.json_dump_ms", median(spans.durations("obs.json_dump")) / 1e3,
        "ms")
    put("obs.trace_overhead_pct",
        (walls["warm_traced_s"] / walls["warm_untraced_s"] - 1) * 100, "%")

    if serve is not None:
        put("obs.json_parse_us", mean(spans.durations("obs.json_parse")),
            "us")
        phase = serve["phases"][0]
        server = serve["stats"]
        rtt = [lat - late for lat, late in zip(phase["latency_ms"],
                                               phase["late_ms"]) if lat >= 0]
        put("serve.server_p50_ms", server["latency_ms"]["p50"], "ms")
        put("serve.server_p99_ms", server["latency_ms"]["p99"], "ms")
        put("serve.transport_ms", median(rtt) - server["latency_ms"]["p50"],
            "ms")
        final = daemon.get("server", server)
        put("serve.shed_ratio", final["shed"] / max(1, final["received"]),
            "ratio")
        put("serve.queue_high_water", final["queue_high_water"], "count")
        dc = daemon.get("cache", {"hits": 0, "lookups": 0})
        put("serve.hit_ratio", dc["hits"] / max(1, dc["lookups"]), "ratio")
        put("serve.gen_late_p99_ms", percentile(phase["oversleep_ms"], 99),
            "ms")

    # Self time per layer: each span's duration minus its children's.
    self_us = dict.fromkeys(LAYERS, 0.0)
    for i, row in enumerate(spans.rows):
        own = spans.self_time(i)
        if own < -1e-3:
            checks.append(f"span {row[0]} has negative self time")
        layer = row[0].split(".", 1)[0]
        if layer in self_us:
            self_us[layer] += own
    for layer in LAYERS:
        if layer != "serve" or serve is not None:
            put(f"{layer}.self_s", self_us[layer] / 1e6, "s")

    # Identities.
    if (bad := spans.nesting_errors()):
        checks.append(f"{bad} spans lie outside their parent")
    want_cycles = sum(sum(row) for row in golden["full"]["cycles"])
    if not counts["sim_cycles"] == sweep_cycles == want_cycles:
        checks.append(f"uarch.sim_cycles {counts['sim_cycles']} != tia-sweep "
                      f"{sweep_cycles} / golden {want_cycles}")
    flat = [c for row in golden["full"]["cycles"] for c in row]
    if counts["matrix_cycles"] != flat:
        checks.append("walk matrix cycles differ from golden")
    want_frontier = sorted((p["config"], p["vt"], p["vdd"], p["freq_mhz"])
                           for p in map(json.loads,
                                        golden["full"]["frontier"]))
    got_frontier = sorted((p["config"], p["vt"], p["vdd"], p["freq_mhz"])
                          for p in counts["frontier"])
    if want_frontier != got_frontier:
        checks.append("walk DSE frontier differs from golden")
    attempted, failed = len(flat), trace["failed"]
    if serve is not None:
        for s in (server, final):
            if s["received"] != s["admitted"] + s["shed"] + s["rejected"]:
                checks.append("serve stats: received != "
                              "admitted+shed+rejected")
        if serve["bad_checks"] or serve["cycle_conflicts"]:
            checks.append("serve responses failed their check")
        small = golden["small"]["cycles"]
        for key, cycles in serve["cycles"].items():
            wl, uarch = key.split("/", 1)
            row = golden["configs"].index(uarch)
            if small[row][golden["workloads"].index(wl)] != cycles:
                checks.append(f"served {key} cycles differ from the small "
                              "sweep")
                break
        attempted += len(phase["latency_ms"]) + 320
        failed += sum(1 for x in phase["latency_ms"] if x < 0) + \
            serve["warmup_failed"]
    if trace["failed"]:
        checks.append(f"{trace['failed']} walk cells failed or mismatched")
    return m, checks, attempted, failed
