#!/usr/bin/env python3
"""The repository benchmark: tia-sweep and tia-serve, end to end and by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep_warm --seed 3 --seconds 25 --trace 0

builds the repository (Release) and the tia-perfbench helper under
.bench_build/, runs the named workload for --seconds seconds, checks every
output against perfbench/golden.json, prints a human-readable summary and, as
the last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics.  --trace 1 runs the outside-in traced walk instead and
reports the per-layer metrics.  perfbench/README.md explains the workloads,
the metrics and what each layer metric is expected to move.
"""

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in perfbench/
from trace_report import analyse  # noqa: E402  (perfbench/trace_report.py)

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
GOLDEN = BENCH / "golden.json"

WORKLOADS = ("sweep_cold", "sweep_warm", "serve_open")
SERVE_WORKERS = 2
# serve_open's open-loop rates (req/s), sized from a closed-loop capacity of
# about 8.9k ok/s on a 4-vCPU host, and the ladder probed for max_ok_rps:
# the highest rung whose p99 meets P99_LIMIT_MS without a growing backlog.
SERVE_RATES = {"low": 1000.0, "mid": 2000.0, "high": 3000.0}
LADDER = (4000.0, 6000.0, 8000.0, 10000.0, 12000.0)
P99_LIMIT_MS = 20.0
# A rate level is flagged when the generator's own send lag (time late
# while a sender was free) has a p99 above this.
GEN_LAG_FLAG_MS = 1.0
SETUP_REPS = 21
# serve_open traffic: Zipf exponent of key popularity, and the share of
# requests sent with "cache": false so real simulations mix with hits.
ZIPF_S = 1.0
NOCACHE_SHARE = 0.1
# One serve_open cycle: low, mid, high and one ladder slice (seconds).
SERVE_CYCLE_S = 1.0

_children = []


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail_setup(message):
    log(f"perfbench: {message}")
    sys.exit(2)


# ---------------------------------------------------------------- build


def run_quiet(cmd, cwd=None):
    """Run a build step; on failure show its output and stop."""
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        fail_setup(f"build step failed: {' '.join(map(str, cmd))}")


def cmake_cache(build_dir):
    values = {}
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            values[key.split(":", 1)[0]] = value
    return values


def build():
    """Configure and build the Release tree and the helper; return paths."""
    for needed in ("CMakeLists.txt", "src/serve/server.cc",
                   "tools/tia_sweep.cc", "tools/tia_serve_main.cc"):
        if not (ROOT / needed).is_file():
            fail_setup(f"{needed} not found: run from the root of a "
                       "source checkout")
    jobs = str(os.cpu_count() or 1)
    tia = BUILD / "tia"
    helper = BUILD / "perfbench"
    if not (tia / "CMakeCache.txt").exists():
        run_quiet(["cmake", "-S", str(ROOT), "-B", str(tia),
                   "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", str(tia), "-j", jobs, "--target",
               "tia-sweep", "tia-serve", "tia_serve"])
    if not (helper / "CMakeCache.txt").exists():
        run_quiet(["cmake", "-S", str(BENCH), "-B", str(helper),
                   "-DCMAKE_BUILD_TYPE=Release", f"-DTIA_ROOT={ROOT}",
                   f"-DTIA_BUILD={tia}"])
    run_quiet(["cmake", "--build", str(helper), "-j", jobs])
    for tree in (tia, helper):
        build_type = cmake_cache(tree).get("CMAKE_BUILD_TYPE", "")
        if build_type != "Release":
            fail_setup(f"{tree} is a {build_type or 'default'} build; "
                       "only a Release build is timed")
    return {
        "sweep": tia / "tools" / "tia-sweep",
        "serve": tia / "tools" / "tia-serve",
        "helper": helper / "tia-perfbench",
        "cache": cmake_cache(tia),
    }


def source_digest():
    """Commit when the checkout is a git tree, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for f in files:
            if f.is_file():
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def cpu_times():
    """(steal, total) jiffies over all CPUs, from /proc/stat."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n")[0]
              .split()[1:9]]
    return fields[7], sum(fields)


def fingerprint(bins):
    compiler = bins["cache"].get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    return {
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "compiler": version,
        "build_type": bins["cache"].get("CMAKE_BUILD_TYPE"),
        "commit": source_digest(),
    }


# ---------------------------------------------------------------- helpers


def spawn(cmd, **kwargs):
    proc = subprocess.Popen([str(c) for c in cmd], **kwargs)
    _children.append(proc)
    return proc


def reap(proc, timeout=30.0):
    """Wait for a child, killing it if it overstays; return its exit code."""
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    _children.remove(proc)
    return proc.returncode


def stop_children():
    for proc in list(_children):
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
    for proc in list(_children):
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    _children.clear()


def helper_json(bins, args, cwd, **kwargs):
    proc = spawn([bins["helper"], *args], cwd=cwd, stdout=subprocess.PIPE,
                 **kwargs)
    out = proc.stdout.read()
    proc.stdout.close()
    code = reap(proc, timeout=170)
    if code != 0:
        raise RuntimeError(f"tia-perfbench {args[0]} exited {code}")
    return json.loads(out)


def percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail_pct(n):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            return pct
    return 50


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------- checks


def load_golden():
    return json.loads(GOLDEN.read_text())


def matrix_by_config(doc):
    m = doc["cpi_matrix"]
    return {name: (m["cycles"][i], m["cpi"][i], m["status"][i])
            for i, name in enumerate(m["configs"])}


def canonical_frontier(doc):
    return sorted(json.dumps(p, sort_keys=True) for p in doc["dse"]["pareto"])


def check_sweep(doc, golden, sizes):
    """Undo the config permutation and compare every cell to golden."""
    ref = golden[sizes]
    if doc["cpi_matrix"]["workloads"] != golden["workloads"]:
        return "workload order differs"
    cells = matrix_by_config(doc)
    for i, name in enumerate(golden["configs"]):
        got = cells.get(name)
        if got is None:
            return f"config {name} missing"
        want = (ref["cycles"][i], ref["cpi"][i], ref["status"][i])
        if got != want:
            return f"matrix row {name} differs from golden"
    if "frontier" in ref and canonical_frontier(doc) != ref["frontier"]:
        return "DSE frontier differs from golden"
    return None


def golden_cycles_sum(golden, sizes):
    return sum(sum(row) for row in golden[sizes]["cycles"])


# ---------------------------------------------------------------- sweeps


def time_setup(bins, work, tier):
    args = ["setup", "--reps", str(SETUP_REPS)]
    if tier is not None:
        args += ["--tier", str(tier)]
    return statistics.median(helper_json(bins, args, work)["setup_s"])


def one_sweep(bins, work, names, order, tier, jobs):
    """One tia-sweep invocation: (exit code, wall s, peak RSS MB, JSON)."""
    out = work / "sweep.json"
    out.unlink(missing_ok=True)
    run = helper_json(bins, ["spawn", "--", bins["sweep"], "--jobs", jobs,
                             "--configs", ",".join(names[i] for i in order),
                             "--cache", tier, "--out", out], work,
                      stderr=subprocess.DEVNULL)
    code = run["exit"]
    doc = json.loads(out.read_text()) if code == 0 else None
    return code, run["wall_s"], run["maxrss_kb"] / 1024.0, doc


def run_sweep(bins, work, args, warm):
    golden = load_golden()
    names = golden["configs"]
    jobs = str(min(os.cpu_count() or 1, 4))
    rng = random.Random(args.seed)
    tier = work / "tier.tiasimc"

    # Untimed: the first invocation pays page-cache and lazy start-up
    # costs, and on sweep_warm it fills the tier the timed runs read.
    code, _, _, doc = one_sweep(bins, work, names, rng.sample(range(32), 32),
                                tier, jobs)
    errors = [] if code == 0 else [f"warm-up tia-sweep exited {code}"]
    if doc is not None and (why := check_sweep(doc, golden, "full")):
        errors.append(why)
    setup_s = time_setup(bins, work, tier if warm else None)

    walls, rss, attempted, failed = [], [], 0, 0
    sim_cycles = 0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or attempted < 3:
        if not warm:
            tier.unlink(missing_ok=True)
        order = rng.sample(range(32), 32)
        code, wall, peak, doc = one_sweep(bins, work, names, order, tier, jobs)
        attempted += 1
        why = (f"tia-sweep exited {code}" if doc is None
               else check_sweep(doc, golden, "full"))
        if why:
            failed += 1
            errors.append(why)
            continue
        walls.append(wall)
        rss.append(peak)
        sim_cycles = sum(sum(row) for row in doc["cpi_matrix"]["cycles"])
    if sim_cycles and sim_cycles != golden_cycles_sum(golden, "full"):
        errors.append("sum of matrix cycles differs from golden")

    sweep_s = statistics.median(walls) if walls else 0.0
    pct = tail_pct(len(walls))
    summary = {
        "setup_s": (setup_s, "s", f"median of {SETUP_REPS}"),
        "sweep_s": (sweep_s, "s", f"n={len(walls)}"),
        f"sweep_p{pct}_s": (percentile(walls, pct) if walls else 0, "s",
                            f"n={len(walls)}"),
        "peak_rss_mb": (statistics.median(rss) if rss else 0, "MB",
                        f"median of n={len(rss)}"),
        "fail_ratio": (failed / attempted, "ratio", f"n={attempted}"),
    }
    if not warm and walls:
        summary["sim_mcycles_per_s"] = (sim_cycles / sweep_s / 1e6, "Mcycle/s",
                                        f"n={len(walls)}")
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "p50_ms": metric(sweep_s * 1e3, "ms"),
        "peak_rss_mb": metric(summary["peak_rss_mb"][0], "MB"),
        "ok_ratio": metric(1 - failed / attempted, "ratio"),
    }
    return attempted, failed, errors, summary, metrics


# ---------------------------------------------------------------- serve


def rpc(sock, method, rid=1):
    payload = json.dumps({"id": rid, "method": method}).encode()
    sock.sendall(struct.pack("<I", len(payload)) + payload)
    head = b""
    while len(head) < 4:
        chunk = sock.recv(4 - len(head))
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        head += chunk
    size = struct.unpack("<I", head)[0]
    body = b""
    while len(body) < size:
        chunk = sock.recv(size - len(body))
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        body += chunk
    return json.loads(body)


def start_daemon(bins, work, name, metrics_path):
    """Spawn tia-serve; return (process, seconds until the first stats reply)."""
    sock_path = work / name
    sock_path.unlink(missing_ok=True)
    metrics_path.unlink(missing_ok=True)
    start = time.perf_counter()
    proc = spawn([bins["serve"], "--socket", name, "--workers",
                  str(SERVE_WORKERS), "--metrics", metrics_path.name],
                 cwd=work, stderr=subprocess.DEVNULL)
    while True:
        if proc.poll() is not None:
            raise RuntimeError("tia-serve exited during start-up")
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                s.connect(str(sock_path))
                reply = rpc(s, "stats")
            if reply.get("ok"):
                return proc, time.perf_counter() - start
        except (FileNotFoundError, ConnectionError, OSError):
            pass
        if time.perf_counter() - start > 30:
            raise RuntimeError("tia-serve did not answer stats within 30 s")
        time.sleep(0.0005)


def stop_daemon(proc, metrics_path):
    """SIGTERM the daemon; return (exit code, peak RSS MB, metrics doc).

    The peak RSS is the daemon's own VmHWM, read before it exits: wait4
    would also count the memory of this process, which it was forked from."""
    rss = 0.0
    for line in Path(f"/proc/{proc.pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            rss = int(line.split()[1]) / 1024.0
    proc.send_signal(signal.SIGTERM)
    code = reap(proc, timeout=60)
    doc = json.loads(metrics_path.read_text()) if metrics_path.exists() else {}
    return code, rss, doc


def serve_plan(seconds):
    """The cycles of one serve_open run; each is a list of slices.

    Each cycle runs on a fresh daemon and load-generator process, and
    interleaves the levels in short slices: how the scheduler places a
    daemon's threads moves its latency by a fifth from one process to the
    next, so a run pools several placements, and every level samples the
    same stretch of host time. One ladder rung per cycle, taken in turn."""
    cycles = max(1, round(seconds / SERVE_CYCLE_S))
    scale = seconds / (cycles * SERVE_CYCLE_S)
    plan = []
    for c in range(cycles):
        rate = LADDER[c % len(LADDER)]
        plan.append([("low", SERVE_RATES["low"], 0.25 * scale),
                     ("mid", SERVE_RATES["mid"], 0.35 * scale),
                     ("high", SERVE_RATES["high"], 0.25 * scale),
                     (f"ladder{rate:g}", rate, 0.15 * scale)])
    return plan


def connections():
    """Sender connections (one thread each) that fit next to the workers
    within nproc, and why there are none when none fit."""
    nproc = os.cpu_count() or 1
    conns = (nproc - SERVE_WORKERS) // 2
    why = (f"{SERVE_WORKERS} daemon workers plus one sender thread and its "
           f"connection need {SERVE_WORKERS + 2} CPUs, nproc={nproc}")
    return conns, (None if conns >= 1 else why)


def level_stats(slices, limit_ms):
    """Pool the slices of one level: percentiles over every request sent
    at that rate, and whether a backlog grew within most of its slices."""
    lat, rtt, lag, growing, errors = [], [], [], 0, {}
    for phase in slices:
        lat += phase["latency_ms"]
        rtt += [x - late for x, late in zip(phase["latency_ms"],
                                            phase["late_ms"]) if x >= 0]
        for code, n in phase["errors"].items():
            errors[code] = errors.get(code, 0) + n
        lag += phase["oversleep_ms"]
        late = phase["late_ms"]
        quarter = max(1, len(late) // 4)
        if late and (statistics.mean(late[-quarter:]) -
                     statistics.mean(late[:quarter])) > limit_ms:
            growing += 1
    ok = [x for x in lat if x >= 0]
    # Failed requests miss every latency limit.
    ranked = ok + [float("inf")] * (len(lat) - len(ok))
    stats = {"n": len(lat), "ok": len(ok), "errors": errors,
             "growing": 2 * growing > len(slices),
             "lag_p99": percentile(lag, 99) if lag else 0.0,
             "rtt_p50": percentile(rtt, 50) if rtt else math.inf}
    for pct in (50, 75, 90, 95, 99):
        stats[f"p{pct}"] = percentile(ranked, pct) if ranked else math.inf
    return stats


def max_ok_rps(ladder):
    """Highest rung whose p99 meets the limit without a growing backlog."""
    return max((rate for rate, s in ladder
                if s["p99"] <= P99_LIMIT_MS and not s["growing"]),
               default=0.0)


def check_serve_cells(load, small_doc, golden):
    """Every served cycle count equals the small-size sweep cell."""
    cells = matrix_by_config(small_doc)
    workloads = golden["workloads"]
    for key, cycles in load["cycles"].items():
        wl, uarch = key.split("/", 1)
        if cells[uarch][0][workloads.index(wl)] != cycles:
            return f"served {key} ran {cycles} cycles, sweep says otherwise"
    return None


def small_reference(bins, work, golden):
    out = work / "small.json"
    proc = spawn([bins["sweep"], "--small", "--no-dse", "--jobs",
                  str(min(os.cpu_count() or 1, 4)), "--out", out],
                 cwd=work, stderr=subprocess.DEVNULL)
    code = reap(proc)
    if code != 0:
        return None, f"small tia-sweep exited {code}"
    doc = json.loads(out.read_text())
    return doc, check_sweep(doc, golden, "small")


def run_serve(bins, work, args):
    golden = load_golden()
    conns, why = connections()
    if why:
        fail_setup(f"serve_open cannot run: {why}")
    errors = []
    small_doc, why = small_reference(bins, work, golden)
    if why:
        errors.append(why)

    spawns, rss, phases, warm_failed = [], [], [], 0
    metrics_path = work / "serve-metrics.json"
    for c, cycle in enumerate(serve_plan(args.seconds)):
        # Set-up: daemon spawn until its first stats reply.
        proc, secs = start_daemon(bins, work, f"s{c}.sock", metrics_path)
        spawns.append(secs)
        cmd = ["loadgen", "--socket", f"s{c}.sock",
               "--seed", str(args.seed * 1000 + c), "--conns", str(conns),
               "--nocache-share", str(NOCACHE_SHARE), "--zipf", str(ZIPF_S)]
        for label, rate, secs in cycle:
            cmd += ["--phase", f"{label}:{rate:g}:{secs:g}"]
        load = helper_json(bins, cmd, work)
        code, peak, final = stop_daemon(proc, metrics_path)
        rss.append(peak)
        phases += load["phases"]
        warm_failed += load["warmup_failed"]

        if code != 0:
            errors.append(f"tia-serve exited {code} after SIGTERM")
        if load["bad_checks"] or load["cycle_conflicts"]:
            errors.append(f"{load['bad_checks']} responses failed their "
                          f"check, {load['cycle_conflicts']} keys changed "
                          "cycles")
        if small_doc is not None and (
                why := check_serve_cells(load, small_doc, golden)):
            errors.append(why)
        stats = final.get("server", {})
        if stats.get("received") != (stats.get("admitted", -1) +
                                     stats.get("shed", 0) +
                                     stats.get("rejected", 0)):
            errors.append("server counters: received != "
                          "admitted+shed+rejected")
    setup_s = statistics.median(spawns)
    rss = statistics.median(rss)

    grouped = {}
    for phase in phases:
        grouped.setdefault(phase["label"], []).append(phase)
    levels = {label: level_stats(slices, P99_LIMIT_MS)
              for label, slices in grouped.items()}
    ladder = [(slices[0]["rate"], levels[label])
              for label, slices in grouped.items()
              if label.startswith("ladder")]
    attempted = sum(s["n"] for s in levels.values()) + 320 * len(spawns)
    failed = sum(s["n"] - s["ok"] for s in levels.values()) + warm_failed
    mid = levels["mid"]

    summary = {"setup_s": (setup_s, "s", f"median of {len(spawns)} spawns")}
    for label in ("low", "mid", "high"):
        s = levels[label]
        for pct in (50, 75, 90, 95, 99):
            summary[f"p{pct}_ms.{label}"] = (s[f"p{pct}"], "ms", f"n={s['n']}")
        summary[f"rtt_p50_ms.{label}"] = (s["rtt_p50"], "ms",
                                          f"send to reply, n={s['ok']}")
    summary["max_ok_rps"] = (max_ok_rps(ladder), "req/s",
                             f"p99 limit {P99_LIMIT_MS:g} ms, "
                             f"{len(ladder)} rungs")
    summary["peak_rss_mb"] = (rss, "MB", f"median of {len(spawns)} daemons")
    summary["fail_ratio"] = (failed / attempted, "ratio", f"n={attempted}")
    for label, s in levels.items():
        notes = [f"errors {s['errors']}"] if s["errors"] else []
        if s["growing"]:
            notes.append("backlog growing")
        if s["lag_p99"] > GEN_LAG_FLAG_MS:
            notes.append("FLAG: generator fell behind while a sender was free")
        log(f"  {label:>12}: offered {s['n']} req, ok {s['ok']}, "
            f"p50 {s['p50']:.3f} ms, p99 {s['p99']:.3f} ms, generator lag "
            f"p99 {s['lag_p99']:.3f} ms  {'; '.join(notes)}")
    log(f"  connections={conns} sender threads={conns} "
        f"workers={SERVE_WORKERS} nproc={os.cpu_count()}")

    metrics = {
        "setup_s": metric(setup_s, "s"),
        # The round trip (send to reply), not the latency from the due
        # time: that one, printed for every rate, adds the wait behind
        # earlier requests, and its p50 swung by up to 30 % between runs
        # on a shared 4-vCPU host while the round trip held within 6 %.
        "p50_ms": metric(mid["rtt_p50"], "ms"),
        "peak_rss_mb": metric(rss, "MB"),
        "ok_ratio": metric(1 - failed / attempted, "ratio"),
    }
    return attempted, failed, errors, summary, metrics


# ---------------------------------------------------------------- trace


def run_trace(bins, work, args):
    """The traced walk (all layers, whatever the workload) plus checks.

    The walk drives a daemon only when its workers and one sender fit in
    nproc; otherwise the serve metrics and obs.json_parse_us (measured on
    the served responses) are absent, and the reason is printed."""
    golden = load_golden()
    errors = []
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["trace", "--seed", str(args.seed), "--dir", str(work),
           "--jobs", jobs]
    conns, absent = connections()
    metrics_path = work / "serve-metrics.json"
    proc, final = None, {}
    if not absent:
        proc, _ = start_daemon(bins, work, "t.sock", metrics_path)
        cmd += ["--socket", "t.sock", "--conns", str(conns),
                "--nocache-share", str(NOCACHE_SHARE), "--zipf", str(ZIPF_S),
                "--phase", f"mid:{SERVE_RATES['mid']:g}:2"]
    helper_json(bins, cmd, work)
    if proc is not None:
        code, _, final = stop_daemon(proc, metrics_path)
        if code != 0:
            errors.append(f"tia-serve exited {code} after SIGTERM")
    trace = json.loads((work / "trace.json").read_text())

    # uarch.sim_cycles must equal the sum of cycles in tia-sweep's JSON:
    # a cold tia-sweep on a fresh cache, simulating every cell itself.
    code, _, _, doc = one_sweep(bins, work, golden["configs"], range(32),
                                work / "check.tiasimc", jobs)
    sweep_cycles = (sum(sum(r) for r in doc["cpi_matrix"]["cycles"])
                    if doc else -1)
    layer, checks, attempted, failed = analyse(trace, final, golden,
                                               sweep_cycles)
    errors += checks
    if absent:
        print(f"serve.* and obs.json_parse_us: absent ({absent})")
    return attempted, failed, errors, layer


# ---------------------------------------------------------------- main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-golden", action="store_true",
                   help="regenerate perfbench/golden.json with --jobs 1")
    args = p.parse_args(argv)
    if not args.write_golden and args.workload is None:
        p.error("--workload is required")
    return args


def write_golden(bins, work):
    golden = {}
    for sizes, extra in (("full", []), ("small", ["--small", "--no-dse"])):
        out = work / f"golden-{sizes}.json"
        subprocess.run([bins["sweep"], "--jobs", "1", *extra, "--out", out],
                       check=True, stderr=subprocess.DEVNULL)
        doc = json.loads(out.read_text())
        m = doc["cpi_matrix"]
        golden["configs"] = m["configs"]
        golden["workloads"] = m["workloads"]
        golden[sizes] = {k: m[k] for k in ("cycles", "cpi", "status")}
        if "dse" in doc:
            golden[sizes]["frontier"] = canonical_frontier(doc)
    # One matrix row per line.
    text = re.sub(r"\[\s+([^][{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]",
                  json.dumps(golden, indent=1))
    GOLDEN.write_text(text + "\n")
    log(f"wrote {GOLDEN}")


def main(argv):
    args = parse_args(argv)
    bins = build()
    work = BUILD / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.write_golden:
            write_golden(bins, work)
            return 0
        if not GOLDEN.is_file():
            fail_setup(f"{GOLDEN.name} missing")
        host = fingerprint(bins)
        steal0, total0 = cpu_times()
        log(f"perfbench: {args.workload} seed={args.seed} "
            f"seconds={args.seconds:g} trace={args.trace} "
            f"host={json.dumps(host)}")
        if args.trace:
            attempted, failed, errors, metrics = run_trace(bins, work, args)
            for name, entry in metrics.items():
                print(f"{name} = {entry['value']:.6g} {entry['unit']}")
        else:
            runner = run_serve if args.workload == "serve_open" else (
                lambda b, w, a: run_sweep(b, w, a,
                                          args.workload == "sweep_warm"))
            attempted, failed, errors, summary, metrics = runner(bins, work,
                                                                 args)
            for name, (value, unit, note) in summary.items():
                print(f"{name} = {value:.6g} {unit} ({note})")
        # Time the hypervisor gave this machine's CPUs to someone else:
        # a run with a large share is slow for reasons outside the code.
        steal1, total1 = cpu_times()
        host["steal_pct"] = round(100 * (steal1 - steal0) /
                                  max(1, total1 - total0), 2)
        print(f"host: {json.dumps(host)}")
        for why in errors[:10]:
            log(f"perfbench: CHECK FAILED: {why}")
        print(json.dumps({"correct": not errors, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0 if not errors else 1
    finally:
        stop_children()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
