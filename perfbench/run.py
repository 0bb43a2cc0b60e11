#!/usr/bin/env python3
"""The netrev benchmark: one entry point for every workload.

    python3 perfbench/run.py --workload giant-identify --seed 0 \
        --seconds 10 --trace 0

Run it from the repository root.  It builds `netrev` and `perfbench_tool`
from source into $CARGO_TARGET_DIR (default .bench_build), generates the
workload's seeded inputs, drives the real netrev binary, checks every
output, and prints one JSON object as the last line of stdout.  --trace 0
measures the end-to-end metrics with tracing off; --trace 1 makes the
separate traced run that reports the per-layer metrics.  The workloads,
metrics and checks are documented in perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import harness as H  # noqa: E402

WORKLOADS = ("giant-identify", "family-batch", "serve-mixed")
NPROC = len(os.sched_getaffinity(0))
# Set-up is repeated at least SETUP_REPEATS times and until SETUP_SECONDS
# have been spent on it, and the median is reported: one set-up of the small
# family inputs takes ~0.25 s and varies by 15 % between back-to-back
# repeats, too short for a steady median of five.
SETUP_REPEATS = 5
SETUP_SECONDS = 5.0
# serve-mixed: sessions whose designs the traced layer pass covers.
TRACED_SERVE_SESSIONS = 8
# The program must not inherit test hooks or a job count from the caller.
ENV = {k: v for k, v in os.environ.items() if not k.startswith("NETREV_")}


class BenchError(Exception):
    """The benchmark itself could not run (build, setup, daemon start)."""


# --- build ---------------------------------------------------------------


def build(build_root):
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    cmake_dir = os.path.join(build_root, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", bench_dir, "-B", cmake_dir, *generator,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(cmake_dir, ignore_errors=True)
            raise BenchError("cmake configure failed")
    compile_ = ["cmake", "--build", cmake_dir, "-j", str(NPROC),
                "--target", "netrev", "perfbench_tool"]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return (os.path.join(cmake_dir, "netrev"),
            os.path.join(cmake_dir, "perfbench_tool"))


# --- processes -------------------------------------------------------------


class Child:
    """One finished netrev CLI child."""

    def __init__(self, argv, stderr):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr,
                                env=ENV)
        self.out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        self.wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        self.code = proc.returncode
        self.max_rss_mb = usage.ru_maxrss / 1024
        self.cpu_s = usage.ru_utime + usage.ru_stime


class Connection:
    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def round_trip(self, line):
        self.sock.sendall(line.encode() + b"\n")
        response = self.reader.readline()
        if not response.endswith(b"\n"):
            raise ConnectionError("daemon closed the connection")
        return response[:-1]

    def close(self):
        self.reader.close()
        self.sock.close()


class Daemon:
    """`netrev serve` on an ephemeral localhost port, answering ping."""

    def __init__(self, netrev, stderr):
        argv = [netrev, "serve", "--listen", "127.0.0.1:0", "-j", str(NPROC),
                "--max-inflight", str(NPROC)]
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=stderr, env=ENV)
        try:
            banner = self.proc.stdout.readline().decode()
            prefix = "netrev serve listening on "
            if not banner.startswith(prefix):
                raise BenchError(f"serve did not start: {banner!r}")
            host, port = banner[len(prefix):].strip().rsplit(":", 1)
            self.address = (host, int(port))
            if self.request('{"id":"ping","op":"ping"}')["status"] != "ok":
                raise BenchError("serve did not answer ping")
        except BaseException:
            self.stop()
            raise

    def request(self, line):
        conn = Connection(self.address)
        try:
            return json.loads(conn.round_trip(line))
        finally:
            conn.close()

    def _proc_file(self, name):
        with open(f"/proc/{self.proc.pid}/{name}") as handle:
            return handle.read()

    def vm_hwm_mb(self):
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise BenchError("no VmHWM in /proc status")

    def cpu_s(self):
        fields = self._proc_file("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Request:
    __slots__ = ("rid", "design", "op", "options", "line", "sent", "received",
                 "status", "digest", "result")

    def take(self, response):
        """Keeps the status, the digest, and an identify result (for the
        word checks); other result bodies are dropped to bound memory."""
        body = response.split(b",", 1)[1]
        self.status = body[:40]
        self.digest = H.body_digest(response)
        ok = body.startswith(b'"status":"ok"')
        self.result = response if ok and self.op == "identify" else None


def drive(daemon, paths, units, seconds):
    """Closed loop over NPROC connections: each takes the next script unit
    and sends its requests one at a time, waiting for every reply.  No
    request is sent after `seconds` (None = run the whole script).
    Returns (requests in send order, wall seconds)."""
    expanded = H.expand_units(units)
    lock = threading.Lock()
    state = {"unit": 0, "count": 0}
    done, errors = [], []
    start = time.perf_counter()
    deadline = None if seconds is None else start + seconds

    def loop(conn, mine):
        while True:
            with lock:
                if state["unit"] >= len(expanded):
                    return
                unit = expanded[state["unit"]]
                state["unit"] += 1
            for design, op, options in unit:
                if deadline is not None and time.perf_counter() >= deadline:
                    return
                with lock:
                    state["count"] += 1
                    rid = f"r{state['count']:06d}"
                req = Request()
                req.rid, req.design, req.op, req.options = (
                    rid, design, op, options)
                req.line = H.request_line(rid, paths[design], op, options)
                req.sent = time.perf_counter()
                response = conn.round_trip(req.line)
                req.received = time.perf_counter()
                req.take(response)
                mine.append(req)

    def client():
        mine = []
        try:
            conn = Connection(daemon.address)
            try:
                loop(conn, mine)
            finally:
                conn.close()
        except Exception as error:  # reported as a benchmark failure below
            errors.append(repr(error))
        finally:
            with lock:
                done.extend(mine)

    threads = [threading.Thread(target=client) for _ in range(NPROC)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise BenchError(f"serve client failed: {errors[0]}")
    done.sort(key=lambda r: r.sent)
    wall = max(r.received for r in done) - start
    return done, wall


def host_steal():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    with open("/proc/stat") as handle:
        fields = [int(x) for x in handle.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def host_steal_pct(start):
    """Share of CPU time stolen since `start`.  Printed, not a metric: a
    shared host that steals time moves every latency, and this says so."""
    (steal0, total0), (steal1, total1) = start, host_steal()
    return 100.0 * (steal1 - steal0) / max(total1 - total0, 1)


# --- inputs --------------------------------------------------------------


def fresh_dir(directory):
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)


class Inputs:
    """The workload's seeded inputs, generated into an empty `directory`."""

    def __init__(self, tool, workload, seed, directory):
        gen = [tool, "gen", "--workload", workload, "--seed", str(seed),
               "--dir", directory]
        if subprocess.run(gen, env=ENV).returncode != 0:
            raise BenchError("input generation failed")
        with open(os.path.join(directory, "manifest.json")) as handle:
            manifest = json.load(handle)
        self.designs = manifest["designs"]
        self.paths = [d["path"] for d in self.designs]
        self.units = (H.request_script(seed, len(self.designs))
                      if workload == "serve-mixed" else [])
        self.by_path = {d["path"]: d for d in self.designs}


# --- checks --------------------------------------------------------------


class Coverage:
    """full_found_pct: planted words a single identified word covers."""

    def __init__(self):
        self.found = self.planted = 0
        self.seen = set()

    def add(self, key, doc, planted):
        if key in self.seen:
            return
        self.seen.add(key)
        self.found += H.words_fully_found(doc, planted)
        self.planted += len(planted)

    def pct(self):
        return 100.0 * self.found / self.planted if self.planted else 0.0


def check_child(child, key, ledger, parsed):
    """Exit code and repeat-bytes checks; returns the parsed JSON or None."""
    if child.code != 0:
        return f"{key}: exit code {child.code}", None
    digest = H.digest(child.out)
    error = ledger.same_bytes(key, digest)
    if error:
        return error, None
    if digest not in parsed:
        try:
            parsed[digest] = json.loads(child.out)
        except ValueError:
            return f"{key}: output is not JSON", None
    return None, parsed[digest]


def check_identify_child(child, inputs, ledger, parsed, coverage):
    path = inputs.paths[0]
    error, doc = check_child(child, ("identify", path), ledger, parsed)
    if error is None:
        planted = inputs.by_path[path]["planted"]
        error = H.empty_result_error(doc, planted)
        coverage.add(path, doc, planted)
    ledger.attempt(error)


def check_batch_child(child, inputs, ledger, parsed, coverage):
    error, doc = check_child(child, ("batch",), ledger, parsed)
    if error is None:
        entries = doc.get("entries", [])
        if [e.get("design") for e in entries] != inputs.paths:
            error = "batch entries do not match the inputs"
        for entry in entries:
            if error:
                break
            if entry.get("status") != "ok":
                error = f"{entry.get('design')}: status {entry.get('status')}"
                break
            planted = inputs.by_path[entry["design"]]["planted"]
            error = H.empty_result_error(entry["identify"], planted)
            coverage.add(entry["design"], entry["identify"], planted)
    ledger.attempt(error)


def check_requests(requests, inputs, ledger, coverage):
    identify_docs = {}
    for req in requests:
        key = (inputs.paths[req.design], req.op,
               json.dumps(req.options, sort_keys=True))
        error = None
        if not req.status.startswith(b'"status":"ok"'):
            error = f"{req.rid} {key}: {req.status!r}"
        else:
            error = ledger.same_bytes(key, req.digest)
            if error is None and req.op == "identify" and key not in identify_docs:
                doc = json.loads(req.result)["result"]
                identify_docs[key] = doc
                planted = inputs.designs[req.design]["planted"]
                error = H.empty_result_error(doc, planted)
                if not req.options:
                    coverage.add(key, doc, planted)
        ledger.attempt(error)


# --- the end-to-end run ----------------------------------------------------


def timed_setup(tool, netrev, workload, seed, directory, stderr):
    """Sets up repeatedly; keeps the last inputs (and daemon).  Returns them
    with the median set-up time and the number of set-ups."""
    times, daemon = [], None
    try:
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
            if daemon is not None:
                daemon.stop()
                daemon = None
            fresh_dir(directory)
            start = time.perf_counter()
            inputs = Inputs(tool, workload, seed, directory)
            if workload == "serve-mixed":
                daemon = Daemon(netrev, stderr)
            times.append(time.perf_counter() - start)
    except BaseException:
        if daemon is not None:
            daemon.stop()
        raise
    return inputs, daemon, statistics.median(times), len(times)


def latency_metrics(walls_s, ok, wall_s):
    tail_s, percentile, samples = H.tail(walls_s)
    return {
        "latency_p50_ms": (statistics.median(walls_s) * 1000, "ms"),
        "latency_tail_ms": (tail_s * 1000, "ms"),
        "throughput_ops_s": (ok / wall_s, "1/s"),
    }, f"p{percentile:.2f} of {samples} samples"


def cli_argv(workload, netrev, inputs):
    if workload == "giant-identify":
        return [netrev, "identify", inputs.paths[0], "--json", "-j", str(NPROC)]
    return [netrev, "batch", *inputs.paths, "--json", "-j", str(NPROC)]


def run_e2e(args, netrev, tool, work, stderr):
    ledger, coverage = H.Ledger(), Coverage()
    inputs, daemon, setup_s, setups = timed_setup(
        tool, netrev, args.workload, args.seed, work, stderr)
    steal_start = host_steal()
    warm_up = 0
    if args.workload == "serve-mixed":
        try:
            requests, wall = drive(daemon, inputs.paths, inputs.units,
                                   args.seconds)
            peak_rss = daemon.vm_hwm_mb()
        finally:
            daemon.stop()
        check_requests(requests, inputs, ledger, coverage)
        walls = [r.received - r.sent for r in requests]
        ops = "requests"
    else:
        argv = cli_argv(args.workload, netrev, inputs)
        check = (check_identify_child if args.workload == "giant-identify"
                 else check_batch_child)
        children, parsed = [], {}
        # One untimed, checked child first: the first child after set-up
        # runs up to about 25 % slower in some runs and not in others.
        check(Child(argv, stderr), inputs, ledger, parsed, coverage)
        warm_up = ledger.attempted
        start = time.perf_counter()
        while not children or time.perf_counter() - start < args.seconds:
            children.append(Child(argv, stderr))
            check(children[-1], inputs, ledger, parsed, coverage)
        wall = time.perf_counter() - start
        walls = [c.wall_s for c in children]
        peak_rss = max(c.max_rss_mb for c in children)
        ops = f"{argv[1]} children after {warm_up} untimed"
    steal = host_steal_pct(steal_start)
    metrics, tail_note = latency_metrics(
        walls, ledger.attempted - warm_up - ledger.failed, wall)
    metrics["peak_rss_mb"] = (peak_rss, "MB")
    metrics["setup_s"] = (setup_s, "s")
    metrics["full_found_pct"] = (coverage.pct(), "%")
    notes = {"latency_p50_ms": f"median of {len(walls)} {ops}",
             "latency_tail_ms": tail_note,
             "setup_s": f"median of {setups} set-ups",
             "full_found_pct": f"{coverage.found} of {coverage.planted} "
                               "planted words",
             "host_steal_pct": f"{steal:.1f} % of CPU time was stolen "
                               "by the hypervisor while measuring"}
    return metrics, notes, ledger


# --- the traced run --------------------------------------------------------


def serve_pass(netrev, inputs, units, seconds, stderr):
    """Untraced daemon pass: the script (or probe), then stats and rusage."""
    daemon = Daemon(netrev, stderr)
    try:
        cpu_before = daemon.cpu_s()
        requests, wall = drive(daemon, inputs.paths, units, seconds)
        cpu = daemon.cpu_s() - cpu_before
        stats = daemon.request('{"id":"stats","op":"stats"}')["result"]
    finally:
        daemon.stop()
    return requests, wall, cpu, stats["cache"]


def run_trace(args, netrev, tool, work, stderr):
    ledger, coverage = H.Ledger(), Coverage()
    in_dir, out_dir = os.path.join(work, "in"), os.path.join(work, "trace")
    fresh_dir(in_dir)
    fresh_dir(out_dir)
    inputs = Inputs(tool, args.workload, args.seed, in_dir)

    # 1. Untraced passes: the workload's own operation once, and the serve
    #    session shape over the workload's designs (the full script on
    #    serve-mixed).
    traced_paths = inputs.paths
    cli_child = None
    if args.workload == "serve-mixed":
        units = inputs.units
        requests, wall, cpu, cache = serve_pass(netrev, inputs, units,
                                                args.seconds, stderr)
        cpu_util = cpu / (wall * NPROC)
        sessions = [d for d, kind in units if kind < 0]
        traced_paths = [inputs.paths[d]
                        for d in sessions[:TRACED_SERVE_SESSIONS]]
    else:
        cli_child = Child(cli_argv(args.workload, netrev, inputs), stderr)
        check = (check_identify_child if args.workload == "giant-identify"
                 else check_batch_child)
        check(cli_child, inputs, ledger, {}, coverage)
        cpu_util = cli_child.cpu_s / (cli_child.wall_s * NPROC)
        units = [[d, -1] for d in range(len(inputs.paths))]
        requests, wall, _, cache = serve_pass(netrev, inputs, units, None,
                                              stderr)
    check_requests(requests, inputs, ledger, coverage)

    # 2. The traced in-process run, replaying the requests just sent.
    script = os.path.join(out_dir, "script.ndjson")
    with open(script, "w") as handle:
        handle.writelines(r.line + "\n" for r in requests)
    entry_jobs = 1 if args.workload == "family-batch" else NPROC
    traced = subprocess.run(
        [tool, "trace", "--out", out_dir, "--jobs", str(NPROC),
         "--entry-jobs", str(entry_jobs), "--script", script, *traced_paths],
        env=ENV)
    if traced.returncode != 0:
        raise BenchError("traced run failed")
    with open(os.path.join(out_dir, "trace.json")) as handle:
        trace = json.load(handle)
    with open(os.path.join(out_dir, "spans.jsonl")) as handle:
        spans = [json.loads(line) for line in handle]

    # 3. Checks: the replay agrees with the trace, the in-process bytes with
    #    the CLI's and the daemon's.
    for design in trace["designs"]:
        ledger.attempt(design["replay_error"] or None)
    if args.workload == "giant-identify":
        with open(os.path.join(out_dir, "identify_0.json"), "rb") as handle:
            same = handle.read() == cli_child.out
        ledger.attempt(None if same else
                       "in-process identify_json differs from the CLI bytes")
    replayed = replayed_digests(os.path.join(out_dir, "responses.ndjson"))
    for req in requests:
        ledger.attempt(
            None if replayed.get(req.rid) == req.digest
            else f"{req.rid}: in-process Executor bytes differ from the daemon")

    metrics, notes = layer_metrics(spans, trace, requests, cpu_util, cache,
                                   args.workload)
    return metrics, notes, ledger, spans


def replayed_digests(path):
    """Request id -> body digest of each in-process Executor response."""
    digests = {}
    with open(path, "rb") as handle:
        for line in handle:
            line = line.rstrip(b"\n")
            digests[H.response_id(line)] = H.body_digest(line)
    return digests


def layer_metrics(spans, trace, requests, cpu_util, cache, workload):
    table = H.span_table(spans)

    def total(name):
        return table.get(name, {"total_s": 0.0})["total_s"]

    replay = ("grouping", "hashing", "matching", "control", "propagate",
              "rehash")
    # Per design, perfbench_tool runs untraced identify + replay pairs back
    # to back; pair k of every design is repetition k, and each metric below
    # is the median over repetitions of its sum over the designs.
    replays = H.repetitions(spans, "wordrec.replay")
    jobs1 = [r["common.identify_jobs1"]
             for r in H.repetitions(spans, "common.identify_jobs1")]

    def replayed(name):
        return statistics.median(r.get(name, 0.0) for r in replays)

    other = statistics.median(
        untraced - sum(r.get(f"wordrec.{name}", 0.0) for name in replay)
        for untraced, r in zip(jobs1, replays))
    designs = trace["designs"]
    trials = sum(d["trials_replayed"] for d in designs)
    unified = sum(d["stats"]["unified_subgroups"] for d in designs)
    nets = sum(d["nets_assigned"] for d in designs)

    # Largest per-entry sum of the entry's layer spans.
    per_entry = {}
    for span in spans:
        if span["parent"] >= 0 and spans[span["parent"]]["name"] == "entry":
            per_entry[span["entry"]] = per_entry.get(span["entry"], 0) + (
                span["end_ns"] - span["start_ns"]) / 1e9

    execute_ms = {s["entry"]: (s["end_ns"] - s["start_ns"]) / 1e6
                  for s in spans if s["name"] == "pipeline.execute"}
    rtt_ms = {r.rid: (r.received - r.sent) * 1000 for r in requests}
    seen, cold, warm, by_op = set(), [], [], {}
    for req in requests:
        key = (req.design, req.op, json.dumps(req.options, sort_keys=True))
        (warm if key in seen else cold).append(rtt_ms[req.rid])
        seen.add(key)
        by_op.setdefault(req.op, []).append(rtt_ms[req.rid])

    if workload == "serve-mixed":
        hit_ratio = cache["hits"] / (cache["hits"] + cache["misses"])
    else:
        session = trace["session_cache"]
        hit_ratio = session["hits"] / (session["hits"] + session["misses"])

    metrics = {
        "parser.load_s": (total("parser.load"), "s"),
        "netlist.compact_s": (total("netlist.compact"), "s"),
    }
    for name in replay:
        metrics[f"wordrec.{name}_s"] = (replayed(f"wordrec.{name}"), "s")
    metrics.update({
        "wordrec.other_s": (other, "s"),
        "wordrec.trials": (trials, "count"),
        "wordrec.unify_per_trial": (unified / trials if trials else 0.0,
                                    "ratio"),
        "wordrec.nets_per_trial": (nets / trials if trials else 0.0, "count"),
        "common.pool_efficiency": (statistics.median(jobs1) / (
            NPROC * total("common.identify_jobsN")), "ratio"),
        "jsonout.render_s": (total("jsonout.render"), "s"),
        "analysis.lint_s": (total("analysis.lint"), "s"),
        "wordrec.total_s": (total("wordrec.total"), "s"),
        "lift.lift_s": (total("lift.lift"), "s"),
        "eval.evaluate_s": (total("eval.evaluate"), "s"),
        "pipeline.batch_critical_s": (max(per_entry.values()), "s"),
        "pipeline.batch_cpu_util": (cpu_util, "ratio"),
        "pipeline.cache_hit_ratio": (hit_ratio, "ratio"),
        "pipeline.cache_wasted": (
            cache["misses"] - cache["entries"] - cache["evictions"], "count"),
        "pipeline.serve_cold_ms": (statistics.median(cold), "ms"),
        "pipeline.serve_warm_ms": (statistics.median(warm), "ms"),
    })
    for op in ("identify", "lift", "evaluate", "lint"):
        metrics[f"pipeline.serve_{op}_ms"] = (statistics.median(by_op[op]), "ms")
    metrics["pipeline.executor_ms"] = (statistics.median(execute_ms.values()), "ms")
    metrics["pipeline.serve_overhead_ms"] = (statistics.median(
        rtt_ms[rid] - execute_ms[rid] for rid in rtt_ms if rid in execute_ms),
        "ms")

    # What the replay spends outside the layer calls it times: span
    # recording, walking the trace, the checks.  (Traced minus untraced
    # identify_words would not measure it: the untraced one evaluates trials
    # in chunks of 8, up to 7 more per unified subgroup.)
    overhead = statistics.median(
        r["wordrec.replay"] - sum(r.get(f"wordrec.{name}", 0.0)
                                  for name in replay)
        for r in replays)
    notes = {
        "wordrec.trials": f"{len(designs)} traced design(s)",
        "wordrec.other_s": f"median of {len(replays)} untraced identify_words "
                           "(jobs 1) minus replay pairs",
        "pipeline.serve_cold_ms": f"median of {len(cold)} first-touch requests",
        "pipeline.serve_warm_ms": f"median of {len(warm)} repeat requests",
        "pipeline.executor_ms": f"median of {len(execute_ms)} requests",
        "trace.overhead_s": f"{overhead:.4f} s (replay time outside the "
                            "layer spans, median of the pairs)",
    }
    return metrics, notes


# --- main ------------------------------------------------------------------


def print_result(metrics, notes, ledger, spans=None):
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:28s} {value:14.4f} {unit:6s} {note}")
    for name, note in notes.items():
        if name not in metrics:
            print(f"  {name:28s} {note}")
    if spans is not None:
        print(f"  {'span':28s} {'count':>8s} {'total_s':>10s} {'self_s':>10s}"
              f" {'cpu_s':>10s}")
        for name, row in sorted(H.span_table(spans).items()):
            print(f"  {name:28s} {row['count']:8d} {row['total_s']:10.4f} "
                  f"{row['self_s']:10.4f} {row['cpu_s']:10.4f}")
    rate = ledger.failed / ledger.attempted
    print(f"  {'error_rate':28s} {rate:14.4f} ratio  "
          f"({ledger.failed} failed of {ledger.attempted} attempted)")
    for error in ledger.errors:
        print(f"  FAILED: {error}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        netrev, tool = build(build_root)
        work = os.path.join(build_root, "work", args.workload)
        os.makedirs(work, exist_ok=True)
        print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
              f"nproc {NPROC} seconds {args.seconds:g}", flush=True)
        with open(os.path.join(work, "netrev.log"), "ab") as stderr:
            if args.trace:
                metrics, notes, ledger, spans = run_trace(
                    args, netrev, tool, work, stderr)
            else:
                metrics, notes, ledger = run_e2e(
                    args, netrev, tool, os.path.join(work, "in"), stderr)
                spans = None
    except (BenchError, OSError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print_result(metrics, notes, ledger, spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
