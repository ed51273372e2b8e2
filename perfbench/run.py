#!/usr/bin/env python3
"""Serve-path benchmark for `bursthist_cli serve`.

Usage (from the repository root):
  python3 perfbench/run.py --workload firehose|olympic_sharded|dashboard
                           --seed N --seconds S --trace 0|1

Builds the program and perfbench_tool from source into .bench_build/,
generates the workload from the seed (perfbench_tool prepare), launches
`bursthist_cli serve` as its own process and drives it from this one
client process through four phases: ingest with a midway CHECKPOINT
(the dashboard workload adds a polling second connection), fresh reads,
warm pipelined reads, and SIGKILL + relaunch. Every served reply is
checked against the in-process reference byte for byte; any failed
check makes the run exit 1. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

With --trace 1 the run instead replays the same arrival order and query
set in-process (perfbench_tool trace) and reports the per-layer
metrics. README.md documents the workloads and metrics.
"""

import argparse
import json
import os
import re
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_BUILD = os.path.join(BUILD, "cmake")
CLI = os.path.join(CMAKE_BUILD, "bursthist", "examples", "bursthist_cli")
TOOL = os.path.join(CMAKE_BUILD, "perfbench_tool")
WORKLOADS = ("firehose", "olympic_sharded", "dashboard")
BUILD_TYPE = "Release"

SETUP_LAUNCHES = 45     # set-up time is the median of this many launches,
                        # made in INGESTS groups spread over the run
INGESTS = 5             # ingest phases per run, on fresh servers, spread in
                        # time; ingest_rps is the median of their rates, and
                        # recovery_s the median of the INGESTS - 1 restarts
                        # between them
WARM_SHARE = 0.3        # share of --seconds for each warm read metric
WARM_SLICES = 16        # warm reads alternate POINT and scan slices; the
                        # qps metrics are medians over the slices
PAYLOAD_QUERIES = 512   # queries in one pipelined payload
IO_TIMEOUT_S = 60.0

class BenchError(Exception):
    """A failed correctness check or a broken run."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def metric_units(kind):
    """Name -> unit of the "end_to_end" or "per_layer" metrics that
    BENCHMARK.json, beside perfbench/, defines."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


# --------------------------------------------------------------------------
# Build.

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise SystemExit("perfbench: the repository sources are not beside "
                         "perfbench/; nothing to build")
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(CMAKE_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_BUILD,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", CMAKE_BUILD,
                  "--parallel", str(os.cpu_count() or 1)])
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                with open(build_log) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise SystemExit("perfbench: build failed (see %s)" % build_log)


# --------------------------------------------------------------------------
# The server process.

class Server:
    """One `bursthist_cli serve` process on an ephemeral port."""

    def __init__(self, prep, data_dir, log_path):
        self.args = [CLI, "serve", data_dir, str(prep["universe"]),
                     "--port", "0", "--budget-mb", str(prep["budget_mb"]),
                     "--lateness", str(prep["lateness"])]
        if prep["shards"] > 1:
            self.args += ["--shards", str(prep["shards"])]
        self.log_path = log_path
        self.proc = None
        self.port = None

    def start(self):
        """Launches the server; returns the seconds until the first PONG."""
        t0 = time.perf_counter()
        with open(self.log_path, "a") as err:
            self.proc = subprocess.Popen(self.args, stdout=subprocess.PIPE,
                                         stderr=err)
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        if not sel.select(IO_TIMEOUT_S):
            raise BenchError("serve did not report its port")
        sel.close()
        line = self.proc.stdout.readline().decode()
        m = re.match(r"listening on [\d.]+:(\d+)", line)
        if not m:
            raise BenchError("unexpected serve banner: %r" % line)
        self.port = int(m.group(1))
        with connect(self.port) as sock:
            reply = request(sock, b"PING\n", 1)[0]
        if reply != b"PONG":
            raise BenchError("PING answered %r" % reply)
        return time.perf_counter() - t0

    def kill(self):
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        if self.proc is not None:
            self.proc.wait()
            self.proc.stdout.close()
        self.proc = None

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server")


def connect(port):
    sock = socket.create_connection(("127.0.0.1", port), timeout=IO_TIMEOUT_S)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def request(sock, payload, n_lines):
    """Sends payload, returns the next n_lines reply lines."""
    sock.sendall(payload)
    buf = bytearray()
    while buf.count(b"\n") < n_lines:
        chunk = sock.recv(1 << 16)
        if not chunk:
            raise BenchError("server closed the connection")
        buf += chunk
    lines = bytes(buf).split(b"\n")
    if len(lines) != n_lines + 1 or lines[-1]:
        raise BenchError("more replies than requests")
    return lines[:-1]


# --------------------------------------------------------------------------
# Checks and accounting.

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)

    def errors_in(self, replies):
        errs = [r for r in replies if r.startswith(b"ERR")]
        self.failed += len(errs)
        self.check(not errs, "ERR replies: %r" % errs[:3])


def watermark_of(reply):
    m = re.search(rb" watermark=(-?\d+)", reply)
    return int(m.group(1)) if m else None


def percentile(values, q):
    """statistics.quantiles' exclusive method, q in (0, 100)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[int(q) - 1]


# --------------------------------------------------------------------------
# Phase 1: ingest, W batches in flight on one connection, CHECKPOINT
# after the midway batch (first phase only: the later, repeated phases
# skip it, so the few acks stalled behind it stay well under 1 % of a
# run's acks and p99 measures the steady tail, not whether one more of
# them lands beyond it); optionally a second connection polling a query
# set, closed loop, after every `poll_every` acked batches (the
# dashboard). Polls are paced by ingest progress rather than a think
# time: with a think time a slower box polls more often per record, and
# that feedback tripled the run-to-run spread of ingest_rps.

def ingest_phase(port, batches, batch_newest, prep, tally, checkpoint, poll_set=None):
    ok_line = b"OK\n"
    window = prep["window"]
    ckpt = prep["checkpoint_batch"] if checkpoint else 0
    payloads, ends, total = [], [], 0
    for i, b in enumerate(batches):
        n = b.count(b"\n")
        if i + 1 == ckpt:
            b += b"CHECKPOINT\n"
            n += 1
        payloads.append(b)
        total += n * len(ok_line)
        ends.append(total)
    tally.attempted += sum(p.count(b"\n") for p in payloads)

    sel = selectors.DefaultSelector()
    ing = connect(port)
    ing.setblocking(False)
    sel.register(ing, selectors.EVENT_READ, "ingest")
    out = bytearray()
    received = 0
    bad = bytearray()        # received bytes that are not "OK\n" lines
    tail = b""               # a reply line split across recv calls
    sent, acked = 0, 0
    send_at, ack_ms = [0.0] * len(payloads), []
    newest_acked = -1

    poller = None
    poll_ms = []
    if poll_set is not None:
        poller = connect(port)
        poller.setblocking(False)
        sel.register(poller, selectors.EVENT_READ, "poll")
        poll_payload = "".join(q + "\n" for q in poll_set).encode()
        poll_n = len(poll_set)
        poll_state = {"next": prep["poll_every"], "sent": None, "buf": bytearray(),
                      "low": -1}

    t_start = time.perf_counter()
    writing = False
    while acked < len(payloads):
        now = time.perf_counter()
        while sent < len(payloads) and sent - acked < window:
            out += payloads[sent]
            send_at[sent] = now
            sent += 1
        if out:
            try:
                n = ing.send(out)
                del out[:n]
            except BlockingIOError:
                pass
        want = selectors.EVENT_READ | (selectors.EVENT_WRITE if out else 0)
        if writing != bool(out):
            sel.modify(ing, want, "ingest")
            writing = bool(out)
        if poller is not None and poll_state["sent"] is None and acked >= poll_state["next"]:
            poller.sendall(poll_payload)
            tally.attempted += poll_n
            poll_state["sent"] = now
            poll_state["low"] = newest_acked
            poll_state["next"] += prep["poll_every"]
        events = sel.select(IO_TIMEOUT_S)
        if not events:
            raise BenchError("ingest stalled")
        now = time.perf_counter()
        for key, _ in events:
            if key.data == "ingest":
                try:
                    chunk = ing.recv(1 << 20)
                except BlockingIOError:
                    continue
                if not chunk:
                    raise BenchError("server closed the ingest connection")
                received += len(chunk)
                data = tail + chunk
                cut = data.rfind(b"\n") + 1
                tail = data[cut:]
                whole = data[:cut]
                if whole.count(ok_line) * len(ok_line) != len(whole):
                    bad += b"".join(l + b"\n" for l in whole.split(b"\n")[:-1]
                                    if l != b"OK")
                while acked < sent and received >= ends[acked]:
                    ack_ms.append((now - send_at[acked]) * 1e3)
                    newest_acked = max(newest_acked, batch_newest[acked])
                    acked += 1
            else:
                chunk = poller.recv(1 << 20)
                if not chunk:
                    raise BenchError("server closed the poll connection")
                poll_state["buf"] += chunk
                if poll_state["buf"].count(b"\n") >= poll_n:
                    replies = bytes(poll_state["buf"]).split(b"\n")[:-1]
                    poll_state["buf"].clear()
                    poll_ms.append((now - poll_state["sent"]) * 1e3)
                    tally.errors_in(replies)
                    high = batch_newest[sent - 1]
                    for r in replies:
                        wm = watermark_of(r)
                        tally.check(wm is not None and poll_state["low"] <= wm <= high,
                                    "poll watermark %r outside [%d, %d]"
                                    % (wm, poll_state["low"], high))
                    poll_state["sent"] = None
        if received > total:
            raise BenchError("more ingest replies than requests")
    wall = time.perf_counter() - t_start
    if poller is not None:
        # Let an outstanding poll finish so its replies are not left in
        # flight; its latency still counts.
        poller.setblocking(True)
        if poll_state["sent"] is not None:
            while poll_state["buf"].count(b"\n") < poll_n:
                poll_state["buf"] += poller.recv(1 << 16)
            poll_ms.append((time.perf_counter() - poll_state["sent"]) * 1e3)
            tally.errors_in(bytes(poll_state["buf"]).split(b"\n")[:-1])
        poller.close()
    sel.close()
    ing.setblocking(True)
    if bad:
        errs = bad.split(b"\n")[:-1]
        tally.failed += sum(1 for l in errs if l.startswith(b"ERR"))
        tally.check(False, "ingest replies other than OK: %r" % errs[:3])
    return ing, wall, ack_ms, poll_ms


# --------------------------------------------------------------------------
# Phases 2 and 3: fresh reads and warm pipelined reads.

def fresh_reads(sock, prep, tally):
    """Each fresh read: a small ADD batch, then the dashboard query set;
    timed from the batch's ack until the set's last reply."""
    latencies = []
    for i, fresh in enumerate(prep["fresh"]):
        add = fresh["lines"].encode()
        n_add = add.count(b"\n")
        tally.attempted += n_add
        replies = request(sock, add, n_add)
        tally.errors_in(replies)
        t_ack = time.perf_counter()
        queries = "".join(q + "\n" for q in fresh["queries"]).encode()
        tally.attempted += len(fresh["queries"])
        replies = request(sock, queries, len(fresh["queries"]))
        latencies.append((time.perf_counter() - t_ack) * 1e3)
        tally.errors_in(replies)
        for r in replies:
            tally.check(watermark_of(r) == fresh["newest"],
                        "fresh read %d: watermark of %r is not %d"
                        % (i, r[:60], fresh["newest"]))
        if i + 1 == len(prep["fresh"]):
            expected = [r.encode() for r in prep["last_fresh_replies"]]
            tally.check(replies == expected, "last fresh read differs from the reference")
    return latencies


def pipelined(sock, lines, replies, seconds, tally):
    """Cycles through the query list in payloads of PAYLOAD_QUERIES,
    two payloads in flight, until `seconds` pass; checks every reply
    byte for byte. Returns (replies, seconds taken)."""
    reps = -(-PAYLOAD_QUERIES // len(lines))
    lines, replies = lines * reps, replies * reps
    payloads = []
    for i in range(0, len(lines), PAYLOAD_QUERIES):
        payloads.append(("".join(q + "\n" for q in lines[i:i + PAYLOAD_QUERIES]).encode(),
                         "".join(r + "\n" for r in replies[i:i + PAYLOAD_QUERIES]).encode(),
                         len(lines[i:i + PAYLOAD_QUERIES])))
    buf = bytearray()
    in_flight = []
    done, nxt = 0, 0
    t0 = time.perf_counter()
    deadline = t0 + seconds
    while True:
        while len(in_flight) < 2 and time.perf_counter() < deadline:
            payload, expected, n = payloads[nxt % len(payloads)]
            nxt += 1
            sock.sendall(payload)
            tally.attempted += n
            in_flight.append((expected, n))
        if not in_flight:
            break
        expected, n = in_flight.pop(0)
        while len(buf) < len(expected):
            chunk = sock.recv(1 << 20)
            if not chunk:
                raise BenchError("server closed the query connection")
            buf += chunk
        got = bytes(buf[:len(expected)])
        del buf[:len(expected)]
        if got != expected:
            tally.errors_in(got.split(b"\n"))
            raise BenchError("served replies differ from the reference")
        done += n
    return done, time.perf_counter() - t0


def accuracy(prep):
    """Mean absolute POINT error and mean BEVENT F1 of the served (and
    reference-identical) replies against ExactBurstStore."""
    errs = []
    for reply, exact in zip(prep["point_replies"], prep["point_exact"]):
        errs.append(abs(float(reply.split()[1]) - exact))
    f1s = []
    for reply, truth in zip(prep["scan_replies"], prep["scan_truth"]):
        if truth is None:
            continue
        parts = reply.split()
        got = set(int(x) for x in parts[2:2 + int(parts[1])])
        want = set(truth)
        hit = len(got & want)
        f1s.append(0.0 if hit == 0 else 2.0 * hit / (len(got) + len(want)))
    return statistics.fmean(errs), statistics.fmean(f1s)


def stats_total(sock):
    reply = request(sock, b"STATS\n", 1)[0].decode()
    fields = dict(kv.split("=", 1) for kv in reply.split()[1:] if "=" in kv)
    return int(fields["total"]) + int(fields["buffered"])


def dir_bytes(path):
    total = 0
    for base, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


# --------------------------------------------------------------------------
# One end-to-end run.

def served_run(prep, work, seconds):
    """Set-up, then INGESTS ingest phases on fresh servers, each followed
    by the fresh reads. The first server also runs the warm reads and the
    restarts; warm slices, restarts and the later ingests are
    interleaved, so each timed phase spans most of the run and
    second-scale drift of the box averages out."""
    tally = Tally()
    m = {}
    log_path = os.path.join(work, "serve.log")

    # Set-up: launch on an empty directory until the first PONG. Set-up
    # fsyncs new files and directories, so it follows the disk's latency;
    # the launches are spread over the run like the other phases.
    setups = []

    def setup_group():
        for _ in range(SETUP_LAUNCHES // INGESTS):
            path = os.path.join(work, "setup-%d" % len(setups))
            srv = Server(prep, path, log_path)
            try:
                setups.append(srv.start())
                tally.attempted += 1
            finally:
                srv.kill()
                shutil.rmtree(path, ignore_errors=True)

    setup_group()

    with open(os.path.join(work, "ingest.txt"), "rb") as f:
        raw = f.read()
    ends = prep["batch_ends"]
    batches = [raw[a:b] for a, b in zip([0] + ends[:-1], ends)]
    batch_newest = prep["batch_newest"]
    del raw
    poll_set = prep["dash_set"] if prep["poll_every"] else None
    ingest = {"rates": [], "acks": [], "polls": [], "fresh": []}

    def run_ingest(srv, checkpoint):
        """One ingest phase, then (without a poller) the fresh reads, so
        that those too are spread over the run."""
        sock, wall, acks, polls = ingest_phase(
            srv.port, batches, batch_newest, prep, tally, checkpoint, poll_set)
        ingest["rates"].append(prep["ingest_records"] / wall)
        log("ingest phase: %.0f records/s" % ingest["rates"][-1])
        ingest["acks"] += acks
        ingest["polls"] += polls
        if not prep["poll_every"]:
            ingest["fresh"] += fresh_reads(sock, prep, tally)
        return sock

    def extra_ingest(i):
        srv = Server(prep, os.path.join(work, "data-%d" % i), log_path)
        try:
            srv.start()
            tally.attempted += 1
            run_ingest(srv, False).close()
        finally:
            srv.kill()
            shutil.rmtree(os.path.join(work, "data-%d" % i), ignore_errors=True)

    warm = {"point": [], "scan": []}    # replies per second, per slice

    def warm_slices(sock, n):
        for i in range(n):
            kind, lines, replies = (("point", prep["points"], prep["point_replies"])
                                    if i % 2 == 0 else
                                    ("scan", prep["scans"], prep["scan_replies"]))
            done, took = pipelined(sock, lines, replies,
                                   2 * WARM_SHARE * seconds / WARM_SLICES, tally)
            warm[kind].append(done / took)

    data = os.path.join(work, "data")
    srv = Server(prep, data, log_path)
    dash = "".join(q + "\n" for q in prep["dash_set"]).encode()
    recoveries = []

    def restart():
        """SIGKILL after the last ack, relaunch on the same directory,
        first PONG."""
        t0 = time.perf_counter()
        srv.kill()
        srv.start()
        tally.attempted += 1
        recoveries.append(time.perf_counter() - t0)

    try:
        srv.start()
        tally.attempted += 1
        sock = run_ingest(srv, True)
        records = prep["ingest_records"] + sum(f["lines"].count("\n") for f in prep["fresh"])

        # State before the first kill.
        tally.attempted += 1 + len(prep["dash_set"])
        acked_total = stats_total(sock)
        tally.check(acked_total == records == prep["reference_total"],
                    "STATS total %d, acked %d, reference %d"
                    % (acked_total, records, prep["reference_total"]))
        before = request(sock, dash, len(prep["dash_set"]))
        tally.check(before == [r.encode() for r in prep["dash_replies"]],
                    "dashboard set differs from the reference before the kill")
        m["peak_rss_mb"] = srv.peak_rss_mb()
        m["disk_bytes_per_record"] = dir_bytes(data) / records

        # Warm reads against the unchanged final state, restarts and the
        # later ingests, interleaved. Every block of warm slices starts
        # with one untimed query that pays the snapshot refresh.
        per_block = WARM_SLICES // (INGESTS - 1)
        for i in range(1, INGESTS):
            if sock is None:
                sock = connect(srv.port)
            tally.attempted += 1
            tally.errors_in(request(sock, (prep["points"][0] + "\n").encode(), 1))
            warm_slices(sock, per_block)
            sock.close()
            sock = None
            restart()
            extra_ingest(i)
            setup_group()
        with connect(srv.port) as sock:
            tally.attempted += 1 + len(prep["dash_set"])
            after_total = stats_total(sock)
            tally.check(after_total == records,
                        "after restart STATS total %d, acked %d" % (after_total, records))
            after = request(sock, dash, len(prep["dash_set"]))
            tally.check(after == before, "replies after restart differ from before the kill")
    except (OSError, socket.timeout) as e:
        tally.failed += 1
        raise BenchError("connection failure: %s" % e)
    finally:
        srv.kill()

    m["setup_s"] = statistics.median(setups)
    m["ingest_rps"] = statistics.median(ingest["rates"])
    m["ack_p50_ms"] = statistics.median(ingest["acks"])
    m["ack_p99_ms"] = percentile(ingest["acks"], 99)
    m["fresh_read_p50_ms"] = statistics.median(
        ingest["polls"] if prep["poll_every"] else ingest["fresh"])
    m["point_qps"] = statistics.median(warm["point"])
    m["scan_qps"] = statistics.median(warm["scan"])
    m["recovery_s"] = statistics.median(recoveries)
    m["point_err_mean"], m["bevent_f1"] = accuracy(prep)
    return tally, m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    work = os.path.join(BUILD, "work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if args.trace:
            proc = subprocess.run([TOOL, "trace", args.workload, str(args.seed), work],
                                  stdout=subprocess.PIPE, text=True)
            spans = os.path.join(work, "spans.tsv")
            if os.path.exists(spans):
                shutil.copy(spans, os.path.join(
                    BUILD, "spans-%s-%d.tsv" % (args.workload, args.seed)))
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            problems = out["problems"] + ([] if proc.returncode == 0 else
                                          ["perfbench_tool exited %d" % proc.returncode])
            attempted, failed = out["attempted"], out["failed"]
            values = out["metrics"]
            units = metric_units("per_layer")
            context = {}
        else:
            if subprocess.run([TOOL, "prepare", args.workload, str(args.seed), work]).returncode:
                raise SystemExit("perfbench: perfbench_tool prepare failed")
            with open(os.path.join(work, "prepared.json")) as f:
                prep = json.load(f)
            try:
                tally, values = served_run(prep, work, args.seconds)
                problems = tally.problems
            except BenchError as e:
                log("perfbench: %s" % e)
                raise SystemExit(1)
            attempted, failed = tally.attempted, tally.failed
            units = metric_units("end_to_end")
            context = {"nproc": os.cpu_count(), "build_type": BUILD_TYPE,
                       "calibration_ms": prep["calibration_ms"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = sorted(set(units) - set(values))
    if missing:
        problems = problems + ["missing metrics: %s" % ", ".join(missing)]
    for p in problems:
        log("perfbench: check failed: %s" % p)
    for name in units:
        if name in values:
            print("%-32s %16.6g %s" % (name, values[name], units[name]))
    if context:
        print("context " + json.dumps(context))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()
                    if k in values},
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
