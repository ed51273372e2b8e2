#!/usr/bin/env python3
"""End-to-end smoke test for WAL-shipping replication + failover.

Boots a leader (`serve --repl-port`) and a follower (`serve
--follow`), feeds the first half of a deterministic stream to the
leader over the wire, waits for the follower to apply all of it,
SIGKILLs the leader, PROMOTEs the follower, feeds it the second
half, and then checks that every query type answered by the promoted
follower agrees with an offline CLI pipeline (`ingest` +
`point`/`times`/`events`, `store-save` + `store-topk`) fed the whole
stream. Along the way it verifies the follower wire behavior (writes
refused with UNAVAILABLE, `lag=` stamps, STATS roles), scrapes the
replication metrics, and exercises a clean SIGTERM shutdown.

A second leg runs a cascade of 2-shard servers: a leader, a follower
that re-ships what it applies (`--follow` with `--repl-port`), and a
follower of that follower. The whole stream goes to the leader; the
end of the cascade must apply all of it and answer every POINT with
the leader's bytes.

Usage: tools/replication_smoke.py <path-to-bursthist_cli>
Stdlib only; exits non-zero on the first mismatch.
"""

import os
import random
import signal
import socket
import subprocess
import sys
import tempfile
import time

UNIVERSE = 8
N_RECORDS = 400
TAU = 16
THETA = 2.0
TOP_K = 3
CONVERGE_DEADLINE_S = 60


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def make_stream(seed=20260808):
    rng = random.Random(seed)
    records, t = [], 0
    for _ in range(N_RECORDS):
        t += rng.randrange(3)
        e = rng.randrange(UNIVERSE)
        records.append((e, t))
        # A hot event so BEVENT/TOPK have something to report.
        if 100 <= t < 140:
            records.append((3, t))
    return records


def free_port(count=1):
    """A port p with p .. p + count - 1 free (shard i ships on p + i)."""
    for _ in range(50):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            base = s.getsockname()[1]
        try:
            for i in range(1, count):
                with socket.socket() as s:
                    s.bind(("127.0.0.1", base + i))
            return base
        except OSError:
            continue
    fail(f"no {count} adjacent free ports")


def run_cli(cli, *args):
    proc = subprocess.run([cli, *args], capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"cli {' '.join(args)} exited {proc.returncode}: {proc.stderr}")
    return proc.stdout


class LineClient:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.buf = b""

    def request(self, line):
        self.sock.sendall(line.encode() + b"\n")
        return self.read_line()

    def read_line(self):
        while b"\n" not in self.buf:
            chunk = self.sock.recv(4096)
            if not chunk:
                fail(f"server closed connection (buffer: {self.buf!r})")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode().rstrip("\r")


def strip_lag(parts):
    """Replica-served replies carry a trailing 'lag=<n>' token."""
    if parts and parts[-1].startswith("lag="):
        return parts[:-1]
    return parts


def parse_value_reply(reply):
    # "VALUE <v> watermark=<w> bound=<b>[ lag=<n>]"
    parts = strip_lag(reply.split())
    if parts[0] != "VALUE" or len(parts) != 4:
        fail(f"malformed VALUE reply: {reply}")
    return float(parts[1])


def serve_banner(proc, prefix):
    # "listening on h:p" / "replicating on h:p" / "following h:p"
    line = proc.stdout.readline().strip()
    if not line.startswith(prefix + " "):
        fail(f"unexpected serve banner (wanted '{prefix} ...'): {line!r}")
    return int(line.rsplit(":", 1)[1])


def scrape_metrics(port):
    with socket.create_connection(("127.0.0.1", port), timeout=10) as raw:
        raw.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
        http = b""
        while True:
            chunk = raw.recv(4096)
            if not chunk:
                break
            http += chunk
    text = http.decode()
    if not text.startswith("HTTP/1.0 200 OK"):
        fail(f"/metrics scrape failed: {text[:80]!r}")
    return text


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    cli = sys.argv[1]
    records = make_stream()
    first, second = records[: len(records) // 2], records[len(records) // 2:]
    workdir = tempfile.mkdtemp(prefix="bursthist_repl_smoke_")
    csv_path = os.path.join(workdir, "events.csv")
    sketch_path = os.path.join(workdir, "gt.sketch")
    store_dir = os.path.join(workdir, "store")
    leader_dir = os.path.join(workdir, "leader")
    follower_dir = os.path.join(workdir, "follower")
    os.makedirs(store_dir)
    with open(csv_path, "w") as f:
        for e, t in records:
            f.write(f"{e},{t}\n")

    # ---- Offline ground truth: the WHOLE stream through the CLI ----
    run_cli(cli, "ingest", csv_path, str(UNIVERSE), sketch_path)
    run_cli(cli, "store-save", store_dir, "gt", csv_path, str(UNIVERSE))
    t_max = max(t for _, t in records)

    gt_point = {
        e: float(run_cli(cli, "point", sketch_path, str(e), str(t_max),
                         str(TAU)).strip())
        for e in range(UNIVERSE)
    }
    gt_times = {}
    for e in range(UNIVERSE):
        out = run_cli(cli, "times", sketch_path, str(e), str(THETA), str(TAU))
        gt_times[e] = [tuple(map(int, ln.split())) for ln in out.splitlines() if ln]
    out = run_cli(cli, "events", sketch_path, str(t_max), str(THETA), str(TAU))
    gt_events = sorted(int(ln.split()[0]) for ln in out.splitlines() if ln)
    out = run_cli(cli, "store-topk", store_dir, "gt", str(t_max), str(TOP_K),
                  str(TAU))
    gt_topk = [(int(ln.split()[0]), float(ln.split()[1]))
               for ln in out.splitlines() if ln]

    # ---- Leader + follower ----
    repl_port = free_port()
    leader = subprocess.Popen(
        [cli, "serve", leader_dir, str(UNIVERSE), "--repl-port",
         str(repl_port)],
        stdout=subprocess.PIPE, text=True)
    follower = None
    try:
        leader_port = serve_banner(leader, "listening on")
        serve_banner(leader, "replicating on")

        follower = subprocess.Popen(
            [cli, "serve", follower_dir, str(UNIVERSE), "--follow",
             f"127.0.0.1:{repl_port}"],
            stdout=subprocess.PIPE, text=True)
        follower_port = serve_banner(follower, "listening on")
        serve_banner(follower, "following")

        lc = LineClient(leader_port)
        if lc.request("PING") != "PONG":
            fail("leader PING did not answer PONG")
        for e, t in first:
            reply = lc.request(f"ADD {e} {t}")
            if reply != "OK":
                fail(f"leader ADD {e} {t} -> {reply}")
        stats = lc.request("STATS")
        if f"accepted={len(first)}" not in stats:
            fail(f"leader STATS disagrees on accepted count: {stats}")

        # Follower refuses writes and owns up to its role.
        fc = LineClient(follower_port)
        reply = fc.request("ADD 0 0")
        if not reply.startswith("ERR UNAVAILABLE"):
            fail(f"follower ADD not refused with UNAVAILABLE: {reply}")
        # Wait for it to apply everything the leader accepted.
        deadline = time.monotonic() + CONVERGE_DEADLINE_S
        while True:
            stats = fc.request("STATS")
            if f"applied={len(first)}" in stats:
                break
            if time.monotonic() > deadline:
                fail(f"follower never converged: {stats}")
            time.sleep(0.05)
        if "role=follower" not in stats:
            fail(f"follower STATS missing role: {stats}")
        reply = fc.request(f"POINT 0 {t_max} {TAU}")
        if " lag=" not in reply:
            fail(f"follower reply missing lag stamp: {reply}")

        metrics = scrape_metrics(follower_port)
        if f"bursthist_repl_applied_records_total {len(first)}" not in metrics:
            fail("follower /metrics disagrees on applied records")

        # ---- Failover: kill the leader dead, promote the follower ----
        leader.kill()
        leader.wait(timeout=20)
        if fc.request("PROMOTE") != "OK":
            fail("PROMOTE did not answer OK")
        reply = fc.request("PROMOTE")
        if not reply.startswith("ERR FAILED_PRECONDITION"):
            fail(f"second PROMOTE not refused: {reply}")
        stats = fc.request("STATS")
        if "role=leader" not in stats:
            fail(f"promoted STATS still not a leader: {stats}")
        for e, t in second:
            reply = fc.request(f"ADD {e} {t}")
            if reply != "OK":
                fail(f"promoted ADD {e} {t} -> {reply}")

        # ---- Every query type vs offline ground truth ----
        # The CLI prints %.2f; the wire prints full precision. Both
        # compute the identical double, so agreement to half a
        # hundredth is exact modulo the CLI's rounding.
        def close(a, b):
            return abs(a - b) <= 0.005 + 1e-9

        for e in range(UNIVERSE):
            got = parse_value_reply(fc.request(f"POINT {e} {t_max} {TAU}"))
            if not close(got, gt_point[e]):
                fail(f"POINT {e}: promoted={got} offline={gt_point[e]}")

            reply = fc.request(f"BTIME {e} {THETA} {TAU}")
            parts = strip_lag(reply.split())
            if parts[0] != "INTERVALS":
                fail(f"malformed BTIME reply: {reply}")
            count = int(parts[1])
            got_ivs = [(int(parts[2 + 2 * i]), int(parts[3 + 2 * i]))
                       for i in range(count)]
            if got_ivs != gt_times[e]:
                fail(f"BTIME {e}: promoted={got_ivs} offline={gt_times[e]}")

        parts = strip_lag(fc.request(f"BEVENT {t_max} {THETA} {TAU}").split())
        got_events = sorted(int(x) for x in parts[2:2 + int(parts[1])])
        if got_events != gt_events:
            fail(f"BEVENT: promoted={got_events} offline={gt_events}")

        parts = strip_lag(fc.request(f"TOPK {t_max} {TOP_K} {TAU}").split())
        got_topk = [(int(p.split(":")[0]), float(p.split(":")[1]))
                    for p in parts[2:2 + int(parts[1])]]
        if [e for e, _ in got_topk] != [e for e, _ in gt_topk]:
            fail(f"TOPK ids: promoted={got_topk} offline={gt_topk}")
        for (_, gv), (_, wv) in zip(gt_topk, got_topk):
            if not close(wv, gv):
                fail(f"TOPK value: promoted={wv} offline={gv}")

        if fc.request("QUIT") != "BYE":
            fail("QUIT did not answer BYE")
    finally:
        if leader.poll() is None:
            leader.kill()
            leader.wait(timeout=20)
        if follower is not None and follower.poll() is None:
            # Graceful shutdown path: SIGTERM drains and checkpoints.
            follower.send_signal(signal.SIGTERM)
            try:
                code = follower.wait(timeout=20)
            except subprocess.TimeoutExpired:
                follower.kill()
                fail("promoted follower did not stop on SIGTERM")
            if code != 0:
                fail(f"promoted follower exited {code} after SIGTERM")

    cascade_leg(cli, workdir, records, t_max)

    print(f"replication smoke OK: {len(first)} records shipped, follower "
          f"promoted, {len(second)} more accepted, all query types match "
          f"offline ground truth; {len(records)} records through a 2-shard "
          f"cascade")
    return 0


def stop(proc, what):
    """SIGTERM drains and checkpoints; the exit code must be 0."""
    if proc.poll() is not None:
        fail(f"{what} exited early with {proc.returncode}")
    proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(timeout=20)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail(f"{what} did not stop on SIGTERM")
    if code != 0:
        fail(f"{what} exited {code} after SIGTERM")


def cascade_leg(cli, workdir, records, t_max):
    """Leader -> re-shipping follower -> follower, 2 shards each."""
    shards = ["--shards", "2"]
    leader_repl = free_port(2)
    leader = subprocess.Popen(
        [cli, "serve", os.path.join(workdir, "c_leader"), str(UNIVERSE),
         *shards, "--repl-port", str(leader_repl)],
        stdout=subprocess.PIPE, text=True)
    procs = [leader]
    try:
        leader_port = serve_banner(leader, "listening on")
        for _ in range(2):
            serve_banner(leader, "replicating on")

        middle_repl = free_port(2)
        middle = subprocess.Popen(
            [cli, "serve", os.path.join(workdir, "c_middle"), str(UNIVERSE),
             *shards, "--follow", f"127.0.0.1:{leader_repl}",
             "--repl-port", str(middle_repl)],
            stdout=subprocess.PIPE, text=True)
        procs.append(middle)
        middle_port = serve_banner(middle, "listening on")
        for _ in range(2):
            serve_banner(middle, "replicating on")
        serve_banner(middle, "following")

        tail = subprocess.Popen(
            [cli, "serve", os.path.join(workdir, "c_tail"), str(UNIVERSE),
             *shards, "--follow", f"127.0.0.1:{middle_repl}"],
            stdout=subprocess.PIPE, text=True)
        procs.append(tail)
        tail_port = serve_banner(tail, "listening on")
        serve_banner(tail, "following")

        lc = LineClient(leader_port)
        for e, t in records:
            reply = lc.request(f"ADD {e} {t}")
            if reply != "OK":
                fail(f"cascade leader ADD {e} {t} -> {reply}")

        tc = LineClient(tail_port)
        deadline = time.monotonic() + CONVERGE_DEADLINE_S
        while True:
            stats = tc.request("STATS")
            if f"applied={len(records)}" in stats:
                break
            if time.monotonic() > deadline:
                fail(f"cascade tail never converged: {stats}")
            time.sleep(0.05)
        if "role=follower" not in stats or "shards=2" not in stats:
            fail(f"cascade tail STATS: {stats}")
        shardstats = LineClient(middle_port).request("SHARDSTATS")
        if not shardstats.startswith("SHARDSTATS shards=2 ") or \
                shardstats.count(" lag=") != 2:
            fail(f"re-shipping follower SHARDSTATS: {shardstats}")
        if not tc.request("ADD 0 0").startswith("ERR UNAVAILABLE"):
            fail("cascade tail accepted a write")
        for e in range(UNIVERSE):
            query = f"POINT {e} {t_max} {TAU}"
            want = lc.request(query)
            got = " ".join(strip_lag(tc.request(query).split()))
            if got != want:
                fail(f"{query}: cascade tail {got!r}, leader {want!r}")
        for proc, what in ((tail, "cascade tail"),
                           (middle, "re-shipping follower"),
                           (leader, "cascade leader")):
            stop(proc, what)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=20)


if __name__ == "__main__":
    sys.exit(main())
