#!/usr/bin/env python3
"""End-to-end smoke test for `bursthist_cli serve`.

Feeds one deterministic stream to the TCP server (ADD over the wire)
and to the offline CLI pipeline (`ingest` + `point`/`times`/`events`,
`store-save` + `store-topk`), then checks that every served answer
agrees with the offline ground truth. While the stream goes in on one
connection, a second connection keeps sending the query set, and
every reply it gets must carry a watermark no older than the newest
record acked before the set was sent and no newer than the newest
record sent. Also checks that a default serve answers SHARDSTATS as a
1-shard cluster, scrapes the HTTP /metrics endpoint and verifies a
clean SIGINT shutdown.

Usage: tools/server_smoke.py <path-to-bursthist_cli>
Stdlib only; exits non-zero on the first mismatch.
"""

import os
import random
import signal
import socket
import subprocess
import sys
import tempfile
import threading

UNIVERSE = 8
N_RECORDS = 400
TAU = 16
THETA = 2.0
TOP_K = 3
ADD_CHUNK = 8        # ADD lines per send while the query set runs
QUERY_EVERY = 6      # the ingest side waits for a fresh query set to be
                     # sent every this many chunks, so sets overlap ADDs


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


def watermark_of(reply):
    for part in reply.split():
        if part.startswith("watermark="):
            return int(part[len("watermark="):])
    fail(f"reply carries no watermark: {reply}")


def ingest_while_querying(port, records, queries):
    """Streams `records` (time-ordered) as ADDs on one connection while
    a second connection sends `queries` as one pipelined set, over and
    over, until the stream is in. Every reply's watermark must lie
    between the newest timestamp acked before its set was sent and the
    newest timestamp sent once its replies are back. Returns the number
    of sets answered while ADDs were still in flight."""
    lock = threading.Lock()
    state = {"acked": -1, "sent": -1, "done": False}
    set_sent = threading.Semaphore(0)
    problems = []

    def ingest():
        client = LineClient(port)
        try:
            for n, i in enumerate(range(0, len(records), ADD_CHUNK)):
                chunk = records[i:i + ADD_CHUNK]
                if n % QUERY_EVERY == QUERY_EVERY // 2:
                    set_sent.acquire(timeout=10)
                with lock:
                    state["sent"] = chunk[-1][1]
                client.sock.sendall(
                    "".join(f"ADD {e} {t}\n" for e, t in chunk).encode())
                for e, t in chunk:
                    reply = client.read_line()
                    if reply != "OK":
                        problems.append(f"ADD {e} {t} -> {reply}")
                with lock:
                    state["acked"] = chunk[-1][1]
        finally:
            with lock:
                state["done"] = True
            client.sock.close()

    thread = threading.Thread(target=ingest)
    thread.start()
    client = LineClient(port)
    payload = "".join(q + "\n" for q in queries).encode()
    sets = 0
    try:
        while True:
            with lock:
                low, done = state["acked"], state["done"]
            if done:
                break
            client.sock.sendall(payload)
            set_sent.release()
            replies = [client.read_line() for _ in queries]
            with lock:
                high = state["sent"]
            for q, r in zip(queries, replies):
                wm = watermark_of(r)
                if not low <= wm <= high:
                    problems.append(f"{q} -> watermark {wm} outside "
                                    f"[{low}, {high}]: {r}")
            sets += 1
    finally:
        thread.join()
        client.sock.close()
    if problems:
        fail("concurrent phase: " + "; ".join(problems[:3]))
    return sets


def parse_value_reply(reply):
    # "VALUE <v> watermark=<w> bound=<b>"
    parts = reply.split()
    if parts[0] != "VALUE" or len(parts) != 4:
        fail(f"malformed VALUE reply: {reply}")
    if not parts[2].startswith("watermark=") or not parts[3].startswith("bound="):
        fail(f"VALUE reply missing stamp: {reply}")
    return float(parts[1])


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    cli = sys.argv[1]
    records = make_stream()
    workdir = tempfile.mkdtemp(prefix="bursthist_smoke_")
    csv_path = os.path.join(workdir, "events.csv")
    sketch_path = os.path.join(workdir, "gt.sketch")
    store_dir = os.path.join(workdir, "store")
    serve_dir = os.path.join(workdir, "serve")
    os.makedirs(store_dir)
    with open(csv_path, "w") as f:
        for e, t in records:
            f.write(f"{e},{t}\n")

    # ---- Offline ground truth through the CLI pipeline ----
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

    # ---- Live server fed the identical stream over the wire ----
    server = subprocess.Popen([cli, "serve", serve_dir, str(UNIVERSE)],
                              stdout=subprocess.PIPE, text=True)
    try:
        banner = server.stdout.readline().strip()
        if not banner.startswith("listening on "):
            fail(f"unexpected serve banner: {banner!r}")
        port = int(banner.rsplit(":", 1)[1])

        client = LineClient(port)
        if client.request("PING") != "PONG":
            fail("PING did not answer PONG")
        queries = ([f"POINT {e} {t_max} {TAU}" for e in range(UNIVERSE)] +
                   [f"BTIME {e} {THETA} {TAU}" for e in range(UNIVERSE)] +
                   [f"BEVENT {t_max} {THETA} {TAU}",
                    f"TOPK {t_max} {TOP_K} {TAU}"])
        sets = ingest_while_querying(port, records, queries)
        if sets == 0:
            fail("no query set ran while ADDs were streaming")
        stats = client.request("STATS")
        if f"accepted={len(records)}" not in stats:
            fail(f"STATS disagrees on accepted count: {stats}")
        # A default serve is a 1-shard cluster.
        shardstats = client.request("SHARDSTATS")
        if not shardstats.startswith("SHARDSTATS shards=1 | shard=0 "):
            fail(f"SHARDSTATS on a default serve: {shardstats}")

        # The CLI prints %.2f; the wire prints full precision. Both
        # compute the identical double, so agreement to half a
        # hundredth is exact modulo the CLI's rounding.
        def close(a, b):
            return abs(a - b) <= 0.005 + 1e-9

        for e in range(UNIVERSE):
            got = parse_value_reply(client.request(f"POINT {e} {t_max} {TAU}"))
            if not close(got, gt_point[e]):
                fail(f"POINT {e}: wire={got} offline={gt_point[e]}")

            reply = client.request(f"BTIME {e} {THETA} {TAU}")
            parts = reply.split()
            if parts[0] != "INTERVALS":
                fail(f"malformed BTIME reply: {reply}")
            count = int(parts[1])
            got_ivs = [(int(parts[2 + 2 * i]), int(parts[3 + 2 * i]))
                       for i in range(count)]
            if got_ivs != gt_times[e]:
                fail(f"BTIME {e}: wire={got_ivs} offline={gt_times[e]}")

        reply = client.request(f"BEVENT {t_max} {THETA} {TAU}")
        parts = reply.split()
        got_events = sorted(int(x) for x in parts[2:2 + int(parts[1])])
        if got_events != gt_events:
            fail(f"BEVENT: wire={got_events} offline={gt_events}")

        reply = client.request(f"TOPK {t_max} {TOP_K} {TAU}")
        parts = reply.split()
        got_topk = [(int(p.split(":")[0]), float(p.split(":")[1]))
                    for p in parts[2:2 + int(parts[1])]]
        if [e for e, _ in got_topk] != [e for e, _ in gt_topk]:
            fail(f"TOPK ids: wire={got_topk} offline={gt_topk}")
        for (_, gv), (_, wv) in zip(gt_topk, got_topk):
            if not close(wv, gv):
                fail(f"TOPK value: wire={wv} offline={gv}")

        # HTTP scrape on the same port.
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
        if "bursthist_server_ingest_records_total" not in text:
            fail("/metrics body missing server ingest counter")

        if client.request("QUIT") != "BYE":
            fail("QUIT did not answer BYE")
    finally:
        server.send_signal(signal.SIGINT)
        try:
            code = server.wait(timeout=20)
        except subprocess.TimeoutExpired:
            server.kill()
            fail("server did not stop on SIGINT")
    if code != 0:
        fail(f"server exited {code} after SIGINT")

    print(f"server smoke OK: {len(records)} records, {UNIVERSE} events, "
          f"{sets} query sets answered mid-stream with in-range "
          f"watermarks, all query types match offline ground truth")
    return 0


if __name__ == "__main__":
    sys.exit(main())
