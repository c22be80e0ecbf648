"""Closed-loop HTTP benchmark of `python -m polyfind serve`.

One run:

    python3 bench/run.py --workload agent-keepalive --seed 1 --seconds 20 --trace 0

generates a fresh data directory from the seed, starts the server on it
five times (timing each start), runs an untimed warm-up round and then whole
rounds of the workload's operations for --seconds, checks every answer
against bench/oracle.py, restarts the server on the final directory and
checks its counts. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the server runs under
bench/traced_serve.py and the metrics are the per-layer ones.

    python3 bench/run.py --repeat 10

runs every workload in two sets of ten runs (seeds 1-10, then 11-20) and
prints, per workload and metric, each set's median and quartiles and
whether the sets agree within the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gc
import http.client
import json
import math
import os
import random
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH_DIR))

from oracle import check_discover  # noqa: E402
from workload import (  # noqa: E402
    DOMAIN,
    LANGS,
    SMOKE,
    WORKLOADS,
    Generated,
    Spec,
    descriptor_xml,
    generate,
    make_service,
    write_data_dir,
)

# calibrate() on the reference host (a 2-vCPU 2.1 GHz Xeon VM, Python
# 3.11) in a quiet period; scaled times read as on that host then.
REF_CAL_S = 0.003
START_TIMEOUT = 120.0
STOP_TIMEOUT = 20.0
REQUESTER = "bench-agent"

E2E_UNITS = {
    "setup_s": "s",
    "discover_p50_ms": "ms",
    "discover_tail_ms": "ms",
    "ops_per_s": "1/s",
    "publish_p50_ms": "ms",
    "remove_p50_ms": "ms",
    "bind_p50_ms": "ms",
    "put_portion_p50_ms": "ms",
    "server_rss_mb": "MB",
}


class BenchError(Exception):
    pass


# --- server process ---


class Server:
    """One `polyfind serve` child on 127.0.0.1 with an ephemeral port."""

    def __init__(self, data_dir: Path, workdir: Path, spans: Path | None = None):
        self.data_dir = data_dir
        config = workdir / f"{data_dir.name}.config.json"
        config.write_text(json.dumps({"listen": "127.0.0.1:0", "data_dir": str(data_dir)}))
        if spans is None:
            argv = [sys.executable, "-m", "polyfind", "serve", "--config", str(config)]
        else:
            argv = [sys.executable, str(BENCH_DIR / "traced_serve.py"), str(spans),
                    "--config", str(config)]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("MOS_DATA_DIR", None)
        self.log = open(workdir / f"{data_dir.name}.server.log", "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=self.log
        )
        try:
            self.port = self._read_port()
            status, _ = fetch(self.port, "GET", "/health")
            if status != 200:
                raise BenchError(f"GET /health answered {status}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _read_port(self) -> int:
        line = b""
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            deadline = time.monotonic() + START_TIMEOUT
            while not line.endswith(b"\n"):
                left = deadline - time.monotonic()
                if left <= 0 or not sel.select(left):
                    raise BenchError("server printed no banner in time")
                chunk = os.read(self.proc.stdout.fileno(), 256)
                if not chunk:
                    raise BenchError(f"server exited with {self.proc.wait()} before listening")
                line += chunk
        # "listening on http://127.0.0.1:PORT"
        return int(line.decode().strip().rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for row in handle:
                if row.startswith("VmHWM:"):
                    return int(row.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        return self.proc.returncode


# --- HTTP ---


def fetch(port: int, method: str, path: str, body: bytes | None = None,
          ctype: str = "application/json") -> tuple[int, bytes]:
    """One request on its own connection; for checks, not for timed operations."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        headers = {"Connection": "close"}
        if body is not None:
            headers["Content-Type"] = ctype
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class Client:
    """Timed requests: one kept-alive connection, or a new one per request
    sent with Connection: close, as urllib (and `polyfind discover`) does."""

    def __init__(self, port: int, keepalive: bool):
        self.port = port
        self.keepalive = keepalive
        self.conn: http.client.HTTPConnection | None = None
        self.seq = 0

    def call(self, method: str, path: str, body: bytes | None = None,
             ctype: str = "application/json") -> tuple[int, bytes, float, int]:
        self.seq += 1
        headers = {"X-Bench-Seq": str(self.seq)}
        if body is not None:
            headers["Content-Type"] = ctype
        if not self.keepalive:
            headers["Connection"] = "close"
        started = time.perf_counter()
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        self.conn.request(method, path, body=body, headers=headers)
        resp = self.conn.getresponse()
        data = resp.read()
        elapsed = time.perf_counter() - started
        if not self.keepalive or resp.will_close:
            self.conn.close()
            self.conn = None
        return resp.status, data, elapsed, self.seq

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


# --- the closed loop ---


class Runner:
    """Runs rounds of a workload against one server and checks every answer
    against a model of what the server should hold."""

    def __init__(self, gen: Generated, port: int):
        self.gen = gen
        self.spec = gen.spec
        self.port = port
        self.client = Client(port, gen.spec.keepalive)
        self.rng = random.Random(f"{gen.spec.name}/{gen.seed}/loop")
        self.services = dict(gen.services)
        self.portions = dict(gen.portions)
        self.extra: list[str] = []  # ids published by the loop and not yet removed
        self.next_query = {token: 0 for token in gen.queries}
        self.put_langs = 0
        self.published = 0
        self.bodies: dict[tuple, bytes] = {}  # repeated-query byte-identity check
        self.results_seen: dict[tuple, int] = {}  # first result count of each query
        self.results_count: dict[int, int] = {}  # seq of a timed discover -> results
        self.last_seq = 0
        self.last_target: str | None = None
        self.timed = False
        self.timed_ops: dict[int, tuple[str, float]] = {}  # seq -> (op, seconds)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.client_s = 0.0  # time the client spends checking answers
        self.cal: list[float] = []  # calibrate() samples of the run

    # Each operation returns after recording its latency; checking time is
    # accumulated separately so that throughput counts only the loop.

    def _timed(self, op: str, method: str, path: str, body: bytes | None = None,
               ctype: str = "application/json", expect: int = 200) -> tuple[bool, bytes]:
        status, data, seconds, seq = self.client.call(method, path, body, ctype)
        self.last_seq = seq
        if self.timed:
            self.attempted += 1
            if status == expect:
                self.timed_ops[seq] = (op, seconds)
            else:
                self.failed += 1
        if status != expect:
            self._problem(f"{op} {method} {path}: HTTP {status} {data[:200]!r}")
            return False, data
        return True, data

    def latencies(self) -> dict[str, list[float]]:
        """Seconds of each timed operation that succeeded, by operation."""
        out: dict[str, list[float]] = {op: [] for op in ("discover", "publish", "remove", "bind", "put")}
        for op, seconds in self.timed_ops.values():
            out[op].append(seconds)
        return out

    def _problem(self, text: str) -> None:
        if len(self.problems) < 50:
            self.problems.append(text)

    def discover(self, token: str) -> None:
        pool = self.gen.queries[token]
        query = pool[self.next_query[token] % len(pool)]
        self.next_query[token] += 1
        request = {"text": query.text, "domain": DOMAIN, "requester_id": REQUESTER}
        if query.declared:
            request["language"] = query.language
        ok, data = self._timed("discover", "POST", "/discover", json.dumps(request).encode())
        if not ok:
            self.last_target = None
            return
        started = time.perf_counter()
        body = json.loads(data)
        for problem in check_discover(query, body, self.services, self.gen.labels,
                                      self.gen.links, self.gen.planted):
            self._problem(f"discover {query.text!r}: {problem}")
        key = (token, query.text, tuple(self.extra))
        seen = self.bodies.setdefault(key, data)
        if seen != data:
            self._problem(f"discover {query.text!r}: repeated query returned different bytes")
        self.results_seen.setdefault((token, query.text), len(body["results"]))
        if self.timed:
            self.results_count[self.last_seq] = len(body["results"])
        # A term query detected as the wrong language can come back empty;
        # the agent then binds a service it already knew, so that every
        # round attempts the same operations.
        self.last_target = body["results"][0]["service_id"] if body["results"] else min(self.gen.services)
        self.client_s += time.perf_counter() - started

    def bind(self) -> None:
        target = self.last_target
        if target is None:
            self._problem("bind: the preceding operation left no service to bind")
            return
        request = {"service_id": target, "requester_id": REQUESTER}
        ok, data = self._timed("bind", "POST", "/bind", json.dumps(request).encode())
        if not ok:
            return
        ticket = json.loads(data)
        want = (target, REQUESTER, self.services[target].endpoint)
        if (ticket["service_id"], ticket["requester_id"], ticket["endpoint"]) != want:
            self._problem(f"bind {target}: ticket {ticket} does not carry {want}")
        if not ticket["ticket_id"].startswith("t-"):
            self._problem(f"bind {target}: ticket id {ticket['ticket_id']!r}")

    def publish(self) -> None:
        lang = self.rng.choice(LANGS)
        self.published += 1
        svc = make_service(self.rng, f"new-{self.published}", lang, self.gen.filler_words[lang])
        ok, data = self._timed("publish", "POST", "/services", descriptor_xml(svc),
                               "application/xml", expect=201)
        self.last_target = None
        if not ok:
            return
        started = time.perf_counter()
        sid = json.loads(data)["service_id"]
        if sid in self.services:
            self._problem(f"publish: id {sid} reused")
        svc.service_id = sid
        self.services[sid] = svc
        self.extra.append(sid)
        self.last_target = sid
        status, got = fetch(self.port, "GET", f"/services/{sid}")
        if status != 200 or json.loads(got) != svc.to_dict():
            self._problem(f"publish {sid}: GET answered {status} {got[:200]!r}")
        self.client_s += time.perf_counter() - started

    def remove(self) -> None:
        if not self.extra:
            self._problem("rm: nothing published to remove")
            return
        sid = self.extra[-1]
        ok, data = self._timed("remove", "DELETE", f"/services/{sid}")
        if not ok:
            return
        started = time.perf_counter()
        self.extra.pop()
        del self.services[sid]
        if json.loads(data) != {"service_id": sid, "deleted": True}:
            self._problem(f"rm {sid}: answered {data[:200]!r}")
        status, _ = fetch(self.port, "GET", f"/services/{sid}")
        if status != 404:
            self._problem(f"rm {sid}: GET after removal answered {status}")
        self.client_s += time.perf_counter() - started

    def put(self) -> None:
        lang = LANGS[self.put_langs % len(LANGS)]
        self.put_langs += 1
        doc = self.portions[lang]
        terms = list(doc["terms"])
        i = self.rng.randrange(len(terms))
        terms[i] = {**terms[i], "alt_labels": terms[i]["alt_labels"] + [self.gen.words.take(lang)]}
        new = {**doc, "version": doc["version"] + 1, "terms": terms}
        body = json.dumps(new, ensure_ascii=False).encode("utf-8")
        ok, data = self._timed("put", "PUT", f"/portions/{DOMAIN}/{lang}", body)
        if not ok:
            return
        started = time.perf_counter()
        self.portions[lang] = new
        want = {"domain": DOMAIN, "language": lang, "version": new["version"]}
        if json.loads(data) != want:
            self._problem(f"put {lang}: answered {data[:200]!r}")
        status, got = fetch(self.port, "GET", f"/portions/{DOMAIN}/{lang}")
        if status != 200 or json.loads(got) != new:
            self._problem(f"put {lang}: GET answered {status}, not the uploaded portion")
        self.client_s += time.perf_counter() - started

    def round(self) -> None:
        for token in self.spec.round:
            if token.startswith("d:"):
                self.discover(token)
            elif token == "bind":
                self.bind()
            elif token == "pub":
                self.publish()
            elif token == "rm":
                self.remove()
            elif token == "put":
                self.put()
            else:
                raise BenchError(f"unknown operation {token!r}")

    def run(self, seconds: float) -> float:
        """One untimed warm-up round, then whole rounds until `seconds` pass.
        Returns the wall time of the timed phase minus the time spent checking."""
        self.round()
        self.timed = True
        self.client_s = 0.0
        started = time.perf_counter()
        while True:
            self.round()
            self.cal.append(calibrate())
            self.client_s += self.cal[-1]
            elapsed = time.perf_counter() - started
            if elapsed >= seconds:
                break
        self.timed = False
        self.client.close()
        return elapsed - self.client_s


def calibrate() -> float:
    """Seconds the host takes for a fixed piece of pure-Python work like
    the server's (dict inserts, string keys, a keyed sort), averaged over the
    CPUs this process may run on, since the server may run on any of them.
    The garbage collector is off while it runs, so the client's own heap
    does not change the figure.
    """
    allowed = os.sched_getaffinity(0)
    times = []
    gc.disable()
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            started = time.perf_counter()
            table = {}
            for i in range(6000):
                table[f"w{i}"] = i * i % 97
            " ".join(sorted(table, key=table.__getitem__))
            times.append(time.perf_counter() - started)
    finally:
        gc.enable()
        os.sched_setaffinity(0, allowed)
    return sum(times) / len(times)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def end_to_end(runner: Runner, loop_s: float, setups: list[float], rss_mb: float) -> dict:
    """The end-to-end metrics, with times scaled to the reference speed.

    On a shared VM the same CPU-bound code can run 20-40% slower for
    minutes at a time, which moves every CPU-bound time alike. Each run
    therefore measures the host with calibrate() between set-ups and between
    rounds, and multiplies its CPU-bound times by REF_CAL_S / (median
    calibrate()). Set-up is CPU-bound everywhere. On a kept-alive connection
    the loop's latencies are set by the client's 40 ms delayed-ACK timer, not
    by CPU speed, so they stay as measured. stderr shows the raw figures.
    """
    lat = runner.latencies()
    spec = runner.spec
    discovers = lat["discover"]
    above = len(discovers) - math.ceil(spec.tail_pct / 100.0 * len(discovers))
    if above < 10:
        print(f"warning: only {above} discover samples above p{spec.tail_pct:g}", file=sys.stderr)
    ms = lambda values: statistics.median(values) * 1000.0  # noqa: E731
    raw = {
        "setup_s": statistics.median(setups),
        "discover_p50_ms": ms(discovers),
        "discover_tail_ms": percentile(discovers, spec.tail_pct) * 1000.0,
        "ops_per_s": sum(len(v) for v in lat.values()) / loop_s,
        "publish_p50_ms": ms(lat["publish"]),
        "remove_p50_ms": ms(lat["remove"]),
        "bind_p50_ms": ms(lat["bind"]),
        "put_portion_p50_ms": ms(lat["put"]),
        "server_rss_mb": rss_mb,
    }
    cal = statistics.median(runner.cal)
    speed = REF_CAL_S / cal
    loop = 1.0 if spec.keepalive else speed
    values = {name: v * loop for name, v in raw.items()}
    values["setup_s"] = raw["setup_s"] * speed
    values["ops_per_s"] = raw["ops_per_s"] / loop
    values["server_rss_mb"] = rss_mb
    print(f"raw: calibrate_ms={cal * 1000:.4f} "
          + " ".join(f"{k}={v:.4f}" for k, v in raw.items()), file=sys.stderr)
    return {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in values.items()}


def run_once(spec: Spec, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "polyfind" / "__init__.py").is_file():
        raise BenchError(f"no polyfind package under {SRC}")
    workdir = WORK / f"{spec.name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    servers: list[Server] = []
    try:
        gen = generate(spec, seed)
        # `serve` writes nothing while it starts on a directory that has a
        # `seq` file, so every timed start can use the one fresh directory;
        # the last start serves the loop. A copy per start cost 1.3-2 s each
        # on provider-churn's 3,120 descriptors.
        data_dir = workdir / "data"
        write_data_dir(gen, data_dir)
        spans = workdir / "spans.json"
        setups: list[float] = []
        cal: list[float] = []
        if trace:
            servers.append(Server(data_dir, workdir, spans))
        else:
            for _ in range(spec.setups):
                if servers:
                    servers.pop().stop()
                servers.append(Server(data_dir, workdir))
                setups.append(servers[-1].setup_s)
                cal.extend(calibrate() for _ in range(3))
        server = servers[-1]
        runner = Runner(gen, server.port)
        runner.cal = cal
        loop_s = runner.run(seconds)
        rss_mb = server.peak_rss_mb()
        servers.pop()
        if server.stop() != 0:
            runner.problems.append(f"server exited with {server.proc.returncode}")
        # Restart on the final directory: the counts must match the model.
        servers.append(Server(server.data_dir, workdir))
        status, body = fetch(servers[-1].port, "GET", "/health")
        want = {"status": "ok", "services": len(runner.services), "portions": len(LANGS)}
        if status != 200 or json.loads(body) != want:
            runner.problems.append(f"restart: /health {status} {body!r}, model says {want}")
        if trace:
            from traced_serve import layer_metrics

            metrics = layer_metrics(json.loads(spans.read_text()), runner)
        else:
            metrics = end_to_end(runner, loop_s, setups, rss_mb)
        summarize(runner, loop_s, setups)
        return {
            "correct": not runner.problems,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": metrics,
        }
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def summarize(runner: Runner, loop_s: float, setups: list[float]) -> None:
    parts = [f"{op}={len(v)}/{statistics.median(v) * 1000:.2f}ms"
             for op, v in runner.latencies().items() if v]
    print(f"ops: {' '.join(parts)} loop_s={loop_s:.2f} client_s={runner.client_s:.2f} "
          f"setups={[round(s, 3) for s in setups]}", file=sys.stderr)
    for problem in runner.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)


# --- repeatability ---


def repeat(args) -> int:
    manifest = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    names = args.workload.split(",") if args.workload else list(WORKLOADS)
    first = args.seed
    n = args.repeat
    report: dict = {}
    agree = True
    for name in names:
        sets = []
        for seeds in (range(first, first + n), range(first + n, first + 2 * n)):
            runs = []
            for seed in seeds:
                argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                        "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
                if args.smoke:
                    argv.append("--smoke")
                out = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True).stdout
                runs.append(json.loads(out.strip().splitlines()[-1]))
                print(f"{name} seed {seed}: {json.dumps(runs[-1])}", file=sys.stderr, flush=True)
            sets.append(runs)
        report[name] = {}
        print(f"\n{name}")
        print(f"{'metric':<20} {'set':>3} {'q1':>10} {'median':>10} {'q3':>10} {'spread':>7}  verdict")
        for metric in E2E_UNITS:
            rows = []
            for runs in sets:
                values = [r["metrics"][metric]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
                rows.append({"q1": q1, "median": med, "q3": q3, "spread": (q3 - q1) / med})
            bound = manifest[metric]["bound"]
            a, b = rows[0]["median"], rows[1]["median"]
            drift = (a - b) / a if manifest[metric]["better"] == "higher" else (b - a) / a
            # setup_s is held to its drift only: its spread is not a gate.
            spread_ok = metric == "setup_s" or all(r["spread"] <= bound for r in rows)
            ok = drift <= bound and spread_ok
            agree &= ok
            verdict = f"{'agree' if ok else 'DISAGREE'} (drift {drift:+.3f}, bound {bound})"
            for i, row in enumerate(rows):
                print(f"{metric if i == 0 else '':<20} {'AB'[i]:>3} {row['q1']:>10.4f} "
                      f"{row['median']:>10.4f} {row['q3']:>10.4f} {row['spread']:>7.3f}"
                      f"  {verdict if i == 1 else ''}")
            report[name][metric] = {"sets": rows, "verdict": verdict}
        fails = {(r["attempted"], r["failed"]) for runs in sets for r in runs}
        print(f"{'attempted/failed':<20} {sorted(fails)[:4]}")
    WORK.mkdir(exist_ok=True)
    (WORK / "repeat.json").write_text(json.dumps(report, indent=2))
    return 0 if agree else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of " + ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for a quick check")
    parser.add_argument("--repeat", type=int, metavar="N",
                        help="run two sets of N runs per workload and compare them")
    args = parser.parse_args(argv)
    if args.repeat:
        return repeat(args)
    specs = SMOKE if args.smoke else WORKLOADS
    if args.workload not in specs:
        parser.error(f"--workload must be one of {', '.join(specs)}")
    try:
        result = run_once(specs[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
