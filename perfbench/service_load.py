"""service-closed-loop: ``repro serve`` under a closed loop of POSTs.

One client process, one thread, ``nproc`` keep-alive connections.  Each
connection POSTs the next entry of a seeded request list as soon as the
previous reply arrives, so the pull queue never holds more than
``nproc`` entries.  The time scale is small enough that the server's
CPU, not simulated air time, bounds throughput.

Client and server share one CPU.  On a virtual machine a reply that
wakes a process on the other CPU costs an inter-processor interrupt
whose price swings with the host's load: in the same minute the same
requests ran at about 1,200 per second across two CPUs and 2,600 on one.

The request list is drawn from the paper's workload model
(``repro.workload`` through the service's own ``HybridConfig``): items
by Zipf popularity, classes by population share.
"""

from __future__ import annotations

import http.client
import json
import os
import selectors
import signal
import socket
import subprocess
import sys
from time import perf_counter, perf_counter_ns

from common import (
    BENCH_DIR,
    ROOT,
    SetupError,
    child_env,
    metric_block,
    median,
    quantile,
    reference_loop,
    rescale,
    rescaled_probes,
    use_sources,
    vm_hwm_mb,
)

ITEMS = 50
CUTOFF = 15
#: Wall seconds per broadcast unit.  A transmission sleeps 1-5 ns, so air
#: time is negligible and the server's CPU bounds throughput.
TIME_SCALE = 1e-9
#: Requests per second of ``--seconds``, measured on the reference host.
REQUESTS_PER_SECOND = 2700
#: Requests sent before timing starts (first-request costs of a fresh server).
WARMUP_REQUESTS = 200
#: Timed requests between two runs of the reference loop.
WINDOW_REQUESTS = 250
#: Servers started for ``setup_s`` (the measured server is not one of them).
SETUP_PROBES = 3
PROCESS_TIMEOUT_S = 60.0


def serve_args(seed: int) -> list[str]:
    return [
        "--port", "0", "--items", str(ITEMS), "--cutoff", str(CUTOFF),
        "--time-scale", repr(TIME_SCALE), "--seed", str(seed),
    ]


def request_plan(seed: int, count: int) -> tuple[list[bytes], dict]:
    """``count`` encoded POSTs, and the workload layer's figures for them."""
    import numpy as np
    from repro.core import HybridConfig
    from repro.workload.arrivals import ArrivalProcess

    config = HybridConfig(num_items=ITEMS, cutoff=CUTOFF)
    arrivals = ArrivalProcess(
        catalog=config.build_catalog(),
        population=config.build_population(),
        rate=config.arrival_rate,
        rng=np.random.default_rng(seed),
    )
    started = perf_counter_ns()
    # Poisson count over a horizon with a 10-sigma margin, so one draw
    # always yields at least ``count`` requests.
    mean = count + 10 * count**0.5 + 10
    drawn = arrivals.generate(mean / config.arrival_rate)
    elapsed = perf_counter_ns() - started
    if len(drawn) < count:
        raise SetupError(f"request plan drew {len(drawn)} of {count} requests")
    plan = []
    for index, request in enumerate(drawn[:count]):
        body = json.dumps(
            {"item_id": request.item_id, "class_rank": request.class_rank, "client_id": index}
        ).encode()
        plan.append(
            b"POST /request HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
    layer = {
        "workload.arrivals": len(drawn),
        "workload.blocks": 1,
        "workload.ns_per_arrival": elapsed / len(drawn),
        "workload.useful_share": count / len(drawn),
    }
    return plan, layer


class Server:
    """One server process, from spawn until it prints that it is listening."""

    def __init__(self, command: list[str]) -> None:
        started = perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
        )
        line = self.proc.stdout.readline()
        self.setup_s = perf_counter() - started
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            self.proc.kill()
            self.proc.communicate()
            raise SetupError(f"server did not start: {line!r}") from None
        self.port = int(event["port"])

    def stop(self) -> list[dict]:
        """SIGTERM, wait for the drain, return the JSON lines it printed."""
        if self.proc.poll() is None:
            # A reply proves the server installed its SIGTERM handler
            # (it does so before answering anything), so the signal
            # starts a drain instead of killing the process.
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=PROCESS_TIMEOUT_S)
            try:
                connection.request("GET", "/healthz")
                connection.getresponse().read()
            finally:
                connection.close()
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise SetupError("server did not drain") from None
        if self.proc.returncode != 0:
            raise SetupError(f"server exited with {self.proc.returncode}")
        return [json.loads(line) for line in out.splitlines() if line.startswith("{")]


class ClosedLoop:
    """``connections`` keep-alive sockets to one server, driven closed loop."""

    def __init__(self, port: int, connections: int) -> None:
        self.selector = selectors.DefaultSelector()
        self.socks: list[socket.socket] = []
        try:
            for _ in range(connections):
                sock = socket.create_connection(("127.0.0.1", port))
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self.socks.append(sock)
                self.selector.register(sock, selectors.EVENT_READ, bytearray())
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        for sock in self.socks:
            self.selector.unregister(sock)
            sock.close()
        self.socks = []
        self.selector.close()

    def run(self, plan: list[bytes]) -> tuple[list[float], list[int], float]:
        """Send ``plan``, each connection POSTing as its last reply arrives.

        Returns per-request latencies (seconds, plan order), statuses, and
        the wall time from the first send to the last reply.
        """
        latencies = [0.0] * len(plan)
        statuses = [0] * len(plan)
        next_index = 0
        sent_at = {}

        def send(sock: socket.socket) -> None:
            nonlocal next_index
            index = next_index
            next_index += 1
            sent_at[sock] = (index, perf_counter())
            sock.sendall(plan[index])

        started = perf_counter()
        for sock in self.socks[: len(plan)]:
            send(sock)
        pending = len(sent_at)
        while pending:
            for key, _ in self.selector.select(timeout=PROCESS_TIMEOUT_S) or [(None, None)]:
                if key is None:
                    raise SetupError("service stopped answering")
                sock, buffer = key.fileobj, key.data
                chunk = sock.recv(65536)
                if not chunk:
                    raise SetupError("service closed a keep-alive connection")
                buffer += chunk
                head_end = buffer.find(b"\r\n\r\n")
                if head_end < 0:
                    continue
                head = buffer[:head_end].decode("latin-1").split("\r\n")
                length = next(
                    int(h.split(":", 1)[1]) for h in head if h.lower().startswith("content-length:")
                )
                if len(buffer) < head_end + 4 + length:
                    continue
                index, at = sent_at.pop(sock)
                latencies[index] = perf_counter() - at
                statuses[index] = int(head[0].split(" ", 2)[1])
                del buffer[: head_end + 4 + length]
                if next_index < len(plan):
                    send(sock)
                else:
                    pending -= 1
        return latencies, statuses, perf_counter() - started


def load(command: list[str], plan: list[bytes], connections: int) -> dict:
    """Start a server, warm it, run the timed closed loop, drain it.

    The timed requests go in windows of ``WINDOW_REQUESTS``.  Between
    windows every connection is idle and the reference loop runs on the
    CPU client and server share; each window's latencies and wall time
    are rescaled by the loops before and after it.
    """
    server = Server(command)
    try:
        loop = ClosedLoop(server.port, connections)
        try:
            warm, warm_statuses, _ = loop.run(plan[:WARMUP_REQUESTS])
            refs = [reference_loop()]
            latencies: list[float] = []
            statuses: list[int] = []
            raw_latency_s = wall_s = 0.0
            for start in range(WARMUP_REQUESTS, len(plan), WINDOW_REQUESTS):
                window, window_statuses, window_s = loop.run(plan[start : start + WINDOW_REQUESTS])
                refs.append(reference_loop())
                latencies += [rescale(t, refs[-2], refs[-1]) for t in window]
                statuses += window_statuses
                raw_latency_s += sum(window)
                wall_s += rescale(window_s, refs[-2], refs[-1])
        finally:
            loop.close()
        peak = vm_hwm_mb(server.proc.pid)
    except BaseException:
        server.proc.kill()
        server.proc.communicate()
        raise
    lines = server.stop()
    counts: dict[int, int] = {}
    for status in (*warm_statuses, *statuses):
        counts[status] = counts.get(status, 0) + 1
    return {
        "latencies": latencies,
        "statuses": statuses,
        "raw_latency_s": raw_latency_s,
        "all_latency_s": sum(warm) + raw_latency_s,
        "reference_ms_p50": 1e3 * median(refs),
        "status_counts": counts,
        "wall_s": wall_s,
        "peak_rss_mb": peak,
        "lines": lines,
    }


def run(args) -> dict:
    import checks

    use_sources()
    connections = os.cpu_count() or 1
    # run.py pinned this process to one CPU; every server inherits it.
    count = WARMUP_REQUESTS + max(1000, args.seconds * REQUESTS_PER_SECOND)
    plan, workload_layer = request_plan(args.seed, count)
    untraced = [sys.executable, "-m", "repro", "serve", *serve_args(args.seed)]
    traced = [sys.executable, str(BENCH_DIR / "serve_traced.py"), *serve_args(args.seed)]
    command = traced if args.trace else untraced

    def probe() -> tuple[float, list[dict]]:
        server = Server(command)
        return server.setup_s, server.stop()

    probes = rescaled_probes(probe, SETUP_PROBES)
    if args.trace:
        baseline = load(untraced, plan, connections)
    result = load(command, plan, connections)

    drained = next((line for line in result["lines"] if line.get("event") == "drained"), None)
    failures = ["server printed no drained ledger"] if drained is None else checks.check_ledger(
        drained["ledger"], len(plan), result["status_counts"]
    )
    latencies, statuses = result["latencies"], result["statuses"]
    # 200 served and 502 bandwidth-blocked (the paper's blocking) are the
    # two outcomes a closed loop this shallow can get; anything else failed.
    failed = sum(1 for s in statuses if s not in (200, 502))
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    if args.trace:
        return traced_result(probes, baseline, result, workload_layer, failures, failed)

    print(
        f"note: requests={len(latencies)} connections={connections} "
        f"latency_ms_p99={1e3 * quantile(latencies, 0.99):.4f} "
        f"raw_latency_ms_mean={1e3 * result['raw_latency_s'] / len(latencies):.4f} "
        f"reference_ms_p50={result['reference_ms_p50']:.4f} "
        f"status_counts={result['status_counts']}",
        flush=True,
    )
    setup_s = [s for s, _ in probes]
    return {
        "correct": not failures,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": metric_block(end_to_end(setup_s, result), "end_to_end"),
    }


def end_to_end(setup_samples: list[float], result: dict) -> dict:
    """End-to-end metrics of the service from one closed-loop load."""
    latencies, wall_s = result["latencies"], result["wall_s"]
    return {
        "setup_s": median(setup_samples),
        "arrivals_per_s": len(latencies) / wall_s,
        "served_per_s": result["statuses"].count(200) / wall_s,
        "latency_ms_p50": 1e3 * median(latencies),
        "latency_ms_p90": 1e3 * quantile(latencies, 0.9),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def traced_result(probes, baseline, result, workload_layer, failures, failed) -> dict:
    layers_lines = [line for line in result["lines"] if "layers" in line]
    if not layers_lines:
        raise SetupError("traced server printed no layer spans")
    layers = dict(layers_lines[0]["layers"])
    probe_layers = [
        next(line for line in lines if "layers" in line)["layers"] for _, lines in probes
    ]
    for key in ("setup.import_s", "setup.build_s"):
        layers[key] = median([p[key] for p in probe_layers])
    layers.update(workload_layer)
    span_ns = layers.pop("span_ns")
    client_ns = 1e9 * result["all_latency_s"]
    layers["trace.unattributed_share"] = max(0.0, 1.0 - span_ns / client_ns)
    layers["trace.overhead_share"] = result["wall_s"] / baseline["wall_s"] - 1.0
    return {
        "correct": not failures,
        "attempted": len(result["latencies"]),
        "failed": failed,
        "metrics": metric_block(layers, "per_layer"),
    }
