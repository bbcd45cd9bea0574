"""The ``serve-mix`` workload: ``repro serve`` under an open-loop mix.

The server runs as a subprocess (:mod:`serve_launcher`).  This process
is the one load generator: a single asyncio thread that sends each job
at its scheduled time, with at most :data:`IN_FLIGHT` jobs (and so
connections) open at once.  A job is ``POST /v1/jobs`` followed by
``GET /v1/jobs/<id>?wait=1``; its latency runs from the *scheduled*
send time to the report, so a late send counts against the server.
"""

from __future__ import annotations

import asyncio
import ctypes
import gc
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

import common
import tracer as tr

#: Offered load, jobs per host second.  Well below what one server
#: worker sustains, so latency measures service, not a growing backlog.
RATE = 40.0
#: Jobs (and connections) in flight at once.
IN_FLIGHT = 2
#: Models: (workload, count of distinct seeds).  12 models fit the
#: server's 16-entry programmed-state cache.
MODELS = (("mlp", 9), ("mnist_cnn", 3))
#: Every fourth job goes to a ``mnist_cnn`` model (25% of the mix).
CNN_EVERY = 4
TENANTS = ("acme", "globex", "initech", "umbrella")
INPUTS_PER_JOB = 4
#: Jobs re-run in-process to check their ``outputs_sha256``.
DIGEST_SAMPLE = 8
#: Untraced seconds per slice of a traced run; each traced slice that
#: follows one lasts half as long.
SLICE_S = 2.5

#: ``prctl`` option: the signal a process gets when its parent dies.
PR_SET_PDEATHSIG = 1

HERE = Path(__file__).resolve().parent


class ServeMix:
    """The workload: its seeded models, schedule, windows and checks."""

    name = "serve-mix"

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.workers = max(1, common.nproc() - 1)  # + 1 load thread
        rng = np.random.default_rng([seed, 11])
        model_seeds = rng.choice(2**20, size=sum(n for _, n in MODELS),
                                 replace=False)
        self.models: List[Tuple[str, int]] = []
        for workload, n in MODELS:
            for _ in range(n):
                self.models.append((workload, int(model_seeds[
                    len(self.models)])))
        self.rng = rng

    # -- inputs ---------------------------------------------------------------
    def _job(self, model: Tuple[str, int], input_seed: int,
             tenant: str) -> dict:
        from repro.api import InferenceJob

        workload, seed = model
        return InferenceJob(
            workload=workload, seed=seed, count=INPUTS_PER_JOB,
            batch=INPUTS_PER_JOB, input_seed=input_seed, tenant=tenant,
        ).to_dict()

    def schedule(self, seconds: float) -> Tuple[List[float], List[dict]]:
        """Evenly spaced arrivals and the seeded job sent at each."""
        count = max(1, int(round(RATE * seconds)))
        offsets = np.arange(count) / RATE
        mlp = [m for m in self.models if m[0] == "mlp"]
        cnn = [m for m in self.models if m[0] != "mlp"]
        jobs = []
        input_seeds = self.rng.choice(2**31 - 1, size=count, replace=False)
        for index in range(count):
            # A fixed interleave (not a coin flip per job) keeps bursts of
            # costly jobs, and so the queueing they cause, equal per seed.
            pool = cnn if index % CNN_EVERY == CNN_EVERY - 1 else mlp
            model = pool[int(self.rng.integers(len(pool)))]
            tenant = TENANTS[int(self.rng.integers(len(TENANTS)))]
            jobs.append(self._job(model, int(input_seeds[index]), tenant))
        return [float(o) for o in offsets], jobs

    # -- the benchmark --------------------------------------------------------
    def run(self, seconds: float, trace: bool
            ) -> Tuple[bool, int, int, Dict[str, float]]:
        if not trace:
            servers: List[Server] = []

            def setup() -> Tuple[float, Server]:
                if servers:
                    servers.pop().stop()
                servers.append(Server(self, None))
                return servers[-1].setup_s, servers[-1]

            try:
                with cores_kept_awake():
                    setup_s, server = common.repeated_setup(setup)
                    window = self.window(server, seconds)
                rss = common.peak_rss_mb(server.process.pid)
            finally:
                for server in servers:
                    server.stop()
            ok = self.check(window)
            metrics = {
                "setup_s": setup_s,
                "ops_per_s": window["ops_per_s"],
                "latency_p50_ms": common.quantile(
                    window["latencies"], 0.5) * 1e3,
                "ok_frac": window["ok"] / window["attempted"] if ok else 0.0,
                "peak_rss_mb": rss,
            }
            failed = window["attempted"] - window["ok"] if ok else \
                window["attempted"]
            return ok and failed == 0, window["attempted"], failed, metrics

        # An untraced and a traced server take turns, slice by slice, so
        # both see the same host conditions.  The untraced slices carry
        # the server's histograms and the p99, so they add up to at
        # least TAIL_SAMPLES jobs.
        spans_path = self.out_dir / "server-spans.jsonl"
        seconds = max(seconds, common.TAIL_SAMPLES / RATE)
        slices = max(1, round(seconds / SLICE_S))
        plain_slices, traced_slices = [], []
        servers = []
        try:
            with cores_kept_awake():
                servers.append(Server(self, None))
                servers.append(Server(self, spans_path))
                for _ in range(slices):
                    plain_slices.append(self.window(servers[0],
                                                    seconds / slices))
                    traced_slices.append(self.window(servers[1],
                                                     seconds / slices / 2))
        finally:
            for server in servers:
                server.stop()
        plain, traced = _merge(plain_slices), _merge(traced_slices)
        spans = tr.in_window(tr.load_spans(spans_path), traced["start_ns"],
                             traced["end_ns"])
        (self.out_dir / f"trace-{self.name}.json").write_text(
            json.dumps(tr.Tracer().chrome_trace(spans)), encoding="utf-8"
        )
        spans_path.unlink()
        jobs = traced["ok"] or 1
        metrics = common.layer_metrics(spans, jobs)
        selfs = tr.self_times(spans)
        metrics["serve.evaluate_s"] = (
            selfs.get("serve.evaluate", 0.0) + selfs.get("api.run", 0.0)
        ) / jobs
        metrics.update(self.server_metrics(plain))
        metrics["latency_p99_ms"] = common.tail_p99_ms(plain["latencies"])
        # Every scheduled job completes, so this is deterministic per seed.
        metrics["accuracy"] = statistics.fmean(
            r["result"]["accuracy"] for r in plain["reports"]
            if r.get("status") == "done"
        )
        metrics["telemetry.trace_overhead_frac"] = 1.0 - (
            statistics.median(plain["latencies"])
            / statistics.median(traced["latencies"])
        )
        ok = self.check(plain) and self.check(traced)
        attempted = plain["attempted"] + traced["attempted"]
        failed = attempted - plain["ok"] - traced["ok"] if ok else attempted
        return ok and failed == 0, attempted, failed, metrics

    def window(self, server: "Server", seconds: float) -> Dict[str, Any]:
        """Send one schedule open-loop and collect every report."""
        from repro.serve.client import ServeClient

        offsets, jobs = self.schedule(seconds)
        client = ServeClient(server.host, server.port)
        before = client.stats()
        # The generator's own garbage collections would delay sends and
        # reads and show up as server tail latency.
        gc.collect()
        gc.disable()
        try:
            outcome = asyncio.run(self._send_all(server, offsets, jobs))
        finally:
            gc.enable()
        after = client.stats()
        outcome["jobs"] = jobs
        outcome["stats"] = (before, after)
        done = outcome["end_ns"] - outcome["start_ns"]
        outcome["ops_per_s"] = outcome["ok"] / (done / 1e9)
        return outcome

    async def _send_all(self, server: "Server", offsets: List[float],
                        jobs: List[dict]) -> Dict[str, Any]:
        slots = asyncio.Semaphore(IN_FLIGHT)
        count = len(jobs)
        latencies: List[float] = []
        service: List[float] = []
        lags: List[float] = []
        reports: List[dict] = [{} for _ in range(count)]
        ok = 0

        async def one(index: int, due: float) -> None:
            nonlocal ok
            try:
                sent = time.perf_counter()
                lags.append(sent - due)
                status, answer = await server.http(
                    "POST", "/v1/jobs", jobs[index])
                if status >= 400:
                    return
                status, report = await server.http(
                    "GET", f"/v1/jobs/{answer['job_id']}?wait=1")
                finished = time.perf_counter()
                reports[index] = report
                if status < 400 and report.get("status") == "done":
                    ok += 1
                    latencies.append(finished - due)
                    service.append(finished - sent)
            except (OSError, ValueError, KeyError) as error:
                reports[index] = {"error": repr(error)}
            finally:
                slots.release()

        tasks = []
        start = time.perf_counter()
        for index, offset in enumerate(offsets):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            await slots.acquire()
            tasks.append(asyncio.create_task(one(index, due)))
        await asyncio.gather(*tasks)
        end = time.perf_counter()
        return {
            "start_ns": int(start * 1e9), "end_ns": int(end * 1e9),
            "attempted": count, "ok": ok, "latencies": latencies,
            "service": service, "lags": lags, "reports": reports,
        }

    # -- checks ---------------------------------------------------------------
    def check(self, window: Dict[str, Any]) -> bool:
        """Done reports validate; a seeded sample matches direct runs.

        Jobs that failed or were refused are already missing from
        ``window["ok"]``; this check catches wrong answers.
        """
        from repro.api import InferenceJob, Simulator
        from repro.serve.server import ServerConfig, validate_job_report
        from repro.xbar.engine import weights_hash

        done = [i for i, report in enumerate(window["reports"])
                if report.get("status") == "done"]
        for index in done:
            try:
                validate_job_report(window["reports"][index])
            except (ValueError, KeyError, TypeError):
                return False
        config = ServerConfig().engine_config
        rng = np.random.default_rng([self.seed, 12])
        picks = rng.choice(done, size=min(DIGEST_SAMPLE, len(done)),
                           replace=False)
        for index in sorted(int(p) for p in picks):
            job = InferenceJob.from_dict(window["jobs"][index])
            sim = Simulator.from_workload(
                job.workload, engine_config=config, backend="vectorized",
                seed=job.seed,
            )
            digest = weights_hash(sim.run(job).outputs)
            if digest != window["reports"][index]["result"][
                    "outputs_sha256"]:
                return False
        return True

    # -- server-side layers ---------------------------------------------------
    def server_metrics(self, window: Dict[str, Any]) -> Dict[str, float]:
        from repro.telemetry.analysis import histogram_quantile

        before, after = window["stats"]

        def hist(path: str) -> dict:
            old = before["histograms"].get(path)
            new = after["histograms"].get(path)
            if new is None:
                return {"bounds": [1.0], "counts": [0, 0], "count": 0,
                        "sum": 0.0}
            if old is None:
                return new
            return {
                "bounds": new["bounds"],
                "counts": [a - b for a, b in zip(new["counts"],
                                                 old["counts"])],
                "count": new["count"] - old["count"],
                "sum": new["sum"] - old["sum"],
            }

        def counter(path: str) -> float:
            return after["counters"].get(path, 0) - before["counters"].get(
                path, 0)

        queue = hist("serve/latency/queue_wait_seconds")
        e2e = hist("serve/latency/e2e_seconds")
        hits, misses = counter("serve/cache/hits"), counter(
            "serve/cache/misses")
        done = counter("serve/jobs.done")
        batches = hist("serve/coalesce/batch_size_jobs")
        # Means, not p50s, where a difference or a count is wanted: the
        # fixed buckets (10 ms to 25 ms, 1 job to 2 jobs) interpolate a
        # p50 that can sit on the wrong side of the true value.
        e2e_mean = e2e["sum"] / e2e["count"] if e2e["count"] else 0.0
        return {
            "serve.queue_wait_p50_ms": histogram_quantile(queue, 0.5) * 1e3,
            "serve.queue_wait_p99_ms": histogram_quantile(queue, 0.99) * 1e3,
            "serve.server_e2e_p50_ms": histogram_quantile(e2e, 0.5) * 1e3,
            "serve.transport_mean_ms": (
                statistics.fmean(window["service"]) - e2e_mean) * 1e3,
            "serve.cache_lookup_p50_ms": histogram_quantile(
                hist("serve/cache/lookup_seconds"), 0.5) * 1e3,
            "serve.cache_hit_frac": hits / (hits + misses)
            if hits + misses else 0.0,
            "serve.coalesce_batch_mean_jobs": batches["sum"] / batches[
                "count"] if batches["count"] else 0.0,
            "serve.coalesced_frac": counter("serve/coalesced.jobs") / done
            if done else 0.0,
            "load.send_lag_p99_ms": common.quantile(
                window["lags"], 0.99) * 1e3,
        }


@contextmanager
def cores_kept_awake() -> Iterator[None]:
    """Keep every core busy, at idle priority, while serve-mix measures.

    One busy loop per core runs under ``SCHED_IDLE``, which gives way at
    once to any other runnable thread, so the server and the load
    generator never wait for a halted core to wake.  On a virtual
    machine that wake-up goes through the host's scheduler, and its
    delay changes with the load of the host's other tenants; a job
    crosses several threads and processes, so it would pay the delay
    several times.  Booting with ``idle=poll`` has much the same effect.
    """
    spinners: List[subprocess.Popen] = []
    try:
        for _ in range(common.nproc()):
            spinners.append(subprocess.Popen(
                [sys.executable, "-S", "-c", "while True: pass"],
                stdin=subprocess.DEVNULL, preexec_fn=_idle_priority,
            ))
        yield
    finally:
        for spinner in spinners:
            spinner.kill()
        for spinner in spinners:
            spinner.wait()


def _die_with_parent() -> None:
    """Run in a child before exec: no child outlives the benchmark,
    however the benchmark ends."""
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def _idle_priority() -> None:
    _die_with_parent()
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))


def _merge(slices: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One window from consecutive slices sent to the same server."""
    merged: Dict[str, Any] = {
        "start_ns": slices[0]["start_ns"], "end_ns": slices[-1]["end_ns"],
        "stats": (slices[0]["stats"][0], slices[-1]["stats"][1]),
    }
    for key in ("attempted", "ok"):
        merged[key] = sum(part[key] for part in slices)
    for key in ("latencies", "service", "lags", "reports", "jobs"):
        merged[key] = [item for part in slices for item in part[key]]
    return merged


class Server:
    """One ``repro serve`` subprocess, warmed and ready to time."""

    def __init__(self, mix: ServeMix, trace_out: Optional[Path]) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path.cwd() / "src"), env.get("PYTHONPATH"))
            if p)
        command = [sys.executable, "-u", str(HERE / "serve_launcher.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += ["--workers", str(mix.workers), "--port", "0"]
        self._log = open(mix.out_dir / "server.log", "ab")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, env=env,
            preexec_fn=_die_with_parent,
        )
        try:
            ready_ns = self._ready()
            self._warm(mix)
            self.setup_s = (time.perf_counter_ns() - ready_ns) / 1e9
        except BaseException:
            self.stop()
            raise

    def _ready(self) -> int:
        ready_ns = None
        while True:
            line = self.process.stdout.readline().decode()
            if not line:
                raise RuntimeError("repro serve exited before listening")
            if line.startswith("perfbench-launcher-ready"):
                ready_ns = int(line.split()[1])
            elif "listening on http://" in line:
                address = line.split("http://", 1)[1].split()[0]
                host, port = address.rsplit(":", 1)
                self.host, self.port = host, int(port)
                return ready_ns

    def _warm(self, mix: ServeMix) -> None:
        from repro.serve.client import ServeClient

        client = ServeClient(self.host, self.port)
        while not client.health():
            time.sleep(0.01)
        for index, model in enumerate(mix.models):
            report = client.run(mix._job(model, index, TENANTS[0]))
            if report.get("status") != "done":
                raise RuntimeError(f"warm-up job failed: {report}")

    async def http(self, method: str, path: str,
                   document: Optional[dict] = None) -> Tuple[int, dict]:
        """One HTTP/1.1 round trip on a fresh connection."""
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            body = json.dumps(document).encode() if document else b""
            head = (
                f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            )
            writer.write(head.encode() + body)
            await writer.drain()
            raw = await reader.read()
        finally:
            writer.close()
            await writer.wait_closed()
        head_bytes, _, payload = raw.partition(b"\r\n\r\n")
        status = int(head_bytes.split(b" ", 2)[1])
        return status, json.loads(payload or b"null")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()
