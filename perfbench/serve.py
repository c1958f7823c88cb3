"""The ``serve`` workload: a closed loop against the compile service.

Untraced, the service is ``repro serve`` in its own process with two
thread workers and a fresh ``REPRO_CACHE_DIR``.  One client, the
benchmark's main thread, keeps one keep-alive connection and sends its
next request only when the previous reply has arrived: the callers
are CLI and CI tools that each wait for a reply.  Both choices keep
the latencies off the shared machine's scheduler: a second client put
two requests, the server, its workers and the client on the machine's
two cores at once, and the default process workers add two
cross-process wake-ups to every request, whose delay under the
machine's other load no probe tracks.

A request's latency has two parts.  Until the response headers arrive
the server works: it parses, queues, compiles, runs and serializes.
That part is calibrated like the in-process ops (see
:mod:`calibrate`), by the probes the client runs between requests.
The wait for the body after the headers is transport, which no
machine speed changes (the server writes headers and body apart, and
the body waits for the client's delayed ACK), so it is kept as
measured.  Set-up is calibrated the same way: between reference
programs, and between its warm-up requests, split alike.

Traced, the service runs inside the benchmark process on two worker
threads, because the layer wrappers must be inside the worker to see
its spans; the traced figures say so beside them.
"""

from __future__ import annotations

import functools
import http.client
import json
import os
import random
import re
import shutil
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from benchstats import Outcome, Tally, peak_rss_kib
from calibrate import Calibrator
from layers import OP
from reference import Expected, Optimized, check_run, naive_reference
from spans import Patcher, Tracer, paused

from repro.benchsuite.registry import all_programs, cross_call_programs
from repro.benchsuite.runner import BENCH_PARITY_FIELDS
from repro.checks.config import CheckKind, OptimizerOptions, Scheme
from repro.fuzz.generator import generate_program
from repro.pipeline import compile_source
from repro.service.client import ServiceClient

#: (scheme, kind) pairs a request may ask for.
CONFIGS = (("LLS", "PRX"), ("SPEC", "INX"))
ENGINES = ("interp", "compiled", "specialized")
WORKERS = 2
#: Per round of 100 requests, beside the 78 warm ones: registry
#: sources made cold by a comment line, generated programs, and
#: requests that must be refused.
COLD_REGISTRY = 10
COLD_FUZZ = 10
MALFORMED_PER_ROUND = 2
#: A timed loop sends whole rounds, and at least this many.
MIN_ROUNDS = 2
#: Generated programs per run, one per cold use in the least rounds;
#: each use adds a fresh nonce.
FUZZ_PROGRAMS = COLD_FUZZ * MIN_ROUNDS
#: Seeded candidates per generated program (see :meth:`Serve._fuzz`).
FUZZ_CANDIDATES = 10
#: Traced runs alternate untraced and traced segments this long.
SEGMENT_SECONDS = 1.0
READY_TIMEOUT = 60.0
#: Requests that never reach the optimizer, with the status they earn.
MALFORMED = (
    ({"action": "run", "source": "program p\nend program\n",
      "scheme": "NOPE"}, 400),
    ({"action": "run", "source": ""}, 400),
    ({"action": "run", "source": "program broken\n  x = = 1\nend program\n"},
     422),
)


class _Request:
    __slots__ = ("payload", "cls", "ref", "status")

    def __init__(self, payload: Dict[str, Any], cls: str,
                 ref: Optional[Tuple[str, str]], status: int = 200) -> None:
        self.payload = payload
        self.cls = cls
        #: (program name, config) whose references this request shares
        self.ref = ref
        self.status = status


class _TimedResponse(http.client.HTTPResponse):
    def __init__(self, sock: Any, *args: Any, owner: "_TimedClient",
                 **kwargs: Any) -> None:
        super().__init__(sock, *args, **kwargs)
        self._owner = owner

    def begin(self) -> None:
        super().begin()
        self._owner.headers_at = time.perf_counter()


class _TimedClient(ServiceClient):
    """A service client, for one thread, that notes in ``headers_at``
    when the last response's headers arrived."""

    headers_at: Optional[float] = None

    def _connection(self, timeout: float) -> http.client.HTTPConnection:
        conn = super()._connection(timeout)
        conn.response_class = functools.partial(_TimedResponse, owner=self)
        return conn


def _proc_children(pid: int) -> List[int]:
    try:
        with open("/proc/%d/task/%d/children" % (pid, pid)) as handle:
            return [int(child) for child in handle.read().split()]
    except OSError:
        return []


class Serve:
    name = "serve"
    canonical = False

    def __init__(self, seed: int, root: str, in_process: bool) -> None:
        self.seed = seed
        self.root = root
        self.in_process = in_process
        self.server: Optional[subprocess.Popen] = None
        self.service = None
        self.cache_dir = os.path.join(root, "perfbench", "out",
                                      "cache-%d" % os.getpid())
        self.url: Optional[str] = None
        self.server_peak_kib = 0
        self.coalesced = 0
        #: the traced run's wrappers, paused around reference runs
        self.patcher: Optional[Patcher] = None

    # -- set-up ----------------------------------------------------

    def setup(self, mark: Callable[..., float]) -> None:
        """Start the server, compute the references and send every warm
        request once; ``mark`` is :meth:`calibrate.SetupClock.mark`."""
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        os.makedirs(self.cache_dir)
        rng = random.Random(self.seed)
        if self.in_process:
            self._start_in_process()
        else:
            self._spawn()
        programs = all_programs() + cross_call_programs()
        self.sources = {p.name: p.source for p in programs}
        self.inputs = {p.name: p.test_inputs for p in programs}
        self.fuzz_names = []
        for fuzz_seed, source in self._fuzz(rng):
            name = "fuzz-%d" % fuzz_seed
            self.sources[name] = source
            self.inputs[name] = {}
            self.fuzz_names.append(name)
        self.registry_names = [p.name for p in programs]
        # references are computed while the server boots
        self.expected: Dict[str, Expected] = {}
        self.optimized: Dict[Tuple[str, str], Optimized] = {}
        with paused(self.patcher):
            for name, source in self.sources.items():
                self.expected[name] = naive_reference(source,
                                                      self.inputs[name])
                for scheme, kind in CONFIGS:
                    program = compile_source(source, OptimizerOptions(
                        Scheme[scheme], CheckKind[kind]))
                    self.optimized[(name, scheme + kind)] = Optimized.of(
                        program, self.inputs[name])
                mark()
        self._wait_ready()
        self.schedule = self._schedule(rng)
        self.sent = 0
        warm = [self._request(name, scheme, kind, engine, "warm")
                for name in self.registry_names
                for scheme, kind in CONFIGS for engine in ENGINES]
        self.round_size = (len(warm) + COLD_REGISTRY + COLD_FUZZ
                           + MALFORMED_PER_ROUND)
        self.setup_tally = Tally()
        self._loop(iter(warm), lambda: False, self.setup_tally,
                   lambda work, transport: mark(transport))

    @staticmethod
    def _fuzz(rng: random.Random) -> List[Tuple[int, str]]:
        """``FUZZ_PROGRAMS`` seeded generated programs, as (generator
        seed, source), drawn one from each size stratum.

        A generated program's compile cost grows with its size and is
        heavy-tailed (the slowest of 60 cost 15 times the median), so
        a plain draw of 20 made the cold requests, and with them the
        p90, differ by seed.  Instead ``FUZZ_CANDIDATES`` times as many
        seeded candidates are sorted by source length, cut into equal
        strata, and one is drawn from each: every run gets the same
        spread of sizes, and the seed still picks the programs."""
        seeds = [rng.randrange(1 << 30)
                 for _ in range(FUZZ_PROGRAMS * FUZZ_CANDIDATES)]
        candidates = sorted(((len(source), seed, source) for seed, source
                             in ((s, generate_program(s)) for s in seeds)))
        picks = []
        for index in range(FUZZ_PROGRAMS):
            stratum = candidates[index * FUZZ_CANDIDATES:
                                 (index + 1) * FUZZ_CANDIDATES]
            _, seed, source = rng.choice(stratum)
            picks.append((seed, source))
        return picks

    def _spawn(self) -> None:
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        env["REPRO_CACHE_DIR"] = self.cache_dir
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--workers", str(WORKERS),
             "--worker-mode", "thread"],
            cwd=self.root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        self._stderr: List[str] = []
        self._url_found = threading.Event()
        self._reader = threading.Thread(target=self._read_stderr,
                                        daemon=True)
        self._reader.start()

    def _read_stderr(self) -> None:
        for line in self.server.stderr:
            self._stderr.append(line)
            match = re.search(r"listening on (http://\S+)", line)
            if match:
                self.url = match.group(1)
                self._url_found.set()
        self._url_found.set()

    def _start_in_process(self) -> None:
        from repro.pipeline import (reset_shared_backend_cache,
                                    reset_shared_cache)
        from repro.service import CompileService
        from repro.service.workers import WorkerPool

        os.environ["REPRO_CACHE_DIR"] = self.cache_dir
        reset_shared_cache()
        reset_shared_backend_cache()
        self.pool = WorkerPool(WORKERS, "thread", task=_task)
        self.service = CompileService("127.0.0.1", 0, pool=self.pool)
        self.service.start()
        self.url = self.service.url

    def _wait_ready(self) -> None:
        if self.server is not None:
            if not self._url_found.wait(READY_TIMEOUT) or not self.url:
                raise RuntimeError("server did not start: %s"
                                   % "".join(self._stderr[-5:]).strip())
        client = ServiceClient(self.url)
        try:
            if not client.wait_ready(attempts=600, delay=0.1):
                raise RuntimeError("server at %s never answered" % self.url)
        finally:
            client.close()

    # -- the request mix -------------------------------------------

    def _request(self, name: str, scheme: str, kind: str, engine: str,
                 cls: str, nonce: Optional[str] = None) -> _Request:
        source = self.sources[name]
        if nonce is not None:
            # a comment changes the source digest, so the frontend tier
            # misses, and changes nothing the program computes
            source = "! nonce %s\n%s" % (nonce, source)
        payload = {"action": "run", "source": source, "scheme": scheme,
                   "kind": kind, "inputs": self.inputs[name],
                   "engine": engine}
        return _Request(payload, cls, (name, scheme + kind))

    def _schedule(self, rng: random.Random) -> Iterator[_Request]:
        """Rounds of 100 requests, each shuffled: every warm key once,
        ``COLD_REGISTRY`` commented registry sources, ``COLD_FUZZ``
        generated ones and ``MALFORMED_PER_ROUND`` malformed requests.
        Cold requests take programs and (config, engine) pairs in turn
        from seeded cycles, so whole rounds keep the mix the same from
        seed to seed."""
        def cycle(items):
            while True:
                order = list(items)
                rng.shuffle(order)
                yield from order

        registry = cycle(self.registry_names)
        fuzz = cycle(self.fuzz_names)
        settings = cycle([(scheme, kind, engine)
                          for scheme, kind in CONFIGS for engine in ENGINES])
        malformed = cycle(MALFORMED)
        while True:
            batch = [self._request(name, scheme, kind, engine, "warm")
                     for name in self.registry_names
                     for scheme, kind in CONFIGS for engine in ENGINES]
            cold = ([next(registry) for _ in range(COLD_REGISTRY)]
                    + [next(fuzz) for _ in range(COLD_FUZZ)])
            for name in cold:
                scheme, kind, engine = next(settings)
                batch.append(self._request(name, scheme, kind, engine,
                                           "cold",
                                           "%016x" % rng.getrandbits(64)))
            for _ in range(MALFORMED_PER_ROUND):
                payload, status = next(malformed)
                batch.append(_Request(dict(payload), "malformed", None,
                                      status))
            rng.shuffle(batch)
            yield from batch

    def judge(self, request: _Request, status: Any, body: Any) -> Outcome:
        if status != request.status:
            return Outcome(False, "status %s, expected %d"
                           % (status, request.status), cls=request.cls)
        if request.ref is None:
            return Outcome(True, cls=request.cls)
        name = request.ref[0]
        counters = body.get("counters") or {}
        counts = {field: counters.get(field) for field in BENCH_PARITY_FIELDS}
        reason = check_run(self.expected[name], self.optimized[request.ref],
                           body.get("output", []),
                           body.get("trap") is not None, counts)
        return Outcome(not reason, reason, cls=request.cls)

    # -- the closed loop -------------------------------------------

    def sample_keys(self, count: int) -> List[Any]:
        names = sorted(self.optimized)
        return random.Random(self.seed).sample(names, min(count, len(names)))

    def det_for(self, key: Any, seen: Any = None) -> Dict[str, Any]:
        """The references of ``key``: every response is checked against
        them, so they stand for the deterministic results."""
        naive, optimized = self.expected[key[0]], self.optimized[key]
        return {"output": naive.output, "trapped": naive.trapped,
                "optimized": [optimized.output, optimized.trapped,
                              optimized.counters]}

    def _loop(self, requests: Iterator[_Request], stop: Callable[[], bool],
              tally: Tally, timing: Callable[[float, float], float],
              tracer: Optional[Tracer] = None) -> None:
        """Send ``requests`` one at a time over one connection until
        ``stop()``.  ``timing(work, transport)`` turns the two parts of
        each latency into the seconds recorded."""
        client = _TimedClient(self.url, timeout=120.0)
        try:
            while not stop():
                request = next(requests, None)
                if request is None:
                    return
                self.sent += 1
                self._one(client, request, tally, timing, tracer)
        finally:
            client.close()

    def _one(self, client: _TimedClient, request: _Request, tally: Tally,
             timing: Callable[[float, float], float],
             tracer: Optional[Tracer]) -> None:
        root = None
        if tracer is not None:
            root = tracer.open(OP)
            root.attrs["key"] = request.cls
        client.headers_at = None
        start = time.perf_counter()
        try:
            status, raw = client.post("/compile", request.payload)
            body = json.loads(raw.decode("utf-8"))
        except (OSError, http.client.HTTPException, ValueError) as error:
            status, body = "transport error: %s" % error, None
        seconds = time.perf_counter() - start
        if root is not None:
            tracer.close(root)
        work = (seconds if client.headers_at is None
                else client.headers_at - start)
        seconds = timing(work, seconds - work)
        outcome = self.judge(request, status, body)
        tally.record(id(request), outcome, seconds)
        if tracer is not None and isinstance(status, int):
            self.traced_statuses.append(status)
            if isinstance(body, dict) and body.get("trap") is not None:
                self.traced_traps += 1

    def drive(self, seconds: float, tally: Tally,
              tracer: Optional[Tracer] = None,
              patcher: Optional[Patcher] = None) -> float:
        """Closed loop for ``seconds``, then on to the end of the round,
        and for at least :data:`MIN_ROUNDS` rounds, so every run has
        the same mix.  Traced, alternate untraced and traced segments;
        ``segments`` keeps each one's latencies per class for the
        overhead estimate.  Failed warm-up requests of set-up count as
        failures here."""
        for reason, count in self.setup_tally.reasons.items():
            for _ in range(count):
                tally.fail("set-up: " + reason)
        self.traced_statuses: List[int] = []
        self.traced_traps = 0
        self.segments: List[Tuple[bool, Dict[str, List[float]]]] = []
        self.sent = 0
        started = time.perf_counter()
        end = started + seconds
        traced = False
        while True:
            now = time.perf_counter()
            if now >= end and self._whole_rounds():
                break
            deadline = end if tracer is None else min(end,
                                                     now + SEGMENT_SECONDS)

            def stop(deadline: float = deadline) -> bool:
                if time.perf_counter() < deadline:
                    return False
                return deadline < end or self._whole_rounds()

            segment = Tally()
            calibrator = Calibrator()
            if traced:
                patcher.apply()
                coalesced = self.pool.coalesced
            try:
                self._loop(self.schedule, stop, segment,
                           lambda work, transport:
                           calibrator.scale(work) + transport,
                           tracer if traced else None)
            finally:
                if traced:
                    patcher.restore()
                    self.coalesced += self.pool.coalesced - coalesced
            tally.merge(segment)
            self.segments.append((traced, segment.by_class))
            traced = tracer is not None and not traced
        return time.perf_counter() - started

    def _whole_rounds(self) -> bool:
        return (self.sent >= MIN_ROUNDS * self.round_size
                and self.sent % self.round_size == 0)

    # -- tear-down -------------------------------------------------

    def close(self) -> None:
        try:
            if self.service is not None:
                self.service.shutdown(drain_timeout=10.0)
            if self.server is not None:
                self._stop_server()
        finally:
            shutil.rmtree(self.cache_dir, ignore_errors=True)

    def _stop_server(self) -> None:
        server = self.server
        tree = [server.pid] + _proc_children(server.pid)
        self.server_peak_kib = sum(peak_rss_kib(pid) for pid in tree)
        if self.url is None:
            server.terminate()
        else:
            client = ServiceClient(self.url, timeout=10.0)
            try:
                client.shutdown()
            except (OSError, http.client.HTTPException):
                server.terminate()
            finally:
                client.close()
        try:
            server.wait(timeout=45.0)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait(timeout=10.0)
        self._reader.join(timeout=10.0)
        server.stderr.close()
        for pid in tree[1:]:
            _reap(pid)

    def report(self, tally: Tally) -> Dict[str, Any]:
        if self.server is None:
            return {}
        return {"serve.server_peak_rss_mb": self.server_peak_kib / 1024.0}


def _reap(pid: int, timeout: float = 10.0) -> None:
    """Wait for a process that is not our child to end; kill it if it
    outlives ``timeout``."""
    import signal

    deadline = time.monotonic() + timeout
    while _alive(pid):
        if time.monotonic() > deadline:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                return
            deadline = time.monotonic() + timeout
        time.sleep(0.05)


def _alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie awaiting its reaper has ended)."""
    try:
        with open("/proc/%d/stat" % pid) as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def _task(payload: Dict[str, Any]):
    """Pool task that resolves the worker function at call time, so the
    traced segments see the wrapped one."""
    from repro.service import jobs

    return jobs.execute_request(payload)
