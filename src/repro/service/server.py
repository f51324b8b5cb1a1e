"""The asyncio analysis service: job scheduling, sharding, streaming.

:class:`AnalysisService` is the in-process core -- an asyncio job
engine over a worker executor:

- **Submission** is non-blocking: :meth:`AnalysisService.submit`
  enqueues a :class:`~repro.service.jobs.JobRequest` and returns its
  :class:`~repro.service.jobs.JobRecord` immediately; a bounded
  semaphore caps simultaneously *running* jobs.
- **Shared-memory model cache**: the first job touching a geometry
  extracts it (in a worker) and publishes the parasitics into the
  :class:`~repro.service.shm.SharedParasiticsStore`; every later job
  -- and every march item -- attaches zero-copy.  Extraction is
  single-flighted per geometry key, so a burst of identical requests
  costs one extraction.
- **One noise plan for noise and sweep jobs**: both run the plan of
  :mod:`repro.noise.engine` -- a noise job is its one-scenario case.
  Each scenario is published to shared memory and screened as one work
  item, in order (one streamed ``screen`` progress event each); the
  escalated victims then group by testbench circuit.
- **One march per circuit per service**: the unit-ramp responses a
  circuit's victims are superposed from live in the server's
  :class:`~repro.service.responses.ResponseStore`.  Only the responses
  the store does not yet hold are marched, under per-circuit locks
  taken in key order: every wire of a circuit new to the store, or
  every stored column resumed out to the longest reach its clock
  allows when a job needs a longer horizon, split by source
  into :meth:`ServiceConfig.shard_count` march items dispatched to the
  pool together (one ``simulate`` event each).  The results join the
  store once every item has returned, and the job's victims are
  superposed from it off the event loop, each on its own scenario's
  horizon -- so the merged reports match the one-shot scan and ``repro
  noise sweep``.
- **Result memo**: finished results are memoized by request content
  key -- a repeated request is answered from memory with its original
  checksum.
- **Cancellation and timeouts**: cancel flags are honored between
  work items (while queued, before every extract and screen item,
  before the march items are dispatched, and as each one finishes
  -- march items the pool has not started are then dropped); each
  job runs under ``asyncio.wait_for`` with a per-job or
  service-default timeout.  Worker failures surface through the
  :mod:`repro.health` taxonomy: the typed exception's class name is
  reported in the job's ``error["kind"]``.  A worker process that dies
  fails the jobs whose items it broke with
  :class:`~repro.health.errors.WorkerLostError`, and the pool is
  replaced once per breakage (``stats``' ``respawns``); the response
  store lives in the server, so it outlives the pool.

:class:`ServiceServer` wraps the core in a JSON-lines TCP protocol
(one request object per line, streamed event objects per line back),
and :func:`serve` is the blocking entry point behind ``repro serve``.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import defaultdict
from contextlib import AsyncExitStack
from dataclasses import dataclass, field
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Any, AsyncIterator, Dict, List, Optional, Sequence, Tuple

from repro.extraction.capacitance import CapacitanceModel
from repro.extraction.constants import COPPER_RESISTIVITY
from repro.experiments.runner import ModelSpec
from repro.health.errors import NumericalHealthError, WorkerLostError
from repro.noise.engine import (
    MarchResult,
    NoiseConfig,
    NoiseScanReport,
    ScreenedScenario,
    assemble_plan,
    plan_simulations,
)
from repro.noise.sweep import ScenarioResult, SweepReport
from repro.pipeline.cache import parasitics_key
from repro.pipeline.parallel import default_jobs
from repro.service import workers as _workers
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TIMEOUT,
    JobCancelledError,
    JobRecord,
    JobRequest,
)
from repro.service.responses import (
    CircuitPlan,
    ResponseStore,
    superpose_plans,
)
from repro.service.shm import SharedParasiticsStore

#: Protocol version reported by ``hello`` / ``stats``.
PROTOCOL_VERSION = 1


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service instance."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Worker processes.  ``None`` uses the CPU count; ``<= 1`` runs
    #: work items on threads in-process (no pool start-up cost, the
    #: natural mode for tests and single-core machines).
    jobs: Optional[int] = None
    #: March items each circuit's sources are split into, per noise or
    #: sweep job (default: the worker count).
    shards: Optional[int] = None
    #: Disk cache root for extraction / model artifacts (``None``
    #: disables the disk tier; shared memory still caches parasitics).
    cache_dir: Optional[str] = None
    #: Default per-job timeout, seconds (``None``: no timeout).
    job_timeout: Optional[float] = 300.0
    #: Simultaneously running jobs.
    max_concurrency: int = 8

    def worker_count(self) -> int:
        return default_jobs() if self.jobs is None else max(int(self.jobs), 1)

    def shard_count(self) -> int:
        if self.shards is not None:
            return max(int(self.shards), 1)
        return self.worker_count()


@dataclass
class ServiceStats:
    """Lifecycle tallies of one service instance."""

    submitted: int = 0
    done: int = 0
    failed: int = 0
    cancelled: int = 0
    timeout: int = 0
    memo_hits: int = 0
    #: Process pools replaced after a worker died.
    respawns: int = 0
    started_at: float = field(default_factory=time.time)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "submitted": self.submitted,
            "done": self.done,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "timeout": self.timeout,
            "memo_hits": self.memo_hits,
            "respawns": self.respawns,
            "uptime_seconds": time.time() - self.started_at,
        }


class AnalysisService:
    """The in-process asyncio job service (see module docstring)."""

    def __init__(self, config: ServiceConfig = ServiceConfig()) -> None:
        self.config = config
        self.stats = ServiceStats()
        self.shm = SharedParasiticsStore()
        self._records: Dict[str, JobRecord] = {}
        self._events: Dict[str, List[Dict[str, Any]]] = {}
        self._conditions: Dict[str, asyncio.Condition] = {}
        self._tasks: Dict[str, "asyncio.Task[None]"] = {}
        self._memo: Dict[str, JobRecord] = {}
        self._extract_locks: Dict[str, asyncio.Lock] = defaultdict(
            asyncio.Lock
        )
        self.responses = ResponseStore()
        self._response_locks: Dict[str, asyncio.Lock] = defaultdict(
            asyncio.Lock
        )
        self._executor: Optional[Executor] = None
        self._semaphore = asyncio.Semaphore(config.max_concurrency)
        self._counter = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spin up the worker executor (idempotent)."""
        if self._executor is not None:
            return
        workers = self.config.worker_count()
        if workers > 1:
            self._executor = ProcessPoolExecutor(max_workers=workers)
        else:
            # In-process mode: threads keep the event loop responsive
            # while numpy/scipy hold the CPU.
            self._executor = ThreadPoolExecutor(
                max_workers=max(2, self.config.max_concurrency)
            )

    async def close(self) -> None:
        """Cancel outstanding jobs, stop workers, release shared memory."""
        if self._closed:
            return
        self._closed = True
        for record in self._records.values():
            record.request_cancel()
        pending = [task for task in self._tasks.values() if not task.done()]
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        self.shm.close()

    # ------------------------------------------------------------------
    # Submission and observation
    # ------------------------------------------------------------------
    async def submit(
        self, request: JobRequest, timeout: Optional[float] = None
    ) -> JobRecord:
        """Enqueue a job; returns its record immediately."""
        if self._closed:
            raise RuntimeError("service is closed")
        await self.start()
        self._counter += 1
        record = JobRecord(id=f"j{self._counter:06d}", request=request)
        self._records[record.id] = record
        self._events[record.id] = []
        self._conditions[record.id] = asyncio.Condition()
        self.stats.submitted += 1
        await self._emit(record, {"event": QUEUED})
        self._tasks[record.id] = asyncio.create_task(
            self._run(record, timeout)
        )
        return record

    def record(self, job_id: str) -> JobRecord:
        return self._records[job_id]

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; True if the job was still cancellable."""
        record = self._records.get(job_id)
        if record is None:
            return False
        return record.request_cancel()

    async def wait(self, job_id: str) -> JobRecord:
        """Block until a job reaches a terminal state."""
        async for _ in self.stream(job_id):
            pass
        return self._records[job_id]

    async def stream(self, job_id: str) -> AsyncIterator[Dict[str, Any]]:
        """Yield a job's events in order, finishing on the terminal one."""
        events = self._events[job_id]
        condition = self._conditions[job_id]
        index = 0
        while True:
            async with condition:
                while index >= len(events):
                    await condition.wait()
                batch = events[index:]
                index = len(events)
            for event in batch:
                yield event
                if event["event"] in (DONE, FAILED, CANCELLED, TIMEOUT):
                    return

    def stats_dict(self) -> Dict[str, Any]:
        payload = self.stats.to_dict()
        payload.update(
            {
                "protocol": PROTOCOL_VERSION,
                "workers": self.config.worker_count(),
                "shards": self.config.shard_count(),
                "shm_blocks": self.shm.stats.blocks,
                "shm_bytes": self.shm.stats.payload_bytes,
                "shm_hits": self.shm.stats.hits,
                "shm_misses": self.shm.stats.misses,
                "response_circuits": self.responses.circuits,
                "response_bytes": self.responses.nbytes,
                "jobs_tracked": len(self._records),
            }
        )
        return payload

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    async def _emit(
        self, record: JobRecord, event: Dict[str, Any]
    ) -> None:
        event = {"job": record.id, **event}
        condition = self._conditions[record.id]
        async with condition:
            self._events[record.id].append(event)
            condition.notify_all()

    async def _finish(
        self, record: JobRecord, status: str, **extra: Any
    ) -> None:
        record.status = status
        record.finished = time.time()
        counter = {
            DONE: "done",
            FAILED: "failed",
            CANCELLED: "cancelled",
            TIMEOUT: "timeout",
        }[status]
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        await self._emit(
            record,
            {
                "event": status,
                "seconds": record.seconds,
                "memoized": record.memoized,
                "checksum": record.checksum,
                "error": record.error,
                **extra,
            },
        )

    async def _run(
        self, record: JobRecord, timeout: Optional[float]
    ) -> None:
        async with self._semaphore:
            if record.cancel_requested:
                await self._finish(record, CANCELLED)
                return
            record.status = RUNNING
            record.started = time.time()
            await self._emit(record, {"event": RUNNING})
            limit = (
                timeout if timeout is not None else self.config.job_timeout
            )
            try:
                key = record.request.key()
                memo = self._memo.get(key)
                if memo is not None:
                    record.memoized = True
                    self.stats.memo_hits += 1
                    record.result = memo.result
                    record.checksum = memo.checksum
                else:
                    result = await asyncio.wait_for(
                        self._execute(record), timeout=limit
                    )
                    record.result = result
                    record.checksum = str(result.get("checksum"))
                    self._memo[key] = record
            except JobCancelledError:
                await self._finish(record, CANCELLED)
                return
            except asyncio.TimeoutError:
                record.error = {
                    "kind": "TimeoutError",
                    "message": f"job exceeded {limit} s",
                }
                await self._finish(record, TIMEOUT)
                return
            except asyncio.CancelledError:
                await self._finish(record, CANCELLED)
                raise
            except NumericalHealthError as error:
                record.error = {
                    "kind": type(error).__name__,
                    "message": str(error),
                }
                await self._finish(record, FAILED)
                return
            except Exception as error:  # noqa: BLE001 - job boundary
                record.error = {
                    "kind": type(error).__name__,
                    "message": str(error),
                }
                await self._finish(record, FAILED)
                return
            await self._finish(record, DONE, result=record.result)

    async def _call(self, fn: Any, *args: Any) -> Any:
        """Run one work item on the executor.

        A worker killed under any item breaks a process pool for good:
        every pending and later item fails with ``BrokenProcessPool``.
        The first item to see a breakage replaces the pool, and each
        failed item raises :class:`WorkerLostError` instead.
        """
        executor = self._executor
        assert executor is not None
        try:
            return await asyncio.get_running_loop().run_in_executor(
                executor, fn, *args
            )
        except BrokenExecutor as error:
            if executor is self._executor and not self._closed:
                executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None
                await self.start()
                self.stats.respawns += 1
            raise WorkerLostError(
                f"a worker process died under "
                f"{getattr(fn, '__name__', fn)}; the pool was replaced",
                context={"item": getattr(fn, "__name__", repr(fn))},
            ) from error

    def _parasitics_key(self, geometry: Any) -> str:
        """The disk-cache key of this geometry's default extraction."""
        return parasitics_key(
            geometry.build(),
            COPPER_RESISTIVITY,
            0.0,
            CapacitanceModel(),
            True,
        )

    async def _ensure_parasitics(
        self, record: JobRecord, geometry: Any
    ) -> Tuple[str, str]:
        """Publish a geometry's parasitics into shared memory (once)."""
        key = self._parasitics_key(geometry)
        segment = self.shm.segment_name(key)
        if segment is not None:
            return key, segment
        async with self._extract_locks[key]:
            segment = self.shm.segment_name(key)
            if segment is not None:
                return key, segment
            record.check_cancelled()
            await self._emit(
                record, {"event": "progress", "stage": "extract"}
            )
            parasitics = await self._call(
                _workers.extract_worker, geometry, self.config.cache_dir
            )
            segment = self.shm.put(key, parasitics)
            return key, segment

    async def _run_plan(
        self,
        record: JobRecord,
        spec: ModelSpec,
        scenarios: Sequence[Tuple[Any, NoiseConfig, str]],
    ) -> Tuple[List[ScreenedScenario], List[NoiseScanReport]]:
        """Run the noise plan of ``(geometry, config, label)`` scenarios.

        Scenarios screen one work item at a time, in order, so the
        progress stream is deterministic.  The job then locks the
        circuits whose responses the store lacks, in key order, marches
        them (:meth:`_march`) and commits the results; a job the store
        already serves takes no lock.  Its victims are superposed off
        the event loop.  The cancel flag is checked
        before every screen item, before the march items are dispatched
        and as each one finishes.  Results are assembled (and stored in
        the disk cache) exactly as the one-shot runners do.
        """
        cache_dir = self.config.cache_dir
        labels = [label for _, _, label in scenarios]
        screened: List[ScreenedScenario] = []
        for index, (geometry, config, label) in enumerate(scenarios):
            _, segment = await self._ensure_parasitics(record, geometry)
            record.check_cancelled()
            await self._emit(
                record,
                {
                    "event": "progress",
                    "stage": "screen",
                    "index": index,
                    "total": len(scenarios),
                    "label": label,
                },
            )
            screened.append(
                await self._call(
                    _workers.screen_worker, segment, spec, config, cache_dir
                )
            )
        record.check_cancelled()
        items = plan_simulations(screened)
        shards = self.config.shard_count()
        plans = [self.responses.plan(item, shards) for item in items]
        keys = sorted({plan.key for plan in plans if plan.marches})
        async with AsyncExitStack() as stack:
            for key in keys:
                await stack.enter_async_context(self._response_locks[key])
            # Another job may have marched these circuits meanwhile.
            plans = [
                self.responses.plan(plan.item, shards)
                if plan.key in keys
                else plan
                for plan in plans
            ]
            results = await self._march(record, plans, labels)
            # Circuits other jobs are extending right now.
            held = {
                key
                for key, lock in self._response_locks.items()
                if lock.locked() and key not in keys
            }
            self.responses.commit(plans, results, held=held)
        # Entries only ever grow by whole segments past a reader's reach,
        # so the superposition needs no lock.
        tiers = await asyncio.to_thread(superpose_plans, plans, results)
        reports = assemble_plan(
            screened, tiers, cache=_workers._disk_cache(cache_dir)
        )
        return screened, reports

    async def _march(
        self,
        record: JobRecord,
        plans: Sequence[CircuitPlan],
        labels: Sequence[str],
    ) -> List[List[MarchResult]]:
        """Dispatch every plan's march items together; results by plan.

        One ``simulate`` progress event precedes each item.  As each
        item finishes the cancel flag is checked; the pool then drops
        the items it has not started.
        """
        marches = [
            (i, march) for i, plan in enumerate(plans) for march in plan.marches
        ]
        results: List[List[MarchResult]] = [[] for _ in plans]
        futures: List["asyncio.Future[Any]"] = []
        try:
            for index, (i, march) in enumerate(marches):
                owners = sorted({c.owner for c in plans[i].item.columns})
                await self._emit(
                    record,
                    {
                        "event": "progress",
                        "stage": "simulate",
                        "index": index,
                        "total": len(marches),
                        "columns": len(march.sources),
                        "scenarios": [labels[owner] for owner in owners],
                    },
                )
                futures.append(
                    asyncio.ensure_future(
                        self._call(
                            _workers.sim_shard_worker,
                            march,
                            self.config.cache_dir,
                        )
                    )
                )
            for (i, _), future in zip(marches, futures):
                results[i].append(await future)
                record.check_cancelled()
        finally:
            for future in futures:
                if future.done() and not future.cancelled():
                    future.exception()
                future.cancel()
        return results

    async def _execute(self, record: JobRecord) -> Dict[str, Any]:
        request = record.request
        record.check_cancelled()
        if request.op == "sweep":
            grid = request.sweep
            assert grid is not None
            start = time.perf_counter()
            points = grid.scenarios()
            screened, reports = await self._run_plan(
                record,
                grid.model,
                [(s.geometry(), s.config(grid.base), s.label) for s in points],
            )
            report = SweepReport(
                grid=grid,
                results=[
                    ScenarioResult(scenario, result, item.seconds)
                    for scenario, item, result in zip(points, screened, reports)
                ],
                seconds=time.perf_counter() - start,
            )
            return _workers.sweep_payload(report)
        geometry = request.geometry
        assert geometry is not None
        if request.op == "noise" and not request.verify:
            _, [report] = await self._run_plan(
                record,
                request.model,
                [(geometry, request.noise, geometry.label)],
            )
            return _workers.noise_payload(report)
        key, segment = await self._ensure_parasitics(record, geometry)

        if request.op == "extract":
            parasitics = self.shm.get(key)
            assert parasitics is not None
            return _workers.extract_payload(parasitics)

        if request.op == "simulate":
            record.check_cancelled()
            await self._emit(
                record, {"event": "progress", "stage": "simulate"}
            )
            return await self._call(
                _workers.simulate_worker,
                segment,
                request.model,
                request.sim,
                self.config.cache_dir,
            )

        # A verified noise scan re-simulates victims one by one through
        # the independent path; it is a cross-check, not a serving
        # workload, so it runs as one unsharded work item.
        return await self._call(
            _workers.oneshot_worker, request, self.config.cache_dir
        )


# ----------------------------------------------------------------------
# JSON-lines TCP front-end
# ----------------------------------------------------------------------
class ServiceServer:
    """A TCP wrapper speaking one JSON object per line, both ways.

    Analysis requests (``op`` in ``extract`` / ``simulate`` /
    ``noise`` / ``sweep``) are acknowledged with an ``accepted`` event carrying the
    job id, then answered with the terminal event -- or, with
    ``"stream": true``, with every lifecycle event as it happens.
    Control ops: ``ping``, ``stats``, ``job`` (status), ``cancel``,
    ``shutdown``.  Client-supplied ``id`` tags are echoed on every
    reply, so one connection can pipeline many requests.
    """

    def __init__(
        self, service: AnalysisService, host: str, port: int
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()
        self._handlers: "set[asyncio.Task[None]]" = set()

    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the actual (host, port)."""
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` request (or :meth:`close`)."""
        await self._shutdown.wait()
        await self.close()

    async def close(self) -> None:
        self._shutdown.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._handlers):
            task.cancel()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        await self.service.close()

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        write_lock = asyncio.Lock()

        async def send(payload: Dict[str, Any]) -> None:
            async with write_lock:
                writer.write(json.dumps(payload).encode() + b"\n")
                await writer.drain()

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                task = asyncio.create_task(
                    self._handle_message(line, send)
                )
                self._handlers.add(task)
                task.add_done_callback(self._handlers.discard)
        except (ConnectionResetError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):
                # Loop shutdown can cancel the handler mid-close; the
                # transport is going away either way.
                pass

    async def _handle_message(
        self, line: bytes, send: Any
    ) -> None:
        try:
            message = json.loads(line)
        except json.JSONDecodeError as error:
            await send({"event": "error", "message": f"bad json: {error}"})
            return
        tag = message.get("id")

        def tagged(payload: Dict[str, Any]) -> Dict[str, Any]:
            return {"id": tag, **payload} if tag is not None else payload

        op = message.get("op")
        try:
            if op == "ping":
                await send(tagged({"event": "pong"}))
            elif op == "stats":
                await send(
                    tagged(
                        {"event": "stats", "stats": self.service.stats_dict()}
                    )
                )
            elif op == "job":
                record = self.service.record(str(message["job"]))
                await send(tagged({"event": "job", **record.to_dict()}))
            elif op == "cancel":
                ok = self.service.cancel(str(message["job"]))
                await send(tagged({"event": "cancel", "ok": ok}))
            elif op == "shutdown":
                await send(tagged({"event": "shutdown"}))
                self._shutdown.set()
            else:
                request = JobRequest.from_dict(message)
                timeout = message.get("timeout")
                record = await self.service.submit(
                    request,
                    timeout=float(timeout) if timeout is not None else None,
                )
                await send(tagged({"event": "accepted", "job": record.id}))
                if message.get("stream"):
                    async for event in self.service.stream(record.id):
                        await send(tagged(event))
                else:
                    final = await self.service.wait(record.id)
                    payload = {
                        "event": final.status,
                        "job": final.id,
                        "seconds": final.seconds,
                        "memoized": final.memoized,
                        "checksum": final.checksum,
                        "error": final.error,
                    }
                    if final.status == DONE:
                        payload["result"] = final.result
                    await send(tagged(payload))
        except KeyError as error:
            await send(tagged({"event": "error", "message": f"unknown: {error}"}))
        except (ValueError, TypeError) as error:
            await send(tagged({"event": "error", "message": str(error)}))


async def serve(config: ServiceConfig = ServiceConfig()) -> None:
    """Run a service server until it is told to shut down."""
    service = AnalysisService(config)
    server = ServiceServer(service, config.host, config.port)
    host, port = await server.start()
    print(
        f"repro service listening on {host}:{port} "
        f"({config.worker_count()} workers, "
        f"{config.shard_count()} shards)",
        flush=True,
    )
    try:
        await server.serve_until_shutdown()
    finally:
        await server.close()
