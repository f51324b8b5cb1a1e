"""The service load-test suite (``BENCH_service.json``).

Counterpart of :mod:`repro.bench.noise` for :mod:`repro.service`: it
boots a real :class:`~repro.service.server.ServiceServer`, fires a
large mixed stream of extraction / simulation / noise-scan requests at
it over the JSON-lines TCP protocol, and commits the latency
distribution plus a result digest to the benchmark trajectory:

- ``service_mixed_load`` / variants ``p50``, ``p99``, ``per_request``,
  ``wall``: per-request latency percentiles, mean time per request
  (the inverse of throughput, so the regression gate's
  lower-is-better convention holds), and total wall time of the run.
  All four share one checksum: a digest of every *unique* request's
  content key paired with its result checksum, so a numerically wrong
  result fails ``--check`` no matter which of the N duplicates
  produced it.
- ``service_oneshot_equiv`` / variant ``direct``: the same unique
  workloads computed through :func:`repro.service.workers.oneshot_result`
  -- the exact one-shot CLI path, with no service, shared memory,
  sharding, or memo in the loop.  Its checksum uses the same digest
  formula, and the suite *raises* if the two digests differ, so
  "service results are checksum-identical to one-shot runs" is an
  executed property of every bench run, and the committed trajectory
  keeps both pinned.

The request stream interleaves duplicates deterministically (seeded
shuffle), so the run exercises the memo path, the shared-memory
extraction cache, and the escalation tier -- source-sharded marches
into the server's response store -- together: p50 reflects the
memoized fast path, p99 the cold compute path.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.results import BenchResult
from repro.noise.engine import NoiseConfig
from repro.service.client import ServiceClient
from repro.service.jobs import GeometrySpec, JobRequest
from repro.service.server import AnalysisService, ServiceConfig, ServiceServer
from repro.service.workers import oneshot_result

SERVICE_KERNELS = (
    "service_mixed_load",
    "service_oneshot_equiv",
)

#: Deterministic interleaving seed of the request stream.
_STREAM_SEED = 2003

#: Client connections the load is spread across.
_CONNECTIONS = 4


def mixed_workloads(scale: int = 1) -> List[JobRequest]:
    """The unique requests behind the mixed load, smallest-first.

    ``scale`` multiplies the geometry sizes (1 keeps the suite fast
    enough for CI smoke runs while still covering every op, both bus
    generators, a spiral, and an escalating noise scan that exercises
    the source-sharded marches and the response store).
    """
    s = max(int(scale), 1)
    escalating = NoiseConfig(threshold_fraction=0.1)
    return [
        JobRequest(op="extract", geometry=GeometrySpec("bus", 4 * s)),
        JobRequest(op="extract", geometry=GeometrySpec("bus", 8 * s)),
        JobRequest(op="extract", geometry=GeometrySpec("nonaligned_bus", 8 * s)),
        JobRequest(op="extract", geometry=GeometrySpec("spiral", 4 * s)),
        JobRequest(op="simulate", geometry=GeometrySpec("bus", 8 * s)),
        JobRequest(op="simulate", geometry=GeometrySpec("bus", 12 * s)),
        JobRequest(op="noise", geometry=GeometrySpec("bus", 8 * s)),
        JobRequest(op="noise", geometry=GeometrySpec("bus", 12 * s)),
        JobRequest(op="noise", geometry=GeometrySpec("nonaligned_bus", 8 * s)),
        JobRequest(
            op="noise",
            geometry=GeometrySpec("bus", 16 * s),
            noise=escalating,
        ),
    ]


def request_stream(
    workloads: Sequence[JobRequest], total: int
) -> List[JobRequest]:
    """``total`` requests cycling over ``workloads``, seeded-shuffled."""
    repeated = [workloads[i % len(workloads)] for i in range(total)]
    order = np.random.default_rng(_STREAM_SEED).permutation(total)
    return [repeated[i] for i in order]


def combined_checksum(pairs: Dict[str, str]) -> str:
    """Digest of unique ``request key -> result checksum`` pairs."""
    digest = hashlib.sha256()
    for key in sorted(pairs):
        digest.update(f"{key}={pairs[key]};".encode())
    return digest.hexdigest()


async def _drive_load(
    config: ServiceConfig,
    stream: Sequence[JobRequest],
    concurrency: int,
) -> Tuple[List[float], Dict[str, str], float]:
    """Fire the stream at a live server; returns latencies + digests."""
    service = AnalysisService(config)
    server = ServiceServer(service, config.host, config.port)
    host, port = await server.start()
    clients = [
        await ServiceClient.connect(host, port)
        for _ in range(min(_CONNECTIONS, max(concurrency, 1)))
    ]
    gate = asyncio.Semaphore(max(concurrency, 1))
    latencies: List[float] = [0.0] * len(stream)
    checksums: Dict[str, str] = {}

    async def one(index: int, request: JobRequest) -> None:
        async with gate:
            begin = time.perf_counter()
            reply = await clients[index % len(clients)].request(
                request.to_dict()
            )
            latencies[index] = time.perf_counter() - begin
        if reply.get("event") != "done":
            raise RuntimeError(
                f"request {index} ({request.op}) ended "
                f"{reply.get('event')!r}: {reply.get('error')}"
            )
        key = request.key()
        checksum = str(reply["checksum"])
        previous = checksums.setdefault(key, checksum)
        if previous != checksum:
            raise RuntimeError(
                f"nondeterministic result for {request.op} request "
                f"{key[:16]}: {previous} != {checksum}"
            )

    begin = time.perf_counter()
    try:
        await asyncio.gather(
            *(one(i, request) for i, request in enumerate(stream))
        )
        wall = time.perf_counter() - begin
    finally:
        for client in clients:
            await client.close()
        await server.close()
    return latencies, checksums, wall


def run_service_suite(
    requests: int = 1000,
    concurrency: int = 64,
    scale: int = 1,
    jobs: Optional[int] = None,
) -> List[BenchResult]:
    """Execute the load test; one :class:`BenchResult` per (kernel, variant).

    Raises if any request fails or if the service digest differs from
    the one-shot digest -- equivalence is part of the suite's contract,
    not merely of the committed trajectory.
    """
    if requests < 1:
        raise ValueError("requests must be >= 1")
    workloads = mixed_workloads(scale)
    stream = request_stream(workloads, requests)
    config = ServiceConfig(jobs=jobs, job_timeout=600.0)
    latencies, service_sums, wall = asyncio.run(
        _drive_load(config, stream, concurrency)
    )
    service_digest = combined_checksum(service_sums)
    ordered = np.sort(np.asarray(latencies))

    def percentile(q: float) -> float:
        return float(np.percentile(ordered, q))

    results = [
        BenchResult(
            kernel="service_mixed_load",
            variant=variant,
            size=requests,
            seconds=seconds,
            checksum=service_digest,
        )
        for variant, seconds in (
            ("p50", percentile(50.0)),
            ("p99", percentile(99.0)),
            ("per_request", wall / requests),
            ("wall", wall),
        )
    ]

    # Replay each unique request actually sent (with < len(workloads)
    # requests the stream covers only a prefix of the workload set).
    unique = {request.key(): request for request in stream}
    begin = time.perf_counter()
    direct_sums = {
        key: str(oneshot_result(request)["checksum"])
        for key, request in unique.items()
    }
    direct_seconds = time.perf_counter() - begin
    direct_digest = combined_checksum(direct_sums)
    if direct_digest != service_digest:
        mismatched = sorted(
            key[:16]
            for key in service_sums
            if service_sums[key] != direct_sums.get(key)
        )
        raise RuntimeError(
            "service results diverge from one-shot results for request "
            f"keys {mismatched}"
        )
    results.append(
        BenchResult(
            kernel="service_oneshot_equiv",
            variant="direct",
            size=len(unique),
            seconds=direct_seconds,
            checksum=direct_digest,
        )
    )
    return results
