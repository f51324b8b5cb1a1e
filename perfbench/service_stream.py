"""The ``service_stream`` workload: a closed loop against the job service.

Each *round* boots a fresh :class:`~repro.service.server.ServiceServer`
with process workers (its set-up: server start, worker spawn, client
connections, one untimed warm-up request per worker), then two client
connections -- one per core -- pull requests from the round's stream and
send the next only when the previous reply is in (a closed loop).  The
stream is generated from the seed and is the same in every round of a
run, so rounds are repeated sign-offs of one request batch:

- cold ``noise`` jobs on aligned buses.  Several schedule seeds share
  each geometry, so the first job on a geometry extracts it and the
  others attach its shared-memory copy; every victim escalates, so the
  jobs exercise the gw8 model build and sharded multi-RHS simulation;
- one cold ``extract`` job per geometry;
- memo-hit replays of earlier requests.  A replay is sent only after its
  original has completed, so the seed alone fixes the number of cold
  computations -- timing never turns a replay into a second cold run.

After the stream, with the service otherwise idle, every unique request
is replayed once more, one at a time: these round trips are the
``hit_p50_ms`` samples, the service's own queue and transport cost.  (A
replay inside the stream waits behind whatever the event loop is doing
for the other client, so its latency measures the interleaving.)

Every reply is checked: each round's digest of unique request keys to
result checksums must equal the digest of the one-shot reference path
(:func:`repro.service.workers.oneshot_result`).  The set of unique
requests does not depend on the seed, so that digest is the constant
:data:`STREAM_DIGEST` (a test recomputes it through the one-shot path).
"""

from __future__ import annotations

import asyncio
import resource
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.bench.service import combined_checksum
from repro.noise.engine import NoiseConfig
from repro.pipeline.profiling import collect
from repro.service.client import ServiceClient
from repro.service.jobs import GeometrySpec, JobRequest
from repro.service.server import AnalysisService, ServiceConfig, ServiceServer
from repro.service.workers import oneshot_result

import hostspeed
from spans import Tracer
from workloads import Iteration, peak_rss_mb

#: Aligned-bus widths of the stream's geometries.
GEOMETRY_SIZES = (8, 12, 16)

#: Cold noise jobs per geometry, with schedule seeds
#: ``SCHEDULE_SEED, SCHEDULE_SEED + 1, ...``.
SEEDS_PER_GEOMETRY = 6
SCHEDULE_SEED = 2003

#: Memo-hit replays per round.
HITS_PER_ROUND = 9

#: A replay sits at least this many positions after its original, so
#: it rarely has to wait for it.
REPLAY_GAP = 4

#: Low enough that every victim escalates: the service's jobs are the
#: simulate-heavy complement of the screen-only ``scale_hier4096``.
THRESHOLD_FRACTION = 0.1

#: Client connections and worker processes (the host has two cores).
CLIENTS = 2
WORKERS = 2

#: :func:`oneshot_digest` of the default stream's unique requests.
STREAM_DIGEST = "922292747745e69e07f2ffd9f33703b52564b88cd7da5c0632e9f568417c61ff"


@dataclass(frozen=True)
class StreamItem:
    request: JobRequest
    #: Stream position of the request this one replays, if any.
    replay_of: Optional[int] = None


def generate_stream(
    seed: int,
    sizes: Sequence[int] = GEOMETRY_SIZES,
    seeds_per_geometry: int = SEEDS_PER_GEOMETRY,
    hits: int = HITS_PER_ROUND,
) -> List[StreamItem]:
    """The round's request stream; a pure function of its arguments.

    The set of cold requests is fixed; the seed draws their arrival
    order and which of them are replayed where.  Seeding the schedule
    seeds too would change each job's simulated horizon, and with it
    the work a run does, by more than the run-to-run noise this
    benchmark must stay under.
    """
    rng = np.random.default_rng(seed)
    cold: List[JobRequest] = []
    for size in sizes:
        geometry = GeometrySpec("bus", int(size))
        cold.append(JobRequest(op="extract", geometry=geometry))
        for k in range(seeds_per_geometry):
            cold.append(
                JobRequest(
                    op="noise",
                    geometry=geometry,
                    noise=NoiseConfig(
                        threshold_fraction=THRESHOLD_FRACTION,
                        schedule_seed=SCHEDULE_SEED + k,
                    ),
                )
            )
    cold = [cold[i] for i in rng.permutation(len(cold))]
    # Sort keys: cold item k sits at k; a replay of k lands uniformly in
    # the rest of the stream, at least REPLAY_GAP positions later.
    keyed = [(float(k), k, None) for k in range(len(cold))]
    for original in rng.integers(0, len(cold), size=hits):
        lo = float(original + REPLAY_GAP)
        hi = float(max(len(cold), original + REPLAY_GAP + 1))
        keyed.append((lo + (hi - lo) * float(rng.random()), int(original), int(original)))
    keyed.sort(key=lambda entry: entry[0])
    position = {k: pos for pos, (_, k, replay) in enumerate(keyed) if replay is None}
    return [
        StreamItem(
            request=cold[k],
            replay_of=None if replay is None else position[replay],
        )
        for _, k, replay in keyed
    ]


def oneshot_digest(items: Sequence[StreamItem]) -> str:
    """Digest of the unique requests computed by the one-shot path."""
    unique = {item.request.key(): item.request for item in items}
    return combined_checksum(
        {key: str(oneshot_result(request)["checksum"]) for key, request in unique.items()}
    )


async def _round(
    items: Sequence[StreamItem],
    tracer: Optional[Tracer],
    out: Iteration,
) -> str:
    """One service session; fills ``out`` and returns the round's digest."""
    begin = time.perf_counter()
    service = AnalysisService(ServiceConfig(jobs=WORKERS, job_timeout=120.0))
    server = ServiceServer(service, "127.0.0.1", 0)
    host, port = await server.start()
    clients: List[ServiceClient] = []
    checksums: Dict[str, str] = {}
    try:
        for _ in range(CLIENTS):
            clients.append(await ServiceClient.connect(host, port))
        await asyncio.gather(
            *(
                clients[i % CLIENTS].request(
                    JobRequest(op="extract", geometry=GeometrySpec("bus", 2 + i)).to_dict()
                )
                for i in range(WORKERS)
            )
        )
        out.setup.append(hostspeed.seconds(begin, time.perf_counter()))

        done = [asyncio.Event() for _ in items]
        cursor = iter(range(len(items)))
        if tracer is not None:
            root = tracer.begin("root.signoff")

        async def client_loop(client: ServiceClient) -> None:
            for index in cursor:
                item = items[index]
                if item.replay_of is not None:
                    await done[item.replay_of].wait()
                marks: Dict[str, float] = {}

                def on_event(event: Dict[str, Any]) -> None:
                    if event.get("event") == "running":
                        marks["running"] = time.perf_counter()

                sent = time.perf_counter()
                reply = await client.request(
                    {**item.request.to_dict(), "stream": True}, on_event=on_event
                )
                finished = time.perf_counter()
                done[index].set()
                _account(out, item, reply, hostspeed.seconds(sent, finished), checksums)
                if tracer is not None:
                    request_span = tracer.add_span(
                        "service.request", sent, finished, parent=root[0]
                    )
                    running = marks.get("running", sent)
                    tracer.add_span("service.queue_wait", sent, running, request_span)
                    tracer.add_span("service.exec", running, finished, request_span)

        stream_start = time.perf_counter()
        try:
            await asyncio.gather(*(client_loop(client) for client in clients))
        finally:
            if tracer is not None:
                out.root = tracer.end(root)
        stream_end = time.perf_counter()
        out.signoff = hostspeed.seconds(stream_start, stream_end)
        out.signoff_wall = stream_end - stream_start
        for item in items:
            if item.replay_of is None:
                out.attempted += 1
                sent = time.perf_counter()
                reply = await clients[0].request({**item.request.to_dict(), "stream": True})
                latency = hostspeed.seconds(sent, time.perf_counter())
                if _replay_ok(out, item, reply, checksums):
                    out.hits.append(latency)
        stats = await clients[0].stats()
        for name in ("memo_hits", "shm_hits", "shm_misses"):
            out.layer[f"service.{name}"] = float(stats[name])
    finally:
        for client in clients:
            await client.close()
        await server.close()
    return combined_checksum(checksums)


def _account(
    out: Iteration,
    item: StreamItem,
    reply: Dict[str, Any],
    latency: float,
    checksums: Dict[str, str],
) -> None:
    """Check one reply and file its latency."""
    out.attempted += 1
    what = f"{item.request.op} request {item.request.key()[:12]}"
    if reply.get("event") != "done":
        out.failed += 1
        out.errors.append(f"{what} ended {reply.get('event')!r}: {reply.get('error')}")
        return
    checksum = str(reply.get("checksum"))
    if item.replay_of is None:
        if reply.get("memoized"):
            out.failed += 1
            out.errors.append(f"{what}: cold request answered from the memo")
            return
        checksums[item.request.key()] = checksum
        out.requests += 1
        out.cold.append(latency)
        result = reply.get("result") or {}
        out.victims += int(result.get("num_victims", 0))
        out.escalated += int(result.get("num_escalated", 0))
        return
    if _replay_ok(out, item, reply, checksums):
        out.requests += 1


def _replay_ok(
    out: Iteration,
    item: StreamItem,
    reply: Dict[str, Any],
    checksums: Dict[str, str],
) -> bool:
    """A replay must come from the memo with its original's checksum."""
    what = f"replay {item.request.key()[:12]}"
    if reply.get("event") != "done" or not reply.get("memoized"):
        out.failed += 1
        out.errors.append(f"{what}: ended {reply.get('event')!r}, not from the memo")
        return False
    if checksums.get(item.request.key()) != str(reply.get("checksum")):
        out.failed += 1
        out.errors.append(f"{what}: checksum differs from the original")
        return False
    return True


class ServiceStream:
    """Closed-loop rounds against a fresh service (see module docstring)."""

    sets_up_per_round = True
    #: A job is one request; a round is a sign-off of many of them.
    jobs_are_signoffs = False

    def __init__(
        self,
        out_dir: Path,
        seed: int,
        sizes: Sequence[int] = GEOMETRY_SIZES,
        seeds_per_geometry: int = SEEDS_PER_GEOMETRY,
        hits: int = HITS_PER_ROUND,
        expected: Optional[str] = STREAM_DIGEST,
    ) -> None:
        """``expected=None`` computes the reference digest at verify time."""
        self.out_dir = out_dir
        self.items = generate_stream(seed, sizes, seeds_per_geometry, hits)
        self.expected = expected
        self._digests: List[str] = []
        self._peak_mb = 0.0

    def iteration(self, tracer: Optional[Tracer] = None) -> Iteration:
        out = Iteration()
        try:
            if tracer is None:
                digest = asyncio.run(_round(self.items, None, out))
            else:
                with collect() as profile:
                    digest = asyncio.run(_round(self.items, tracer, out))
                out.counters = dict(profile.counters)
                root = next(span for span in tracer.spans if span["id"] == out.root)
                workers = tracer.collect_workers(out.root, since=root["start"])
                for key, value in workers.items():
                    out.counters[key] = out.counters.get(key, 0) + value
        except Exception as error:  # noqa: BLE001 - counted, run continues
            out.fail("service round", error)
            return out
        self._digests.append(digest)
        # ``ru_maxrss`` of the children is the maximum over every worker
        # reaped so far; the round's server close joined its workers.
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024
        self._peak_mb = peak_rss_mb(children)
        return out

    def peak_rss_mb(self) -> float:
        """Max over the server (this process) and its workers, taken
        before the one-shot reference runs in this process."""
        return self._peak_mb

    def verify(self) -> Iteration:
        """Check every round's digest against the one-shot reference."""
        out = Iteration()
        expected = self.expected or oneshot_digest(self.items)
        for digest in self._digests:
            out.check("service digest", digest, expected)
        return out
