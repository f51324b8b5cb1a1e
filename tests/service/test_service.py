"""The analysis service: equivalence, memoization, cancellation, protocol."""

import asyncio
import json
import threading
import time

import pytest

from repro.health.errors import PassivityViolationError
from repro.noise.engine import NoiseConfig, run_noise_scan, scan_checksum
from repro.noise.sweep import SweepGrid, run_sweep, sweep_report_checksum
from repro.pipeline.cache import PipelineCache, cached_extract
from repro.service import workers
from repro.service.client import ServiceClient
from repro.service.jobs import GeometrySpec, JobRequest
from repro.service.server import (
    AnalysisService,
    ServiceConfig,
    ServiceServer,
)
from repro.service.workers import oneshot_result


def run(coroutine):
    return asyncio.run(coroutine)


def _config(**overrides) -> ServiceConfig:
    defaults = dict(jobs=1, job_timeout=120.0)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


EXTRACT = JobRequest(op="extract", geometry=GeometrySpec("bus", 5))
SIMULATE = JobRequest(op="simulate", geometry=GeometrySpec("bus", 5))
NOISE = JobRequest(op="noise", geometry=GeometrySpec("bus", 8))
ESCALATING = JobRequest(
    op="noise",
    geometry=GeometrySpec("bus", 8),
    noise=NoiseConfig(threshold_fraction=0.1),
)


class TestEquivalence:
    @pytest.mark.parametrize(
        "request_", [EXTRACT, SIMULATE, NOISE], ids=["extract", "sim", "noise"]
    )
    def test_matches_oneshot(self, request_):
        async def main():
            service = AnalysisService(_config())
            try:
                record = await service.submit(request_)
                return await service.wait(record.id)
            finally:
                await service.close()

        final = run(main())
        assert final.status == "done"
        assert final.checksum == oneshot_result(request_)["checksum"]

    def test_sharded_scan_matches_oneshot(self):
        async def main():
            service = AnalysisService(_config(shards=3))
            try:
                record = await service.submit(ESCALATING)
                return await service.wait(record.id)
            finally:
                await service.close()

        final = run(main())
        assert final.status == "done"
        assert final.result["num_escalated"] > 1, "workload must shard"
        assert final.checksum == oneshot_result(ESCALATING)["checksum"]

    def test_verify_scan_matches_oneshot(self):
        request = JobRequest(
            op="noise",
            geometry=GeometrySpec("bus", 8),
            noise=NoiseConfig(threshold_fraction=0.1),
            verify=True,
        )

        async def main():
            service = AnalysisService(_config())
            try:
                record = await service.submit(request)
                return await service.wait(record.id)
            finally:
                await service.close()

        final = run(main())
        assert final.status == "done"
        assert final.checksum == oneshot_result(request)["checksum"]


class TestMemoAndEvents:
    def test_repeat_request_is_memoized(self):
        async def main():
            service = AnalysisService(_config())
            try:
                first = await service.wait(
                    (await service.submit(NOISE)).id
                )
                second = await service.wait(
                    (await service.submit(NOISE)).id
                )
                return first, second, service.stats.memo_hits
            finally:
                await service.close()

        first, second, memo_hits = run(main())
        assert not first.memoized and second.memoized
        assert first.checksum == second.checksum
        assert memo_hits == 1

    def test_stream_event_order(self):
        async def main():
            service = AnalysisService(_config())
            try:
                record = await service.submit(ESCALATING)
                return [
                    event["event"]
                    async for event in service.stream(record.id)
                ]
            finally:
                await service.close()

        events = run(main())
        assert events[0] == "queued"
        assert events[1] == "running"
        assert events[-1] == "done"
        assert "progress" in events[2:-1]


class TestCancellationAndTimeouts:
    def test_cancel_queued_job(self, monkeypatch):
        release = threading.Event()
        real_screen = workers.screen_worker

        def slow_screen(*args):
            release.wait(10)
            return real_screen(*args)

        monkeypatch.setattr(
            "repro.service.workers.screen_worker", slow_screen
        )

        async def main():
            service = AnalysisService(_config(max_concurrency=1))
            try:
                blocker = await service.submit(NOISE)
                queued = await service.submit(ESCALATING)
                assert service.cancel(queued.id) is True
                release.set()
                return (
                    await service.wait(blocker.id),
                    await service.wait(queued.id),
                )
            finally:
                await service.close()

        blocker, queued = run(main())
        assert blocker.status == "done"
        assert queued.status == "cancelled"
        assert queued.started is None or queued.result is None

    def test_cancel_running_job_at_stage_boundary(self, monkeypatch):
        started = threading.Event()
        release = threading.Event()
        real_screen = workers.screen_worker

        def slow_screen(*args):
            started.set()
            release.wait(10)
            return real_screen(*args)

        monkeypatch.setattr(
            "repro.service.workers.screen_worker", slow_screen
        )

        async def main():
            service = AnalysisService(_config())
            try:
                record = await service.submit(NOISE)
                await asyncio.get_running_loop().run_in_executor(
                    None, started.wait, 10
                )
                assert service.cancel(record.id) is True
                release.set()
                return await service.wait(record.id)
            finally:
                await service.close()

        final = run(main())
        assert final.status == "cancelled"
        assert final.result is None

    def test_cancel_lands_between_simulate_items(self, monkeypatch):
        started = threading.Event()
        release = threading.Event()
        real_sim = workers.sim_shard_worker

        def slow_sim(*args):
            started.set()
            release.wait(10)
            return real_sim(*args)

        monkeypatch.setattr("repro.service.workers.sim_shard_worker", slow_sim)

        async def main():
            service = AnalysisService(_config(shards=2))
            try:
                record = await service.submit(ESCALATING)
                await asyncio.get_running_loop().run_in_executor(
                    None, started.wait, 10
                )
                assert service.cancel(record.id) is True
                release.set()
                return await service.wait(record.id)
            finally:
                await service.close()

        final = run(main())
        assert final.status == "cancelled"
        assert final.result is None

    def test_job_timeout(self, monkeypatch):
        def stuck_extract(*args):
            time.sleep(1.0)
            raise AssertionError("timeout should fire first")

        monkeypatch.setattr(
            "repro.service.workers.extract_worker", stuck_extract
        )

        async def main():
            service = AnalysisService(_config())
            try:
                record = await service.submit(EXTRACT, timeout=0.1)
                return await service.wait(record.id)
            finally:
                await service.close()

        final = run(main())
        assert final.status == "timeout"
        assert final.error["kind"] == "TimeoutError"

    def test_cancel_terminal_job_is_refused(self):
        async def main():
            service = AnalysisService(_config())
            try:
                record = await service.submit(EXTRACT)
                await service.wait(record.id)
                return service.cancel(record.id)
            finally:
                await service.close()

        assert run(main()) is False


SWEEP_GRID = SweepGrid(
    topologies=("bus",),
    widths=(8,),
    spacings=(1e-6, 2e-6),
    drivers=(50.0, 100.0),
    base=NoiseConfig(threshold_fraction=0.12),
)
SWEEP = JobRequest(op="sweep", sweep=SWEEP_GRID)


class TestSweepJobs:
    def test_matches_oneshot_and_cli_sweep(self, tmp_path):
        """Service payload == one-shot path == a direct run_sweep."""

        async def main():
            service = AnalysisService(
                _config(cache_dir=str(tmp_path / "svc"))
            )
            try:
                record = await service.submit(SWEEP)
                return await service.wait(record.id)
            finally:
                await service.close()

        final = run(main())
        assert final.status == "done"
        oneshot = oneshot_result(
            SWEEP, cache=PipelineCache(tmp_path / "oneshot")
        )
        assert final.checksum == oneshot["checksum"]
        direct = run_sweep(
            SWEEP_GRID, parallel=1, cache=PipelineCache(tmp_path / "cli")
        )
        assert final.checksum == sweep_report_checksum(direct)
        assert final.result["num_scenarios"] == SWEEP_GRID.num_scenarios
        labels = [s["label"] for s in final.result["scenarios"]]
        assert labels == [s.label for s in SWEEP_GRID.scenarios()]

    def test_progress_order_is_deterministic(self, tmp_path):
        async def main():
            service = AnalysisService(
                _config(cache_dir=str(tmp_path / "svc"))
            )
            try:
                record = await service.submit(SWEEP)
                return [
                    event
                    async for event in service.stream(record.id)
                    if event["event"] == "progress"
                ]
            finally:
                await service.close()

        progress = run(main())
        scenario_events = [
            e for e in progress if e["stage"] == "screen"
        ]
        expected = [s.label for s in SWEEP_GRID.scenarios()]
        assert [e["label"] for e in scenario_events] == expected
        assert [e["index"] for e in scenario_events] == list(
            range(len(expected))
        )
        assert all(
            e["total"] == len(expected) for e in scenario_events
        )
        # Scenario screening strictly precedes group simulation.
        group_events = [
            e for e in progress if e["stage"] == "simulate"
        ]
        assert group_events
        first_group = progress.index(group_events[0])
        assert all(
            progress.index(e) < first_group for e in scenario_events
        )

    def test_cancel_at_scenario_boundary(self, monkeypatch, tmp_path):
        """A cancel lands between scenarios, never mid-report."""
        screened = threading.Event()
        release = threading.Event()
        real_screen = workers.screen_worker

        def slow_screen(*args):
            result = real_screen(*args)
            screened.set()
            release.wait(10)
            return result

        monkeypatch.setattr(
            "repro.service.workers.screen_worker", slow_screen
        )

        async def main():
            service = AnalysisService(
                _config(cache_dir=str(tmp_path / "svc"))
            )
            try:
                record = await service.submit(SWEEP)
                await asyncio.get_running_loop().run_in_executor(
                    None, screened.wait, 10
                )
                assert service.cancel(record.id) is True
                release.set()
                return await service.wait(record.id)
            finally:
                await service.close()

        final = run(main())
        assert final.status == "cancelled"
        assert final.result is None
        # The interrupted sweep left only content-addressed artifacts
        # behind; a fresh run through the same cache is still correct.
        resumed = run_sweep(
            SWEEP_GRID,
            parallel=1,
            cache=PipelineCache(tmp_path / "svc"),
        )
        cold = run_sweep(SWEEP_GRID, parallel=1, cache=None)
        assert sweep_report_checksum(resumed) == sweep_report_checksum(
            cold
        )

    def test_sweep_jobs_are_memoized_by_grid_content(self, tmp_path):
        async def main():
            service = AnalysisService(
                _config(cache_dir=str(tmp_path / "svc"))
            )
            try:
                first = await service.submit(SWEEP)
                await service.wait(first.id)
                second = await service.submit(
                    JobRequest(op="sweep", sweep=SWEEP_GRID)
                )
                return first, await service.wait(second.id)
            finally:
                await service.close()

        first, second = run(main())
        assert second.memoized is True
        assert second.checksum == first.checksum


class TestOneNoiseFlow:
    def test_one_scenario_checksum_is_path_independent(self):
        """A scan, a one-scenario sweep, and the service's noise and
        sweep jobs all run one plan: one scenario, one checksum."""
        config = NoiseConfig(threshold_fraction=0.1)
        grid = SweepGrid(widths=(8,), base=config)
        (scenario,) = grid.scenarios()
        noise_request = JobRequest(
            op="noise", geometry=GeometrySpec("bus", 8), noise=config
        )
        sweep_request = JobRequest(op="sweep", sweep=grid)

        parasitics = cached_extract(scenario.geometry().build(), cache=None)
        scan = run_noise_scan(
            parasitics, grid.model, scenario.config(grid.base)
        )
        sweep = run_sweep(grid, parallel=1, cache=None)

        async def main():
            service = AnalysisService(_config(shards=3))
            try:
                noise_job = await service.submit(noise_request)
                sweep_job = await service.submit(sweep_request)
                return (
                    await service.wait(noise_job.id),
                    await service.wait(sweep_job.id),
                )
            finally:
                await service.close()

        noise_job, sweep_job = run(main())
        assert scan.num_escalated > 1, "the service must shard the scenario"
        assert noise_job.status == sweep_job.status == "done"
        assert {
            sweep_report_checksum(sweep),
            noise_job.checksum,
            sweep_job.checksum,
        } == {scan_checksum(scan)}


class TestFailureTaxonomy:
    def test_health_error_kind_is_reported(self, monkeypatch):
        def sick_extract(*args):
            raise PassivityViolationError("negative effective resistance")

        monkeypatch.setattr(
            "repro.service.workers.extract_worker", sick_extract
        )

        async def main():
            service = AnalysisService(_config())
            try:
                record = await service.submit(EXTRACT)
                return await service.wait(record.id)
            finally:
                await service.close()

        final = run(main())
        assert final.status == "failed"
        assert final.error["kind"] == "PassivityViolationError"
        assert "resistance" in final.error["message"]

    def test_plain_exception_is_contained(self, monkeypatch):
        def broken_extract(*args):
            raise ValueError("boom")

        monkeypatch.setattr(
            "repro.service.workers.extract_worker", broken_extract
        )

        async def main():
            service = AnalysisService(_config())
            try:
                record = await service.submit(EXTRACT)
                final = await service.wait(record.id)
                stats = service.stats_dict()
                return final, stats
            finally:
                await service.close()

        final, stats = run(main())
        assert final.status == "failed"
        assert final.error["kind"] == "ValueError"
        assert stats["failed"] == 1


class TestTcpProtocol:
    def test_round_trip_with_streaming(self):
        async def main():
            service = AnalysisService(_config())
            server = ServiceServer(service, "127.0.0.1", 0)
            host, port = await server.start()
            events = []
            async with await ServiceClient.connect(host, port) as client:
                assert await client.ping()
                reply = await client.request(
                    {**NOISE.to_dict(), "stream": True},
                    on_event=events.append,
                )
                memo = await client.request(NOISE.to_dict())
                stats = await client.stats()
                assert await client.cancel("j999999") is False
                await client.shutdown()
            await server.serve_until_shutdown()
            return reply, memo, stats, events

        reply, memo, stats, events = run(main())
        assert reply["event"] == "done"
        assert reply["checksum"] == oneshot_result(NOISE)["checksum"]
        assert [e["event"] for e in events[:3]] == [
            "accepted",
            "queued",
            "running",
        ]
        assert memo["memoized"] is True
        assert stats["submitted"] == 2 and stats["memo_hits"] == 1

    def test_protocol_errors_are_replies_not_disconnects(self):
        async def main():
            service = AnalysisService(_config())
            server = ServiceServer(service, "127.0.0.1", 0)
            host, port = await server.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"this is not json\n")
                await writer.drain()
                bad = json.loads(await reader.readline())
                writer.write(
                    b'{"id": "x", "op": "noise", "geometry":'
                    b' {"kind": "torus", "size": 4}}\n'
                )
                await writer.drain()
                invalid = json.loads(await reader.readline())
                writer.write(b'{"id": "y", "op": "ping"}\n')
                await writer.drain()
                alive = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return bad, invalid, alive
            finally:
                await server.close()

        bad, invalid, alive = run(main())
        assert bad["event"] == "error"
        assert invalid["event"] == "error"
        assert alive["event"] == "pong", "connection survives bad input"

    @pytest.mark.parametrize(
        "line, names",
        [
            (b"[1, 2]", "JSON object"),
            (b"null", "JSON object"),
            (b"42", "JSON object"),
            (b'"ping"', "JSON object"),
            (
                b'{"op": "noise", "geometry": {"kind": "bus", "size": 4},'
                b' "noise": [1]}',
                "noise config",
            ),
            (
                b'{"op": "noise", "geometry": {"kind": "bus", "size": 4},'
                b' "model": [1]}',
                "model",
            ),
            (
                b'{"op": "simulate", "geometry": {"kind": "bus", "size": 4},'
                b' "sim": 5}',
                "sim",
            ),
            (
                b'{"op": "sweep", "sweep": {"widths": [8], "base": [1]}}',
                "noise config",
            ),
            (
                b'{"op": "sweep", "sweep": {"widths": [8], "model": [1]}}',
                "model",
            ),
            (
                b'{"op": "noise", "geometry": {"kind": "bus", "size": 4},'
                b' "model": {"kind": "gw", "window": 4, "solver": "iterative"}}',
                "solver",
            ),
            (
                b'{"op": "noise", "geometry": {"kind": "bus", "size": 4},'
                b' "noise": {"dt": "1e-12"}}',
                "noise.dt",
            ),
        ],
        ids=[
            "list",
            "null",
            "number",
            "string",
            "noise",
            "model",
            "sim",
            "sweep-base",
            "sweep-model",
            "iterative-solver",
            "noise-scalar",
        ],
    )
    def test_malformed_line_gets_one_error(self, line, names):
        """One ``error`` reply naming what is wrong, within 5 s; a second
        reply to the line would arrive before the pong that follows."""

        async def main():
            service = AnalysisService(_config())
            server = ServiceServer(service, "127.0.0.1", 0)
            host, port = await server.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                replies = []
                for payload in (line, b'{"op": "ping"}'):
                    writer.write(payload + b"\n")
                    await writer.drain()
                    reply = await asyncio.wait_for(reader.readline(), 5.0)
                    replies.append(json.loads(reply))
                writer.close()
                await writer.wait_closed()
                return replies
            finally:
                await server.close()

        error, pong = run(main())
        assert error["event"] == "error"
        assert names in error["message"]
        assert pong["event"] == "pong"

    @staticmethod
    async def _dropping_server():
        """A server that reads one request line, then hangs up."""

        async def handle(reader, writer):
            await reader.readline()
            writer.close()
            await writer.wait_closed()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        return server, host, port

    def test_pending_request_raises_when_the_server_hangs_up(self):
        async def main():
            server, host, port = await self._dropping_server()
            try:
                async with await ServiceClient.connect(host, port) as client:
                    with pytest.raises(ConnectionError):
                        await asyncio.wait_for(
                            client.request(NOISE.to_dict()), 5.0
                        )
            finally:
                server.close()
                await server.wait_closed()

        run(main())

    def test_request_after_the_hang_up_raises_at_once(self):
        async def main():
            server, host, port = await self._dropping_server()
            try:
                async with await ServiceClient.connect(host, port) as client:
                    with pytest.raises(ConnectionError):
                        await asyncio.wait_for(client.ping(), 5.0)
                    with pytest.raises(ConnectionError):
                        await asyncio.wait_for(
                            client.request(NOISE.to_dict()), 1.0
                        )
            finally:
                server.close()
                await server.wait_closed()

        run(main())
