"""The service's ramp-response store: exactness, policy, concurrency.

A retained entry is complete -- every wire a source and a probe -- and
a later job with a longer horizon extends it, by resuming every stored
column, to the longest reach its clock can need, so a job served from
the store must give exactly the one-shot scan's result.  The store's
policy (the clock reach, over-budget circuits, LRU eviction) and the
service's use of it (one march from sample 0 per circuit and at most
one extension per clock, no lock for a job the store serves, no change
on cancel, a store that outlives a dead worker) are checked here too.
"""

import asyncio
import os
import signal
import threading
import time
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.runner import gw_spec
from repro.extraction.parasitics import extract
from repro.geometry.bus import aligned_bus
from repro.noise.engine import (
    NoiseConfig,
    assemble_plan,
    complete_bytes,
    complete_reach,
    plan_simulations,
    run_noise_scan,
    scan_checksum,
    screen_scenario,
    simulate_escalated,
)
from repro.pipeline.profiling import collect
from repro.service import workers
from repro.service.jobs import GeometrySpec, JobRequest
from repro.service.responses import ResponseStore, superpose_plans
from repro.service.server import AnalysisService, ServiceConfig
from repro.service.workers import oneshot_result

#: A shorter clock period keeps the marches short.
PERIOD = 1e-9


def run(coroutine):
    return asyncio.run(coroutine)


_BUSES = {}


def _bus(bits):
    if bits not in _BUSES:
        _BUSES[bits] = extract(aligned_bus(bits))
    return _BUSES[bits]


def _config(seed, threshold=0.1, settle=300e-12, rise=10e-12):
    return NoiseConfig(
        threshold_fraction=threshold,
        schedule_seed=seed,
        settle_time=settle,
        period=PERIOD,
        rise_time=rise,
    )


def store_scan(store, bits, config, shards=1):
    """One noise job through ``store``, the way the service runs it."""
    parasitics = _bus(bits)
    screened = screen_scenario(
        parasitics, gw_spec(8), config, source=f"bus{bits}"
    )
    plans = [store.plan(item, shards) for item in plan_simulations([screened])]
    results = [
        [simulate_escalated(parasitics, march) for march in plan.marches]
        for plan in plans
    ]
    store.commit(plans, results)
    [report] = assemble_plan([screened], superpose_plans(plans, results))
    return report, plans


def oneshot(bits, config):
    return run_noise_scan(_bus(bits), gw_spec(8), config)


class TestRetainedStoreEqualsOneShot:
    @given(
        bits=st.integers(min_value=4, max_value=8),
        jobs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.sampled_from([0.05, 0.1, 0.2]),
                st.sampled_from([100e-12, 300e-12, 600e-12]),
            ),
            min_size=2,
            max_size=4,
        ),
        shards=st.integers(min_value=1, max_value=3),
        # A fractional rise / dt marches a unit-step column per source
        # too, and resumes both.
        rise=st.sampled_from([10e-12, 5.5e-12]),
    )
    @settings(max_examples=8, deadline=None)
    def test_job_sequences_match_fresh_scans(self, bits, jobs, shards, rise):
        store = ResponseStore()
        for seed, threshold, settle in jobs:
            config = _config(2003 + seed, threshold, settle, rise)
            report, _ = store_scan(store, bits, config, shards)
            fresh = oneshot(bits, config)
            assert scan_checksum(report) == scan_checksum(fresh)
            for ours, theirs in zip(report.victims, fresh.victims):
                assert ours.escalated == theirs.escalated
                assert ours.effective_peak == pytest.approx(
                    theirs.effective_peak, rel=1e-12, abs=0.0
                )


class TestStorePolicy:
    def test_first_job_marches_everything_later_jobs_extend(self):
        store = ResponseStore()
        _, [first] = store_scan(store, 6, _config(2003, settle=100e-12))
        assert first.retained
        assert {m.start for m in first.marches} == {0}
        assert sorted(w for m in first.marches for w in m.sources) == list(
            range(6)
        )
        reach = first.entry.reach(0)
        _, [longer] = store_scan(store, 6, _config(2003, settle=600e-12))
        assert longer.entry is first.entry
        assert {m.start for m in longer.marches} == {reach}
        _, [inside] = store_scan(store, 6, _config(2003, settle=300e-12))
        assert inside.marches == []
        assert store.circuits == 1

    @given(
        bits=st.integers(min_value=4, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
        settle=st.sampled_from([100e-12, 300e-12, 600e-12]),
    )
    @settings(max_examples=12, deadline=None)
    def test_clock_reach_covers_every_schedule(self, bits, seed, settle):
        """No schedule inside the clock period reads past the reach a
        complete entry is extended to."""
        config = _config(seed, settle=settle)
        screened = screen_scenario(_bus(bits), gw_spec(8), config)
        span = config.period + config.rise_time + config.settle_time
        clock = int(np.ceil(span / config.dt))
        for item in plan_simulations([screened]):
            assert max(item.reach().values()) <= clock
            assert complete_reach(item) == clock

    def test_over_budget_circuit_is_not_retained(self):
        config = _config(2003)
        _, [retained] = store_scan(ResponseStore(), 6, config)
        item = retained.item
        small = ResponseStore(
            budget=complete_bytes(item, max(item.reach().values())) - 1
        )
        report, [plan] = store_scan(small, 6, config)
        assert not plan.retained
        # Only the needed sources march, probed at the escalated victims.
        assert plan.marches[0].probes == tuple(
            sorted({c.victim for c in plan.item.columns})
        )
        assert small.circuits == 0 and small.nbytes == 0
        assert scan_checksum(report) == scan_checksum(oneshot(6, config))

    def test_complete_bytes_predicts_the_entry(self):
        store = ResponseStore()
        _, [plan] = store_scan(store, 5, _config(2004))
        values = sum(
            segment.values.nbytes
            for segment in {
                id(s): s
                for wire in range(5)
                for s, _ in plan.entry._pieces[wire]
            }.values()
        )
        assert values == complete_bytes(plan.item, plan.entry.reach(0))

    def test_eviction_is_least_recently_used(self):
        sizes = {}
        for bits in (4, 5, 6):
            probe = ResponseStore()
            store_scan(probe, bits, _config(2003))
            sizes[bits] = probe.nbytes
        store = ResponseStore(budget=sizes[4] + sizes[5] + sizes[6] - 1)
        keys = {}
        for bits in (4, 5):
            _, [plan] = store_scan(store, bits, _config(2003))
            keys[bits] = plan.key
        # Touch bus 4 again (nothing to march), so bus 5 is the oldest.
        _, [again] = store_scan(store, 4, _config(2003))
        assert again.marches == []
        _, [plan] = store_scan(store, 6, _config(2003))
        keys[6] = plan.key
        assert keys[5] not in store
        assert keys[4] in store and keys[6] in store
        assert store.nbytes <= store.budget

    def test_held_circuits_are_not_evicted(self):
        store = ResponseStore()
        _, [old] = store_scan(store, 4, _config(2003))
        store.budget = 1
        parasitics = _bus(5)
        screened = screen_scenario(
            parasitics, gw_spec(8), _config(2003), source="bus5"
        )
        [item] = plan_simulations([screened])
        plan = store.plan(item, 1)
        # Over budget now, so bus 5 stays a throwaway entry, and bus 4 is
        # held by another job: nothing may go.
        store.commit(
            [plan],
            [[simulate_escalated(parasitics, m) for m in plan.marches]],
            held={old.key},
        )
        assert old.key in store and plan.key not in store


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------
def _service_config(**overrides):
    defaults = dict(jobs=1, job_timeout=120.0)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def noise_request(bits, seed, settle=300e-12):
    return JobRequest(
        op="noise",
        geometry=GeometrySpec("bus", bits),
        noise=NoiseConfig(
            threshold_fraction=0.1, schedule_seed=seed, settle_time=settle
        ),
    )


def spy_marches(monkeypatch):
    """Record ``(start, transient_steps, columns)`` of every march item."""
    marches = []
    real = workers.sim_shard_worker

    def spy(march, cache_dir):
        with collect() as profile:
            result = real(march, cache_dir)
        marches.append(
            (march.start, profile.counters.get("transient_steps", 0), march)
        )
        return result

    monkeypatch.setattr("repro.service.workers.sim_shard_worker", spy)
    return marches


class TestServiceStore:
    def test_one_march_from_zero_per_circuit(self, monkeypatch):
        marches = spy_marches(monkeypatch)
        requests = [
            noise_request(8, seed, settle)
            for seed, settle in [
                (2003, 300e-12),
                (2004, 300e-12),
                (2003, 600e-12),
                (2005, 100e-12),
                (2006, 900e-12),
                (2004, 300e-12 + 1e-12),
            ]
        ]

        async def main():
            service = AnalysisService(_service_config(shards=2))
            try:
                finals = []
                for request in requests:
                    record = await service.submit(request)
                    finals.append(await service.wait(record.id))
                return finals, service.stats_dict(), service.responses
            finally:
                await service.close()

        finals, stats, store = run(main())
        for request, final in zip(requests, finals):
            assert final.status == "done"
            assert final.checksum == oneshot_result(request)["checksum"]
        assert stats["response_circuits"] == 1
        assert stats["response_bytes"] == store.nbytes > 0
        starts = [start for start, _, _ in marches]
        # The first job marches all 8 wires from sample 0 in two source
        # shards; no later job starts from 0 again.
        assert starts[:2] == [0, 0]
        assert all(start > 0 for start in starts[2:])
        assert sorted(
            w for _, _, march in marches[:2] for w in march.sources
        ) == list(range(8))
        # Every wire marched once, to the longest reach any job needed.
        [entry] = store._entries.values()
        reach = entry.reach(0)
        assert sum(steps for _, steps, _ in marches) == 8 * reach

    def test_an_entry_is_extended_at_most_once_per_clock(self, monkeypatch):
        """Jobs on one circuit and one clock, shortest horizon first --
        the order that extends an entry at every job when it only ever
        reaches as far as the latest job needs.  The first job marches
        from sample 0, the second extends every column to the clock's
        reach, and the rest march nothing."""
        marches = spy_marches(monkeypatch)
        # Needed reaches on bus 8: 1272, 1889, 2521 and 2694 samples.
        requests = [noise_request(8, seed) for seed in (2005, 2004, 2003, 2006)]

        async def main():
            service = AnalysisService(_service_config(shards=2))
            try:
                for request in requests:
                    record = await service.submit(request)
                    final = await service.wait(record.id)
                    assert final.checksum == oneshot_result(request)["checksum"]
                return service.responses
            finally:
                await service.close()

        store = run(main())
        starts = [start for start, _, _ in marches]
        assert len(starts) == 4
        assert starts[:2] == [0, 0] and starts[2] == starts[3] > 0
        config = requests[0].noise
        span = config.period + config.rise_time + config.settle_time
        [entry] = store._entries.values()
        assert entry.reach(0) == int(np.ceil(span / config.dt))

    def test_a_served_job_takes_no_lock(self, monkeypatch):
        """A job the store already serves finishes while another job
        extends the same circuit."""
        started = threading.Event()
        release = threading.Event()
        real = workers.sim_shard_worker

        def slow(march, cache_dir):
            started.set()
            release.wait(30)
            return real(march, cache_dir)

        served_request = noise_request(8, 2004)

        async def main():
            service = AnalysisService(_service_config(shards=2))
            try:
                first = await service.submit(noise_request(8, 2003))
                assert (await service.wait(first.id)).status == "done"
                monkeypatch.setattr(
                    "repro.service.workers.sim_shard_worker", slow
                )
                # A longer settle time reaches past the stored clock reach.
                longer = await service.submit(noise_request(8, 2003, 900e-12))
                await asyncio.get_running_loop().run_in_executor(
                    None, started.wait, 30
                )
                served = await asyncio.wait_for(
                    service.wait((await service.submit(served_request)).id),
                    timeout=60.0,
                )
                extending = service.record(longer.id).status
                release.set()
                return served, extending, await service.wait(longer.id)
            finally:
                release.set()
                await service.close()

        served, extending, longer = run(main())
        assert served.status == "done"
        assert served.checksum == oneshot_result(served_request)["checksum"]
        assert extending == "running"
        assert longer.status == "done"

    def test_concurrent_jobs_march_each_wire_once(self, monkeypatch):
        """Eight jobs at once on two circuits, horizons drawn apart: the
        per-circuit locks serialize every extension, so no column is
        marched twice and every job matches its one-shot scan."""
        marches = spy_marches(monkeypatch)
        requests = [
            noise_request(bits, 2003 + k, settle)
            for k, (bits, settle) in enumerate(
                [(6, 100e-12), (8, 600e-12), (6, 900e-12), (8, 100e-12),
                 (6, 300e-12), (8, 900e-12), (6, 600e-12), (8, 300e-12)]
            )
        ]

        async def main():
            service = AnalysisService(
                _service_config(shards=2, max_concurrency=8)
            )
            try:
                records = [await service.submit(r) for r in requests]
                finals = await asyncio.wait_for(
                    asyncio.gather(*(service.wait(r.id) for r in records)),
                    timeout=120.0,
                )
                return finals, service.responses
            finally:
                await service.close()

        finals, store = run(main())
        for request, final in zip(requests, finals):
            assert final.status == "done"
            assert final.checksum == oneshot_result(request)["checksum"]
        assert store.circuits == 2
        reaches = []
        for entry in store._entries.values():
            [reach] = {entry.reach(w) for w in entry._pieces}
            reaches.append((len(entry._pieces), reach))
        assert sum(steps for _, steps, _ in marches) == sum(
            count * reach for count, reach in reaches
        )

    def test_cancelled_job_leaves_the_store_unchanged(self, monkeypatch):
        started = threading.Event()
        release = threading.Event()
        real = workers.sim_shard_worker

        def slow(march, cache_dir):
            started.set()
            release.wait(10)
            return real(march, cache_dir)

        async def main():
            service = AnalysisService(_service_config(shards=2))
            try:
                first = await service.submit(noise_request(8, 2003))
                await service.wait(first.id)
                store = service.responses
                [entry] = store._entries.values()
                before = (store.circuits, store.nbytes, entry.reach(0))
                monkeypatch.setattr(
                    "repro.service.workers.sim_shard_worker", slow
                )
                # A longer horizon on the stored circuit, and a new one.
                jobs = [
                    await service.submit(noise_request(8, 2003, 900e-12)),
                    await service.submit(noise_request(6, 2003)),
                ]
                await asyncio.get_running_loop().run_in_executor(
                    None, started.wait, 10
                )
                for job in jobs:
                    assert service.cancel(job.id) is True
                release.set()
                finals = [await service.wait(job.id) for job in jobs]
                after = (store.circuits, store.nbytes, entry.reach(0))
                return before, after, finals
            finally:
                release.set()
                await service.close()

        before, after, finals = run(main())
        assert [f.status for f in finals] == ["cancelled", "cancelled"]
        assert after == before


class TestDeadWorker:
    def test_killed_worker_fails_one_job_typed_then_the_pool_heals(self):
        stored = noise_request(8, 2003)
        later = noise_request(8, 2004)

        async def main():
            service = AnalysisService(ServiceConfig(jobs=2, job_timeout=60.0))
            try:
                first = await service.wait((await service.submit(stored)).id)
                executor = service._executor
                victim = next(iter(executor._processes.values()))
                os.kill(victim.pid, signal.SIGKILL)
                deadline = time.monotonic() + 30
                while not executor._broken and time.monotonic() < deadline:
                    await asyncio.sleep(0.05)
                begin = time.monotonic()
                broken = await service.wait(
                    (await service.submit(noise_request(12, 2003))).id
                )
                elapsed = time.monotonic() - begin
                healed = await service.wait((await service.submit(later)).id)
                return first, broken, elapsed, healed, service.stats_dict()
            finally:
                await service.close()

        first, broken, elapsed, healed, stats = run(main())
        assert first.status == "done"
        assert broken.status == "failed"
        assert broken.error["kind"] == "WorkerLostError"
        assert elapsed < 60.0
        assert healed.status == "done"
        assert healed.checksum == oneshot_result(later)["checksum"]
        assert stats["respawns"] == 1
        assert stats["response_circuits"] >= 1
