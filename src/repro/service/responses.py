"""The service's ramp-response store: one march per circuit per service.

A noise or sweep job's escalated victims are sums of unit-ramp
responses that depend on the testbench circuit alone (see
:mod:`repro.noise.engine`).  :class:`ResponseStore` keeps those
responses in the server process, one *complete*
:class:`~repro.noise.engine.ResponseEntry` per circuit -- every wire a
source and every far end a probe, all columns held to one reach -- so
the first job on a circuit marches every wire out to the reach it
needs, a later job with a longer horizon resumes every stored column
from its saved state out to the longest reach any schedule of its
clock period can need (:func:`~repro.noise.engine.complete_reach`),
and a job inside the stored reach marches nothing.  Under one clock an
entry is therefore extended at most once, whatever order the jobs
arrive in.

The store plans and commits; the service takes the per-circuit locks
(:meth:`ResponseStore.key` names them) of the circuits a job must
march, and dispatches the march items.  A job commits only after all
of its march items returned, so a cancelled, timed-out or failed job
leaves the store as it was.

Entries are bounded by :data:`RESPONSE_STORE_BYTES`: whole circuits
that no job holds are evicted least recently used first, and a circuit
whose complete entry alone exceeds the budget is marched, for each job,
as a throwaway entry of its needed sources only.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Collection, List, Sequence

from repro.noise.engine import (
    EscalationTierResult,
    MarchItem,
    MarchResult,
    ResponseEntry,
    SimulateItem,
    complete_bytes,
    complete_reach,
    plan_marches,
    superpose,
)
from repro.health.solvers import DEFAULT_POLICY
from repro.pipeline.hashing import stable_hash

#: Byte budget of the retained entries.  A complete entry costs about
#: ``wires**2 * samples * 8`` bytes (twice that when ``rise / dt`` is
#: fractional): 12.3 MB for the 8-, 12- and 16-wire buses of the
#: ``service_stream`` benchmark together at the default clock's reach
#: (3 312 samples), 109 MB for one 64-wire bus, which therefore marches
#: as throwaway entries.
RESPONSE_STORE_BYTES = 64 << 20


@dataclass
class CircuitPlan:
    """One circuit's share of a job: its entry and the marches it needs.

    ``retained`` says whether ``entry`` joins the store on commit (a
    complete entry) or serves this job only (a throwaway entry).
    """

    key: str
    item: SimulateItem
    entry: ResponseEntry
    marches: List[MarchItem]
    retained: bool


class ResponseStore:
    """Complete response entries by circuit, bounded, least recently
    used first out (see module docstring)."""

    def __init__(self, budget: int = RESPONSE_STORE_BYTES) -> None:
        self.budget = budget
        self._entries: "OrderedDict[str, ResponseEntry]" = OrderedDict()

    @staticmethod
    def key(item: SimulateItem) -> str:
        """The store key of an item's testbench circuit.

        The circuit plus the fallback policy its columns are marched
        under: the service's march items run under the default policy.
        """
        return stable_hash("responses", item.circuit, DEFAULT_POLICY)

    @property
    def circuits(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        return sum(entry.nbytes for entry in self._entries.values())

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def plan(self, item: SimulateItem, shards: int) -> CircuitPlan:
        """The entry serving ``item`` and the march items it still needs.

        Changes nothing: the entry of a circuit seen for the first time
        is new and empty until :meth:`commit`.
        """
        key = self.key(item)
        if complete_bytes(item, complete_reach(item)) > self.budget:
            throwaway = ResponseEntry()
            return CircuitPlan(
                key, item, throwaway, plan_marches(item, shards), False
            )
        entry = self._entries.get(key, ResponseEntry())
        return CircuitPlan(
            key, item, entry, plan_marches(item, shards, entry), True
        )

    def commit(
        self,
        plans: Sequence[CircuitPlan],
        results: Sequence[Sequence[MarchResult]],
        held: Collection[str] = (),
    ) -> None:
        """Add every plan's march results to its entry and retain it.

        ``results[i]`` are the results of ``plans[i].marches``.  A
        circuit over budget drops any entry it had.  Then least
        recently used entries go until the store fits its budget, except
        those of the ``held`` circuits (another job is extending them).
        """
        for plan, marched in zip(plans, results):
            for result in marched:
                plan.entry.add(result.segments)
            if plan.retained:
                self._entries[plan.key] = plan.entry
                self._entries.move_to_end(plan.key)
            else:
                self._entries.pop(plan.key, None)
        total = self.nbytes
        for key in list(self._entries):
            if total <= self.budget:
                break
            if key not in held:
                total -= self._entries.pop(key).nbytes


def superpose_plans(
    plans: Sequence[CircuitPlan], results: Sequence[Sequence[MarchResult]]
) -> List[EscalationTierResult]:
    """Every plan's victims, superposed from its (committed) entry."""
    return [
        EscalationTierResult(
            metrics=superpose(plan.item, plan.entry),
            build_seconds=sum(result.build_seconds for result in marched),
            sim_seconds=sum(result.sim_seconds for result in marched),
        )
        for plan, marched in zip(plans, results)
    ]
