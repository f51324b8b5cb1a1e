"""Long-running analysis service: async jobs over shared-memory models.

The one-shot CLI pays the full pipeline cost -- process start, model
build, extraction -- per invocation.  :mod:`repro.service` amortizes
all of it: a resident asyncio service accepts extraction, simulation,
and tiered noise-scan requests as jobs, keeps extracted models in a
shared-memory columnar store workers attach to zero-copy, shards
per-aggressor window solves across a process pool, memoizes results by
content key, and streams progress per job.  Results are
checksum-identical to the equivalent one-shot run -- the service bench
commits that equivalence to the benchmark trajectory.

See ``docs/service.md`` for the architecture and wire protocol.
"""

from repro.service.jobs import (
    ANALYSIS_OPS,
    TERMINAL_STATES,
    GeometrySpec,
    JobCancelledError,
    JobRecord,
    JobRequest,
    SimParams,
)
from repro.service.client import ServiceClient
from repro.service.server import (
    AnalysisService,
    ServiceConfig,
    ServiceServer,
    serve,
)
from repro.service.shm import (
    SharedColumnBlock,
    SharedParasiticsStore,
    attach_parasitics,
    detach_all,
    parasitics_columns,
    parasitics_from_block,
)

__all__ = [
    "ANALYSIS_OPS",
    "TERMINAL_STATES",
    "GeometrySpec",
    "JobCancelledError",
    "JobRecord",
    "JobRequest",
    "SimParams",
    "ServiceClient",
    "AnalysisService",
    "ServiceConfig",
    "ServiceServer",
    "serve",
    "SharedColumnBlock",
    "SharedParasiticsStore",
    "attach_parasitics",
    "detach_all",
    "parasitics_columns",
    "parasitics_from_block",
]
