"""Shared fixtures: small extracted systems reused across test modules.

Extraction of the small reference structures is deterministic, so the
fixtures are session-scoped; tests must not mutate them (builders that
attach testbenches get fresh copies via the factory fixtures).

Randomness is scoped per test: the ``rng`` fixture derives an
independent deterministic stream from each test's node id, the global
(legacy) numpy RNG state is snapshotted and restored around every test
so a stray ``np.random.*`` call cannot bleed into later tests, and the
hypothesis profile is derandomized so property suites replay the same
deterministic example stream on every run.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.bench.sweep import sweep_grid
from repro.extraction.parasitics import Parasitics, extract
from repro.geometry.bus import aligned_bus, nonaligned_bus
from repro.geometry.spiral import square_spiral

try:  # hypothesis is an optional test dependency
    from hypothesis import settings as _hypothesis_settings

    _hypothesis_settings.register_profile(
        "repro", derandomize=True, deadline=None
    )
    _hypothesis_settings.load_profile("repro")
except ImportError:  # pragma: no cover - exercised without hypothesis
    pass


@pytest.fixture(autouse=True)
def _isolate_global_rng():
    """Restore the legacy global numpy RNG state after every test."""
    state = np.random.get_state()
    yield
    np.random.set_state(state)


@pytest.fixture()
def rng(request: pytest.FixtureRequest) -> np.random.Generator:
    """Deterministic per-test generator, independent across tests.

    The seed is derived from the test's node id, so every test gets its
    own reproducible stream regardless of execution order or which
    other tests ran before it.
    """
    digest = hashlib.sha256(request.node.nodeid.encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


@pytest.fixture(scope="session")
def bus5() -> Parasitics:
    """The paper's 5-bit aligned bus (Section II-C), extracted."""
    return extract(aligned_bus(5))


@pytest.fixture(scope="session")
def bus8x2() -> Parasitics:
    """A small multi-segment bus: 8 bits, 2 segments per line."""
    return extract(aligned_bus(8, segments_per_line=2))


@pytest.fixture(scope="session")
def bus16() -> Parasitics:
    """A 16-bit aligned bus, one segment per line."""
    return extract(aligned_bus(16))


@pytest.fixture(scope="session")
def nonaligned16() -> Parasitics:
    """A 16-bit nonaligned bus (numerical-truncation workload)."""
    return extract(nonaligned_bus(16))


@pytest.fixture(scope="session")
def spiral_small() -> Parasitics:
    """A small spiral (2 turns, 24 segments) for irregular-layout tests."""
    return extract(square_spiral(turns=2, total_segments=24))


@pytest.fixture(scope="session")
def sweep6() -> Parasitics:
    """The noise-sweep family's bus at 6 segments: 96 filaments.

    At the family's numerical-window threshold every window is the
    whole block, so all 96 aggressors share one wide window.
    """
    (scenario,) = sweep_grid(segments=6, num_densities=1).scenarios()
    return extract(scenario.geometry().build())


@pytest.fixture()
def fresh_bus5() -> Parasitics:
    """Per-test extraction of the 5-bit bus (safe to mutate / attach)."""
    return extract(aligned_bus(5))
