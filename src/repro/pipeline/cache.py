"""Content-addressed on-disk cache for extraction and model building.

Every experiment driver used to re-extract the partial inductance matrix
and rebuild its models from scratch on each invocation.  This cache
makes those stages reusable across runs:

- **Keys** are content hashes (:mod:`repro.pipeline.hashing`) of the
  geometry fingerprint plus every option that influences the result,
  prefixed with a format version -- changing either produces a new key,
  so entries never go stale silently.  Bump :data:`CACHE_VERSION`
  whenever the *meaning* of stored values changes (new extraction
  physics, new model semantics).
- **Values** are pickles, written atomically (temp file + rename) so a
  crashed run can never leave a truncated entry behind.
- **Layout**: ``<root>/<kind>/<key[:2]>/<key>.pkl`` -- one file per
  entry, fanned out over 256 subdirectories.
- **Invalidation** is explicit: :meth:`PipelineCache.clear` (also
  surfaced as ``repro cache clear``), or simply delete the directory.
  ``--no-cache`` bypasses the cache entirely.

Loading a pickle returns bit-exact copies of the stored numpy arrays,
which is what makes the warm-cache equivalence guarantee ("cached
results are bitwise-identical to cold builds") hold by construction.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Optional, TypeVar

import numpy as np

from repro.extraction.capacitance import CapacitanceModel
from repro.extraction.constants import COPPER_RESISTIVITY
from repro.extraction.hierarchical import DEFAULT_CONFIG, HierarchicalConfig, LazyInductance
from repro.extraction.parasitics import Parasitics, extract
from repro.geometry.system import FilamentSystem
from repro.pipeline.hashing import stable_hash, system_fingerprint
from repro.pipeline.profiling import add_counter

#: Format version prefixed into every key.  Bump to invalidate all
#: existing entries after a semantic change to cached values.
#: v2: Circuit pickles changed layout (columnar element stores).
#: v3: Parasitics pickles changed layout (lazy derived full matrix,
#:     hierarchical operator blocks).
#: v4: noise reports changed: escalated peaks on systems of at least
#:     512 unknowns come from a symmetric-mode sparse factor.
#: v5: noise reports changed in low bits: the trapezoidal march takes
#:     its history through C alone and subtracts the old state.
CACHE_VERSION = 5

#: Environment variable overriding the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

T = TypeVar("T")


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, or ``~/.cache/repro-pipeline``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-pipeline"


@dataclass
class CacheStats:
    """Hit/miss/write tallies of one :class:`PipelineCache` instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0


@dataclass
class PipelineCache:
    """A content-addressed pickle store under one root directory.

    The object is cheap and picklable (it carries only the root path and
    process-local stats), so worker processes can reopen the same store.
    """

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    # ------------------------------------------------------------------
    # Raw store
    # ------------------------------------------------------------------
    def _path(self, kind: str, key: str) -> Path:
        return self.root / kind / key[:2] / f"{key}.pkl"

    def get(self, kind: str, key: str) -> Optional[Any]:
        """The stored value, or ``None`` on a miss (or unreadable entry)."""
        path = self._path(kind, key)
        # Any unpickling failure is a miss: a truncated or corrupted
        # entry raises whatever the garbage bytes decode to (ValueError,
        # UnpicklingError, EOFError, ImportError, ...), and the store
        # must recompute rather than crash.  The bad file is evicted so
        # it is rewritten by the recompute instead of failing every
        # future lookup of the same key.
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            add_counter("cache_misses")
            return None
        except Exception:
            try:
                path.unlink()
            except OSError:
                pass
            else:
                self.stats.evictions += 1
                add_counter("cache_evictions")
            self.stats.misses += 1
            add_counter("cache_misses")
            return None
        self.stats.hits += 1
        add_counter("cache_hits")
        return value

    def put(self, kind: str, key: str, value: Any) -> None:
        """Store a value atomically (temp file + rename)."""
        path = self._path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.writes += 1
        add_counter("cache_writes")

    def fetch(self, kind: str, key: str, builder: Callable[[], T]) -> T:
        """The cached value, building and storing it on a miss."""
        value = self.get(kind, key)
        if value is None:
            value = builder()
            self.put(kind, key, value)
        return value

    # ------------------------------------------------------------------
    # Inspection and invalidation
    # ------------------------------------------------------------------
    def entries(self, kind: Optional[str] = None) -> Dict[str, int]:
        """``{kind: entry count}`` for one kind or the whole store."""
        counts: Dict[str, int] = {}
        if not self.root.is_dir():
            return counts
        kinds = [kind] if kind else sorted(
            p.name for p in self.root.iterdir() if p.is_dir()
        )
        for name in kinds:
            counts[name] = len(list((self.root / name).glob("*/*.pkl")))
        return counts

    def size_bytes(self) -> int:
        """Total bytes of all stored entries."""
        if not self.root.is_dir():
            return 0
        return sum(p.stat().st_size for p in self.root.glob("*/*/*.pkl"))

    def clear(self, kind: Optional[str] = None) -> int:
        """Delete entries (one kind, or everything); returns the count."""
        removed = 0
        if not self.root.is_dir():
            return removed
        pattern = f"{kind}/*/*.pkl" if kind else "*/*/*.pkl"
        for path in self.root.glob(pattern):
            path.unlink()
            removed += 1
        return removed


def resolve_cache(
    cache_dir: "Optional[str | Path]" = None, enabled: bool = True
) -> Optional[PipelineCache]:
    """CLI helper: a cache at the given (or default) root, or ``None``."""
    if not enabled:
        return None
    return PipelineCache(Path(cache_dir) if cache_dir else default_cache_dir())


# ----------------------------------------------------------------------
# Cached pipeline stages
# ----------------------------------------------------------------------
def parasitics_key(
    system: FilamentSystem,
    resistivity: float,
    frequency: float,
    capacitance_model: CapacitanceModel,
    gmd_correction: bool,
    method: str = "dense",
    hierarchical: Optional[HierarchicalConfig] = None,
) -> str:
    """Cache key of one extraction run.

    ``method``/``hierarchical`` participate in the key because they
    change the stored representation (dense ndarray blocks vs
    hierarchical operators with a given cutoff); the dense key is
    unchanged relative to the method-less signature.
    """
    parts: list = [
        "parasitics",
        CACHE_VERSION,
        system_fingerprint(system),
        resistivity,
        frequency,
        capacitance_model,
        gmd_correction,
    ]
    if method != "dense":
        parts.append(method)
        parts.append(hierarchical if hierarchical is not None else DEFAULT_CONFIG)
    return stable_hash(*parts)


def cached_extract(
    system: FilamentSystem,
    cache: Optional[PipelineCache] = None,
    resistivity: float = COPPER_RESISTIVITY,
    frequency: float = 0.0,
    capacitance_model: Optional[CapacitanceModel] = None,
    gmd_correction: bool = True,
    method: str = "dense",
    hierarchical: Optional[HierarchicalConfig] = None,
    jobs: Optional[int] = None,
) -> Parasitics:
    """:func:`repro.extraction.parasitics.extract` behind the cache.

    With ``cache=None`` this is exactly ``extract(...)``; with a cache,
    a warm hit skips extraction entirely and returns a bit-exact copy of
    the cold run's output.  ``jobs`` (parallel hierarchical assembly)
    deliberately does *not* enter the key: the parallel build is
    bit-identical to the serial one, so any worker count may serve any
    other's cached entry.
    """
    model = capacitance_model if capacitance_model is not None else CapacitanceModel()

    def build() -> Parasitics:
        return extract(
            system,
            resistivity=resistivity,
            frequency=frequency,
            capacitance_model=model,
            gmd_correction=gmd_correction,
            method=method,
            hierarchical=hierarchical,
            jobs=jobs,
        )

    if cache is None:
        return build()
    key = parasitics_key(
        system,
        resistivity,
        frequency,
        model,
        gmd_correction,
        method=method,
        hierarchical=hierarchical,
    )
    return cache.fetch("parasitics", key, build)


def parasitics_fingerprint(parasitics: Parasitics) -> str:
    """Content hash of extracted parasitics (for model-level keys).

    Hashes the numeric arrays themselves, so a model cached against one
    extraction is reused only when the numbers are bit-identical --
    regardless of which options produced them.  Index lists and the
    coupling dict are packed into arrays first: this runs on every warm
    model hit, and element-wise traversal of thousand-entry containers
    would otherwise rival the pickle load itself.  The full ``(n, n)``
    matrix is *not* hashed -- it is a derived view of the blocks, and
    pulling it into the hash would materialize it for hierarchical
    extractions; operator blocks contribute their flat storage arrays
    instead.
    """
    blocks = {
        axis.name: (
            np.asarray(indices, dtype=np.int64),
            block.fingerprint_payload()
            if isinstance(block, LazyInductance)
            else block,
        )
        for axis, (indices, block) in parasitics.inductance_blocks.items()
    }
    pairs = sorted(parasitics.coupling_capacitance)
    coupling_pairs = np.asarray(pairs, dtype=np.int64).reshape(len(pairs), 2)
    coupling_values = np.asarray(
        [parasitics.coupling_capacitance[pair] for pair in pairs], dtype=np.float64
    )
    return stable_hash(
        system_fingerprint(parasitics.system),
        blocks,
        parasitics.resistance,
        parasitics.ground_capacitance,
        coupling_pairs,
        coupling_values,
    )
