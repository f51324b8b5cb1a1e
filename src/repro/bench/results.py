"""Benchmark records and the ``BENCH_kernels.json`` trajectory format.

Schema (version 1)::

    {
      "schema": 1,
      "entries": [
        {"kernel": "extraction_bus1024", "variant": "seed", "size": 1024,
         "seconds": 0.158, "checksum": "2f6c..."},
        ...
      ]
    }

``kernel`` names a micro-kernel from :mod:`repro.bench.runner`,
``variant`` distinguishes implementations of the same computation
("seed" is the scalar reference path, "vectorized" the current kernels),
``seconds`` is the best wall time over the runner's repeats, and
``checksum`` digests the numerical output (see :func:`array_checksum`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

SCHEMA_VERSION = 1

#: Significant digits kept per summary statistic before hashing.  Eight
#: digits tolerate BLAS/libm ulp jitter across machines while still
#: catching any real numerical change.
_CHECKSUM_DIGITS = 8


def array_checksum(*arrays: np.ndarray) -> str:
    """Platform-tolerant digest of one or more numerical outputs.

    Hashes rounded summary statistics (size, sum, absolute sum, min,
    max, 2-norm) rather than raw bytes, so two machines whose LAPACK
    differs in the last ulp agree on the checksum but a wrong kernel
    does not.
    """
    digest = hashlib.sha256()
    for array in arrays:
        flat = np.asarray(array, dtype=float).ravel()
        if flat.size == 0:
            digest.update(b"empty;")
            continue
        absolute_sum = float(np.abs(flat).sum())
        stats = (
            float(flat.sum()),
            absolute_sum,
            float(flat.min()),
            float(flat.max()),
            float(np.linalg.norm(flat)),
        )
        # A stat that cancels to rounding noise (e.g. the sum of a
        # symmetric array) would hash its noise bits; snap it to zero
        # relative to the array's overall scale instead.
        floor = absolute_sum * 10.0 ** (-_CHECKSUM_DIGITS - 4)
        digest.update(str(flat.size).encode())
        for value in stats:
            if abs(value) < floor:
                value = 0.0
            digest.update(f"{value:.{_CHECKSUM_DIGITS}e};".encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class BenchResult:
    """One timed kernel execution: what ran, how fast, what it computed.

    ``peak_bytes`` (optional) records the peak memory of one execution
    (RSS high-water delta where the platform supports it, tracemalloc
    peak otherwise -- see ``bench.extraction_scale``).  Like ``seconds`` it
    is machine-dependent telemetry, not identity: it rides in the
    trajectory entry but is excluded from :attr:`key`, so regressions in
    it warn rather than fail.
    """

    kernel: str
    variant: str
    size: int
    seconds: float
    checksum: str
    peak_bytes: Optional[int] = None

    @property
    def key(self) -> tuple:
        """Identity for trajectory comparisons (timing excluded)."""
        return (self.kernel, self.variant, self.size)

    def to_entry(self) -> Dict[str, object]:
        entry: Dict[str, object] = {
            "kernel": self.kernel,
            "variant": self.variant,
            "size": self.size,
            "seconds": self.seconds,
            "checksum": self.checksum,
        }
        if self.peak_bytes is not None:
            entry["peak_bytes"] = self.peak_bytes
        return entry

    @classmethod
    def from_entry(cls, entry: Dict[str, object]) -> "BenchResult":
        peak = entry.get("peak_bytes")
        return cls(
            kernel=str(entry["kernel"]),
            variant=str(entry["variant"]),
            size=int(entry["size"]),  # type: ignore[arg-type]
            seconds=float(entry["seconds"]),  # type: ignore[arg-type]
            checksum=str(entry["checksum"]),
            peak_bytes=None if peak is None else int(peak),  # type: ignore[arg-type]
        )


def load_trajectory(path: Union[str, Path]) -> List[BenchResult]:
    """Read a trajectory file; missing file reads as an empty trajectory."""
    path = Path(path)
    if not path.exists():
        return []
    payload = json.loads(path.read_text())
    schema = payload.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported trajectory schema {schema!r} in {path} "
            f"(expected {SCHEMA_VERSION})"
        )
    return [BenchResult.from_entry(entry) for entry in payload["entries"]]


def merge_trajectory(
    committed: Sequence[BenchResult], fresh: Sequence[BenchResult]
) -> List[BenchResult]:
    """``committed`` with ``fresh`` results folded in by :attr:`~BenchResult.key`.

    A fresh result replaces the committed entry with its key in place;
    committed entries nothing fresh replaces keep their order, and
    fresh results with new keys follow them.  This is what
    ``repro bench --update`` writes, so a partial run (a size prefix, a
    kernel subset) refreshes its own rungs without dropping the others.
    """
    by_key = {result.key: result for result in fresh}
    merged = [by_key.pop(entry.key, entry) for entry in committed]
    merged.extend(result for result in fresh if result.key in by_key)
    return merged


def save_trajectory(
    path: Union[str, Path], results: Sequence[BenchResult]
) -> None:
    payload = {
        "schema": SCHEMA_VERSION,
        "entries": [result.to_entry() for result in results],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
