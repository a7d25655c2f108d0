"""Small statistics and bookkeeping rules the benchmark reports by."""

from __future__ import annotations

import json
import math
import statistics
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile of ``n`` samples
    (exact decimal arithmetic: 99.9 % of 10,000 is rank 9,990)."""
    return max(1, math.ceil(Fraction(str(q)) * n / 100))


def beyond(n: int, q: float) -> int:
    """Samples ranked above the ``q``-th percentile of ``n`` samples."""
    return n - _rank(n, q)


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with >= 10 samples beyond it.

    ``None`` when even the median has fewer than ten samples beyond it.
    """
    best = None
    for q in TAIL_LADDER:
        if beyond(n, q) >= MIN_BEYOND:
            best = q
    return best


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return float(ordered[_rank(len(ordered), q) - 1])


def tail(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, refusing one the sample cannot support."""
    highest = tail_percentile(len(values))
    if highest is None or q > highest:
        raise ValueError(
            f"p{q:g} of {len(values)} samples has fewer than "
            f"{MIN_BEYOND} samples beyond it"
        )
    return percentile(values, q)


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def failure_share(attempted: int, failed: int) -> float:
    """Failed operations as a share of those attempted."""
    if attempted < 1:
        raise ValueError("no operation attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return failed / attempted


def load_spec(path: Path) -> Dict[str, object]:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def metric_units(spec: Dict[str, object], trace: bool) -> Dict[str, str]:
    """Metric name -> unit for one kind of run."""
    rows = spec["per_layer" if trace else "end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def name_mismatch(
    metrics: Dict[str, float], spec: Dict[str, object], trace: bool
) -> List[str]:
    """Metric names missing from, or unknown to, ``BENCHMARK.json``."""
    declared = metric_units(spec, trace)
    missing = sorted(set(declared) - set(metrics))
    unknown = sorted(set(metrics) - set(declared))
    return [f"missing {n}" for n in missing] + [f"undeclared {n}" for n in unknown]
