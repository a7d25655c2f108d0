"""Performance layer: parallel cell execution, result caching, crash safety.

Three cooperating parts, all resting on the determinism contract the
lint and sanitizer layers enforce (a cell's output is a pure function
of code, configuration and seed):

* :mod:`repro.perf.cells` / :mod:`repro.perf.executor` -- experiment
  sweeps factored into independent :class:`~repro.perf.cells.Cell`
  descriptors, fanned out over a process pool with results merged in
  cell order so parallel output is byte-identical to serial
  (``repro run --jobs N``);
* :mod:`repro.perf.cache` -- a content-addressed on-disk cache keyed by
  (cell config, code fingerprint); warm re-runs are I/O-bound
  (``repro run --cache-dir D``, ``repro cache stats|clear``);
* :mod:`repro.perf.supervisor` / :mod:`repro.perf.manifest` /
  :mod:`repro.perf.integrity` -- crash-safe execution: supervised
  fan-out (deadlines, bounded retries, serial degradation), run
  manifests with checkpoint/resume (``--run-dir`` / ``--resume``,
  ``repro runs status|resume|gc``), and checksummed artifact storage
  shared by the cache and the checkpoints.

Timing is not this package's job: the benchmark under ``perfbench/``
(``python3 perfbench/run.py``) times whole runs and splits them by
layer, and ``--obs-dir`` (:mod:`repro.obs`) records spans and counters
for one run.
"""

from repro.perf.cache import (
    CacheStats,
    ResultCache,
    canonical_json,
    cell_key,
    code_fingerprint,
)
from repro.perf.cells import (
    Cell,
    MicrobenchCell,
    PredictionCell,
    ScenarioTrialCell,
    content_digest,
)
from repro.perf.executor import (
    CellOutcome,
    default_cache,
    default_jobs,
    default_manifest,
    default_resume,
    default_supervisor,
    execution_defaults,
    resolve_jobs,
    run_cells,
    set_default_cache,
    set_default_jobs,
    set_default_manifest,
    set_default_resume,
    set_default_supervisor,
)
from repro.perf.integrity import (
    ArtifactIntegrityWarning,
    IntegrityError,
    read_artifact,
    write_artifact,
)
from repro.perf.manifest import RunManifest, RunStatus
from repro.perf.supervisor import (
    CellExecutionError,
    SupervisionStats,
    SupervisorConfig,
    run_supervised,
)

__all__ = [
    "ArtifactIntegrityWarning",
    "CacheStats",
    "Cell",
    "CellExecutionError",
    "CellOutcome",
    "IntegrityError",
    "MicrobenchCell",
    "PredictionCell",
    "ResultCache",
    "RunManifest",
    "RunStatus",
    "ScenarioTrialCell",
    "SupervisionStats",
    "SupervisorConfig",
    "canonical_json",
    "cell_key",
    "code_fingerprint",
    "content_digest",
    "default_cache",
    "default_jobs",
    "default_manifest",
    "default_resume",
    "default_supervisor",
    "execution_defaults",
    "read_artifact",
    "resolve_jobs",
    "run_cells",
    "run_supervised",
    "set_default_cache",
    "set_default_jobs",
    "set_default_manifest",
    "set_default_resume",
    "set_default_supervisor",
    "write_artifact",
]
