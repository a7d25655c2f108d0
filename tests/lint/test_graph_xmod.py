"""Whole-program analysis: graph building, taint, the REP1xx pack."""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List

import pytest

from repro.lint import LintEngine, Violation
from repro.lint.config import LintConfig
from repro.lint.graph import ProjectGraph, module_name_for
from repro.lint.taint import clock_sources, propagate

REPO_ROOT = Path(__file__).resolve().parents[2]


def build_graph(
    files: Dict[str, str], config: LintConfig = None
) -> ProjectGraph:
    """Build a ProjectGraph from ``{posix_path: source}`` fixtures."""
    parsed = [
        (path, source, ast.parse(source)) for path, source in files.items()
    ]
    return ProjectGraph.build(parsed, config or LintConfig())


def lint_tree(
    tmp_path: Path, files: Dict[str, str], config: LintConfig = None
) -> List[Violation]:
    """Write ``{relpath: source}`` under ``tmp_path`` and lint it."""
    for rel, source in files.items():
        f = tmp_path / rel
        f.parent.mkdir(parents=True, exist_ok=True)
        f.write_text(source)
    return LintEngine(config or LintConfig()).lint_paths([tmp_path])


def codes(violations: List[Violation]) -> List[str]:
    return [v.code for v in violations]


class TestModuleNames:
    def test_rooted_at_repro(self):
        assert module_name_for("src/repro/sim/rng.py") == "repro.sim.rng"

    def test_tmp_prefix_stripped(self):
        assert (
            module_name_for("/tmp/x/repro/perf/executor.py")
            == "repro.perf.executor"
        )

    def test_init_collapses_to_package(self):
        assert module_name_for("src/repro/sim/__init__.py") == "repro.sim"


class TestGraph:
    FILES = {
        "repro/a.py": "import time\n\n\ndef src():\n    return time.time()\n",
        "repro/b.py": (
            "from repro import a\n\n\ndef mid():\n    return a.src()\n"
        ),
        "repro/c.py": (
            "from repro import b\n\n\ndef top():\n    return b.mid()\n"
        ),
    }

    def test_import_deps_bound(self):
        g = build_graph(self.FILES)
        assert "repro.a" in g.modules["repro.b"].deps

    def test_calls_bound_across_modules(self):
        g = build_graph(self.FILES)
        assert "repro.c.top" in g.callers["repro.b.mid"]
        assert "repro.b.mid" in g.callers["repro.a.src"]

    def test_import_cycle_terminates(self):
        g = build_graph({
            "repro/x.py": "from repro import y\n",
            "repro/y.py": "from repro import x\n",
        })
        assert g.modules["repro.x"].deps == {"repro.y"}
        assert g.modules["repro.y"].deps == {"repro.x"}


class TestTaint:
    def test_multi_hop_chain(self):
        g = build_graph(TestGraph.FILES)
        tainted = propagate(g, clock_sources(g))
        assert "repro.c.top" in tainted
        assert tainted["repro.c.top"].chain == (
            "repro.c.top", "repro.b.mid", "repro.a.src",
        )
        assert tainted["repro.c.top"].read.resolved == "time.time"

    def test_call_cycle_terminates(self):
        g = build_graph({
            "repro/m.py": (
                "import time\n\n\n"
                "def f():\n    return g()\n\n\n"
                "def g():\n    return f() or time.time()\n"
            ),
        })
        tainted = propagate(g, clock_sources(g))
        assert "repro.m.f" in tainted and "repro.m.g" in tainted

    def test_noqa_at_funnel_stops_taint(self):
        g = build_graph({
            "repro/funnel.py": (
                "import time\n\n\n"
                "def wall_now():\n"
                "    return time.time()  # repro: noqa[REP002] funnel\n"
            ),
            "repro/core.py": (
                "from repro import funnel\n\n\n"
                "def step():\n    return funnel.wall_now()\n"
            ),
        })
        assert clock_sources(g) == {}
        assert propagate(g, clock_sources(g)) == {}

    def test_render_elides_long_chains(self):
        from repro.lint.graph import ClockRead
        from repro.lint.taint import Taint

        t = Taint(
            chain=("a", "b", "c", "d", "e", "f"),
            read=ClockRead("time.time", 1, 0, False),
        )
        assert t.render(max_hops=4) == "a -> b -> c -> ... -> f"


class TestRep101:
    """Laundered wall-clock: the acceptance-mandated planted violation."""

    def test_cross_module_wallclock_via_helper_is_caught(self, tmp_path):
        out = lint_tree(tmp_path, {
            "repro/util.py": (
                "import time\n\n\n"
                "def helper():\n    return deeper()\n\n\n"
                "def deeper():\n    return time.time()\n"
            ),
            "repro/sim/core.py": (
                "from repro import util\n\n\n"
                "def step():\n    return util.helper()\n"
            ),
        })
        hits = [v for v in out if v.code == "REP101"]
        assert len(hits) == 1
        assert hits[0].path.endswith("repro/sim/core.py")
        assert "repro.util.deeper" in hits[0].message
        assert "time.time" in hits[0].message

    def test_funnel_routed_call_is_clean(self, tmp_path):
        out = lint_tree(tmp_path, {
            "repro/util.py": (
                "import time\n\n\n"
                "def wall_now():\n"
                "    return time.time()  # repro: noqa[REP002] funnel\n"
            ),
            "repro/sim/core.py": (
                "from repro import util\n\n\n"
                "def step():\n    return util.wall_now()\n"
            ),
        })
        assert "REP101" not in codes(out)

    def test_direct_read_in_core_is_rep002_not_rep101(self, tmp_path):
        out = lint_tree(tmp_path, {
            "repro/sim/core.py": (
                "import time\n\n\ndef step():\n    return time.time()\n"
            ),
        })
        assert "REP002" in codes(out)
        assert "REP101" not in codes(out)

    def test_env_read_also_taints(self, tmp_path):
        out = lint_tree(tmp_path, {
            "repro/util.py": (
                "import os\n\n\n"
                "def mode():\n    return os.getenv('REPRO_MODE')\n"
            ),
            "repro/sim/core.py": (
                "from repro import util\n\n\n"
                "def step():\n    return util.mode()\n"
            ),
        })
        assert "REP101" in codes(out)


class TestRep102:
    """Stream provenance: the acceptance-mandated duplicated name."""

    def test_duplicated_stream_name_across_modules(self, tmp_path):
        out = lint_tree(tmp_path, {
            "repro/sim/a.py": (
                "def run(rng):\n    return rng('noise')\n"
            ),
            "repro/sim/b.py": (
                "def run(rng):\n    return rng('noise')\n"
            ),
        })
        hits = [v for v in out if v.code == "REP102"]
        assert len(hits) == 2
        assert all("'noise'" in v.message for v in hits)

    def test_same_module_reuse_is_fine_without_manifest(self, tmp_path):
        out = lint_tree(tmp_path, {
            "repro/sim/a.py": (
                "def run(rng):\n"
                "    g = rng('noise')\n"
                "    h = rng('noise')\n"
                "    return g, h\n"
            ),
        })
        assert "REP102" not in codes(out)

    def _manifest_cfg(self) -> LintConfig:
        return LintConfig(streams=(
            ("noise", ("repro/sim/a.py",)),
            ("faults.worker.*", ("repro/faults/workers.py",)),
        ))

    def test_manifest_undeclared_name_flags(self, tmp_path):
        out = lint_tree(tmp_path, {
            "repro/sim/a.py": "def run(rng):\n    return rng('rogue')\n",
        }, self._manifest_cfg())
        hits = [v for v in out if v.code == "REP102"]
        assert len(hits) == 1
        assert "not declared" in hits[0].message

    def test_manifest_wrong_owner_flags(self, tmp_path):
        out = lint_tree(tmp_path, {
            "repro/sim/b.py": "def run(rng):\n    return rng('noise')\n",
        }, self._manifest_cfg())
        hits = [v for v in out if v.code == "REP102"]
        assert len(hits) == 1
        assert "declared to" in hits[0].message

    def test_manifest_declared_use_is_clean(self, tmp_path):
        out = lint_tree(tmp_path, {
            "repro/sim/a.py": "def run(rng):\n    return rng('noise')\n",
        }, self._manifest_cfg())
        assert "REP102" not in codes(out)

    def test_family_must_be_declared_verbatim(self, tmp_path):
        # "faults.worker.*" is declared; "faults.timer.*" is not, and a
        # family never matches by fnmatch -- only verbatim.
        out = lint_tree(tmp_path, {
            "repro/faults/workers.py": (
                "def spawn(rng, kind):\n"
                "    return rng(f'faults.worker.{kind}')\n"
            ),
            "repro/faults/timers.py": (
                "def spawn(rng, kind):\n"
                "    return rng(f'faults.timer.{kind}')\n"
            ),
        }, self._manifest_cfg())
        hits = [v for v in out if v.code == "REP102"]
        assert len(hits) == 1
        assert hits[0].path.endswith("timers.py")
        assert "verbatim" in hits[0].message

    def test_module_constant_substituted_into_family(self, tmp_path):
        cfg = LintConfig(streams=(
            ("faults.service.*", ("repro/faults/service.py",)),
        ))
        out = lint_tree(tmp_path, {
            "repro/faults/service.py": (
                "PREFIX = 'faults.service'\n\n\n"
                "def mint(rng, pm):\n"
                "    return rng(f'{PREFIX}.{pm}')\n"
            ),
        }, cfg)
        assert "REP102" not in codes(out)


class TestRep103:
    """Process-boundary races: the acceptance-mandated worker write."""

    POOL = (
        "def _pool_worker(payload):\n"
        "    {body}\n"
        "    return payload\n"
    )

    def _cfg(self) -> LintConfig:
        return LintConfig(
            worker_entrypoints=("repro.perf.executor._pool_worker",),
        )

    def test_worker_mutated_module_global(self, tmp_path):
        out = lint_tree(tmp_path, {
            "repro/perf/executor.py": (
                "RESULTS = {}\n\n\n"
                "def _pool_worker(payload):\n"
                "    RESULTS['x'] = payload\n"
                "    return payload\n"
            ),
        }, self._cfg())
        hits = [v for v in out if v.code == "REP103"]
        assert len(hits) == 1
        assert "RESULTS" in hits[0].message
        assert "_pool_worker" in hits[0].message

    def test_write_reached_through_helper(self, tmp_path):
        out = lint_tree(tmp_path, {
            "repro/perf/executor.py": (
                "from repro.perf import state\n\n\n"
                "def _pool_worker(payload):\n"
                "    return state.note(payload)\n"
            ),
            "repro/perf/state.py": (
                "SEEN = []\n\n\n"
                "def note(payload):\n"
                "    SEEN.append(payload)\n"
                "    return payload\n"
            ),
        }, self._cfg())
        hits = [v for v in out if v.code == "REP103"]
        assert len(hits) == 1
        assert hits[0].path.endswith("state.py")

    def test_cross_module_attribute_write(self, tmp_path):
        out = lint_tree(tmp_path, {
            "repro/perf/state.py": "SHARED = {}\n",
            "repro/perf/executor.py": (
                "from repro.perf import state\n\n\n"
                "def _pool_worker(payload):\n"
                "    state.SHARED['k'] = payload\n"
                "    return payload\n"
            ),
        }, self._cfg())
        hits = [v for v in out if v.code == "REP103"]
        assert len(hits) == 1
        assert "repro.perf.state.SHARED" in hits[0].message

    def test_local_attribute_chain_is_clean(self, tmp_path):
        out = lint_tree(tmp_path, {
            "repro/perf/executor.py": (
                "def _pool_worker(payload):\n"
                "    buf = type('B', (), {'items': []})()\n"
                "    buf.items.append(payload)\n"
                "    return payload\n"
            ),
        }, self._cfg())
        assert "REP103" not in codes(out)

    def test_allowed_module_is_exempt(self, tmp_path):
        cfg = LintConfig(
            worker_entrypoints=("repro.perf.executor._pool_worker",),
            worker_state_allowed=("repro/sim/sanitize.py",),
        )
        out = lint_tree(tmp_path, {
            "repro/perf/executor.py": (
                "from repro.sim import sanitize\n\n\n"
                "def _pool_worker(payload):\n"
                "    return sanitize.install(payload)\n"
            ),
            "repro/sim/sanitize.py": (
                "_STATE = {}\n\n\n"
                "def install(payload):\n"
                "    _STATE['mode'] = payload\n"
                "    return payload\n"
            ),
        }, cfg)
        assert "REP103" not in codes(out)

    def test_lambda_submit(self, tmp_path):
        out = lint_tree(tmp_path, {
            "repro/perf/executor.py": (
                "def submit_all(pool, items):\n"
                "    return [pool.submit(lambda: i + 1) for i in items]\n"
            ),
        }, self._cfg())
        hits = [v for v in out if v.code == "REP103"]
        assert len(hits) == 1
        assert "lambda" in hits[0].message

    def test_nested_def_submit(self, tmp_path):
        out = lint_tree(tmp_path, {
            "repro/perf/executor.py": (
                "def submit_all(pool, item):\n"
                "    def work():\n"
                "        return item + 1\n"
                "    return pool.submit(work)\n"
            ),
        }, self._cfg())
        hits = [v for v in out if v.code == "REP103"]
        assert len(hits) == 1
        assert "locally-nested" in hits[0].message

    def test_module_level_function_submit_is_clean(self, tmp_path):
        out = lint_tree(tmp_path, {
            "repro/perf/executor.py": (
                "def work(item):\n"
                "    return item + 1\n\n\n"
                "def submit_all(pool, items):\n"
                "    return [pool.submit(work, i) for i in items]\n"
            ),
        }, self._cfg())
        assert "REP103" not in codes(out)


class TestRep104:
    def test_sum_over_set_display(self, tmp_path):
        out = lint_tree(tmp_path, {
            "repro/models/m.py": (
                "def f():\n    return sum({1.0, 2.0})\n"
            ),
        })
        assert "REP104" in codes(out)

    def test_set_into_reduction_helper(self, tmp_path):
        out = lint_tree(tmp_path, {
            "repro/models/merge.py": (
                "def total(values):\n"
                "    acc = 0.0\n"
                "    for v in values:\n"
                "        acc += v\n"
                "    return acc\n"
            ),
            "repro/models/sweep.py": (
                "from repro.models.merge import total\n\n\n"
                "def merge(cells):\n"
                "    return total({c for c in cells})\n"
            ),
        })
        hits = [v for v in out if v.code == "REP104"]
        assert len(hits) == 1
        assert hits[0].path.endswith("sweep.py")
        assert "total" in hits[0].message

    def test_sorted_input_is_clean(self, tmp_path):
        out = lint_tree(tmp_path, {
            "repro/models/merge.py": (
                "def total(values):\n"
                "    acc = 0.0\n"
                "    for v in values:\n"
                "        acc += v\n"
                "    return acc\n\n\n"
                "def merge(cells):\n"
                "    return total(sorted(cells)) + sum([1.0, 2.0])\n"
            ),
        })
        assert "REP104" not in codes(out)


class TestRep105:
    def test_version_fork_across_modules(self, tmp_path):
        out = lint_tree(tmp_path, {
            "repro/perf/wal.py": 'WAL_SCHEMA = "repro.perf.wal/v1"\n',
            "repro/perf/reader.py": 'EXPECTED = "repro.perf.wal/v2"\n',
        })
        hits = [v for v in out if v.code == "REP105"]
        assert len(hits) == 2
        assert all("multiple versions" in v.message for v in hits)

    def test_retyped_literal_names_owning_constant(self, tmp_path):
        out = lint_tree(tmp_path, {
            "repro/perf/wal.py": 'WAL_SCHEMA = "repro.perf.wal/v1"\n',
            "repro/perf/reader.py": (
                "def check(tag):\n"
                '    return tag == "repro.perf.wal/v1"\n'
            ),
        })
        hits = [v for v in out if v.code == "REP105"]
        assert len(hits) == 1
        assert hits[0].path.endswith("reader.py")
        assert "WAL_SCHEMA" in hits[0].message

    def test_shared_constant_is_clean(self, tmp_path):
        out = lint_tree(tmp_path, {
            "repro/perf/wal.py": 'WAL_SCHEMA = "repro.perf.wal/v1"\n',
            "repro/perf/reader.py": (
                "from repro.perf.wal import WAL_SCHEMA\n\n\n"
                "def check(tag):\n"
                "    return tag == WAL_SCHEMA\n"
            ),
        })
        assert "REP105" not in codes(out)


class TestRep106:
    def test_core_importing_obs_internals(self, tmp_path):
        out = lint_tree(tmp_path, {
            "repro/sim/core.py": "from repro.obs import registry\n",
        })
        hits = [v for v in out if v.code == "REP106"]
        assert len(hits) == 1
        assert "repro.obs.registry" in hits[0].message

    def test_runtime_funnel_import_is_clean(self, tmp_path):
        out = lint_tree(tmp_path, {
            "repro/sim/core.py": "from repro.obs import runtime\n",
        })
        assert "REP106" not in codes(out)

    def test_obs_package_itself_is_exempt(self, tmp_path):
        out = lint_tree(tmp_path, {
            "repro/obs/exporters.py": "from repro.obs import registry\n",
        })
        assert "REP106" not in codes(out)

    def test_non_core_path_is_exempt(self, tmp_path):
        out = lint_tree(tmp_path, {
            "repro/experiments/report.py": "from repro.obs import spans\n",
        })
        assert "REP106" not in codes(out)


class TestProjectSuppression:
    def test_noqa_silences_project_violation(self, tmp_path):
        out = lint_tree(tmp_path, {
            "repro/sim/a.py": (
                "def run(rng):\n"
                "    return rng('noise')  # repro: noqa[REP102] shared\n"
            ),
            "repro/sim/b.py": (
                "def run(rng):\n    return rng('noise')\n"
            ),
        })
        hits = [v for v in out if v.code == "REP102"]
        # only the un-noqa'd side still reports
        assert len(hits) == 1
        assert hits[0].path.endswith("b.py")
