"""Every ``repro`` package imports on its own in a fresh interpreter.

Inside one pytest process the first test to import a package resolves
the whole graph in whatever order that test happened to use, which
hides import cycles that only bite when a package is imported first.
Each package therefore gets its own subprocess here.
"""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

PACKAGES = ["repro"] + sorted(
    f"repro.{m.name}" for m in pkgutil.iter_modules(repro.__path__) if m.ispkg
)


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports_in_fresh_interpreter(package):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", f"import {package}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
