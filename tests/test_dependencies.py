"""What pyproject declares must match what CI installs and tests.

The two development dependency lists must name the same packages.

``requirements-dev.txt`` (what CI installs) and pyproject's ``dev``
extra plus the package's own dependencies (what ``pip install -e
.[dev]`` installs) are maintained by hand; a package missing from one of
them silently changes what a fresh checkout can run — e.g. without
``cffi`` the batched engine falls back to the object engine.
"""

import os
import pathlib
import re
import subprocess
import sys
import tomllib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_requirements_dev_matches_pyproject_dev_extra():
    lines = (ROOT / "requirements-dev.txt").read_text().splitlines()
    required = {ln.strip() for ln in lines
                if ln.strip() and not ln.lstrip().startswith("#")}
    project = tomllib.loads(
        (ROOT / "pyproject.toml").read_text())["project"]
    declared = (set(project["dependencies"])
                | set(project["optional-dependencies"]["dev"]))
    assert required == declared
    # the batched engine's kernel loader
    assert "cffi" in required


def test_python_floor_matches_ci_matrix():
    """The declared floor is the oldest Python CI tests (this very
    module needs ``tomllib``, new in 3.11), and ruff lints for it."""
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    matrix = re.search(r"python-version: \[([^\]]*)\]", ci).group(1)
    oldest = min(re.findall(r"\d+\.\d+", matrix),
                 key=lambda v: tuple(map(int, v.split("."))))
    assert pyproject["project"]["requires-python"] == f">={oldest}"
    assert pyproject["tool"]["ruff"]["target-version"] == \
        "py" + oldest.replace(".", "")


def test_conformance_lanes_cover_the_registry():
    """The nightly fuzz lanes name only registered algorithms, and
    every registered algorithm is fuzzed by at least one lane."""
    from repro.routing.registry import ALGORITHMS
    workflow = (ROOT / ".github" / "workflows" /
                "conformance.yml").read_text()
    laned = {name for names in re.findall(r"^\s*algorithms: (\S+)$",
                                          workflow, re.MULTILINE)
             for name in names.split(",")}
    assert laned <= set(ALGORITHMS), sorted(laned - set(ALGORITHMS))
    assert set(ALGORITHMS) <= laned, sorted(set(ALGORITHMS) - laned)


#: a chaos campaign with backup tables, through the library and the
#: CLI, in a process where ``import networkx`` raises
_WITHOUT_NETWORKX = """
import sys
sys.modules["networkx"] = None
from repro.experiments import run_campaign
from repro.tools.simulate import main
report = run_campaign(1, algorithm="nafta", backup_routes=True,
                      engine="batched", seed=1, cycles=300)
assert len(report["scenarios"]) == 1
assert main(["campaign", "--backups", "on", "--scenarios", "1",
             "--cycles", "300", "--no-cache"]) == 0
"""


def test_backup_campaign_runs_without_networkx(tmp_path):
    """pyproject declares numpy as the only runtime dependency
    (networkx is a dev extra, for analysis), so building and
    certifying backup tables must not import networkx.  A fresh table
    cache makes the run build the table rather than read it."""
    env = dict(os.environ, REPRO_BATCHED_CACHE=str(tmp_path),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"),
                                 os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_NETWORKX],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert list((tmp_path / "tables").glob("bk-*.json"))
