"""What pyproject declares must match what CI installs and tests.

The two development dependency lists must name the same packages.

``requirements-dev.txt`` (what CI installs) and pyproject's ``dev``
extra plus the package's own dependencies (what ``pip install -e
.[dev]`` installs) are maintained by hand; a package missing from one of
them silently changes what a fresh checkout can run — e.g. without
``cffi`` the batched engine falls back to the object engine.
"""

import pathlib
import re
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
