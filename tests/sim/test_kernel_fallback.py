"""The batched engine says why its C kernel is unavailable, and a
corrupt cached kernel is rebuilt instead of silently falling back.

Each case runs the simulate CLI in a fresh process: the kernel is
loaded once per process.
"""

import glob
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


def _batched_run(**env_vars) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_BATCHED_NO_CC", "REPRO_BATCHED_CACHE")}
    env.update(PYTHONPATH=str(SRC), **env_vars)
    out = subprocess.run(
        [sys.executable, "-m", "repro.tools.simulate", "run",
         "--width", "4", "--height", "4", "--cycles", "200",
         "--engine", "batched", "--no-cache"],
        env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_disabled_kernel_names_the_variable():
    summary = _batched_run(REPRO_BATCHED_NO_CC="1")
    assert summary["engine"] == "object"
    assert "REPRO_BATCHED_NO_CC" in summary["engine_fallback"]


@pytest.mark.skipif(
    not (os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
         or shutil.which("clang")),
    reason="no C compiler to build the batched kernel")
def test_truncated_cached_kernel_is_rebuilt(tmp_path):
    cache = str(tmp_path)
    assert _batched_run(REPRO_BATCHED_CACHE=cache)["engine"] == "batched"
    (so,) = glob.glob(os.path.join(cache, "kernel-*.so"))
    with open(so, "r+b") as fh:
        fh.truncate(100)
    summary = _batched_run(REPRO_BATCHED_CACHE=cache)
    assert summary["engine"] == "batched"
    assert "engine_fallback" not in summary
    assert os.path.getsize(so) > 100


def test_direct_construction_raises_the_fallback_reason():
    """``BatchedNetwork`` applies ``batched_fallback_reason``'s rules,
    in its order, before building anything: a non-stock arbiter is a
    ``ValueError`` even without a kernel; a missing kernel alone is a
    ``RuntimeError`` naming its cause."""
    code = (
        "from repro.routing import make_algorithm\n"
        "from repro.sim import Mesh2D\n"
        "from repro.sim.batched import BatchedNetwork\n"
        "for kw in ({'arbiter': 'oldest_first'}, {}):\n"
        "    try:\n"
        "        BatchedNetwork(Mesh2D(3, 3), make_algorithm('xy'), **kw)\n"
        "    except (RuntimeError, ValueError) as e:\n"
        "        print(type(e).__name__, e)\n")
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_BATCHED_NO_CC", "REPRO_BATCHED_CACHE")}
    env.update(PYTHONPATH=str(SRC), REPRO_BATCHED_NO_CC="1")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True,
                         check=True).stdout.splitlines()
    assert len(out) == 2, out
    assert out[0].startswith("ValueError") and "arbiter" in out[0]
    assert out[1].startswith("RuntimeError")
    assert "REPRO_BATCHED_NO_CC" in out[1] and "build_network()" in out[1]
