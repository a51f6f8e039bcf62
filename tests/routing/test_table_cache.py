"""The derived-table cache under a degraded environment.

Clean tables (:mod:`repro.routing.clean_table`) and backup tables
(:mod:`repro.core.compiler.backup`) share one cache: an in-process
memo in front of a content-addressed JSON file.  A corrupt file must
cost a rebuild, never a wrong table, and leave a readable file behind;
a repeat call in the same process must touch neither the probes nor
the file.
"""

import errno
import hashlib
import io
import json
import os

import pytest

import repro.core.compiler.backup as builder
from repro.core.compiler.backup import BackupTable
from repro.routing import clean_table
from repro.routing.clean_table import CleanTable
from repro.routing.registry import make_algorithm
from repro.sim import Mesh2D, Network


def _digest(table) -> str:
    return hashlib.sha256(json.dumps(
        table.to_dict(), sort_keys=True).encode()).hexdigest()[:16]


def _clean():
    topo, algo = Mesh2D(8, 8), make_algorithm("nafta")
    Network(topo, algo)
    return (clean_table.load_or_build, algo, topo, CleanTable,
            lambda: clean_table.build_clean_table(algo, topo))


def _backup():
    topo, algo = Mesh2D(4, 4), make_algorithm("updown")
    return (builder.load_or_build, algo, topo, BackupTable,
            lambda: builder.build_backup_table_for(topo, algo))


@pytest.mark.parametrize("make", [_clean, _backup], ids=["clean", "backup"])
def test_truncated_file_is_rebuilt_then_memoized(make, tmp_path,
                                                 monkeypatch):
    load, algo, topo, cls, fresh = make()
    want = _digest(fresh())

    # a first process-equivalent run leaves the file behind
    monkeypatch.setenv("REPRO_BATCHED_CACHE", str(tmp_path / "a"))
    load(algo, topo)
    (path,) = (tmp_path / "a" / "tables").iterdir()

    # the same file, truncated, in a cache the memo has not seen
    tables = tmp_path / "b" / "tables"
    tables.mkdir(parents=True)
    corrupt = tables / path.name
    corrupt.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    monkeypatch.setenv("REPRO_BATCHED_CACHE", str(tmp_path / "b"))
    table = load(algo, topo)
    assert _digest(table) == want
    with open(corrupt, encoding="utf-8") as f:
        assert _digest(cls.from_dict(json.load(f))) == want

    # a second call neither probes nor opens the file
    def refuse(*args, **kwargs):
        raise AssertionError("cache hit must not probe or read")
    monkeypatch.setattr(builder, "probe", refuse)
    monkeypatch.setattr(builder, "open", refuse, raising=False)
    assert load(algo, topo) is table


class _FullDisk(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


def _full_disk_fdopen(fd, *args, **kwargs):
    os.close(fd)
    return _FullDisk()


def _refuse_replace(src, dst):
    raise OSError(errno.EACCES, "Permission denied")


@pytest.mark.parametrize("make", [_clean, _backup], ids=["clean", "backup"])
@pytest.mark.parametrize("failing", [("fdopen", _full_disk_fdopen),
                                     ("replace", _refuse_replace)],
                         ids=["write", "replace"])
def test_failed_cache_write_returns_table_and_leaves_no_temp_file(
        make, failing, tmp_path, monkeypatch):
    load, algo, topo, _cls, fresh = make()
    want = _digest(fresh())
    monkeypatch.setenv("REPRO_BATCHED_CACHE", str(tmp_path))
    monkeypatch.setattr(builder.os, *failing)
    assert _digest(load(algo, topo)) == want
    assert list((tmp_path / "tables").iterdir()) == []
