"""Probe-and-certify builder of derived routing tables.

Every derived table in this repository is read off the *live*
algorithm under a given fault set, never hand-written:

* the batched engine's clean table (:mod:`repro.routing.clean_table`)
  is the **empty** fault set case — fault-free decisions collapse onto
  a 54-key sign geometry;
* the **backup next-hop subbase** of link ``(a, b)`` is the
  ``{(a, b)}`` case — the candidate outputs a fresh injection at an
  endpoint would legally take *if that one link were already dead*,
  precomputed before any failure so a detecting node can reroute
  locally the moment its heartbeat confirms the fault, with no
  flooding round-trip (the DBR-style split of fast local recovery over
  slow global convergence; see :mod:`repro.routing.backup`).

One discipline builds both:

* **probe**: :func:`probe` runs ``route()`` once from a header with
  given fields at a given (router, destination, in-port, VC) and
  returns the decision plus its header-field writes (updown commits
  its move map through ``header.fields``);
* **admit**: each table keeps only the outcomes its consumer can
  replay — its own admission filter;
* **agree**: :func:`agreed` stores an entry only when every probe
  point agrees and a repeat probe reproduces it, so a nondeterministic
  decision is disqualified, never stored;
* **certify**: for a deterministic sample of ``CERTIFY_SAMPLE``
  protected links the shadow configuration's channel dependency graph
  (:func:`repro.analysis.deadlock.build_cdg`) must be acyclic — the
  backup entries *are* that configuration's routing relation at the
  injection state, so an acyclic CDG certifies them (:func:`certify`
  checks any one link);
* **cache**: :func:`cached` puts an in-process memo in front of a
  content-addressed JSON file under the batched kernel's cache
  directory, keyed by the code-version token, the algorithm's identity
  and the topology, so campaigns, sweep workers and CI runs with a
  seeded cache skip the probe pass.

Backup entries are additionally **scoped**: an entry is emitted only
for destinations whose *fault-free* primary decision at that node uses
the protected link — other destinations never need the backup (classic
LFA coverage).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from contextlib import closing, contextmanager, suppress
from dataclasses import dataclass, field

from ...sim.flit import Header
from ...sim.router import LOCAL
from ...sim.topology import link_key

#: bump to invalidate persisted tables on format changes
_FORMAT = 1

#: protected links per backup table whose shadow configuration is
#: CDG-certified (deterministic, evenly spread).  Certifying every link
#: costs about 20-25x the whole build on an 8x8 mesh (nafta: 30 s
#: against 1.2 s).
CERTIFY_SAMPLE = 4

#: field-write value of a header field ``route()`` deleted
_DELETED = object()

#: field-write value types (besides finite floats) that the table's
#: JSON round trip returns unchanged
_JSON_SCALARS = frozenset({int, bool, str, type(None)})


# -- probe, agree, certify ---------------------------------------------


def probe(algorithm, router, dst: int, fields: dict, in_port: int,
          in_vc: int):
    """One ``route()`` call on a fresh header carrying ``fields``:
    ``(deliver, steps, hint, candidates, stored, field_writes)``, or
    None when the algorithm declares ``dst`` unroutable.  ``stored``
    is what an engine honouring the hint keeps
    (:attr:`~repro.routing.base.RouteDecision.stored`).
    ``field_writes`` maps each header field the call added or changed
    to its new value (and each one it deleted to a private marker)."""
    header = Header(msg_id=-1, src=router.node, dst=dst, length=2,
                    created=0, fields=dict(fields))
    dec = algorithm.route(router, header, in_port, in_vc)
    if dec.stuck:
        return None
    after = header.fields
    writes = {k: v for k, v in after.items()
              if fields.get(k, _DELETED) != v}
    writes.update((k, _DELETED) for k in fields if k not in after)
    cands = _pairs(dec.candidates)
    stored = cands if dec.stored is dec.candidates else _pairs(dec.stored)
    return (int(dec.deliver), int(dec.steps), int(dec.refresh_hint),
            cands, stored, writes)


def _pairs(cands) -> tuple:
    return tuple((int(p), int(v)) for p, v in cands)


def agreed(algorithm, points, admit):
    """The admitted outcome every probe point agrees on, else None.

    ``points`` are ``(router, dst, fields, in_port, in_vc)`` tuples;
    ``admit(outcome, fields)`` maps a :func:`probe` outcome to the
    table's stored form, or None when the table cannot replay it.  The
    first point is probed once more at the end: the same probe twice
    must agree."""
    outcome = None
    for router, dst, fields, in_port, in_vc in points:
        got = admit(probe(algorithm, router, dst, fields, in_port, in_vc),
                    fields)
        if got is None or (outcome is not None and got != outcome):
            return None
        outcome = got
    if outcome is None:
        return None
    router, dst, fields, in_port, in_vc = points[0]
    if admit(probe(algorithm, router, dst, fields, in_port, in_vc),
             fields) != outcome:
        return None
    return outcome


def each_faulted(net, links):
    """Yield each of ``links`` in turn, failed in ``net`` with its
    algorithm's fault knowledge converged; afterwards every link is
    repaired and the knowledge converged once more.  ``known_faults``
    aliases ``faults`` on a network without detection delay, so this is
    exactly the state the live network reaches on the slow path.

    A repair is not followed by a recompute of its own: every
    fault-tolerant algorithm rebuilds its knowledge from
    ``known_faults`` alone, so the next failure's recompute starts from
    the repaired fault set just as it would after one."""
    try:
        for link in links:
            net.faults.fail_link(*link)
            try:
                net.algorithm.on_fault_update(net)
                yield link
            finally:
                net.faults.repair_link(*link)
    finally:
        net.algorithm.on_fault_update(net)


@contextmanager
def faulted(net, link):
    """``net`` with ``link`` failed and its algorithm's fault knowledge
    converged, restored on exit: :func:`each_faulted` of one link."""
    with closing(each_faulted(net, [link])) as links:
        yield next(links)


def certify(net, link) -> None:
    """Deadlock certification of one protected link's shadow
    configuration: the backup entries are this configuration's routing
    relation at the injection state, so its CDG must be acyclic."""
    with faulted(net, link):
        _certify_faulted(net, link)


def _certify_faulted(net, link) -> None:
    """:func:`certify` on ``net`` with ``link`` already failed."""
    from ...analysis.deadlock import build_cdg
    result = build_cdg(net)
    if not result.acyclic:
        raise RuntimeError(
            f"{net.algorithm.name}: backup configuration for dead link "
            f"{link} has a cyclic channel dependency graph: "
            f"{result.cycle}")


# -- cache --------------------------------------------------------------

#: in-process memo in front of the JSON files, keyed by file path:
#: campaigns build hundreds of networks over one (algorithm,
#: topology) pair and must not re-read the file every time
_MEMO: dict = {}


def cached(kind: str, algorithm, topology, build, decode):
    """The ``kind`` table of (algorithm, topology): from the in-process
    memo, else from its content-addressed JSON file, else ``build()``
    (written back atomically; an unreadable file is rebuilt).  The key
    covers the code-version token, the algorithm's identity (name,
    ``n_vcs`` and scalar instance state, which tells apart same-name
    algorithms parameterized differently: updown roots, nafta
    livelock factors) and ``topology.describe()``."""
    # lazy imports: pool pulls in the experiments package and the
    # kernel module is only needed for its cache-directory convention
    from ...experiments.pool import code_version_token
    from ...sim._batched_kernel import _cache_dir
    state = sorted(
        (k, v) for k, v in vars(algorithm).items()
        if isinstance(v, (int, float, str, bool, type(None))))
    key = json.dumps([code_version_token(), algorithm.name,
                      algorithm.n_vcs, state, topology.describe()],
                     sort_keys=True)
    digest = hashlib.sha256(key.encode()).hexdigest()[:20]
    path = os.path.join(_cache_dir(), "tables", f"{kind}-{digest}.json")
    table = _MEMO.get(path)
    if table is not None:
        return table
    try:
        with open(path, encoding="utf-8") as f:
            table = decode(json.load(f))
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        pass
    if table is None:
        table = build()
        try:
            # key order kept: replayed field writes keep the order the
            # algorithm made them in
            _write_json(path, table.to_dict())
        except OSError:
            pass        # cache dir not writable: the table still stands
    _MEMO[path] = table
    return table


def _write_json(path: str, data) -> None:
    """Write ``data`` to ``path`` through a temporary file and an atomic
    rename (safe for concurrent builders); on any failure the temporary
    file is removed and the error re-raised."""
    # one dumps call runs the C encoder; json.dump streams in Python
    text = json.dumps(data)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


# -- backup tables ------------------------------------------------------


@dataclass
class BackupTable:
    """Per-node backup next-hop entries, keyed by the protected link.

    ``entries[(a, b)][node][dst]`` is ``(candidates, fields)``: the
    ``(port, vc)`` list a fresh injection at ``node`` (one of the
    link's endpoints) may take toward ``dst`` while link ``(a, b)`` is
    down, plus the header-field writes the live algorithm made when it
    produced that decision (replayed verbatim on activation so
    ``on_depart`` bookkeeping — e.g. updown's phase commit — stays
    exactly what the algorithm would have done itself).
    """

    entries: dict = field(default_factory=dict)
    #: protected links whose shadow CDG was extracted and found acyclic
    verified_links: list = field(default_factory=list)

    def lookup(self, node: int, link: tuple[int, int],
               dst: int) -> tuple | None:
        per_link = self.entries.get(link_key(*link))
        if not per_link:
            return None
        per_node = per_link.get(node)
        if not per_node:
            return None
        return per_node.get(dst)

    def n_entries(self) -> int:
        return sum(len(per_node)
                   for per_link in self.entries.values()
                   for per_node in per_link.values())

    def to_dict(self) -> dict:
        return {
            "format": _FORMAT,
            "verified_links": [list(lk) for lk in self.verified_links],
            "entries": {
                f"{a},{b}": {
                    str(node): {
                        str(dst): {"c": [list(c) for c in cands],
                                   "f": _encode_fields(fields)}
                        for dst, (cands, fields) in per_node.items()}
                    for node, per_node in per_link.items()}
                for (a, b), per_link in self.entries.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BackupTable":
        if d.get("format") != _FORMAT:
            raise ValueError("backup-table format mismatch")
        t = cls()
        t.verified_links = [tuple(int(x) for x in lk)
                            for lk in d.get("verified_links", [])]
        for link_s, per_link in d["entries"].items():
            a, b = link_s.split(",")
            t.entries[link_key(int(a), int(b))] = {
                int(node): {
                    int(dst): (tuple((int(p), int(v))
                                     for p, v in e["c"]),
                               _decode_fields(e["f"]))
                    for dst, e in per_node.items()}
                for node, per_node in per_link.items()}
        return t


def _encode_fields(fields: dict):
    """JSON-safe encoding of a header-field delta.  JSON turns dict
    keys into strings, but algorithm fields key sub-maps by *port id*
    (updown's move map), so dicts become tagged pair lists."""
    def enc(v):
        if isinstance(v, dict):
            return {"__d__": [[k, enc(x)] for k, x in v.items()]}
        if isinstance(v, (list, tuple)):
            return [enc(x) for x in v]
        return v
    return {k: enc(v) for k, v in fields.items()}


def _decode_fields(encoded) -> dict:
    def dec(v):
        if isinstance(v, dict):
            return {k: dec(x) for k, x in v["__d__"]}
        if isinstance(v, list):
            return [dec(x) for x in v]
        return v
    return {k: dec(v) for k, v in encoded.items()}


def _json_scalar(v) -> bool:
    """An int, bool, None, string or finite float."""
    if type(v) is float:
        return math.isfinite(v)
    return type(v) in _JSON_SCALARS


def _json_identity(writes: dict) -> bool:
    """True when the table's JSON round trip returns ``writes``
    unchanged without running it: string keys, and values that are
    JSON scalars (ints, bools, None, strings, finite floats), lists of
    them, or dicts of them keyed by ints or strings (updown's move
    map).  Tuples and nested containers come back changed or are
    left to the round trip."""
    for k, v in writes.items():
        if type(k) is not str:
            return False
        if type(v) in _JSON_SCALARS:
            continue
        if type(v) is list:
            if not all(map(_json_scalar, v)):
                return False
        elif type(v) is dict:
            for key, x in v.items():
                if type(key) not in (int, str) or not _json_scalar(x):
                    return False
        elif not _json_scalar(v):
            return False
    return True


def _admit(outcome, fields):
    """Backup admission: an injection that leaves the node, with field
    writes that survive the table's JSON round trip.  The table
    replays the candidates as they stand, whatever the hint."""
    if outcome is None:
        return None
    deliver, _steps, _hint, cands, _stored, writes = outcome
    if deliver or not cands:
        return None
    if writes and not _json_identity(writes):
        try:
            if _decode_fields(json.loads(json.dumps(
                    _encode_fields(writes)))) != writes:
                return None
        except (TypeError, ValueError):
            return None
    return (cands, writes)


def build_backup_table_for(topology, algorithm) -> BackupTable:
    """Probe-build the backup table of ``algorithm`` over ``topology``.
    The instance is temporarily bound to a shadow network for the probe
    pass; the caller must ``reset()`` it onto its real network
    afterwards (``Network.__init__`` already does, since it resets the
    algorithm as its final construction step)."""
    from ...sim.network import Network
    net = Network(topology, algorithm)
    algo = net.algorithm
    if not getattr(algo, "fault_tolerant", False):
        raise ValueError(
            f"algorithm {algo.name!r} is not fault-tolerant; a backup "
            f"subbase against link faults would route into the fault")
    nodes = list(topology.nodes())
    # fault-free primary decisions: which output ports does a fresh
    # injection at u use toward dst?  Only destinations that lose a
    # primary port to the protected link need a backup entry.
    primary: dict[int, dict[int, frozenset]] = {}
    for u in nodes:
        router = net.routers[u]
        per_dst = {}
        for dst in nodes:
            if dst == u or not algo.accepts(u, dst):
                continue
            got = _admit(probe(algo, router, dst, {}, LOCAL, 0), {})
            if got is not None:
                per_dst[dst] = frozenset(p for p, _ in got[0])
        primary[u] = per_dst

    table = BackupTable()
    links = sorted(topology.links())
    stride = max(1, len(links) // CERTIFY_SAMPLE)
    sampled = set(links[::stride][:CERTIFY_SAMPLE])
    with closing(each_faulted(net, links)) as failed:
        for link in failed:
            per_link = _probe_link(net, link, primary)
            if link in sampled:
                _certify_faulted(net, link)
                table.verified_links.append(link)
            if per_link:
                table.entries[link] = per_link
    return table


def _probe_link(net, link, primary) -> dict:
    """Entries for one protected link (already failed in ``net``):
    probe both endpoints and keep destinations whose primary routing
    used it."""
    algo = net.algorithm
    a, b = link
    per_link: dict[int, dict] = {}
    for u, far in ((a, b), (b, a)):
        lost_port = next(
            (pid for pid, p in net.topology.ports(u).items()
             if p.neighbor == far), None)
        if lost_port is None:  # pragma: no cover - defensive
            continue
        router = net.routers[u]
        per_node: dict[int, tuple] = {}
        for dst, ports in primary[u].items():
            if lost_port not in ports:
                continue        # primary survives; no backup needed
            if not algo.accepts(u, dst):
                continue        # faulted config refuses the pair
            got = agreed(algo, [(router, dst, {}, LOCAL, 0)], _admit)
            if got is None:
                continue        # unusable or not reproducible
            if any(p == lost_port for p, _ in got[0]):
                # the live algorithm routed into the fault it was
                # told about: an algorithm bug, never a legal entry
                raise RuntimeError(
                    f"{algo.name}: faulted-config route at node {u} "
                    f"for dst {dst} uses the dead port {lost_port}")
            per_node[dst] = got
        if per_node:
            per_link[u] = per_node
    return per_link


def load_or_build(algorithm, topology) -> BackupTable:
    """The backup table of (algorithm, topology), via :func:`cached`."""
    return cached("bk", algorithm, topology,
                  lambda: build_backup_table_for(topology, algorithm),
                  BackupTable.from_dict)
