"""Messages, flits and headers for wormhole switching.

"Every message in the network is divided into flits (flow control
units) transmitted in a pipelined fashion" (paper Section 2.2).  The
head flit carries the routing header; body and tail flits follow the
path the head reserved; the tail releases the virtual channels.

The header carries algorithm-specific fields in ``fields`` — the paper
discusses exactly this need: marking messages misrouted due to faults
and maintaining a path-length counter "is best done in the header"
(Section 3, Lifelock Avoidance).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import IntEnum
from itertools import repeat
from types import SimpleNamespace

import numpy as np

from ._batched_kernel import (ARRAYS, DIMS, FIELD_ABSENT, FIELD_NONE,
                              column, grow)


class FlitKind(IntEnum):
    HEAD = 0
    BODY = 1
    TAIL = 2
    HEAD_TAIL = 3   # single-flit message


@dataclass
class Header:
    """Routing header carried by the head flit."""

    msg_id: int
    src: int
    dst: int
    length: int                      # flits including head and tail
    created: int                     # cycle of creation at the source
    fields: dict = field(default_factory=dict)

    # Common optional fields read/written by fault-tolerant algorithms:
    #   "misrouted": bool      — set when a detour was taken due to faults
    #   "path_len": int        — hops so far (livelock guard)
    #   "phase": str/int       — multi-phase schemes (ROUTE_C asc/desc)

    def mark_misrouted(self) -> None:
        self.fields["misrouted"] = True

    @property
    def misrouted(self) -> bool:
        return bool(self.fields.get("misrouted", False))

    @property
    def path_len(self) -> int:
        return int(self.fields.get("path_len", 0))

    def bump_path_len(self) -> None:
        self.fields["path_len"] = self.path_len + 1


@dataclass
class Flit:
    kind: FlitKind
    msg_id: int
    seq: int
    header: Header | None = None     # present on HEAD / HEAD_TAIL
    # precomputed at construction: the router checks these per flit per
    # hop, so a plain attribute beats re-deriving them from ``kind``
    is_head: bool = field(init=False)
    is_tail: bool = field(init=False)

    def __post_init__(self):
        self.is_head = self.kind in (FlitKind.HEAD, FlitKind.HEAD_TAIL)
        self.is_tail = self.kind in (FlitKind.TAIL, FlitKind.HEAD_TAIL)


# -- the message ledger ---------------------------------------------------

#: msg_flags bits (the kernel's M_*): Python holds the header (on the
#: batched engine its delivery then replays through ``eject``),
#: dropped, a retransmission, and delivered with the misrouted mark
M_HELD, M_DROPPED, M_RETRY, M_MISROUTED = 1, 2, 4, 8

#: the ledger's columns: the ``msgs`` rows of the kernel's ARRAYS
LEDGER_ROWS = tuple(row for row in ARRAYS if row[2][0] == "msgs")
#: the columns only the kernel reads: the live length of its tail test,
#: the native field mirrors and the source-FIFO link
KERNEL_COLUMNS = ("msg_len", "msg_f", "msg_next")


def encoded(f: dict, names) -> list[int]:
    """The int32 mirror encoding of the header fields ``f`` named by
    ``names`` (see :attr:`~repro.routing.base.NativeContract.fields`):
    absent is FIELD_ABSENT, None is FIELD_NONE, bools and ints are
    ints."""
    return [FIELD_NONE if v is None else int(v)
            for v in map(f.get, names, repeat(FIELD_ABSENT))]


def load_fields(f: dict, names, vals, plen: int) -> None:
    """Header fields ``f`` <- the mirrored values ``vals`` of the
    native fields ``names`` and the path length ``plen``."""
    for name, v in zip(names, vals):
        if v == FIELD_ABSENT:
            f.pop(name, None)
        elif v == FIELD_NONE:
            f[name] = None
        else:
            f[name] = v
    if plen or "path_len" in f:
        f["path_len"] = plen


class Ledger:
    """Both engines' message store: one row per message id in growable
    columns, the ``msgs`` rows of the kernel's ARRAYS, attributes of the
    same names.  ``cs.n_msgs`` counts the rows in use.  On the batched
    engine ``cs`` is the kernel's state, which admits, queues, injects
    and delivers messages on these columns; on the object engine it is
    a plain counter, Python writes the rows, and the columns only the
    kernel reads (:data:`KERNEL_COLUMNS`) are left out.  The ledger holds
    no reference to the network, so the message views and the statistics'
    reduction outlive the network without a cycle."""

    def __init__(self, cs=None, nf=(), dims: dict | None = None):
        self.cs = SimpleNamespace(n_msgs=0) if cs is None else cs
        #: the native header fields mirrored in ``msg_f`` (batched)
        self.nf = nf
        #: the sizes of the ARRAYS dimensions, "msgs" (the rows, first
        #: 4,096) among them
        self.dims = dict(DIMS) if dims is None else dims
        self.dims.setdefault("msgs", 4096)
        #: the columns held: without a kernel, not its KERNEL_COLUMNS
        self.rows = LEDGER_ROWS if cs is not None else tuple(
            row for row in LEDGER_ROWS if row[0] not in KERNEL_COLUMNS)
        for row in self.rows:
            setattr(self, row[0], column(row, self.dims))

    def room(self, n: int) -> list:
        """Room for ``n`` more rows, at least doubling them when full.
        Returns the rows of the columns replaced, which a kernel sharing
        them must be pointed at again."""
        return grow(self.dims, "msgs", self.cs.n_msgs + n,
                    lambda row: (self, row[0]), self.rows)

    def add(self, src: int, dst: int, length: int, born: int) -> int:
        """A new row, as the kernel's ``k_admit`` writes one: created
        ``born``, neither injected nor delivered.  Returns its id."""
        cs = self.cs
        mid = cs.n_msgs
        if mid == self.dims["msgs"]:
            self.room(1)
        cs.n_msgs = mid + 1
        self.msg_src[mid] = src
        self.msg_dst[mid] = dst
        self.msg_size[mid] = length
        self.msg_born[mid] = born
        return mid

    def undelivered_ids(self) -> np.ndarray:
        """The ids of the messages neither delivered nor dropped."""
        n = self.cs.n_msgs
        return np.flatnonzero((self.msg_dlv[:n] < 0)
                              & ((self.msg_flags[:n] & M_DROPPED) == 0))


def _cycle_column(name: str) -> property:
    """A message attribute stored in ledger column ``name`` (-1 =
    None)."""
    def get(self):
        v = int(getattr(self._lg, name)[self.header.msg_id])
        return None if v < 0 else v

    def put(self, v):
        getattr(self._lg, name)[self.header.msg_id] = -1 if v is None else v
    return property(get, put)


class Message:
    """A message: a ledger row seen through its header.  The header is
    a Python object, which routing reads and writes; the injected,
    delivered and dropped stamps and the hop count are the ledger's
    columns."""

    __slots__ = ("_lg", "header")

    #: cycle the head entered the network (None: not yet)
    injected = _cycle_column("msg_inj")
    #: cycle the tail was ejected (None: not yet)
    delivered = _cycle_column("msg_dlv")

    def __init__(self, ledger: Ledger, header: Header):
        self._lg = ledger
        self.header = header

    @property
    def hops(self) -> int:
        """Links the head crossed, ejection included, once delivered;
        0 before."""
        lg, mid = self._lg, self.header.msg_id
        return int(lg.msg_plen[mid]) if lg.msg_dlv[mid] >= 0 else 0

    @property
    def dropped(self) -> bool:
        return bool(self._lg.msg_flags[self.header.msg_id] & M_DROPPED)

    @dropped.setter
    def dropped(self, v: bool) -> None:
        flags, mid = self._lg.msg_flags, self.header.msg_id
        bits = int(flags[mid])
        flags[mid] = (bits | M_DROPPED) if v else (bits & ~M_DROPPED)

    def deliver(self, cycle: int) -> None:
        """Stamp the delivery from the header: the cycle, the hop count
        (its path length) and the misrouted mark.  The batched kernel
        stamps the messages it delivers itself the same way."""
        lg, hdr = self._lg, self.header
        mid = hdr.msg_id
        lg.msg_dlv[mid] = cycle
        lg.msg_plen[mid] = hdr.path_len
        if hdr.misrouted:
            lg.msg_flags[mid] |= M_MISROUTED

    def flits(self) -> list[Flit]:
        """Materialize the worm."""
        h = self.header
        if h.length == 1:
            return [Flit(FlitKind.HEAD_TAIL, h.msg_id, 0, header=h)]
        out = [Flit(FlitKind.HEAD, h.msg_id, 0, header=h)]
        out.extend(Flit(FlitKind.BODY, h.msg_id, i)
                   for i in range(1, h.length - 1))
        out.append(Flit(FlitKind.TAIL, h.msg_id, h.length - 1))
        return out

    @property
    def latency(self) -> int | None:
        """Creation-to-delivery latency (includes source queueing)."""
        if self.delivered is None:
            return None
        return self.delivered - self.header.created

    @property
    def network_latency(self) -> int | None:
        """Injection-to-delivery latency."""
        if self.delivered is None or self.injected is None:
            return None
        return self.delivered - self.injected


class Messages(Mapping):
    """``Network.messages``: every admitted message by id, over the
    network's ledger.  A message's view is built on first access, or
    at its admission from Python, and held from then on; on the batched
    engine that hands its header to Python for good, so its delivery
    then replays through ``eject``."""

    def __init__(self, ledger: Ledger):
        self._lg = ledger
        #: the views built so far, by message id
        self.held: dict[int, Message] = {}

    def __len__(self) -> int:
        return self._lg.cs.n_msgs

    def __iter__(self):
        return iter(range(self._lg.cs.n_msgs))

    def __contains__(self, mid) -> bool:
        return 0 <= mid < self._lg.cs.n_msgs

    def __getitem__(self, mid: int) -> Message:
        view = self.held.get(mid)
        if view is None:
            if not 0 <= mid < self._lg.cs.n_msgs:
                raise KeyError(mid)
            view = self.hold(mid)
        return view

    def hold(self, mid: int, fields: dict | None = None) -> Message:
        """Build message ``mid``'s view.  A Python admission passes its
        header ``fields``, which set the root id, retransmission flag
        and path-length columns; otherwise they are decoded from the
        field mirrors, path length included."""
        lg = self._lg
        if fields is None:
            fields = {}
            load_fields(fields, lg.nf,
                        lg.msg_f[mid].tolist() if lg.nf else (),
                        int(lg.msg_plen[mid]))
        else:
            fields = dict(fields)
            lg.msg_root[mid] = fields.get("root_id", mid)
            if "retry_of" in fields:
                lg.msg_flags[mid] |= M_RETRY
            lg.msg_plen[mid] = fields.get("path_len", 0)
        header = Header(mid, int(lg.msg_src[mid]), int(lg.msg_dst[mid]),
                        int(lg.msg_size[mid]), int(lg.msg_born[mid]),
                        fields)
        lg.msg_flags[mid] |= M_HELD
        view = self.held[mid] = Message(lg, header)
        return view
