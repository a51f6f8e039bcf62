"""Compiled cycle kernels for the batched engine (:mod:`repro.sim.batched`).

The allocation walk is inherently sequential — a grant frees a
downstream credit that a later-ordered router may consume in the *same*
cycle — so it cannot be a masked argmax over arrays.  Instead the
array state is advanced by a small C kernel doing exactly the object
engine's walk: flush, injection pushes, the route-stage scan
(transitions + load re-sorts), and the allocate/grant/transfer walk
with the stock round-robin pointers.  Each input VC's state is one
record (``iv_t``), so a visit of the walks reads one row.

The kernel also draws one cycle of the ``uniform`` traffic pattern
(``k_uniform_tick``) from the generator's numpy bit generator, through
numpy's public ``bitgen_t`` interface and in ``TrafficGenerator.tick``'s
order, so the offers and the generator's state are unchanged.  It keeps
the message ledger's columns (``msg_*``, indexed by message id): it
screens, numbers, records and queues admissions (``k_admit``), pops the
per-source FIFOs linked through ``msg_next`` (``k_start_scan``), stamps
injections (``k_inject``) and delivers the tails of messages whose
header Python does not hold (``k_alloc``), marking the misrouted ones;
the others are replayed to Python's ``eject``.  The object engine keeps
the same columns without the kernel (:class:`~repro.sim.flit.Ledger`).

Decisions themselves stay in Python (the routing *algorithm* is the
reproduced artifact), but algorithms that declare a native contract
(:class:`~repro.routing.base.NativeContract`) get a C-side decision
cache, the engine's only decision memo: the header fields the
algorithm consults are mirrored in per-message int32 arrays, each
fresh decision is keyed by ``(node, dst slot, in_port, in_vc,
livelock-overflow, field values)`` — by the contract, that covers
everything ``route`` reads — and a hit replays the recorded
decision (field writes, candidate set, re-sort by current loads,
digest line, stats counters) without entering Python at all.  The dst
slot is the exact destination, or, for an algorithm whose contract
sets ``relative_dst``, the destination's class relative to the
deciding node (on the mesh sign dx, sign dy, plus the exact dy when
dx == 0; on the hypercube the dimensions to correct up and down), so
one cached decision serves every congruent destination; destinations
the algorithm reports irregular keep the exact id.  With a relative
dst slot the node slot holds the node's class (``node_class``), so
one entry also serves every node that decides alike.

Only the decisions the cache cannot answer cross into Python (the
first sighting of a key this epoch, epoch-stale and REROUTE-hinted
refreshes, every decision of an algorithm without a contract), one
input VC per crossing: ``k_route_scan`` stops at that VC and records
it in ``xing``, Python runs ``route`` and hands the decision back in
one ``k_commit`` call (decision arrays, field mirrors, digest line,
cache entry), and the resumed scan goes on at the next VC of the same
node.  Stuck heads are collected in C and handed back once, at the
node's end, for purging.

The kernel's state is declared once, in :data:`ARRAYS`: one row per
array (name, C type, shape in named dimensions, fill value, note), a
C type being a scalar or a record of :data:`RECORDS`.  The record
``typedef``s and the ``BState`` struct text are generated from the
rows, each record gets a numpy structured dtype with the same layout
(:func:`dtype`), and the engines allocate (:func:`column`) and grow
(:func:`grow`, :func:`resize`) every array from them, so an array or a
record field is added, resized or regrouped by editing its row.

The kernel is built on demand with the system C compiler (``cc -O3
-shared -fPIC``) and cached by source hash; cffi's ABI mode loads the
shared object.  No third-party build machinery is required.  When the
kernel cannot be had — ``REPRO_BATCHED_NO_CC`` is set, cffi or the
compiler is missing, the compile fails, or the build does not load
even after one rebuild — :func:`load_kernel` returns None,
:func:`unavailable_reason` says which, and the engine factory
transparently falls back to the object engine.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile

import numpy as np

#: number of int32s in a native cache key:
#: node, dst, in_port, in_vc, over, f0..f4
KEYW = 10
#: mirrored native fields per message (key uses up to this many; the
#: most a NativeContract may name)
MAXF = 5
#: encoding of an absent header field in the mirrors
FIELD_ABSENT = -1000000
#: encoding of an explicit None value (distinct from absent)
FIELD_NONE = -999999
#: digest byte-buffer capacity and the per-round reserve that triggers
#: a flush back to Python's sha256 (the reserve bounds one node's worth
#: of lines: <= 64 decisions x ~1.6 KB)
DIG_CAP = 1 << 20
DIG_RESERVE = 1 << 17
#: clean-table geometry: (sign dx + 1) x (sign dy + 1) x vn-code x term
#: keys and the per-entry candidate capacity
CT_KEYS = 54
CT_CANDS = 8
#: k_route_scan's return codes: the route stage is done; the VC in
#: ``xing`` needs a Python decision, returned through k_commit; the
#: node just finished holds stuck heads (``stuck[:n_stuck]``) to purge;
#: the digest buffer needs a flush; a body flit fronts an idle VC
#: (``xing`` names it)
SCAN_DONE, SCAN_ROUTE, SCAN_PURGE, SCAN_FLUSH, SCAN_BODY = 0, 1, 2, -1, -2
#: the crossing record ``xing``: gid, msg, fresh (1) or refresh (0),
#: node, in_port, in_vc, path_len, then the MAXF mirrored field values
#: before the decision
XING_W = 7 + MAXF

#: the value of ``o_port`` / ``o_vc`` while an input VC holds no output
NO_PORT = -100

#: The per input VC record (``iv_t``): everything the route scan and the
#: allocation walk read of one VC on a visit, in one row of at most 64
#: bytes, so a visit touches one or two cache lines instead of one per
#: field.  A field is (name, C type, the value of an unused element,
#: what it holds); port ids are below 64 and a VC index is below the
#: 64-candidate bound, so they fit in a byte with ``NO_PORT``.  Output
#: and input VCs share the (node, port, vc) triples and so the gids:
#: the ``ov_*`` fields are the output VC's.  ``o_dn`` repeats the
#: ``ov_down`` of the output ``o_port``/``o_vc`` name, so a worm's body
#: flits reach their downstream buffer without the output's record.
IV_FIELDS = (
    # what a body flit's visit and grant read
    ("st", "uint8_t", 0, "0 idle 1 routing 2 routed 3 active"),
    ("o_port", "int8_t", NO_PORT, "held output (-1 LOCAL, -100 none)"),
    ("o_vc", "int8_t", NO_PORT, "held output VC"),
    ("iv_port", "int8_t", 0, "port id, -1 for LOCAL"),
    ("iv_vc", "int8_t", 0, "virtual channel"),
    ("inc_val", "uint8_t", 0,
     "1-deep staging slot: the flit waits uncounted in the ring just "
     "past the buffered ones"),
    ("arr_on", "uint8_t", 0, "listed in arr_list"),
    ("iv_bit", "uint8_t", 0, "its bit in its node's occ masks"),
    ("buf_head", "int32_t", 0, "ring front"),
    ("buf_cnt", "int32_t", 0, "buffered flits"),
    ("o_dn", "int32_t", -1, "ov_down of the held output VC, -1 none"),
    ("iv_node", "int32_t", 0, "owning node"),
    # the decision, and the VC as an output
    ("head_msg", "int32_t", -1, "msg id of the routed worm, -1 none"),
    ("ready", "int32_t", 0, "cycle the routing delay ends"),
    ("epoch", "int32_t", 0, "route epoch of the decision"),
    ("ov_owner", "int32_t", -1, "owning input gid or -1"),
    ("ov_down", "int32_t", -1, "downstream input gid or -1"),
    ("ncand", "uint8_t", 0, "candidates"),
    ("hint", "uint8_t", 0, "RouteDecision.refresh_hint"),
    ("deliver", "uint8_t", 0, "the decision delivers here"),
    ("stuckf", "uint8_t", 0, "the decision is stuck"),
)

#: one flit of an input VC's ring (``flit_t``)
FLIT_FIELDS = (
    ("msg", "int32_t", 0, "message id"),
    ("seq", "int32_t", 0, "sequence number"),
)

#: the record types of :data:`ARRAYS`: C type name -> (the prefix of
#: the engine's per-field views, the fields).  The engine sees a record
#: row's field ``f`` as the array ``_<prefix><f>`` (a view of the one
#: structured array), so ``net._st[g]`` reads the record's ``st``.
RECORDS = {
    "iv_t": ("", IV_FIELDS),
    "flit_t": ("buf_", FLIT_FIELDS),
}

#: The kernel's arrays: one row per pointer field of ``BState``, the one
#: statement of the kernel's state.  The struct text below is generated
#: from these rows, and :class:`~repro.sim.batched.BatchedNetwork`
#: allocates, binds and grows every array from them.  A row is (name, C
#: element type, shape, the value of an unused element, what it holds);
#: an element type in :data:`RECORDS` is a record, whose fields carry
#: their own fill values (the row's is None).  A shape names its
#: dimensions:
#:
#: * ``nodes``; ``spans`` = nodes + 1; ``words`` = one bit per node in
#:   uint64 words; ``slots`` = the port slots of a node, LOCAL first
#:   (max_pid + 2);
#: * ``ivs``, the input VCs (= output VCs: the same (node, port, vc)
#:   triples), by gid; ``ring``, the buffer depth; ``cands``, the
#:   candidate and request slots of a node (slots x VCs);
#: * ``events``, the allocation walk's event log (2 ivs + 8);
#: * ``msgs``, the message ledger's rows (by message id) and
#:   ``entries``, the decision cache's entries, each doubled as they
#:   fill; ``buckets``, the cache's hash slots (4 entries);
#: * ``views``, the admission screen's label rows (one per distinct
#:   fault view, reset at every screen sync);
#: * the constants ``KEYW``, ``MAXF``, ``DIG_CAP``, ``CT_KEYS``,
#:   ``CT_CANDS`` and ``XING_W``, or a number.
ARRAYS = (
    # static layout
    ("iv_off", "int32_t", ("spans",), 0, "gid span per node"),
    ("portbase", "int32_t", ("nodes", "slots"), -1, "gid base or -1"),
    # per input VC
    ("iv", "iv_t", ("ivs",), None, "the VC's record"),
    ("buf", "flit_t", ("ivs", "ring"), None, "the flit ring"),
    ("cand_p", "int8_t", ("ivs", "cands"), 0, "candidate ports"),
    ("cand_v", "int8_t", ("ivs", "cands"), 0, "candidate VCs"),
    ("link_cnt", "int64_t", ("ivs",), 0, "flits forwarded per output VC"),
    ("arr_list", "int32_t", ("ivs",), 0,
     "staging slots filled since the last flush, each listed once"),
    # per node
    ("r_nflits", "int32_t", ("nodes",), 0, "buffered flits"),
    ("occ", "uint64_t", ("nodes", 2), 0,
     "one bit per input VC from the node's first: 0 buf_cnt != 0, "
     "1 st == 3"),
    ("node_ok", "uint8_t", ("nodes",), 1, "the node works"),
    ("alive", "uint8_t", ("nodes", "slots"), 0,
     "the port works; slot 0 = LOCAL = 1"),
    ("src_cur", "int32_t", ("nodes",), -1, "injecting msg id or -1"),
    ("src_pos", "int32_t", ("nodes",), 0, "its flits injected"),
    ("src_qlen", "int32_t", ("nodes",), 0, "queued messages"),
    ("src_qhead", "int32_t", ("nodes",), -1, "FIFO front id, -1 empty"),
    ("src_qtail", "int32_t", ("nodes",), -1, "FIFO back id, -1 empty"),
    ("act_list", "int32_t", ("nodes",), 0,
     "active node ids: sorted at cycle start, same-cycle appends at the "
     "tail (processed from the next cycle)"),
    ("act_bits", "uint64_t", ("words",), 0, "act_list membership"),
    ("m_flag", "uint8_t", ("nodes",), 0, "object-engine _active mirror"),
    ("node_x", "int32_t", ("nodes",), 0, "coordinates (clean table, "
     "relative keys)"),
    ("node_y", "int32_t", ("nodes",), 0, "coordinates"),
    ("irreg", "uint8_t", ("nodes",), 0, "destinations keyed exactly"),
    ("node_cls", "int32_t", ("nodes",), 0, "key slot 0 of a relative key"),
    ("armed_end", "uint8_t", ("nodes",), 0, "endpoint of an armed link"),
    # the admission screen, refreshed by Python per fault-knowledge
    # change: each source screens with one component-label row of its
    # fault view and the algorithm's per-node acceptance
    ("adm_view", "int32_t", ("nodes",), 0, "the source's label row"),
    ("adm_lab", "int32_t", ("views", "nodes"), 0,
     "component labels (-1 = dead in that view)"),
    ("adm_ok", "uint8_t", ("nodes",), 0, "RoutingAlgorithm.accepts_node"),
    # the allocation walk: arbiter state and its event log for replay
    # in Python
    ("rr_ptr", "int64_t", ("slots",), 0, "round-robin pointers"),
    ("counters", "int64_t", (4,), 0,
     "0 hops 1 flits ejected outside the event log 2 events 3 messages "
     "delivered in C"),
    ("visits", "int64_t", (2,), 0,
     "occupied input VCs visited, cumulative: 0 by the route scan 1 by "
     "the allocation walk"),
    ("ev_kind", "int32_t", ("events",), 0,
     "0 head-depart 1 tail-eject (a held or misdelivered message)"),
    ("ev_node", "int32_t", ("events",), 0, "node"),
    ("ev_msg", "int32_t", ("events",), 0, "message id"),
    ("ev_a", "int32_t", ("events",), 0, "out_port of a head event"),
    ("ev_b", "int32_t", ("events",), 0, "out_vc of a head event"),
    # the route stage's crossing record and its node's stuck heads
    ("xing", "int32_t", ("XING_W",), 0, "the VC handed to Python"),
    ("stuck", "int32_t", ("cands",), 0, "the node's stuck message ids"),
    # the message ledger: the data path's columns (live length,
    # destination, path length, native field mirrors), then the record
    ("msg_len", "int32_t", ("msgs",), 0, "flits (a heal shortens it)"),
    ("msg_dst", "int32_t", ("msgs",), 0, "destination"),
    ("msg_plen", "int32_t", ("msgs",), 0, "path_len"),
    ("msg_f", "int32_t", ("msgs", "MAXF"), FIELD_ABSENT,
     "encoded native fields"),
    ("msg_src", "int32_t", ("msgs",), 0, "source"),
    ("msg_size", "int32_t", ("msgs",), 0, "flits as admitted"),
    ("msg_born", "int32_t", ("msgs",), 0, "cycle created"),
    ("msg_inj", "int32_t", ("msgs",), -1,
     "cycle the head entered, -1 not yet"),
    ("msg_dlv", "int32_t", ("msgs",), -1, "cycle delivered, -1 not yet"),
    ("msg_root", "int32_t", ("msgs",), 0,
     "root id a retransmission shares"),
    ("msg_next", "int32_t", ("msgs",), -1,
     "next id in its source's FIFO, -1 last"),
    ("msg_flags", "uint8_t", ("msgs",), 0, "M_* bits"),
    # the native decision cache: open addressing over entry rows
    ("term_port", "int32_t", (8,), 0, "vn -> committing out port"),
    ("tab", "int32_t", ("buckets",), -1, "entry index or -1"),
    ("ek", "int32_t", ("entries", "KEYW"), 0, "keys"),
    ("ea", "int32_t", ("entries", "MAXF"), 0, "field values after"),
    ("e_deliver", "uint8_t", ("entries",), 0, "deliver"),
    ("e_steps", "int32_t", ("entries",), 0, "interpretation steps"),
    ("e_hint", "uint8_t", ("entries",), 0, "refresh hint"),
    ("e_ncand", "int32_t", ("entries",), 0, "candidates"),
    ("e_cp", "int8_t", ("entries", "cands"), 0, "candidate ports"),
    ("e_cv", "int8_t", ("entries", "cands"), 0, "candidate VCs"),
    # the decision digest byte stream and the stats accumulators
    ("dig", "uint8_t", ("DIG_CAP",), 0, "digest lines"),
    ("dstat", "int64_t", (4,), 0, "0 decisions 1 steps-sum 2 max 3 lines"),
    # the build-time clean decision table (fault-free relative keys)
    ("ct_valid", "uint8_t", ("CT_KEYS",), 0, "entry filled"),
    ("ct_deliver", "uint8_t", ("CT_KEYS",), 0, "deliver"),
    ("ct_hint", "uint8_t", ("CT_KEYS",), 0, "refresh hint"),
    ("ct_steps", "int32_t", ("CT_KEYS",), 0, "interpretation steps"),
    ("ct_ncand", "int32_t", ("CT_KEYS",), 0, "candidates"),
    ("ct_vn_after", "int32_t", ("CT_KEYS",), FIELD_ABSENT,
     "F_ABSENT = leave the vn field alone"),
    ("ct_cp", "int8_t", ("CT_KEYS", "CT_CANDS"), 0, "candidate ports"),
    ("ct_cv", "int8_t", ("CT_KEYS", "CT_CANDS"), 0, "candidate VCs"),
)

#: the constant dimensions of :data:`ARRAYS`
DIMS = {"KEYW": KEYW, "MAXF": MAXF, "DIG_CAP": DIG_CAP, "CT_KEYS": CT_KEYS,
        "CT_CANDS": CT_CANDS, "XING_W": XING_W}


def dtype(ctype: str) -> np.dtype:
    """The numpy element type of the C type ``ctype``; for a
    :data:`RECORDS` type a structured dtype laid out as the C compiler
    lays out its ``typedef`` (fields in order, natural alignment)."""
    if ctype not in RECORDS:
        return np.dtype(ctype[:-2])
    return np.dtype([(name, t[:-2]) for name, t, _, _ in RECORDS[ctype][1]],
                    align=True)


def column(row, dims: dict) -> np.ndarray:
    """A new array for ``row`` (an :data:`ARRAYS` row) at the sizes
    ``dims`` gives its named dimensions, every element the row's
    fill value (a record's fields, their own)."""
    _, ctype, shape, fill, _ = row
    # zeros leaves a large array's pages untouched until used
    arr = np.zeros([dims.get(d, d) for d in shape], dtype=dtype(ctype))
    if ctype in RECORDS:
        for name, _, value, _ in RECORDS[ctype][1]:
            if value:
                arr[name] = value
    elif fill:
        arr.fill(fill)
    return arr


def resize(dims: dict, dim: str, n: int, home, rows=ARRAYS) -> list:
    """Give every array of ``rows`` whose first dimension is ``dim``
    ``n`` rows, keeping its leading rows: the new array replaces the old
    at ``home(row)``, an (object, attribute) pair.  ``dims[dim]``
    becomes ``n``.  Returns the rows replaced, for a caller whose kernel
    must be pointed at the new arrays."""
    dims[dim] = n
    rows = [row for row in rows if row[2][0] == dim]
    for row in rows:
        where = home(row)
        old = getattr(*where)
        new = column(row, dims)
        new[:min(n, len(old))] = old[:n]
        setattr(*where, new)
    return rows


def grow(dims: dict, dim: str, need: int, home, rows=ARRAYS) -> list:
    """Room for ``need`` rows of ``dim``: when there are fewer,
    :func:`resize` to at least double.  Returns the rows replaced (none
    when there was room)."""
    have = dims[dim]
    if need <= have:
        return []
    return resize(dims, dim, max(need, 2 * have), home, rows)


def _fields(fields) -> str:
    return "".join(f"    {f'{ctype} {name};':<26}/* {note} */\n"
                   for name, ctype, _, note in fields)


#: struct layout shared between the cffi cdef and the C source: the
#: :data:`RECORDS` types, then the state: the scalars and one pointer
#: per :data:`ARRAYS` row.  Every pointer aliases a numpy array owned
#: by the Python-side state; the kernel never allocates.
_STRUCT = "".join("typedef struct {\n" + _fields(fields) + f"}} {ctype};\n"
                  for ctype, (_, fields) in RECORDS.items()) + """
typedef struct {
    int32_t n_nodes, n_iv, cap, n_vcs, max_pid, maxc;
    /* native decision cache configuration */
    int32_t n_native;         /* mirrored fields (0 = cache disabled)  */
    int32_t cps;              /* SimConfig.cycles_per_step             */
    int32_t hop_budget;       /* network livelock guard (0 = off)      */
    int32_t limit;            /* algorithm livelock limit for the key's
                                 'over' flag (INT32_MAX = never)       */
    int32_t dig_on;           /* digest attached: format lines in C    */
    int32_t trace_on;         /* log head-departure events for replay  */
    int32_t term_on;          /* departure rule: term := out==term[vn] */
    int32_t term_f, vn_f;     /* field indices for the departure rule  */
    int32_t bump_on;          /* departure rule: pop flag, cnt += flag */
    int32_t bump_f, cnt_f;    /* field indices for the bump rule       */
    int32_t pin;              /* re-sort keeps this many leading cands */
    int32_t load_cap;         /* re-sort compares loads clamped here   */
    int32_t key_port, key_vc; /* include in_port / in_vc in the key
                                 (algorithms that never consult them
                                 declare it, shrinking the key space) */
    int32_t tab_mask;         /* hash slots - 1                        */
    int32_t n_ent, ent_cap;   /* cache entries used / capacity         */
    int32_t dig_used, dig_cap;
    int32_t adaptive;         /* RoutingAlgorithm.adaptive             */
    /* active-set scheduling */
    int32_t n_act;            /* live entries in act_list              */
    int32_t n_arr;            /* live entries in arr_list              */
    /* the route stage in progress (k_route_scan / k_commit) */
    int32_t scan_ai;          /* resume cursor: active-list index ...  */
    int32_t scan_g;           /* ... and next gid (-1: node's start)   */
    int32_t cur_cycle, cur_epoch;
    int32_t n_stuck;          /* heads in stuck, purged at node end    */
    /* metrics bookkeeping (array-native MetricsTimeseries gauges) */
    int32_t m_on;             /* a timeseries is attached              */
    int32_t m_count;          /* |_active| mirror for the gauge        */
    /* build-time clean decision table (fault-free relative-key form) */
    int32_t ct_on;            /* table lookups live this epoch         */
    int32_t ct_vnf, ct_termf; /* native slots of vn / term (-1: none)  */
    /* relative-destination keys (NativeContract.relative_dst) */
    int32_t rel_on;           /* 0 exact, 1 mesh class, 2 cube (up,down) */
    /* the message ledger */
    int32_t n_msgs;           /* ids allocated: the network's counter  */
    int32_t now;              /* the cycle in progress                 */
    int32_t mis_f;            /* native slot of misrouted (-1: none)   */
""" + "".join(f"    {f'{ctype} *{name};':<26}/* "
              f"{' x '.join(map(str, shape))}: {note} */\n"
              for name, ctype, shape, _, note in ARRAYS) + """} BState;
"""

#: numpy's public bit-generator interface (numpy/random/bitgen.h), the
#: struct ``BitGenerator.ctypes.bit_generator`` points to
_BITGEN = """
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;
"""

_CDEF = """
typedef signed char int8_t;
typedef unsigned char uint8_t;
typedef int int32_t;
typedef unsigned int uint32_t;
typedef long long int64_t;
typedef unsigned long long uint64_t;
""" + _STRUCT + _BITGEN + """
int  k_uniform_tick(bitgen_t *bg, int n, double p, int32_t *src,
                    int32_t *dst);
void k_flush(BState *s);
int  k_start_scan(BState *s, int32_t *out_nodes);
int  k_inject(BState *s, int32_t *out_heads);
int  k_route_scan(BState *s, int cycle, int epoch, int resume);
int  k_commit(BState *s, int deliver, int stuck, int hint, int steps,
              int n, int32_t *cands, int32_t *fields);
void k_resort(BState *s, int g);
void k_port_loads(BState *s, int node, int32_t *out);
int  k_alloc(BState *s);
void k_release(BState *s, int g);
int  k_purge(BState *s, int node, int msg);
int  k_purge_all(BState *s, int msg);
int  k_screen(BState *s, int src, int dst);
int  k_admit(BState *s, int n, int32_t *src, int32_t *dst, int32_t *len,
             int len1, int screen);
int  k_uniform_admit(BState *s, bitgen_t *bg, int n, double p,
                     int32_t *src, int32_t *dst, int len);
void k_cache_clear(BState *s);
void k_rehash(BState *s);
"""

_SOURCE = """
#include <stdint.h>
#include <stdio.h>
#include <string.h>
""" + _STRUCT + _BITGEN + """

#define SLOT(s, node, pid) ((node) * ((s)->max_pid + 2) + (pid) + 1)
#define KEYW 10
#define MAXF 5
#define F_ABSENT (-1000000)
#define F_NONE (-999999)
#define CT_CANDS 8
/* refresh hints the kernel acts on (repro.routing.base) */
#define H_REROUTE 0
#define H_RESORT 1
#define H_ARGMIN 3
/* k_route_scan's return codes (SCAN_* in Python) */
#define SCAN_DONE 0
#define SCAN_ROUTE 1
#define SCAN_PURGE 2
#define SCAN_FLUSH (-1)
#define SCAN_BODY (-2)
/* msg_flags bits (M_* in Python) */
#define M_HELD 1        /* Python holds the header: it ejects the tail */
#define M_DROPPED 2     /* ripped up, stuck or absorbed                */
#define M_RETRY 4       /* a retransmission (its header has retry_of)  */
#define M_MISROUTED 8   /* delivered with the misrouted mark           */

/* -- active-set scheduling ---------------------------------------- */

/* every kernel walk iterates the compact active-node list instead of
   all n_nodes, so idle fabric costs nothing per cycle; nodes enter on
   flit arrival or source activity and leave via the cycle-start sweep.
   Membership is a bitmap, so the sweep rebuilds the list in ascending
   node order without sorting */
static void activate(BState *s, int node)
{
    uint64_t bit = (uint64_t)1 << (node & 63);
    if (!(s->act_bits[node >> 6] & bit)) {
        s->act_bits[node >> 6] |= bit;
        s->act_list[s->n_act++] = node;
    }
}

/* message mid joins the back of its source's FIFO: one more queued
   message in the queue-length mirror, the source active from the next
   cycle */
static void enqueue(BState *s, int src, int mid)
{
    s->msg_next[mid] = -1;
    if (s->src_qtail[src] >= 0) s->msg_next[s->src_qtail[src]] = mid;
    else s->src_qhead[src] = mid;
    s->src_qtail[src] = mid;
    s->src_qlen[src]++;
    activate(s, src);
}

/* Network.offer's screen (assumption iii): the source works, the
   destination works and is connected to it in the source's fault view,
   and the algorithm accepts both nodes */
int k_screen(BState *s, int src, int dst)
{
    if (!s->node_ok[src]) return 0;
    const int32_t *lab = s->adm_lab + (int64_t)s->adm_view[src] * s->n_nodes;
    int ls = lab[src], ld = lab[dst];
    if (ls < 0 || ld < 0 || (src != dst && ls != ld)) return 0;
    return s->adm_ok[src] && s->adm_ok[dst];
}

/* admit n messages (src[i], dst[i], len[i], or len1 for all when len
   is NULL), screened unless screen is 0: each admitted message takes
   the next id, its ledger row (created now, not injected, not
   delivered, its own root) and the back of its source's FIFO.  The
   caller made room for n more rows.  Returns how many were admitted;
   the others are refused */
int k_admit(BState *s, int n, int32_t *src, int32_t *dst, int32_t *len,
            int len1, int screen)
{
    int k = 0;
    for (int i = 0; i < n; i++) {
        int a = src[i], b = dst[i];
        if (screen && !k_screen(s, a, b)) continue;
        int mid = s->n_msgs++;
        int l = len ? len[i] : len1;
        s->msg_src[mid] = a;
        s->msg_dst[mid] = b;
        s->msg_size[mid] = l;
        s->msg_len[mid] = l;
        s->msg_born[mid] = s->now;
        s->msg_root[mid] = mid;
        enqueue(s, a, mid);
        k++;
    }
    return k;
}

/* cycle-start sweep: drop nodes with no flits and no source work (the
   object engine's lazy _active prune), maintain the metrics _active
   mirror, and rebuild the list ascending from the membership bitmap --
   every kernel walk then preserves the sequential node order the
   same-cycle credit chains and the decision digest depend on.  Cost:
   one word per 64 nodes plus one test per member */
static void act_compact(BState *restrict s)
{
    int w = 0, nw = (s->n_nodes + 63) >> 6;
    uint64_t *restrict bits = s->act_bits;
    int32_t *restrict list = s->act_list;
    const int32_t *restrict nfl = s->r_nflits;
    const int32_t *restrict cur = s->src_cur;
    const int32_t *restrict qlen = s->src_qlen;
    uint8_t *restrict mf = s->m_flag;
    for (int i = 0; i < nw; i++) {
        uint64_t b = bits[i];
        while (b) {
            int node = (i << 6) + __builtin_ctzll(b);
            b &= b - 1;
            if (mf[node] && nfl[node] <= 0) {
                mf[node] = 0;
                s->m_count--;
            }
            if (nfl[node] > 0 || cur[node] >= 0 || qlen[node] > 0)
                list[w++] = node;
            else
                bits[i] &= ~((uint64_t)1 << (node & 63));
        }
    }
    s->n_act = w;
}

/* one flit arrives per input VC per cycle at most (each input VC is
   fed by exactly one upstream output VC, local VCs by injection), so
   a 1-deep staging slot mirrors the object engine's incoming list.
   The staged flit is written to the ring position just past the
   buffered flits (the caller checked buf_cnt + inc_val < cap; pops
   keep that position, purges move it) and counted in buf_cnt at the
   flush.  Filling a slot lists it once until the next flush */
static inline void stage(BState *restrict s, int g, int msg, int seq)
{
    iv_t *v = s->iv + g;
    int idx = v->buf_head + v->buf_cnt;
    if (idx >= s->cap) idx -= s->cap;
    flit_t *f = s->buf + (int64_t)g * s->cap + idx;
    f->msg = msg;
    f->seq = seq;
    v->inc_val = 1;
    if (!v->arr_on) {
        v->arr_on = 1;
        s->arr_list[s->n_arr++] = g;
    }
}

/* input VC g's bits in its node's occupancy masks, after its buf_cnt
   or st changed: every write that can move buf_cnt to or from 0, or st
   to or from ACTIVE, calls this */
static inline void occ_sync(BState *restrict s, int g)
{
    const iv_t *v = s->iv + g;
    uint64_t bit = (uint64_t)1 << v->iv_bit;
    uint64_t *w = s->occ + 2 * v->iv_node;
    w[0] = v->buf_cnt ? w[0] | bit : w[0] & ~bit;
    w[1] = v->st == 3 ? w[1] | bit : w[1] & ~bit;
}

/* the credit check: room for one more flit in input VC d */
static inline int has_room(const BState *restrict s, int d)
{
    const iv_t *v = s->iv + d;
    return v->buf_cnt + v->inc_val < s->cap;
}

/* admit the slots staged since the last flush into their buffers; a
   slot a purge or a fast-reroute walk cleared meanwhile is skipped,
   and one refilled after such a clear is listed (and admitted) once */
void k_flush(BState *restrict s)
{
    act_compact(s);
    const int na = s->n_arr;
    const int32_t *restrict arr = s->arr_list;
    for (int i = 0; i < na; i++) {
        iv_t *v = s->iv + arr[i];
        v->arr_on = 0;
        if (v->inc_val) {                /* buf_cnt > 0 from here */
            v->buf_cnt++;
            v->inc_val = 0;
            s->occ[2 * v->iv_node] |= (uint64_t)1 << v->iv_bit;
        }
    }
    s->n_arr = 0;
}

/* -- uniform traffic ---------------------------------------------- */

/* Generator.integers(0, bound)'s draw for bound <= 2^32 - 1: Lemire's
   multiply-and-reject over next_uint32, numpy's bounded method
   (bound 1 draws nothing) */
static uint32_t bounded(bitgen_t *bg, uint32_t bound)
{
    if (bound == 1) return 0;
    uint64_t m = (uint64_t)bg->next_uint32(bg->state) * bound;
    uint32_t left = (uint32_t)m;
    if (left < bound) {
        uint32_t threshold = (uint32_t)(0u - bound) % bound;
        while (left < threshold) {
            m = (uint64_t)bg->next_uint32(bg->state) * bound;
            left = (uint32_t)m;
        }
    }
    return (uint32_t)(m >> 32);
}

/* One cycle of the uniform pattern drawn from a numpy bit generator
   exactly as TrafficGenerator.tick draws it: Generator.random(n)
   compared with p node by node, then Generator.integers(0, n - 1) for
   each offering node in ascending order, shifted past the source (the
   next_uint32 calls keep numpy's buffered half-word, so the Generator
   ends in the same state).  Writes the sources and destinations of the
   offered messages; returns how many (n >= 2). */
int k_uniform_tick(bitgen_t *bg, int n, double p, int32_t *src,
                   int32_t *dst)
{
    int k = 0;
    for (int i = 0; i < n; i++)
        if (bg->next_double(bg->state) < p) src[k++] = i;
    for (int j = 0; j < k; j++) {
        int d = (int)bounded(bg, (uint32_t)(n - 1));
        dst[j] = d < src[j] ? d : d + 1;
    }
    return k;
}

/* one cycle of uniform traffic of len-flit messages, drawn into
   src/dst (n entries each) and admitted; the caller made room for n
   more ledger rows.  Returns how many were refused */
int k_uniform_admit(BState *s, bitgen_t *bg, int n, double p,
                    int32_t *src, int32_t *dst, int len)
{
    int k = k_uniform_tick(bg, n, p, src, dst);
    return k - k_admit(s, k, src, dst, NULL, len, 1);
}

/* worm starts: every live source with no worm entering pops the front
   of its FIFO (ascending order = the object engine's scan order).
   Lists the nodes that started; returns how many */
int k_start_scan(BState *s, int32_t *out_nodes)
{
    int n = 0, na = s->n_act;
    for (int ai = 0; ai < na; ai++) {
        int node = s->act_list[ai];
        if (s->src_cur[node] < 0 && s->src_qlen[node] > 0
                && s->node_ok[node]) {
            int mid = s->src_qhead[node];
            s->src_qhead[node] = s->msg_next[mid];
            if (s->src_qhead[node] < 0) s->src_qtail[node] = -1;
            s->src_qlen[node]--;
            s->src_cur[node] = mid;
            s->src_pos[node] = 0;
            out_nodes[n++] = node;
        }
    }
    return n;
}

/* per-flit injection pushes; a head that enters stamps its message's
   injected cycle.  Lists the messages whose heads entered; returns
   how many */

int k_inject(BState *s, int32_t *out_heads)
{
    int nh = 0, na = s->n_act;
    for (int ai = 0; ai < na; ai++) {
        int node = s->act_list[ai];
        int cur = s->src_cur[node];
        if (cur < 0 || !s->node_ok[node]) continue;
        int g = s->portbase[SLOT(s, node, -1)];   /* local VC 0 */
        if (!has_room(s, g)) continue;
        int seq = s->src_pos[node];
        stage(s, g, cur, seq);
        s->r_nflits[node]++;
        if (s->m_on && !s->m_flag[node]) {
            s->m_flag[node] = 1;
            s->m_count++;
        }
        if (seq == 0) {
            out_heads[nh++] = cur;
            s->msg_inj[cur] = s->now;
        }
        s->src_pos[node] = seq + 1;
        if (seq + 1 >= s->msg_len[cur]) s->src_cur[node] = -1;
    }
    return nh;
}

static int load_of(BState *s, int node, int pid)
{
    const iv_t *ov = s->iv + s->portbase[SLOT(s, node, pid)];
    int tot = 0;
    for (int v = 0; v < s->n_vcs; v++) {
        int d = ov[v].ov_down;
        if (d >= 0) tot += s->iv[d].buf_cnt + s->iv[d].inc_val;
        if (ov[v].ov_owner >= 0) tot += 1;
    }
    return tot;
}

/* re-sort the candidate list by (output load, port, vc) — the refresh
   a REFRESH_RESORT decision declares equivalent to re-routing; for
   REFRESH_ARGMIN the list is the decision's whole set and only its
   first member is offered (see offered).  The first pin members stay
   in place, and loads compare clamped at load_cap. */
static void resort_cands(BState *s, int g, int node)
{
    int k = s->pin, n = s->iv[g].ncand - k;
    if (n < 2) return;
    int8_t *cp = s->cand_p + (int64_t)g * s->maxc + k;
    int8_t *cv = s->cand_v + (int64_t)g * s->maxc + k;
    int loads[64];
    for (int i = 0; i < n; i++) {
        int l = load_of(s, node, cp[i]);
        loads[i] = l < s->load_cap ? l : s->load_cap;
    }
    for (int i = 1; i < n; i++) {
        int lo = loads[i], pp = cp[i], vv = cv[i];
        int j = i - 1;
        while (j >= 0 && (loads[j] > lo
                          || (loads[j] == lo
                              && (cp[j] > pp
                                  || (cp[j] == pp && cv[j] > vv))))) {
            loads[j + 1] = loads[j];
            cp[j + 1] = cp[j];
            cv[j + 1] = cv[j];
            j--;
        }
        loads[j + 1] = lo;
        cp[j + 1] = pp;
        cv[j + 1] = vv;
    }
}

void k_resort(BState *s, int g)
{
    resort_cands(s, g, s->iv[g].iv_node);
}

/* the refresh a hint declares: re-sort by current loads */
static int load_ordered(BState *s, int g)
{
    int h = s->iv[g].hint;
    return h == H_RESORT || h == H_ARGMIN;
}

/* candidates the allocator requests and the digest line names: an
   ARGMIN decision offers only its least-loaded member */
static int offered(BState *s, int g)
{
    int n = s->iv[g].ncand;
    return (s->iv[g].hint == H_ARGMIN && n > 1) ? 1 : n;
}

/* the loads of one node's ports, ascending port id (the Python route()
   calls of load-reading algorithms take all of them at once) */
void k_port_loads(BState *s, int node, int32_t *out)
{
    int k = 0;
    for (int pid = 0; pid <= s->max_pid; pid++)
        if (s->portbase[SLOT(s, node, pid)] >= 0)
            out[k++] = load_of(s, node, pid);
}

/* ---- native decision cache ------------------------------------- */

/* the key's dst slot.  Under a relative_dst contract a regular
   destination is keyed by its class relative to the deciding node.
   On the mesh: -1 - ((dx > 0) * 3 + sign dy + 1) in -1..-6 when
   dx != 0, else REL_COL + dy (the hop count the terminal-run check
   reads; dy == 0 is delivery).  On the hypercube: -1 - (up | down <<
   16), the dimensions to correct 0 -> 1 and 1 -> 0 (dimension <= 15).
   Every class is negative, so it never equals an exact id; an
   irregular destination keeps its exact id. */
#define REL_COL (-(1 << 24))
#define REL_CUBE 2

static int32_t dst_slot(BState *s, int node, int dst)
{
    if (!s->rel_on || s->irreg[dst]) return dst;
    if (s->rel_on == REL_CUBE) {
        int diff = node ^ dst;
        return -1 - ((diff & ~node) | ((diff & node) << 16));
    }
    int ddx = s->node_x[dst] - s->node_x[node];
    int ddy = s->node_y[dst] - s->node_y[node];
    if (ddx == 0) return REL_COL + ddy;
    return -1 - ((ddx > 0) * 3 + (ddy > 0) - (ddy < 0) + 1);
}

/* key slots 0..4: node, dst slot, in_port, in_vc, livelock over.  A
   relative (negative) dst slot pairs with the node's class, an exact
   one with the exact node; class ids are member node ids and a node
   that must keep its own entries is its class's only member. */
static void key_head(BState *s, int g, int mid, int32_t *k)
{
    const iv_t *v = s->iv + g;
    int node = v->iv_node;
    k[1] = dst_slot(s, node, s->msg_dst[mid]);
    k[0] = k[1] < 0 ? s->node_cls[node] : node;
    k[2] = s->key_port ? v->iv_port : 0;
    k[3] = s->key_vc ? v->iv_vc : 0;
    k[4] = s->msg_plen[mid] > s->limit ? 1 : 0;
}

static void mk_key(BState *s, int g, int mid, int32_t *k)
{
    key_head(s, g, mid, k);
    const int32_t *f = s->msg_f + (int64_t)mid * MAXF;
    for (int i = 0; i < MAXF; i++) k[5 + i] = f[i];
}

static uint32_t key_hash(const int32_t *k)
{
    uint32_t h = 2166136261u;
    for (int i = 0; i < KEYW; i++) {
        h ^= (uint32_t)k[i];
        h *= 16777619u;
    }
    return h;
}

static int probe(BState *s, const int32_t *k)
{
    uint32_t m = (uint32_t)s->tab_mask;
    for (uint32_t j = key_hash(k) & m;; j = (j + 1) & m) {
        int e = s->tab[j];
        if (e < 0) return -1;
        const int32_t *ek = s->ek + (int64_t)e * KEYW;
        int ok = 1;
        for (int i = 0; i < KEYW; i++)
            if (ek[i] != k[i]) { ok = 0; break; }
        if (ok) return e;
    }
}

/* append one decision line to the digest byte stream — byte-identical
   to DecisionDigest.update: node|msg|deliver|stuck|steps|p.v|p.v\\n */
static void dig_line(BState *s, int node, int g, int steps)
{
    if (!s->dig_on) return;
    char *base = (char *)s->dig;
    char *p = base + s->dig_used;
    const iv_t *v = s->iv + g;
    p += sprintf(p, "%d|%d|%d|%d|%d", node, v->head_msg,
                 v->deliver ? 1 : 0, v->stuckf ? 1 : 0, steps);
    int n = offered(s, g);
    const int8_t *cp = s->cand_p + (int64_t)g * s->maxc;
    const int8_t *cv = s->cand_v + (int64_t)g * s->maxc;
    for (int i = 0; i < n; i++)
        p += sprintf(p, "|%d.%d", cp[i], cv[i]);
    *p++ = '\\n';
    s->dig_used = (int32_t)(p - base);
    s->dstat[3]++;
}

/* shared tail of every C-side decision replay: the decision-latency
   timer, the RESORT/ARGMIN re-sort by current loads, stats counters
   and the digest line — the exact effect the object engine's
   route_stage would have had */
static void apply_common(BState *s, int g, int node, int steps,
                         int cycle, int epoch)
{
    iv_t *v = s->iv + g;
    v->st = 1;
    v->stuckf = 0;
    int lat = steps * s->cps;
    if (lat < 1) lat = 1;
    v->ready = cycle + lat - 1;
    v->epoch = epoch;
    if (load_ordered(s, g)) resort_cands(s, g, node);
    s->dstat[0]++;
    s->dstat[1] += steps;
    if (steps > s->dstat[2]) s->dstat[2] = steps;
    dig_line(s, node, g, steps);
    if (cycle >= v->ready) v->st = 2;           /* same-cycle ROUTED */
}

/* replay a cache entry: recorded header-field after-values
   plus the recorded candidate set */
static void apply_hit(BState *s, int g, int node, int mid, int e,
                      int cycle, int epoch)
{
    int32_t *f = s->msg_f + (int64_t)mid * MAXF;
    const int32_t *a = s->ea + (int64_t)e * MAXF;
    for (int i = 0; i < s->n_native; i++) f[i] = a[i];
    iv_t *v = s->iv + g;
    v->head_msg = mid;
    v->deliver = s->e_deliver[e];
    v->hint = s->e_hint[e];
    int n = s->e_ncand[e];
    v->ncand = n;
    memcpy(s->cand_p + (int64_t)g * s->maxc,
           s->e_cp + (int64_t)e * s->maxc, n);
    memcpy(s->cand_v + (int64_t)g * s->maxc,
           s->e_cv + (int64_t)e * s->maxc, n);
    apply_common(s, g, node, s->e_steps[e], cycle, epoch);
}

/* Build-time clean table: while the known-fault set is empty, the
   native mesh algorithms' decisions are a pure function of (sign dx,
   sign dy, vn, term) — translation-invariant, so a 54-entry table
   proved once per build by running route() at a central node replays
   the decision for any congruent (node, dst, state) without ever
   entering Python, even on the very first sighting of a key.  Falls
   through (return 0) whenever the message state leaves the table's
   domain: livelock overflow, any other native field set, or an entry
   the builder could not prove. */
static int ct_lookup(BState *s, int g, int node, int mid,
                     int cycle, int epoch)
{
    if (!s->ct_on || s->msg_plen[mid] > s->limit) return 0;
    int32_t *f = s->msg_f + (int64_t)mid * MAXF;
    int term = 0, vncode = 0;
    for (int i = 0; i < s->n_native; i++) {
        int fv = f[i];
        if (i == s->ct_vnf) {
            if (fv == 0) vncode = 1;
            else if (fv == 1) vncode = 2;
            else if (fv != F_ABSENT) return 0;
        } else if (i == s->ct_termf) {
            if (fv == 1) term = 1;
            else if (fv != F_ABSENT && fv != 0) return 0;
        } else if (fv != F_ABSENT)
            return 0;
    }
    int dst = s->msg_dst[mid];
    int ddx = s->node_x[dst] - s->node_x[node];
    int ddy = s->node_y[dst] - s->node_y[node];
    int sdx = (ddx > 0) - (ddx < 0);
    int sdy = (ddy > 0) - (ddy < 0);
    int idx = (((sdx + 1) * 3 + sdy + 1) * 3 + vncode) * 2 + term;
    if (!s->ct_valid[idx]) return 0;
    if (s->ct_vn_after[idx] != F_ABSENT)
        f[s->ct_vnf] = s->ct_vn_after[idx];
    iv_t *v = s->iv + g;
    v->head_msg = mid;
    v->deliver = s->ct_deliver[idx];
    v->hint = s->ct_hint[idx];
    int n = s->ct_ncand[idx];
    v->ncand = n;
    memcpy(s->cand_p + (int64_t)g * s->maxc,
           s->ct_cp + (int64_t)idx * CT_CANDS, n);
    memcpy(s->cand_v + (int64_t)g * s->maxc,
           s->ct_cv + (int64_t)idx * CT_CANDS, n);
    apply_common(s, g, node, s->ct_steps[idx], cycle, epoch);
    return 1;
}

/* install a Python-computed decision as a cache entry keyed by the
   field values *before* it ran (the crossing record's), capturing the
   after-values from the mirrors */
static void note_entry(BState *s, int g, int mid, int steps,
                       const int32_t *before)
{
    if (!s->n_native || s->n_ent >= s->ent_cap) return;
    int32_t k[KEYW];
    key_head(s, g, mid, k);
    memcpy(k + 5, before, MAXF * sizeof(int32_t));
    uint32_t m = (uint32_t)s->tab_mask;
    uint32_t j = key_hash(k) & m;
    for (;; j = (j + 1) & m) {
        int e = s->tab[j];
        if (e < 0) break;
        const int32_t *ek = s->ek + (int64_t)e * KEYW;
        int same = 1;
        for (int i = 0; i < KEYW; i++)
            if (ek[i] != k[i]) { same = 0; break; }
        if (same) return;                       /* already recorded */
    }
    int e = s->n_ent++;
    memcpy(s->ek + (int64_t)e * KEYW, k, KEYW * sizeof(int32_t));
    memcpy(s->ea + (int64_t)e * MAXF, s->msg_f + (int64_t)mid * MAXF,
           MAXF * sizeof(int32_t));
    const iv_t *v = s->iv + g;
    s->e_deliver[e] = v->deliver;
    s->e_steps[e] = steps;
    s->e_hint[e] = v->hint;
    int n = v->ncand;
    s->e_ncand[e] = n;
    memcpy(s->e_cp + (int64_t)e * s->maxc,
           s->cand_p + (int64_t)g * s->maxc, n);
    memcpy(s->e_cv + (int64_t)e * s->maxc,
           s->cand_v + (int64_t)g * s->maxc, n);
    s->tab[j] = e;
}

void k_cache_clear(BState *s)
{
    memset(s->tab, 0xff, (int64_t)(s->tab_mask + 1) * sizeof(int32_t));
    s->n_ent = 0;
}

void k_rehash(BState *s)
{
    memset(s->tab, 0xff, (int64_t)(s->tab_mask + 1) * sizeof(int32_t));
    uint32_t m = (uint32_t)s->tab_mask;
    for (int e = 0; e < s->n_ent; e++) {
        uint32_t j = key_hash(s->ek + (int64_t)e * KEYW) & m;
        while (s->tab[j] >= 0) j = (j + 1) & m;
        s->tab[j] = e;
    }
}

/* a ROUTED head whose decision is stuck is purged at its node's end,
   after the whole node's route stage (Router.route_stage's order) */
static void note_stuck(BState *s, int g)
{
    const iv_t *v = s->iv + g;
    if (v->st == 2 && v->stuckf)
        s->stuck[s->n_stuck++] = v->head_msg;
}

/* the input VCs from g0 to the end of node's span (at most 64 VCs)
   holding flits, as a bit mask from g0; with heads_only, only those
   not carrying an ACTIVE worm, which the route stage leaves alone.
   The walks visit only these, in ascending gid order, so one
   data-dependent branch per visited VC replaces one per VC.  The mask
   is two words of the node's, kept by occ_sync; no VC record is read */
static inline uint64_t occupied(const BState *s, int node, int g0,
                                int heads_only)
{
    int from = g0 - s->iv_off[node];
    if (from >= 64) return 0;
    const uint64_t *w = s->occ + 2 * node;
    return (heads_only ? w[0] & ~w[1] : w[0]) >> from;
}

/* hand input VC g to Python and stop there; a resumed scan goes on at
   g + 1 of the same node */
static int cross(BState *s, int ai, int g, int mid, int fresh)
{
    int32_t *x = s->xing;
    x[0] = g;
    x[1] = mid;
    x[2] = fresh;
    x[3] = s->iv[g].iv_node;
    x[4] = s->iv[g].iv_port;
    x[5] = s->iv[g].iv_vc;
    x[6] = s->msg_plen[mid];
    memcpy(x + 7, s->msg_f + (int64_t)mid * MAXF, MAXF * sizeof(int32_t));
    s->scan_ai = ai;
    s->scan_g = g + 1;
    return SCAN_ROUTE;
}

/* The route stage over the active list (sorted ascending at cycle
   start, so ascending node order), mirroring Router.route_stage gid
   for gid: idle heads are served from the clean table or the native
   cache, ROUTING timers expire, RESORT- and ARGMIN-hinted blocked heads
   are re-sorted, hop-budget overflows and stuck heads are collected.
   The scan stops at each input VC that needs Python -- a cache miss
   (every fresh decision of an algorithm without a native contract) or
   an epoch-stale or REROUTE-hinted refresh -- and returns SCAN_ROUTE
   with that one VC in xing; Python runs route() and hands the decision
   back through k_commit, and the resumed scan (resume = 1) goes on at
   the next VC of the same node.  At the end of a node with stuck heads
   it returns SCAN_PURGE: Python purges stuck[:n_stuck] before the next
   node is scanned, as the object engine does.  SCAN_FLUSH asks for a
   digest flush before the next node, SCAN_BODY reports a body flit at
   the front of an idle VC, SCAN_DONE ends the stage.  resume = 0
   starts the stage at the first active node.  The VCs visited are
   counted into *nv. */
static inline int route_scan(BState *s, int cycle, int epoch, int resume,
                             int64_t *nv)
{
    int ai = resume ? s->scan_ai : 0;
    int g0 = resume ? s->scan_g : -1;
    s->cur_cycle = cycle;
    s->cur_epoch = epoch;
    for (; ai < s->n_act; ai++, g0 = -1) {
        int node = s->act_list[ai];
        if (g0 < 0) {                          /* the node's start */
            if (s->r_nflits[node] <= 0) continue;
            if (s->dig_on && s->dig_used > s->dig_cap - RESERVE_BYTES) {
                s->scan_ai = ai;
                s->scan_g = -1;
                return SCAN_FLUSH;
            }
            s->n_stuck = 0;
            g0 = s->iv_off[node];
        }
        for (uint64_t occ = occupied(s, node, g0, 1); occ; occ &= occ - 1) {
            int g = g0 + __builtin_ctzll(occ);
            iv_t *v = s->iv + g;
            uint8_t st = v->st;
            ++*nv;
            if (st == 0) {
                const flit_t *f = s->buf + (int64_t)g * s->cap + v->buf_head;
                int mid = f->msg;
                if (f->seq != 0) {
                    cross(s, ai, g, mid, 1);
                    return SCAN_BODY;
                }
                if (s->hop_budget && s->msg_plen[mid] > s->hop_budget) {
                    s->stuck[s->n_stuck++] = mid;
                    continue;
                }
                if (!ct_lookup(s, g, node, mid, cycle, epoch)) {
                    if (!s->n_native || s->n_ent >= s->ent_cap)
                        return cross(s, ai, g, mid, 1);
                    int32_t k[KEYW];
                    mk_key(s, g, mid, k);
                    int e = probe(s, k);
                    if (e < 0) return cross(s, ai, g, mid, 1);
                    apply_hit(s, g, node, mid, e, cycle, epoch);
                }
            } else if (st == 2) {
                if (v->epoch != epoch
                        || (s->adaptive && v->hint == H_REROUTE))
                    return cross(s, ai, g, v->head_msg, 0);
                if (s->adaptive && load_ordered(s, g))
                    resort_cands(s, g, node);
            } else if (st == 1 && cycle >= v->ready) {
                v->st = 2;
            }
            note_stuck(s, g);
        }
        if (s->n_stuck) {
            s->scan_ai = ai + 1;
            s->scan_g = -1;
            return SCAN_PURGE;
        }
    }
    return SCAN_DONE;
}

int k_route_scan(BState *s, int cycle, int epoch, int resume)
{
    int64_t nv = 0;
    int r = route_scan(s, cycle, epoch, resume, &nv);
    s->visits[0] += nv;
    return r;
}

/* Python's decision for the VC of the last SCAN_ROUTE: write the VC's
   decision arrays and the message's field mirrors (fields: n_native
   after-values), the digest line of a fresh decision and -- unless it
   is REROUTE-hinted or an injection at an armed fast-reroute endpoint,
   which may take a backup substitution -- its cache entry; then finish
   the VC's route-stage step as the scan would.  cands holds n (port,
   vc) pairs.  Returns 1 when the cache must grow before the next
   entry, -1 (writing nothing) when n exceeds the maxc slots a VC
   holds. */
int k_commit(BState *s, int deliver, int stuck, int hint, int steps,
             int n, int32_t *cands, int32_t *fields)
{
    const int32_t *x = s->xing;
    int g = x[0], mid = x[1], node = x[3];
    if (n > s->maxc) return -1;
    if (s->n_native)
        memcpy(s->msg_f + (int64_t)mid * MAXF, fields,
               s->n_native * sizeof(int32_t));
    iv_t *v = s->iv + g;
    v->deliver = deliver ? 1 : 0;
    v->stuckf = stuck ? 1 : 0;
    v->hint = (uint8_t)hint;
    v->ncand = n;
    int8_t *cp = s->cand_p + (int64_t)g * s->maxc;
    int8_t *cv = s->cand_v + (int64_t)g * s->maxc;
    for (int i = 0; i < n; i++) {
        cp[i] = cands[2 * i];
        cv[i] = cands[2 * i + 1];
    }
    v->epoch = s->cur_epoch;
    if (x[2]) {                                /* a fresh decision */
        v->st = 1;
        v->head_msg = mid;
        int lat = steps * s->cps;
        if (lat < 1) lat = 1;
        v->ready = s->cur_cycle + lat - 1;
        dig_line(s, node, g, steps);
        if (s->cur_cycle >= v->ready) v->st = 2;
    }
    if (hint != H_REROUTE && !(s->armed_end[node] && x[4] == -1))
        note_entry(s, g, mid, steps, x + 7);
    note_stuck(s, g);
    return s->n_ent >= s->ent_cap - 1;
}

/* input VC g gives up its worm: the output VC it holds, if it still
   owns it, and its decision (InputVC.release_worm) */
void k_release(BState *s, int g)
{
    iv_t *v = s->iv + g;
    if (v->o_port > -100) {
        int ovg = s->portbase[SLOT(s, v->iv_node, v->o_port)] + v->o_vc;
        if (s->iv[ovg].ov_owner == g) s->iv[ovg].ov_owner = -1;
    }
    v->st = 0;
    v->head_msg = -1;
    v->ncand = 0;
    v->deliver = 0;
    v->stuckf = 0;
    v->hint = 0;
    v->o_port = -100;
    v->o_vc = -100;
    v->o_dn = -1;
    occ_sync(s, g);
}

/* grant input VC g's front flit output VC ovg: the one a head takes,
   or the one a body flit's head took */
static void do_grant(BState *s, int node, int g, int ovg, int is_head)
{
    iv_t *v = s->iv + g;
    int hd = v->buf_head;
    const flit_t *f = s->buf + (int64_t)g * s->cap + hd;
    int msg = f->msg, seq = f->seq;
    v->buf_head = hd + 1 == s->cap ? 0 : hd + 1;
    v->buf_cnt--;
    s->r_nflits[node]--;
    int is_tail = (seq == s->msg_len[msg] - 1);
    if (is_head) {
        iv_t *ov = s->iv + ovg;
        ov->ov_owner = g;
        v->st = 3;
        v->o_port = ov->iv_port;
        v->o_vc = ov->iv_vc;
        v->o_dn = ov->ov_down;
        s->msg_plen[msg]++;        /* the base on_depart's hop count */
        if (s->n_native) {
            /* the declared departure effect, applied in grant order:
               the terminal-commit and bump rules */
            int32_t *mf = s->msg_f + (int64_t)msg * MAXF;
            if (s->term_on) {
                int x = mf[s->vn_f];
                if (x >= 0 && x < 8 && v->o_port == s->term_port[x])
                    mf[s->term_f] = 1;
            }
            if (s->bump_on) {
                int x = mf[s->bump_f];
                if (x != 0 && x != F_ABSENT && x != F_NONE)
                    mf[s->cnt_f] = (mf[s->cnt_f] == F_ABSENT ? 0
                                    : mf[s->cnt_f]) + 1;
                mf[s->bump_f] = F_ABSENT;
            }
        }
        if (s->trace_on) {
            int64_t e = s->counters[2]++;
            s->ev_kind[e] = 0;
            s->ev_node[e] = node;
            s->ev_msg[e] = msg;
            s->ev_a[e] = v->o_port;
            s->ev_b[e] = v->o_vc;
        }
    }
    int out_pid = v->o_port, d = v->o_dn;  /* before a tail's release */
    if (is_tail) k_release(s, g);
    else occ_sync(s, g);
    if (out_pid == -1) {                   /* local ejection */
        if (is_tail && !(s->msg_flags[msg] & M_HELD)
                && s->msg_dst[msg] == node) {
            /* delivered without a Python header: stamp it here, as
               Message.deliver does */
            s->msg_dlv[msg] = s->now;
            if (s->mis_f >= 0) {
                int v = s->msg_f[(int64_t)msg * MAXF + s->mis_f];
                if (v != 0 && v != F_ABSENT && v != F_NONE)
                    s->msg_flags[msg] |= M_MISROUTED;
            }
            s->counters[1]++;
            s->counters[3]++;
        } else if (is_tail) {              /* Python's eject replays it */
            int64_t e = s->counters[2]++;
            s->ev_kind[e] = 1;
            s->ev_node[e] = node;
            s->ev_msg[e] = msg;
            s->ev_a[e] = seq;
            s->ev_b[e] = 0;
        } else
            s->counters[1]++;              /* non-tail flit delivered */
    } else {
        int dn = s->iv[d].iv_node;
        stage(s, d, msg, seq);
        s->r_nflits[dn]++;
        activate(s, dn);
        if (s->m_on) {
            s->link_cnt[ovg]++;            /* directed per-link flits */
            if (!s->m_flag[dn]) {
                s->m_flag[dn] = 1;
                s->m_count++;
            }
        }
        s->counters[0]++;                  /* flit hop */
    }
}

/* one request of the allocation walk: the requesting input VC, the
   output VC it asks for, that output's port slot (pid + 1), the
   requester's arbiter key (in_port * 64 + in_vc) and whether it is a
   head's */
typedef struct { int32_t g, ov, key; uint8_t port, head; } req_t;

/* The allocation walk, node-ascending: collect at most one request per
   input VC, arbitrate per output port with the global round-robin
   pointers, grant.  In-cycle credit chains (a grant freeing space a
   later node consumes) fall out of the sequential order, exactly as in
   the object engine. */
int k_alloc(BState *s)
{
    int moved = 0, na = s->n_act;
    int64_t nv = 0;
    int64_t *rr = s->rr_ptr;
    memset(s->counters, 0, 4 * sizeof(int64_t));
    for (int ai = 0; ai < na; ai++) {
        int node = s->act_list[ai];
        if (s->r_nflits[node] <= 0 || !s->node_ok[node]) continue;
        int lo = s->iv_off[node];
        const int32_t *pb = s->portbase + SLOT(s, node, -1);
        const uint8_t *alive = s->alive + SLOT(s, node, -1);
        req_t req[64];
        int nreq = 0, chosen[64];
        uint64_t seen = 0, shared = 0;   /* ports requested, twice+ */
        for (uint64_t occ = occupied(s, node, lo, 0); occ; occ &= occ - 1) {
            int g = lo + __builtin_ctzll(occ);
            const iv_t *v = s->iv + g;
            int ov = -1, port = 0, head = v->st == 2;
            nv++;
            if (head) {
                if (v->deliver) {
                    ov = pb[0] + v->iv_vc;
                } else {
                    int n = offered(s, g);
                    const int8_t *cp = s->cand_p + (int64_t)g * s->maxc;
                    const int8_t *cv = s->cand_v + (int64_t)g * s->maxc;
                    for (int i = 0; i < n; i++) {
                        int pid = cp[i];
                        if (pid != -1 && !alive[pid + 1]) continue;
                        int o = pb[pid + 1] + cv[i];
                        if (s->iv[o].ov_owner >= 0) continue;
                        if (pid != -1 && !has_room(s, s->iv[o].ov_down))
                            continue;
                        ov = o;                /* one request per VC */
                        port = pid + 1;
                        break;
                    }
                }
            } else if (v->st == 3) {
                int op = v->o_port;
                if (op == -1 || (op >= 0 && alive[op + 1]
                                 && has_room(s, v->o_dn))) {
                    ov = pb[op + 1] + v->o_vc;
                    port = op + 1;
                }
            }
            if (ov < 0) continue;
            req_t *r = req + nreq;
            r->g = g;
            r->ov = ov;
            r->key = v->iv_port * 64 + v->iv_vc;
            r->port = (uint8_t)port;
            r->head = (uint8_t)head;
            shared |= seen & (uint64_t)1 << port;
            seen |= (uint64_t)1 << port;
            chosen[port] = nreq++;
        }
        /* a port more than one VC requests goes to its first request at
           or past the port's round-robin pointer, else to its first
           (requests are in ascending gid, so ascending arbiter key,
           order); a port one VC requests goes to that VC */
        if (shared) {
            uint64_t done = 0;
            for (int i = nreq - 1; i >= 0; i--)   /* first requests */
                chosen[req[i].port] = i;
            for (int i = 0; i < nreq; i++) {
                uint64_t bit = (uint64_t)1 << req[i].port;
                if ((shared & bit) && !(done & bit)
                        && req[i].key >= rr[req[i].port]) {
                    chosen[req[i].port] = i;
                    done |= bit;
                }
            }
        }
        /* grant port by port, ascending (LOCAL first) */
        for (; seen; seen &= seen - 1) {
            const req_t *r = req + chosen[__builtin_ctzll(seen)];
            rr[r->port] = (int64_t)r->key + 1;
            do_grant(s, node, r->g, r->ov, r->head);
            moved++;
        }
    }
    s->visits[1] += nv;
    return moved;
}

/* drop every flit of a message from one node (harsh rip-up / stuck
   purge); mirrors Router.purge_message including the release of a held
   output VC and the unconditional load-token bump */
int k_purge(BState *s, int node, int msg)
{
    int lo = s->iv_off[node], hi = s->iv_off[node + 1];
    int dropped = 0;
    for (int g = lo; g < hi; g++) {
        iv_t *v = s->iv + g;
        flit_t *ring = s->buf + (int64_t)g * s->cap;
        int c = v->buf_cnt, h = v->buf_head, w = 0;
        for (int i = 0; i < c; i++) {
            int idx = (h + i) % s->cap;
            if (ring[idx].msg == msg)
                dropped++;
            else
                ring[(h + w++) % s->cap] = ring[idx];
        }
        v->buf_cnt = w;
        if (v->inc_val) {                   /* the staged flit */
            const flit_t *from = ring + (h + c) % s->cap;
            if (from->msg == msg) {
                v->inc_val = 0;
                dropped++;
            } else if (w < c) {
                ring[(h + w) % s->cap] = *from;
            }
        }
        occ_sync(s, g);
        if (v->head_msg == msg) k_release(s, g);
    }
    s->r_nflits[node] -= dropped;
    return dropped;
}

/* purge one message from every router — the object engine's
   drop_message walk over all routers, without n_nodes Python->C
   round-trips */
int k_purge_all(BState *s, int msg)
{
    int dropped = 0;
    for (int node = 0; node < s->n_nodes; node++)
        dropped += k_purge(s, node, msg);
    return dropped;
}
""".replace("RESERVE_BYTES", str(DIG_RESERVE))


#: the loaded (ffi, lib) pair, or why the kernel cannot be had; None
#: until the first load_kernel() call
_LOADED: "tuple | str | None" = None


class _Unavailable(Exception):
    """The kernel cannot be built or loaded; the message says why."""


def _cache_dir() -> str:
    override = os.environ.get("REPRO_BATCHED_CACHE")
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-batched")


def _build_so() -> str:
    """Compile the kernel (or reuse the hash-cached build); returns the
    shared-object path or raises :class:`_Unavailable`."""
    cc = (os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
          or shutil.which("clang"))
    if cc is None:
        raise _Unavailable("no C compiler (cc, gcc or clang) is on PATH "
                           "and CC is unset")
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    why = "no kernel cache directory is writable"
    for base in (_cache_dir(), os.path.join(tempfile.gettempdir(),
                                            "repro-batched")):
        try:
            os.makedirs(base, exist_ok=True)
        except OSError:
            continue
        so = os.path.join(base, f"kernel-{digest}.so")
        if os.path.exists(so):
            return so
        src = os.path.join(base, f"kernel-{digest}.c")
        try:
            with open(src, "w") as fh:
                fh.write(_SOURCE)
            tmp = so + f".tmp{os.getpid()}"
            subprocess.run([cc, "-O3", "-shared", "-fPIC", "-o", tmp, src],
                           check=True, capture_output=True)
            os.replace(tmp, so)      # atomic: concurrent builders race safely
            return so
        except subprocess.CalledProcessError as exc:
            lines = exc.stderr.decode(errors="replace").strip().splitlines()
            why = (f"{cc} failed to compile the kernel: "
                   f"{lines[-1] if lines else f'exit {exc.returncode}'}")
        except OSError as exc:
            why = f"cannot build the kernel in {base}: {exc}"
    raise _Unavailable(why)


def load_kernel():
    """(ffi, lib) for the compiled kernel, or None when unavailable;
    :func:`unavailable_reason` then says why (``REPRO_BATCHED_NO_CC``
    set, no cffi, no C compiler, a failed compile, or an unloadable
    build).  A cached build that does not load is deleted and rebuilt
    once.  The result is memoized per process."""
    global _LOADED
    if _LOADED is None:
        _LOADED = _load()
    return _LOADED if isinstance(_LOADED, tuple) else None


def _load() -> "tuple | str":
    if os.environ.get("REPRO_BATCHED_NO_CC"):
        return "REPRO_BATCHED_NO_CC is set"
    try:
        import cffi
    except ImportError:      # pragma: no cover - cffi ships with the env
        return "cffi is not installed"
    ffi = cffi.FFI()
    ffi.cdef(_CDEF)
    try:
        so = _build_so()
        try:
            lib = ffi.dlopen(so)
        except OSError:
            # a truncated or foreign cached build: replace it, once
            os.remove(so)
            lib = ffi.dlopen(_build_so())
    except _Unavailable as exc:
        return str(exc)
    except OSError as exc:
        return f"the kernel build does not load: {exc}"
    return ffi, lib


def kernel_available() -> bool:
    return load_kernel() is not None


def unavailable_reason() -> str | None:
    """Why the kernel cannot be used in this process, or None."""
    load_kernel()
    return _LOADED if isinstance(_LOADED, str) else None
