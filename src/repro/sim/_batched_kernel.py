"""Compiled cycle kernels for the batched engine (:mod:`repro.sim.batched`).

The allocation walk is inherently sequential — a grant frees a
downstream credit that a later-ordered router may consume in the *same*
cycle — so it cannot be a masked argmax over arrays.  Instead the
struct-of-arrays state is advanced by a small C kernel doing exactly
the object engine's walk over int32 arrays: flush, injection pushes,
the route-stage scan (transitions + load re-sorts), and the
allocate/grant/transfer walk with the stock round-robin pointers.

Decisions themselves stay in Python (the routing *algorithm* is the
reproduced artifact), but algorithms that declare a native descriptor
(:attr:`~repro.routing.base.RoutingAlgorithm.native_fields`) get a
C-side replay cache: the header fields the algorithm consults are
mirrored in per-message int32 arrays, each fresh decision is keyed by
``(node, dst, in_port, in_vc, livelock-overflow, field values)`` — a
strictly finer key than ``route_cache_key``, hence always safe — and a
hit replays the recorded decision (field writes, candidate set, RESORT
re-sort by current loads, digest line, stats counters) without entering
Python at all.  Only genuine misses (first sighting of a key this
epoch, REROUTE-hinted branches, stuck declarations) cross into Python.

The kernel is built on demand with the system C compiler (``cc -O3
-shared -fPIC``) and cached by source hash; cffi's ABI mode loads the
shared object.  No third-party build machinery is required.  When no
compiler (or cffi) is available — or ``REPRO_BATCHED_NO_CC`` is set —
:func:`load_kernel` returns None and the engine factory transparently
falls back to the object engine.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile

#: number of int32s in a native cache key:
#: node, dst, in_port, in_vc, over, f0..f4
KEYW = 10
#: mirrored native fields per message (key uses up to this many)
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

#: struct layout shared between the cffi cdef and the C source.  Every
#: pointer aliases a numpy array owned by the Python-side state; the
#: kernel never allocates.
_STRUCT = """
typedef struct {
    int32_t n_nodes, n_iv, cap, n_vcs, max_pid, maxc, inj_vc;
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
    int32_t key_port, key_vc; /* include in_port / in_vc in the key
                                 (algorithms that never consult them
                                 declare it, shrinking the key space) */
    int32_t tab_mask;         /* hash slots - 1                        */
    int32_t n_ent, ent_cap;   /* cache entries used / capacity         */
    int32_t dig_used, dig_cap;
    /* active-set scheduling */
    int32_t n_act;            /* live entries in act_list              */
    int32_t scan_ai;          /* route-scan resume cursor (act index)  */
    /* metrics bookkeeping (array-native MetricsTimeseries gauges) */
    int32_t m_on;             /* a timeseries is attached              */
    int32_t m_count;          /* |_active| mirror for the gauge        */
    /* build-time clean decision table (fault-free relative-key form) */
    int32_t ct_on;            /* table lookups live this epoch         */
    int32_t ct_vnf, ct_termf; /* native slots of vn / term (-1: none)  */
    /* static layout */
    int32_t *iv_off;          /* n_nodes+1: gid span per node          */
    int32_t *iv_node;         /* n_iv                                  */
    int32_t *iv_port;         /* n_iv: port id, -1 for LOCAL           */
    int32_t *iv_vc;           /* n_iv                                  */
    int32_t *portbase;        /* n_nodes x (max_pid+2): gid base or -1 */
    int32_t *ov_down;         /* n_iv: downstream input gid or -1      */
    /* dynamic per input VC (= per output VC: same (node,port,vc)) */
    int32_t *buf_msg;         /* n_iv x cap ring                       */
    int32_t *buf_seq;
    int32_t *buf_head;
    int32_t *buf_cnt;
    int32_t *inc_msg;         /* 1-deep staging slot (<=1 arrival/cyc) */
    int32_t *inc_seq;
    uint8_t *inc_val;
    uint8_t *st;              /* 0 idle 1 routing 2 routed 3 active    */
    int32_t *ready;
    int32_t *epoch;
    int32_t *o_port;          /* held output (-1 LOCAL, -100 none)     */
    int32_t *o_vc;
    uint8_t *deliver;
    uint8_t *stuckf;
    uint8_t *hint;            /* RouteDecision.refresh_hint            */
    int32_t *ncand;
    int32_t *cand_p;          /* n_iv x maxc                           */
    int32_t *cand_v;
    int32_t *head_msg;        /* msg id of the routed worm, -1 none    */
    int32_t *ov_owner;        /* owning input gid or -1                */
    int32_t *r_nflits;        /* per node                              */
    uint8_t *node_ok;
    uint8_t *alive;           /* n_nodes x (max_pid+2); slot 0=LOCAL=1 */
    int32_t *src_cur;         /* per node: injecting msg id or -1      */
    int32_t *src_pos;
    int32_t *src_qlen;        /* per node: queued-message mirror       */
    int64_t *rr_ptr;          /* max_pid+2: round-robin pointers       */
    int64_t *counters;        /* 0 load_token 1 hops 2 nontail 3 nev   */
    int32_t *ev_kind;         /* 0 head-depart 1 tail-eject            */
    int32_t *ev_node;
    int32_t *ev_msg;
    int32_t *ev_a;            /* out_port for head events              */
    int32_t *ev_b;            /* out_vc  for head events               */
    int32_t *req_g;           /* per-node request staging              */
    int32_t *req_ov;
    uint8_t *req_head;
    /* per-message mirrors (indexed by msg id, grown by Python) */
    int32_t *msg_len;
    int32_t *msg_dst;
    int32_t *msg_plen;        /* path_len                              */
    int32_t *msg_f;           /* n_msgs x 5 encoded native fields      */
    int32_t *term_port;       /* vn -> committing out port (8 slots)   */
    /* decision cache: open addressing -> parallel entry arrays */
    int32_t *tab;             /* tab_mask+1 slots: entry idx or -1     */
    int32_t *ek;              /* ent_cap x 10 keys                     */
    int32_t *ea;              /* ent_cap x 5 after-values              */
    uint8_t *e_deliver;
    int32_t *e_steps;
    uint8_t *e_hint;
    int32_t *e_ncand;
    int32_t *e_cp;            /* ent_cap x maxc                        */
    int32_t *e_cv;
    /* decision digest byte stream + stats accumulators */
    uint8_t *dig;
    int64_t *dstat;           /* 0 decisions 1 steps-sum 2 max 3 lines */
    /* active-set + metrics arrays */
    int32_t *act_list;        /* n_nodes: active node ids; sorted at
                                 cycle start, same-cycle appends at the
                                 tail (processed from the next cycle)  */
    uint8_t *act_flag;        /* n_nodes: act_list membership          */
    uint8_t *m_flag;          /* n_nodes: object-engine _active mirror */
    int64_t *link_cnt;        /* n_iv: flits forwarded per output VC   */
    /* clean table: node coordinates + CT_KEYS dense entries */
    int32_t *node_x;
    int32_t *node_y;
    uint8_t *ct_valid;
    uint8_t *ct_deliver;
    uint8_t *ct_hint;
    int32_t *ct_steps;
    int32_t *ct_ncand;
    int32_t *ct_vn_after;     /* F_ABSENT = leave the vn field alone   */
    int32_t *ct_cp;           /* CT_KEYS x CT_CANDS                    */
    int32_t *ct_cv;
} BState;
"""

_CDEF = """
typedef signed char int8_t;
typedef unsigned char uint8_t;
typedef int int32_t;
typedef long long int64_t;
""" + _STRUCT + """
void k_flush(BState *s);
int  k_start_scan(BState *s, int32_t *out_nodes);
int  k_inject(BState *s, int32_t *out_heads);
int  k_route_scan(BState *s, int start_ai, int cycle, int epoch,
                  int adaptive, int32_t *need);
int  k_try_hit(BState *s, int g, int cycle, int epoch);
void k_note(BState *s, int g, int steps, int32_t b0, int32_t b1,
            int32_t b2, int32_t b3, int32_t b4, int cacheable,
            int fresh);
void k_resort(BState *s, int g);
int  k_alloc(BState *s);
int  k_purge(BState *s, int node, int msg);
int  k_purge_all(BState *s, int msg);
void k_activate(BState *s, int node);
void k_cache_clear(BState *s);
void k_rehash(BState *s);
"""

_SOURCE = """
#include <stdint.h>
#include <stdio.h>
#include <string.h>
""" + _STRUCT + """

#define SLOT(s, node, pid) ((node) * ((s)->max_pid + 2) + (pid) + 1)
#define KEYW 10
#define MAXF 5
#define F_ABSENT (-1000000)
#define CT_CANDS 8

/* -- active-set scheduling ---------------------------------------- */

/* every kernel walk iterates the compact active-node list instead of
   all n_nodes, so idle fabric costs nothing per cycle; nodes enter on
   flit arrival or source activity and leave via the cycle-start sweep */
static void activate(BState *s, int node)
{
    if (!s->act_flag[node]) {
        s->act_flag[node] = 1;
        s->act_list[s->n_act++] = node;
    }
}

void k_activate(BState *s, int node) { activate(s, node); }

/* cycle-start sweep: drop nodes with no flits and no source work (the
   object engine's lazy _active prune), maintain the metrics _active
   mirror, and keep the list sorted ascending — every kernel walk then
   preserves the sequential node order the same-cycle credit chains and
   the decision digest depend on */
static void act_compact(BState *s)
{
    int n = s->n_act, w = 0;
    for (int i = 0; i < n; i++) {
        int node = s->act_list[i];
        if (s->m_flag[node] && s->r_nflits[node] <= 0) {
            s->m_flag[node] = 0;
            s->m_count--;
        }
        if (s->r_nflits[node] > 0 || s->src_cur[node] >= 0
                || s->src_qlen[node] > 0)
            s->act_list[w++] = node;
        else
            s->act_flag[node] = 0;
    }
    for (int i = 1; i < w; i++) {   /* few unsorted same-cycle appends */
        int v = s->act_list[i], j = i - 1;
        while (j >= 0 && s->act_list[j] > v) {
            s->act_list[j + 1] = s->act_list[j];
            j--;
        }
        s->act_list[j + 1] = v;
    }
    s->n_act = w;
}

/* one flit arrives per input VC per cycle at most (each input VC is
   fed by exactly one upstream output VC, local VCs by injection), so
   the 1-deep staging slot mirrors the object engine's incoming list */
void k_flush(BState *s)
{
    act_compact(s);
    int na = s->n_act;
    for (int ai = 0; ai < na; ai++) {
        int node = s->act_list[ai];
        if (s->r_nflits[node] <= 0) continue;
        int hi = s->iv_off[node + 1];
        for (int g = s->iv_off[node]; g < hi; g++) {
            if (!s->inc_val[g]) continue;
            int idx = (s->buf_head[g] + s->buf_cnt[g]) % s->cap;
            s->buf_msg[(int64_t)g * s->cap + idx] = s->inc_msg[g];
            s->buf_seq[(int64_t)g * s->cap + idx] = s->inc_seq[g];
            s->buf_cnt[g]++;
            s->inc_val[g] = 0;
        }
    }
}

/* per-flit injection pushes; worm starts (queue pops) happen on the
   Python side before this runs.  Heads that actually entered are
   reported so Message.injected can be stamped. */
/* nodes that should pop a queued message and start a new worm this
   cycle (ascending order = the object engine's scan order); the
   queue-length mirror and worm cursor are pre-adjusted here — the
   caller MUST pop one message per listed node and set src_cur */
int k_start_scan(BState *s, int32_t *out_nodes)
{
    int n = 0, na = s->n_act;
    for (int ai = 0; ai < na; ai++) {
        int node = s->act_list[ai];
        if (s->src_cur[node] < 0 && s->src_qlen[node] > 0
                && s->node_ok[node]) {
            s->src_qlen[node]--;
            s->src_pos[node] = 0;
            out_nodes[n++] = node;
        }
    }
    return n;
}

int k_inject(BState *s, int32_t *out_heads)
{
    int nh = 0, na = s->n_act;
    for (int ai = 0; ai < na; ai++) {
        int node = s->act_list[ai];
        int cur = s->src_cur[node];
        if (cur < 0 || !s->node_ok[node]) continue;
        int g = s->portbase[SLOT(s, node, -1)] + s->inj_vc;
        if (s->buf_cnt[g] + s->inc_val[g] >= s->cap) continue;
        int seq = s->src_pos[node];
        s->inc_msg[g] = cur;
        s->inc_seq[g] = seq;
        s->inc_val[g] = 1;
        s->r_nflits[node]++;
        if (s->m_on && !s->m_flag[node]) {
            s->m_flag[node] = 1;
            s->m_count++;
        }
        if (seq == 0) out_heads[nh++] = cur;
        s->src_pos[node] = seq + 1;
        if (seq + 1 >= s->msg_len[cur]) s->src_cur[node] = -1;
    }
    return nh;
}

static int load_of(BState *s, int node, int pid)
{
    int base = s->portbase[SLOT(s, node, pid)];
    int tot = 0;
    for (int v = 0; v < s->n_vcs; v++) {
        int ovg = base + v;
        int d = s->ov_down[ovg];
        if (d >= 0) tot += s->buf_cnt[d] + s->inc_val[d];
        if (s->ov_owner[ovg] >= 0) tot += 1;
    }
    return tot;
}

/* re-sort the candidate list by (output load, port, vc) — the refresh
   a REFRESH_RESORT decision declares equivalent to re-routing */
static void resort_cands(BState *s, int g, int node)
{
    int n = s->ncand[g];
    if (n < 2) return;
    int32_t *cp = s->cand_p + (int64_t)g * s->maxc;
    int32_t *cv = s->cand_v + (int64_t)g * s->maxc;
    int loads[64];
    for (int i = 0; i < n; i++) loads[i] = load_of(s, node, cp[i]);
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
    resort_cands(s, g, s->iv_node[g]);
}

/* ---- native decision cache ------------------------------------- */

static void mk_key(BState *s, int g, int mid, int32_t *k)
{
    k[0] = s->iv_node[g];
    k[1] = s->msg_dst[mid];
    k[2] = s->key_port ? s->iv_port[g] : 0;
    k[3] = s->key_vc ? s->iv_vc[g] : 0;
    k[4] = s->msg_plen[mid] > s->limit ? 1 : 0;
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
    p += sprintf(p, "%d|%d|%d|%d|%d", node, s->head_msg[g],
                 s->deliver[g] ? 1 : 0, s->stuckf[g] ? 1 : 0, steps);
    int n = s->ncand[g];
    const int32_t *cp = s->cand_p + (int64_t)g * s->maxc;
    const int32_t *cv = s->cand_v + (int64_t)g * s->maxc;
    for (int i = 0; i < n; i++)
        p += sprintf(p, "|%d.%d", cp[i], cv[i]);
    *p++ = '\\n';
    s->dig_used = (int32_t)(p - base);
    s->dstat[3]++;
}

/* shared tail of every C-side decision replay: the decision-latency
   timer, the RESORT re-sort by current loads, stats counters and the
   digest line — the exact effect the object engine's route_stage
   would have had */
static void apply_common(BState *s, int g, int node, int steps,
                         int cycle, int epoch)
{
    s->st[g] = 1;
    s->stuckf[g] = 0;
    int lat = steps * s->cps;
    if (lat < 1) lat = 1;
    s->ready[g] = cycle + lat - 1;
    s->epoch[g] = epoch;
    if (s->hint[g] == 1) resort_cands(s, g, node);
    s->dstat[0]++;
    s->dstat[1] += steps;
    if (steps > s->dstat[2]) s->dstat[2] = steps;
    dig_line(s, node, g, steps);
    if (cycle >= s->ready[g]) s->st[g] = 2;     /* same-cycle ROUTED */
}

/* replay an exact-key cache entry: recorded header-field after-values
   plus the recorded candidate set */
static void apply_hit(BState *s, int g, int node, int mid, int e,
                      int cycle, int epoch)
{
    int32_t *f = s->msg_f + (int64_t)mid * MAXF;
    const int32_t *a = s->ea + (int64_t)e * MAXF;
    for (int i = 0; i < s->n_native; i++) f[i] = a[i];
    s->head_msg[g] = mid;
    s->deliver[g] = s->e_deliver[e];
    s->hint[g] = s->e_hint[e];
    int n = s->e_ncand[e];
    s->ncand[g] = n;
    memcpy(s->cand_p + (int64_t)g * s->maxc,
           s->e_cp + (int64_t)e * s->maxc, n * sizeof(int32_t));
    memcpy(s->cand_v + (int64_t)g * s->maxc,
           s->e_cv + (int64_t)e * s->maxc, n * sizeof(int32_t));
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
    s->head_msg[g] = mid;
    s->deliver[g] = s->ct_deliver[idx];
    s->hint[g] = s->ct_hint[idx];
    int n = s->ct_ncand[idx];
    s->ncand[g] = n;
    memcpy(s->cand_p + (int64_t)g * s->maxc,
           s->ct_cp + (int64_t)idx * CT_CANDS, n * sizeof(int32_t));
    memcpy(s->cand_v + (int64_t)g * s->maxc,
           s->ct_cv + (int64_t)idx * CT_CANDS, n * sizeof(int32_t));
    apply_common(s, g, node, s->ct_steps[idx], cycle, epoch);
    return 1;
}

int k_try_hit(BState *s, int g, int cycle, int epoch)
{
    if (!s->n_native) return 0;
    int hd = s->buf_head[g];
    int mid = s->buf_msg[(int64_t)g * s->cap + hd];
    if (s->buf_seq[(int64_t)g * s->cap + hd] != 0) return 0;
    if (ct_lookup(s, g, s->iv_node[g], mid, cycle, epoch)) return 1;
    int32_t k[KEYW];
    mk_key(s, g, mid, k);
    int e = probe(s, k);
    if (e < 0) return 0;
    apply_hit(s, g, s->iv_node[g], mid, e, cycle, epoch);
    return 1;
}

/* record a Python-computed decision: append its digest line (fresh
   decisions only — refreshes are silent) and, when cacheable, install
   a cache entry keyed by the field values *before* the decision ran
   (b0..b4), capturing the after-values from the mirrors the caller
   just synced. */
void k_note(BState *s, int g, int steps, int32_t b0, int32_t b1,
            int32_t b2, int32_t b3, int32_t b4, int cacheable,
            int fresh)
{
    int node = s->iv_node[g];
    if (fresh) dig_line(s, node, g, steps);
    if (!cacheable || !s->n_native || s->n_ent >= s->ent_cap) return;
    int mid = s->head_msg[g];
    int32_t k[KEYW];
    k[0] = node;
    k[1] = s->msg_dst[mid];
    k[2] = s->key_port ? s->iv_port[g] : 0;
    k[3] = s->key_vc ? s->iv_vc[g] : 0;
    k[4] = s->msg_plen[mid] > s->limit ? 1 : 0;
    k[5] = b0; k[6] = b1; k[7] = b2; k[8] = b3; k[9] = b4;
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
    s->e_deliver[e] = s->deliver[g];
    s->e_steps[e] = steps;
    s->e_hint[e] = s->hint[g];
    int n = s->ncand[g];
    s->e_ncand[e] = n;
    memcpy(s->e_cp + (int64_t)e * s->maxc,
           s->cand_p + (int64_t)g * s->maxc, n * sizeof(int32_t));
    memcpy(s->e_cv + (int64_t)e * s->maxc,
           s->cand_v + (int64_t)g * s->maxc, n * sizeof(int32_t));
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

/* Route stage over active-list indices >= start_ai (the list is
   sorted ascending at cycle start, so this is ascending node order),
   mirroring Router.route_stage gid-for-gid: idle heads are served
   from the clean table or the native cache, ROUTING timers expire,
   RESORT-hinted blocked heads are re-sorted.  The scan stops at the
   first input VC that needs Python — a cache miss, a REROUTE/
   epoch-stale refresh, a hop-budget overflow or a stuck decision
   about to fire — stores the cursor in scan_ai and returns that gid
   plus the node's remaining occupied gids (Python finishes the node
   in order, applies any stuck purges, and resumes at scan_ai+1, so
   purge effects are visible to later nodes exactly as in the object
   engine).  Returns 0 when every remaining node was handled, or
   -(ai+1) when the digest buffer needs a flush before act_list[ai]
   can be processed. */
int k_route_scan(BState *s, int start_ai, int cycle, int epoch,
                 int adaptive, int32_t *need)
{
    int na = s->n_act;
    for (int ai = start_ai; ai < na; ai++) {
        int node = s->act_list[ai];
        if (s->r_nflits[node] <= 0) continue;
        if (s->dig_on && s->dig_used > s->dig_cap - RESERVE_BYTES)
            return -(ai + 1);
        int lo = s->iv_off[node], hi = s->iv_off[node + 1];
        for (int g = lo; g < hi; g++) {
            if (!s->buf_cnt[g]) continue;
            uint8_t st = s->st[g];
            int hard = 0;
            if (st == 0) {
                int hd = s->buf_head[g];
                int mid = s->buf_msg[(int64_t)g * s->cap + hd];
                if (s->buf_seq[(int64_t)g * s->cap + hd] != 0
                        || (s->hop_budget
                            && s->msg_plen[mid] > s->hop_budget)) {
                    hard = 1;
                } else if (ct_lookup(s, g, node, mid, cycle, epoch)) {
                    /* served from the clean table */
                } else if (!s->n_native || s->n_ent >= s->ent_cap) {
                    hard = 1;
                } else {
                    int32_t k[KEYW];
                    mk_key(s, g, mid, k);
                    int e = probe(s, k);
                    if (e < 0) hard = 1;
                    else apply_hit(s, g, node, mid, e, cycle, epoch);
                }
            } else if (st == 2) {
                if (s->epoch[g] != epoch) hard = 1;
                else if (adaptive && s->hint[g] == 0) hard = 1;
                else if (s->stuckf[g]) hard = 1;
                else if (adaptive && s->hint[g] == 1)
                    resort_cands(s, g, node);
            } else if (st == 1 && cycle >= s->ready[g]) {
                if (s->stuckf[g]) hard = 1;
                else s->st[g] = 2;
            }
            if (hard) {
                int n = 0;
                for (int g2 = g; g2 < hi; g2++)
                    if (s->buf_cnt[g2]) need[n++] = g2;
                s->scan_ai = ai;
                return n;
            }
        }
    }
    return 0;
}

static void do_grant(BState *s, int node, int g, int ovg, int is_head)
{
    int hd = s->buf_head[g];
    int msg = s->buf_msg[(int64_t)g * s->cap + hd];
    int seq = s->buf_seq[(int64_t)g * s->cap + hd];
    s->buf_head[g] = (hd + 1) % s->cap;
    s->buf_cnt[g]--;
    s->r_nflits[node]--;
    s->counters[0]++;                      /* load token */
    int out_pid = s->iv_port[ovg];
    int is_tail = (seq == s->msg_len[msg] - 1);
    if (is_head) {
        s->ov_owner[ovg] = g;
        s->st[g] = 3;
        s->o_port[g] = out_pid;
        s->o_vc[g] = s->iv_vc[ovg];
        if (s->n_native) {
            /* the declared departure effect, applied in grant order:
               path-length bump + the terminal-commit rule */
            s->msg_plen[msg]++;
            if (s->term_on) {
                int v = s->msg_f[(int64_t)msg * MAXF + s->vn_f];
                if (v >= 0 && v < 8 && out_pid == s->term_port[v])
                    s->msg_f[(int64_t)msg * MAXF + s->term_f] = 1;
            }
        }
        if (s->trace_on) {
            int64_t e = s->counters[3]++;
            s->ev_kind[e] = 0;
            s->ev_node[e] = node;
            s->ev_msg[e] = msg;
            s->ev_a[e] = out_pid;
            s->ev_b[e] = s->iv_vc[ovg];
        }
    }
    if (is_tail) {
        s->ov_owner[ovg] = -1;
        s->st[g] = 0;                      /* release_worm */
        s->head_msg[g] = -1;
        s->ncand[g] = 0;
        s->deliver[g] = 0;
        s->stuckf[g] = 0;
        s->hint[g] = 0;
        s->o_port[g] = -100;
        s->o_vc[g] = -100;
    }
    if (out_pid == -1) {                   /* local ejection */
        if (is_tail) {
            int64_t e = s->counters[3]++;
            s->ev_kind[e] = 1;
            s->ev_node[e] = node;
            s->ev_msg[e] = msg;
            s->ev_a[e] = seq;
            s->ev_b[e] = 0;
        } else
            s->counters[2]++;              /* non-tail flit delivered */
    } else {
        int d = s->ov_down[ovg];
        int dn = s->iv_node[d];
        s->inc_msg[d] = msg;
        s->inc_seq[d] = seq;
        s->inc_val[d] = 1;
        s->r_nflits[dn]++;
        activate(s, dn);
        if (s->m_on) {
            s->link_cnt[ovg]++;            /* directed per-link flits */
            if (!s->m_flag[dn]) {
                s->m_flag[dn] = 1;
                s->m_count++;
            }
        }
        s->counters[1]++;                  /* flit hop */
    }
}

/* The allocation walk, node-ascending: collect at most one request per
   input VC, arbitrate per output port with the global round-robin
   pointers, grant.  In-cycle credit chains (a grant freeing space a
   later node consumes) fall out of the sequential order, exactly as in
   the object engine. */
int k_alloc(BState *s)
{
    int moved = 0, na = s->n_act;
    s->counters[1] = 0;
    s->counters[2] = 0;
    s->counters[3] = 0;
    for (int ai = 0; ai < na; ai++) {
        int node = s->act_list[ai];
        if (s->r_nflits[node] <= 0 || !s->node_ok[node]) continue;
        int lo = s->iv_off[node], hi = s->iv_off[node + 1];
        int nreq = 0;
        for (int g = lo; g < hi; g++) {
            if (!s->buf_cnt[g]) continue;
            uint8_t st = s->st[g];
            if (st == 2) {
                if (s->deliver[g]) {
                    s->req_g[nreq] = g;
                    s->req_ov[nreq] = s->portbase[SLOT(s, node, -1)]
                                      + s->iv_vc[g];
                    s->req_head[nreq++] = 1;
                    continue;
                }
                int n = s->ncand[g];
                int32_t *cp = s->cand_p + (int64_t)g * s->maxc;
                int32_t *cv = s->cand_v + (int64_t)g * s->maxc;
                for (int i = 0; i < n; i++) {
                    int pid = cp[i], vc = cv[i];
                    if (pid != -1 && !s->alive[SLOT(s, node, pid)])
                        continue;
                    int ovg = s->portbase[SLOT(s, node, pid)] + vc;
                    if (s->ov_owner[ovg] >= 0) continue;
                    if (pid != -1) {
                        int d = s->ov_down[ovg];
                        if (s->buf_cnt[d] + s->inc_val[d] >= s->cap)
                            continue;
                    }
                    s->req_g[nreq] = g;
                    s->req_ov[nreq] = ovg;
                    s->req_head[nreq++] = 1;
                    break;               /* one request per input VC */
                }
            } else if (st == 3) {
                int op = s->o_port[g];
                if (op == -1) {
                    s->req_g[nreq] = g;
                    s->req_ov[nreq] = s->portbase[SLOT(s, node, -1)]
                                      + s->o_vc[g];
                    s->req_head[nreq++] = 0;
                } else if (op >= 0 && s->alive[SLOT(s, node, op)]) {
                    int ovg = s->portbase[SLOT(s, node, op)] + s->o_vc[g];
                    int d = s->ov_down[ovg];
                    if (s->buf_cnt[d] + s->inc_val[d] < s->cap) {
                        s->req_g[nreq] = g;
                        s->req_ov[nreq] = ovg;
                        s->req_head[nreq++] = 0;
                    }
                }
            }
        }
        if (!nreq) continue;
        if (nreq == 1) {
            int g = s->req_g[0];
            int out_pid = s->iv_port[s->req_ov[0]];
            s->rr_ptr[out_pid + 1] =
                (int64_t)s->iv_port[g] * 64 + s->iv_vc[g] + 1;
            do_grant(s, node, g, s->req_ov[0], s->req_head[0]);
            moved++;
            continue;
        }
        /* group by output port via per-port chains (single pass);
           insertion order is ascending gid = ascending arbiter key,
           and ports are visited ascending (LOCAL = -1 first) */
        int headp[66], tailp[66], nextp[66];
        for (int op = 0; op <= s->max_pid + 1; op++) headp[op] = -1;
        for (int i = 0; i < nreq; i++) {
            int op = s->iv_port[s->req_ov[i]] + 1;
            if (headp[op] < 0) headp[op] = i;
            else nextp[tailp[op]] = i;
            nextp[i] = -1;
            tailp[op] = i;
        }
        for (int op = 0; op <= s->max_pid + 1; op++) {
            int first = headp[op];
            if (first < 0) continue;
            int chosen = first;
            int64_t ptr = s->rr_ptr[op];
            for (int i = first; i >= 0; i = nextp[i]) {
                int g2 = s->req_g[i];
                int64_t key = (int64_t)s->iv_port[g2] * 64 + s->iv_vc[g2];
                if (key >= ptr) { chosen = i; break; }
            }
            int g = s->req_g[chosen];
            s->rr_ptr[op] =
                (int64_t)s->iv_port[g] * 64 + s->iv_vc[g] + 1;
            do_grant(s, node, g, s->req_ov[chosen], s->req_head[chosen]);
            moved++;
        }
    }
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
        int c = s->buf_cnt[g], h = s->buf_head[g], w = 0;
        for (int i = 0; i < c; i++) {
            int idx = (h + i) % s->cap;
            if (s->buf_msg[(int64_t)g * s->cap + idx] == msg) {
                dropped++;
            } else {
                int widx = (h + w) % s->cap;
                s->buf_msg[(int64_t)g * s->cap + widx] =
                    s->buf_msg[(int64_t)g * s->cap + idx];
                s->buf_seq[(int64_t)g * s->cap + widx] =
                    s->buf_seq[(int64_t)g * s->cap + idx];
                w++;
            }
        }
        s->buf_cnt[g] = w;
        if (s->inc_val[g] && s->inc_msg[g] == msg) {
            s->inc_val[g] = 0;
            dropped++;
        }
        if (s->head_msg[g] == msg) {
            if (s->o_port[g] > -100) {
                int ovg = s->portbase[SLOT(s, node, s->o_port[g])]
                          + s->o_vc[g];
                if (s->ov_owner[ovg] == g) s->ov_owner[ovg] = -1;
            }
            s->st[g] = 0;
            s->head_msg[g] = -1;
            s->ncand[g] = 0;
            s->deliver[g] = 0;
            s->stuckf[g] = 0;
            s->hint[g] = 0;
            s->o_port[g] = -100;
            s->o_vc[g] = -100;
        }
    }
    s->r_nflits[node] -= dropped;
    s->counters[0]++;
    return dropped;
}

/* purge one message from every router — the object engine's
   drop_message walk over all routers, without n_nodes Python->C
   round-trips (each per-node purge bumps the load token exactly as
   the per-router Router.purge_message does) */
int k_purge_all(BState *s, int msg)
{
    int dropped = 0;
    for (int node = 0; node < s->n_nodes; node++)
        dropped += k_purge(s, node, msg);
    return dropped;
}
""".replace("RESERVE_BYTES", str(DIG_RESERVE))


_CACHED: "tuple | None | bool" = False   # False = not attempted yet


def _cache_dir() -> str:
    override = os.environ.get("REPRO_BATCHED_CACHE")
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-batched")


def _build_so() -> str | None:
    """Compile the kernel (or reuse the hash-cached build); returns the
    shared-object path or None when no compiler is available."""
    cc = (os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
          or shutil.which("clang"))
    if cc is None:
        return None
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
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
        except (OSError, subprocess.CalledProcessError):
            continue
    return None


def load_kernel():
    """(ffi, lib) for the compiled kernel, or None when unavailable
    (no cffi, no C compiler, or ``REPRO_BATCHED_NO_CC`` set).  The
    result is memoized per process."""
    global _CACHED
    if _CACHED is not False:
        return _CACHED
    _CACHED = None
    if os.environ.get("REPRO_BATCHED_NO_CC"):
        return None
    try:
        import cffi
    except ImportError:      # pragma: no cover - cffi ships with the env
        return None
    so = _build_so()
    if so is None:
        return None
    try:
        ffi = cffi.FFI()
        ffi.cdef(_CDEF)
        lib = ffi.dlopen(so)
    except Exception:        # pragma: no cover - corrupt cache etc.
        return None
    _CACHED = (ffi, lib)
    return _CACHED


def kernel_available() -> bool:
    return load_kernel() is not None
