"""Rule-table generation (the off-line part of the ARON approach).

"The rule base itself is compiled off-line to a completely filled rule
table where conflicts are resolved and gaps are eliminated, i.e., for
each possible combination of input values there is exactly one table
entry which holds the corresponding conclusion." (paper Section 4.3)

Conflict resolution: when several rules apply we take the textually
first one (for witness-split rules, the lowest candidate value), which
both interpreters share, making compiled and reference semantics
bit-identical.  Gaps (combinations no rule covers) map to an explicit
no-op entry.

Evaluation: the table is filled over its mixed-radix index space in
blocks of :data:`BLOCK_ENTRIES` consecutive indices.  Per block, each
index feature becomes a code column (the digits of ``index_of``), and
each distinct atom becomes one boolean column, computed once: a bit
feature is its own code column, a constant atom is broadcast, and an
atom derived from direct signals is an array comparison or ``isin``
over their decoded values (a lookup table over the signal codes only
where an operand is set-valued).  A premise is And/Or/Not over those
columns; rules then fill, in textual order, the entries still holding
``NO_RULE``.
"""

from __future__ import annotations

import itertools
import operator
from functools import reduce

import numpy as np

from ..dsl import nodes as N
from ..dsl.domains import SetDomain, Value
from ..dsl.errors import CompileError
from .atoms import AtomAnalysis, DirectFeature

# Completely-filled tables above this size would not be sensible
# hardware; the compiler refuses rather than silently exploding.
MAX_TABLE_ENTRIES = 1 << 24

NO_RULE = -1

#: index-space entries evaluated at once; bounds every column to
#: BLOCK_ENTRIES elements whatever the table size
BLOCK_ENTRIES = 1 << 16

_OPS = {"=": operator.eq, "/=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def generate_table(analysis: AtomAnalysis) -> np.ndarray:
    """Dense table: entry index -> ground-rule index (NO_RULE for gaps)."""
    n = analysis.n_entries
    if n > MAX_TABLE_ENTRIES:
        raise CompileError(
            f"rule table would need {n} entries (> {MAX_TABLE_ENTRIES}); "
            f"restructure the rule base (paper Section 4.3: 'structuring "
            f"and using the premise configuration allow small rule tables')")
    table = np.full(n, NO_RULE, dtype=np.int32)
    columns = _AtomColumns(analysis)
    premises = [rule.premise for rule in analysis.ground_rules]
    for start in range(0, n, BLOCK_ENTRIES):
        out = table[start:start + BLOCK_ENTRIES]
        truth = columns.block(start, out.size)
        free = np.ones(out.size, dtype=bool)
        for ri, premise in enumerate(premises):
            hit = _premise_column(premise, truth) & free
            out[hit] = ri
            free &= ~hit
            if not free.any():
                break
    return table


def _premise_column(e: N.Expr, truth: dict) -> np.ndarray | np.bool_:
    if isinstance(e, N.And):
        return reduce(operator.and_,
                      (_premise_column(t, truth) for t in e.terms), np.True_)
    if isinstance(e, N.Or):
        return reduce(operator.or_,
                      (_premise_column(t, truth) for t in e.terms), np.False_)
    if isinstance(e, N.Not):
        return ~_premise_column(e.operand, truth)
    return truth[e]


class _AtomColumns:
    """Per-analysis decode tables from which block columns are built."""

    def __init__(self, analysis: AtomAnalysis):
        self.analysis = analysis
        self.value_ids: dict[Value, int] = {}
        directs = analysis.direct_signals.values()
        self.set_signals = {f.signal for f in directs
                            if isinstance(f.domain, SetDomain)}
        # direct signal -> id of each code's decoded value (equality
        # and membership compare these ids)
        self.id_tables = {
            f.signal: np.array([self._id(f.domain.decode(c))
                                for c in range(f.size)], dtype=np.int64)
            for f in directs if f.signal not in self.set_signals}
        self.luts: dict[N.Expr, np.ndarray] = {}

    def _id(self, value: Value) -> int:
        return self.value_ids.setdefault(value, len(self.value_ids))

    def block(self, start: int, m: int) -> dict:
        """Atom -> truth column over entries [start, start + m), from
        their feature codes (the mixed-radix digits of the index)."""
        rest = np.arange(start, start + m, dtype=np.int64)
        codes, bits = {}, {}
        for f in reversed(self.analysis.features):
            rest, code = np.divmod(rest, f.size)
            if isinstance(f, DirectFeature):
                codes[f.signal] = code
            else:
                bits[f.atom] = code != 0
        truth = {}
        for atom, info in self.analysis.atoms.items():
            if info.kind == "const":
                truth[atom] = np.bool_(info.const_truth)
            elif atom in bits:
                truth[atom] = bits[atom]
            else:
                truth[atom] = self._derived(atom, info.signals, codes)
        return truth

    def _derived(self, atom: N.Expr, signals: tuple, codes: dict):
        """An atom whose signals are all direct features."""
        if isinstance(atom, N.InSet) and atom.item not in self.set_signals:
            if atom.collection in self.set_signals:
                return self._member_bit(atom.item, atom.collection, codes)
            return np.isin(self._ids(atom.item, codes),
                           [self._id(v) for v in self._const(atom.collection)])
        signals = list(dict.fromkeys(signals))
        if any(s in self.set_signals for s in signals):
            doms = [self.analysis.direct_signals[s].domain for s in signals]
            return self._lut(atom, signals, doms)[
                reduce(lambda acc, sd: acc * sd[1].size + codes[sd[0]],
                       zip(signals, doms), 0)]
        assert isinstance(atom, N.Compare)
        side = self._ids if atom.op in ("=", "/=") else self._ints
        return _OPS[atom.op](side(atom.left, codes), side(atom.right, codes))

    def _member_bit(self, item: N.Expr, coll: N.Expr, codes: dict):
        """``item IN coll`` for a set-valued signal: its code is a bit
        vector over its base values (``SetDomain.encode``), so test the
        item's bit."""
        ids = self._ids(item, codes)
        base = self.analysis.direct_signals[coll].domain.base
        pos = {self._id(v): i for i, v in enumerate(base.values())}
        bit = np.full(len(self.value_ids), -1, dtype=np.int64)
        bit[list(pos)] = list(pos.values())
        b = bit[ids]
        return (b >= 0) & ((codes[coll] >> np.maximum(b, 0)) & 1).astype(bool)

    def _ids(self, x: N.Expr, codes: dict):
        if x in self.id_tables:
            return self.id_tables[x][codes[x]]
        return self._id(self._const(x))

    def _ints(self, x: N.Expr, codes: dict):
        # ordering operands are integer ranges (the analyzer checks)
        if x in codes:
            return codes[x] + self.analysis.direct_signals[x].domain.lo
        return self._const(x)

    def _const(self, x: N.Expr) -> Value:
        return self.analysis.analyzer.const_eval(x)

    def _lut(self, atom: N.Expr, signals: list, doms: list) -> np.ndarray:
        """Truth of a set-valued atom at every combination of its
        signals' codes, first signal most significant."""
        if atom not in self.luts:
            self.luts[atom] = np.array([
                self.analysis._eval(
                    atom, {s: d.decode(c)
                           for s, d, c in zip(signals, doms, combo)}, {})
                for combo in itertools.product(*(range(d.size)
                                                 for d in doms))],
                dtype=bool)
        return self.luts[atom]


def table_stats(table: np.ndarray, n_rules: int) -> dict:
    """Coverage statistics used by tests and the cost report."""
    hit = int((table != NO_RULE).sum())
    used = set(int(r) for r in table[table != NO_RULE])
    return {
        "entries": int(table.size),
        "covered": hit,
        "gap_entries": int(table.size) - hit,
        "rules_used": len(used),
        "rules_total": n_rules,
        "dead_rules": sorted(set(range(n_rules)) - used),
    }
