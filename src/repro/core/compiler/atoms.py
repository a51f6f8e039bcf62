"""Premise-atom extraction and rule-table index construction.

The ARON rule interpreter (paper Section 4.3) reduces rule selection to
one table lookup: "The relevant features of the input variables are
extracted in the premise processing unit such that rule interpretation
is reduced to a simple table lookup in the RBR-kernel."

We mirror that design.  A ground premise is a boolean combination of
*atoms* (comparisons and membership tests).  Every non-constant maximal
value expression occurring in an atom is a *signal*.  Each signal is
wired into the table index in one of two ways:

* **direct** — the signal's encoded value becomes part of the index
  ("their current values are used as part of the table index
  directly"), chosen when the signal's bit width does not exceed the
  number of atoms that mention it; or
* **per-atom bits** — each remaining atom becomes a 1-bit feature
  computed by an FCFB (comparator, membership tester ...).

An atom whose signals are all direct needs no FCFB and no bit: its
truth is a function of index components and is folded into the table.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dsl import nodes as N
from ..dsl.domains import BOOL, Domain, SetDomain, Value
from ..dsl.errors import CompileError
from ..dsl.semantics import Analyzer, BaseInfo, Binding, Scope
from .expand import GroundRule

# Signals wider than this are never made direct (a 13-bit raw value
# would multiply the table size by 8192).
MAX_DIRECT_BITS = 12


def expr_names(e: N.Expr) -> frozenset[str]:
    """The identifiers an expression reads: every name and indexed
    reference in it (inputs, registers, parameters, functions and
    subbases alike)."""
    if isinstance(e, N.Name):
        return frozenset((e.ident,))
    if isinstance(e, N.Index):
        return frozenset((e.ident,)).union(*map(expr_names, e.args))
    if isinstance(e, N.SetLit):
        parts = e.items
    elif isinstance(e, (N.BinOp, N.Compare)):
        parts = (e.left, e.right)
    elif isinstance(e, N.UnOp):
        parts = (e.operand,)
    elif isinstance(e, N.InSet):
        parts = (e.item, e.collection)
    elif isinstance(e, (N.And, N.Or)):
        parts = e.terms
    elif isinstance(e, N.Not):
        parts = (e.operand,)
    else:
        return frozenset()
    return frozenset().union(*map(expr_names, parts))


def make_scope(analyzer: Analyzer, base: BaseInfo) -> Scope:
    return Scope(analyzer.analyzed,
                 {n: Binding("param", d) for n, d in base.params})


def try_const(analyzer: Analyzer, expr: N.Expr) -> tuple[bool, Value | None]:
    """(True, value) when expr is compile-time constant."""
    try:
        return True, analyzer.const_eval(expr)
    except Exception:
        return False, None


def normalize_premise(analyzer: Analyzer, expr: N.Expr, scope: Scope) -> N.Expr:
    """Wrap bare boolean-valued leaves as ``expr = true`` atoms so that
    downstream passes only meet And/Or/Not/Compare/InSet nodes."""
    if isinstance(expr, N.And):
        return N.And(line=expr.line, terms=tuple(
            normalize_premise(analyzer, t, scope) for t in expr.terms))
    if isinstance(expr, N.Or):
        return N.Or(line=expr.line, terms=tuple(
            normalize_premise(analyzer, t, scope) for t in expr.terms))
    if isinstance(expr, N.Not):
        return N.Not(line=expr.line,
                     operand=normalize_premise(analyzer, expr.operand, scope))
    if isinstance(expr, (N.Compare, N.InSet)):
        return expr
    dom = analyzer.infer_domain(expr, scope)
    if dom is BOOL:
        return N.Compare(line=expr.line, op="=", left=expr,
                         right=N.Name(line=expr.line, ident="true"))
    raise CompileError("premise leaf is not boolean", getattr(expr, "line", 0))


@dataclass(frozen=True)
class AtomInfo:
    """One distinct ground atom with its classification."""

    atom: N.Expr                       # Compare or InSet node
    signals: tuple[N.Expr, ...]        # non-constant participants
    kind: str                          # see _classify_atom
    const_truth: bool | None = None    # for atoms with no signals


@dataclass(frozen=True)
class DirectFeature:
    """A signal fed into the index as its raw encoded value."""

    signal: N.Expr
    domain: Domain

    @property
    def size(self) -> int:
        return self.domain.size


@dataclass(frozen=True)
class BitFeature:
    """A 1-bit index component: the truth of one atom."""

    atom: N.Expr
    fcfb: str

    @property
    def size(self) -> int:
        return 2


Feature = DirectFeature | BitFeature


def collect_atoms(premise: N.Expr, out: list[N.Expr]) -> None:
    if isinstance(premise, (N.And, N.Or)):
        for t in premise.terms:
            collect_atoms(t, out)
    elif isinstance(premise, N.Not):
        collect_atoms(premise.operand, out)
    elif isinstance(premise, (N.Compare, N.InSet)):
        if premise not in out:
            out.append(premise)
    else:  # pragma: no cover - normalize_premise guarantees atoms
        raise CompileError(f"unexpected premise node {premise!r}")


class AtomAnalysis:
    """Classifies the atoms of a rule base and chooses index features."""

    def __init__(self, analyzer: Analyzer, base: BaseInfo,
                 ground_rules: list[GroundRule]):
        self.analyzer = analyzer
        self.base = base
        self.scope = make_scope(analyzer, base)
        self.ground_rules = [
            GroundRule(premise=normalize_premise(analyzer, g.premise, self.scope),
                       commands=g.commands, source_index=g.source_index,
                       witness=g.witness, origins=g.origins, line=g.line)
            for g in ground_rules]
        self.atoms: dict[N.Expr, AtomInfo] = {}
        self.features: list[Feature] = []
        self.direct_signals: dict[N.Expr, DirectFeature] = {}
        self.bit_atoms: dict[N.Expr, BitFeature] = {}
        self._analyze()

    # -- classification -----------------------------------------------------

    def _classify_atom(self, atom: N.Expr) -> AtomInfo:
        an = self.analyzer
        if isinstance(atom, N.Compare):
            lc, lv = try_const(an, atom.left)
            rc, rv = try_const(an, atom.right)
            if lc and rc:
                truth = _compare(atom.op, lv, rv, atom.line)
                return AtomInfo(atom, (), "const", truth)
            if lc or rc:
                sig = atom.right if lc else atom.left
                return AtomInfo(atom, (sig,), "cmp_const")
            return AtomInfo(atom, (atom.left, atom.right), "cmp_two")
        if isinstance(atom, N.InSet):
            ic, iv = try_const(an, atom.item)
            cc, cv = try_const(an, atom.collection)
            if ic and cc:
                assert isinstance(cv, frozenset)
                return AtomInfo(atom, (), "const", iv in cv)
            if cc:
                return AtomInfo(atom, (atom.item,), "member_const")
            if ic:
                # const item in a computed set: signal is the set expr
                return AtomInfo(atom, (atom.collection,), "member_computed")
            return AtomInfo(atom, (atom.item, atom.collection), "member_two")
        raise CompileError(f"not an atom: {atom!r}",
                           getattr(atom, "line", 0))  # pragma: no cover

    def _analyze(self) -> None:
        all_atoms: list[N.Expr] = []
        for g in self.ground_rules:
            collect_atoms(g.premise, all_atoms)
        for atom in all_atoms:
            self.atoms[atom] = self._classify_atom(atom)

        # how many atoms mention each signal
        signal_atoms: dict[N.Expr, list[AtomInfo]] = {}
        for info in self.atoms.values():
            for sig in info.signals:
                signal_atoms.setdefault(sig, []).append(info)

        # pass 1: direct signals
        for sig, infos in signal_atoms.items():
            dom = self.analyzer.infer_domain(sig, self.scope)
            width = dom.bit_width
            if width <= MAX_DIRECT_BITS and width <= len(infos):
                self.direct_signals[sig] = DirectFeature(sig, dom)

        # pass 2: remaining atoms become bit features
        for atom, info in self.atoms.items():
            if info.kind == "const":
                continue
            if all(s in self.direct_signals for s in info.signals):
                continue  # derived from index components, no bit needed
            self.bit_atoms[atom] = BitFeature(atom, _atom_fcfb(info))

        directs = sorted(self.direct_signals.values(),
                         key=lambda f: repr(f.signal))
        bits = sorted(self.bit_atoms.values(), key=lambda f: repr(f.atom))
        self.features = list(directs) + list(bits)

    # -- index helpers ---------------------------------------------------------

    @property
    def n_entries(self) -> int:
        n = 1
        for f in self.features:
            n *= f.size
        return n

    def index_of(self, feature_values: list[int]) -> int:
        """Mixed-radix index of one combination of feature codes."""
        idx = 0
        for f, v in zip(self.features, feature_values):
            idx = idx * f.size + v
        return idx

    def _eval(self, e: N.Expr, direct_vals: dict[N.Expr, Value],
              bit_vals: dict[N.Expr, bool]) -> bool:
        if isinstance(e, N.And):
            return all(self._eval(t, direct_vals, bit_vals) for t in e.terms)
        if isinstance(e, N.Or):
            return any(self._eval(t, direct_vals, bit_vals) for t in e.terms)
        if isinstance(e, N.Not):
            return not self._eval(e.operand, direct_vals, bit_vals)
        info = self.atoms[e]
        if info.kind == "const":
            assert info.const_truth is not None
            return info.const_truth
        if e in bit_vals:
            return bit_vals[e]
        # derived atom: every signal is direct
        def side(x: N.Expr) -> Value:
            if x in direct_vals:
                return direct_vals[x]
            ok, v = try_const(self.analyzer, x)
            if not ok:  # pragma: no cover - classification guarantees
                raise CompileError(f"unresolvable atom side {x!r}")
            return v  # type: ignore[return-value]

        if isinstance(e, N.Compare):
            return _compare(e.op, side(e.left), side(e.right), e.line)
        assert isinstance(e, N.InSet)
        item = side(e.item)
        coll = side(e.collection)
        if isinstance(coll, SetDomain):  # pragma: no cover - defensive
            raise CompileError("set domain used as value")
        assert isinstance(coll, frozenset)
        return item in coll


def _compare(op: str, lv: Value, rv: Value, line: int) -> bool:
    if op == "=":
        return lv == rv
    if op == "/=":
        return lv != rv
    if not (isinstance(lv, int) and isinstance(rv, int)):
        raise CompileError(f"ordering comparison on non-integers "
                           f"{lv!r} {op} {rv!r}", line)
    if op == "<":
        return lv < rv
    if op == "<=":
        return lv <= rv
    if op == ">":
        return lv > rv
    if op == ">=":
        return lv >= rv
    raise CompileError(f"unknown comparison {op!r}", line)  # pragma: no cover


def _atom_fcfb(info: AtomInfo) -> str:
    """FCFB kind implementing one bit-feature atom (paper vocabulary)."""
    if info.kind == "cmp_two":
        op = info.atom.op  # type: ignore[attr-defined]
        return ("magnitude comparator" if op in ("<", "<=", ">", ">=")
                else "equality comparator")
    if info.kind == "cmp_const":
        op = info.atom.op  # type: ignore[attr-defined]
        return ("compare with constant" if op in ("<", "<=", ">", ">=", "=", "/=")
                else "compare with constant")
    if info.kind in ("member_const", "member_computed", "member_two"):
        return "membership testing"
    raise CompileError(f"atom kind {info.kind} has no FCFB")  # pragma: no cover
