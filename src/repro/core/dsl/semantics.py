"""Semantic analysis for the rule DSL.

Turns a parsed :class:`~repro.core.dsl.nodes.Program` into an
:class:`AnalyzedProgram`: named types become
:class:`~repro.core.dsl.domains.Domain` objects, constants are folded,
variables/inputs/functions/events get resolved signatures, and every
rule is type-checked.  Compile-time parameters (node degree, mesh
extents, hypercube dimension, adaptivity width ...) are supplied as a
``params`` mapping and behave like ``CONSTANT`` declarations, letting
one ruleset be compiled for many configurations — exactly how the paper
sweeps ``d`` and ``a`` for ROUTE_C.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from . import nodes as N
from .domains import (BOOL, Domain, IntRange, SetDomain, SymbolDomain,
                      UnionDomain, Value)
from .errors import SemanticError

# ---------------------------------------------------------------------------
# Resolved entities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarInfo:
    name: str
    index_domains: tuple[Domain, ...]
    domain: Domain
    init: Value
    line: int = field(default=0, compare=False)

    @property
    def is_array(self) -> bool:
        return bool(self.index_domains)

    @property
    def n_cells(self) -> int:
        n = 1
        for d in self.index_domains:
            n *= d.size
        return n

    @property
    def total_bits(self) -> int:
        """Register bits this variable occupies (paper Section 5)."""
        return self.domain.bit_width * self.n_cells


@dataclass(frozen=True)
class InputInfo:
    name: str
    index_domains: tuple[Domain, ...]
    domain: Domain
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class FunctionInfo:
    name: str
    arg_domains: tuple[Domain, ...]
    domain: Domain
    fcfb: str | None
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class EventInfo:
    name: str
    arg_domains: tuple[Domain, ...]
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BaseInfo:
    """A resolved rule base (ON ...) or subbase (SUBBASE ...)."""

    name: str
    params: tuple[tuple[str, Domain], ...]
    returns: Domain | None
    rules: tuple[N.Rule, ...]
    is_subbase: bool
    line: int = field(default=0, compare=False)


@dataclass
class AnalyzedProgram:
    constants: dict[str, Value]
    types: dict[str, Domain]
    symbol_owner: dict[str, SymbolDomain]
    variables: dict[str, VarInfo]
    inputs: dict[str, InputInfo]
    functions: dict[str, FunctionInfo]
    events: dict[str, EventInfo]
    rulebases: dict[str, BaseInfo]
    subbases: dict[str, BaseInfo]
    # Back-reference to the Analyzer that produced this program; the
    # compiler reuses its resolution helpers (iteration_space,
    # infer_domain, const_eval).  Set by Analyzer.analyze().
    analyzer: "Analyzer | None" = None

    def register_bits(self) -> int:
        """Total variable/register bits of the whole program."""
        return sum(v.total_bits for v in self.variables.values())


# ---------------------------------------------------------------------------
# Scopes: name -> binding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Binding:
    kind: str      # 'const' | 'symbol' | 'var' | 'input' | 'param'
    #                | 'function' | 'subbase' | 'type'
    domain: Domain | None = None
    value: Value | None = None


class Scope:
    """Chained name-resolution scope."""

    def __init__(self, analyzed: AnalyzedProgram,
                 locals_: dict[str, Binding] | None = None,
                 parent: "Scope | None" = None):
        self.analyzed = analyzed
        self.locals = locals_ or {}
        self.parent = parent

    def child(self, locals_: dict[str, Binding]) -> "Scope":
        return Scope(self.analyzed, locals_, self)

    def lookup(self, name: str) -> Binding | None:
        scope: Scope | None = self
        while scope is not None:
            if name in scope.locals:
                return scope.locals[name]
            scope = scope.parent
        a = self.analyzed
        if name in a.constants:
            v = a.constants[name]
            dom: Domain
            if isinstance(v, int):
                dom = IntRange(v, v)
            elif isinstance(v, str):
                owner = a.symbol_owner.get(v)
                dom = owner if owner else SymbolDomain((v,))
            else:
                raise SemanticError(f"constant {name} has unsupported value {v!r}")
            return Binding("const", dom, v)
        if name in a.types:
            return Binding("type", a.types[name])
        if name in a.symbol_owner:
            return Binding("symbol", a.symbol_owner[name], name)
        if name in a.variables:
            return Binding("var", a.variables[name].domain)
        if name in a.inputs:
            return Binding("input", a.inputs[name].domain)
        if name in a.functions:
            return Binding("function", a.functions[name].domain)
        if name in a.subbases:
            return Binding("subbase", a.subbases[name].returns)
        return None


# ---------------------------------------------------------------------------
# Analyzer
# ---------------------------------------------------------------------------


class Analyzer:
    def __init__(self, program: N.Program, params: Mapping[str, Value] | None = None):
        self.program = program
        self.params = dict(params or {})
        self.analyzed = AnalyzedProgram(
            constants={}, types={"bool": BOOL},
            symbol_owner={s: BOOL for s in BOOL.symbols},
            variables={}, inputs={}, functions={}, events={},
            rulebases={}, subbases={})

    # -- constant folding ------------------------------------------------

    def const_eval(self, expr: N.Expr) -> Value:
        """Evaluate an expression that must be compile-time constant."""
        a = self.analyzed
        if isinstance(expr, N.Num):
            return expr.value
        if isinstance(expr, N.Name):
            if expr.ident in a.constants:
                return a.constants[expr.ident]
            if expr.ident in a.symbol_owner:
                return expr.ident
            raise SemanticError(f"{expr.ident!r} is not a constant", expr.line)
        if isinstance(expr, N.UnOp) and expr.op == "-":
            v = self.const_eval(expr.operand)
            if not isinstance(v, int):
                raise SemanticError("unary minus on non-integer", expr.line)
            return -v
        if isinstance(expr, N.BinOp):
            lv = self.const_eval(expr.left)
            rv = self.const_eval(expr.right)
            if isinstance(lv, frozenset) or isinstance(rv, frozenset):
                if not (isinstance(lv, frozenset) and isinstance(rv, frozenset)):
                    raise SemanticError("set operation on non-set constant", expr.line)
                if expr.op == "UNION":
                    return lv | rv
                if expr.op == "INTER":
                    return lv & rv
                if expr.op == "DIFF":
                    return lv - rv
                raise SemanticError(f"operator {expr.op} not defined on sets", expr.line)
            if not (isinstance(lv, int) and isinstance(rv, int)):
                raise SemanticError(f"operator {expr.op} needs integer constants",
                                    expr.line)
            if expr.op == "+":
                return lv + rv
            if expr.op == "-":
                return lv - rv
            if expr.op == "*":
                return lv * rv
            if expr.op == "MOD":
                if rv == 0:
                    raise SemanticError("MOD by zero in constant expression", expr.line)
                return lv % rv
            raise SemanticError(f"unknown operator {expr.op}", expr.line)
        if isinstance(expr, N.SetLit):
            return frozenset(self.const_eval(i) for i in expr.items)
        raise SemanticError("expression is not compile-time constant",
                            getattr(expr, "line", 0))

    # -- type resolution ---------------------------------------------------

    def _register_symbols(self, dom: SymbolDomain, line: int) -> SymbolDomain:
        owner = self.analyzed.symbol_owner
        for s in dom.symbols:
            existing = owner.get(s)
            if existing is not None and existing.symbols != dom.symbols:
                raise SemanticError(
                    f"symbol {s!r} already belongs to domain {existing}", line)
        # Reuse an identical previously-registered domain object.
        for s in dom.symbols:
            existing = owner.get(s)
            if existing is not None:
                return existing
        for s in dom.symbols:
            owner[s] = dom
        return dom

    def resolve_type(self, texpr: N.TypeExpr) -> Domain:
        a = self.analyzed
        if isinstance(texpr, N.RangeType):
            lo = self.const_eval(texpr.lo)
            hi = self.const_eval(texpr.hi)
            if not (isinstance(lo, int) and isinstance(hi, int)):
                raise SemanticError("range bounds must be integers", texpr.line)
            return IntRange(lo, hi)
        if isinstance(texpr, N.EnumType):
            dom = SymbolDomain(texpr.symbols)
            return self._register_symbols(dom, texpr.line)
        if isinstance(texpr, N.NamedType):
            if texpr.name in a.types:
                return a.types[texpr.name]
            if texpr.name in a.constants:
                v = a.constants[texpr.name]
                if isinstance(v, int):
                    # "IN dirs" with dirs = n means the index range 0..n-1
                    return IntRange(0, v - 1)
            raise SemanticError(f"unknown type {texpr.name!r}", texpr.line)
        if isinstance(texpr, N.SetOfType):
            return SetDomain(self.resolve_type(texpr.base))
        if isinstance(texpr, N.UnionType):
            return UnionDomain(tuple(self.resolve_type(p) for p in texpr.parts))
        raise SemanticError(f"unhandled type expression {texpr!r}",
                            getattr(texpr, "line", 0))

    # -- declarations --------------------------------------------------------

    def analyze(self) -> AnalyzedProgram:
        a = self.analyzed
        for name, v in self.params.items():
            a.constants[name] = v
        for decl in self.program.decls:
            if isinstance(decl, N.ConstDecl):
                self._analyze_const(decl)
            elif isinstance(decl, N.VarDecl):
                self._analyze_var(decl)
            elif isinstance(decl, N.InputDecl):
                self._analyze_input(decl)
            elif isinstance(decl, N.FunctionDecl):
                self._analyze_function(decl)
            elif isinstance(decl, N.EventDecl):
                self._analyze_event(decl)
            else:  # pragma: no cover - parser emits only the above
                raise SemanticError(f"unknown declaration {decl!r}", decl.line)
        for sb in self.program.subbases:
            self._analyze_base(sb, is_subbase=True)
        for rb in self.program.rulebases:
            self._analyze_base(rb, is_subbase=False)
        # Type-check rule bodies once all signatures are known.
        for info in list(a.subbases.values()) + list(a.rulebases.values()):
            self._check_base(info)
        a.analyzer = self
        return a

    def _fresh_name(self, name: str, line: int) -> None:
        a = self.analyzed
        for table in (a.constants, a.types, a.variables, a.inputs,
                      a.functions, a.events, a.rulebases, a.subbases):
            if name in table:
                raise SemanticError(f"name {name!r} already declared", line)
        if name in a.symbol_owner:
            raise SemanticError(f"name {name!r} collides with a symbol", line)

    def _analyze_const(self, decl: N.ConstDecl) -> None:
        a = self.analyzed
        if decl.name in self.params:
            # compile-time parameter overrides the declared default
            return
        self._fresh_name(decl.name, decl.line)
        if isinstance(decl.value, N.EnumType):
            dom = SymbolDomain(decl.value.symbols, name=decl.name)
            dom = self._register_symbols(dom, decl.line)
            if dom.name is None:  # reused anonymous domain
                dom = SymbolDomain(dom.symbols, name=decl.name)
            a.types[decl.name] = dom
        else:
            a.constants[decl.name] = self.const_eval(decl.value)

    def _analyze_var(self, decl: N.VarDecl) -> None:
        self._fresh_name(decl.name, decl.line)
        idx = tuple(self.resolve_type(t) for t in decl.indices)
        dom = self.resolve_type(decl.type)
        init: Value = dom.default()
        if decl.init is not None:
            init = dom.check(self.const_eval(decl.init), f"INIT of {decl.name}")
        self.analyzed.variables[decl.name] = VarInfo(
            decl.name, idx, dom, init, decl.line)

    def _analyze_input(self, decl: N.InputDecl) -> None:
        self._fresh_name(decl.name, decl.line)
        idx = tuple(self.resolve_type(t) for t in decl.indices)
        dom = self.resolve_type(decl.type)
        self.analyzed.inputs[decl.name] = InputInfo(decl.name, idx, dom, decl.line)

    def _analyze_function(self, decl: N.FunctionDecl) -> None:
        self._fresh_name(decl.name, decl.line)
        args = tuple(self.resolve_type(t) for t in decl.arg_types)
        dom = self.resolve_type(decl.type)
        self.analyzed.functions[decl.name] = FunctionInfo(
            decl.name, args, dom, decl.fcfb, decl.line)

    def _analyze_event(self, decl: N.EventDecl) -> None:
        self._fresh_name(decl.name, decl.line)
        args = tuple(self.resolve_type(t) for t in decl.arg_types)
        self.analyzed.events[decl.name] = EventInfo(decl.name, args, decl.line)

    def _analyze_base(self, base: N.RuleBase | N.Subbase, is_subbase: bool) -> None:
        self._fresh_name(base.name, base.line)
        params = tuple((p.name, self.resolve_type(p.type)) for p in base.params)
        returns = self.resolve_type(base.returns) if base.returns else None
        info = BaseInfo(base.name, params, returns, base.rules, is_subbase, base.line)
        if is_subbase:
            self.analyzed.subbases[base.name] = info
        else:
            self.analyzed.rulebases[base.name] = info

    # -- rule body type checking -------------------------------------------

    def _check_base(self, info: BaseInfo) -> None:
        scope = Scope(self.analyzed, {n: Binding("param", d) for n, d in info.params})
        for rule in info.rules:
            dom = self.infer_domain(rule.premise, scope)
            if dom is not BOOL:
                raise SemanticError(
                    f"premise of rule in {info.name!r} is not boolean", rule.line)
            # A top-level chain of EXISTS quantifiers exports its bound
            # variables (witnesses) to the conclusion — the paper's NARA
            # rule relies on this ("!send(indir, vc, i, vc)").
            witness_scope = scope
            prem = rule.premise
            while isinstance(prem, N.Quant) and prem.kind == "EXISTS":
                values, _ = self.iteration_space(prem.collection, witness_scope)
                witness_scope = witness_scope.child({prem.var: Binding(
                    "param", self._values_domain(values, prem.line))})
                prem = prem.body
            for cmd in rule.conclusion:
                self._check_command(cmd, witness_scope, info)

    def _check_command(self, cmd: N.Command, scope: Scope, info: BaseInfo) -> None:
        a = self.analyzed
        if isinstance(cmd, N.Assign):
            tgt = cmd.target
            if isinstance(tgt, N.Name):
                var = a.variables.get(tgt.ident)
                if var is None:
                    raise SemanticError(f"assignment to unknown variable "
                                        f"{tgt.ident!r}", cmd.line)
                if var.is_array:
                    raise SemanticError(f"array variable {tgt.ident!r} needs "
                                        f"indices", cmd.line)
            elif isinstance(tgt, N.Index):
                var = a.variables.get(tgt.ident)
                if var is None:
                    raise SemanticError(f"assignment to unknown variable "
                                        f"{tgt.ident!r}", cmd.line)
                if len(tgt.args) != len(var.index_domains):
                    raise SemanticError(f"{tgt.ident!r} expects "
                                        f"{len(var.index_domains)} indices", cmd.line)
                for arg in tgt.args:
                    self.infer_domain(arg, scope)
            else:  # pragma: no cover
                raise SemanticError("invalid assignment target", cmd.line)
            vdom = self.infer_domain(cmd.value, scope)
            self._check_compatible(var.domain, vdom, cmd.line,
                                   f"assignment to {var.name}")
        elif isinstance(cmd, N.Emit):
            # An emission may target a declared EVENT (leaves the rule
            # machine) or a rule base of this program (internal event,
            # paper: "Asynchronity can be explicitly allowed by the
            # generation of internal events").
            ev = a.events.get(cmd.event)
            if ev is not None:
                arg_domains = ev.arg_domains
            else:
                rb = a.rulebases.get(cmd.event)
                if rb is None:
                    raise SemanticError(f"unknown event {cmd.event!r}",
                                        cmd.line)
                arg_domains = tuple(d for _, d in rb.params)
            if len(cmd.args) != len(arg_domains):
                raise SemanticError(f"event {cmd.event!r} expects "
                                    f"{len(arg_domains)} arguments", cmd.line)
            for arg, dom in zip(cmd.args, arg_domains):
                adom = self.infer_domain(arg, scope)
                self._check_compatible(dom, adom, cmd.line,
                                       f"argument of !{cmd.event}")
        elif isinstance(cmd, N.Return):
            if info.returns is None:
                raise SemanticError(f"RETURN in {info.name!r}, which declares "
                                    f"no RETURNS type", cmd.line)
            vdom = self.infer_domain(cmd.value, scope)
            self._check_compatible(info.returns, vdom, cmd.line,
                                   f"RETURN of {info.name}")
        elif isinstance(cmd, N.ForallCmd):
            if cmd.var:
                values, _ = self.iteration_space(cmd.collection, scope)
                inner = scope.child({cmd.var: Binding(
                    "param", self._values_domain(values, cmd.line))})
            else:
                inner = scope
            for c in cmd.body:
                self._check_command(c, inner, info)
        elif isinstance(cmd, N.CallSubbase):
            sb = a.subbases.get(cmd.ident)
            if sb is None:
                raise SemanticError(f"unknown subbase {cmd.ident!r}", cmd.line)
            if len(cmd.args) != len(sb.params):
                raise SemanticError(f"subbase {cmd.ident!r} expects "
                                    f"{len(sb.params)} arguments", cmd.line)
            for arg, (_, dom) in zip(cmd.args, sb.params):
                adom = self.infer_domain(arg, scope)
                self._check_compatible(dom, adom, cmd.line,
                                       f"argument of {cmd.ident}")
        else:  # pragma: no cover
            raise SemanticError(f"unknown command {cmd!r}", cmd.line)

    # -- expression typing ------------------------------------------------

    def _check_compatible(self, expected: Domain, actual: Domain,
                          line: int, what: str) -> None:
        """Accept if the value spaces can overlap (runtime checks the rest)."""
        if expected is actual:
            return
        exp_vals = None
        try:
            if expected.size * actual.size <= 4096:
                exp_vals = set(expected.values()) & set(actual.values())
        except Exception:  # pragma: no cover - degenerate domains
            exp_vals = None
        if exp_vals is not None and not exp_vals:
            int_like = (isinstance(expected, IntRange)
                        and isinstance(actual, IntRange))
            if not int_like:
                raise SemanticError(
                    f"{what}: domain {actual} cannot produce a value of "
                    f"{expected}", line)

    def _values_domain(self, values: list[Value], line: int) -> Domain:
        ints = [v for v in values if isinstance(v, int)]
        syms = [v for v in values if isinstance(v, str)]
        if ints and syms:
            raise SemanticError("mixed int/symbol iteration space", line)
        if ints:
            return IntRange(min(ints), max(ints))
        if syms:
            owner = self.analyzed.symbol_owner.get(syms[0])
            if owner is not None:
                return owner
            return SymbolDomain(tuple(syms))
        raise SemanticError("empty iteration space", line)

    def iteration_space(self, coll: N.Expr, scope: Scope
                        ) -> tuple[list[Value], bool]:
        """Values a quantifier variable ranges over, plus whether a
        runtime membership guard ``var IN coll`` is required (the case
        of a *computed* set such as ``minimal(dx, dy)``)."""
        a = self.analyzed
        if isinstance(coll, N.Name):
            b = scope.lookup(coll.ident)
            if b is None:
                raise SemanticError(f"unknown name {coll.ident!r}", coll.line)
            if b.kind == "const" and isinstance(b.value, int):
                return list(range(b.value)), False
            if b.kind == "type":
                return list(b.domain.values()), False
            if b.domain is not None and isinstance(b.domain, SetDomain):
                return list(b.domain.base.values()), True
            raise SemanticError(
                f"{coll.ident!r} is not iterable (need a constant, a type, "
                f"or a set-valued expression)", coll.line)
        if isinstance(coll, N.SetLit):
            try:
                return [self.const_eval(i) for i in coll.items], False
            except SemanticError:
                dom = self.infer_domain(coll, scope)
                assert isinstance(dom, SetDomain)
                return list(dom.base.values()), True
        dom = self.infer_domain(coll, scope)
        if isinstance(dom, SetDomain):
            return list(dom.base.values()), True
        raise SemanticError("quantifier collection is not a set", coll.line)

    def infer_domain(self, expr: N.Expr, scope: Scope) -> Domain:
        a = self.analyzed
        if isinstance(expr, N.Num):
            return IntRange(expr.value, expr.value)
        if isinstance(expr, N.Name):
            b = scope.lookup(expr.ident)
            if b is None:
                raise SemanticError(f"unknown name {expr.ident!r}", expr.line)
            if b.kind == "var" and a.variables[expr.ident].is_array:
                raise SemanticError(f"array variable {expr.ident!r} used "
                                    f"without indices", expr.line)
            if b.kind == "type":
                # a type name used as a value denotes the full symbol set
                assert b.domain is not None
                return SetDomain(b.domain)
            if b.domain is None:
                raise SemanticError(f"{expr.ident!r} has no value here", expr.line)
            return b.domain
        if isinstance(expr, N.Index):
            return self._infer_index(expr, scope)
        if isinstance(expr, N.SetLit):
            item_domains = [self.infer_domain(i, scope) for i in expr.items]
            if not item_domains:
                return SetDomain(IntRange(0, 0))
            return SetDomain(self._merge_domains(item_domains, expr.line))
        if isinstance(expr, N.UnOp):
            d = self.infer_domain(expr.operand, scope)
            if not isinstance(d, IntRange):
                raise SemanticError("unary minus needs an integer", expr.line)
            return IntRange(-d.hi, -d.lo)
        if isinstance(expr, N.BinOp):
            ld = self.infer_domain(expr.left, scope)
            rd = self.infer_domain(expr.right, scope)
            if expr.op in ("UNION", "INTER", "DIFF"):
                if not (isinstance(ld, SetDomain) and isinstance(rd, SetDomain)):
                    raise SemanticError(f"{expr.op} needs set operands", expr.line)
                base = self._merge_domains([ld.base, rd.base], expr.line)
                return SetDomain(base)
            if not (isinstance(ld, IntRange) and isinstance(rd, IntRange)):
                raise SemanticError(f"operator {expr.op!r} needs integer "
                                    f"operands", expr.line)
            if expr.op == "+":
                return IntRange(ld.lo + rd.lo, ld.hi + rd.hi)
            if expr.op == "-":
                return IntRange(ld.lo - rd.hi, ld.hi - rd.lo)
            if expr.op == "*":
                corners = [ld.lo * rd.lo, ld.lo * rd.hi, ld.hi * rd.lo,
                           ld.hi * rd.hi]
                return IntRange(min(corners), max(corners))
            if expr.op == "MOD":
                if rd.lo <= 0:
                    raise SemanticError("MOD needs a positive divisor domain",
                                        expr.line)
                return IntRange(0, rd.hi - 1)
            raise SemanticError(f"unknown operator {expr.op!r}", expr.line)
        if isinstance(expr, (N.Compare, N.InSet, N.And, N.Or, N.Not, N.Quant)):
            self._check_bool(expr, scope)
            return BOOL
        raise SemanticError(f"unhandled expression {expr!r}",
                            getattr(expr, "line", 0))

    def _merge_domains(self, doms: list[Domain], line: int) -> Domain:
        first = doms[0]
        if all(d is first for d in doms):
            return first
        if all(isinstance(d, IntRange) for d in doms):
            return IntRange(min(d.lo for d in doms),  # type: ignore[union-attr]
                            max(d.hi for d in doms))  # type: ignore[union-attr]
        if all(isinstance(d, SymbolDomain) for d in doms):
            bases = {d.symbols for d in doms}  # type: ignore[union-attr]
            if len(bases) == 1:
                return first
            syms: list[str] = []
            for d in doms:
                for s in d.values():
                    if s not in syms:
                        syms.append(s)  # type: ignore[arg-type]
            return SymbolDomain(tuple(syms))
        raise SemanticError("cannot merge incompatible domains", line)

    def _check_bool(self, expr: N.Expr, scope: Scope) -> None:
        if isinstance(expr, N.Compare):
            ld = self.infer_domain(expr.left, scope)
            rd = self.infer_domain(expr.right, scope)
            if expr.op in ("<", "<=", ">", ">="):
                if not (isinstance(ld, IntRange) and isinstance(rd, IntRange)):
                    raise SemanticError(f"ordering comparison {expr.op!r} needs "
                                        f"integers", expr.line)
            else:
                self._check_compatible(ld, rd, expr.line, "comparison")
        elif isinstance(expr, N.InSet):
            self.infer_domain(expr.item, scope)
            cdom = self.infer_domain(expr.collection, scope)
            if not isinstance(cdom, SetDomain):
                raise SemanticError("IN needs a set on the right", expr.line)
        elif isinstance(expr, N.And) or isinstance(expr, N.Or):
            for t in expr.terms:
                if self.infer_domain(t, scope) is not BOOL:
                    raise SemanticError("AND/OR needs boolean operands",
                                        expr.line)
        elif isinstance(expr, N.Not):
            if self.infer_domain(expr.operand, scope) is not BOOL:
                raise SemanticError("NOT needs a boolean operand", expr.line)
        elif isinstance(expr, N.Quant):
            values, _ = self.iteration_space(expr.collection, scope)
            inner = scope.child({expr.var: Binding(
                "param", self._values_domain(values, expr.line))})
            if self.infer_domain(expr.body, inner) is not BOOL:
                raise SemanticError("quantifier body must be boolean", expr.line)

    def _infer_index(self, expr: N.Index, scope: Scope) -> Domain:
        a = self.analyzed
        name = expr.ident
        if name in a.variables:
            var = a.variables[name]
            if len(expr.args) != len(var.index_domains):
                raise SemanticError(f"{name!r} expects "
                                    f"{len(var.index_domains)} indices",
                                    expr.line)
            for arg in expr.args:
                self.infer_domain(arg, scope)
            return var.domain
        if name in a.inputs:
            inp = a.inputs[name]
            if len(expr.args) != len(inp.index_domains):
                raise SemanticError(f"input {name!r} expects "
                                    f"{len(inp.index_domains)} indices",
                                    expr.line)
            for arg in expr.args:
                self.infer_domain(arg, scope)
            return inp.domain
        if name in a.functions:
            fn = a.functions[name]
            if len(expr.args) != len(fn.arg_domains):
                raise SemanticError(f"function {name!r} expects "
                                    f"{len(fn.arg_domains)} arguments",
                                    expr.line)
            for arg, dom in zip(expr.args, fn.arg_domains):
                adom = self.infer_domain(arg, scope)
                self._check_compatible(dom, adom, expr.line,
                                       f"argument of {name}")
            return fn.domain
        if name in a.subbases:
            sb = a.subbases[name]
            if sb.returns is None:
                raise SemanticError(f"subbase {name!r} returns nothing and "
                                    f"cannot be used in an expression",
                                    expr.line)
            if len(expr.args) != len(sb.params):
                raise SemanticError(f"subbase {name!r} expects "
                                    f"{len(sb.params)} arguments", expr.line)
            for arg, (_, dom) in zip(expr.args, sb.params):
                adom = self.infer_domain(arg, scope)
                self._check_compatible(dom, adom, expr.line,
                                       f"argument of {name}")
            return sb.returns
        raise SemanticError(f"unknown indexed name {name!r}", expr.line)


def analyze(program: N.Program,
            params: Mapping[str, Value] | None = None) -> AnalyzedProgram:
    """Run semantic analysis; raises :class:`SemanticError` on failure."""
    return Analyzer(program, params).analyze()


def analyze_source(source: str,
                   params: Mapping[str, Value] | None = None) -> AnalyzedProgram:
    from .parser import parse
    return analyze(parse(source), params)
