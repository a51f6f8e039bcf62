"""Compiled fast-path decision kernel (software mirror of Figure 5).

The hardware pipeline makes a routing decision in one pass: premise
processing extracts the feature codes, their concatenation indexes the
completely-filled rule table, and conclusion processing drives the
selected entry's actions.  The AST oracle re-walks the premise ASTs
through :func:`eval_expr` on every invocation; this module lowers each
rule base **once** into generated Python functions, so the hot path
performs no AST traversal at all:

* one generated function computes the whole feature-code tuple, every
  :class:`DirectFeature` signal and :class:`BitFeature` atom inlined;
* the mixed-radix strides of the feature index are prebaked, so
  ``index = sum(stride[i] * code[i])``;
* a per-kernel memo maps the (small, finite) feature-code tuple straight
  to the table entry, skipping the index arithmetic and the numpy
  lookup on repeats;
* ground-rule conclusions are generated the same way; conclusions that
  are effect-free constants (``RETURN(east)``) are resolved at compile
  time and replayed without any evaluation.

Every shape the generator does not inline — rare expression nodes,
operands of an unexpected class, callable input sources, error paths,
conclusions that call a subbase — runs through the oracle itself
(:func:`eval_expr`, :func:`gather_effects`), so the generated code keeps
its semantics bit-for-bit: evaluation order, coercions and error
behaviour included, which the table/AST equivalence suites verify.

The lowering is cached on the
:class:`~repro.core.compiler.compile.CompiledRuleBase`, so every engine
built from one compiled program (one per router in a rule-driven
network) shares it; only the memos and call environments are per engine.
"""

from __future__ import annotations

from functools import partial

from ..dsl import nodes as N
from ..dsl.domains import Value
from ..dsl.errors import EvalError
from ..dsl.semantics import AnalyzedProgram
from ..interpreter.evaluator import Env, eval_expr, to_bool
from ..interpreter.execution import Emission, InvocationResult, _Effects, \
    apply_effects, gather_effects
from .atoms import DirectFeature
from .tablegen import NO_RULE

#: memoisation is skipped for index spaces larger than this (the memo
#: key space equals the table entry count, so this bounds memory)
MAX_MEMO_ENTRIES = 1 << 16


# ---------------------------------------------------------------------------
# source-level code generation
# ---------------------------------------------------------------------------
# The generated source inlines the dictionary reads of the happy path and
# defers every unusual case (leaked params, callable input sources,
# bool-typed operands, dict subclasses, all error paths) to the AST
# oracle or to a helper that replicates eval_expr verbatim.  Speed comes
# from collapsing call chains, never from skipping a check: any operand
# that is not of the statically expected concrete class is re-dispatched
# to the slow path.

def _norm_bool(v: Value) -> Value:
    return "true" if v is True else "false" if v is False else v


def _oracle(e: N.Expr):
    """``env -> eval_expr(e, env)``; the name is looked up per call, so
    a wrapped ``eval_expr`` (a call counter, say) sees every fallback."""
    return lambda env: eval_expr(e, env)


def _h_tb(v, line):
    return to_bool(v, line)


def _h_bb(v):
    raise EvalError(f"expected a boolean, got {v!r}")


def _h_eqn(l, r, neg):
    l = _norm_bool(l)
    r = _norm_bool(r)
    return (l != r) if neg else (l == r)


def _h_ord(op, l, r, line):
    if type(l) is bool or type(r) is bool:
        l = _norm_bool(l)
        r = _norm_bool(r)
    if not (isinstance(l, int) and isinstance(r, int)):
        raise EvalError("ordering comparison on non-integers", line)
    if op == "<":
        return l < r
    if op == "<=":
        return l <= r
    if op == ">":
        return l > r
    return l >= r


def _h_arith(op, l, r, line):
    if not (isinstance(l, int) and isinstance(r, int)):
        raise EvalError(f"operator {op!r} needs integers, got "
                        f"{l!r} and {r!r}", line)
    if op == "+":
        return l + r
    if op == "-":
        return l - r
    if op == "*":
        return l * r
    if r == 0:
        raise EvalError("MOD by zero", line)
    return l % r


def _h_setop(op, l, r, line):
    if not (isinstance(l, frozenset) and isinstance(r, frozenset)):
        raise EvalError(f"{op} needs set operands", line)
    if op == "UNION":
        return l | r
    if op == "INTER":
        return l & r
    return l - r


def _h_neg(v, line):
    if not isinstance(v, int):
        raise EvalError("unary minus on non-integer", line)
    return -v


def _h_in(item, coll, line):
    if not isinstance(coll, frozenset):
        raise EvalError("IN needs a set on the right", line)
    return item in coll


def _h_nofn(name, line):
    raise EvalError(f"no implementation registered for function {name!r}",
                    line)


def _h_mret(line):
    raise EvalError("multiple RETURN commands fired in one invocation", line)


_HELPERS = {"_tb": _h_tb, "_bb": _h_bb, "_eqn": _h_eqn, "_ord": _h_ord,
            "_arith": _h_arith, "_setop": _h_setop, "_neg": _h_neg,
            "_in": _h_in, "_nofn": _h_nofn, "_mret": _h_mret,
            "_Emission": Emission}

_PY_SETOP = {"UNION": "|", "INTER": "&", "DIFF": "-"}


def _pure_expr(e: N.Expr, a: AnalyzedProgram) -> bool:
    """True when re-evaluating ``e`` is free of observable effects and
    cheap enough to repeat on a fallback path: anything except function
    and subbase invocations (registered impls may be impure)."""
    if isinstance(e, (N.Num, N.Name)):
        return True
    if isinstance(e, N.Index):
        if e.ident in a.functions or e.ident in a.subbases:
            return False
        return all(_pure_expr(x, a) for x in e.args)
    if isinstance(e, N.SetLit):
        return all(_pure_expr(x, a) for x in e.items)
    if isinstance(e, (N.UnOp, N.Not)):
        return _pure_expr(e.operand, a)
    if isinstance(e, (N.BinOp, N.Compare)):
        return _pure_expr(e.left, a) and _pure_expr(e.right, a)
    if isinstance(e, N.InSet):
        return _pure_expr(e.item, a) and _pure_expr(e.collection, a)
    if isinstance(e, (N.And, N.Or)):
        return all(_pure_expr(t, a) for t in e.terms)
    if isinstance(e, N.Quant):
        return _pure_expr(e.collection, a) and _pure_expr(e.body, a)
    return False


class _SrcGen:
    """Emits statements computing expressions and gathering conclusion
    effects; complex or rare node shapes fall back to :func:`eval_expr`
    for that subtree.

    ``param_safe=True`` asserts that at runtime ``env.params`` holds
    exactly the bound names — true for top-level rule bases, which are
    only ever invoked with their declared argument bindings.  Subbases
    can inherit extra parameters from the calling base (``env.bind``
    merges), so their generated code keeps the ``params`` probe that
    mirrors ``eval_expr``'s name-resolution order.
    """

    def __init__(self, analyzed: AnalyzedProgram, bound: frozenset[str],
                 param_safe: bool = False):
        self.a = analyzed
        self.bound = bound
        self.psafe = param_safe
        self.ns: dict = dict(_HELPERS)
        self.lines: list[str] = []
        self.indent = 1
        self.k = 0
        # common-subexpression cache for scalar register/input reads:
        # within one generated function nothing mutates either store
        # (conclusions gather effects against the pre-state), so a
        # repeated read returns the first read's temp.  Only temps
        # assigned at top level (indent 1) are cached — a temp defined
        # inside an And/Or branch does not dominate later uses.
        self.cse: dict[tuple[str, str], str] = {}
        self.returns = 0

    def put(self, s: str) -> None:
        self.lines.append("    " * self.indent + s)

    def tmp(self) -> str:
        self.k += 1
        return f"t{self.k}"

    def bindobj(self, obj, prefix: str = "o") -> str:
        self.k += 1
        name = f"_{prefix}{self.k}"
        self.ns[name] = obj
        return name

    def totmp(self, src: str) -> str:
        if src.isidentifier():
            return src
        t = self.tmp()
        self.put(f"{t} = {src}")
        return t

    def fallback(self, e: N.Expr) -> str:
        return self.totmp(f"{self.bindobj(_oracle(e), 'f')}(env)")

    def coerced(self, e: N.Expr, line: int) -> str:
        t = self.totmp(self.expr(e))
        self.put(f"if {t}.__class__ is not bool: {t} = _tb({t}, {line})")
        return t

    def _tuple_src(self, parts: list[str]) -> str:
        return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"

    def _simple_src(self, e: N.Expr) -> str | None:
        """Source for side-effect-free leaf args (safe to re-evaluate on
        the fallback path), or None if the arg is not that simple."""
        a = self.a
        if isinstance(e, N.Num):
            return repr(e.value)
        if isinstance(e, N.Name):
            name = e.ident
            if name in self.bound:
                return f"p[{name!r}]"
            if name in a.symbol_owner:
                return f"{name!r}" if self.psafe \
                    else f"p.get({name!r}, {name!r})"
            if name in a.constants:
                c = self.bindobj(a.constants[name], "c")
                return c if self.psafe else f"p.get({name!r}, {c})"
        return None

    def expr(self, e: N.Expr) -> str:
        a = self.a
        if isinstance(e, N.Num):
            return repr(e.value)
        if isinstance(e, N.Name):
            name = e.ident
            if name in self.bound:
                return f"p[{name!r}]"
            if name in a.symbol_owner:
                if self.psafe:
                    return f"{name!r}"
                return f"p.get({name!r}, {name!r})"
            if name in a.constants:
                c = self.bindobj(a.constants[name], "c")
                return c if self.psafe else f"p.get({name!r}, {c})"
            if name in a.types:
                c = self.bindobj(frozenset(a.types[name].values()), "c")
                return c if self.psafe else f"p.get({name!r}, {c})"
            if name in a.variables and not a.variables[name].is_array:
                cached = self.cse.get(("reg", name))
                if cached is not None:
                    return cached
                if self.psafe:
                    t = self.tmp()
                    self.put(f"{t} = regs.read({name!r})")
                else:
                    t = self.tmp()
                    self.put(f"{t} = p.get({name!r})")
                    self.put(f"if {t} is None:")
                    self.put(f"    {t} = regs.read({name!r})")
                if self.indent == 1:
                    self.cse[("reg", name)] = t
                return t
            if name in a.inputs and not a.inputs[name].index_domains:
                cached = self.cse.get(("in", name))
                if cached is not None:
                    return cached
                slow = self.bindobj(_oracle(e), "f")
                t = self.tmp()
                if self.psafe:
                    # m is non-None here: the generated function bails
                    # to the oracle up front when it is not
                    self.put(f"{t} = m.get({name!r})")
                    self.put(f"if {t} is None or isinstance({t}, dict):")
                    self.put(f"    {t} = {slow}(env)")
                else:
                    self.put(f"{t} = p.get({name!r})")
                    self.put(f"if {t} is None:")
                    self.put(f"    {t} = m.get({name!r})")
                    self.put(f"    if {t} is None or isinstance({t}, dict):")
                    self.put(f"        {t} = {slow}(env)")
                if self.indent == 1:
                    self.cse[("in", name)] = t
                return t
            return self.fallback(e)
        if isinstance(e, N.Index):
            name = e.ident
            if name in a.variables:
                parts = [self.expr(x) for x in e.args]
                return self.totmp(
                    f"regs.read({name!r}, {self._tuple_src(parts)})")
            if name in a.inputs and a.inputs[name].index_domains:
                # args are evaluated to temps first, and must be pure:
                # the oracle re-evaluates them when the inline read misses
                if not all(_pure_expr(x, a) for x in e.args):
                    return self.fallback(e)
                parts = [self._simple_src(x) or self.totmp(self.expr(x))
                         for x in e.args]
                idx_src = self._tuple_src(parts)
                read_key = ("ini", name, idx_src)
                cached = self.cse.get(read_key)
                if cached is not None:
                    return cached
                slow = self.bindobj(_oracle(e), "f")
                w = self.cse.get(("im", name))
                if w is None:
                    w = self.tmp()
                    self.put(f"{w} = m.get({name!r})")
                    if self.indent == 1:
                        self.cse[("im", name)] = w
                t = self.tmp()
                self.put(f"if {w}.__class__ is dict:")
                self.put(f"    {t} = {w}.get({idx_src})")
                self.put(f"    if {t} is None:")
                self.put(f"        {t} = {slow}(env)")
                self.put("else:")
                self.put(f"    {t} = {slow}(env)")
                if self.indent == 1:
                    self.cse[read_key] = t
                return t
            if name in a.functions:
                parts = [self.expr(x) for x in e.args]
                fn_t = self.tmp()
                self.put(f"{fn_t} = fns.get({name!r})")
                self.put(f"if {fn_t} is None: _nofn({name!r}, {e.line})")
                return self.totmp(f"{fn_t}({', '.join(parts)})")
            return self.fallback(e)
        if isinstance(e, N.SetLit):
            # symbol/constant items fold only when param-safe (a leaked
            # outer param could shadow them otherwise, like eval_expr)
            if all(isinstance(i, N.Num) or
                   (self.psafe and isinstance(i, N.Name)
                    and i.ident not in self.bound
                    and (i.ident in a.symbol_owner or i.ident in a.constants))
                   for i in e.items):
                value = frozenset(
                    i.value if isinstance(i, N.Num)
                    else i.ident if i.ident in a.symbol_owner
                    else a.constants[i.ident]
                    for i in e.items)
                return self.bindobj(value, "c")
            parts = [self.expr(x) for x in e.items]
            return self.totmp(f"frozenset({self._tuple_src(parts)})")
        if isinstance(e, N.UnOp):
            t1 = self.totmp(self.expr(e.operand))
            return self.totmp(f"-{t1} if {t1}.__class__ is int "
                              f"else _neg({t1}, {e.line})")
        if isinstance(e, N.BinOp):
            op = e.op
            l = self.totmp(self.expr(e.left))
            r = self.totmp(self.expr(e.right))
            if op in _PY_SETOP:
                return self.totmp(
                    f"{l} {_PY_SETOP[op]} {r} if {l}.__class__ is frozenset "
                    f"and {r}.__class__ is frozenset "
                    f"else _setop({op!r}, {l}, {r}, {e.line})")
            if op in ("+", "-", "*"):
                return self.totmp(
                    f"{l} {op} {r} if ({l}.__class__ is int and "
                    f"{r}.__class__ is int) "
                    f"else _arith({op!r}, {l}, {r}, {e.line})")
            if op == "MOD":
                return self.totmp(
                    f"{l} % {r} if ({l}.__class__ is int and "
                    f"{r}.__class__ is int and {r} != 0) "
                    f"else _arith('MOD', {l}, {r}, {e.line})")
            return self.fallback(e)
        if isinstance(e, N.Compare):
            op = e.op
            if op not in ("=", "/=", "<", "<=", ">", ">="):
                return self.fallback(e)
            l = self.totmp(self.expr(e.left))
            r = self.totmp(self.expr(e.right))
            if op in ("=", "/="):
                pyop = "==" if op == "=" else "!="
                return self.totmp(
                    f"({l} {pyop} {r}) if ({l}.__class__ is not bool and "
                    f"{r}.__class__ is not bool) "
                    f"else _eqn({l}, {r}, {op == '/='})")
            return self.totmp(
                f"({l} {op} {r}) if ({l}.__class__ is int and "
                f"{r}.__class__ is int) "
                f"else _ord({op!r}, {l}, {r}, {e.line})")
        if isinstance(e, N.InSet):
            i = self.totmp(self.expr(e.item))
            c = self.totmp(self.expr(e.collection))
            return self.totmp(f"({i} in {c}) if {c}.__class__ is frozenset "
                              f"else _in({i}, {c}, {e.line})")
        if isinstance(e, (N.And, N.Or)):
            is_and = isinstance(e, N.And)
            t = self.tmp()
            c = self.coerced(e.terms[0], e.line)
            self.put(f"{t} = {c}")
            depth = 0
            for term in e.terms[1:]:
                self.put(f"if {t}:" if is_and else f"if not {t}:")
                self.indent += 1
                depth += 1
                c = self.coerced(term, e.line)
                self.put(f"{t} = {c}")
            self.indent -= depth
            return t
        if isinstance(e, N.Not):
            c = self.coerced(e.operand, e.line)
            return self.totmp(f"not {c}")
        return self.fallback(e)

    def commands(self, commands) -> None:
        """Statements gathering :func:`_inlinable` commands into ``eff``
        in :func:`gather_effects` order.  ``eff`` starts empty and only
        this code touches it, so a second RETURN is known statically."""
        for cmd in commands:
            if isinstance(cmd, N.ForallCmd):
                self.commands(cmd.body)
            elif isinstance(cmd, N.Assign):
                value = self.totmp(self.expr(cmd.value))
                tgt = cmd.target
                idx = self._tuple_src([self.expr(x) for x in tgt.args]) \
                    if isinstance(tgt, N.Index) else "()"
                self.put(f"eff.writes.append(({tgt.ident!r}, {idx}, "
                         f"{value}))")
            elif isinstance(cmd, N.Emit):
                args = self._tuple_src([self.expr(x) for x in cmd.args])
                self.put(f"eff.emissions.append(_Emission({cmd.event!r}, "
                         f"{args}))")
            else:
                if self.returns:
                    self.put(f"_mret({cmd.line})")
                self.returns += 1
                self.put(f"eff.returned = {self.expr(cmd.value)}")
                self.put("eff.has_return = True")


_GEN_PRELUDE = ("    p = env.params\n"
                "    m = env.inputs_map\n"
                "    fns = env.functions\n"
                "    regs = env.registers\n")


def _exec_gen(gen: _SrcGen, result_src: str, tag: str, args: str = "env"):
    src = (f"def _gen({args}):\n" + _GEN_PRELUDE + "\n".join(gen.lines)
           + f"\n    return {result_src}\n")
    code = compile(src, f"<fastpath:{tag}>", "exec")
    exec(code, gen.ns)
    return gen.ns["_gen"]


def _bit_code(v: Value) -> int:
    return 1 if v is True or v == "true" else \
        0 if v is False or v == "false" else _h_bb(v)


def _codes_ast(features, env: Env) -> tuple[int, ...]:
    """The feature-code tuple through the AST oracle (callable inputs)."""
    return tuple(feat.domain.encode(eval_expr(feat.signal, env))
                 if isinstance(feat, DirectFeature)
                 else _bit_code(eval_expr(feat.atom, env))
                 for feat in features)


def generate_codes_fn(base, analyzed: AnalyzedProgram,
                      bound: frozenset[str], param_safe: bool = False):
    """One generated function computing the whole feature-code tuple.

    Generated input reads assume a mapping-backed source, so a callable
    source is handed to the AST oracle up front.
    """
    gen = _SrcGen(analyzed, bound, param_safe)
    fb = gen.bindobj(partial(_codes_ast, tuple(base.analysis.features)),
                     "fb")
    gen.put(f"if m is None: return {fb}(env)")
    parts = []
    for feat in base.analysis.features:
        if isinstance(feat, DirectFeature):
            enc = gen.bindobj(feat.domain.encode, "e")
            parts.append(gen.totmp(f"{enc}({gen.expr(feat.signal)})"))
        else:
            t0 = gen.totmp(gen.expr(feat.atom))
            parts.append(gen.totmp(
                f"1 if {t0} is True or {t0} == 'true' else "
                f"(0 if {t0} is False or {t0} == 'false' else _bb({t0}))"))
    return _exec_gen(gen, gen._tuple_src(parts), f"codes:{base.name}")


def generate_value_fn(expr: N.Expr, analyzed: AnalyzedProgram,
                      bound: frozenset[str], tag: str,
                      param_safe: bool = False):
    """One generated function computing a single expression value."""
    gen = _SrcGen(analyzed, bound, param_safe)
    fb = gen.bindobj(_oracle(expr), "fb")
    gen.put(f"if m is None: return {fb}(env)")
    return _exec_gen(gen, gen.totmp(gen.expr(expr)), f"value:{tag}")


def generate_commands_fn(commands, analyzed: AnalyzedProgram,
                         bound: frozenset[str], tag: str,
                         param_safe: bool = False):
    """One generated function ``(env, effects, subbase_runner)``
    gathering a conclusion's effects against the snapshot state, for
    commands :func:`_inlinable` accepts (so the runner goes unused)."""
    gen = _SrcGen(analyzed, bound, param_safe)
    fb = gen.bindobj(partial(gather_effects, commands), "fb")
    gen.put(f"if m is None: return {fb}(env, eff, runner)")
    gen.commands(commands)
    return _exec_gen(gen, "None", f"commands:{tag}", "env, eff, runner")


# ---------------------------------------------------------------------------
# conclusions
# ---------------------------------------------------------------------------

def _flat(commands):
    """Every command, FORALL bodies included."""
    for cmd in commands:
        yield cmd
        if isinstance(cmd, N.ForallCmd):
            yield from _flat(cmd.body)


def _inlinable(cmd) -> bool:
    """Commands :meth:`_SrcGen.commands` generates.  A subbase call
    applies the subbase's writes mid-gather (stale register reads for
    the generator's common-subexpression cache), and a FORALL variable
    would need a rebinding per iteration; both stay with the oracle."""
    if isinstance(cmd, N.ForallCmd):
        return not cmd.var
    return isinstance(cmd, (N.Assign, N.Emit, N.Return))


class _Conclusion:
    """One ground rule's lowered conclusion.

    Three execution shapes, from cheapest to most general:

    * ``static`` — only RETURNs of compile-time constants; the result is
      baked here and replayed without any evaluation;
    * ``value_fn`` — a single RETURN of a dynamic expression with no
      writes, emissions or subbase calls; one generated function
      computes the value, skipping the effects machinery entirely;
    * ``run`` — ``(env, effects, subbase_runner)`` gathering the
      effects against the snapshot state (phase 1 of the gather/apply
      semantics): a generated function, or :func:`gather_effects`
      itself for commands that are not :func:`_inlinable`.
    """

    __slots__ = ("static", "returned", "has_return", "run", "calls_subbase",
                 "value_fn")

    def __init__(self, ground, analyzed: AnalyzedProgram,
                 bound: frozenset[str], tag: str = "",
                 param_safe: bool = False):
        commands = ground.commands
        self.static = False
        self.returned: Value | None = None
        self.has_return = False
        self.value_fn = None
        self.run = None
        flat = tuple(_flat(commands))
        self.calls_subbase = any(isinstance(c, N.CallSubbase) for c in flat)
        if not all(_inlinable(c) for c in flat):
            self.run = partial(gather_effects, commands)
            return
        # a conclusion is *static* when it can neither touch state nor
        # observe it: only RETURNs of compile-time constants.  Those are
        # resolved here once and replayed without evaluation.
        analyzer = analyzed.analyzer
        if analyzer is not None and len(commands) <= 1:
            values = []
            for cmd in commands:
                if not isinstance(cmd, N.Return):
                    break
                try:
                    values.append(analyzer.const_eval(cmd.value))
                except Exception:
                    break
            else:
                self.static = True
                if values:
                    self.returned = values[0]
                    self.has_return = True
                return
        if len(commands) == 1 and isinstance(commands[0], N.Return):
            self.value_fn = generate_value_fn(commands[0].value, analyzed,
                                              bound, tag, param_safe)
            return
        self.run = generate_commands_fn(commands, analyzed, bound, tag,
                                        param_safe)


class _Lowering:
    """A rule base's generated code: the feature-code function and the
    per-entry conclusions (built on first use).  Cached on the compiled
    rule base, so every kernel over that base shares one copy."""

    __slots__ = ("bound", "psafe", "codes", "conclusions")

    def __init__(self, base, analyzed: AnalyzedProgram):
        self.bound = frozenset(name for name, _ in base.params)
        # a top-level rule base is only ever invoked with its declared
        # argument bindings as env.params (subbases can inherit extra
        # params from the caller via env.bind), so its generated code
        # may resolve free names without the params probe
        self.psafe = base.name not in analyzed.subbases
        self.codes = generate_codes_fn(base, analyzed, self.bound, self.psafe)
        self.conclusions: dict[int, _Conclusion] = {}


# ---------------------------------------------------------------------------
# the kernel
# ---------------------------------------------------------------------------

class DecisionKernel:
    """One engine's fast path for one rule base: the base's shared
    lowering plus this engine's strides, memos and call environments.
    Built lazily, once per engine, from a
    :class:`~repro.core.compiler.compile.CompiledRuleBase`."""

    __slots__ = ("base", "analyzed", "strides", "params_meta", "memo",
                 "memo_enabled", "_lowering", "_codes", "_bind_memo",
                 "_env_memo")

    def __init__(self, base, analyzed: AnalyzedProgram):
        self.base = base
        self.analyzed = analyzed
        lowering = base.lowered
        if lowering is None:
            lowering = base.lowered = _Lowering(base, analyzed)
        self._lowering = lowering
        self._codes = lowering.codes
        # mixed-radix strides: index_of(codes) == dot(strides, codes)
        sizes = [feat.size for feat in base.analysis.features]
        strides = [0] * len(sizes)
        acc = 1
        for i in range(len(sizes) - 1, -1, -1):
            strides[i] = acc
            acc *= sizes[i]
        self.strides = tuple(strides)
        self.params_meta = tuple(
            (name, dom, f"argument {name} of {base.name}")
            for name, dom in base.params)
        self.memo: dict[tuple[int, ...], int] = {}
        self.memo_enabled = base.analysis.n_entries <= MAX_MEMO_ENTRIES
        self._bind_memo: dict[tuple[Value, ...], dict[str, Value]] = {}
        self._env_memo: dict[tuple[Value, ...], Env] = {}

    # -- premise processing -------------------------------------------------

    def entry(self, env: Env) -> int:
        """Table entry for the current environment, memoised on the
        feature-code tuple while ``memo_enabled``."""
        codes = self._codes(env)
        if self.memo_enabled:
            entry = self.memo.get(codes)
            if entry is not None:
                return entry
        idx = 0
        for stride, code in zip(self.strides, codes):
            idx += stride * code
        entry = int(self.base.table[idx])
        if self.memo_enabled:
            self.memo[codes] = entry
        return entry

    # -- conclusion processing ----------------------------------------------

    def conclusion(self, entry: int) -> _Conclusion:
        low = self._lowering
        con = low.conclusions.get(entry)
        if con is None:
            con = _Conclusion(self.base.ground_rules[entry], self.analyzed,
                              low.bound, f"{self.base.name}[{entry}]",
                              low.psafe)
            low.conclusions[entry] = con
        return con

    # -- one full decision ----------------------------------------------------

    def invoke(self, args: tuple[Value, ...], env: Env,
               subbase_runner_factory) -> InvocationResult:
        base = self.base
        if base.table is None:
            raise EvalError(f"rule base {base.name!r} was compiled without "
                            f"a materialized table; recompile with "
                            f"materialize=True to execute it")
        # args repeat from a small space; memoise the checked bindings.
        # The dict is shared across invocations — safe because nothing
        # downstream mutates env.params (binds always copy).
        bindings = self._bind_memo.get(args)
        if bindings is None:
            if len(args) != len(self.params_meta):
                raise EvalError(f"rule base {base.name!r} expects "
                                f"{len(self.params_meta)} arguments, got "
                                f"{len(args)}")
            bindings = {}
            for (name, dom, what), value in zip(self.params_meta, args):
                dom.check(value, what)
                bindings[name] = value
            if len(self._bind_memo) < 4096:
                self._bind_memo[args] = bindings
        if env.params:
            call_env = env.bind(bindings)
        else:
            # param-less caller == the engine's base environment, whose
            # non-input fields are identity-stable for the engine's
            # lifetime (set_inputs swaps inputs/inputs_map in place).
            # The call environment per args tuple is therefore reusable
            # once its inputs fields are refreshed.
            call_env = self._env_memo.get(args)
            if call_env is None:
                call_env = Env(env.analyzed, env.registers, bindings,
                               env.inputs, env.functions, env.call_subbase,
                               env.inputs_map)
                if len(self._env_memo) < 4096:
                    self._env_memo[args] = call_env
            elif call_env.inputs is not env.inputs:
                call_env.inputs = env.inputs
                call_env.inputs_map = env.inputs_map

        entry = self.entry(call_env)
        result = InvocationResult(base=base.name, fired_source_rule=None)
        if entry == NO_RULE:
            return result
        ground = base.ground_rules[entry]
        result.fired_source_rule = ground.source_index
        result.witness = ground.witness
        con = self.conclusion(entry)
        if con.static:
            result.returned = con.returned
            result.has_return = con.has_return
            return result
        if con.value_fn is not None:
            result.returned = con.value_fn(call_env)
            result.has_return = True
            return result
        effects = _Effects()
        runner = (subbase_runner_factory(call_env)
                  if con.calls_subbase else None)
        con.run(call_env, effects, runner)
        apply_effects(effects, call_env, result)
        return result
