"""Expression evaluation shared by the reference (AST) interpreter and
the table-based (RBR) interpreter.

Both interpreters evaluate the same expression language against the
same runtime environment: event/quantifier parameter bindings, the
register file, hardware inputs, FCFB-backed functions, and subbases.
Keeping one evaluator is what makes the compiled-table vs reference
equivalence tests meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..dsl import nodes as N
from ..dsl.domains import Value
from ..dsl.errors import EvalError
from ..dsl.semantics import AnalyzedProgram
from .registers import RegisterFile

InputReader = Callable[[str, tuple[Value, ...]], Value]
FunctionImpl = Callable[..., Value]
SubbaseCaller = Callable[[str, tuple[Value, ...]], Value]


def make_input_reader(source, *, trusted: bool = False) -> InputReader:
    """Normalize an input source to a reader callable.

    Accepts a callable ``(name, idx_tuple) -> value`` or a mapping
    ``name -> value`` / ``name -> {idx_tuple: value}``.  Index keys may
    be given as bare scalars for 1-D inputs (``{0: x}`` instead of
    ``{(0,): x}``); they are canonicalized to tuples here, once, so the
    per-read lookup is a single dict access and a scalar key can never
    silently shadow (or be shadowed by) its 1-tuple spelling.

    ``trusted=True`` skips the canonicalization scan and uses a mapping
    source as-is.  The caller warrants that every indexed input is a
    dict keyed exclusively by tuples; use it only on the hot path of a
    producer that builds its input dicts in canonical form (the router
    simulator does, per decision).
    """
    if callable(source):
        return source
    if trusted:
        mapping: dict[str, Value | dict[tuple[Value, ...], Value]] = \
            source if source is not None else {}
    else:
        mapping = {}
        for name, v in (source or {}).items():
            if not isinstance(v, dict):
                mapping[name] = v
                continue
            for k in v:
                if type(k) is not tuple:
                    break
            else:
                mapping[name] = v  # already canonical; share, don't copy
                continue
            table: dict[tuple[Value, ...], Value] = {}
            for key, value in v.items():
                canon = key if isinstance(key, tuple) else (key,)
                if canon in table and table[canon] != value:
                    raise EvalError(
                        f"input {name!r} supplies conflicting values for "
                        f"index {canon!r} (scalar and tuple spellings of "
                        f"the same key)")
                table[canon] = value
            mapping[name] = table

    def read(name: str, idx: tuple[Value, ...]) -> Value:
        if name not in mapping:
            raise EvalError(f"no value supplied for input {name!r}")
        v = mapping[name]
        if idx:
            if not isinstance(v, dict):
                raise EvalError(f"input {name!r} is indexed but a scalar "
                                f"value was supplied")
            try:
                return v[idx]
            except KeyError:
                raise EvalError(f"input {name!r} has no value at index "
                                f"{idx!r}") from None
        if isinstance(v, dict):
            raise EvalError(f"input {name!r} is scalar but an indexed "
                            f"value table was supplied")
        return v

    # the compiled fast path reads mapping-backed inputs directly (see
    # Env.inputs_map); callable sources have no mapping to expose
    read.mapping = mapping  # type: ignore[attr-defined]
    return read


@dataclass(slots=True)
class Env:
    """Runtime environment of one rule-base invocation."""

    analyzed: AnalyzedProgram
    registers: RegisterFile
    params: dict[str, Value] = field(default_factory=dict)
    inputs: InputReader = field(default_factory=lambda: make_input_reader({}))
    functions: dict[str, FunctionImpl] = field(default_factory=dict)
    call_subbase: SubbaseCaller | None = None
    #: when ``inputs`` is mapping-backed, the canonicalized mapping
    #: itself — generated fast-path code reads it without the reader
    #: indirection
    inputs_map: dict | None = None

    def bind(self, extra: dict[str, Value]) -> "Env":
        merged = dict(self.params)
        merged.update(extra)
        return Env(self.analyzed, self.registers, merged, self.inputs,
                   self.functions, self.call_subbase, self.inputs_map)


def to_bool(v: Value, line: int = 0) -> bool:
    if isinstance(v, bool):
        return v
    if v == "true":
        return True
    if v == "false":
        return False
    raise EvalError(f"expected a boolean, got {v!r}", line)


def eval_expr(expr: N.Expr, env: Env) -> Value:
    """Evaluate a value or boolean expression.  Boolean results are
    Python ``bool``; symbol values are strings; sets are frozensets."""
    a = env.analyzed
    if isinstance(expr, N.Num):
        return expr.value
    if isinstance(expr, N.Name):
        name = expr.ident
        if name in env.params:
            return env.params[name]
        if name in a.symbol_owner:
            return name
        if name in a.constants:
            return a.constants[name]
        if name in a.variables:
            var = a.variables[name]
            if var.is_array:
                raise EvalError(f"array register {name!r} used without "
                                f"indices", expr.line)
            return env.registers.read(name)
        if name in a.inputs:
            inp = a.inputs[name]
            if inp.index_domains:
                raise EvalError(f"indexed input {name!r} used without "
                                f"indices", expr.line)
            return env.inputs(name, ())
        if name in a.types:
            return frozenset(a.types[name].values())
        raise EvalError(f"unknown name {name!r}", expr.line)
    if isinstance(expr, N.Index):
        args = tuple(eval_expr(arg, env) for arg in expr.args)
        name = expr.ident
        if name in a.variables:
            return env.registers.read(name, args)
        if name in a.inputs:
            return env.inputs(name, args)
        if name in a.functions:
            impl = env.functions.get(name)
            if impl is None:
                raise EvalError(f"no implementation registered for "
                                f"function {name!r}", expr.line)
            return impl(*args)
        if name in a.subbases:
            if env.call_subbase is None:
                raise EvalError(f"subbase {name!r} called but no subbase "
                                f"executor is attached", expr.line)
            return env.call_subbase(name, args)
        raise EvalError(f"unknown indexed name {name!r}", expr.line)
    if isinstance(expr, N.SetLit):
        return frozenset(eval_expr(i, env) for i in expr.items)
    if isinstance(expr, N.UnOp):
        v = eval_expr(expr.operand, env)
        if not isinstance(v, int):
            raise EvalError("unary minus on non-integer", expr.line)
        return -v
    if isinstance(expr, N.BinOp):
        lv = eval_expr(expr.left, env)
        rv = eval_expr(expr.right, env)
        if expr.op in ("UNION", "INTER", "DIFF"):
            if not (isinstance(lv, frozenset) and isinstance(rv, frozenset)):
                raise EvalError(f"{expr.op} needs set operands", expr.line)
            if expr.op == "UNION":
                return lv | rv
            if expr.op == "INTER":
                return lv & rv
            return lv - rv
        if not (isinstance(lv, int) and isinstance(rv, int)):
            raise EvalError(f"operator {expr.op!r} needs integers, got "
                            f"{lv!r} and {rv!r}", expr.line)
        if expr.op == "+":
            return lv + rv
        if expr.op == "-":
            return lv - rv
        if expr.op == "*":
            return lv * rv
        if expr.op == "MOD":
            if rv == 0:
                raise EvalError("MOD by zero", expr.line)
            return lv % rv
        raise EvalError(f"unknown operator {expr.op!r}", expr.line)
    if isinstance(expr, N.Compare):
        lv = eval_expr(expr.left, env)
        rv = eval_expr(expr.right, env)
        if isinstance(lv, bool) or isinstance(rv, bool):
            lv = "true" if lv is True else "false" if lv is False else lv
            rv = "true" if rv is True else "false" if rv is False else rv
        if expr.op == "=":
            return lv == rv
        if expr.op == "/=":
            return lv != rv
        if not (isinstance(lv, int) and isinstance(rv, int)):
            raise EvalError("ordering comparison on non-integers", expr.line)
        if expr.op == "<":
            return lv < rv
        if expr.op == "<=":
            return lv <= rv
        if expr.op == ">":
            return lv > rv
        if expr.op == ">=":
            return lv >= rv
        raise EvalError(f"unknown comparison {expr.op!r}", expr.line)
    if isinstance(expr, N.InSet):
        item = eval_expr(expr.item, env)
        coll = eval_expr(expr.collection, env)
        if not isinstance(coll, frozenset):
            raise EvalError("IN needs a set on the right", expr.line)
        return item in coll
    if isinstance(expr, N.And):
        return all(to_bool(eval_expr(t, env), expr.line) for t in expr.terms)
    if isinstance(expr, N.Or):
        return any(to_bool(eval_expr(t, env), expr.line) for t in expr.terms)
    if isinstance(expr, N.Not):
        return not to_bool(eval_expr(expr.operand, env), expr.line)
    if isinstance(expr, N.Quant):
        values = iteration_values(expr.collection, env)
        for v in values:
            inner = env.bind({expr.var: v})
            ok = to_bool(eval_expr(expr.body, inner), expr.line)
            if expr.kind == "EXISTS" and ok:
                return True
            if expr.kind == "FORALL" and not ok:
                return False
        return expr.kind == "FORALL"
    raise EvalError(f"unhandled expression {expr!r}",
                    getattr(expr, "line", 0))


def iteration_values(coll: N.Expr, env: Env) -> list[Value]:
    """Concrete, deterministically ordered iteration space of a
    quantifier collection at runtime.  Order matches the compiler's
    static expansion (ascending integers; declared symbol order), which
    is what keeps EXISTS witnesses identical between engines."""
    a = env.analyzed
    if isinstance(coll, N.Name):
        name = coll.ident
        if name in a.constants and isinstance(a.constants[name], int):
            return list(range(a.constants[name]))  # type: ignore[arg-type]
        if name in a.types:
            return list(a.types[name].values())
    value = eval_expr(coll, env)
    if not isinstance(value, frozenset):
        raise EvalError("quantifier collection is not iterable",
                        getattr(coll, "line", 0))
    return sort_values(value, a)


def sort_values(values: frozenset, analyzed: AnalyzedProgram) -> list[Value]:
    """Deterministic order: integers ascending, symbols in declared
    domain order, integers before symbols."""
    def key(v: Value):
        if isinstance(v, int):
            return (0, v, "")
        owner = analyzed.symbol_owner.get(v)  # type: ignore[arg-type]
        if owner is not None:
            return (1, owner.encode(v), str(v))
        return (1, 10 ** 9, str(v))
    return sorted(values, key=key)
