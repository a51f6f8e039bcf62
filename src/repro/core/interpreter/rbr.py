"""Table-based rule interpreter (software model of the RBR-kernel).

Executes a :class:`~repro.core.compiler.compile.CompiledRuleBase` the
way the hardware does (paper Figure 5): premise processing computes the
feature values (direct signal encodings and FCFB bits), their
concatenation indexes the completely-filled rule table, and the selected
entry drives conclusion processing.

Each base runs through a lazily built
:class:`~repro.core.compiler.fastpath.DecisionKernel`: one generated
function computes the feature codes, mixed-radix strides are prebaked,
table entries are memoised on the feature-code tuple, and conclusions
run as generated functions.  The generated code is lowered once per
compiled rule base and shared by every engine over the program.  No AST
traversal on the hot path; rare shapes fall back to :func:`eval_expr`,
and the AST interpreter (:mod:`.astinterp`) is the semantic oracle the
kernel is tested against.
"""

from __future__ import annotations

from ...obs import events as trace_ev
from ...obs.tracer import NULL_TRACER
from ..dsl.domains import Value
from ..dsl.errors import EvalError
from ..compiler.compile import CompiledProgram, CompiledRuleBase
from ..compiler.fastpath import DecisionKernel
from .evaluator import Env
from .execution import InvocationResult, _Effects


class RbrInterpreter:
    #: observability hooks (see repro.obs): the tracer defaults to the
    #: shared no-op, so the untraced cost is one attribute check per
    #: invocation; trace_node tags emissions with the router the engine
    #: belongs to
    tracer = NULL_TRACER
    trace_node = -1

    def __init__(self, compiled: CompiledProgram):
        self.compiled = compiled
        self.analyzed = compiled.analyzed
        #: base name -> decision kernel; the engine's untraced call path
        #: reads it directly to skip the base lookup
        self.kernels: dict[str, DecisionKernel] = {}

    def kernel(self, base: CompiledRuleBase) -> DecisionKernel:
        """The compiled decision kernel for one base (built lazily and
        cached; its memos are reused across invocations)."""
        k = self.kernels.get(base.name)
        if k is None:
            k = DecisionKernel(base, self.analyzed)
            self.kernels[base.name] = k
        return k

    def invoke(self, base: CompiledRuleBase, args: tuple[Value, ...],
               env: Env) -> InvocationResult:
        res = self.kernel(base).invoke(args, env, self._subbase_runner)
        tr = self.tracer
        if tr.enabled:
            tr.emit(trace_ev.RULE_INVOKE, node=self.trace_node,
                    base=base.name, rule=res.fired_source_rule,
                    writes=len(res.writes), emissions=len(res.emissions))
        return res

    # -- subbases ------------------------------------------------------------

    def _subbase_runner(self, env: Env):
        def run(name: str, args: tuple[Value, ...], effects: _Effects) -> None:
            sub = self.compiled.subbases.get(name)
            if sub is None:
                raise EvalError(f"unknown subbase {name!r}")
            res = self.invoke(sub, args, env)
            effects.writes.extend(res.writes)
            effects.emissions.extend(res.emissions)
        return run

    def subbase_caller(self, env: Env):
        """Expression-position subbase calls (pure lookups)."""
        def call(name: str, args: tuple[Value, ...]) -> Value:
            sub = self.compiled.subbases.get(name)
            if sub is None:
                raise EvalError(f"unknown subbase {name!r}")
            res = self.invoke(sub, args, env)
            if res.writes or res.emissions:
                raise EvalError(f"subbase {name!r} used in an expression "
                                f"must only RETURN")
            if not res.has_return:
                raise EvalError(f"subbase {name!r} returned no value for "
                                f"arguments {args!r}")
            return res.returned  # type: ignore[return-value]
        return call
