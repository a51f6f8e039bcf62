"""RuleEngine: the complete control unit of the rule-based router.

Ties together the compiler and the interpreter stack into the object a
router (or a test) drives:

* compile a DSL program once, with compile-time parameters;
* hold the register file ("Variables" in paper Figure 5);
* accept hardware inputs (buffer states, header fields, link status);
* dispatch events to rule bases via the event manager and return
  external emissions to the data path;
* answer direct decision queries (``call``) for RETURNS rule bases;
* count interpretation steps and expose the hardware cost figures.

``mode="table"`` executes compiled rule tables (the RBR-kernel model),
one :class:`~repro.core.compiler.fastpath.DecisionKernel` per rule
base; ``mode="ast"`` executes the reference semantics.  Both share registers,
inputs and functions, so they are interchangeable — and tested to be.
"""

from __future__ import annotations

import weakref
from typing import Mapping

from ..obs import events as trace_ev
from ..obs.tracer import NULL_TRACER
from .compiler.compile import CompiledProgram, CompiledRuleBase, compile_program
from .compiler.fastpath import DecisionKernel
from .dsl.domains import Value
from .dsl.errors import EvalError
from .interpreter.astinterp import AstInterpreter
from .interpreter.evaluator import Env, FunctionImpl, make_input_reader
from .interpreter.event_manager import EventManager
from .interpreter.execution import Emission, InvocationResult
from .interpreter.registers import RegisterFile


class RuleEngine:
    #: observability hooks (see repro.obs): the tracer defaults to the
    #: shared no-op, so the untraced cost is one attribute check per
    #: table-mode invocation; trace_node tags emissions with the router
    #: the engine belongs to
    tracer = NULL_TRACER
    trace_node = -1

    def __init__(self, program: str | CompiledProgram,
                 params: Mapping[str, Value] | None = None,
                 functions: Mapping[str, FunctionImpl] | None = None,
                 mode: str = "table",
                 coerce: str = "saturate"):
        if mode not in ("table", "ast"):
            raise ValueError(f"unknown mode {mode!r}")
        if isinstance(program, CompiledProgram):
            self.compiled = program
        else:
            self.compiled = compile_program(program, params)
        self.analyzed = self.compiled.analyzed
        self.mode = mode
        self.registers = RegisterFile(self.analyzed, coerce=coerce)
        self.functions: dict[str, FunctionImpl] = dict(functions or {})
        #: base name -> decision kernel (table mode), built on first use
        self.kernels: dict[str, DecisionKernel] = {}
        self._ast = AstInterpreter(self.analyzed)
        #: ``(engine, base_name, args, env) -> InvocationResult`` for
        #: this mode (a plain function: a bound method stored on the
        #: engine would be a reference cycle)
        self._invoke = (RuleEngine._invoke_table if mode == "table"
                        else RuleEngine._invoke_ast)
        # the base environment: built once; set_inputs swaps its inputs
        # in place and every other field is mutated in place, never
        # replaced, so the decision kernels may cache per-args call
        # environments against it
        env = self.env = Env(self.analyzed, self.registers,
                             functions=self.functions)
        env.call_subbase = self.subbase_caller(env)
        # the callbacks the engine hands out reach it weakly, so it
        # holds no reference cycle and refcounting frees it
        me = weakref.ref(self)
        self.events = EventManager(
            rulebase_names=set(self.analyzed.rulebases),
            event_names=set(self.analyzed.events),
            invoke=lambda name, args: me()._invoke(me(), name, args, env))

    # -- configuration ------------------------------------------------------

    def attach_tracer(self, tracer, node: int = -1) -> None:
        """Attach a :mod:`repro.obs` tracer: table-mode rule-base
        invocations emit ``rule.invoke`` trace events tagged with the
        router ``node`` the engine belongs to."""
        self.tracer = tracer
        self.trace_node = node

    def set_inputs(self, source, *, trusted: bool = False) -> None:
        """Attach the hardware inputs mapping.

        ``trusted=True`` promises the mapping is already canonical
        (indexed inputs keyed by tuples only) and skips normalization;
        see :func:`make_input_reader`.
        """
        self.env.inputs = make_input_reader(source, trusted=trusted)

    # -- execution ------------------------------------------------------------

    def _invoke_table(self, name: str, args: tuple[Value, ...], env: Env
                      ) -> InvocationResult:
        """One table-lookup step: the base's decision kernel."""
        kern = self.kernels.get(name)
        if kern is None:
            kern = self.kernels[name] = DecisionKernel(
                self.compiled.base(name), self.analyzed)
        res = kern.invoke(args, env, self._subbase_runner)
        tr = self.tracer
        if tr.enabled:
            tr.emit(trace_ev.RULE_INVOKE, node=self.trace_node,
                    base=name, rule=res.fired_source_rule,
                    writes=len(res.writes), emissions=len(res.emissions))
        return res

    def _invoke_ast(self, name: str, args: tuple[Value, ...], env: Env
                    ) -> InvocationResult:
        """One step of the reference semantics, straight from the AST."""
        info = self.analyzed.rulebases.get(name) \
            or self.analyzed.subbases.get(name)
        if info is None:
            raise EvalError(f"unknown rule base {name!r}")
        return self._ast.invoke(info, args, env, self._subbase_runner)

    def _invoke_subbase(self, name: str, args: tuple[Value, ...], env: Env
                        ) -> InvocationResult:
        if name not in self.analyzed.subbases:
            raise EvalError(f"unknown subbase {name!r}")
        return self._invoke(self, name, args, env)

    def _subbase_runner(self, env: Env):
        """Command-position subbase calls: their writes and emissions
        join the calling conclusion's."""
        def run(name: str, args: tuple[Value, ...],
                result: InvocationResult) -> None:
            res = self._invoke_subbase(name, args, env)
            result.writes.extend(res.writes)
            result.emissions.extend(res.emissions)
        return run

    def subbase_caller(self, env: Env):
        """Expression-position subbase calls: must be pure (RETURN only).
        The caller reaches the engine weakly (``env`` and the decision
        kernels' call environments hold it)."""
        me = weakref.ref(self)

        def call(name: str, args: tuple[Value, ...]) -> Value:
            res = me()._invoke_subbase(name, args, env)
            if res.writes or res.emissions:
                raise EvalError(f"subbase {name!r} used in an expression "
                                f"must only RETURN (it performed writes or "
                                f"emitted events)")
            if not res.has_return:
                raise EvalError(f"subbase {name!r} returned no value for "
                                f"arguments {args!r}")
            return res.returned  # type: ignore[return-value]
        return call

    def call(self, base_name: str, *args: Value) -> InvocationResult:
        """Invoke one rule base directly (one interpretation step)."""
        res = self._invoke(self, base_name, args, self.env)
        events = self.events
        events.steps += 1
        if res.emissions:
            events._route_emissions(res.emissions)
        return res

    def decide(self, base_name: str, *args: Value) -> Value:
        """Invoke a RETURNS rule base and return its decision value."""
        res = self.call(base_name, *args)
        if not res.has_return:
            raise EvalError(f"rule base {base_name!r} made no decision for "
                            f"arguments {args!r}")
        return res.returned  # type: ignore[return-value]

    def post(self, event: str, *args: Value) -> None:
        self.events.post(event, *args)

    def run(self) -> list[InvocationResult]:
        """Process queued events (and their cascades) to quiescence."""
        return self.events.run()

    def drain_external(self) -> list[Emission]:
        return self.events.drain_external()

    # -- statistics -------------------------------------------------------------

    @property
    def steps(self) -> int:
        return self.events.steps

    def reset_steps(self) -> None:
        self.events.steps = 0

    def reset_state(self) -> None:
        self.registers.reset()
        self.events.queue.clear()
        self.events.external.clear()
        self.reset_steps()

    # -- hardware cost ------------------------------------------------------------

    def base(self, name: str) -> CompiledRuleBase:
        return self.compiled.base(name)

    def register_bits(self) -> int:
        return self.compiled.register_bits()
