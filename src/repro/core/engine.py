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

``mode="table"`` executes compiled rule tables (the RBR-kernel model);
``mode="ast"`` executes the reference semantics.  Both share registers,
inputs and functions, so they are interchangeable — and tested to be.
"""

from __future__ import annotations

from typing import Mapping

from .compiler.compile import CompiledProgram, CompiledRuleBase, compile_program
from .dsl.domains import Value
from .dsl.errors import EvalError
from .interpreter.astinterp import AstInterpreter
from .interpreter.evaluator import Env, FunctionImpl, make_input_reader
from .interpreter.event_manager import EventManager
from .interpreter.execution import Emission, InvocationResult
from .interpreter.rbr import RbrInterpreter
from .interpreter.registers import RegisterFile
from .interpreter.timing import DEFAULT_DELAYS, DelayModel


class RuleEngine:
    def __init__(self, program: str | CompiledProgram,
                 params: Mapping[str, Value] | None = None,
                 functions: Mapping[str, FunctionImpl] | None = None,
                 mode: str = "table",
                 coerce: str = "saturate",
                 delays: DelayModel = DEFAULT_DELAYS,
                 materialize: bool = True):
        if mode not in ("table", "ast"):
            raise ValueError(f"unknown mode {mode!r}")
        if isinstance(program, CompiledProgram):
            self.compiled = program
        else:
            self.compiled = compile_program(program, params,
                                            materialize=materialize)
        self.analyzed = self.compiled.analyzed
        self.mode = mode
        self.delays = delays
        self.registers = RegisterFile(self.analyzed, coerce=coerce)
        self.functions: dict[str, FunctionImpl] = dict(functions or {})
        self._inputs = make_input_reader({})
        self._inputs_map = getattr(self._inputs, "mapping", None)
        self._cached_env: Env | None = None
        self._ast = AstInterpreter(self.analyzed)
        self._rbr = RbrInterpreter(self.compiled)
        self.events = EventManager(
            rulebase_names=set(self.analyzed.rulebases),
            event_names=set(self.analyzed.events),
            invoke=self._invoke)

    # -- configuration ------------------------------------------------------

    def register_function(self, name: str, impl: FunctionImpl) -> None:
        if name not in self.analyzed.functions:
            raise EvalError(f"{name!r} is not a declared FUNCTION")
        self.functions[name] = impl

    def attach_tracer(self, tracer, node: int = -1) -> None:
        """Attach a :mod:`repro.obs` tracer: rule-base invocations emit
        ``rule.invoke`` trace events tagged with the router ``node`` the
        engine belongs to."""
        self._rbr.tracer = tracer
        self._rbr.trace_node = node

    def set_inputs(self, source, *, trusted: bool = False) -> None:
        """Attach the hardware input source (mapping or callable).

        ``trusted=True`` promises the mapping is already canonical
        (indexed inputs keyed by tuples only) and skips normalization;
        see :func:`make_input_reader`.
        """
        self._inputs = make_input_reader(source, trusted=trusted)
        self._inputs_map = getattr(self._inputs, "mapping", None)
        # the cached base environment is refreshed in place: its other
        # fields (registers, functions, subbase caller) are identity-
        # stable for the engine's lifetime, and keeping the env object
        # itself stable lets the decision kernels cache per-args call
        # environments against it
        env = self._cached_env
        if env is not None:
            env.inputs = self._inputs
            env.inputs_map = self._inputs_map

    # -- execution ------------------------------------------------------------

    def _env(self) -> Env:
        # built once per engine; set_inputs swaps the inputs fields in
        # place (everything else is mutated in place, never replaced)
        env = self._cached_env
        if env is None:
            env = Env(self.analyzed, self.registers, {}, self._inputs,
                      self.functions, None, self._inputs_map)
            if self.mode == "ast":
                env.call_subbase = self._ast.subbase_caller(env)
            else:
                env.call_subbase = self._rbr.subbase_caller(env)
            self._cached_env = env
        return env

    def _invoke(self, base_name: str, args: tuple[Value, ...]
                ) -> InvocationResult:
        env = self._env()
        if self.mode == "ast":
            info = self.analyzed.rulebases.get(base_name) \
                or self.analyzed.subbases.get(base_name)
            if info is None:
                raise EvalError(f"unknown rule base {base_name!r}")
            return self._ast.invoke(info, args, env)
        rbr = self._rbr
        if rbr.tracer.enabled:
            # the traced path goes through rbr.invoke (same kernel, plus
            # the rule.invoke emission)
            return rbr.invoke(self.compiled.base(base_name), args, env)
        kern = rbr.kernels.get(base_name)
        if kern is None:
            kern = rbr.kernel(self.compiled.base(base_name))
        return kern.invoke(args, env, rbr._subbase_runner)

    def call(self, base_name: str, *args: Value) -> InvocationResult:
        """Invoke one rule base directly (one interpretation step)."""
        res = self._invoke(base_name, args)
        events = self.events
        events.counter.count(base_name)
        events.log.append(res)
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
        return self.events.counter.total_steps

    def reset_steps(self) -> None:
        self.events.counter.reset()

    def reset_state(self) -> None:
        self.registers.reset()
        self.events.queue.clear()
        self.events.external.clear()
        self.events.log.clear()
        self.reset_steps()

    # -- hardware cost ------------------------------------------------------------

    def base(self, name: str) -> CompiledRuleBase:
        return self.compiled.base(name)

    def table_bits(self) -> int:
        return self.compiled.total_table_bits

    def register_bits(self) -> int:
        return self.compiled.register_bits()

    def decision_latency_cycles(self, steps: int) -> int:
        return self.delays.decision_cycles(steps)
