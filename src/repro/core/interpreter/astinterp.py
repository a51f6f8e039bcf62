"""Reference interpreter: executes rule bases directly from the AST.

This is the executable semantics of the DSL.  The compiled decision
kernels (:mod:`repro.core.compiler.fastpath`) must agree with it
bit-for-bit; the property tests in ``tests/core/test_equivalence.py``
enforce that.

Rule selection: the textually first rule whose premise holds fires
("Only one rule is selected at one invocation; if more than one rule is
applicable it is up to the implementation which one is taken" — we fix
source order).  A top-level chain of EXISTS quantifiers binds witnesses
in iteration order so conclusions may reference the bound variables,
matching the compiler's witness splitting.
"""

from __future__ import annotations

from ..dsl import nodes as N
from ..dsl.domains import Value
from ..dsl.errors import EvalError
from ..dsl.semantics import AnalyzedProgram, BaseInfo
from .evaluator import Env, eval_expr, iteration_values, to_bool
from .execution import InvocationResult, apply_effects, gather_effects


class AstInterpreter:
    def __init__(self, analyzed: AnalyzedProgram):
        self.analyzed = analyzed

    # -- premise with witness extraction ---------------------------------

    def _premise_holds(self, premise: N.Expr, env: Env
                       ) -> tuple[bool, dict[str, Value]]:
        """Evaluate a premise; top-level EXISTS chains yield witnesses."""
        if isinstance(premise, N.Quant) and premise.kind == "EXISTS":
            for v in iteration_values(premise.collection, env):
                inner = env.bind({premise.var: v})
                ok, sub = self._premise_holds(premise.body, inner)
                if ok:
                    sub = dict(sub)
                    sub[premise.var] = v
                    return True, sub
            return False, {}
        return to_bool(eval_expr(premise, env),
                       getattr(premise, "line", 0)), {}

    # -- invocation -------------------------------------------------------------

    def invoke(self, base: BaseInfo, args: tuple[Value, ...], env: Env,
               subbase_runner) -> InvocationResult:
        """One interpretation step of ``base``; ``subbase_runner(env)``
        runs the conclusion's subbase commands."""
        if len(args) != len(base.params):
            raise EvalError(f"rule base {base.name!r} expects "
                            f"{len(base.params)} arguments, got {len(args)}")
        bindings = {}
        for (name, dom), value in zip(base.params, args):
            dom.check(value, f"argument {name} of {base.name}")
            bindings[name] = value
        call_env = env.bind(bindings)
        result = InvocationResult(base=base.name, fired_source_rule=None)
        for i, rule in enumerate(base.rules):
            ok, witness = self._premise_holds(rule.premise, call_env)
            if ok:
                result.fired_source_rule = i
                result.witness = tuple(witness.items())
                rule_env = call_env.bind(witness)
                gather_effects(rule.conclusion, rule_env, result,
                               subbase_runner(rule_env))
                apply_effects(result, rule_env)
                break
        return result
