"""Conclusion execution with parallel (snapshot) semantics.

"The commands of the conclusion are executed in parallel." (paper
Section 4.2).  We realize that in two phases: every right-hand side,
index and event argument is evaluated against the *pre-state*, then all
register writes are applied and events queued.  Conflicting writes to
the same cell resolve to the last command in textual order (documented;
hardware would forbid such rule bases).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dsl import nodes as N
from ..dsl.domains import Value
from ..dsl.errors import EvalError
from .evaluator import Env, eval_expr, iteration_values


@dataclass(frozen=True)
class Emission:
    """An event generated by a conclusion (``!name(args)``)."""

    event: str
    args: tuple[Value, ...]


@dataclass(slots=True)
class InvocationResult:
    """Outcome of one rule-base invocation (one interpretation step)."""

    base: str
    fired_source_rule: int | None      # index of the source rule, None = no-op
    returned: Value | None = None
    has_return: bool = False
    emissions: list[Emission] = field(default_factory=list)
    writes: list[tuple[str, tuple[Value, ...], Value]] = field(default_factory=list)
    witness: tuple[tuple[str, Value], ...] = ()


@dataclass(slots=True)
class _Effects:
    writes: list[tuple[str, tuple[Value, ...], Value]] = field(default_factory=list)
    emissions: list[Emission] = field(default_factory=list)
    returned: Value | None = None
    has_return: bool = False


def gather_effects(commands, env: Env, effects: _Effects,
                   subbase_runner=None) -> None:
    """Phase 1: evaluate all commands against the snapshot state."""
    for cmd in commands:
        if isinstance(cmd, N.Assign):
            tgt = cmd.target
            value = eval_expr(cmd.value, env)
            if isinstance(tgt, N.Index):
                idx = tuple(eval_expr(a, env) for a in tgt.args)
                effects.writes.append((tgt.ident, idx, value))
            elif isinstance(tgt, N.Name):
                effects.writes.append((tgt.ident, (), value))
            else:  # pragma: no cover
                raise EvalError("invalid assignment target", cmd.line)
        elif isinstance(cmd, N.Emit):
            args = tuple(eval_expr(a, env) for a in cmd.args)
            effects.emissions.append(Emission(cmd.event, args))
        elif isinstance(cmd, N.Return):
            if effects.has_return:
                raise EvalError("multiple RETURN commands fired in one "
                                "invocation", cmd.line)
            effects.returned = eval_expr(cmd.value, env)
            effects.has_return = True
        elif isinstance(cmd, N.ForallCmd):
            if not cmd.var:
                gather_effects(cmd.body, env, effects, subbase_runner)
                continue
            for v in iteration_values(cmd.collection, env):
                gather_effects(cmd.body, env.bind({cmd.var: v}),
                               effects, subbase_runner)
        elif isinstance(cmd, N.CallSubbase):
            if subbase_runner is None:
                raise EvalError(f"subbase command {cmd.ident!r} but no "
                                f"subbase runner attached", cmd.line)
            args = tuple(eval_expr(a, env) for a in cmd.args)
            subbase_runner(cmd.ident, args, effects)
        else:  # pragma: no cover
            raise EvalError(f"unknown command {cmd!r}", cmd.line)


def apply_effects(effects: _Effects, env: Env,
                  result: InvocationResult) -> None:
    """Phase 2: commit writes, record emissions and the return value."""
    for name, idx, value in effects.writes:
        env.registers.write(name, value, idx)
    result.writes.extend(effects.writes)
    result.emissions.extend(effects.emissions)
    result.returned = effects.returned
    result.has_return = effects.has_return
