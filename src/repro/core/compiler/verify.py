"""Equivalence verification: compiled rule table vs reference semantics.

The paper argues that the rule-based form is "semantically well based
allowing the application of formal methods".  This module delivers the
most useful such method for a compiler: a checker that the RBR-kernel
table execution agrees with the AST reference semantics over the rule
base's *entire* input space (registers it touches, inputs it reads,
event parameters) — exhaustively when the space is small, by seeded
random sampling otherwise.

Exposed to rule authors through ``python -m repro.tools.rulec --verify``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from ..dsl.domains import Domain, Value
from ..dsl.errors import EvalError
from .compile import CompiledProgram, CompiledRuleBase


@dataclass(frozen=True)
class Axis:
    """One independently varying value of the verification space."""

    kind: str                      # 'param' | 'register' | 'input'
    name: str
    index: tuple[Value, ...]       # cell index for arrays, () for scalars
    domain: Domain


@dataclass
class VerificationReport:
    base: str
    axes: int
    space_size: int
    exhaustive: bool
    checked: int
    mismatches: list[dict] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.errors

    def summary(self) -> str:
        mode = "exhaustively" if self.exhaustive else "by sampling"
        status = "OK" if self.ok else (f"{len(self.mismatches)} mismatches, "
                                       f"{len(self.errors)} errors")
        return (f"{self.base}: {self.checked}/{self.space_size} points "
                f"checked {mode} over {self.axes} axes — {status}")


def _index_tuples(domains) -> list[tuple[Value, ...]]:
    if not domains:
        return [()]
    pools = [list(d.values()) for d in domains]
    return [tuple(c) for c in itertools.product(*pools)]


def collect_axes(compiled: CompiledProgram,
                 rb: CompiledRuleBase) -> list[Axis]:
    analyzed = compiled.analyzed
    axes: list[Axis] = []
    for name, dom in rb.params:
        axes.append(Axis("param", name, (), dom))
    touched = sorted(rb.reads | rb.writes)
    # subbases called by this base extend the touched set
    for sub_name in sorted(rb.calls):
        sub = compiled.subbases.get(sub_name)
        if sub is not None:
            touched.extend(sorted((sub.reads | sub.writes) - set(touched)))
    for name in touched:
        var = analyzed.variables[name]
        for idx in _index_tuples(var.index_domains):
            axes.append(Axis("register", name, idx, var.domain))
    # inputs actually referenced by the ground rules / features
    used_inputs = _inputs_used(compiled, rb)
    for name in sorted(used_inputs):
        inp = analyzed.inputs[name]
        for idx in _index_tuples(inp.index_domains):
            axes.append(Axis("input", name, idx, inp.domain))
    return axes


def _inputs_used(compiled: CompiledProgram, rb: CompiledRuleBase) -> set[str]:
    from ..dsl import nodes as N
    from .atoms import expr_names
    inputs = compiled.analyzed.inputs.keys()
    used: set[str] = set()

    def walk(e) -> None:
        used.update(expr_names(e) & inputs)

    for g in rb.ground_rules:
        walk(g.premise)
        for cmd in g.commands:
            if isinstance(cmd, N.Assign):
                walk(cmd.target)
                walk(cmd.value)
            elif isinstance(cmd, N.Emit):
                for a in cmd.args:
                    walk(a)
            elif isinstance(cmd, N.Return):
                walk(cmd.value)
    return used


def verify_equivalence(compiled: CompiledProgram, base_name: str,
                       functions=None, max_exhaustive: int = 20_000,
                       samples: int = 2_000, seed: int = 0,
                       coerce: str = "saturate") -> VerificationReport:
    """Compare table-mode and AST-mode execution of one rule base."""
    from ..engine import RuleEngine

    rb = compiled.base(base_name)
    axes = collect_axes(compiled, rb)
    space = 1
    for ax in axes:
        space *= ax.domain.size
        if space > 10 ** 12:
            break
    exhaustive = space <= max_exhaustive

    table = RuleEngine(compiled, functions=functions, mode="table",
                       coerce=coerce)
    ast = RuleEngine(compiled, functions=functions, mode="ast",
                     coerce=coerce)

    if exhaustive:
        pools = [list(ax.domain.values()) for ax in axes]
        points = itertools.product(*pools)
        n_points = space
    else:
        rng = random.Random(seed)
        pools = [list(ax.domain.values()) for ax in axes]

        def sample():
            for _ in range(samples):
                yield tuple(rng.choice(p) for p in pools)

        points = sample()
        n_points = samples

    report = VerificationReport(base=base_name, axes=len(axes),
                                space_size=space, exhaustive=exhaustive,
                                checked=0)
    for point in points:
        params: list[Value] = []
        inputs: dict = {}
        for ax, value in zip(axes, point):
            if ax.kind == "param":
                params.append(value)
            elif ax.kind == "input":
                if ax.index:
                    inputs.setdefault(ax.name, {})[ax.index] = value
                else:
                    inputs[ax.name] = value
        for eng in (table, ast):
            eng.reset_state()
            for ax, value in zip(axes, point):
                if ax.kind == "register":
                    eng.registers.write(ax.name, value, ax.index)
            eng.set_inputs(inputs)
        try:
            rt = table.call(base_name, *params)
            ra = ast.call(base_name, *params)
        except EvalError as exc:
            report.errors.append({"point": dict(zip(
                [f"{ax.kind}:{ax.name}{list(ax.index)}" for ax in axes],
                point)), "error": str(exc)})
            report.checked += 1
            if len(report.errors) >= 5:
                break
            continue
        same = (rt.fired_source_rule == ra.fired_source_rule
                and rt.returned == ra.returned
                and rt.has_return == ra.has_return
                and rt.emissions == ra.emissions
                and rt.writes == ra.writes
                and table.registers.snapshot() == ast.registers.snapshot())
        report.checked += 1
        if not same:
            report.mismatches.append({
                "point": dict(zip(
                    [f"{ax.kind}:{ax.name}{list(ax.index)}" for ax in axes],
                    point)),
                "table": (rt.fired_source_rule, rt.returned),
                "ast": (ra.fired_source_rule, ra.returned),
            })
            if len(report.mismatches) >= 5:
                break
    return report
