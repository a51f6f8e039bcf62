"""Semantics-preserving rule-base transformations.

Paper Section 4: "A rule-based specification is semantically well based
allowing the application of formal methods to routing algorithms, e.g.
transformations."  This module provides three such transformations,
each proven safe with respect to the first-applicable-rule semantics
and checked by differential tests (``tests/core/test_transform.py``):

* **constant folding** — premise atoms decidable at compile time are
  replaced by their truth value and the boolean structure is
  simplified; rules whose premises fold to ``false`` disappear;
* **adjacent-rule merging** — two *neighbouring* rules with identical
  conclusions merge into one rule with OR-ed premises.  Adjacency is
  what makes this safe: with no rule between them, an input matching
  either premise fired the earlier conclusion before and still does;
* **dead-rule elimination** — rules no table entry selects (shadowed by
  earlier rules for every reachable feature combination) are removed;
  the completely-filled table is identical afterwards by construction.

``optimize_base`` composes them and reports the table-size effect.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dsl import nodes as N
from ..dsl.semantics import Analyzer, BaseInfo
from .atoms import try_const
from .compile import CompiledRuleBase, compile_base

TRUE = N.Compare(op="=", left=N.Num(value=0), right=N.Num(value=0))
FALSE = N.Compare(op="=", left=N.Num(value=0), right=N.Num(value=1))


def _is_true(e: N.Expr) -> bool:
    return e == TRUE


def _is_false(e: N.Expr) -> bool:
    return e == FALSE


# ---------------------------------------------------------------------------
# constant folding
# ---------------------------------------------------------------------------

def fold_premise(analyzer: Analyzer, expr: N.Expr) -> N.Expr:
    """Evaluate compile-time-constant atoms; simplify AND/OR/NOT."""
    if isinstance(expr, N.And):
        terms = []
        for t in expr.terms:
            ft = fold_premise(analyzer, t)
            if _is_false(ft):
                return FALSE
            if _is_true(ft):
                continue
            terms.append(ft)
        if not terms:
            return TRUE
        if len(terms) == 1:
            return terms[0]
        return N.And(line=expr.line, terms=tuple(terms))
    if isinstance(expr, N.Or):
        terms = []
        for t in expr.terms:
            ft = fold_premise(analyzer, t)
            if _is_true(ft):
                return TRUE
            if _is_false(ft):
                continue
            terms.append(ft)
        if not terms:
            return FALSE
        if len(terms) == 1:
            return terms[0]
        return N.Or(line=expr.line, terms=tuple(terms))
    if isinstance(expr, N.Not):
        inner = fold_premise(analyzer, expr.operand)
        if _is_true(inner):
            return FALSE
        if _is_false(inner):
            return TRUE
        if isinstance(inner, N.Not):
            return inner.operand
        return N.Not(line=expr.line, operand=inner)
    if isinstance(expr, N.Quant):
        # quantifiers fold after expansion; leave them intact here
        return expr
    if isinstance(expr, N.Compare):
        lok, lv = try_const(analyzer, expr.left)
        rok, rv = try_const(analyzer, expr.right)
        if lok and rok:
            from .atoms import _compare
            return TRUE if _compare(expr.op, lv, rv, expr.line) else FALSE
        return expr
    if isinstance(expr, N.InSet):
        iok, iv = try_const(analyzer, expr.item)
        cok, cv = try_const(analyzer, expr.collection)
        if iok and cok and isinstance(cv, frozenset):
            return TRUE if iv in cv else FALSE
        return expr
    return expr


def fold_rules(analyzer: Analyzer, base: BaseInfo) -> BaseInfo:
    rules = []
    for rule in base.rules:
        prem = fold_premise(analyzer, rule.premise)
        if _is_false(prem):
            continue  # can never fire
        rules.append(N.Rule(premise=prem, conclusion=rule.conclusion,
                            line=rule.line))
    return BaseInfo(base.name, base.params, base.returns, tuple(rules),
                    base.is_subbase, base.line)


# ---------------------------------------------------------------------------
# adjacent-rule merging
# ---------------------------------------------------------------------------

def merge_adjacent_rules(base: BaseInfo) -> BaseInfo:
    rules: list[N.Rule] = []
    for rule in base.rules:
        if rules and rules[-1].conclusion == rule.conclusion:
            prev = rules[-1]
            prev_terms = (prev.premise.terms
                          if isinstance(prev.premise, N.Or)
                          else (prev.premise,))
            rules[-1] = N.Rule(
                premise=N.Or(line=prev.line,
                             terms=tuple(prev_terms) + (rule.premise,)),
                conclusion=prev.conclusion, line=prev.line)
        else:
            rules.append(rule)
    return BaseInfo(base.name, base.params, base.returns, tuple(rules),
                    base.is_subbase, base.line)


# ---------------------------------------------------------------------------
# dead-rule elimination
# ---------------------------------------------------------------------------

def drop_dead_rules(analyzer: Analyzer, base: BaseInfo) -> BaseInfo:
    """Compile once, remove source rules that no table entry selects."""
    compiled = compile_base(analyzer, base, materialize=True)
    assert compiled.table is not None
    used_sources = {compiled.ground_rules[int(e)].source_index
                    for e in compiled.table if int(e) >= 0}
    rules = tuple(r for i, r in enumerate(base.rules) if i in used_sources)
    if len(rules) == len(base.rules):
        return base
    return BaseInfo(base.name, base.params, base.returns, rules,
                    base.is_subbase, base.line)


# ---------------------------------------------------------------------------
# composition + reporting
# ---------------------------------------------------------------------------

@dataclass
class TransformReport:
    name: str
    rules_before: int
    rules_after: int
    size_bits_before: int
    size_bits_after: int
    steps: list[str] = field(default_factory=list)


def optimize_base(analyzer: Analyzer, base: BaseInfo
                  ) -> tuple[CompiledRuleBase, TransformReport]:
    """Apply fold -> merge -> dead-rule elimination, recompile, report."""
    before = compile_base(analyzer, base, materialize=True)
    steps = []

    folded = fold_rules(analyzer, base)
    if folded.rules != base.rules:
        steps.append(f"constant folding: {len(base.rules)} -> "
                     f"{len(folded.rules)} rules")
    merged = merge_adjacent_rules(folded)
    if merged.rules != folded.rules:
        steps.append(f"adjacent merge: {len(folded.rules)} -> "
                     f"{len(merged.rules)} rules")
    slim = drop_dead_rules(analyzer, merged)
    if slim.rules != merged.rules:
        steps.append(f"dead-rule elimination: {len(merged.rules)} -> "
                     f"{len(slim.rules)} rules")

    after = compile_base(analyzer, slim, materialize=True)
    report = TransformReport(
        name=base.name, rules_before=len(base.rules),
        rules_after=len(slim.rules),
        size_bits_before=before.size_bits,
        size_bits_after=after.size_bits, steps=steps)
    return after, report
