"""The premises behind replaying rule-driven ROUTE_C decisions in C
(``RuleDrivenRouteC.native_contract``), read off the compiled program:
the premise atoms each rule base's table index is built from, and the
RETURNs of ``adaptivity``.

A replayed decision re-runs none of ``decide_dir``, ``decide_vc`` or
``adaptivity``: it skips ``adaptivity``'s ``adapt_reg(dim) <-
qload(dim)`` write, and it re-orders its candidates by load in C
instead of re-reading ``qload``.  Both are sound only while the
properties below hold."""

import pytest

from repro.core.compiler.atoms import expr_names
from repro.core.dsl import nodes as N
from repro.routing.rulesets.loader import compile_ruleset

#: the rule bases ``RuleDrivenRouteC.route`` calls for a decision
DECISION_BASES = ("decide_dir", "decide_vc", "adaptivity")


@pytest.fixture(scope="module", params=[3, 6], ids=lambda d: f"d{d}")
def program(request):
    return compile_ruleset("route_c", {"d": request.param, "a": 2},
                           materialize=False)


def _premise_reads(base):
    """(atom, the identifiers its signals read) per premise atom."""
    for atom, info in base.analysis.atoms.items():
        yield atom, frozenset().union(*map(expr_names, info.signals))


def test_no_premise_reads_adapt_reg(program):
    for name, base in program.all_bases.items():
        for atom, reads in _premise_reads(base):
            assert "adapt_reg" not in reads, \
                f"{name}: the premise atom on line {atom.line} reads adapt_reg"


def test_decision_premises_read_no_load_state_or_register(program):
    forbidden = set(program.analyzed.variables) | {"qload", "new_state"}
    for name in DECISION_BASES:
        for atom, reads in _premise_reads(program.base(name)):
            bad = sorted(reads & forbidden)
            assert not bad, \
                f"{name}: the premise atom on line {atom.line} reads {bad}"


def test_adaptivity_returns_only_pick_min_of_cands(program):
    returns = [cmd for rule in program.base("adaptivity").ground_rules
               for cmd in rule.commands if isinstance(cmd, N.Return)]
    assert returns
    for cmd in returns:
        v = cmd.value
        assert isinstance(v, N.Index) and v.ident == "pick_min" \
            and [getattr(a, "ident", None) for a in v.args] == ["cands"], \
            f"adaptivity: the RETURN on line {cmd.line} is not pick_min(cands)"
