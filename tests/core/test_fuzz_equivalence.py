"""Fuzzing the compiler: randomly generated (but well-formed) rule
programs must behave identically under the compiled-table interpreter
and the reference AST interpreter, for random register states and
inputs.

This complements the hand-written equivalence tests with breadth: the
generator covers comparisons against constants and between signals,
membership tests, boolean structure, saturating counter updates,
symbol-state transitions and multi-rule priority interaction.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import RuleEngine
from repro.core.compiler import compile_program

from .table_oracle import oracle_table

STATES = ("alpha", "beta", "gamma", "delta")
INT_VARS = ("v0", "v1")
INT_MAX = 7


@st.composite
def atoms(draw):
    kind = draw(st.sampled_from(
        ["var_cmp_const", "var_cmp_var", "var_in_set", "state_eq",
         "state_in", "input_cmp_const", "var_cmp_input"]))
    if kind == "var_cmp_const":
        v = draw(st.sampled_from(INT_VARS))
        op = draw(st.sampled_from(["=", "/=", "<", "<=", ">", ">="]))
        c = draw(st.integers(0, INT_MAX))
        return f"{v} {op} {c}"
    if kind == "var_cmp_var":
        op = draw(st.sampled_from(["=", "<", ">="]))
        return f"v0 {op} v1"
    if kind == "var_in_set":
        v = draw(st.sampled_from(INT_VARS))
        members = draw(st.sets(st.integers(0, INT_MAX), min_size=1,
                               max_size=4))
        return f"{v} IN {{{', '.join(map(str, sorted(members)))}}}"
    if kind == "state_eq":
        s = draw(st.sampled_from(STATES))
        return f"mode = {s}"
    if kind == "state_in":
        members = draw(st.sets(st.sampled_from(STATES), min_size=1,
                               max_size=3))
        return f"mode IN {{{', '.join(sorted(members))}}}"
    if kind == "input_cmp_const":
        op = draw(st.sampled_from(["=", "<", ">"]))
        c = draw(st.integers(0, INT_MAX))
        return f"sensor {op} {c}"
    return f"v0 {draw(st.sampled_from(['<', '=', '>=']))} sensor"


@st.composite
def premises(draw):
    n = draw(st.integers(1, 3))
    parts = [draw(atoms()) for _ in range(n)]
    if n == 1:
        p = parts[0]
    else:
        joiner = draw(st.sampled_from([" AND ", " OR "]))
        p = joiner.join(parts)
    if draw(st.booleans()):
        p = f"NOT ({p})"
    return p


@st.composite
def commands(draw):
    kind = draw(st.sampled_from(
        ["assign_const", "assign_inc", "assign_var", "assign_state",
         "assign_from_input", "assign_cell", "emit"]))
    if kind == "assign_const":
        v = draw(st.sampled_from(INT_VARS))
        return f"{v} <- {draw(st.integers(0, INT_MAX))}"
    if kind == "assign_inc":
        v = draw(st.sampled_from(INT_VARS))
        op = draw(st.sampled_from(["+", "-"]))
        return f"{v} <- {v} {op} {draw(st.integers(1, 2))}"
    if kind == "assign_var":
        a, b = draw(st.permutations(list(INT_VARS)))
        return f"{a} <- {b}"
    if kind == "assign_state":
        return f"mode <- {draw(st.sampled_from(STATES))}"
    if kind == "assign_cell":
        cell = draw(st.integers(0, 1))
        return f"arr({cell}) <- {draw(st.sampled_from(list(INT_VARS)))}"
    if kind == "emit":
        return f"!ping({draw(st.sampled_from(list(INT_VARS)))})"
    return "v1 <- sensor"


@st.composite
def programs(draw):
    n_rules = draw(st.integers(1, 4))
    rules = []
    for _ in range(n_rules):
        prem = draw(premises())
        cmds = [draw(commands())
                for _ in range(draw(st.integers(1, 2)))]
        rules.append(f"  IF {prem}\n  THEN {', '.join(cmds)};")
    return (
        "CONSTANT modes = {alpha, beta, gamma, delta}\n"
        f"VARIABLE v0 IN 0 TO {INT_MAX}\n"
        f"VARIABLE v1 IN 0 TO {INT_MAX}\n"
        f"VARIABLE arr(0 TO 1) IN 0 TO {INT_MAX}\n"
        "VARIABLE mode IN modes\n"
        f"INPUT sensor IN 0 TO {INT_MAX}\n"
        f"EVENT ping(0 TO {INT_MAX})\n"
        "ON step()\n" + "\n".join(rules) + "\nEND step;\n")


@settings(max_examples=120, deadline=None)
@given(source=programs(),
       v0=st.integers(0, INT_MAX), v1=st.integers(0, INT_MAX),
       mode=st.sampled_from(STATES), sensor=st.integers(0, INT_MAX),
       rounds=st.integers(1, 3))
def test_fuzzed_programs_agree(source, v0, v1, mode, sensor, rounds):
    compiled = compile_program(source)
    rb = compiled.rulebases["step"]
    np.testing.assert_array_equal(rb.table, oracle_table(rb.analysis),
                                  err_msg=source)
    table = RuleEngine(compiled, mode="table")
    ast = RuleEngine(compiled, mode="ast")
    for eng in (table, ast):
        eng.registers.write("v0", v0)
        eng.registers.write("v1", v1)
        eng.registers.write("mode", mode)
        eng.set_inputs({"sensor": sensor})
    for _ in range(rounds):
        rt = table.call("step")
        ra = ast.call("step")
        assert rt.fired_source_rule == ra.fired_source_rule, source
        assert rt.writes == ra.writes, source
        assert rt.emissions == ra.emissions, source
        assert table.registers.snapshot() == ast.registers.snapshot(), source
        table.drain_external()
        ast.drain_external()


@settings(max_examples=60, deadline=None)
@given(source=programs())
def test_fuzzed_programs_export_roundtrip(source):
    from repro.core.compiler import export_rulebase, import_check
    compiled = compile_program(source)
    rb = compiled.rulebases["step"]
    rec = export_rulebase(rb)
    assert import_check(rec, rb)
    assert rec["size_bits"] == rb.size_bits


@settings(max_examples=40, deadline=None)
@given(source=programs(),
       v0=st.integers(0, INT_MAX), v1=st.integers(0, INT_MAX),
       mode=st.sampled_from(STATES), sensor=st.integers(0, INT_MAX))
def test_fuzzed_programs_survive_optimizer(source, v0, v1, mode, sensor):
    """The transformation pipeline must preserve behaviour on arbitrary
    generated programs, not just the curated examples."""
    from repro.core.compiler import CompiledProgram, optimize_base
    from repro.core.dsl import analyze_source
    a = analyze_source(source)
    after, _ = optimize_base(a.analyzer, a.rulebases["step"])
    original = RuleEngine(compile_program(source))
    optimized = RuleEngine(CompiledProgram(
        analyzed=a, rulebases={"step": after}, subbases={}))
    for eng in (original, optimized):
        eng.registers.write("v0", v0)
        eng.registers.write("v1", v1)
        eng.registers.write("mode", mode)
        eng.set_inputs({"sensor": sensor})
    ro = original.call("step")
    rp = optimized.call("step")
    assert ro.writes == rp.writes, source
    assert original.registers.snapshot() == optimized.registers.snapshot()
