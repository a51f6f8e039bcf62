"""The compiled decision kernel behind ``mode="table"`` must be an
invisible optimization: identical InvocationResults to the reference
AST interpreter on arbitrary programs, and zero ``eval_expr`` AST walks
on the hot decision path.

Also covers the ``make_input_reader`` normalization contract the fast
path leans on: scalar index keys canonicalize to 1-tuples exactly once,
conflicting spellings are rejected, and ``trusted=True`` adopts a
canonical mapping as-is.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import RuleEngine
from repro.core.compiler import compile_program
from repro.core.dsl.errors import EvalError
from repro.core.interpreter import evaluator
from repro.core.interpreter.evaluator import make_input_reader

INT_MAX = 7
STATES = ("alpha", "beta", "gamma", "delta")


# ---------------------------------------------------------------------------
# property-style equivalence: table kernel == ast
# ---------------------------------------------------------------------------

@st.composite
def decision_premises(draw):
    kind = draw(st.sampled_from(
        ["param_cmp", "sensor_cmp", "indexed_cmp", "var_cmp", "state_eq",
         "membership", "mixed"]))
    if kind == "param_cmp":
        op = draw(st.sampled_from(["=", "/=", "<", "<=", ">", ">="]))
        return f"a {op} {draw(st.integers(0, 3))}"
    if kind == "sensor_cmp":
        op = draw(st.sampled_from(["=", "<", ">"]))
        return f"sensor {op} {draw(st.integers(0, INT_MAX))}"
    if kind == "indexed_cmp":
        op = draw(st.sampled_from(["=", "<", ">="]))
        return f"q(a) {op} {draw(st.integers(0, INT_MAX))}"
    if kind == "var_cmp":
        op = draw(st.sampled_from(["=", "<", ">"]))
        return f"v0 {op} {draw(st.integers(0, INT_MAX))}"
    if kind == "state_eq":
        return f"mode = {draw(st.sampled_from(STATES))}"
    if kind == "membership":
        members = draw(st.sets(st.integers(0, INT_MAX), min_size=1,
                               max_size=4))
        return f"sensor IN {{{', '.join(map(str, sorted(members)))}}}"
    return (f"a < {draw(st.integers(1, 3))} AND "
            f"sensor >= {draw(st.integers(0, INT_MAX))}")


@st.composite
def return_exprs(draw):
    kind = draw(st.sampled_from(
        ["const", "var", "sensor", "indexed", "arith"]))
    if kind == "const":
        return str(draw(st.integers(0, INT_MAX)))
    if kind == "var":
        return "v0"
    if kind == "sensor":
        return "sensor"
    if kind == "indexed":
        return "q(a)"
    op = draw(st.sampled_from(["+", "-"]))
    e = f"v0 {op} {draw(st.integers(0, 2))}"
    return f"({e}) MOD {INT_MAX + 1}" if op == "+" else \
        f"(v0 + {INT_MAX + 1} {op} {draw(st.integers(0, 2))}) " \
        f"MOD {INT_MAX + 1}"


@st.composite
def step_commands(draw):
    kind = draw(st.sampled_from(
        ["assign_const", "assign_sensor", "assign_state", "emit",
         "emit_two"]))
    if kind == "assign_const":
        return f"v0 <- {draw(st.integers(0, INT_MAX))}"
    if kind == "assign_sensor":
        return "v0 <- sensor"
    if kind == "assign_state":
        return f"mode <- {draw(st.sampled_from(STATES))}"
    if kind == "emit":
        return "!ping(v0)"
    return "!ping(sensor), !ping(v0)"


@st.composite
def fastpath_programs(draw):
    decide_rules = []
    for _ in range(draw(st.integers(1, 4))):
        prem = draw(decision_premises())
        decide_rules.append(
            f"  IF {prem}\n  THEN RETURN({draw(return_exprs())});")
    step_rules = []
    for _ in range(draw(st.integers(1, 3))):
        prem = draw(decision_premises())
        cmds = [draw(step_commands())
                for _ in range(draw(st.integers(1, 2)))]
        step_rules.append(f"  IF {prem}\n  THEN {', '.join(cmds)};")
    return (
        "CONSTANT modes = {alpha, beta, gamma, delta}\n"
        f"VARIABLE v0 IN 0 TO {INT_MAX}\n"
        "VARIABLE mode IN modes\n"
        f"INPUT sensor IN 0 TO {INT_MAX}\n"
        f"INPUT q(0 TO 3) IN 0 TO {INT_MAX}\n"
        f"EVENT ping(0 TO {INT_MAX})\n"
        f"ON decide(a IN 0 TO 3) RETURNS 0 TO {INT_MAX}\n"
        + "\n".join(decide_rules) + "\nEND decide;\n"
        "ON step(a IN 0 TO 3)\n"
        + "\n".join(step_rules) + "\nEND step;\n")


@settings(max_examples=100, deadline=None)
@given(source=fastpath_programs(),
       v0=st.integers(0, INT_MAX), mode=st.sampled_from(STATES),
       sensor=st.integers(0, INT_MAX),
       q=st.lists(st.integers(0, INT_MAX), min_size=4, max_size=4),
       a=st.integers(0, 3), rounds=st.integers(1, 3))
def test_fastpath_equivalence(source, v0, mode, sensor, q, a, rounds):
    """table and ast must produce identical InvocationResults — fired
    rule index, return value, writes and emissions (order included) —
    from identical states."""
    compiled = compile_program(source)
    engines = [RuleEngine(compiled, mode="table"),
               RuleEngine(compiled, mode="ast")]
    inputs = {"sensor": sensor, "q": {(i,): val for i, val in enumerate(q)}}
    for eng in engines:
        eng.registers.write("v0", v0)
        eng.registers.write("mode", mode)
        eng.set_inputs(inputs, trusted=True)
    for _ in range(rounds):
        results = [eng.call("decide", a) for eng in engines]
        ref = results[-1]
        for res in results[:-1]:
            assert res.fired_source_rule == ref.fired_source_rule, source
            assert res.has_return == ref.has_return, source
            assert res.returned == ref.returned, source
        results = [eng.call("step", a) for eng in engines]
        ref = results[-1]
        for res in results[:-1]:
            assert res.fired_source_rule == ref.fired_source_rule, source
            assert res.writes == ref.writes, source
            assert res.emissions == ref.emissions, source
        snaps = [eng.registers.snapshot() for eng in engines]
        assert snaps[0] == snaps[1], source
        for eng in engines:
            eng.drain_external()


# ---------------------------------------------------------------------------
# make_input_reader normalization
# ---------------------------------------------------------------------------

def test_input_reader_canonicalizes_scalar_keys():
    reader = make_input_reader({"q": {0: 5, (1,): 6}, "s": 3})
    assert reader("q", (0,)) == 5
    assert reader("q", (1,)) == 6
    assert reader("s", ()) == 3
    # the exposed mapping is fully canonical: tuple keys only
    assert set(reader.mapping["q"]) == {(0,), (1,)}


def test_input_reader_rejects_conflicting_spellings():
    with pytest.raises(EvalError, match="conflicting values"):
        make_input_reader({"q": {0: 5, (0,): 6}})


def test_input_reader_accepts_agreeing_spellings():
    reader = make_input_reader({"q": {0: 5, (0,): 5}})
    assert reader("q", (0,)) == 5


def test_input_reader_trusted_adopts_mapping():
    table = {(0,): 1, (1,): 2}
    source = {"q": table, "s": 9}
    reader = make_input_reader(source, trusted=True)
    assert reader.mapping is source
    assert reader.mapping["q"] is table
    assert reader("q", (1,)) == 2
    assert reader("s", ()) == 9


def test_input_reader_shares_already_canonical_tables():
    table = {(0,): 1, (1,): 2}
    reader = make_input_reader({"q": table})
    assert reader.mapping["q"] is table  # no copy when already canonical


# ---------------------------------------------------------------------------
# the hot path performs no AST interpretation
# ---------------------------------------------------------------------------

PERF_PROGRAM = f"""
VARIABLE v0 IN 0 TO {INT_MAX}
INPUT sensor IN 0 TO {INT_MAX}
INPUT q(0 TO 3) IN 0 TO {INT_MAX}
ON decide(a IN 0 TO 3) RETURNS 0 TO {INT_MAX}
  IF q(a) < 4 AND sensor > 2 THEN RETURN(q(a));
  IF v0 >= 3 THEN RETURN(v0);
  IF sensor <= 2 THEN RETURN(1);
END decide;
"""


def _count_eval_expr(monkeypatch) -> dict:
    """Route every module-level ``eval_expr`` reference the interpreter
    stack holds through a call counter."""
    from repro.core.interpreter import astinterp, execution

    counter = {"calls": 0}
    real = evaluator.eval_expr

    def counted(expr, env):
        counter["calls"] += 1
        return real(expr, env)

    for module in (evaluator, execution, astinterp):
        monkeypatch.setattr(module, "eval_expr", counted)
    return counter


def _warm_engine(mode: str) -> RuleEngine:
    engine = RuleEngine(compile_program(PERF_PROGRAM), mode=mode)
    inputs = {"sensor": 5, "q": {(i,): i for i in range(4)}}
    engine.set_inputs(inputs, trusted=True)
    engine.call("decide", 2)  # warmup: build the kernel and its memos
    return engine


@pytest.mark.perf
def test_hot_decision_makes_zero_eval_expr_calls(monkeypatch):
    """After warmup, a table-mode decision must never fall back to the
    AST walker — the whole point of the compiled kernel."""
    engine = _warm_engine("table")
    counter = _count_eval_expr(monkeypatch)
    for a in (0, 1, 2, 3, 2, 0):
        res = engine.call("decide", a)
        assert res.has_return
    assert counter["calls"] == 0
    engine.events.log.clear()


@pytest.mark.perf
def test_ast_mode_exercises_eval_expr(monkeypatch):
    """Control for the zero-calls assertion above: the AST reference
    interpreter DOES walk ASTs for the same decisions — proving the
    counter is wired to the real entry points."""
    engine = _warm_engine("ast")
    counter = _count_eval_expr(monkeypatch)
    engine.call("decide", 1)
    assert counter["calls"] > 0
    engine.events.log.clear()
