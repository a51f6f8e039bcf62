"""The compiled decision kernel behind ``mode="table"`` must be an
invisible optimization: identical InvocationResults to the reference
AST interpreter on arbitrary programs, with mapping and callable input
sources alike; zero ``eval_expr`` AST walks on the hot decision path,
effectful conclusions included (``eval_expr`` is the generated code's
only fallback); and one lowering per compiled rule base, shared by
every engine built from the program.

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


def _input_source(kind: str, sensor: int, q: list[int]):
    """The same input values as a canonical mapping or as a callable
    reader (the latter has no mapping for the generated code to read)."""
    inputs = {"sensor": sensor, "q": {(i,): val for i, val in enumerate(q)}}
    if kind == "mapping":
        return inputs
    return lambda name, idx: inputs[name][idx] if idx else inputs[name]


@pytest.mark.parametrize("input_kind", ["mapping", "callable"])
@settings(max_examples=100, deadline=None)
@given(source=fastpath_programs(),
       v0=st.integers(0, INT_MAX), mode=st.sampled_from(STATES),
       sensor=st.integers(0, INT_MAX),
       q=st.lists(st.integers(0, INT_MAX), min_size=4, max_size=4),
       a=st.integers(0, 3), rounds=st.integers(1, 3))
def test_fastpath_equivalence(input_kind, source, v0, mode, sensor, q, a,
                              rounds):
    """table and ast must produce identical InvocationResults — fired
    rule index, return value, writes and emissions (order included) —
    from identical states."""
    compiled = compile_program(source)
    engines = [RuleEngine(compiled, mode="table"),
               RuleEngine(compiled, mode="ast")]
    inputs = _input_source(input_kind, sensor, q)
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
VARIABLE adapt_reg(0 TO 3) IN 0 TO {INT_MAX}
INPUT sensor IN 0 TO {INT_MAX}
INPUT q(0 TO 3) IN 0 TO {INT_MAX}
EVENT ping(0 TO {INT_MAX})
FUNCTION pick_min(SET OF 0 TO 3) IN 0 TO 3 FCFB "minimum selection"
ON decide(a IN 0 TO 3) RETURNS 0 TO {INT_MAX}
  IF q(a) < 4 AND sensor > 2 THEN RETURN(q(a));
  IF v0 >= 3 THEN RETURN(v0);
  IF sensor <= 2 THEN RETURN(1);
END decide;
ON adaptivity(cands IN SET OF 0 TO 3, dim IN 0 TO 3) RETURNS 0 TO 3
  IF NOT cands = {{}}
  THEN RETURN(pick_min(cands)),
       adapt_reg(dim) <- q(dim);
  IF cands = {{}}
  THEN adapt_reg(dim) <- q(dim);
END adaptivity;
ON step(a IN 0 TO 3)
  IF sensor > v0 THEN v0 <- sensor, !ping(v0);
  IF sensor <= v0 THEN v0 <- a;
END step;
"""

FUNCTIONS = {"pick_min": min}
PERF_INPUTS = {"sensor": 5, "q": {(i,): i for i in range(4)}}


def _count_eval_expr(monkeypatch) -> dict:
    """Route every module-level ``eval_expr`` reference the interpreter
    stack holds through a call counter — the fast path's own reference
    included, which every fallback of the generated code goes through."""
    from repro.core.compiler import fastpath
    from repro.core.interpreter import astinterp, execution

    counter = {"calls": 0}
    real = evaluator.eval_expr

    def counted(expr, env):
        counter["calls"] += 1
        return real(expr, env)

    for module in (evaluator, execution, astinterp, fastpath):
        monkeypatch.setattr(module, "eval_expr", counted)
    return counter


def _warm_engine(mode: str) -> RuleEngine:
    engine = RuleEngine(compile_program(PERF_PROGRAM), mode=mode,
                        functions=FUNCTIONS)
    engine.set_inputs(PERF_INPUTS, trusted=True)
    # warmup: build the kernels, their memos and the fired conclusions
    engine.call("decide", 2)
    engine.call("adaptivity", frozenset({1, 2}), 1)
    engine.call("adaptivity", frozenset(), 0)
    return engine


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


def test_hot_effectful_conclusion_makes_zero_eval_expr_calls(monkeypatch):
    """A warm conclusion that writes a register and RETURNs (the shape
    of ROUTE_C's adaptivity base) runs generated code too."""
    engine = _warm_engine("table")
    counter = _count_eval_expr(monkeypatch)
    for cands, dim in ((frozenset({2, 3}), 3), (frozenset({0}), 2),
                       (frozenset(), 1)):
        res = engine.call("adaptivity", cands, dim)
        assert res.writes == [("adapt_reg", (dim,), dim)]
        assert res.has_return == bool(cands)
    assert counter["calls"] == 0
    assert engine.registers.read("adapt_reg", (3,)) == 3
    engine.events.log.clear()


def test_ast_mode_exercises_eval_expr(monkeypatch):
    """Control for the zero-calls assertions above: the AST reference
    interpreter DOES walk ASTs for the same decisions — proving the
    counter is wired to the real entry points."""
    engine = _warm_engine("ast")
    counter = _count_eval_expr(monkeypatch)
    engine.call("decide", 1)
    assert counter["calls"] > 0
    engine.events.log.clear()


# ---------------------------------------------------------------------------
# one lowering per compiled rule base
# ---------------------------------------------------------------------------

def _outcome(res):
    return (res.fired_source_rule, res.returned, res.has_return, res.writes,
            res.emissions)


def test_engines_share_one_lowering():
    """Two table engines over one CompiledProgram share the generated
    code but not their state: each still matches its own AST twin."""
    compiled = compile_program(PERF_PROGRAM)
    # sensor = 2: decide and step both branch on the register v0
    inputs = {"sensor": 2, "q": {(i,): i for i in range(4)}}
    pairs = []
    for v0 in (1, 6):
        pair = [RuleEngine(compiled, mode=mode, functions=FUNCTIONS)
                for mode in ("table", "ast")]
        for eng in pair:
            eng.registers.write("v0", v0)
            eng.set_inputs(inputs, trusted=True)
        pairs.append(pair)
    for _ in range(2):
        for table, ast in pairs:
            for a in range(4):
                assert _outcome(table.call("decide", a)) == \
                    _outcome(ast.call("decide", a))
                assert _outcome(table.call("step", a)) == \
                    _outcome(ast.call("step", a))
                assert table.registers.snapshot() == ast.registers.snapshot()
                assert table.drain_external() == ast.drain_external()
    kernels = [table._rbr.kernels["decide"] for table, _ in pairs]
    assert kernels[0] is not kernels[1]
    assert kernels[0]._codes is kernels[1]._codes


def test_second_return_raises_like_the_oracle():
    """Two RETURNs in one fired conclusion fail in both modes, before
    any write of that conclusion is applied."""
    compiled = compile_program(f"""
VARIABLE v0 IN 0 TO {INT_MAX}
INPUT sensor IN 0 TO {INT_MAX}
ON decide(a IN 0 TO 3) RETURNS 0 TO {INT_MAX}
  IF sensor > 2 THEN v0 <- a, RETURN(sensor), RETURN(a);
END decide;
""")
    for mode in ("table", "ast"):
        engine = RuleEngine(compiled, mode=mode)
        engine.set_inputs({"sensor": 5})
        with pytest.raises(EvalError, match="multiple RETURN"):
            engine.call("decide", 1)
        assert engine.registers.read("v0") == 0
