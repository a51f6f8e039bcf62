"""Fine-grained semantics tests: parallel conclusions, write conflicts,
event manager mechanics, evaluator corner cases."""

import pytest

from repro.core import RuleEngine
from repro.core.dsl import EvalError
from repro.core.dsl.semantics import analyze_source
from repro.core.interpreter import (Env, RegisterFile, eval_expr,
                                    iteration_values, make_input_reader)
from repro.core.dsl.parser import Parser


def expr(src):
    return Parser(src).parse_premise()


def make_env(decls, params=None, inputs=None):
    a = analyze_source(decls)
    return Env(a, RegisterFile(a), params or {},
               make_input_reader(inputs or {}))


@pytest.fixture(params=["table", "ast"])
def mode(request):
    return request.param


class TestParallelConclusions:
    def test_rotation_of_three(self, mode):
        eng = RuleEngine("""
        VARIABLE a IN 0 TO 9 INIT 1
        VARIABLE b IN 0 TO 9 INIT 2
        VARIABLE c IN 0 TO 9 INIT 3
        ON rot()
          IF a >= 0 THEN a <- b, b <- c, c <- a;
        END rot;
        """, mode=mode)
        eng.call("rot")
        assert (eng.registers.read("a"), eng.registers.read("b"),
                eng.registers.read("c")) == (2, 3, 1)

    def test_conflicting_writes_last_wins(self, mode):
        eng = RuleEngine("""
        VARIABLE x IN 0 TO 9
        ON f()
          IF x = 0 THEN x <- 3, x <- 7;
        END f;
        """, mode=mode)
        eng.call("f")
        assert eng.registers.read("x") == 7

    def test_index_evaluated_against_prestate(self, mode):
        eng = RuleEngine("""
        VARIABLE i IN 0 TO 3 INIT 1
        VARIABLE arr(0 TO 3) IN 0 TO 9
        ON f()
          IF i = 1 THEN i <- 2, arr(i) <- 9;
        END f;
        """, mode=mode)
        eng.call("f")
        # arr index used the pre-state i = 1, not the new i = 2
        assert eng.registers.read("arr", (1,)) == 9
        assert eng.registers.read("arr", (2,)) == 0

    def test_forall_expands_with_snapshot(self, mode):
        eng = RuleEngine("""
        CONSTANT n = 4
        VARIABLE arr(0 TO 3) IN 0 TO 9
        VARIABLE base IN 0 TO 9 INIT 5
        ON f()
          IF base = 5 THEN base <- 0, FORALL i IN n: arr(i) <- base + i;
        END f;
        """, mode=mode)
        eng.call("f")
        assert [eng.registers.read("arr", (i,)) for i in range(4)] == \
            [5, 6, 7, 8]
        assert eng.registers.read("base") == 0


class TestEventMechanics:
    def test_events_fifo_order(self, mode):
        eng = RuleEngine("""
        VARIABLE log IN 0 TO 99
        ON a()
          IF log < 90 THEN log <- log * 10 + 1;
        END a;
        ON b()
          IF log < 90 THEN log <- log * 10 + 2;
        END b;
        """, mode=mode)
        eng.post("a")
        eng.post("b")
        eng.run()
        assert eng.registers.read("log") == 12

    def test_external_events_preserve_args(self, mode):
        eng = RuleEngine("""
        CONSTANT st = {go, stop}
        EVENT out(0 TO 7, st)
        VARIABLE x IN 0 TO 7
        ON f(v IN 0 TO 7)
          IF v > 0 THEN !out(v, go), x <- v;
        END f;
        """, mode=mode)
        eng.call("f", 5)
        ext = eng.drain_external()
        assert len(ext) == 1
        assert ext[0].event == "out"
        assert ext[0].args == (5, "go")

    def test_reset_state_clears_everything(self, mode):
        eng = RuleEngine("""
        VARIABLE x IN 0 TO 7
        ON f() IF x < 7 THEN x <- x + 1, !f(); END f;
        """, mode=mode)
        eng.post("f")
        eng.run()
        assert eng.registers.read("x") == 7
        eng.reset_state()
        assert eng.registers.read("x") == 0
        assert eng.steps == 0
        assert not eng.events.queue

    def test_step_counter_per_base(self, mode):
        eng = RuleEngine("""
        VARIABLE x IN 0 TO 7
        ON a() IF x < 7 THEN x <- x + 1, !b(); END a;
        ON b() IF x < 7 THEN x <- x + 1; END b;
        """, mode=mode)
        eng.post("a")
        eng.run()
        # a ran once and emitted b, which ran once: two steps
        assert eng.steps == 2
        assert eng.registers.read("x") == 2


class TestEvaluatorCorners:
    def test_type_name_as_value_is_full_set(self):
        env = make_env("CONSTANT st = {a, b, c}\nVARIABLE cur IN st")
        v = eval_expr(expr("st"), env)
        assert v == frozenset({"a", "b", "c"})

    def test_membership_in_type(self):
        env = make_env("CONSTANT st = {a, b, c}\nVARIABLE cur IN st")
        assert eval_expr(expr("cur IN st"), env) is True

    def test_set_operations(self):
        env = make_env("VARIABLE s IN SET OF 0 TO 3")
        env.registers.write("s", frozenset({0, 1, 2}))
        assert eval_expr(expr("s DIFF {1}"), env) == frozenset({0, 2})
        assert eval_expr(expr("s INTER {1, 3}"), env) == frozenset({1})
        assert eval_expr(expr("s UNION {3}"), env) == frozenset({0, 1, 2, 3})

    def test_iteration_order_symbols_declared_order(self):
        env = make_env("CONSTANT st = {zeta, alpha, mid}\nVARIABLE cur IN st")
        vals = iteration_values(expr("st"), env)
        assert vals == ["zeta", "alpha", "mid"]  # declared, not sorted

    def test_mod_by_zero_raises(self):
        env = make_env("VARIABLE x IN 0 TO 3")
        with pytest.raises(EvalError):
            eval_expr(expr("x MOD 0"), env)

    def test_input_reader_rejects_shape_mismatch(self):
        env = make_env("INPUT a(0 TO 3) IN 0 TO 7",
                       inputs={"a": 5})  # scalar for an indexed input
        with pytest.raises(EvalError):
            eval_expr(expr("a(1)"), env)
