"""Column-wise table generation equals the per-entry oracle.

``generate_table`` evaluates each premise atom once per block of the
index space; ``table_oracle`` evaluates every premise at every entry.
The tables must be identical: on the shipped rulesets at the paper's
parameter points, on a rule base exercising every atom kind, and across
block boundaries.
"""

import numpy as np
import pytest

from repro.core.compiler import compile_program, tablegen
from repro.routing.rulesets.loader import compile_ruleset

from .table_oracle import oracle_entry, oracle_table

# Table 1, Table 2 at (d, a) = (6, 2), (4, 2), (8, 3), and the merged
# vs split sweep over d at a = 2
PAPER_POINTS = (
    [("nafta", {}), ("route_c", {"d": 8, "a": 3})]
    + [(name, {"d": d, "a": 2}) for d in (3, 4, 5, 6, 8, 10)
       for name in ("route_c", "route_c_merged")])

# every atom kind: constants, bit features, ordering and equality between
# direct signals, a UNION domain, symbols, membership in constant sets and
# in a set-valued register, and a set-valued equality
MIXED_SRC = """
CONSTANT syms = {{a, b, c}}
VARIABLE last IN 0 TO 3 UNION {{none}}
VARIABLE s IN SET OF 0 TO 2
VARIABLE m IN syms
VARIABLE k IN 1 TO 3
VARIABLE out IN 0 TO 7
INPUT d IN 0 TO 3
INPUT n IN syms
INPUT big IN 0 TO 8191
ON go()
  IF last = none AND d IN s THEN out <- 0;
  IF last = d OR (2 IN s AND NOT s = {{0, 1}}) THEN out <- 1;
  IF last IN s AND m = n AND big > 4000 THEN out <- 2;
  IF 3 < 2 OR (k < d AND m /= c AND NOT n = b) THEN out <- 3;
  IF last IN {{0, 1}} AND s = {{}} AND k >= 3 THEN out <- 4;
  IF last = 2 AND d IN {{1, 3}} AND m = a THEN out <- 5;
  IF k = 1 AND d < 2 {extra}THEN out <- 6;
END go;
"""


def _bases(program):
    return {**program.rulebases, **program.subbases}


@pytest.mark.parametrize("name,params", PAPER_POINTS,
                         ids=[f"{n}{p}" for n, p in PAPER_POINTS])
def test_shipped_rulesets_match_oracle(name, params):
    for rb in _bases(compile_ruleset(name, params, materialize=True)).values():
        np.testing.assert_array_equal(rb.table, oracle_table(rb.analysis),
                                      err_msg=rb.name)


@pytest.mark.parametrize("block", [7, 1000, tablegen.BLOCK_ENTRIES])
def test_mixed_atoms_match_oracle_in_any_block_size(block, monkeypatch):
    monkeypatch.setattr(tablegen, "BLOCK_ENTRIES", block)
    rb = compile_program(MIXED_SRC.format(extra="")).rulebases["go"]
    assert rb.n_entries > 7 * 1000
    table = rb.table
    assert set(np.unique(table)) == {tablegen.NO_RULE, *range(7)}
    np.testing.assert_array_equal(table, oracle_table(rb.analysis))


def test_table_spanning_blocks_matches_oracle_at_the_seams():
    src = MIXED_SRC.format(
        extra="OR (big < 100 AND NOT big = 9) OR big > 8000 ")
    rb = compile_program(src).rulebases["go"]
    n, block = rb.n_entries, tablegen.BLOCK_ENTRIES
    assert n > block
    seams = [range(0, 200), range(n - 200, n)] + [
        range(b - 200, b + 200) for b in range(block, n, block)]
    for idx in (i for seam in seams for i in seam):
        assert rb.table[idx] == oracle_entry(rb.analysis, idx), idx
