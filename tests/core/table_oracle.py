"""Per-entry rule-table generation: the oracle for
:func:`repro.core.compiler.generate_table`.

It visits the index space one entry at a time: decode the entry's
feature codes (mixed radix, first feature most significant, as
``AtomAnalysis.index_of``), bind each direct signal to its decoded
value and each bit feature to its truth, and evaluate the premises in
textual order with the scalar evaluator until one holds.
"""

import numpy as np

from repro.core.compiler import NO_RULE, DirectFeature


def entry_codes(analysis, idx: int) -> list[int]:
    """Feature codes of table entry ``idx``."""
    codes = []
    for f in reversed(analysis.features):
        idx, code = divmod(idx, f.size)
        codes.append(code)
    return codes[::-1]


def eval_premise(analysis, premise, codes: list[int]) -> bool:
    direct_vals, bit_vals = {}, {}
    for f, c in zip(analysis.features, codes):
        if isinstance(f, DirectFeature):
            direct_vals[f.signal] = f.domain.decode(c)
        else:
            bit_vals[f.atom] = bool(c)
    return analysis._eval(premise, direct_vals, bit_vals)


def oracle_entry(analysis, idx: int) -> int:
    codes = entry_codes(analysis, idx)
    assert analysis.index_of(codes) == idx
    for ri, rule in enumerate(analysis.ground_rules):
        if eval_premise(analysis, rule.premise, codes):
            return ri
    return NO_RULE


def oracle_table(analysis) -> np.ndarray:
    return np.array([oracle_entry(analysis, idx)
                     for idx in range(analysis.n_entries)], dtype=np.int32)
