"""Greedy shrinking of failing cases to minimal repros.

A shrink candidate replaces the case iff it still trips the *same
oracle* (any of the originally-failing oracle names) — shrinking that
wanders onto a different bug produces corpus entries that mislead.
Passes run to a fixpoint under an evaluation budget:

1. drop fault links / fault nodes one at a time,
2. drop messages (largest first, then one at a time),
3. shrink message lengths to 1 and offer cycles to 0,
4. shrink topology dimensions where node ids survive the cut
   (mesh rows and columns, hypercube dimension).

Everything is deterministic — same failing case in, same minimal
repro out — so CI artifacts are stable across re-runs.
"""

from __future__ import annotations

from dataclasses import replace

from .case import ConformanceCase


def _failing_oracles(case: ConformanceCase) -> set[str]:
    from .runner import run_case_payload

    report = run_case_payload(case.to_dict())
    return {v["oracle"] for v in report["violations"]}


def _topology_cuts(case: ConformanceCase):
    """Smaller-topology variants of ``case`` with node ids remapped
    (or preserved) — only emitted when every involved node survives."""
    desc = case.topology
    kind = desc["kind"]
    involved = case.involved_nodes()
    if kind == "mesh2d":
        w, h = desc["width"], desc["height"]
        if h > 2:
            # dropping the top row preserves ids (id = y*w + x)
            if all(n < w * (h - 1) for n in involved):
                yield replace(case, topology={**desc, "height": h - 1})
        if w > 2:
            coords = {n: (n % w, n // w) for n in involved}
            if all(x < w - 1 for x, _ in coords.values()):
                remap = {n: y * (w - 1) + x for n, (x, y) in coords.items()}
                yield _remap_nodes(
                    replace(case, topology={**desc, "width": w - 1}), remap)
    elif kind == "hypercube":
        d = desc["dimension"]
        if d > 2 and all(n < (1 << (d - 1)) for n in involved):
            yield replace(case, topology={**desc, "dimension": d - 1})


def _remap_nodes(case: ConformanceCase, remap: dict[int, int]
                 ) -> ConformanceCase:
    return replace(
        case,
        messages=[(c, remap[s], remap[d], ln)
                  for c, s, d, ln in case.messages],
        fault_links=[(remap[a], remap[b]) for a, b in case.fault_links],
        fault_nodes=[remap[n] for n in case.fault_nodes],
    )


def _candidates(case: ConformanceCase):
    """One round of shrink candidates, most aggressive first."""
    # messages: drop the back half, then each message
    n = len(case.messages)
    if n > 1:
        yield replace(case, messages=case.messages[:n // 2])
    for i in range(n):
        if n > 1:
            yield replace(case,
                          messages=case.messages[:i]
                          + case.messages[i + 1:])
    # faults: drop one at a time
    for i in range(len(case.fault_links)):
        yield replace(case, fault_links=case.fault_links[:i]
                      + case.fault_links[i + 1:])
    for i in range(len(case.fault_nodes)):
        yield replace(case, fault_nodes=case.fault_nodes[:i]
                      + case.fault_nodes[i + 1:])
    # topology cuts
    yield from _topology_cuts(case)
    # flatten the workload: unit lengths, immediate offers
    flat = [(0, s, d, 1) for _, s, d, _ in case.messages]
    if flat != case.messages:
        yield replace(case, messages=flat)
    for i, (c, s, d, ln) in enumerate(case.messages):
        if ln > 1 or c > 0:
            m = list(case.messages)
            m[i] = (0, s, d, 1)
            yield replace(case, messages=m)


def shrink_case(case: ConformanceCase, *, max_evals: int = 250,
                stats: dict | None = None) -> ConformanceCase:
    """Greedily minimize ``case`` while the original failure persists.

    Runs the case itself first to learn which oracles fire; a case
    that fails no oracle is returned unchanged.
    """
    target = _failing_oracles(case)
    evals = 1
    if not target:
        if stats is not None:
            stats.update(evals=evals, target=[])
        return case
    current = case
    improved = True
    while improved and evals < max_evals:
        improved = False
        for cand in _candidates(current):
            if evals >= max_evals:
                break
            evals += 1
            if _failing_oracles(cand) & target:
                current = cand
                improved = True
                break  # restart passes from the smaller case
    if stats is not None:
        stats.update(evals=evals, target=sorted(target))
    return current
