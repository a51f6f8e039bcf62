"""Top-level rule compiler: DSL source -> compiled rule bases.

Pipeline per rule base (paper Figures 5-7):

1. ground the rules (quantifier expansion, witness splitting,
   FORALL-command unrolling)                       -> expand.py
2. extract premise atoms, choose index features    -> atoms.py
3. lay out the conclusion encoding (action slots)  -> encoding.py
4. inventory the FCFB pool                         -> fcfb.py
5. fill the rule table                             -> tablegen.py

``materialize=False`` skips step 5 and produces only the cost figures
(entries x width), which is how the merged-rule-base sweep of the
paper's Section 5 is evaluated for large ``d`` without building
multi-megabyte tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..dsl import nodes as N
from ..dsl.domains import Domain, Value
from ..dsl.errors import CompileError
from ..dsl.parser import parse
from ..dsl.semantics import AnalyzedProgram, Analyzer, BaseInfo, analyze
from .atoms import AtomAnalysis, DirectFeature
from .encoding import ConclusionEncoding, build_encoding
from .expand import GroundRule, expand_base
from .fcfb import FcfbInstance, collect_fcfbs, fcfb_summary
from .tablegen import generate_table, table_stats


@dataclass
class CompiledRuleBase:
    """One rule base ready for the hardware rule interpreter."""

    name: str
    params: tuple[tuple[str, Domain], ...]
    returns: Domain | None
    is_subbase: bool
    ground_rules: list[GroundRule]
    analysis: AtomAnalysis
    encoding: ConclusionEncoding
    fcfbs: list[FcfbInstance]
    table: np.ndarray | None
    reads: frozenset[str]
    writes: frozenset[str]
    emits: frozenset[str]
    calls: frozenset[str]
    #: the decision kernel's generated code for this base, built on
    #: first use and shared by every engine over the compiled program
    #: (see :mod:`.fastpath`)
    lowered: object = field(default=None, init=False, repr=False,
                            compare=False)

    @property
    def n_entries(self) -> int:
        return self.analysis.n_entries

    @property
    def width(self) -> int:
        return self.encoding.width

    @property
    def size_bits(self) -> int:
        """Table memory, the paper's "Size (Bit)" column."""
        return self.n_entries * self.width

    @property
    def fcfb_kinds(self) -> dict[str, int]:
        return fcfb_summary(self.fcfbs)

    def stats(self) -> dict:
        if self.table is None:
            raise CompileError(f"rule base {self.name} was compiled without "
                               f"a materialized table")
        return table_stats(self.table, len(self.ground_rules))

    def describe(self) -> str:
        feats = []
        for f in self.analysis.features:
            if isinstance(f, DirectFeature):
                feats.append(f"direct[{f.domain.bit_width}b]")
            else:
                feats.append("bit")
        fcfbs = ", ".join(f"{k} x{v}" if v > 1 else k
                          for k, v in self.fcfb_kinds.items()) or "none"
        return (f"{self.name}: {self.n_entries} x {self.width} bit "
                f"({self.size_bits} bits), features [{', '.join(feats)}], "
                f"FCFBs: {fcfbs}")


@dataclass
class CompiledProgram:
    """A whole rule program: every ON rule base plus subbases."""

    analyzed: AnalyzedProgram
    rulebases: dict[str, CompiledRuleBase]
    subbases: dict[str, CompiledRuleBase]
    params: dict[str, Value] = field(default_factory=dict)

    def base(self, name: str) -> CompiledRuleBase:
        if name in self.rulebases:
            return self.rulebases[name]
        if name in self.subbases:
            return self.subbases[name]
        raise KeyError(name)

    @property
    def all_bases(self) -> dict[str, CompiledRuleBase]:
        return {**self.subbases, **self.rulebases}

    @property
    def total_table_bits(self) -> int:
        return sum(b.size_bits for b in self.all_bases.values())

    def register_bits(self) -> int:
        return self.analyzed.register_bits()

    def register_report(self) -> list[dict]:
        """Per-variable register accounting with reader/writer rule bases
        (the paper discusses how many rule bases compete for access)."""
        out = []
        for var in self.analyzed.variables.values():
            readers = sorted(n for n, b in self.all_bases.items()
                             if var.name in b.reads)
            writers = sorted(n for n, b in self.all_bases.items()
                             if var.name in b.writes)
            out.append({
                "name": var.name,
                "bits": var.total_bits,
                "cells": var.n_cells,
                "readers": readers,
                "writers": writers,
            })
        return out


def _collect_accesses(analyzed: AnalyzedProgram,
                      ground_rules: list[GroundRule]
                      ) -> tuple[frozenset, frozenset, frozenset, frozenset]:
    reads: set[str] = set()
    writes: set[str] = set()
    emits: set[str] = set()
    calls: set[str] = set()

    def walk_expr(e: N.Expr) -> None:
        if isinstance(e, N.Name):
            if e.ident in analyzed.variables:
                reads.add(e.ident)
        elif isinstance(e, N.Index):
            if e.ident in analyzed.variables:
                reads.add(e.ident)
            if e.ident in analyzed.subbases:
                calls.add(e.ident)
            for a in e.args:
                walk_expr(a)
        elif isinstance(e, N.SetLit):
            for i in e.items:
                walk_expr(i)
        elif isinstance(e, (N.BinOp, N.Compare)):
            walk_expr(e.left)
            walk_expr(e.right)
        elif isinstance(e, N.UnOp):
            walk_expr(e.operand)
        elif isinstance(e, N.InSet):
            walk_expr(e.item)
            walk_expr(e.collection)
        elif isinstance(e, (N.And, N.Or)):
            for t in e.terms:
                walk_expr(t)
        elif isinstance(e, N.Not):
            walk_expr(e.operand)

    for g in ground_rules:
        walk_expr(g.premise)
        for cmd in g.commands:
            if isinstance(cmd, N.Assign):
                tgt = cmd.target
                if isinstance(tgt, (N.Name, N.Index)):
                    writes.add(tgt.ident)
                if isinstance(tgt, N.Index):
                    for a in tgt.args:
                        walk_expr(a)
                walk_expr(cmd.value)
            elif isinstance(cmd, N.Emit):
                emits.add(cmd.event)
                for a in cmd.args:
                    walk_expr(a)
            elif isinstance(cmd, N.Return):
                walk_expr(cmd.value)
            elif isinstance(cmd, N.CallSubbase):
                calls.add(cmd.ident)
                for a in cmd.args:
                    walk_expr(a)
    return frozenset(reads), frozenset(writes), frozenset(emits), frozenset(calls)


def compile_base(analyzer: Analyzer, base: BaseInfo,
                 materialize: bool = True) -> CompiledRuleBase:
    ground = expand_base(analyzer, base)
    analysis = AtomAnalysis(analyzer, base, ground)
    ground = analysis.ground_rules  # normalized premises
    encoding = build_encoding(analyzer, ground, base.returns)
    fcfbs = collect_fcfbs(analyzer, analysis, ground)
    table = generate_table(analysis) if materialize else None
    reads, writes, emits, calls = _collect_accesses(analyzer.analyzed, ground)
    return CompiledRuleBase(
        name=base.name, params=base.params, returns=base.returns,
        is_subbase=base.is_subbase, ground_rules=ground, analysis=analysis,
        encoding=encoding, fcfbs=fcfbs, table=table,
        reads=reads, writes=writes, emits=emits, calls=calls)


def compile_program(source_or_program: str | N.Program | AnalyzedProgram,
                    params: Mapping[str, Value] | None = None,
                    materialize: bool = True) -> CompiledProgram:
    """Compile a whole DSL program.

    ``params`` supplies compile-time parameters (mesh size, hypercube
    dimension, adaptivity width ...) exactly like the paper's sweeps.
    """
    if isinstance(source_or_program, AnalyzedProgram):
        analyzed = source_or_program
    else:
        prog = (parse(source_or_program)
                if isinstance(source_or_program, str) else source_or_program)
        analyzed = analyze(prog, params)
    analyzer = analyzed.analyzer
    assert analyzer is not None
    subbases = {name: compile_base(analyzer, info, materialize)
                for name, info in analyzed.subbases.items()}
    rulebases = {name: compile_base(analyzer, info, materialize)
                 for name, info in analyzed.rulebases.items()}
    return CompiledProgram(analyzed=analyzed, rulebases=rulebases,
                           subbases=subbases, params=dict(params or {}))
