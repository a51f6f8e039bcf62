"""Register file of the rule interpreter.

Holds every DSL ``VARIABLE`` as a hardware-register model: scalar
variables are single cells, indexed variables are cell arrays.  Two
write-coercion modes exist:

* ``saturate`` (default): integer writes clamp to the register's range
  — counter semantics a hardware implementation exhibits naturally;
* ``strict``: out-of-domain writes raise :class:`EvalError` — used by
  the test suite to prove rulesets never rely on clamping.
"""

from __future__ import annotations

from typing import Iterator

from ..dsl.domains import Domain, IntRange, SetDomain, Value
from ..dsl.errors import EvalError
from ..dsl.semantics import AnalyzedProgram, VarInfo


class RegisterFile:
    def __init__(self, analyzed: AnalyzedProgram, coerce: str = "saturate"):
        if coerce not in ("saturate", "strict"):
            raise ValueError(f"unknown coercion mode {coerce!r}")
        self.analyzed = analyzed
        self.coerce = coerce
        self._cells: dict[str, dict[tuple[Value, ...], Value]] = {}
        #: set by every write that changes a cell's value (and by
        #: reset); clear it to detect changes from then on
        self.changed = False
        self.reset()

    def reset(self) -> None:
        self.changed = True
        self._cells.clear()
        for var in self.analyzed.variables.values():
            cells: dict[tuple[Value, ...], Value] = {}
            for idx in _index_tuples(var):
                cells[idx] = var.init
            self._cells[var.name] = cells

    # -- access -----------------------------------------------------------

    def _var(self, name: str) -> VarInfo:
        var = self.analyzed.variables.get(name)
        if var is None:
            raise EvalError(f"unknown register {name!r}")
        return var

    def _key(self, var: VarInfo, idx: tuple[Value, ...]) -> tuple[Value, ...]:
        if len(idx) != len(var.index_domains):
            raise EvalError(f"register {var.name!r} expects "
                            f"{len(var.index_domains)} indices, got {len(idx)}")
        for i, dom in zip(idx, var.index_domains):
            if not dom.contains(i):
                raise EvalError(f"index {i!r} outside {dom} for "
                                f"register {var.name!r}")
        return idx

    def read(self, name: str, idx: tuple[Value, ...] = ()) -> Value:
        var = self._var(name)
        return self._cells[name][self._key(var, idx)]

    def write(self, name: str, value: Value,
              idx: tuple[Value, ...] = ()) -> None:
        var = self._var(name)
        key = self._key(var, idx)
        cells = self._cells[name]
        value = self._coerce(var.domain, value, var.name)
        if cells[key] != value:
            self.changed = True
        cells[key] = value

    def _coerce(self, dom: Domain, value: Value, what: str) -> Value:
        if dom.contains(value):
            return value
        if self.coerce == "saturate":
            if isinstance(dom, IntRange) and isinstance(value, int):
                return min(max(value, dom.lo), dom.hi)
            if isinstance(dom, SetDomain) and isinstance(value, frozenset):
                return frozenset(v for v in value if dom.base.contains(v))
        raise EvalError(f"value {value!r} outside domain {dom} "
                        f"in write to {what}")

    # -- inspection ------------------------------------------------------------

    def items(self) -> Iterator[tuple[str, tuple[Value, ...], Value]]:
        for name, cells in self._cells.items():
            for idx, v in cells.items():
                yield name, idx, v

    def snapshot(self) -> dict[tuple[str, tuple[Value, ...]], Value]:
        return {(name, idx): v for name, idx, v in self.items()}

    def load(self, snap: dict[tuple[str, tuple[Value, ...]], Value]) -> None:
        for (name, idx), v in snap.items():
            self.write(name, v, idx)

    def total_bits(self) -> int:
        return self.analyzed.register_bits()


def _index_tuples(var: VarInfo) -> Iterator[tuple[Value, ...]]:
    if not var.index_domains:
        yield ()
        return
    def rec(i: int, prefix: tuple[Value, ...]) -> Iterator[tuple[Value, ...]]:
        if i == len(var.index_domains):
            yield prefix
            return
        for v in var.index_domains[i].values():
            yield from rec(i + 1, prefix + (v,))
    yield from rec(0, ())
