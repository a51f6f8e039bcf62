"""Conformance harness: differential + invariant fuzzing of the
routing algorithms.

The paper argues rule-based routing is "semantically well based
allowing the application of formal methods"; this package is the
executable half of that claim for the reconstruction.  It generates
(topology, fault pattern, workload, seed) cases, runs them through the
simulator and checks a registry of oracles — path legality,
minimality, delivery, liveness, ROUTE_C's safe-node discipline,
ft/nft decision equivalence in fault-free networks, and bit-identical
agreement between the two rule interpreters.  Failing cases are
shrunk to minimal repros and stored as replayable JSON corpus entries
(see ``conformance/corpus/`` at the repo root and
``python -m repro.tools.conform``).
"""

from .case import CASE_SCHEMA, ConformanceCase
from .corpus import load_entry, save_entry
from .generate import generate_cases
from .oracles import ORACLES, Violation, check_case
from .runner import run_case, run_case_payload
from .shrink import shrink_case

__all__ = [
    "CASE_SCHEMA",
    "ConformanceCase",
    "ORACLES",
    "Violation",
    "check_case",
    "generate_cases",
    "load_entry",
    "run_case",
    "run_case_payload",
    "save_entry",
    "shrink_case",
]
