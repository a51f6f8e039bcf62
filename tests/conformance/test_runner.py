"""End-to-end case execution: clean generated cases pass every oracle,
payload runs are deterministic, and the evidence attachments (shadow
differential, interpreter comparison) appear when metadata asks."""

import pytest

from repro.conformance import generate_cases, run_case, run_case_payload
from repro.conformance.generate import generate_case

# a representative slice of the registry: dimension-ordered baseline,
# both paper ft algorithms, a graph-based one, and one rule-driven
# variant (kept to a single tiny case — it simulates 4x per case)
CLEAN_SLICE = [
    *[("xy", i) for i in range(3)],
    *[("nafta", i) for i in range(3)],
    *[("route_c", i) for i in range(2)],
    *[("updown", i) for i in range(2)],
    ("nafta_rules", 0),
]


@pytest.mark.parametrize("algo,index", CLEAN_SLICE,
                         ids=[f"{a}-{i}" for a, i in CLEAN_SLICE])
def test_generated_cases_are_conformant(algo, index):
    case = generate_case(algo, seed=0, index=index)
    out = run_case_payload(case.to_dict())
    assert out["violations"] == [], out["violations"]
    assert out["case_key"] == case.case_key()
    assert out["decisions"] > 0


def test_payload_runs_are_deterministic():
    case = generate_case("nafta", seed=9, index=1)
    a = run_case_payload(case.to_dict())
    b = run_case_payload(case.to_dict())
    assert a["digest"] == b["digest"]
    assert a["decisions"] == b["decisions"]
    assert a == b


def test_shadow_attached_on_fault_free_ft_case():
    case = next(c for c in generate_cases(["nafta"], seed=0)
                if not c.has_faults())
    result = run_case(case)
    assert result["shadow"]["against"] == "nara"
    assert result["shadow"]["mismatches"] == []


def test_shadow_skipped_on_faulted_case():
    case = next(c for c in generate_cases(["nafta"], seed=0)
                if c.has_faults())
    result = run_case(case)
    assert "shadow" not in result


def test_interp_comparison_attached_for_rule_driven():
    case = generate_case("route_c_rules", seed=0, index=0)
    result = run_case(case)
    runs = result["interp"]
    assert set(runs) == {"table", "ast"}
    digests = {r["digest"] for r in runs.values()}
    assert len(digests) == 1, "interpreters disagreed"


def test_interp_comparison_absent_for_compiled_algorithms():
    result = run_case(generate_case("xy", seed=0, index=0))
    assert "interp" not in result


def test_frr_is_transparent_and_stripped_from_identity():
    # conformance faults are static and never *confirmed*, so the
    # FastReroute wrapper stays unarmed: compiling and carrying the
    # backup tables must not change a single decision
    for case in (generate_case("nafta", seed=4, index=0),
                 next(c for c in generate_cases(["nafta"], seed=4)
                      if c.has_faults())):
        plain = run_case_payload(case.to_dict())
        frr = run_case_payload({**case.to_dict(), "frr": True})
        assert frr["digest"] == plain["digest"]
        assert frr["decisions"] == plain["decisions"]
        # frr is a run property: same case key, no leak into the
        # reconstructed case dict
        assert frr["case_key"] == plain["case_key"]
        assert "frr" not in frr["case"]
        assert frr["violations"] == []

