"""Each oracle must fire on hand-built bad evidence and stay silent on
clean evidence — judged through ``check_case`` so the dispatch
(universal vs metadata-gated oracles) is exercised too."""

from repro.conformance import ConformanceCase, check_case
from repro.conformance.oracles import oracles_for
from repro.routing.registry import ALGORITHM_META

MESH = {"kind": "mesh2d", "width": 3, "height": 3}
CUBE = {"kind": "hypercube", "dimension": 3}


def _msg(msg_id=0, src=0, dst=8, trace=None, hops=None, *,
         refused=False, delivered=True, dropped=False):
    trace = [0, 1, 2, 5, 8] if trace is None else trace
    return {
        "msg_id": msg_id, "src": src, "dst": dst, "refused": refused,
        "delivered": delivered, "dropped": dropped,
        "hops": len(trace) if hops is None else hops, "trace": trace,
    }


def _result(messages, **extra):
    return {"messages": messages, "deadlock": None, **extra}


def _fired(case, result):
    return {v.oracle for v in check_case(case, result)}


def _xy_case(**over):
    base = dict(algorithm="xy", topology=MESH, messages=[(0, 0, 8, 3)])
    base.update(over)
    return ConformanceCase(**base)


class TestCleanEvidencePasses:
    def test_minimal_legal_delivery(self):
        # 0->8 on a 3x3 mesh: distance 4, trace of 5 nodes, hops 5
        assert _fired(_xy_case(), _result([_msg()])) == set()


class TestLegalPath:
    def test_non_link_hop(self):
        bad = _msg(trace=[0, 1, 5, 8])  # 1->5 is not a mesh link
        assert "legal_path" in _fired(_xy_case(), _result([bad]))

    def test_endpoint_mismatch(self):
        bad = _msg(trace=[1, 2, 5, 8])  # starts at 1, src is 0
        assert "legal_path" in _fired(_xy_case(), _result([bad]))

    def test_faulty_link_transit(self):
        case = ConformanceCase(algorithm="nafta", topology=MESH,
                               messages=[(0, 0, 8, 3)],
                               fault_links=[(1, 2)])
        bad = _msg(trace=[0, 1, 2, 5, 8])
        assert "legal_path" in _fired(case, _result([bad]))

    def test_faulty_node_transit(self):
        case = ConformanceCase(algorithm="nafta", topology=MESH,
                               messages=[(0, 0, 8, 3)],
                               fault_nodes=[4])
        bad = _msg(trace=[0, 1, 4, 5, 8])
        assert "legal_path" in _fired(case, _result([bad]))


class TestMinimality:
    def test_detour_fires(self):
        detour = _msg(trace=[0, 1, 4, 1, 2, 5, 8])
        assert "minimality" in _fired(_xy_case(), _result([detour]))

    def test_skipped_for_faulted_case(self):
        case = ConformanceCase(algorithm="nafta", topology=MESH,
                               messages=[(0, 0, 8, 3)],
                               fault_links=[(0, 1)])
        detour = _msg(trace=[0, 3, 4, 1, 2, 5, 8])
        assert "minimality" not in _fired(case, _result([detour]))

    def test_skipped_for_non_minimal_algorithm(self):
        case = ConformanceCase(algorithm="updown", topology=MESH,
                               messages=[(0, 0, 8, 3)])
        detour = _msg(trace=[0, 1, 4, 1, 2, 5, 8])
        assert "minimality" not in _fired(case, _result([detour]))


class TestDelivery:
    def test_fault_free_refusal_fires(self):
        refused = _msg(refused=True, delivered=False, trace=[])
        assert "delivery" in _fired(_xy_case(), _result([refused]))

    def test_faulted_refusal_allowed_when_metadata_says_so(self):
        case = ConformanceCase(algorithm="nafta", topology=MESH,
                               messages=[(0, 0, 8, 3)],
                               fault_links=[(0, 1)])
        assert ALGORITHM_META["nafta"].may_refuse_under_faults
        refused = _msg(refused=True, delivered=False, trace=[])
        assert "delivery" not in _fired(case, _result([refused]))

    def test_undelivered_message_fires(self):
        stuck = _msg(delivered=False, dropped=True, trace=[0, 1])
        assert "delivery" in _fired(_xy_case(), _result([stuck]))


class TestLiveness:
    def test_deadlock_always_fires(self):
        res = _result([_msg()],
                      deadlock={"cycle": 900, "blocking_cycle": [1, 2],
                                "holding_nodes": [1, 2]})
        assert "liveness" in _fired(_xy_case(), res)


class TestRouteCSafeNodes:
    def _case(self):
        # nodes 1 and 2 faulty => nodes 0 and 3 are strongly unsafe
        return ConformanceCase(algorithm="route_c", topology=CUBE,
                               messages=[(0, 4, 5, 1)],
                               fault_nodes=[1, 2])

    def test_oracle_registered_via_metadata(self):
        assert "route_c_safe_nodes" in oracles_for(
            ALGORITHM_META["route_c"])

    def test_sunsafe_transit_fires(self):
        bad = _msg(src=4, dst=5, trace=[4, 0, 1, 5])
        fired = _fired(self._case(), _result([bad]))
        assert "route_c_safe_nodes" in fired

    def test_sunsafe_endpoint_allowed(self):
        # delivering *to* an unsafe node is legal; only transit is not
        ok = _msg(src=4, dst=0, trace=[4, 0])
        fired = _fired(ConformanceCase(
            algorithm="route_c", topology=CUBE,
            messages=[(0, 4, 0, 1)], fault_nodes=[1, 2]),
            _result([ok]))
        assert "route_c_safe_nodes" not in fired


class TestShadowAndInterp:
    def test_shadow_mismatch_fires(self):
        case = ConformanceCase(algorithm="nafta", topology=MESH,
                               messages=[(0, 0, 8, 3)])
        mismatch = {"node": 1, "msg_id": 0,
                    "primary": {"ports": [[0, 0]], "deliver": False,
                                "stuck": False},
                    "shadow": {"ports": [[2, 0]], "deliver": False,
                               "stuck": False}}
        res = _result([_msg()], shadow={"against": "nara",
                                        "mismatches": [mismatch]})
        assert "ft_nft_shadow" in _fired(case, res)

    def test_interp_digest_divergence_fires(self):
        case = ConformanceCase(algorithm="nafta_rules", topology=MESH,
                               messages=[(0, 0, 8, 1)])
        runs = {
            "table": {"digest": "aa", "decisions": 4, "summary": {}},
            "ast": {"digest": "bb", "decisions": 4, "summary": {}},
        }
        assert "interp_agreement" in _fired(
            case, _result([_msg()], interp=runs))

    def test_interp_agreement_silent_when_identical(self):
        case = ConformanceCase(algorithm="nafta_rules", topology=MESH,
                               messages=[(0, 0, 8, 1)])
        run = {"digest": "aa", "decisions": 4, "summary": {"x": 1}}
        runs = {k: dict(run) for k in ("table", "ast")}
        assert "interp_agreement" not in _fired(
            case, _result([_msg()], interp=runs))
