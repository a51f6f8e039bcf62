"""Pinned output of the backup-table builder and its certifier on an
8x8 mesh, and its admission filter against the JSON round trip.

The backup builder certifies ``CERTIFY_SAMPLE`` protected links by
extracting each one's shadow channel dependency graph; these values
were recorded from the networkx-based extractor, so a faster
extractor must reproduce them exactly: the same reachable states,
channels and dependencies per sampled link, and byte-identical
backup tables.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from repro.analysis import build_cdg
from repro.core.compiler import backup
from repro.routing import make_algorithm
from repro.sim import Mesh2D, Network

#: (channels, dependencies, reachable states) per sampled dead link
SAMPLED = {
    "nafta": {(0, 1): (340, 680, 11645), (14, 22): (334, 668, 11784),
              (29, 37): (334, 668, 11752), (44, 52): (334, 668, 11784)},
    "updown": {(0, 1): (222, 589, 12705), (14, 22): (222, 585, 13011),
               (29, 37): (222, 585, 13001), (44, 52): (222, 585, 13011)},
}

#: sha256 of ``json.dumps(BackupTable.to_dict())``
TABLE_SHA256 = {
    "nafta": "13a5dde9a0ef7030e32b6664ab93ae10"
             "ef819458bc670243e479a7d358d07ff5",
    "updown": "6b5661baa4e064c384f9ed785d193756"
              "3574a6f75629e8a02b1a9562df9400d4",
}


@pytest.mark.parametrize("name", sorted(SAMPLED))
def test_sampled_link_cdgs(name):
    topo = Mesh2D(8, 8)
    net = Network(topo, make_algorithm(name))
    got = {}
    for link in SAMPLED[name]:
        with backup.faulted(net, link):
            s = build_cdg(net).summary()
        assert s["acyclic"]
        got[link] = (s["channels"], s["dependencies"],
                     s["reachable_states"])
    assert got == SAMPLED[name]


@pytest.mark.parametrize("name", sorted(TABLE_SHA256))
def test_backup_table_bytes(name):
    topo = Mesh2D(8, 8)
    table = backup.build_backup_table_for(topo, make_algorithm(name))
    assert table.verified_links == list(SAMPLED[name])
    text = json.dumps(table.to_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_SHA256[name]


def _survives_round_trip(writes) -> bool:
    try:
        return backup._decode_fields(json.loads(json.dumps(
            backup._encode_fields(writes)))) == writes
    except (TypeError, ValueError):
        return False


@pytest.mark.parametrize("writes", [
    {"vn": 1}, {"term": True}, {"sdir": "x"}, {"gone": None},
    {"w": 0.25}, {"w": math.nan}, {"w": math.inf}, {"t": (1, 2)},
    {"moves": {1: "up"}}, {3: 1}, {"d": backup._DELETED},
    {"vn": np.int64(1)}, {"vn": 2, "moves": {0: "down"}},
    {"moves": {0: "up", 2: "down", "k": None}}, {"l": [1, "a", None, 0.5]},
    {"l": []}, {"m": {}}, {"l": [1, (2,)]}, {"l": [math.nan]},
    {"l": [np.int64(1)]}, {"l": [[1]]}, {"moves": {1: {"a": 1}}},
    {"moves": {1: [1]}}, {"moves": {1.5: "up"}}, {"moves": {True: 1}},
    {"moves": {(1, 2): "x"}}, {"moves": {1: math.inf}},
], ids=["int", "bool", "str", "none", "float", "nan", "inf", "tuple",
        "dict", "int_key", "deleted", "numpy_int", "mixed",
        "move_map", "list", "empty_list", "empty_dict", "list_tuple",
        "list_nan", "list_numpy", "list_list", "dict_dict", "dict_list",
        "float_key", "bool_key", "tuple_key", "dict_inf"])
def test_admission_matches_json_round_trip(writes):
    """Admission skips the round trip only where it is the identity."""
    outcome = (0, 1, 0, ((0, 0),), ((0, 0),), writes)
    admitted = backup._admit(outcome, {}) is not None
    assert admitted == _survives_round_trip(writes)
    if backup._json_identity(writes):
        assert _survives_round_trip(writes)


def test_move_map_skips_the_round_trip():
    """updown's writes (a scalar phase and an int-keyed move map) are
    admitted without a JSON round trip."""
    assert backup._json_identity({"ud_phase": 1,
                                  "_ud_moves": {0: "up", 3: "down"}})
