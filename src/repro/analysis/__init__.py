"""Analysis tools: channel-dependency-graph deadlock checks, the
paper's Conditions 1-3, and reachability utilities.

Names load on first access, so importing one submodule (the backup
builder imports :mod:`.deadlock`) does not import the others:
:mod:`.conditions` and :mod:`.reachability` need networkx, a
development dependency only.
"""

import importlib

#: exported name -> defining submodule
_EXPORTS = {
    "Condition1Result": "conditions",
    "ConditionPairStats": "conditions",
    "check_condition1": "conditions",
    "check_conditions_2_3": "conditions",
    "CdgResult": "deadlock",
    "Channel": "deadlock",
    "build_cdg": "deadlock",
    "check_deadlock_free": "deadlock",
    "PathInflation": "livelock",
    "ProgressCertificate": "livelock",
    "certify_progress": "livelock",
    "nafta_bound": "livelock",
    "path_inflation": "livelock",
    "connected_pairs": "reachability",
    "fraction_links_usable_by_tree": "reachability",
    "healthy_graph": "reachability",
    "partition_summary": "reachability",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
