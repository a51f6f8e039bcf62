"""Trace and metrics exporters: Chrome ``trace_event`` JSON + ASCII.

:func:`chrome_trace` converts a drained trace (and optionally a
metrics timeseries) into the Chrome Trace Event Format, loadable in
``chrome://tracing`` and https://ui.perfetto.dev.  The mapping:

* one simulator cycle = 1 us of trace time (``ts`` is the cycle);
* delivered worms become complete ("X") slices on the ``worms``
  process, one thread row per source node, spanning injection to
  delivery;
* fault lifecycle, drops, retries and dead letters become instant
  ("i") events on the ``network`` process;
* routing decisions / RBR invocations become instant events on the
  ``rules`` process (one thread row per node), carrying the
  interpretation-step count in ``args``;
* metrics gauges become counter ("C") events, which Perfetto renders
  as continuous tracks.

Everything is plain dicts ready for ``json.dumps``; ordering is
deterministic for a deterministic event stream, so traces are
byte-comparable across serial and process-pool runs.
"""

from __future__ import annotations

from . import events as ev

#: Chrome pids: one per top-level track group
PID_NETWORK = 0
PID_WORMS = 1
PID_RULES = 2

_PROCESS_NAMES = {
    PID_NETWORK: "network",
    PID_WORMS: "worms",
    PID_RULES: "rules",
}

#: counter gauges exported from a metrics timeseries
_COUNTER_GAUGES = (
    "in_flight_flits",
    "source_backlog",
    "retry_queue",
    "active_routers",
)


def _meta(pid: int, name: str) -> dict:
    return {
        "ph": "M",
        "pid": pid,
        "tid": 0,
        "name": "process_name",
        "args": {"name": name},
    }


def _instant(pid: int, tid: int, cycle: int, name: str, args: dict) -> dict:
    return {
        "ph": "i",
        "pid": pid,
        "tid": tid,
        "ts": cycle,
        "s": "t",
        "name": name,
        "args": args,
    }


def _worm_slice(data: dict, end_cycle: int) -> dict | None:
    start = data.get("injected")
    if start is None:
        return None
    return {
        "ph": "X",
        "pid": PID_WORMS,
        "tid": int(data.get("src", 0)),
        "ts": int(start),
        "dur": max(1, end_cycle - int(start)),
        "name": f"msg {data.get('msg_id')} -> {data.get('dst')}",
        "args": data,
    }


def chrome_trace(trace: dict, metrics: dict | None = None) -> dict:
    """Convert a trace blob (``RingTracer.to_dict()`` shape) and an
    optional metrics blob (``MetricsTimeseries.to_dict()`` shape) into
    one Chrome trace_event document."""
    out: list[dict] = [_meta(p, n) for p, n in _PROCESS_NAMES.items()]
    for row in trace.get("events", []):
        cycle, kind, data = int(row[0]), str(row[1]), dict(row[2])
        if kind == ev.WORM_DELIVER:
            worm = _worm_slice(data, cycle)
            if worm is not None:
                out.append(worm)
            continue
        if kind in (ev.RULE_DECISION, ev.RULE_INVOKE):
            tid = int(data.get("node", 0))
            out.append(_instant(PID_RULES, tid, cycle, kind, data))
            continue
        out.append(_instant(PID_NETWORK, 0, cycle, kind, data))
    if metrics:
        columns = metrics.get("columns", {})
        cycles = columns.get("cycle", [])
        for gauge in _COUNTER_GAUGES:
            values = columns.get(gauge, [])
            for cycle, value in zip(cycles, values):
                out.append(
                    {
                        "ph": "C",
                        "pid": PID_NETWORK,
                        "tid": 0,
                        "ts": int(cycle),
                        "name": gauge,
                        "args": {"value": int(value)},
                    }
                )
    return {
        "traceEvents": out,
        "displayTimeUnit": "ms",
        "otherData": {
            "unit": "1 cycle = 1us",
            "dropped_events": trace.get("dropped", 0),
        },
    }


def ascii_timeline(metrics: dict, width: int = 56, height: int = 12) -> str:
    """Render the headline gauges of a metrics blob as ASCII charts
    (via the chart helper the benchmark reports already use)."""
    from ..experiments.ascii_chart import line_chart

    columns = metrics.get("columns", {})
    cycles = columns.get("cycle", [])
    charts = []
    occupancy = {}
    for gauge in ("in_flight_flits", "source_backlog", "retry_queue"):
        values = columns.get(gauge, [])
        pairs = [(float(c), float(v)) for c, v in zip(cycles, values)]
        if pairs:
            occupancy[gauge] = pairs
    if occupancy:
        charts.append(
            line_chart(
                occupancy,
                width=width,
                height=height,
                title="occupancy over time",
                x_label="cycle",
                y_label="flits / messages",
            )
        )
    delivered = columns.get("messages_delivered", [])
    pairs = [(float(c), float(v)) for c, v in zip(cycles, delivered)]
    if pairs:
        charts.append(
            line_chart(
                {"delivered": pairs},
                width=width,
                height=height,
                title="cumulative deliveries",
                x_label="cycle",
            )
        )
    return "\n\n".join(charts) if charts else "(no metrics samples)"
