"""Extension — buffer-depth sensitivity: the hardware cost knob the
paper's architecture leaves to the data path ("the buffers include the
interface to the physical link ... there is no need for much
flexibility here").  Deeper virtual-channel buffers buy latency and
throughput at linear RAM cost; the sweep shows the knee.
"""

from repro.experiments import WorkloadSpec, run_workload, save_report, table
from repro.sim import Mesh2D


def run():
    rows = []
    for depth in (1, 2, 4, 8):
        spec = WorkloadSpec(topology=Mesh2D(8, 8), algorithm="nara",
                            load=0.25, cycles=2000, warmup=500, seed=37,
                            buffer_depth=depth, drain=False)
        res = run_workload(spec)
        rows.append({"depth": depth,
                     "latency": res["mean_latency"],
                     "p99": res["p99_latency"],
                     "throughput": res["throughput_flits_node_cycle"],
                     "buffer_flits_per_router": depth * 2 * 5})
    return rows


def test_buffer_depth(benchmark):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = table(rows, [("depth", "flits/VC buffer"),
                        ("latency", "mean latency"), ("p99", "p99"),
                        ("throughput", "throughput"),
                        ("buffer_flits_per_router", "buffer RAM (flits)")],
                 title="Buffer-depth sweep, 8x8 mesh, NARA, uniform 0.25 "
                       "flits/node/cycle")
    save_report("buffer_depth", text)

    by = {r["depth"]: r for r in rows}
    # deeper buffers never hurt latency and help at the shallow end
    assert by[1]["latency"] > by[4]["latency"]
    # diminishing returns: 4 -> 8 gains far less than 1 -> 2
    gain_12 = by[1]["latency"] - by[2]["latency"]
    gain_48 = by[4]["latency"] - by[8]["latency"]
    assert gain_12 > gain_48
