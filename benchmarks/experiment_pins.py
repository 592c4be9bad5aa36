"""Sim-time pins for every experiment row.

Each row is ``(system, dataset, algorithm, status, repr(sim_seconds),
extra)``, in the order ``repro experiments`` prints them, computed before
the experiments became cell lists.  A pin holds when the row has the same
identity and status, ``repr(sim_seconds)`` is equal (bit for bit), and
every pinned ``extra`` value is present and equal; a row may carry extras
that were added later (PS traffic, memory, congestion).  A change that
moves the sim clock on purpose re-pins this table and says why.
"""

from typing import List

from repro.experiments.harness import ExperimentRow

PINS = {
    'figure6': [
        ('PSGraph', 'DS1', 'PageRank', 'ok', '0.019629685166666674', {'iterations': 20, 'residual': 44.71774482133061, 'num_vertices': 7999}),
        ('GraphX', 'DS1', 'PageRank', 'ok', '0.2176250016', {}),
        ('PSGraph', 'DS2', 'PageRank', 'ok', '0.0204260823', {'iterations': 20, 'residual': 23.255718650708605, 'num_vertices': 4000}),
        ('GraphX', 'DS2', 'PageRank', 'OOM', None, {}),
        ('PSGraph', 'DS1', 'CommonNeighbor', 'ok', '0.0038092531666666664', {'iterations': 1, 'vertices_pushed': 7999, 'num_edges': 110000}),
        ('GraphX', 'DS1', 'CommonNeighbor', 'ok', '0.12110525253333342', {}),
        ('PSGraph', 'DS2', 'CommonNeighbor', 'ok', '0.0051365420333333205', {'iterations': 1, 'vertices_pushed': 4000, 'num_edges': 280000}),
        ('GraphX', 'DS2', 'CommonNeighbor', 'OOM', None, {}),
        ('PSGraph', 'DS1', 'FastUnfolding', 'ok', '0.028979097433333306', {'iterations': 2, 'modularity': 0.1282675800413219, 'moves': 13248, 'num_communities': 416}),
        ('GraphX', 'DS1', 'FastUnfolding', 'ok', '0.22388081546666652', {}),
        ('PSGraph', 'DS1', 'KCore', 'ok', '0.033510747566666665', {'iterations': 20, 'num_vertices': 7999}),
        ('GraphX', 'DS1', 'KCore', 'OOM', None, {}),
        ('PSGraph', 'DS1', 'TriangleCount', 'ok', '0.07716106116666664', {'iterations': 1, 'triangles': 187613, 'closure_sum': 562839}),
        ('GraphX', 'DS1', 'TriangleCount', 'OOM', None, {}),
    ],
    'table1': [
        ('PSGraph', 'DS3', 'graphsage-preprocess', 'ok', '0.008376512733333336', {}),
        ('PSGraph', 'DS3', 'graphsage-epoch', 'ok', '0.0047219764', {}),
        ('PSGraph', 'DS3', 'graphsage-accuracy', 'ok', None, {'accuracy_pct': 99.44444444444444}),
        ('Euler', 'DS3', 'graphsage-preprocess', 'ok', '24.049497498851856', {}),
        ('Euler', 'DS3', 'graphsage-epoch', 'ok', '0.20265759359999436', {}),
        ('Euler', 'DS3', 'graphsage-accuracy', 'ok', None, {'accuracy_pct': 96.11111111111111}),
    ],
    'table2': [
        ('PSGraph', 'DS1', 'CommonNeighbor/none', 'ok', '0.05368693316666666', {'edges_scored': 110000, 'recoveries': 0}),
        ('PSGraph', 'DS1', 'CommonNeighbor/executor', 'ok', '0.05444232906666665', {'edges_scored': 110000, 'recoveries': 1}),
        ('PSGraph', 'DS1', 'CommonNeighbor/server', 'ok', '0.05719499836666666', {'edges_scored': 110000, 'recoveries': 1}),
    ],
    'table2-recovery': [
        ('PSGraph', 'DS1', 'PageRank/clean', 'ok', '0.011410933166666666', {'iterations': 10.0, 'recoveries': 0.0, 'ranks_checksum': 6601.573915835296}),
        ('PSGraph', 'DS1', 'PageRank/recovery', 'ok', '0.013596528966666672', {'iterations': 10.0, 'recoveries': 1.0, 'ranks_checksum': 6601.573915835296, 'recovery_sim_s': 0.0021855958000000057}),
        ('GraphX', 'DS1', 'PageRank/clean', 'ok', '0.11382825493333332', {'iterations': 10.0, 'ranks_checksum': 7912.06474939126}),
        ('GraphX', 'DS1', 'PageRank/recovery', 'ok', '0.17664242719999998', {'iterations': 10.0, 'ranks_checksum': 7912.06474939126, 'recovery_sim_s': 0.06281417226666666}),
    ],
    'line': [
        ('PSGraph', 'DS1', 'line-epoch-0', 'ok', '0.011713848', {'loss': 0.6931465632258423}),
        ('PSGraph', 'DS1', 'line-epoch-1', 'ok', '0.011713847999999999', {'loss': 0.6931114777691277}),
        ('PSGraph', 'DS1', 'line-epoch-2', 'ok', '0.011713847999999999', {'loss': 0.6914034103669354}),
        ('PSGraph', 'DS1', 'line-mean-epoch', 'ok', '0.011713847999999999', {'final_loss': 0.6914034103669354, 'loss_decreased': True}),
    ],
    'ablation-delta': [
        ('PSGraph', 'PL4000x40000', 'PageRank/full-ranks', 'ok', '0.05358121653333329', {'pull_bytes': 2652160.0, 'push_bytes': 12024384.0, 'residual': 0.7116392062754869, 'ranks_checksum': 3844.4236022044456}),
        ('PSGraph', 'PL4000x40000', 'PageRank/delta', 'ok', '0.05358121653333329', {'pull_bytes': 2652160.0, 'push_bytes': 12024384.0, 'residual': 0.7116392062754744, 'ranks_checksum': 3844.423602204445}),
        ('PSGraph', 'PL4000x40000', 'PageRank/delta-threshold', 'ok', '0.037843873333333326', {'pull_bytes': 2084224.0, 'push_bytes': 8543120.0, 'residual': 0.0, 'ranks_checksum': 3802.483785392594}),
    ],
    'ablation-psfunc': [
        ('PSGraph', 'PL1000x8000', 'Line/psfunc-on-ps', 'ok', '0.004224412799999999', {'pull_bytes': 520000.0, 'push_bytes': 0.0, 'loss': 0.6931471351903642}),
        ('PSGraph', 'PL1000x8000', 'Line/pull-embeddings', 'ok', '0.006334160000000001', {'pull_bytes': 11112400.0, 'push_bytes': 10592400.0, 'loss': 0.6931471362958351}),
    ],
    'ablation-sync': [
        ('PSGraph', 'PL2000x20000', 'PageRank/bsp', 'ok', '0.5201656118000012', {}),
        ('PSGraph', 'PL2000x20000', 'PageRank/asp', 'ok', '0.008129271466666668', {}),
    ],
    'ablation-partitioners': [
        ('PSGraph', 'skewed-ids100000', 'hash', 'ok', None, {'max_load': 15922, 'mean_load': 12500.0, 'imbalance': 1.27376}),
        ('PSGraph', 'skewed-ids100000', 'range', 'ok', None, {'max_load': 106405, 'mean_load': 12500.0, 'imbalance': 8.5124}),
        ('PSGraph', 'skewed-ids100000', 'hash-range', 'ok', None, {'max_load': 68895, 'mean_load': 12500.0, 'imbalance': 5.5116}),
    ],
    'scaling-servers': [
        ('PSGraph', 'PL4000x60000', 'PageRank/32x1', 'ok', '0.016123263999999998', {'congestion': 32.0}),
        ('PSGraph', 'PL4000x60000', 'PageRank/32x2', 'ok', '0.010010102399999998', {'congestion': 16.0}),
        ('PSGraph', 'PL4000x60000', 'PageRank/32x4', 'ok', '0.008469372800000001', {'congestion': 8.0}),
        ('PSGraph', 'PL4000x60000', 'PageRank/32x8', 'ok', '0.008061551999999998', {'congestion': 4.0}),
        ('PSGraph', 'PL4000x60000', 'PageRank/32x16', 'ok', '0.007957424', {'congestion': 2.0}),
    ],
    'scaling-executors': [
        ('PSGraph', 'PL4000x60000', 'PageRank/4x4', 'ok', '0.041819895999999995', {'congestion': 1.0}),
        ('PSGraph', 'PL4000x60000', 'PageRank/8x4', 'ok', '0.022729440000000007', {'congestion': 2.0}),
        ('PSGraph', 'PL4000x60000', 'PageRank/16x4', 'ok', '0.013118672', {'congestion': 4.0}),
        ('PSGraph', 'PL4000x60000', 'PageRank/32x4', 'ok', '0.008469372800000001', {'congestion': 8.0}),
    ],
    'resources': [
        ('GraphX', 'DS1', 'PageRank/15GB', 'OOM', None, {'total_memory_gb': 1500.0}),
        ('GraphX', 'DS1', 'PageRank/25GB', 'OOM', None, {'total_memory_gb': 2500.0}),
        ('GraphX', 'DS1', 'PageRank/40GB', 'ok', '0.2176250016', {'total_memory_gb': 4000.0}),
        ('GraphX', 'DS1', 'PageRank/55GB', 'ok', '0.2176250016', {'total_memory_gb': 5500.0}),
        ('PSGraph', 'DS1', 'PageRank/20GB', 'ok', '0.019629685166666674', {'total_memory_gb': 2300.0}),
    ],
}


def assert_pinned(experiment: str, rows: List[ExperimentRow],
                  complete: bool = True) -> None:
    """Each row of ``experiment`` matches its pin; with ``complete``, the
    rows are exactly the pinned rows, in order."""
    pins = {pin[:3]: pin[3:] for pin in PINS[experiment]}
    if complete:
        assert [(r.system, r.dataset, r.algorithm) for r in rows] \
            == list(pins), experiment
    for row in rows:
        where = (row.experiment, row.system, row.dataset, row.algorithm)
        assert row.experiment == experiment, where
        status, sim, extra = pins[where[1:]]
        assert row.status == status, where
        got = None if row.sim_seconds is None else repr(row.sim_seconds)
        assert got == sim, (where, got, sim)
        for key, value in extra.items():
            assert row.extra.get(key) == value, (where, key,
                                                 row.extra.get(key), value)
