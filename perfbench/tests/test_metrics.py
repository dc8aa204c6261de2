import pytest

import metrics


def child(spans, counters=None, caches=None):
    base = {k: 0 for k in ("linalg.rows", "linalg.cols", "linalg.nnz", "lyndon.basis_words",
                           "parsing.input_bytes", "milnor.residues")}
    base.update(counters or {})
    return {"spans": spans, "counters": base, "caches": caches or {}}


def test_layer_metrics_sum_children_and_functions():
    a = child({"linalg.rank": [2, 0.5], "linalg.rank_modular": [1, 3.0], "lyndon.lyndon_product": [10, 0.25]},
              {"linalg.rows": 7, "milnor.residues": 100},
              {"lyndon.lyndon_product": [6, 4], "arrangement.compute_l2": [0, 1]})
    b = child({"linalg.rank": [2, 0.5], "linalg.rank_exact": [2, 1.0], "cli.main": [1, 0.125]},
              {"linalg.rows": 3},
              {"lyndon.lyndon_product": [0, 10], "arrangement.compute_l2": [3, 0]})
    out = metrics.layer_metrics([a, b], output_bytes=123)
    assert out["linalg.calls"] == 7
    assert out["linalg.self_s"] == pytest.approx(5.0)
    assert out["linalg.rank.calls"] == 4
    assert out["linalg.rank_modular.self_s"] == 3.0
    assert out["linalg.modular_share"] == pytest.approx(0.25)
    assert out["linalg.rows"] == 10
    assert out["milnor.residues"] == 100
    assert out["lyndon.lyndon_product.calls"] == 10
    assert out["lyndon.lyndon_product.hit_ratio"] == pytest.approx(6 / 20)
    assert out["arrangement.compute_l2.hit_ratio"] == pytest.approx(3 / 4)
    assert out["holonomy.holonomy_relators.hit_ratio"] == 0.0
    assert out["cli.calls"] == 1 and out["cli.output_bytes"] == 123
    assert out["milnor.calls"] == 0
    assert set(out) | {"trace.overhead_frac"} == {m[0] for m in metrics.PER_LAYER}


def test_end_to_end_uses_per_operation_medians():
    samples = {0: [1.0, 3.0, 2.0], 1: [0.5], 2: [4.0, 6.0]}
    out = metrics.end_to_end(samples, setup=[0.2, 0.1, 0.3], scales=(1.0, 1.0), peak_rss_kb=2048,
                             attempted=6, failed=0)
    assert out["wall_s"] == pytest.approx(2.0 + 0.5 + 5.0)
    assert out["ops_per_s"] == pytest.approx(3 / 7.5)
    assert out["op_p50_s"] == 2.0
    assert out["setup_s"] == 0.2
    assert out["peak_rss_mb"] == 2.0
    assert out["ok_frac"] == 1.0
    assert list(out) == [m[0] for m in metrics.END_TO_END]


def test_timings_scale_to_the_reference_speed():
    # start phase at a quarter, whole task at half the reference speed
    start, total = 4 * metrics.REFERENCE_START_S, 2 * metrics.REFERENCE_TOTAL_S
    scales = metrics.speed_scales([(start, total), (start, total), (9.0, 9.0)])
    assert scales == pytest.approx((0.25, 0.5))
    out = metrics.end_to_end({0: [4.0], 1: [2.0]}, setup=[0.4], scales=scales,
                             peak_rss_kb=1024, attempted=2, failed=1)
    assert out["wall_s"] == pytest.approx(3.0)
    assert out["ops_per_s"] == pytest.approx(2 / 3.0)
    assert out["op_p50_s"] == pytest.approx(1.5)
    assert out["setup_s"] == pytest.approx(0.1)
    assert out["peak_rss_mb"] == 1.0 and out["ok_frac"] == 0.5


def test_p90_needs_ten_samples_beyond_it():
    assert metrics.p90([0.1] * 99) is None
    assert metrics.p90([float(i) for i in range(100)]) == pytest.approx(89.9)


def test_overhead_compares_operations_run_both_ways():
    assert metrics.overhead_frac({0: [1.0], 1: [2.0]}, {0: [1.5], 1: []}) == pytest.approx(0.5)
