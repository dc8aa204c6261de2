import sys
import textwrap

import pytest

import tracer
from metrics import hit_ratio


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def toy_package(tmp_path, monkeypatch):
    """Package toy with layers a and b; a.outer calls b.inner through an alias."""
    pkg = tmp_path / "toy"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .a import outer\n")
    (pkg / "b.py").write_text(textwrap.dedent("""
        CLOCK = None

        def inner(x):
            CLOCK.advance(2.0)
            return x + 1
    """))
    (pkg / "a.py").write_text(textwrap.dedent("""
        from .b import inner

        def outer(x):
            from . import b
            b.CLOCK.advance(1.0)
            y = inner(x)
            b.CLOCK.advance(0.5)
            return inner(y) + again(y)

        def again(y):
            b_inner = inner
            return b_inner(y)
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    yield "toy"
    for name in [m for m in sys.modules if m == "toy" or m.startswith("toy.")]:
        del sys.modules[name]


def test_self_time_of_nested_spans(toy_package, monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracer.time, "perf_counter", clock)
    tr = tracer.Tracer(toy_package, ("a", "b"))
    tr.install()
    import toy
    import toy.b
    toy.b.CLOCK = clock
    try:
        assert toy.outer(1) == 3 + 3
    finally:
        tr.uninstall()
    # outer: 1.5 s of its own; again: none; inner: 2 s per call, three calls
    assert tr.spans["a.outer"] == [1, pytest.approx(1.5)]
    assert tr.spans["a.again"] == [1, pytest.approx(0.0)]
    assert tr.spans["b.inner"] == [3, pytest.approx(6.0)]


def test_every_alias_is_wrapped_and_restored():
    import arrinv
    from arrinv import arrangement, holonomy, linalg, lyndon, osalgebra

    originals = {(m.__name__, n): getattr(m, n) for m in (linalg, holonomy, osalgebra, arrangement, lyndon, arrinv)
                 for n in ("rank", "rank_exact", "lyndon_product", "compute_l2", "holonomy_rank")
                 if hasattr(m, n)}
    tr = tracer.Tracer()
    tr.install()
    try:
        wrapped_exact = linalg.rank_exact
        assert wrapped_exact.__wrapped__ is originals["arrinv.linalg", "rank_exact"]
        assert osalgebra.rank_exact is wrapped_exact
        assert arrangement.rank_exact is wrapped_exact
        assert holonomy.rank is linalg.rank is osalgebra.rank
        assert holonomy.rank.__wrapped__ is originals["arrinv.linalg", "rank"]
        assert arrinv.holonomy_rank is holonomy.holonomy_rank
        assert lyndon.lyndon_product.cache_info() is not None
        assert len(tr.bindings) > 50
        spans = {id(getattr(mod, name)) for mod, name, _ in tr.bindings}
    finally:
        tr.uninstall()
    for (mod, name), obj in originals.items():
        assert getattr(sys.modules[mod], name) is obj
    for mod in tr.modules():
        assert not any(id(obj) in spans for obj in vars(mod).values()), mod.__name__
    assert not tr.bindings


def test_modular_route_is_a_nested_span():
    import arrinv
    from arrinv.holonomy import _jk_rank

    arr = arrinv.builtin("x3")
    _jk_rank.cache_clear()
    tr = tracer.Tracer()
    tr.install()
    try:
        assert arrinv.holonomy_rank(arr, 4) == 9
    finally:
        tr.uninstall()
    assert tr.spans["linalg.rank"][0] == 1
    assert tr.spans["linalg.rank_modular"][0] == 1
    assert tr.spans["linalg.rank_modular"][1] > 0
    assert tr.spans["holonomy.holonomy_rank"][0] == 1
    assert tr.counters["lyndon.basis_words"] >= 315


def test_matrix_counted_once_at_the_outermost_kernel():
    from arrinv import linalg

    tr = tracer.Tracer()
    tr.install()
    try:
        rows = ({0: 1, 1: 2}, {0: 2, 1: 4}, {1: 1})
        assert linalg.rank((r for r in rows), 2) == 2  # generators are materialized once
    finally:
        tr.uninstall()
    assert tr.spans["linalg.rank"][0] == 1 and tr.spans["linalg.rank_exact"][0] == 1
    assert (tr.counters["linalg.rows"], tr.counters["linalg.cols"],
            tr.counters["linalg.nnz"]) == (3, 2, 5)


def test_cache_deltas_give_hit_ratio():
    from arrinv import make_arrangement
    from arrinv.arrangement import compute_l2

    arr = make_arrangement([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 5, 7)])
    tr = tracer.Tracer()
    before = tr.cache_counts()["arrangement.compute_l2"]
    compute_l2(arr)
    compute_l2(arr)
    compute_l2(arr)
    after = tr.cache_counts()["arrangement.compute_l2"]
    hits, misses = after[0] - before[0], after[1] - before[1]
    assert (hits, misses) == (2, 1)
    assert hit_ratio(hits, misses) == pytest.approx(2 / 3)
    assert hit_ratio(0, 0) == 0.0
