import importlib
import pkgutil

import arrinv
from arrinv import checks
from arrinv.arrangement import compute_l2
from arrinv.holonomy import Analysis, holonomy_relators

# Every memo that lives as long as the process, and why it stays:
KEPT_CACHES = {
    # the rank-2 lattice is asked for by every stage of every command, and
    # perfbench/tracer.py reads its cache_info()
    "arrinv.arrangement.compute_l2",
    # the degree-2 relators of an arrangement; perfbench/tracer.py reads its cache_info()
    "arrinv.holonomy.holonomy_relators",
    # bracket expansion of two Lyndon words, keyed by the words alone; the
    # recursion revisits the same pairs, and perfbench/tracer.py reads its cache_info()
    "arrinv.lyndon.lyndon_product",
    # keyed by one word; without it x2 J_5 and braid:4 J_4 ran slower
    "arrinv.lyndon.standard_factorization",
}


def test_only_the_named_functions_keep_a_cache():
    # holonomy ranks, the degree-3 group and catalog lookups are computed
    # once per call and kept by nobody afterwards
    found = set()
    for info in pkgutil.iter_modules(arrinv.__path__):
        module = importlib.import_module("arrinv." + info.name)
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                found.add("%s.%s" % (module.__name__, name))
    assert found == KEPT_CACHES


def test_check_draws_each_sample_just_before_its_analysis(monkeypatch):
    # the samples are not all drawn up front, so memory does not grow with
    # --samples; the draws keep their rng order, so the output is unchanged
    events = []
    random_rank3_arrangement = checks.random_rank3_arrangement

    def draw(rng):
        events.append("draw")
        return random_rank3_arrangement(rng)

    def analysis(arr):
        events.append("analysis")
        return Analysis(arr)

    monkeypatch.setattr(checks, "random_rank3_arrangement", draw)
    monkeypatch.setattr(checks, "Analysis", analysis)
    assert all(r.ok for r in checks.run_all_checks(seed=5, samples=3))
    assert events == ["analysis"] * 6 + ["draw", "analysis"] * 3


def test_arrangement_caches_stay_bounded():
    # one entry per arrangement asked about, kept only for the last few
    checks.run_all_checks(seed=7, samples=50)
    assert compute_l2.cache_info().currsize < 50
    assert holonomy_relators.cache_info().currsize < 50
