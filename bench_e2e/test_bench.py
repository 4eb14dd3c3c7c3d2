"""Tests of the benchmark itself.  Run with `python3 -m pytest bench_e2e`."""

import signal

import run  # pins the pure backend and puts src/ on the path

import pytest

from chromarank import _kernels_py, chromatic, kernels

import oracle
import tracer
import workloads


class SmallExplore(workloads.ExploreP3):
    ORDER_BOUND = 27
    DEPTH = 2


def _small_tuple_rank(seed):
    return workloads.TupleRank(
        seed, rank_ops=(("gl(2,3)", 2, 2), ("s(4)", 2, 2)), corpus=("S_3", "Q_8", "A_4")
    )


@pytest.mark.parametrize("make", [lambda tmp: _small_tuple_rank(5), SmallExplore])
def test_traced_pass_matches_untraced(make, tmp_path):
    workload = make(tmp_path)
    plain, failed = workload.run_pass()
    assert failed == 0 and workload.check(plain) == []
    tr = tracer.Tracer()
    with tr:
        traced, failed = workload.run_pass()
    assert failed == 0
    assert traced == plain
    assert tr.missing == []
    metrics = tr.metrics(1)
    assert {name for name, _, _ in tracer.PER_LAYER if not name.startswith("trace.")} == set(metrics)
    assert metrics["dsl.parse.calls"] > 0


def test_relabeling_follows_the_seed():
    a, b, c = (_small_tuple_rank(seed).relabelings for seed in (1, 1, 2))
    assert a == b and a != c


def test_oracle_agrees_with_hkr_rank_on_corpus():
    stored = oracle.load()
    for label in oracle.CORPUS:
        elements = oracle.GROUPS[label]()
        group = workloads._fresh(workloads.CORPUS_EXPRS[label])
        assert group.order() == len(elements) == oracle.ORDERS[label]
        for p in (2, 3):
            for h in range(4):
                want = oracle.rank(elements, p, h)
                assert chromatic.hkr_rank(group, p, h) == want, (label, p, h)
                assert stored[(label, p, h)] == want, (label, p, h)


def test_check_catches_a_wrong_rank():
    workload = _small_tuple_rank(3)
    outputs, _ = workload.run_pass()
    outputs[0] += 1
    errors = workload.check(outputs)
    assert any("oracle says" in e for e in errors)


def test_missing_hook_is_reported_and_reads_zero():
    # As if a later change removed kernels.tuple_orbit and a whole module.
    hooks = tuple(
        tracer.Hook(h.metric, "chromarank.kernels:removed_tuple_orbit", extra=h.extra)
        if h.metric == "kernels.tuple_orbit"
        else h
        for h in tracer.HOOKS
    ) + (tracer.Hook("kernels.commutes", "chromarank.removed_module:commutes"),)
    tr = tracer.Tracer(hooks=hooks, cache_target="chromarank.group:RemovedClass.__init__")
    workload = _small_tuple_rank(4)
    with tr:
        outputs, failed = workload.run_pass()
    assert failed == 0 and workload.check(outputs) == []
    assert tr.missing == [
        "chromarank.kernels:removed_tuple_orbit",
        "chromarank.removed_module:commutes",
        "chromarank.group:RemovedClass.__init__",
    ]
    metrics = tr.metrics(1)
    assert metrics["kernels.tuple_orbit.calls"] == metrics["kernels.tuple_orbit.tuples"] == 0
    assert metrics["group.cache.lookups"] == 0
    assert metrics["kernels.commutes.calls"] > 0


def test_uninstall_restores_the_originals():
    with tracer.Tracer():
        assert kernels.commutes is not _kernels_py.commutes
    assert kernels.commutes is _kernels_py.commutes
    assert chromatic.hkr_rank.__name__ == "hkr_rank" and not hasattr(chromatic.hkr_rank, "__wrapped__")


def test_scaled_time_restores_the_alarm_handler():
    previous = signal.getsignal(signal.SIGALRM)
    scaled, wall, speed, result = run._scaled(lambda: sum(i * i for i in range(300_000)))
    assert result == sum(i * i for i in range(300_000))
    assert wall > 0 and speed > 0 and scaled == pytest.approx(wall * speed)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
