import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gapsense import (Detection, Sample, Sensitivity, SimScenario,
                      breakdown_curve, contamination_sweep, expanding,
                      polar_normals, pure_normal_curve, simulate,
                      substream_seed)
from scan_oracles import contaminated_sample, sweep_point_loop


def test_scenario_validation():
    with pytest.raises(ValueError):
        SimScenario(n=1, contamination=0.1)
    with pytest.raises(ValueError):
        SimScenario(n=100, contamination=0.5)
    with pytest.raises(ValueError):
        SimScenario(n=100, contamination=-0.01)
    with pytest.raises(ValueError):
        SimScenario(n=100, contamination=0.1, reps=0)
    with pytest.raises(ValueError):
        SimScenario(n=100, contamination=0.1, target=(0.0, 0.0))


@pytest.mark.parametrize("field, value", [
    ("target", (math.nan, 1.0)), ("target", (0.0, math.inf)),
    ("contaminant", (math.inf, 1.0)), ("contaminant", (-math.inf, 1.0)),
    ("contaminant", (10.0, math.nan)), ("contaminant", (10.0, math.inf))])
def test_scenario_rejects_non_finite_parameters(field, value):
    with pytest.raises(ValueError, match=f"^{field} needs a finite mean "
                                         "and a finite positive sd"):
        SimScenario(n=20, contamination=0.1, **{field: value})


def test_contaminant_count_rounds_half_up():
    assert SimScenario(n=500, contamination=0.10).n_contaminants == 50
    assert SimScenario(n=10, contamination=0.25).n_contaminants == 3
    assert SimScenario(n=10, contamination=0.24).n_contaminants == 2
    assert SimScenario(n=100, contamination=0.0).n_contaminants == 0


def test_no_contamination_draws_only_from_target():
    scn = SimScenario(n=200, contamination=0.0, target=(0.0, 1.0),
                      contaminant=(50.0, 1.0), master_seed=3)
    values = contaminated_sample(scn, 0)
    assert len(values) == 200
    assert np.abs(values).max() < 10  # nothing near the contaminant mean


def test_contaminant_block_is_separated_for_distant_g():
    scn = SimScenario(n=500, contamination=0.10, target=(0.0, 1.0),
                      contaminant=(50.0, 1.0), master_seed=3)
    values = contaminated_sample(scn, 0)
    assert (values[450:] > 25).all()
    assert (values[:450] < 25).all()


def test_substream_determinism_and_separation():
    scn = SimScenario(n=100, contamination=0.2, master_seed=99)
    a = contaminated_sample(scn, 5)
    b = contaminated_sample(scn, 5)
    assert (a == b).all()
    c = contaminated_sample(scn, 6)
    assert not (a == c).all()
    assert substream_seed(99, 5) != substream_seed(99, 6)
    assert substream_seed(99, 5) != substream_seed(100, 5)


def test_polar_normals_moments():
    rng = np.random.Generator(np.random.PCG64(1))
    z = polar_normals(rng, 100_000)
    se_mean = 1 / math.sqrt(len(z))
    assert abs(z.mean()) < 3 * se_mean
    # SE of the sample SD of a normal is about 1/sqrt(2n)
    assert abs(z.std(ddof=1) - 1.0) < 3 / math.sqrt(2 * len(z))


def test_breakdown_curve_bit_determinism():
    scenarios = contamination_sweep(n=60, fractions=[0.0, 0.1, 0.3],
                                    reps=20, master_seed=11)
    a = breakdown_curve(scenarios)
    b = breakdown_curve(scenarios)
    assert a == b


def test_breakdown_curve_shape_and_bounds():
    scenarios = contamination_sweep(n=100, fractions=[0.1], reps=50,
                                    master_seed=5)
    [point] = breakdown_curve(scenarios)
    assert point.x == 10.0
    cap = 100.0 * (100 - 100 // 2 - 1) / 100
    for m in ("iir", "boxplot", "mad"):
        assert 0.0 <= point.detected[m] <= 100.0
        assert point.stderr[m] >= 0.0
        assert 0.0 <= point.recall[m] <= 100.0
    assert point.detected["iir"] <= cap


def test_well_separated_low_contamination_all_methods_agree():
    scenarios = contamination_sweep(n=500, fractions=[0.10],
                                    contaminant=(10.0, 1.0), reps=100,
                                    master_seed=42)
    [point] = breakdown_curve(scenarios)
    for m in ("boxplot", "mad"):
        assert point.detected[m] == pytest.approx(10.0, abs=1.5), m
    # the expanding detector deliberately over-flags a little (~ +1.6 pp)
    assert point.detected["iir"] == pytest.approx(10.0, abs=2.0)
    assert point.detected["iir"] >= 10.0


def test_pure_normal_curve_recall_is_undefined():
    points = pure_normal_curve([50], reps=10, master_seed=2)
    assert points[0].x == 50.0
    assert points[0].recall["iir"] is None


def test_pure_normal_curve_size_validation():
    with pytest.raises(ValueError):
        pure_normal_curve([2], reps=5, master_seed=0)


scenario_lists = st.lists(st.builds(
    SimScenario, n=st.sampled_from([2, 3, 4, 9]),
    contamination=st.sampled_from([0.0, 0.1, 0.3, 0.45]),
    target=st.sampled_from([(0.0, 1.0), (-2.5, 0.5)]),
    contaminant=st.sampled_from([(10.0, 1.0), (1.5, 3.0)]),
    reps=st.integers(1, 4), master_seed=st.sampled_from([0, 2**64 - 1])),
    max_size=5)


class SortSpy:
    """Records every block the simulation sorts, through its one sort."""

    def __init__(self):
        self.blocks = []
        self.sort = simulate._sorted_rows

    def __call__(self, a):
        self.blocks.append(np.array(a))
        return self.sort(a)


@settings(max_examples=120, deadline=None)
@given(n=st.integers(2, 60), contamination=st.floats(0.0, 0.49),
       g_mean=st.floats(-30.0, 30.0), g_sd=st.floats(0.01, 10.0),
       reps=st.integers(1, 5), seed=st.integers(0, 2**64 - 1),
       c=st.floats(0.2, 2.0), more=scenario_lists)
def test_curves_match_replication_loop(n, contamination, g_mean, g_sd, reps,
                                       seed, c, more):
    sens = Sensitivity.from_threshold(c)
    scn = SimScenario(n=n, contamination=contamination,
                      contaminant=(g_mean, g_sd), reps=reps, master_seed=seed)
    # runs of equal (n, master_seed) in ``more`` share their draws
    scenarios = [scn, *more]
    spy = SortSpy()
    with mock.patch.object(simulate, "_sorted_rows", spy):
        curve = breakdown_curve(scenarios, sens)
    assert curve == [sweep_point_loop(s, 100.0 * s.contamination, sens)
                     for s in scenarios]
    # the blocks hold every (point, rep) row in sweep order, unsorted
    rows = [row for block in spy.blocks for row in block]
    want = [contaminated_sample(s, rep)
            for s in scenarios for rep in range(s.reps)]
    assert len(rows) == len(want)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(rows, want))
    size = max(n, 3)
    pure = SimScenario(n=size, contamination=0.0, contaminant=(0.0, 1.0),
                       reps=reps, master_seed=seed)
    assert pure_normal_curve([size], reps=reps, master_seed=seed,
                             sens=sens) == [
        sweep_point_loop(pure, float(size), sens)]


def test_first_failing_row_decides_the_error():
    # every row's span overflows, and its contaminant too when z > 0.47
    raised = set()
    for seed in range(12):
        scn = SimScenario(n=3, contamination=0.45, target=(-1e308, 1e292),
                          contaminant=(1.75e308, 1e307), reps=6,
                          master_seed=seed)
        try:
            sweep_point_loop(scn, 45.0, Sensitivity.from_threshold(1.81))
        except (ValueError, OverflowError) as exc:
            expect = type(exc)
        with pytest.raises(expect):
            breakdown_curve([scn])
        raised.add(expect)
    assert raised == {ValueError, OverflowError}


@pytest.mark.parametrize("rows", [1, 7])
def test_block_size_does_not_change_curves(monkeypatch, rows):
    scenarios = (contamination_sweep(n=40, fractions=[0.0, 0.1, 0.3], reps=5,
                                     master_seed=3)
                 + [SimScenario(n=9, contamination=0.2, reps=4)])
    sens = Sensitivity.from_threshold(1.5)
    default = (breakdown_curve(scenarios, sens),
               pure_normal_curve([5, 40], reps=6, master_seed=3))
    monkeypatch.setattr(simulate, "_BLOCK", rows * 40)
    assert (breakdown_curve(scenarios, sens),
            pure_normal_curve([5, 40], reps=6, master_seed=3)) == default
    # equal (n, master_seed) but ragged reps: each reps value is its own run
    ragged = [SimScenario(n=12, contamination=f, reps=k, master_seed=5)
              for f, k in ((0.0, 3), (0.25, 3), (0.1, 6), (0.3, 1), (0.2, 3))]
    assert breakdown_curve(ragged, sens) == [
        sweep_point_loop(s, 100.0 * s.contamination, sens) for s in ragged]


def test_blocks_stay_within_the_budget():
    spy, drawn = SortSpy(), []
    draws = simulate._draws

    def record(n, seed, reps):
        z = draws(n, seed, reps)
        drawn.append(z.shape)
        return z

    pure_normal_curve([100], reps=2)  # numpy's first-call allocations
    tracemalloc.start()
    pure_normal_curve([10000], reps=50, master_seed=1)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # well below the 50 x 10,000 doubles (4 MB) of a whole draw matrix
    assert peak < 50 * 10000 * 8 / 2
    with mock.patch.object(simulate, "_sorted_rows", spy), \
            mock.patch.object(simulate, "_draws", record):
        pure_normal_curve([10000], reps=50, master_seed=1)
        assert {b.shape for b in spy.blocks} == {(1, 10000)}
        assert set(drawn) == {(1, 10000)}
        spy.blocks.clear()
        breakdown_curve(contamination_sweep(n=500, reps=3, master_seed=1))
    assert len(spy.blocks) > 1
    assert all(b.size <= simulate._BLOCK for b in spy.blocks)
    assert sum(len(b) for b in spy.blocks) == 50 * 3


def test_curves_build_no_detection_sample_or_trace(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the simulation built a per-replication object")

    monkeypatch.setattr(expanding, "_trace", refuse)
    monkeypatch.setattr(Detection, "__init__", refuse)
    monkeypatch.setattr(Sample, "__post_init__", refuse)
    scenarios = contamination_sweep(n=40, fractions=[0.0, 0.2], reps=3,
                                    master_seed=5)
    assert len(breakdown_curve(scenarios)) == 2
    assert len(pure_normal_curve([3, 25], reps=3, master_seed=5)) == 2
