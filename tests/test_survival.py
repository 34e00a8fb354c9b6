import csv
import math
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from medgraph import survival
from medgraph.errors import (ConfigurationError, DataError, EstimationError,
                             SizeError)
from medgraph.survival import (CoxFit, EffectCurves, SimulationConfig,
                               StepFunction, SurvivalDataset, bootstrap,
                               breslow_baseline, effect_curves,
                               estimate_effects, estimate_rho, fit_cox_td,
                               _risk_prefix, ingest_csv, kaplan_meier,
                               log_partial_likelihood, mediator_summary,
                               nelson_aalen, prothrombin_transform,
                               resample_subjects, simulate_dataset)


def _simple_ds(treatment=(0, 0, 0, 0)):
    """Four subjects, one interval each: death at 1, censor at 2, death at 3,
    censor at 4."""
    return SurvivalDataset.build(
        subject=["s1", "s2", "s3", "s4"],
        start=[0.0, 0.0, 0.0, 0.0],
        stop=[1.0, 2.0, 3.0, 4.0],
        event=[1, 0, 1, 0],
        treatment=list(treatment),
        covariates=np.zeros((4, 1)),
        covariate_names=("m",))


# -- step functions ----------------------------------------------------------


def test_step_function_right_continuous():
    f = StepFunction(np.array([1.0, 2.0]), np.array([5.0, 7.0]), initial=3.0)
    assert f(0.5) == 3.0
    assert f(1.0) == 5.0
    assert f(1.5) == 5.0
    assert f(2.0) == 7.0
    assert list(f(np.array([0.0, 2.5]))) == [3.0, 7.0]


def test_step_function_validation():
    with pytest.raises(ConfigurationError):
        StepFunction(np.array([2.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ConfigurationError):
        StepFunction(np.array([1.0]), np.array([np.inf]))


# -- nonparametric estimators --------------------------------------------------


def test_kaplan_meier_hand_example():
    km = kaplan_meier(_simple_ds())
    assert km(0.5) == pytest.approx(1.0)
    assert km(1.0) == pytest.approx(3.0 / 4.0)
    assert km(2.5) == pytest.approx(3.0 / 4.0)
    # two at risk at t=3, one dies
    assert km(3.0) == pytest.approx(3.0 / 8.0)


def test_nelson_aalen_hand_example():
    na = nelson_aalen(_simple_ds())
    assert na(1.0) == pytest.approx(1.0 / 4.0)
    assert na(3.5) == pytest.approx(1.0 / 4.0 + 1.0 / 2.0)


def test_km_no_events_is_one():
    ds = SurvivalDataset.build(["a"], [0.0], [1.0], [0], [0],
                               np.zeros((1, 1)), ("m",))
    assert kaplan_meier(ds)(5.0) == 1.0


def test_km_close_to_exp_neg_na_in_large_sample():
    config = SimulationConfig(n_subjects=10_000, rho=0.0, gamma=0.0,
                              psi_values=(0.4,), horizon=3.0,
                              treated_fraction=0.0)
    ds = simulate_dataset(config, seed=17)
    km = kaplan_meier(ds)
    na = nelson_aalen(ds)
    for t in (0.5, 1.0, 2.0):
        assert abs(km(t) - np.exp(-na(t))) < 0.01
        # the true survival is exp(-0.4 t)
        assert abs(km(t) - np.exp(-0.4 * t)) < 0.02


# -- dataset validation -----------------------------------------------------------


def test_dataset_rejects_bad_intervals():
    with pytest.raises(DataError):
        SurvivalDataset.build(["a"], [1.0], [1.0], [0], [0],
                              np.zeros((1, 1)), ("m",))


def test_dataset_rejects_overlap():
    with pytest.raises(DataError) as err:
        SurvivalDataset.build(["a", "a"], [0.0, 0.5], [1.0, 2.0], [0, 0],
                              [0, 0], np.zeros((2, 1)), ("m",))
    assert "overlap" in str(err.value)


def test_dataset_rejects_event_not_last():
    with pytest.raises(DataError):
        SurvivalDataset.build(["a", "a"], [0.0, 1.0], [1.0, 2.0], [1, 0],
                              [0, 0], np.zeros((2, 1)), ("m",))


def test_dataset_rejects_treatment_switch():
    with pytest.raises(DataError):
        SurvivalDataset.build(["a", "a"], [0.0, 1.0], [1.0, 2.0], [0, 1],
                              [0, 1], np.zeros((2, 1)), ("m",))


def test_dataset_sorts_rows_within_subject():
    ds = SurvivalDataset.build(["a", "a"], [1.0, 0.0], [2.0, 1.0], [1, 0],
                               [0, 0], np.array([[5.0], [3.0]]), ("m",))
    assert list(ds.start) == [0.0, 1.0]
    assert list(ds.column("m")) == [3.0, 5.0]


def test_dataset_summary_counts():
    ds = _simple_ds(treatment=(1, 1, 0, 0))
    s = ds.summary()
    assert s["subjects"] == 4 and s["events"] == 2
    assert s["subjects_by_treatment"] == {0: 2, 1: 2}
    assert s["events_by_treatment"] == {0: 1, 1: 1}


# -- CSV ingestion ------------------------------------------------------------------


COLUMNS = {"id": "id", "start": "tstart", "stop": "tstop", "event": "death",
           "treatment": "arm", "covariates": ["biomarker"]}


def _write_csv(path, rows):
    path.write_text("id,tstart,tstop,death,arm,biomarker\n"
                    + "\n".join(rows) + "\n")


def test_ingest_csv(tmp_path):
    p = tmp_path / "d.csv"
    _write_csv(p, ["s1,0,1.5,0,1,70", "s1,1.5,3,1,1,55", "s2,0,2,0,0,80"])
    ds = ingest_csv(p, COLUMNS)
    assert ds.n_subjects == 2 and ds.n_events == 1
    assert list(ds.column("biomarker")) == [70.0, 55.0, 80.0]


def test_ingest_csv_reports_row_number(tmp_path):
    p = tmp_path / "d.csv"
    _write_csv(p, ["s1,0,1.5,0,1,70", "s2,0,oops,1,0,60"])
    with pytest.raises(DataError) as err:
        ingest_csv(p, COLUMNS)
    assert "row 2" in str(err.value)


def test_ingest_csv_empty_file(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("")
    with pytest.raises(DataError):
        ingest_csv(p, COLUMNS)


def test_ingest_csv_missing_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("id,tstart,tstop,death\ns1,0,1,1\n")
    with pytest.raises(DataError) as err:
        ingest_csv(p, COLUMNS)
    assert "arm" in str(err.value)


# -- mediator summaries ----------------------------------------------------------------


def _mediator_ds():
    return SurvivalDataset.build(
        ["a", "a", "a"], [0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [0, 0, 1],
        [0, 0, 0], np.array([[10.0], [20.0], [30.0]]), ("m",))


def test_mediator_summary_mean_all():
    out = mediator_summary(_mediator_ds(), "m", "mean_all")
    assert list(out.column("m_mean_all")) == [10.0, 15.0, 20.0]


def test_mediator_summary_last():
    out = mediator_summary(_mediator_ds(), "m", "last")
    assert list(out.column("m_last")) == [10.0, 20.0, 30.0]


def test_mediator_summary_weighted_full_decay_is_mean():
    out = mediator_summary(_mediator_ds(), "m", "weighted", decay=1.0)
    assert list(out.column("m_weighted")) == [10.0, 15.0, 20.0]
    recent = mediator_summary(_mediator_ds(), "m", "weighted", decay=0.5)
    # most recent value gets the largest weight
    assert recent.column("m_weighted")[2] == pytest.approx(
        (30.0 + 0.5 * 20.0 + 0.25 * 10.0) / 1.75)


def test_mediator_summary_two_part():
    out = mediator_summary(_mediator_ds(), "m", "two_part", split=2.0)
    assert list(out.column("m_two_part_early")) == [10.0, 15.0, 15.0]
    # before any late observation exists, the late part borrows the early mean
    assert list(out.column("m_two_part_late")) == [10.0, 15.0, 30.0]


def test_mediator_summary_validation():
    with pytest.raises(ConfigurationError):
        mediator_summary(_mediator_ds(), "m", "weighted")
    with pytest.raises(ConfigurationError):
        mediator_summary(_mediator_ds(), "m", "two_part")
    with pytest.raises(ConfigurationError):
        mediator_summary(_mediator_ds(), "m", "median")


def test_prothrombin_transform():
    out = prothrombin_transform([85.0, 70.0, 55.0])
    assert list(out) == [0.0, 0.0, -15.0]


# -- Cox fitting ------------------------------------------------------------------------


def _sim_ds(seed=1, n=2000, gamma=0.7):
    config = SimulationConfig(
        n_subjects=n, rho=0.3, gamma=gamma, psi_values=(0.3,),
        visit_times=(1.0, 2.0), horizon=4.0, mediator_sd=0.5)
    return simulate_dataset(config, seed)


def test_cox_fit_converges_and_recovers_gamma():
    ds = _sim_ds().group(0)
    fit = fit_cox_td(ds)
    assert fit.converged
    assert fit.grad_norm <= 1e-8
    se = float(np.sqrt(np.linalg.inv(fit.information)[0, 0]))
    assert abs(fit.coef[0] - 0.7) < 3 * se


def test_cox_score_vanishes_at_optimum():
    ds = _sim_ds(seed=2, n=500).group(0)
    fit = fit_cox_td(ds)
    h = 1e-5
    fd = (log_partial_likelihood(ds, fit.coef + h)
          - log_partial_likelihood(ds, fit.coef - h)) / (2 * h)
    # the finite-difference score at the optimum is O(h^2) relative to scale
    assert abs(fd) < 1e-4 * max(1.0, abs(fit.loglik))
    assert log_partial_likelihood(ds, fit.coef) >= \
        log_partial_likelihood(ds, fit.coef + 0.05)


def test_cox_requires_events():
    ds = SurvivalDataset.build(["a", "b"], [0, 0], [1, 1], [0, 0], [0, 0],
                               np.zeros((2, 1)), ("m",))
    with pytest.raises(EstimationError):
        fit_cox_td(ds)


def test_cox_singular_information():
    ds = _sim_ds(seed=4, n=200).group(0)
    doubled = SurvivalDataset(ds.subject, ds.start, ds.stop, ds.event,
                              ds.treatment,
                              np.hstack([ds.covariates, ds.covariates]),
                              ("m", "m_copy"))
    with pytest.raises(EstimationError) as err:
        fit_cox_td(doubled)
    assert "singular" in str(err.value)


def test_cox_constant_covariate_fits_at_zero():
    fit = fit_cox_td(_simple_ds())
    assert fit.coef[0] == 0.0 and fit.grad_norm == 0.0


def test_breslow_with_zero_coef_equals_nelson_aalen():
    ds = _sim_ds(seed=3, n=300).group(0)
    fit = CoxFit(np.zeros(1), 0.0, 0, 0.0, np.eye(1))
    bl = breslow_baseline(fit, ds)
    na = nelson_aalen(ds)
    assert np.array_equal(bl.times, na.times)
    assert np.allclose(bl.values, na.values, atol=1e-12)


# -- treatment hazard and effect curves -----------------------------------------------


def test_estimate_rho_recovers_linear_hazard():
    ds = _sim_ds(seed=5, n=4000)
    fit = fit_cox_td(ds.group(0))
    rho_hat = estimate_rho(ds, fit)
    for t in (1.0, 2.0, 3.0):
        assert abs(rho_hat(t) - 0.3 * t) < 0.12 * 0.3 * t


def test_estimate_rho_needs_both_groups():
    ds = _simple_ds(treatment=(0, 0, 0, 0))
    fit = CoxFit(np.zeros(1), 0.0, 0, 0.0, np.eye(1))
    with pytest.raises(EstimationError):
        estimate_rho(ds, fit)
    with pytest.raises(EstimationError):
        estimate_rho(_simple_ds(treatment=(1, 1, 1, 1)), fit)


def test_estimate_rho_warns_on_negative_final_value():
    # swapping the labels makes the "treated" group the low-hazard one
    ds = _sim_ds(seed=7, n=1000)
    flipped = SurvivalDataset(ds.subject, ds.start, ds.stop, ds.event,
                              1 - ds.treatment, ds.covariates,
                              ds.covariate_names)
    fit = fit_cox_td(flipped.group(0))
    with pytest.warns(UserWarning, match="negative"):
        estimate_rho(flipped, fit)


def test_effect_curves_identity_and_shape():
    ds = _sim_ds(seed=9, n=1500)
    result = estimate_effects(ds)
    curves = result.curves
    assert np.all(np.abs(curves.sde * curves.sie - curves.total) <= 1e-10)
    # rho > 0 depresses survival; the estimate may dip above 1 only early,
    # within sampling noise
    assert curves.sde[-1] < 1.0
    assert np.all(curves.sde <= 1.05)
    # direct effect should track exp(-rho t)
    mid = np.searchsorted(curves.times, 2.0)
    assert curves.sde[mid] == pytest.approx(np.exp(-0.3 * curves.times[mid]),
                                            rel=0.15)


def test_effect_curves_reject_broken_identity():
    with pytest.raises(EstimationError):
        EffectCurves(np.array([1.0]), np.array([0.5]), np.array([0.5]),
                     np.array([0.5]))


# -- bootstrap ----------------------------------------------------------------------------


def test_bootstrap_deterministic():
    ds = _sim_ds(seed=11, n=200)
    stat = kaplan_meier
    b1 = bootstrap(ds, stat, n_boot=20, seed=42)
    b2 = bootstrap(ds, stat, n_boot=20, seed=42)
    assert np.array_equal(b1.lower, b2.lower)
    assert np.array_equal(b1.upper, b2.upper)
    b3 = bootstrap(ds, stat, n_boot=20, seed=43)
    assert not np.array_equal(b1.lower, b3.lower)


def test_bootstrap_constant_statistic_gives_degenerate_bands():
    ds = _sim_ds(seed=12, n=100)
    grid = np.array([1.0, 2.0])
    bands = bootstrap(ds, lambda d: (lambda t: np.full_like(t, 0.7)),
                      n_boot=10, seed=0, grid=grid)
    assert np.allclose(bands.lower, 0.7) and np.allclose(bands.upper, 0.7)


def test_bootstrap_too_many_failures():
    ds = _sim_ds(seed=13, n=50)

    def failing(_):
        raise EstimationError("boom")

    with pytest.raises(EstimationError):
        bootstrap(ds, failing, n_boot=10, seed=0)


def test_bootstrap_needs_two_replicates():
    with pytest.raises(ConfigurationError):
        bootstrap(_sim_ds(seed=14, n=50), kaplan_meier, n_boot=1, seed=0)


def test_bootstrap_budget_is_checked_before_the_first_replicate(monkeypatch):
    ds = _sim_ds(seed=14, n=50)
    grid = np.array([1.0, 2.0, 3.0])
    calls = []

    def constant(_):
        calls.append(1)
        return lambda t: np.full_like(t, 0.5)

    size = 4 * (len(ds) + len(grid))
    monkeypatch.setattr(survival, "BOOT_BUDGET", size)
    assert bootstrap(ds, constant, n_boot=4, seed=0, grid=grid).n_boot == 4
    assert len(calls) == 4
    monkeypatch.setattr(survival, "BOOT_BUDGET", size - 1)
    with pytest.raises(SizeError, match="bootstrap budget"):
        bootstrap(ds, constant, n_boot=4, seed=0, grid=grid)
    assert len(calls) == 4


def test_resample_preserves_subject_count():
    ds = _sim_ds(seed=15, n=60)
    rs = resample_subjects(ds, np.random.default_rng(0))
    assert rs.n_subjects == ds.n_subjects


# -- case weights and the risk-set kernel -------------------------------------------------


def _acceptance5_data():
    config = SimulationConfig(
        n_subjects=5000, rho=0.3, gamma=0.5, psi_values=(0.2,),
        visit_times=(1.0, 2.0), horizon=3.0, mediator_sd=0.5)
    return simulate_dataset(config, seed=4)


def _copy_resample(dataset, rng):
    """Reference resampler: the rows of every drawn subject are copied under
    a fresh id, one copy per draw, in draw order."""
    ids = list(dict.fromkeys(dataset.subject))
    picks = rng.integers(0, len(ids), size=len(ids))
    blocks = {}
    for i, s in enumerate(dataset.subject):
        blocks.setdefault(s, []).append(i)
    rows = np.concatenate([blocks[ids[p]] for p in picks])
    copy_ids = np.array([f"copy{k}" for k, p in enumerate(picks)
                         for _ in blocks[ids[p]]], dtype=object)
    return SurvivalDataset(copy_ids, dataset.start[rows], dataset.stop[rows],
                           dataset.event[rows], dataset.treatment[rows],
                           dataset.covariates[rows], dataset.covariate_names)


def _rel_diff(values, reference):
    return np.max(np.abs(values - reference)) / np.max(np.abs(reference))


def test_weighted_replicates_match_copied_replicates():
    ds = _acceptance5_data()

    def rho(d):
        return estimate_rho(d, fit_cox_td(d.group(0)))

    for rep in range(20):
        weighted = resample_subjects(ds, np.random.default_rng([4, rep]))
        copied = _copy_resample(ds, np.random.default_rng([4, rep]))
        assert len(weighted) < len(copied)
        assert weighted.n_subjects == copied.n_subjects == ds.n_subjects
        assert weighted.n_events == copied.n_events
        for statistic in (rho, kaplan_meier):
            fw, fc = statistic(weighted), statistic(copied)
            assert np.array_equal(fw.times, fc.times)
            assert _rel_diff(fw.values, fc.values) <= 1e-12


def test_risk_set_sums_match_exact_summation():
    ds = _acceptance5_data()
    fit = fit_cox_td(ds.group(0))
    assert fit.grad_norm <= 1e-8
    grid = np.unique(ds.stop[ds.event == 1])
    w = np.exp(ds.covariates @ fit.coef)
    sums = _risk_prefix(grid, ds.start, ds.stop, w)
    exact = np.array([math.fsum(w[(ds.start < u) & (u <= ds.stop)])
                      for u in grid])
    assert np.max(np.abs(sums - exact) / exact) <= 1e-13


def _with_covariates(ds, p, seed):
    """``ds`` with p covariates: its mediator and p - 1 random columns."""
    rng = np.random.default_rng(seed)
    z = np.column_stack([ds.covariates[:, 0],
                         rng.normal(size=(len(ds), p - 1))])
    return replace(ds, covariates=z,
                   covariate_names=tuple(f"z{j}" for j in range(p)))


def _assert_block_is_stacked_vectors(rs, n, seed):
    rng = np.random.default_rng(seed)
    block = np.vstack([rng.exponential(size=(3, n)),
                       rng.normal(size=(2, n)) * 1e6])
    assert np.array_equal(rs.at_risk(block),
                          np.stack([rs.at_risk(x) for x in block]))
    assert np.array_equal(rs.at_stop(block),
                          np.stack([rs.at_stop(x) for x in block]))


def test_risk_set_block_equals_the_stacked_vectors_bitwise():
    ds = _sim_ds(seed=21, n=300)
    r = survival._risk_sets(ds)
    _assert_block_is_stacked_vectors(r.risk, len(r.weights), 21)
    for k, view in enumerate(_replicates(ds, 3, 21)):
        cut = survival._risk_sets(view.group(0))
        assert len(cut.weights) < len(ds)
        _assert_block_is_stacked_vectors(cut.risk, len(cut.weights), k)


def _count_kernel_calls(monkeypatch):
    calls = []
    for name in ("at_risk", "at_stop"):
        method = getattr(survival._RiskSets, name)

        def counted(self, x, method=method, name=name):
            calls.append((name, np.shape(x)))
            return method(self, x)
        monkeypatch.setattr(survival._RiskSets, name, counted)
    return calls


@pytest.mark.parametrize("p", [1, 2, 3])
def test_cox_evaluation_makes_one_kernel_call(p, monkeypatch):
    ds = _with_covariates(_sim_ds(seed=22, n=200).group(0), p, 22)
    r = survival._risk_sets(ds)
    calls = _count_kernel_calls(monkeypatch)
    loglik, grad, info = survival._cox_stats(r, np.full(p, 0.1))
    # w, w z_j and w z_j z_k, one row vector each
    assert calls == [("at_risk", (1 + p + p * p, len(ds)))]
    assert grad.shape == (p,) and info.shape == (p, p)
    assert np.array_equal(info, info.T)


def test_estimate_rho_makes_one_call_of_each_kind(monkeypatch):
    ds = _with_covariates(_sim_ds(seed=23, n=200), 2, 23)
    fit = fit_cox_td(ds.group(0))
    survival._risk_sets(ds)
    calls = _count_kernel_calls(monkeypatch)
    estimate_rho(ds, fit)
    assert calls == [("at_stop", (2, len(ds))), ("at_risk", (3, len(ds)))]


def test_risk_set_error_is_relative_to_the_rows_not_yet_stopped():
    # each subject has a light row and then a heavy one, 1e8 times heavier:
    # the at-risk sums are off relative to the at-risk total, but within
    # 1e-14 of the sum over the rows that stop later, entered or not (the
    # bound the kernel states)
    rng = np.random.default_rng(24)
    n = 500
    entry = rng.uniform(0.1, 1.0, n)
    start = np.concatenate([np.zeros(n), entry])
    stop = np.concatenate([entry, entry + rng.uniform(0.1, 1.0, n)])
    x = np.concatenate([rng.uniform(0.5, 1.5, n),
                        1e8 * rng.uniform(0.5, 1.5, n)])
    grid = np.unique(stop)
    rs = survival._RiskSets.map(grid, start, stop)
    sums = rs.at_risk(x)
    for k, u in enumerate(grid):
        exact = math.fsum(x[(start < u) & (u <= stop)])
        later = math.fsum(x[rs.hi > k])
        assert abs(sums[k] - exact) <= 1e-14 * later


def test_case_weights_count_subjects_and_events():
    ds = _simple_ds(treatment=(1, 1, 0, 0))
    weighted = replace(ds, weights=np.array([2, 1, 1, 3]))
    s = weighted.summary()
    assert s["subjects"] == 7 and s["events"] == 3 and s["rows"] == 4
    assert s["subjects_by_treatment"] == {0: 4, 1: 3}
    assert s["events_by_treatment"] == {0: 1, 1: 2}
    assert weighted.group(0).n_subjects == 4
    # weight 2 on the first death matches a duplicated subject
    doubled = SurvivalDataset.build(
        ["s1", "s1b", "s2", "s3", "s4"], [0.0] * 5, [1.0, 1.0, 2.0, 3.0, 4.0],
        [1, 1, 0, 1, 0], [0] * 5, np.zeros((5, 1)), ("m",))
    w2 = replace(_simple_ds(), weights=np.array([2, 1, 1, 1]))
    assert np.array_equal(kaplan_meier(w2).values,
                          kaplan_meier(doubled).values)
    assert np.array_equal(nelson_aalen(w2).values,
                          nelson_aalen(doubled).values)


@pytest.mark.parametrize("weights", [[1, 0, 1, 1], [1, 1, np.inf, 1],
                                     [1, 1, 1]])
def test_case_weights_are_validated(weights):
    with pytest.raises(DataError):
        replace(_simple_ds(), weights=np.array(weights, dtype=float))


# -- bootstrap replicates as weight views --------------------------------------------------


def _cli_statistic(d):
    return estimate_rho(d, fit_cox_td(d.group(0)))


def _copied_bootstrap(dataset, statistic, n_boot, seed, grid):
    """Reference loop: ``statistic`` on the copies ``resample_subjects``
    draws from the streams ``bootstrap`` uses; failures counted by class."""
    values, drops = [], {}
    for rep in range(n_boot):
        copy = resample_subjects(dataset, np.random.default_rng([seed, rep]))
        try:
            values.append(statistic(copy)(grid))
        except (EstimationError, DataError) as exc:
            drops[type(exc).__name__] = drops.get(type(exc).__name__, 0) + 1
    return np.array(values), drops


def test_view_replicates_match_copied_replicates():
    ds = _acceptance5_data()
    grid = np.unique(ds.stop[ds.event == 1])
    bands = bootstrap(ds, _cli_statistic, n_boot=200, seed=4, grid=grid,
                      keep_replicates=True)
    values, drops = _copied_bootstrap(ds, _cli_statistic, 200, 4, grid)
    assert bands.n_dropped == 0 and bands.drops == drops == {}
    assert _rel_diff(bands.replicates, values) <= 1e-12


def _late_entry_ds(seed, n):
    """Every other subject with more than one row enters at its first
    visit, so a risk set can empty and fill again."""
    ds = _sim_ds(seed=seed, n=n)
    first = ds._first_rows()
    index = np.cumsum(first) - 1
    late = first & (np.bincount(index)[index] > 1) & (index % 2 == 1)
    return ds.restrict(~late)


@pytest.mark.parametrize("make, seed, reasons", [
    # 14 subjects: some replicates have no group-0 event, an empty risk set
    # or a fit that leaves the step-halving floor, and R(t) truncates early
    (lambda: _sim_ds(seed=1, n=14), 1, {"DataError", "EstimationError"}),
    # the treated risk set of some replicates empties at a time where they
    # have no event and fills again before their next one
    (lambda: _late_entry_ds(seed=2, n=40), 2, set())],
    ids=["drops", "late-entry"])
def test_small_view_replicates_match_copied_replicates(make, seed, reasons):
    ds = make()
    grid = np.unique(ds.stop[ds.event == 1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bands = bootstrap(ds, _cli_statistic, n_boot=60, seed=seed,
                          grid=grid, keep_replicates=True)
        values, drops = _copied_bootstrap(ds, _cli_statistic, 60, seed, grid)
    assert set(drops) == reasons
    assert bands.drops == drops
    assert bands.n_dropped == sum(drops.values())
    assert _rel_diff(bands.replicates, values) <= 1e-12


def test_bands_are_the_percentiles_of_the_kept_replicates_only():
    # 11 of the 60 replicates are dropped: only the kept replicates' values
    # may enter the selection
    ds = _sim_ds(seed=1, n=14)
    grid = np.unique(ds.stop[ds.event == 1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bands = bootstrap(ds, _cli_statistic, n_boot=60, seed=1, grid=grid)
        kept = bootstrap(ds, _cli_statistic, n_boot=60, seed=1, grid=grid,
                         keep_replicates=True)
        values, _ = _copied_bootstrap(ds, _cli_statistic, 60, 1, grid)
    assert bands.n_dropped > 0 and len(values) == 60 - bands.n_dropped
    assert np.array_equal(bands.lower, np.percentile(values, 2.5, axis=0))
    assert np.array_equal(bands.upper, np.percentile(values, 97.5, axis=0))
    # the returned replicates are a copy taken before the in-place selection
    assert np.array_equal(kept.replicates, values)
    assert np.array_equal(kept.lower, bands.lower)
    assert np.array_equal(kept.upper, bands.upper)


def test_bootstrap_peak_memory_is_one_replicate_matrix():
    ds = _sim_ds(seed=3, n=60)
    grid = np.linspace(0.0, 4.0, 400)

    def peak(n_boot):
        tracemalloc.start()
        try:
            bootstrap(ds, kaplan_meier, n_boot=n_boot, seed=3, grid=grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # two replicates measure what the dataset, its index and one statistic
    # take; 400 add the (400 x 400) float64 matrix, which a list of rows,
    # its stacked copy and a copy per percentile call would hold three times
    working_set = peak(2)
    matrix = 400 * len(grid) * 8
    assert peak(400) <= 1.5 * matrix + working_set


def test_rho_after_a_diverged_fit_is_an_estimation_error():
    # group 0 of this replicate is separated: the fit stops near gamma =
    # 1257 with the gradient under tolerance, and exp(gamma z) overflows;
    # a bootstrap used to end in a ConfigurationError here
    copy = resample_subjects(_sim_ds(seed=1, n=20),
                             np.random.default_rng([1, 54]))
    fit = fit_cox_td(copy.group(0))
    assert fit.coef[0] > 700
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(EstimationError, match="non-finite"):
        estimate_rho(copy, fit)


def _replicates(dataset, n_boot, seed):
    """The replicates ``bootstrap`` hands to its statistic."""
    seen = []
    bootstrap(dataset, lambda d: seen.append(d) or kaplan_meier(d),
              n_boot=n_boot, seed=seed)
    return seen


def test_estimators_on_a_view_jump_where_its_copy_jumps():
    ds = _sim_ds(seed=6, n=40)
    fit = fit_cox_td(ds.group(0))
    for rep, view in enumerate(_replicates(ds, 10, 6)):
        copy = resample_subjects(ds, np.random.default_rng([6, rep]))
        pairs = [(kaplan_meier(view), kaplan_meier(copy)),
                 (nelson_aalen(view), nelson_aalen(copy)),
                 (breslow_baseline(fit, view.group(0)),
                  breslow_baseline(fit, copy.group(0)))]
        for on_view, on_copy in pairs:
            assert np.array_equal(on_view.times, on_copy.times)
            assert _rel_diff(on_view.values, on_copy.values) <= 1e-12


def test_opaque_statistic_reads_the_copy():
    ds = _sim_ds(seed=7, n=30)
    for rep, view in enumerate(_replicates(ds, 5, 7)):
        copy = resample_subjects(ds, np.random.default_rng([7, rep]))
        assert len(view) == len(copy) < len(ds)
        assert np.array_equal(view.subject, copy.subject)
        assert np.array_equal(view.weights, copy.weights)
        assert view.summary() == copy.summary()
        assert view.n_subjects == copy.n_subjects == ds.n_subjects
        assert view.n_events == copy.n_events
        assert np.array_equal(view.group(1).subject, copy.group(1).subject)


def test_bootstrap_maps_rows_once(monkeypatch):
    ds = _sim_ds(seed=8, n=300)
    calls = []
    map_rows = survival._RiskSets.map.__func__

    def counted(cls, grid, start, stop):
        calls.append(len(start))
        return map_rows(cls, grid, start, stop)

    monkeypatch.setattr(survival._RiskSets, "map", classmethod(counted))
    estimate_effects(ds)
    # the reference group (fit, baseline, Kaplan-Meier), the pooled rows
    # and the other group
    assert len(calls) == 3
    bootstrap(ds, _cli_statistic, n_boot=20, seed=8)
    # one more: the parent's group 0, shared by all 20 replicates
    assert len(calls) == 4
    assert ds._first_rows() is ds._first_rows()


def test_bootstrap_failure_names_its_reasons():
    ds = _sim_ds(seed=13, n=50)

    def failing(d):
        if d.n_events % 2:
            raise DataError("odd")
        raise EstimationError("even")

    with pytest.raises(EstimationError,
                       match=r"10/10 .*(DataError|EstimationError) x\d+"):
        bootstrap(ds, failing, n_boot=10, seed=0)


# -- simulation oracle ---------------------------------------------------------------------


def test_simulation_validates_config():
    with pytest.raises(ConfigurationError):
        SimulationConfig(n_subjects=10, rho=0.1, gamma=0.0,
                         psi_times=(1.0,), psi_values=(0.5,))
    with pytest.raises(ConfigurationError):
        SimulationConfig(n_subjects=10, rho=0.1, gamma=0.0, horizon=0.0)


def test_simulation_marginal_rates():
    # with gamma = 0 the model is exponential with rates psi and psi + rho
    config = SimulationConfig(n_subjects=20_000, rho=0.5, gamma=0.0,
                              psi_values=(0.5,), horizon=8.0)
    ds = simulate_dataset(config, seed=19)
    km0 = kaplan_meier(ds.group(0))
    km1 = kaplan_meier(ds.group(1))
    assert km0(1.0) == pytest.approx(np.exp(-0.5), abs=0.02)
    assert km1(1.0) == pytest.approx(np.exp(-1.0), abs=0.02)


@pytest.mark.parametrize("fields", [{"n_subjects": -1}, {"mediator_sd": -1.0},
                                    {"mediator_sd": float("nan")},
                                    {"treated_fraction": 1.5},
                                    {"treated_fraction": -0.1}])
def test_simulation_config_ranges(fields):
    with pytest.raises(ConfigurationError):
        SimulationConfig(**{"n_subjects": 10, "rho": 0.1, "gamma": 0.0,
                            **fields})


# -- column-wise ingest, loop-free checks and running-sum summaries -----------------------


def _random_counting_data(rng, n_subjects):
    """Subjects with 1-7 rows on the visit grid 0, 0.5, 1, ..., given to
    ``build`` in shuffled row order, with per-subject case weights 1-3."""
    lengths = rng.integers(1, 8, n_subjects)
    lengths[:3] = 1
    ids = np.array([f"p{i}" for i in range(n_subjects)], dtype=object)
    subject = np.repeat(ids, lengths)
    start = 0.5 * np.concatenate([np.arange(k) for k in lengths])
    stop = start + 0.5
    last = np.append(subject[1:] != subject[:-1], True)
    stop[last] -= rng.uniform(0.0, 0.4, last.sum())
    event = (last & (rng.random(len(start)) < 0.6)).astype(int)
    treatment = np.repeat(rng.integers(0, 2, n_subjects), lengths)
    weights = np.repeat(rng.integers(1, 4, n_subjects), lengths)
    m = rng.normal(3.0, 10.0, len(start))
    order = rng.permutation(len(start))
    ds = SurvivalDataset.build(subject[order], start[order], stop[order],
                               event[order], treatment[order],
                               m[order][:, None], ("m",))
    # build keeps subjects in first-appearance order and sorts their rows
    weight_of = dict(zip(subject, weights))
    return replace(ds, weights=np.array([weight_of[s] for s in ds.subject]))


def _reference_summary(dataset, mediator_col, scheme, decay=None, split=None):
    """The derived columns by the direct per-subject, per-row loop."""
    raw = dataset.column(mediator_col)
    n = len(dataset)
    derived = np.zeros((n, 2 if scheme == "two_part" else 1))
    bounds = np.append(np.flatnonzero(dataset._first_rows()), n)
    for i, j in zip(bounds[:-1], bounds[1:]):
        vals = raw[i:j]
        starts = dataset.start[i:j]
        for k in range(j - i):
            hist = vals[:k + 1]
            if scheme == "last":
                derived[i + k, 0] = hist[-1]
            elif scheme == "mean_all":
                derived[i + k, 0] = hist.mean()
            elif scheme == "weighted":
                w = decay ** np.arange(len(hist))[::-1]
                derived[i + k, 0] = float(np.dot(w, hist) / w.sum())
            else:
                early = hist[starts[:k + 1] < split]
                late = hist[starts[:k + 1] >= split]
                e = early.mean() if early.size else late.mean()
                l = late.mean() if late.size else e
                derived[i + k] = (e, l)
    return derived


@pytest.mark.parametrize("scheme,kwargs", [
    ("last", {}), ("mean_all", {}),
    ("weighted", {"decay": 1.0}), ("weighted", {"decay": 0.5}),
    ("weighted", {"decay": 0.013}),
    ("two_part", {"split": 1.0}), ("two_part", {"split": 1.25}),
    ("two_part", {"split": 0.0}), ("two_part", {"split": 9.0})])
def test_mediator_summary_matches_per_subject_loop(scheme, kwargs):
    rng = np.random.default_rng(21)
    for _ in range(5):
        ds = _random_counting_data(rng, 300)
        out = mediator_summary(ds, "m", scheme, **kwargs)
        reference = _reference_summary(ds, "m", scheme, **kwargs)
        derived = out.covariates[:, 1:]
        assert derived.shape == reference.shape
        assert _rel_diff(derived, reference) <= 1e-12
        assert np.array_equal(out.covariates[:, 0], ds.covariates[:, 0])
        assert np.array_equal(out.weights, ds.weights)
        assert np.array_equal(out.subject, ds.subject)


def _reference_build_error(ds):
    """The first fault the row-by-row validation loop finds, or None."""
    s = ds.subject
    for i in range(1, len(ds)):
        if s[i] != s[i - 1]:
            continue
        if ds.start[i] < ds.stop[i - 1]:
            return f"overlapping intervals for subject {s[i]!r}"
        if ds.event[i - 1] == 1:
            return f"event interval is not last for subject {s[i]!r}"
        if ds.treatment[i] != ds.treatment[i - 1]:
            return f"treatment changes within subject {s[i]!r}"
    return None


def test_build_reports_the_first_offending_subject():
    rng = np.random.default_rng(8)
    for _ in range(60):
        ds = _random_counting_data(rng, 40)
        start, event = ds.start.copy(), ds.event.copy()
        treatment = ds.treatment.copy()
        inner = np.flatnonzero(ds.subject[1:] == ds.subject[:-1]) + 1
        for i in rng.choice(inner, size=min(3, len(inner)), replace=False):
            fault = rng.integers(3)
            if fault == 0:
                start[i] -= 0.25
            elif fault == 1:
                event[i - 1] = 1
            else:
                treatment[i] = 1 - treatment[i]
        faulty = replace(ds, start=start, event=event, treatment=treatment)
        expected = _reference_build_error(faulty)
        # rows shuffled within subjects, so build sorts them back to ds order
        order = np.lexsort((rng.random(len(ds)), np.cumsum(ds._first_rows())))
        args = (ds.subject[order], start[order], ds.stop[order],
                event[order], treatment[order], ds.covariates[order], ("m",))
        if expected is None:
            assert _same_dataset(SurvivalDataset.build(*args),
                                 replace(faulty, weights=None))
        else:
            with pytest.raises(DataError) as err:
                SurvivalDataset.build(*args)
            assert str(err.value) == expected


@pytest.mark.parametrize("column,value", [("start", np.nan),
                                          ("stop", np.inf),
                                          ("covariates", np.nan),
                                          ("covariates", -np.inf)])
def test_build_rejects_non_finite_cells(column, value):
    cols = {"start": np.array([0.0, 1.0, 0.0]),
            "stop": np.array([1.0, 2.0, 3.0]),
            "covariates": np.array([[1.0], [2.0], [3.0]])}
    cols[column][1] = value
    with pytest.raises(DataError) as err:
        SurvivalDataset.build(["a", "a", "b"], cols["start"], cols["stop"],
                              [0, 1, 0], [0, 0, 1], cols["covariates"], ("m",))
    assert "non-finite" in str(err.value) and "'a'" in str(err.value)


def _reference_ingest(path, columns):
    """Load a CSV through ``csv.DictReader`` one row at a time, then check
    that every float cell is finite."""
    required = ("id", "start", "stop", "event", "treatment")
    cov_cols = list(columns.get("covariates", []))
    floats = [columns["start"], columns["stop"]] + cov_cols
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        absent = [c for c in [columns[k] for k in required] + cov_cols
                  if c not in reader.fieldnames]
        if absent:
            raise DataError(f"missing columns: {absent}")
        for rownum, rec in enumerate(reader, start=1):
            try:
                rows.append((
                    rec[columns["id"]],
                    float(rec[columns["start"]]),
                    float(rec[columns["stop"]]),
                    int(rec[columns["event"]]),
                    int(rec[columns["treatment"]]),
                    [float(rec[c]) for c in cov_cols],
                ))
            except (TypeError, ValueError) as exc:
                raise DataError(f"row {rownum}: non-numeric cell ({exc})") from exc
            for name in floats:
                if not math.isfinite(float(rec[name])):
                    raise DataError(f"row {rownum}: non-finite cell "
                                    f"{rec[name]!r} in column {name!r}")
    subject, start, stop, event, treatment, covs = zip(*rows)
    return SurvivalDataset.build(subject, start, stop, event, treatment,
                                 np.array(covs, dtype=float).reshape(len(rows), -1),
                                 tuple(cov_cols))


def _same_dataset(a, b):
    arrays = ("subject", "start", "stop", "event", "treatment", "covariates",
              "weights")
    return a.covariate_names == b.covariate_names and all(
        np.array_equal(getattr(a, k), getattr(b, k)) for k in arrays)


# a reordered header with an extra column and a repeated name (the last
# "arm" column counts), quoted fields (one id holds a comma), blank lines,
# cells padded with whitespace and an underscore-grouped number
TRICKY_CSV = (
    "arm,note,tstop,biomarker,id,death,tstart,arm\n"
    '?,"x, y",1.5,70,s1,0,0,1\n'
    "\n"
    '?,,3,"1_000","s1",1, 1.5,1\n'
    '?,z,2, 55.25 ,"s,2",0,0,0\n'
    "\n\n\n"
    "?,,4,80,s3, 1 ,0,0\n"
    '?,"",5.5,-1e3,"s,2",0,2, 0\n'
    "?,q,0.75,1e-3,s4,0,0,1\n"
)


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 1 << 13])
def test_ingest_csv_matches_dictreader_reference(chunk_rows, tmp_path,
                                                 monkeypatch):
    monkeypatch.setattr(survival, "CSV_CHUNK_ROWS", chunk_rows)
    p = tmp_path / "d.csv"
    p.write_text(TRICKY_CSV)
    got, want = ingest_csv(p, COLUMNS), _reference_ingest(p, COLUMNS)
    assert _same_dataset(got, want)
    assert list(got.subject) == ["s1", "s1", "s,2", "s,2", "s3", "s4"]
    assert list(got.column("biomarker")) == [70.0, 1000.0, 55.25, -1000.0,
                                             80.0, 0.001]


BAD_ROWS = {
    "short row": ["s9,0,1"],
    "int column holds a float": ["s9,0,1,1.0,0,5"],
    "empty cell": ["s9,0,,0,0,5"],
    "non-finite start": ["s9,nan,1,0,0,5"],
    "overflowing float": ["s9,0,1,0,0,1e999"],
    # the earlier row is reported although its bad cell is in a later
    # column, in the same chunk or in an earlier one
    "row-major order": ["s9,0,1,0,0,oops", "s8,0,1,0,0,7",
                        "s7,0,1,0,0,7", "s6,bad,1,0,0,7"],
    "row-major order, finite check": ["s9,0,1,0,0,inf", "s8,0,x,0,0,7"],
    "bad cell after blank lines": ["", "s9,0,1,0,0,4", "", "", "s8,0,1,z,0,1"],
}


@pytest.mark.parametrize("chunk_rows", [1, 2, 4, 1 << 13])
@pytest.mark.parametrize("case", sorted(BAD_ROWS))
def test_ingest_csv_errors_match_dictreader_reference(case, chunk_rows,
                                                      tmp_path, monkeypatch):
    monkeypatch.setattr(survival, "CSV_CHUNK_ROWS", chunk_rows)
    p = tmp_path / "d.csv"
    _write_csv(p, ["s1,0,1.5,0,1,70", "s1,1.5,3,1,1,55"] + BAD_ROWS[case]
               + ["s2,0,2,0,0,80"])
    with pytest.raises(DataError) as want:
        _reference_ingest(p, COLUMNS)
    with pytest.raises(DataError) as got:
        ingest_csv(p, COLUMNS)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("row ")


@pytest.mark.parametrize("text,message", [
    ("tstart,tstop,death,arm,biomarker,id\n0,1,0,1,70,s1\n0,1,0,0,70\n",
     "row 2: no cell in column 'id'"),
    ("id,tstart,tstop,death,arm,biomarker\ns1,0,1,0,1,70\n"
     "s2,0,1,99999999999999999999,0,70\n",
     "row 2: non-numeric cell (Python int too large to convert to C long)"),
])
def test_ingest_csv_rejects_rows_the_row_loop_let_through(text, message,
                                                          tmp_path):
    p = tmp_path / "d.csv"
    p.write_text(text)
    with pytest.raises(DataError) as err:
        ingest_csv(p, COLUMNS)
    assert str(err.value) == message


def _held_bytes(ds):
    """Bytes the dataset keeps: its arrays plus the id strings its object
    array points to."""
    arrays = (ds.subject, ds.start, ds.stop, ds.event, ds.treatment,
              ds.covariates, ds.weights)
    ids = {id(s): sys.getsizeof(s) for s in ds.subject}
    return sum(a.nbytes for a in arrays) + sum(ids.values())


@pytest.mark.parametrize("rows_per_subject", [1, 4])
def test_ingest_csv_peak_memory_is_bounded(rows_per_subject, tmp_path):
    rng = np.random.default_rng(rows_per_subject)
    n = 50_000
    subject = np.arange(n) // rows_per_subject
    pos = np.arange(n) % rows_per_subject
    stop = pos + rng.uniform(0.1, 1.0, n)
    event = (pos == rows_per_subject - 1) & (rng.random(n) < 0.5)
    lines = [f"s{s},{float(k)!r},{b!r},{int(e)},{s % 2},{x!r}\n"
             for s, k, b, e, x in zip(subject.tolist(), pos.tolist(),
                                      stop.tolist(), event.tolist(),
                                      rng.normal(size=n).tolist())]
    p = tmp_path / "big.csv"
    p.write_text("id,tstart,tstop,death,arm,biomarker\n" + "".join(lines))
    del lines
    tracemalloc.start()
    try:
        ds = ingest_csv(p, COLUMNS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ds) == n
    assert peak <= 2 * _held_bytes(ds)


def _plain_rows(lo, hi):
    return [f"p{k},0,{1 + k % 3},{k % 2},{k % 2},{k * 0.5}"
            for k in range(lo, hi)]


def _count_csv_readers(monkeypatch):
    """Record each ``csv.reader`` made from now on."""
    calls, reader = [], csv.reader

    def counting(*args, **kwargs):
        calls.append(args)
        return reader(*args, **kwargs)

    monkeypatch.setattr(csv, "reader", counting)
    return calls


HEADER = "id,tstart,tstop,death,arm,biomarker"
PAD = " " * 70_000  # two padded cells make a line over csv's field limit
# file text, and whether csv reads part of the data (else only the header)
MIXED_CSV = {
    "plain": (HEADER + "\n" + "\n".join(_plain_rows(0, 9)) + "\n", False),
    "quoted multi-line field after plain chunks": (
        HEADER + "\n" + "\n".join(_plain_rows(0, 7)
                                  + ['"q\n1\n2\n3",0,1,0,0,2']
                                  + _plain_rows(7, 12)) + "\n", True),
    "CRLF file": (HEADER + "\r\n" + "\r\n".join(_plain_rows(0, 7)) + "\r\n",
                  True),
    "ragged row in a plain chunk": (
        HEADER + ",note\n" + "\n".join(
            [r + ",n" for r in _plain_rows(0, 4)] + _plain_rows(4, 5)
            + [r + ",n,extra" for r in _plain_rows(5, 6)]
            + [r + ",n" for r in _plain_rows(6, 9)]) + "\n", True),
    "blank lines": (HEADER + "\n" + "\n".join(
        _plain_rows(0, 4) + [""] + _plain_rows(4, 8)) + "\n\n", True),
    "trailing blank line": (HEADER + "\n" + "\n".join(_plain_rows(0, 5))
                            + "\n\n", True),
    "quoted cells on lines with the header's comma count": (
        HEADER + "\n" + "\n".join(_plain_rows(0, 5) + ['"p9",0,1,0,1,"2.5"']
                                  + _plain_rows(5, 8)) + "\n", True),
    "no final newline": (HEADER + "\n" + "\n".join(_plain_rows(0, 7)), False),
    "over-long line": (HEADER + "\n" + "\n".join(
        _plain_rows(0, 4) + [f"p9,{PAD}0,2,1,1,2.5{PAD}"]
        + _plain_rows(4, 7)) + "\n", True),
}


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 1 << 13])
@pytest.mark.parametrize("case", sorted(MIXED_CSV))
def test_ingest_csv_mixing_plain_chunks_and_csv_matches_reference(
        case, chunk_rows, tmp_path, monkeypatch):
    monkeypatch.setattr(survival, "CSV_CHUNK_ROWS", chunk_rows)
    text, csv_reads_data = MIXED_CSV[case]
    p = tmp_path / "d.csv"
    p.write_bytes(text.encode())
    readers = _count_csv_readers(monkeypatch)
    got = ingest_csv(p, COLUMNS)
    assert len(readers) == 1 + csv_reads_data
    want = _reference_ingest(p, COLUMNS)
    assert _same_dataset(got, want)
    for k in ("subject", "start", "stop", "event", "treatment", "covariates"):
        assert getattr(got, k).dtype == getattr(want, k).dtype


PLAIN_BAD_ROWS = {
    "non-numeric cell": "p,0,x,0,0,1",
    "int column holds a float": "p,0,1,1.0,0,5",
    "empty cell": "p,0,1,0,,5",
    "non-finite covariate": "p,0,1,0,0,-inf",
    "overflowing float": "p,0,1e999,0,0,1",
}


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 1 << 13])
@pytest.mark.parametrize("at", [0, 4, 8])
@pytest.mark.parametrize("case", sorted(PLAIN_BAD_ROWS))
def test_ingest_csv_plain_chunk_errors_match_reference(case, at, chunk_rows,
                                                       tmp_path, monkeypatch):
    monkeypatch.setattr(survival, "CSV_CHUNK_ROWS", chunk_rows)
    rows = _plain_rows(0, 9)
    rows[at] = PLAIN_BAD_ROWS[case]
    p = tmp_path / "d.csv"
    p.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    readers = _count_csv_readers(monkeypatch)
    with pytest.raises(DataError) as got:
        ingest_csv(p, COLUMNS)
    assert len(readers) == 1  # the error comes from a plain chunk
    with pytest.raises(DataError) as want:
        _reference_ingest(p, COLUMNS)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"row {at + 1}: ")


@pytest.mark.parametrize("chunk_rows", [1, 3, 1 << 13])
@pytest.mark.parametrize("text, message", [
    (b"id,tstart,tstop,death,arm,biomarker\np0,0,1,0,1,2\ns\xff1,0,1,1,0,3\n",
     "line 3: text that does not decode"),
    (b"id,tstart,tstop,death,arm,biomarker\np0,0,1,0,1,2\np1,0,1,1,0,3"
     b"\xe2\x82", "line 3: text that does not decode"),
    (("id,tstart,tstop,death,arm,biomarker\np0,0,1,0,1,2\np1,0,1,1,0,"
      + "1" * (1 << 17) + "1\n").encode(),
     "line 3: field larger than field limit (131072)"),
    (("id,tstart,tstop,death,arm,biomarker\np0,0,1,0,1,2\n"
      + '"p1' + "x" * (1 << 17) + '",0,1,1,0,1\n').encode(),
     "line 3: field larger than field limit (131072)"),
    (("id,tstart,tstop,death,arm,biomarker" + "1" * (1 << 17)
      + "\np0,0,1,0,1,2\n").encode(),
     "line 1: field larger than field limit (131072)"),
], ids=["undecodable byte", "truncated character", "long cell",
        "long quoted cell", "long header"])
def test_ingest_csv_reports_unreadable_text_with_its_line(
        text, message, chunk_rows, tmp_path, monkeypatch):
    # the decoding cases assume a UTF-8 default encoding
    monkeypatch.setattr(survival, "CSV_CHUNK_ROWS", chunk_rows)
    p = tmp_path / "d.csv"
    p.write_bytes(text)
    with pytest.raises(DataError) as err:
        ingest_csv(p, COLUMNS)
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("chunk_rows", [1, 3, 1 << 13])
def test_ingest_csv_gives_csv_verdict_on_nul(chunk_rows, tmp_path,
                                             monkeypatch):
    # csv rejects a NUL before Python 3.11 and reads it as a character from
    # then on; a chunk holding one is not split by ingest_csv itself
    monkeypatch.setattr(survival, "CSV_CHUNK_ROWS", chunk_rows)
    rows = _plain_rows(0, 5)
    rows[2] = "p,0,1\0,0,0,2"
    p = tmp_path / "d.csv"
    p.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    with pytest.raises(DataError) as got:
        ingest_csv(p, COLUMNS)
    try:
        _reference_ingest(p, COLUMNS)
    except csv.Error as exc:
        assert str(got.value) == f"line 4: {exc}"
    except DataError as exc:
        assert str(got.value) == str(exc)


def test_ingest_csv_one_column_file_skips_blank_lines(tmp_path):
    # with one column a blank line has the header's (zero) commas, but csv
    # skips it: such a file is never split by ingest_csv itself
    p = tmp_path / "d.csv"
    p.write_text("x\n1\n\n2\n")
    columns = dict.fromkeys(("id", "start", "stop", "event", "treatment"), "x")
    with pytest.raises(DataError) as want:
        _reference_ingest(p, columns)
    with pytest.raises(DataError) as got:
        ingest_csv(p, columns)
    assert str(got.value) == str(want.value)


def test_simulation_config_without_psi_breakpoints_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="psi breakpoints"):
        SimulationConfig(n_subjects=10, rho=0.1, gamma=0.2,
                         psi_times=(), psi_values=())


# -- the separation diagnosis, and where the effect curves stop ------------------


SEPARATED_CSV = ("id,start,stop,event,treatment,m\n"
                 "a,0,1,1,1,0.5\nb,0,2,0,1,0.1\n"
                 "c,0,1.5,1,0,0.2\nd,0,2,0,0,0.3\n")


def test_cox_fit_flags_both_separated_fits_and_neither_healthy_one(tmp_path):
    path = tmp_path / "separated.csv"
    path.write_text(SEPARATED_CSV)
    columns = {"id": "id", "start": "start", "stop": "stop", "event": "event",
               "treatment": "treatment", "covariates": ["m"]}
    replicate = resample_subjects(_sim_ds(seed=1, n=20),
                                  np.random.default_rng([1, 54]))
    separated = [ingest_csv(path, columns).group(0), replicate.group(0)]
    config = SimulationConfig(
        n_subjects=5000, rho=0.3, gamma=0.5, psi_values=(0.2,),
        visit_times=(1.0, 2.0), horizon=3.0, mediator_sd=0.5)
    healthy = [simulate_dataset(config, seed=4).group(0), _sim_ds().group(0)]
    fits = [fit_cox_td(ds) for ds in separated + healthy]
    # each fit still returns with the gradient under tolerance
    assert all(fit.grad_norm <= survival.GRAD_TOL for fit in fits)
    assert [fit.converged for fit in fits] == [False, False, True, True]
    assert fits[0].coef[0] < -100 and fits[1].coef[0] > 700


def test_cox_separation_rule_reads_the_information_at_zero(monkeypatch):
    ds = _sim_ds(seed=2, n=500).group(0)
    fit = fit_cox_td(ds)
    info0 = survival._cox_stats(survival._risk_sets(ds), np.zeros(1))[2]
    ratio = fit.information[0, 0] / info0[0, 0]
    monkeypatch.setattr(survival, "SEPARATION_INFO_RATIO", 0.999 * ratio)
    assert fit_cox_td(ds).converged
    monkeypatch.setattr(survival, "SEPARATION_INFO_RATIO", 1.001 * ratio)
    assert not fit_cox_td(ds).converged


def _one_interval(stops, events, arm):
    n = len(stops)
    return SurvivalDataset.build([f"s{i}" for i in range(n)], [0.0] * n,
                                 stops, events, [arm] * n, np.zeros((n, 1)),
                                 ("m",))


def test_effect_curves_stop_where_the_reference_survival_reaches_zero():
    # arm 0's last subject dies at 2, before arm 1's last event at 3
    km_0 = kaplan_meier(_one_interval([1.0, 2.0], [1, 1], 0))
    km_1 = kaplan_meier(_one_interval([1.5, 3.0, 4.0], [1, 1, 0], 1))
    rho = StepFunction(np.array([0.5, 2.5]), np.array([0.1, 0.2]))
    assert km_0(2.0) == 0.0 and km_1(3.0) > 0.0
    curves = effect_curves(rho, km_1, km_0)
    assert np.all(curves.times < 2.0)
    np.testing.assert_array_equal(curves.times, [0.5, 1.0, 1.5])
    np.testing.assert_array_equal(curves.total,
                                  km_1(curves.times) / km_0(curves.times))


def test_effect_curves_with_reference_survival_zero_from_the_start():
    # KM_0's only jump, to 0, comes no later than any jump of R or KM_1
    km_0 = kaplan_meier(_one_interval([0.5], [1], 0))
    km_1 = kaplan_meier(_one_interval([1.0, 2.0], [1, 0], 1))
    rho = StepFunction(np.array([0.5, 1.5]), np.array([0.1, 0.2]))
    with pytest.raises(EstimationError, match="zero from the start"):
        effect_curves(rho, km_1, km_0)


# -- counts and seeds that are not non-negative integers ---------------------------------


def _constant(_):
    return lambda t: np.full_like(t, 0.5)


@pytest.mark.parametrize("n_boot", [2.5, True, "3", 1])
def test_bootstrap_replicate_count_must_be_an_integer(n_boot):
    ds = _sim_ds(seed=14, n=20)
    with pytest.raises(ConfigurationError, match="bootstrap replicates must"):
        bootstrap(ds, _constant, n_boot, 0, grid=np.array([1.0]))


@pytest.mark.parametrize("seed", [1.5, -1, True, "0"])
def test_bootstrap_seed_must_be_a_non_negative_integer(seed):
    ds = _sim_ds(seed=14, n=20)
    with pytest.raises(ConfigurationError, match="bootstrap seed must"):
        bootstrap(ds, _constant, 4, seed, grid=np.array([1.0]))


@pytest.mark.parametrize("n", [2.5, True, -1, "3"])
def test_simulation_subject_count_must_be_an_integer(n):
    with pytest.raises(ConfigurationError, match="n_subjects must"):
        simulate_dataset(SimulationConfig(n_subjects=n, rho=0.3, gamma=0.5), 0)


def test_two_part_summary_split_must_be_finite():
    ds = _sim_ds(seed=14, n=20)
    for split in (float("nan"), float("inf"), None):
        with pytest.raises(ConfigurationError, match="finite split time"):
            mediator_summary(ds, "m", "two_part", split=split)
