import math
from dataclasses import replace

import numpy as np
import pytest

from medgraph.errors import ConfigurationError, DataError, EstimationError
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
