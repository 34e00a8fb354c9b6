import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medgraph import hawkes as hk
from medgraph.errors import (ConfigurationError, DataError, EstimationError,
                             IdentificationError, SizeError)
from medgraph.hawkes import (CovMatrix, EventStream, HawkesModel,
                             decompose_effects, default_max_lag,
                             expected_cluster_matrix, fig7_model, identify,
                             integrated_cov_empirical, integrated_cov_exact,
                             mean_intensities, model_from_dict, model_to_dict,
                             normalize_branching, random_fig7_model, simulate,
                             simulate_clusters, spectral_radius_power,
                             validate)


def _two_proc(g01=0.4, g10=0.3, mu=(0.5, 0.5), beta=1.0):
    g = np.array([[0.0, g01], [g10, 0.0]])
    return HawkesModel(np.asarray(mu, dtype=float), g,
                       np.full((2, 2), beta))


# -- validation and spectral radius -------------------------------------------


def test_spectral_radius_closed_form():
    g = np.array([[0.0, 0.6], [2.4, 0.0]])
    # eigenvalues are +-sqrt(0.6 * 2.4) = +-1.2
    assert spectral_radius_power(g) == pytest.approx(1.2, abs=1e-8)


def test_spectral_radius_nilpotent():
    g = np.array([[0.0, 0.0], [0.7, 0.0]])
    assert spectral_radius_power(g) == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_spectral_radius_matches_eigvals_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    g = rng.uniform(0.0, 0.5, size=(n, n))
    truth = float(np.max(np.abs(np.linalg.eigvals(g))))
    assert spectral_radius_power(g) == pytest.approx(truth, abs=1e-7)


def test_validate_rejects_supercritical():
    model = HawkesModel(np.array([1.0, 1.0]),
                        np.array([[0.0, 0.9], [1.2, 0.0]]),
                        np.ones((2, 2)))
    with pytest.raises(ConfigurationError) as err:
        validate(model)
    assert "spectral radius" in str(err.value)


def test_validate_lists_all_problems():
    model = HawkesModel(np.array([-1.0]), np.array([[0.5]]),
                        np.array([[0.0]]))
    with pytest.raises(ConfigurationError) as err:
        validate(model)
    msg = str(err.value)
    assert "negative" in msg and "diagonal" in msg and "decay" in msg


def test_normalize_branching_folds_self_excitation():
    g = np.array([[0.5, 0.2], [0.3, 0.0]])
    out = normalize_branching(g)
    assert out[1, 0] == pytest.approx(0.3 / 0.5)
    assert out[0, 1] == pytest.approx(0.2)
    assert np.all(np.diag(out) == 0)
    with pytest.raises(ConfigurationError):
        normalize_branching(np.array([[1.0]]))


# -- cluster expectations -------------------------------------------------------


def test_cluster_matrix_identity_when_no_branching():
    model = HawkesModel(np.array([1.0, 2.0]), np.zeros((2, 2)), np.ones((2, 2)))
    assert np.allclose(expected_cluster_matrix(model), np.eye(2))
    assert np.allclose(mean_intensities(model), [1.0, 2.0])


def test_cluster_matrix_mediation_arithmetic():
    # A -> M -> D chain with a direct A -> D edge
    model = fig7_model(g_ma=0.5, g_da=0.1, g_dm=0.6, g_ml=0.0, g_dl=0.0,
                       g_lu=0.0, g_du=0.0, mu=np.full(5, 0.5))
    r = expected_cluster_matrix(model)
    d, a = model.index("D"), model.index("A")
    assert r[d, a] == pytest.approx(0.1 + 0.6 * 0.5)
    eff = decompose_effects(model)
    assert eff == {"direct": pytest.approx(0.1),
                   "mediated": pytest.approx(0.3),
                   "total": pytest.approx(0.4)}


def test_cluster_matrix_inverse_identity():
    model = random_fig7_model(seed=3)
    r = expected_cluster_matrix(model)
    n = model.dimension
    assert np.allclose(r @ (np.eye(n) - model.branching), np.eye(n),
                       atol=1e-12)


def _neumann_cluster_matrix(g):
    """Reference route for (I - G)^{-1}: the Neumann series sum_k G^k, cut
    when a term falls below 1e-13 (1 - radius); the tail is below
    ||G^k|| / (1 - radius)."""
    radius = float(np.max(np.abs(np.linalg.eigvals(g))))
    term = np.eye(len(g))
    total = np.eye(len(g))
    for _ in range(100_000):
        term = term @ g
        total += term
        if float(np.max(np.abs(term))) <= 1e-13 * (1.0 - radius):
            return total
    raise AssertionError("Neumann series did not converge")


@pytest.mark.parametrize("model", [
    _two_proc(),
    fig7_model(g_ma=0.5, g_da=0.1, g_dm=0.6, g_ml=0.0, g_dl=0.0, g_lu=0.0,
               g_du=0.0, mu=np.full(5, 0.5)),
    *[random_fig7_model(seed=s) for s in range(10)],
])
def test_cluster_matrix_matches_neumann_series(model):
    assert validate(model).spectral_radius <= 0.8
    r = expected_cluster_matrix(model)
    assert np.max(np.abs(r - _neumann_cluster_matrix(model.branching))) \
        <= 1e-10


def test_cluster_matrix_near_critical_two_cycle():
    # spectral radius 0.9999: the Neumann series would need ~3e5 terms
    g = 0.9999
    model = _two_proc(g01=g, g10=g)
    closed = np.array([[1.0, g], [g, 1.0]]) / (1.0 - g * g)
    assert np.allclose(expected_cluster_matrix(model), closed,
                       rtol=1e-10, atol=0.0)
    assert np.allclose(mean_intensities(model), closed @ model.mu,
                       rtol=1e-10, atol=0.0)


def test_decompose_requires_distinct_roles():
    model = random_fig7_model(seed=1)
    with pytest.raises(ConfigurationError):
        decompose_effects(model, source="A", mediator="A")


# -- simulation ------------------------------------------------------------------


def test_cluster_simulation_matches_expected_counts():
    model = _two_proc()
    r = expected_cluster_matrix(model)
    counts = simulate_clusters(model, root_type=0, n_clusters=20_000,
                               horizon=200.0, seed=5)
    means = counts.mean(axis=0)
    ses = counts.std(axis=0) / np.sqrt(len(counts))
    for i in range(2):
        assert abs(means[i] - r[i, 0]) < 4 * max(ses[i], 1e-3)


def test_simulation_poisson_case_count():
    model = HawkesModel(np.array([2.0]), np.zeros((1, 1)), np.ones((1, 1)))
    stream = simulate(model, t_end=5000.0, seed=7)
    total = len(stream)
    # Poisson(10000): 4 sigma window
    assert abs(total - 10_000) < 4 * np.sqrt(10_000)
    assert stream.times.min() >= 0 and stream.times.max() <= 5000.0


def test_simulation_zero_rate_is_empty():
    model = HawkesModel(np.zeros(2), np.zeros((2, 2)), np.ones((2, 2)))
    assert len(simulate(model, t_end=10.0, seed=0)) == 0


def test_simulation_event_budget():
    model = HawkesModel(np.array([100.0]), np.zeros((1, 1)), np.ones((1, 1)))
    with pytest.raises(SizeError):
        simulate(model, t_end=1e6, seed=0)


def test_simulation_rejects_invalid_model():
    model = HawkesModel(np.array([1.0, 1.0]),
                        np.array([[0.0, 0.9], [1.2, 0.0]]), np.ones((2, 2)))
    with pytest.raises(ConfigurationError):
        simulate(model, t_end=10.0, seed=0)


def test_normalized_branching_preserves_cluster_totals():
    # a model with self-excitation and its normalized counterpart produce
    # the same expected number of cross-process events per root
    g = np.array([[0.4, 0.3], [0.2, 0.0]])
    model = HawkesModel(np.array([0.5, 0.5]), g, np.ones((2, 2)))
    counts = simulate_clusters(
        HawkesModel(model.mu, normalize_branching(g), model.decay),
        root_type=1, n_clusters=30_000, horizon=300.0, seed=9)
    # expected type-0 events per type-1 root: R[0, 1] of the original model
    r = np.linalg.inv(np.eye(2) - g)
    mean0 = counts[:, 0].mean()
    # the normalized model drops the root's own self-chain, so compare the
    # cross entry computed from the normalized matrix instead
    rn = np.linalg.inv(np.eye(2) - normalize_branching(g))
    assert abs(mean0 - rn[0, 1]) < 4 * counts[:, 0].std() / np.sqrt(30_000)
    assert rn[0, 1] == pytest.approx(r[0, 1] * (1 - g[0, 0]) / 1.0, rel=0.2)


# -- integrated covariance ---------------------------------------------------------


def test_exact_cov_poisson_is_diagonal_of_rates():
    model = HawkesModel(np.array([0.7, 1.3]), np.zeros((2, 2)), np.ones((2, 2)))
    cov = integrated_cov_exact(model)
    assert np.allclose(cov.matrix, np.diag([0.7, 1.3]))


def test_exact_cov_symmetric_and_structured():
    model = random_fig7_model(seed=11)
    cov = integrated_cov_exact(model)
    assert cov.names == ("A", "M", "D", "L")
    assert np.allclose(cov.matrix, cov.matrix.T)
    # exposure and proxy are uncorrelated under this topology
    assert abs(cov.entry("A", "L")) < 1e-12


def test_cov_matrix_validation():
    with pytest.raises(DataError):
        CovMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(DataError):
        CovMatrix(np.array([[0.0, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cov_matrix_rejects_non_finite_entries(bad):
    m = np.eye(2)
    m[0, 1] = m[1, 0] = bad
    with pytest.raises(DataError):
        CovMatrix(m)
    with pytest.raises(DataError):
        CovMatrix(np.diag([1.0, bad]))


def test_empirical_cov_poisson_diagonal():
    model = HawkesModel(np.array([0.8, 1.5]), np.zeros((2, 2)), np.ones((2, 2)))
    stream = simulate(model, t_end=20_000.0, seed=13)
    cov = integrated_cov_empirical(stream, bin_width=0.5, max_lag=20)
    assert cov.matrix[0, 0] == pytest.approx(0.8, rel=0.1)
    assert cov.matrix[1, 1] == pytest.approx(1.5, rel=0.1)
    assert abs(cov.matrix[0, 1]) < 0.05


def test_empirical_cov_needs_enough_bins():
    model = HawkesModel(np.array([1.0]), np.zeros((1, 1)), np.ones((1, 1)))
    stream = simulate(model, t_end=10.0, seed=0)
    with pytest.raises(DataError):
        integrated_cov_empirical(stream, bin_width=0.5)


def _integrated_cov_reference(stream, bin_width, max_lag):
    """The per-lag loop over centred counts that the blocked lag sums
    replaced."""
    n_bins = int(stream.horizon / bin_width)
    n = stream.n_processes
    counts = np.zeros((n_bins, n))
    idx = np.minimum((stream.times / bin_width).astype(int), n_bins - 1)
    np.add.at(counts, (idx, stream.procs), 1.0)
    x = counts - counts.mean(axis=0)
    c = x.T @ x / n_bins
    for lag in range(1, max_lag + 1):
        cl = x[:-lag].T @ x[lag:] / (n_bins - lag)
        c += cl + cl.T
    c /= bin_width
    return 0.5 * (c + c.T)


def _assert_matches_reference(stream, bin_width, max_lag):
    got = integrated_cov_empirical(stream, bin_width, max_lag).matrix
    want = _integrated_cov_reference(stream, bin_width, max_lag)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("block", [7, 1024])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_empirical_cov_matches_per_lag_loop(seed, block, monkeypatch):
    monkeypatch.setattr(hk, "LAG_BLOCK", block)
    stream = simulate(random_fig7_model(seed=seed), t_end=2_000.0, seed=seed)
    # 10 000 bins at width 0.2 and 1 333 at 1.5: neither is a multiple of 7
    # or of 1024.
    for bin_width, max_lag in [(0.2, 0), (0.2, 18), (0.2, 60), (1.5, 25)]:
        _assert_matches_reference(stream, bin_width, max_lag)


@pytest.mark.parametrize("block", [7, 1024])
def test_empirical_cov_matches_per_lag_loop_at_the_edges(block, monkeypatch):
    monkeypatch.setattr(hk, "LAG_BLOCK", block)
    one = simulate(HawkesModel(np.array([0.7]), np.zeros((1, 1)),
                               np.ones((1, 1))), t_end=150.0, seed=3)
    _assert_matches_reference(one, 1.0, 0)
    _assert_matches_reference(one, 1.0, 149)      # max_lag = n_bins - 1
    # A process with no events has a zero variance in both routes, which
    # CovMatrix refuses.
    silent = simulate(HawkesModel(np.array([0.9, 0.0, 0.5]),
                                  np.array([[0.0, 0.0, 0.3],
                                            [0.0, 0.0, 0.0],
                                            [0.2, 0.0, 0.0]]),
                                  np.ones((3, 3))), t_end=300.0, seed=4)
    assert not np.any(silent.procs == 1)
    want = _integrated_cov_reference(silent, 0.5, 599)
    assert np.all(want[1] == 0) and np.all(want[:, 1] == 0)
    with pytest.raises(DataError):
        integrated_cov_empirical(silent, 0.5, 599)


@pytest.mark.parametrize("block", [7, 1024])
@pytest.mark.parametrize("n_bins, max_lag", [
    (1, 0), (100, 0), (100, 1), (100, 99), (1031, 40), (3000, 1030)])
def test_lag_sums_equal_direct_products_exactly(n_bins, max_lag, block,
                                                monkeypatch):
    monkeypatch.setattr(hk, "LAG_BLOCK", block)
    counts = np.random.default_rng(n_bins + max_lag).poisson(
        3.0, size=(n_bins, 4)).astype(float)
    counts[:, 2] = 0.0                            # a process with no events
    want = np.stack([counts[:n_bins - lag].T @ counts[lag:]
                     for lag in range(max_lag + 1)])
    assert np.array_equal(hk._lag_sums(counts, max_lag), want)


def test_empirical_cov_rejects_a_lag_window_longer_than_the_data():
    stream = simulate(random_fig7_model(seed=5), t_end=40.0, seed=5)
    with pytest.raises(DataError):
        integrated_cov_empirical(stream, bin_width=0.2, max_lag=200)
    with pytest.raises(DataError):
        integrated_cov_empirical(stream, bin_width=0.2, max_lag=10_000)
    with pytest.raises(ConfigurationError):
        integrated_cov_empirical(stream, bin_width=0.2, max_lag=-1)


def test_empirical_cov_refuses_lag_sums_over_budget(monkeypatch):
    stream = simulate(random_fig7_model(seed=5), t_end=40.0, seed=5)
    # 200 bins of 5 processes; 8 lags fit the budget exactly, 9 do not
    monkeypatch.setattr(hk, "LAG_SUM_BUDGET", 200 * 8 * 5 * 5)
    integrated_cov_empirical(stream, bin_width=0.2, max_lag=7)
    with pytest.raises(SizeError, match="lag-sum budget"):
        integrated_cov_empirical(stream, bin_width=0.2, max_lag=8)


@pytest.mark.parametrize("bin_width", [np.nan, 0.0, -1.0, np.inf])
def test_bin_width_must_be_positive_and_finite(bin_width):
    model = random_fig7_model(seed=5)
    stream = simulate(model, t_end=40.0, seed=5)
    with pytest.raises(ConfigurationError):
        default_max_lag(model, bin_width)
    with pytest.raises(ConfigurationError):
        integrated_cov_empirical(stream, bin_width=bin_width, max_lag=3)


@pytest.mark.parametrize("proc", [-1, 2])
def test_event_stream_rejects_process_indices_outside_the_model(proc):
    # The binning keys each event by bin * n_processes + process, so an
    # index outside 0..n-1 would land in a neighbouring bin.
    with pytest.raises(DataError):
        EventStream(np.array([0.5, 1.0]), np.array([0, proc]), 10.0, 2)


def test_default_max_lag_scales_with_decay():
    model = random_fig7_model(seed=17)
    lag = default_max_lag(model, bin_width=0.2)
    beta_min = float(model.decay[model.branching > 0].min())
    assert lag == int(np.ceil(-np.log(1e-3) / (beta_min * 0.2)))


# -- identification -----------------------------------------------------------------


def test_identify_round_trip_exact():
    for seed in range(5):
        model = random_fig7_model(seed=seed)
        res = identify(integrated_cov_exact(model))
        g = model.branching
        a, m, d = model.index("A"), model.index("M"), model.index("D")
        assert res.g_ma == pytest.approx(g[m, a], abs=1e-10)
        assert res.g_da == pytest.approx(g[d, a], abs=1e-10)
        assert res.g_dm == pytest.approx(g[d, m], abs=1e-10)
        assert res.direct == pytest.approx(g[d, a], abs=1e-10)
        assert res.mediated == pytest.approx(g[d, m] * g[m, a], abs=1e-10)


def test_identify_rejects_nonzero_exposure_proxy_covariance():
    cov = integrated_cov_exact(random_fig7_model(seed=23))
    broken = cov.matrix.copy()
    broken[0, 3] = broken[3, 0] = 0.2
    with pytest.raises(IdentificationError) as err:
        identify(CovMatrix(broken, cov.names))
    assert "C_AL" in str(err.value) or "proxy" in str(err.value)


def test_identify_rejects_bad_shape():
    with pytest.raises(DataError):
        identify(CovMatrix(np.eye(3)))


def test_identify_rejects_nonpositive_mediator_innovation():
    cov = integrated_cov_exact(random_fig7_model(seed=29))
    broken = cov.matrix.copy()
    broken[1, 1] = 1e-6    # mediator variance too small to be consistent
    with pytest.raises(IdentificationError):
        identify(CovMatrix(broken, cov.names))


def test_identify_from_long_simulation():
    model = random_fig7_model(seed=31)
    stream = simulate(model, t_end=50_000.0, seed=31)
    obs = list(model.observed)
    keep = np.isin(stream.procs, obs)
    remap = {p: k for k, p in enumerate(obs)}
    from medgraph.hawkes import EventStream
    sub = EventStream(stream.times[keep],
                      np.array([remap[p] for p in stream.procs[keep]]),
                      stream.horizon, len(obs))
    cov = integrated_cov_empirical(sub, bin_width=0.2,
                                   max_lag=default_max_lag(model, 0.2))
    res = identify(CovMatrix(cov.matrix, ("A", "M", "D", "L")),
                   structure_rtol=0.5)
    g = model.branching
    a, m, d = model.index("A"), model.index("M"), model.index("D")
    assert res.g_ma == pytest.approx(g[m, a], abs=0.08)
    assert res.g_dm == pytest.approx(g[d, m], abs=0.12)
    assert res.g_da == pytest.approx(g[d, a], abs=0.12)


# -- topology structure check ----------------------------------------------------------


def test_structure_check_catches_wrong_observables():
    # give the fig7 structure check a model whose latent also feeds M, which
    # the asserted sparsity cannot absorb
    model = random_fig7_model(seed=37)
    g = model.branching.copy()
    g[1, 4] = 0.3   # U -> M
    broken = HawkesModel(model.mu, g, model.decay, names=model.names,
                         observed=model.observed, topology="fig7")
    with pytest.raises(IdentificationError):
        integrated_cov_exact(broken)


# -- serialization -----------------------------------------------------------------------


def test_model_round_trip():
    model = random_fig7_model(seed=41)
    back = model_from_dict(model_to_dict(model))
    assert np.allclose(back.mu, model.mu)
    assert np.allclose(back.branching, model.branching)
    assert back.names == model.names
    assert back.topology == "fig7"


def test_model_from_dict_missing_field():
    with pytest.raises(ConfigurationError):
        model_from_dict({"mu": [1.0]})


# -- boundary checks ------------------------------------------------------------------


@pytest.mark.parametrize("field", ["mu", "branching", "decay"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_model_rejects_non_finite_parameters(field, bad):
    parts = {"mu": np.array([0.5, 0.5]),
             "branching": np.array([[0.0, 0.4], [0.3, 0.0]]),
             "decay": np.ones((2, 2))}
    parts[field].flat[1] = bad
    with pytest.raises(ConfigurationError, match="finite"):
        HawkesModel(parts["mu"], parts["branching"], parts["decay"])


@pytest.mark.parametrize("t_end", [np.nan, np.inf, 0.0, -1.0])
def test_simulation_rejects_bad_horizon(t_end):
    with pytest.raises(ConfigurationError):
        simulate(_two_proc(), t_end=t_end, seed=0)


@pytest.mark.parametrize("n_clusters, horizon, root", [
    (-1, 10.0, 0), (5, np.nan, 0), (5, np.inf, 0), (5, 0.0, 0),
    (5, -2.0, 0), (5, 10.0, 2), (5, 10.0, -1)])
def test_cluster_simulation_rejects_bad_arguments(n_clusters, horizon, root):
    with pytest.raises(ConfigurationError):
        simulate_clusters(_two_proc(), root, n_clusters, horizon, seed=0)


def test_cluster_simulation_budget_is_checked_before_drawing():
    # 10^15 clusters would need petabytes if anything were allocated
    with pytest.raises(SizeError):
        simulate_clusters(_two_proc(), 0, 10**15, 10.0, seed=0)


def test_cluster_simulation_with_no_clusters():
    assert simulate_clusters(_two_proc(), 0, 0, 10.0, seed=0).shape == (0, 2)


# -- sampler checks that do not reuse the sampler's formulas ----------------------------


def _cycle_model():
    g = np.array([[0.0, 0.3, 0.2], [0.4, 0.0, 0.1], [0.2, 0.3, 0.0]])
    beta = np.array([[1.0, 2.0, 1.5], [0.8, 1.0, 3.0], [1.2, 2.5, 1.0]])
    return HawkesModel(np.array([0.3, 0.2, 0.4]), g, beta)


def test_cluster_count_covariance_matches_offspring_recursion():
    # Each j-event has Poisson(G_ij) direct i-children, each the root of an
    # independent i-cluster.  So the mean count vectors satisfy
    # r_j = e_j + sum_i G_ij r_i, and by the compound-Poisson variance the
    # count covariances satisfy S_j = sum_i G_ij (S_i + r_i r_i^T).
    model = _cycle_model()
    g, n = model.branching, model.dimension
    r = np.eye(n)
    for _ in range(500):
        r = np.eye(n) + r @ g                  # column j is r_j
    s = np.zeros((n, n, n))                    # s[j] is S_j
    for _ in range(500):
        s = np.einsum("ij,iab->jab", g, s + np.einsum("ai,bi->iab", r, r))
    counts = simulate_clusters(model, 0, 50_000, 400.0, seed=11)
    emp = np.cov(counts, rowvar=False)
    assert np.allclose(counts.mean(axis=0), r[:, 0], rtol=0.03)
    assert np.all(np.abs(np.diag(emp) - np.diag(s[0])) <= 0.10 * np.diag(s[0]))


def test_mediator_delay_after_its_root_is_exponential():
    # A -> M only: every M event is a first-generation child of an A root,
    # delayed by the kernel's Exp(beta_MA) law.  Roots more than 40 time
    # units before the horizon see an untruncated kernel (mass left e^{-60}).
    # The unused decay entries differ, so a transposed lookup shows.
    beta, t_end = 1.5, 20_000.0
    g = np.array([[0.0, 0.0], [0.8, 0.0]])
    model = HawkesModel(np.array([1.0, 0.0]), g,
                        np.array([[1.0, 0.4], [beta, 1.0]]))
    stream = simulate(model, t_end, seed=3)
    root_time = np.full(stream.roots.max() + 1, np.nan)
    first = stream.generations == 0
    root_time[stream.roots[first]] = stream.times[first]
    is_m = stream.procs == 1
    start = root_time[stream.roots[is_m]]
    x = np.sort((stream.times[is_m] - start)[start < t_end - 40.0])
    n = len(x)
    assert n > 10_000
    cdf = -np.expm1(-beta * x)
    ks = max(np.max(np.arange(1, n + 1) / n - cdf),
             np.max(cdf - np.arange(n) / n))
    assert ks <= 1.63 / np.sqrt(n)


def test_every_root_starts_its_own_cluster():
    model = _cycle_model()
    stream = simulate(model, 2_000.0, seed=4)
    first = stream.generations == 0
    n_roots = int(stream.roots.max()) + 1
    assert np.array_equal(np.bincount(stream.roots[first], minlength=n_roots),
                          np.ones(n_roots, dtype=int))
    root_time = np.empty(n_roots)
    root_proc = np.empty(n_roots, dtype=int)
    root_time[stream.roots[first]] = stream.times[first]
    root_proc[stream.roots[first]] = stream.procs[first]
    assert np.all(stream.times >= root_time[stream.roots])
    # root ids number the immigrants by process, then by time
    assert np.all(np.diff(root_proc) >= 0)
    for p in range(model.dimension):
        assert np.all(np.diff(root_time[root_proc == p]) > 0)


# -- bitwise pins of the random stream and the covariance ------------------------------


def _fig7_pinned():
    return fig7_model(0.4, 0.3, 0.4, 0.3, 0.3, 0.35, 0.3,
                      mu=(0.6, 0.5, 0.5, 0.4, 0.5), beta=2.0)


def _sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


# sha256 of the bytes of times, procs, roots and generations of
# simulate(_fig7_pinned(), 2000.0, seed), recorded before the simulator
# sorted the immigrants per process in place
STREAM_SHA256 = {
    0: (7870,
        "59b6a16ed82e552473f0b15c1e65e04e152be9a5a9ceab8821ad28f71934bf32",
        "f67c5aadfa2d7398e360054d05b6ba103a179c11fa51aef3812b06fcb4a925b8",
        "f60c9d13e8ca45d9654cbde021311f9d4817789b4700005c6ef69c2b97c76069",
        "816ecad3c31ea71265f9ce3b9e4ab876578b3cd6350d44aea5aa24942744c4aa"),
    1: (7987,
        "3b42679f21a4cbbe17fbd090aa542c353205017502dde7700e662518afe74e64",
        "411ec578622d2f1ba1b5b2908207a11f23a6a682e7235d9e2501e569ead75f0f",
        "1b92dd5246e69dc0e4cbe477771ca4e4d46dddfc7b3c540014a0d7b68248c15b",
        "cfd59f5fa57fbe4139e8b66a17864d71a96ebc176df321f4db6c5eba1987336d"),
    2: (7833,
        "a72d7a7ba44c09868f1fa72123fff28b747b312d59c87f35ec958fcb96ce975b",
        "8c1ecc71aaf67f11fd3f06cf0150ea0a81a11f0ffd0301f7e2995f229e352793",
        "0b247e6ef5681ef4e671ac16b41567b8df2aeec06130cd8abaf923309a0c8d3c",
        "da367171046dab6e1683a0820f0238968af0a98003eb9176de83eafe2f63b93c"),
}

# sha256 of simulate_clusters(_fig7_pinned(), "A", 3000, 400.0, [seed, 1]),
# recorded at the same point
CLUSTER_SHA256 = {
    0: (5614, "17c8c500a6c02ca6cca210703f274b3cb78b61a523232ebd3d05c24344cefdc3"),
    1: (5552, "3084a8e9ca659ba24a113f81a4da2bbfbe8be656404e38239133ceadc1406486"),
    2: (5537, "92377807bb0e57989c121fa312879881f967762ce5b74f58a0e4488880880f03"),
}


@pytest.mark.parametrize("seed", sorted(STREAM_SHA256))
def test_simulated_stream_is_pinned_bitwise(seed):
    stream = simulate(_fig7_pinned(), 2000.0, seed)
    fields = ("times", "procs", "roots", "generations")
    assert [getattr(stream, f).dtype for f in fields] == [
        np.dtype(np.float64), *[np.dtype(np.intp)] * 3]
    assert (len(stream), *(_sha256(getattr(stream, f)) for f in fields)) \
        == STREAM_SHA256[seed]


@pytest.mark.parametrize("seed", sorted(CLUSTER_SHA256))
def test_cluster_counts_are_pinned_bitwise(seed):
    counts = simulate_clusters(_fig7_pinned(), "A", 3000, 400.0, [seed, 1])
    assert counts.shape == (3000, 5) and counts.dtype == np.intp
    assert (int(counts.sum()), _sha256(counts)) == CLUSTER_SHA256[seed]


def _dense_integrated_cov(stream, bin_width, max_lag):
    """The whole count matrix, its lag sums, then the closed-form centring
    of every lag: the route binning a block at a time must reproduce
    bitwise."""
    n_bins = int(stream.horizon / bin_width)
    n = stream.n_processes
    idx = np.minimum((stream.times / bin_width).astype(int), n_bins - 1)
    counts = np.bincount(idx * n + stream.procs,
                         minlength=n_bins * n).reshape(n_bins, n).astype(float)
    s = hk._lag_sums(counts, max_lag)
    total = counts.sum(axis=0)
    mu = total / n_bins
    c = np.zeros((n, n))
    for lag in range(max_lag + 1):
        a = counts[:n_bins - lag].sum(axis=0)     # the first N - l bins
        b = counts[lag:].sum(axis=0)              # the last N - l bins
        pairs = n_bins - lag
        cl = (s[lag] - a[:, None] * mu - mu[:, None] * b[None, :]
              + pairs * np.outer(mu, mu)) / pairs
        c = cl.copy() if lag == 0 else c + (cl + cl.T)
    c /= bin_width
    return 0.5 * (c + c.T)


@pytest.mark.parametrize("block", [1, 3, 7, 8192])
def test_empirical_cov_equals_the_dense_count_matrix_bitwise(block,
                                                             monkeypatch):
    monkeypatch.setattr(hk, "LAG_BLOCK", block)
    # Summed over long lags the estimate's diagonal can be negative, which
    # CovMatrix refuses; the matrix handed to it is compared instead.
    monkeypatch.setattr(hk, "CovMatrix", lambda matrix: matrix)
    stream = simulate(_fig7_pinned(), 601.0, 5)
    # 601 bins (a prime, so no block size divides it) at every edge of the
    # lag range; 10 016 bins, more than one block of 8192, at short lags
    cases = [(1.0, 0), (1.0, 1), (1.0, 17), (1.0, 600)]
    if block >= 3:
        cases += [(0.06, 0), (0.06, 1), (0.06, 33)]
    for bin_width, max_lag in cases:
        got = integrated_cov_empirical(stream, bin_width, max_lag)
        assert np.array_equal(
            got, _dense_integrated_cov(stream, bin_width, max_lag))


def test_empirical_cov_never_builds_the_count_matrix():
    stream = simulate(_fig7_pinned(), 50_000.0, 6)
    held = sum(getattr(stream, f).nbytes
               for f in ("times", "procs", "roots", "generations"))
    bin_width = 0.1
    # the float count matrix and its int64 source: 6.3 times the stream
    assert (int(stream.horizon / bin_width) * stream.n_processes * 16
            >= 4 * held)
    tracemalloc.start()
    try:
        integrated_cov_empirical(stream, bin_width, 35)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # binning every bin at once peaked at 6.5 times the stream's bytes;
    # a block at a time it peaks at 0.50 times
    assert peak <= 1.0 * held


def test_simulate_holds_one_copy_of_the_stream():
    tracemalloc.start()
    try:
        stream = simulate(_fig7_pinned(), 50_000.0, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(getattr(stream, f).nbytes
               for f in ("times", "procs", "roots", "generations"))
    # gathering the four arrays while the unsorted ones were alive peaked
    # at 2.53 times the stream's bytes; one array at a time it is 1.53 times
    assert peak <= 2.0 * held


@pytest.mark.parametrize("names, bad", [
    (("a", "a"), "'a' is repeated"),
    (("a\nb", "c"), "'a\\nb'"),
    (("a", "b\r"), "'b\\r'"),
    (("D,x", "y"), "'D,x'"),
    (('say "x"', "y"), "'say \"x\"'"),
    ((1, 2), "1"),
    ((["a"], "b"), "['a']"),
    (("\ud800", "b"), "'\\ud800'"),
])
def test_process_names_must_be_distinct_plain_strings(names, bad):
    with pytest.raises(ConfigurationError, match=re.escape(bad)):
        HawkesModel(np.ones(2), np.zeros((2, 2)), np.ones((2, 2)), names=names)


# -- the fig-7 edge set: the one structure the formula covers -------------------------


def test_fig7_model_puts_each_weight_on_its_edge():
    weights = (1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3, 7e-3)
    model = fig7_model(*weights, mu=np.ones(5))
    expected = np.zeros((5, 5))
    for (cause, effect), w in zip(hk.FIG7_EDGES, weights):
        expected[hk.FIG7_NAMES.index(effect), hk.FIG7_NAMES.index(cause)] = w
    assert np.array_equal(model.branching, expected)
    assert np.count_nonzero(expected) == 7
    hk.check_fig7(model)


def _with_edge(model, cause, effect, topology="fig7"):
    g = model.branching.copy()
    g[model.index(effect), model.index(cause)] = 0.15
    return HawkesModel(model.mu, g, model.decay, names=model.names,
                       observed=model.observed, topology=topology)


@pytest.mark.parametrize("topology", ["fig7", None])
def test_check_fig7_refuses_d_to_m_which_identify_gets_wrong(topology):
    # the exact formula returned g_dm 0.581 against a true 0.40 here
    model = _with_edge(_fig7_pinned(), "D", "M", topology=topology)
    with pytest.raises(IdentificationError, match="D -> M"):
        hk.check_fig7(model)
    with pytest.raises(IdentificationError, match="D -> M"):
        hk.identify_stream(model, simulate(model, 500.0, 1), 0.5)
    if topology == "fig7":
        with pytest.raises(IdentificationError, match="D -> M"):
            integrated_cov_exact(model)
    else:
        integrated_cov_exact(model)   # a covariance of any model


def test_check_fig7_reads_roles_from_the_observed_order():
    # the same edges on processes stored in another order and renamed
    model = _fig7_pinned()
    perm = [4, 2, 0, 3, 1]            # new position k holds old process perm[k]
    g = model.branching[np.ix_(perm, perm)]
    renamed = HawkesModel(model.mu[perm], g, model.decay[np.ix_(perm, perm)],
                          names=("u", "d", "a", "l", "m"),
                          observed=(2, 4, 1, 3))
    hk.check_fig7(renamed)
    res = identify(integrated_cov_exact(renamed))
    assert res.as_dict() == pytest.approx(
        identify(integrated_cov_exact(model)).as_dict(), abs=1e-12)
    with pytest.raises(IdentificationError, match="u -> m"):
        hk.check_fig7(_with_edge(renamed, "u", "m"))


@pytest.mark.parametrize("observed", [(0, 1, 2), (0, 1, 2, 3, 4)])
def test_check_fig7_needs_four_observed_processes(observed):
    model = _fig7_pinned()
    other = HawkesModel(model.mu, model.branching, model.decay,
                        names=model.names, observed=observed)
    with pytest.raises(IdentificationError, match="need 4 observed"):
        hk.check_fig7(other)


def test_check_fig7_leaves_the_diagonal_to_validate():
    model = _with_edge(_fig7_pinned(), "M", "M")
    hk.check_fig7(model)
    with pytest.raises(ConfigurationError, match="diagonal"):
        validate(model)


def test_identify_stream_is_the_inline_empirical_sequence():
    model = random_fig7_model(seed=8)
    stream = simulate(model, 3000.0, 5)
    bin_width = 0.2
    lag = default_max_lag(model, bin_width)
    cov = integrated_cov_empirical(stream, bin_width, lag)
    obs = list(model.observed)
    cov = CovMatrix(cov.matrix[np.ix_(obs, obs)],
                    tuple(model.names[i] for i in obs))
    inline = identify(cov, structure_rtol=0.5)
    assert hk.identify_stream(model, stream, bin_width) == inline


@pytest.mark.parametrize("t_end", [2_000.0, 20_000.0])
def test_halved_rates_over_doubled_time_is_the_same_stream_rescaled(t_end):
    # mu/2 and beta/2 over 2T: every draw is the same, every time is doubled
    # exactly (power-of-two scalings), and so are the bins at twice the width
    model = _fig7_pinned()
    slow = HawkesModel(model.mu / 2, model.branching, model.decay / 2,
                       names=model.names, observed=model.observed,
                       topology=model.topology)
    fast_stream = simulate(model, t_end, 11)
    slow_stream = simulate(slow, 2 * t_end, 11)
    assert np.array_equal(slow_stream.procs, fast_stream.procs)
    assert np.array_equal(slow_stream.times, 2 * fast_stream.times)
    fast = hk.identify_stream(model, fast_stream, 0.5)
    slow = hk.identify_stream(slow, slow_stream, 1.0)
    for name in ("g_ma", "g_da", "g_dm", "r_ma", "r_da", "r_dm", "r_ml"):
        assert getattr(slow, name) == getattr(fast, name)
    for name in ("theta_aa", "theta_ll", "theta_mm"):
        assert getattr(slow, name) == getattr(fast, name) / 2


# -- counts and names that are not what they say ---------------------------------------


@pytest.mark.parametrize("n_clusters", [2.5, True, "3", None])
def test_simulate_clusters_needs_an_integer_count(n_clusters):
    # 2.5 ended in a TypeError from np.zeros
    with pytest.raises(ConfigurationError, match="integer n_clusters"):
        simulate_clusters(_fig7_pinned(), "A", n_clusters, 5.0, 0)


def test_simulate_clusters_takes_a_numpy_integer_count():
    counts = simulate_clusters(_fig7_pinned(), "A", np.int64(3), 5.0, 0)
    assert np.array_equal(
        counts, simulate_clusters(_fig7_pinned(), "A", 3, 5.0, 0))


@pytest.mark.parametrize("root_type", [1.7, True, np.float64(1.0), None],
                         ids=["float", "bool", "numpy-float", "none"])
def test_simulate_clusters_needs_a_name_or_an_integer_root(root_type):
    # 1.7 and True were both taken as int(root_type), process 1 (M)
    with pytest.raises(ConfigurationError, match="root_type"):
        simulate_clusters(_fig7_pinned(), root_type, 5, 5.0, 0)


def test_simulate_clusters_takes_a_numpy_integer_root():
    counts = simulate_clusters(_fig7_pinned(), np.int64(1), 5, 5.0, 0)
    assert np.array_equal(
        counts, simulate_clusters(_fig7_pinned(), "M", 5, 5.0, 0))


def test_cov_entry_of_an_unknown_name_is_a_configuration_error():
    cov = integrated_cov_exact(_fig7_pinned())
    assert cov.entry("A", "M") == cov.matrix[0, 1]
    with pytest.raises(ConfigurationError, match="no process named 'Z'"):
        cov.entry("A", "Z")


# -- the covariance of the processes asked for: only they are binned --------------------


def _silent_latent_fig7():
    """``_fig7_pinned`` with the latent U silent: no immigrants, no edges."""
    return fig7_model(0.4, 0.3, 0.4, 0.3, 0.3, 0.0, 0.0,
                      mu=(0.6, 0.5, 0.5, 0.4, 0.0), beta=2.0)


@pytest.mark.parametrize("block", [1, 7, None], ids=["1", "7", "default"])
@pytest.mark.parametrize("processes", [(0, 1, 2, 3), (3, 0, 4), (4,)])
def test_empirical_cov_block_equals_the_full_matrix_bitwise(processes, block,
                                                            monkeypatch):
    if block is not None:
        monkeypatch.setattr(hk, "LAG_BLOCK", block)
    stream = simulate(_fig7_pinned(), 601.0, 5)
    # 601 bins (a prime), and 20 033 bins: more than one default block
    cases = [(1.0, 0), (1.0, 17)] + ([(0.03, 33)] if block is None else [])
    for bin_width, max_lag in cases:
        full = integrated_cov_empirical(stream, bin_width, max_lag).matrix
        got = integrated_cov_empirical(stream, bin_width, max_lag,
                                       processes=processes).matrix
        assert np.array_equal(got, full[np.ix_(processes, processes)])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_identify_stream_is_the_full_matrix_then_its_observed_block(seed):
    model = random_fig7_model(seed=seed)
    stream = simulate(model, 3000.0, seed)
    bin_width = 0.2
    cov = integrated_cov_empirical(stream, bin_width,
                                   default_max_lag(model, bin_width))
    obs = list(model.observed)
    block = CovMatrix(cov.matrix[np.ix_(obs, obs)],
                      tuple(model.names[i] for i in obs))
    assert (hk.identify_stream(model, stream, bin_width)
            == identify(block, structure_rtol=0.5))


@pytest.mark.parametrize("processes", [(5,), (-1, 0), (0, 1, 0), (), (True,),
                                       (1.0,), ("A",), 2])
def test_empirical_cov_processes_must_be_distinct_indices(processes):
    stream = simulate(_fig7_pinned(), 40.0, 5)
    with pytest.raises(ConfigurationError, match="processes"):
        integrated_cov_empirical(stream, 0.2, 3, processes=processes)


@pytest.mark.parametrize("indices", [(5,), (-1, 0), (0, 1, 0), (True,),
                                     (1.0,), ("A",), ([0],), 2])
def test_observed_and_processes_refuse_the_same_index_lists(indices):
    # one check serves both; a model's empty ``observed`` means all
    # processes, so only ``processes`` refuses an empty list
    model = _fig7_pinned()
    with pytest.raises(ConfigurationError,
                       match=r"^observed must be distinct process indices "
                             r"in 0\.\.4"):
        HawkesModel(model.mu, model.branching, model.decay,
                    names=model.names, observed=indices)
    stream = simulate(model, 40.0, 5)
    with pytest.raises(ConfigurationError,
                       match=r"^processes must be distinct process indices "
                             r"in 0\.\.4"):
        integrated_cov_empirical(stream, 0.2, 3, processes=indices)


def test_lag_sum_budget_counts_the_processes_binned(monkeypatch):
    stream = simulate(_fig7_pinned(), 40.0, 5)
    # 200 bins of 4 processes; 8 lags fit the budget exactly, 9 do not
    monkeypatch.setattr(hk, "LAG_SUM_BUDGET", 200 * 8 * 4 * 4)
    integrated_cov_empirical(stream, 0.2, 7, processes=(0, 1, 2, 3))
    with pytest.raises(SizeError, match="of 4 binned processes"):
        integrated_cov_empirical(stream, 0.2, 8, processes=(0, 1, 2, 3))
    with pytest.raises(SizeError, match="of 5 binned processes"):
        integrated_cov_empirical(stream, 0.2, 7)


def test_identify_stream_makes_no_filtered_copy_of_the_stream():
    model = _fig7_pinned()
    stream = simulate(model, 50_000.0, 6)
    held = sum(getattr(stream, f).nbytes
               for f in ("times", "procs", "roots", "generations"))
    tracemalloc.start()
    try:
        hk.identify_stream(model, stream, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # dropping U's events as each block is binned peaks at 0.50 times the
    # stream's bytes; binning a filtered copy of the observed events peaked
    # at 0.90 times, under the 1.0 bound of the full-matrix test
    assert peak <= 0.75 * held


def test_a_silent_latent_process_is_identified_exactly():
    model = _silent_latent_fig7()
    assert mean_intensities(model)[4] == 0.0
    res = identify(integrated_cov_exact(model))
    assert res.direct == pytest.approx(0.30, abs=1e-12)
    assert res.mediated == pytest.approx(0.16, abs=1e-12)
    truth = decompose_effects(model)
    assert res.direct == pytest.approx(truth["direct"], abs=1e-12)
    assert res.mediated == pytest.approx(truth["mediated"], abs=1e-12)


def test_a_silent_latent_process_is_identified_from_the_stream():
    model = _silent_latent_fig7()
    stream = simulate(model, 20_000.0, 3)
    assert not np.any(stream.procs == 4)
    res = hk.identify_stream(model, stream, 0.2)
    assert res.direct == pytest.approx(0.30, abs=0.1)
    assert res.mediated == pytest.approx(0.16, abs=0.1)
    # the full matrix holds U's zero variance, which CovMatrix refuses
    with pytest.raises(DataError, match="diagonal must be positive"):
        integrated_cov_empirical(stream, 0.2, 10)


def test_exact_cov_refuses_a_silent_observed_process():
    model = fig7_model(0.4, 0.3, 0.4, 0.3, 0.3, 0.35, 0.3,
                       mu=(0.0, 0.5, 0.5, 0.4, 0.5), beta=2.0)
    with pytest.raises(ConfigurationError,
                       match="observed processes must be positive"):
        integrated_cov_exact(model)
