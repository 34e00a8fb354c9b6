import dataclasses
import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scm_dict_a1_broken_at_point_1
from medgraph.errors import (ConfigurationError, QueryError, SizeError,
                             UndefinedConditionalError)
from medgraph.graphs import TailedDirectedGraph
from medgraph.randomgen import random_rolled_graph
from medgraph.scm import (MIN_CELL_PROB, NA, TREATMENT_DIRECT,
                          TREATMENT_MEDIATED, VIOLATIONS, DiscreteScm,
                          JointTable, SeparatedScm, Variable,
                          conditionally_independent, g_computation,
                          granger_noncausal_exact, granger_noncausal_relative,
                          intervene, interventional_survival, joint,
                          mediational_g_formula, random_observational_scm,
                          random_scm_from_dag, random_separated_scm,
                          scm_from_dict, scm_to_dict, to_observational,
                          verify_assumptions_exact)
from medgraph.transform import unroll


def _coin(name, p=0.5, parents=(), cpt=None):
    if cpt is None:
        cpt = np.array([1 - p, p])
    return Variable(name, (0, 1), tuple(parents), cpt)


def _tiny_obs_scm():
    """One grid point: A -> M0 -> C0 -> S1, all binary, hand-set CPTs."""
    return DiscreteScm((
        _coin("A"),
        Variable("M0", (0, 1), ("A",), np.array([[0.8, 0.2], [0.3, 0.7]])),
        Variable("C0", (0, 1), ("A", "M0"),
                 np.array([[[0.9, 0.1], [0.6, 0.4]],
                           [[0.5, 0.5], [0.2, 0.8]]])),
        Variable("S1", (0, 1), ("A", "M0", "C0"),
                 np.array([[[[0.5, 0.5], [0.4, 0.6]],
                            [[0.3, 0.7], [0.2, 0.8]]],
                           [[[0.45, 0.55], [0.35, 0.65]],
                            [[0.25, 0.75], [0.15, 0.85]]]])),
    ), grid=1)


# -- joint tables -------------------------------------------------------------


def test_joint_single_variable():
    scm = DiscreteScm((_coin("A", 0.3),))
    t = joint(scm)
    assert t.prob({"A": 1}) == pytest.approx(0.3)
    assert t.total() == pytest.approx(1.0)


def test_joint_two_independent_coins():
    scm = DiscreteScm((_coin("A"), _coin("B")))
    t = joint(scm)
    for a in (0, 1):
        for b in (0, 1):
            assert t.prob({"A": a, "B": b}) == pytest.approx(0.25)


def test_joint_chain_matches_hand_sum():
    t = joint(_tiny_obs_scm())
    # P(M0=1) = 0.5*0.2 + 0.5*0.7
    assert t.prob({"M0": 1}) == pytest.approx(0.45)
    assert t.conditional({"M0": 1}, {"A": 1}) == pytest.approx(0.7)


def test_marginal_respects_requested_order():
    t = joint(_tiny_obs_scm())
    m = t.marginal(["M0", "A"])
    assert m.names == ("M0", "A")
    assert m.probs[1, 0] == pytest.approx(t.prob({"A": 0, "M0": 1}))


def test_condition_is_unnormalized_slice():
    t = joint(_tiny_obs_scm())
    sub = t.condition({"A": 1})
    assert sub.total() == pytest.approx(0.5)
    assert "A" not in sub.names


def test_conditional_zero_event():
    scm = DiscreteScm((_coin("A", 1.0), _coin("B")))
    t = joint(scm)
    assert t.conditional({"B": 1}, {"A": 0}) is None
    with pytest.raises(UndefinedConditionalError):
        t.conditional({"B": 1}, {"A": 0}, strict=True)


def test_joint_cell_budget():
    scm = DiscreteScm(tuple(_coin(f"v{i}") for i in range(23)))
    with pytest.raises(SizeError):
        joint(scm)


def test_cpt_row_validation():
    with pytest.raises(ConfigurationError):
        Variable("A", (0, 1), (), np.array([0.6, 0.6]))
    with pytest.raises(ConfigurationError):
        Variable("A", (0, 1), (), np.array([0.5, 0.5, 0.0]))
    with pytest.raises(ConfigurationError, match="non-finite"):
        Variable("A", (0, 1), (), np.array([np.nan, 0.5]))


def test_parent_temporal_order_enforced():
    with pytest.raises(ConfigurationError):
        DiscreteScm((
            Variable("B", (0, 1), ("A",), np.array([[0.5, 0.5], [0.5, 0.5]])),
            _coin("A"),
        ))


# -- interventions ------------------------------------------------------------


def test_root_intervention_equals_conditioning():
    scm = _tiny_obs_scm()
    t = joint(scm)
    t_do = joint(intervene(scm, {"A": 1}))
    for m in (0, 1):
        assert t_do.prob({"M0": m}) == pytest.approx(t.conditional({"M0": m}, {"A": 1}))


def test_intervention_idempotent():
    scm = _tiny_obs_scm()
    once = joint(intervene(scm, {"A": 0}))
    twice = joint(intervene(intervene(scm, {"A": 0}), {"A": 0}))
    assert np.allclose(once.probs, twice.probs)


def test_intervene_unknown_variable():
    with pytest.raises(ConfigurationError):
        intervene(_tiny_obs_scm(), {"Z": 1})


def test_interventional_survival_t_index_range():
    sep = random_separated_scm(2, seed=0)
    with pytest.raises(QueryError):
        interventional_survival(sep, 1, 1, 3)
    with pytest.raises(QueryError):
        interventional_survival(sep, 1, 1, 0)


# -- one product per model ----------------------------------------------------


def test_cached_joint_is_read_only():
    scm = _tiny_obs_scm()
    t = joint(scm)
    assert joint(scm) is t
    with pytest.raises(ValueError):
        t.probs[0, 0, 0, 0] = 1.0


@pytest.mark.parametrize("k_max", [1, 2, 3])
@pytest.mark.parametrize("violation", [None, *VIOLATIONS])
def test_interventional_survival_matches_the_intervened_joint(k_max,
                                                              violation):
    for seed in range(8):
        sep = random_separated_scm(k_max, [seed, 31], violation)
        for a, a_star, t in itertools.product((0, 1), (0, 1),
                                              range(1, k_max + 1)):
            fixed = intervene(sep, {TREATMENT_DIRECT: a,
                                    TREATMENT_MEDIATED: a_star})
            ref = joint(fixed).prob({f"S{t}": 1})
            assert interventional_survival(sep, a, a_star, t) == ref


def test_interventional_survival_reports_bad_treatment_values():
    sep = random_separated_scm(1, 3)
    for a, a_star in ((2, 0), (0, 2)):
        with pytest.raises(ConfigurationError, match="not in state space"):
            interventional_survival(sep, a, a_star, 1)


def _count_products(monkeypatch):
    from medgraph import scm as scm_mod
    built = []
    original = scm_mod._cpt_product

    def counted(model, *args):
        built.append((id(model), args))
        return original(model, *args)

    monkeypatch.setattr(scm_mod, "_cpt_product", counted)
    return built


def test_each_product_is_built_once_per_model(monkeypatch):
    built = _count_products(monkeypatch)
    sep = random_separated_scm(3, 12)
    obs = to_observational(sep)
    regimes = list(itertools.product((0, 1), (0, 1)))
    for _ in range(2):
        for a, a_star in regimes:
            mediational_g_formula(obs, a, a_star, 3)
            interventional_survival(sep, a, a_star, 3)
        verify_assumptions_exact(sep)
    # the observational joint, the separated joint and the separated
    # model's treatment-free product
    assert len(built) == 3
    assert len(set(built)) == 3


def test_cell_budget_is_checked_on_every_call(monkeypatch):
    from medgraph import scm as scm_mod
    sep = random_separated_scm(2, 5)
    obs = to_observational(sep)
    calls = [lambda: joint(sep), lambda: verify_assumptions_exact(sep),
             lambda: interventional_survival(sep, 1, 0, 2),
             lambda: mediational_g_formula(obs, 1, 0, 2)]
    for call in calls:  # fill every cache first
        call()
    built = _count_products(monkeypatch)
    monkeypatch.setattr(scm_mod, "CELL_BUDGET", obs.n_cells - 1)
    for call in calls * 2:
        with pytest.raises(SizeError, match="budget"):
            call()
    fresh = random_separated_scm(2, 6)
    for call in (lambda: joint(fresh),
                 lambda: interventional_survival(fresh, 1, 0, 2)):
        for _ in range(2):
            with pytest.raises(SizeError, match="budget"):
                call()
    assert built == []


# -- structural bookkeeping of random separated models ------------------------


def test_na_consistency_and_survival_monotone():
    sep = random_separated_scm(2, seed=7)
    t = joint(sep)
    # dead subjects have NA mediators/covariates and stay dead
    assert t.prob({"S1": 0, "M1": 0}) == pytest.approx(0.0)
    assert t.prob({"S1": 0, "M1": 1}) == pytest.approx(0.0)
    assert t.prob({"S1": 0, "C1": NA}) == pytest.approx(t.prob({"S1": 0}))
    assert t.prob({"S1": 0, "S2": 1}) == pytest.approx(0.0)


def test_treatment_components_are_independent_roots():
    sep = random_separated_scm(1, seed=3)
    t = joint(sep)
    holds, _ = conditionally_independent(t, ["AD"], ["AM"], [])
    assert holds
    assert t.prob({"AD": 1}) == pytest.approx(0.5)


# -- g-formula identification --------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 2))
def test_g_formula_identifies_interventional_survival(seed, k_max):
    sep = random_separated_scm(k_max, seed=seed)
    obs = to_observational(sep)
    for a in (0, 1):
        for a_star in (0, 1):
            for j in range(1, k_max + 1):
                truth = interventional_survival(sep, a, a_star, j)
                est = mediational_g_formula(obs, a, a_star, j)
                assert est == pytest.approx(truth, abs=1e-12)


def test_g_computation_is_diagonal_case():
    obs = random_observational_scm(2, seed=11)
    assert g_computation(obs, 1, 2) == pytest.approx(
        mediational_g_formula(obs, 1, 1, 2), abs=1e-15)


def test_g_formula_strict_mode_raises_on_zero_stratum():
    scm = DiscreteScm((
        _coin("A", 1.0),
        Variable("M0", (0, 1), ("A",), np.array([[0.5, 0.5], [0.5, 0.5]])),
        Variable("C0", (0, 1), (), np.array([0.5, 0.5])),
        Variable("S1", (0, 1), ("M0",), np.array([[0.4, 0.6], [0.2, 0.8]])),
    ), grid=1)
    # the a = 0 arm is never observed
    assert mediational_g_formula(scm, 0, 1, 1) == pytest.approx(0.0)
    with pytest.raises(UndefinedConditionalError):
        mediational_g_formula(scm, 0, 1, 1, strict=True)


def test_violations_create_g_formula_discrepancy():
    # when the mediation assumptions fail the mixed-regime formula no longer
    # matches the interventional truth (diagonal regimes still match)
    for violation in ("direct_to_mediator", "mediated_to_survival",
                      "mediated_to_covariate", "latent_confounding"):
        sep = random_separated_scm(2, seed=5, violation=violation)
        obs = to_observational(sep)
        truth = interventional_survival(sep, 1, 0, 2)
        est = mediational_g_formula(obs, 1, 0, 2)
        assert abs(est - truth) > 1e-6, violation
        assert g_computation(obs, 1, 2) == pytest.approx(
            interventional_survival(sep, 1, 1, 2), abs=1e-12)


def _g_formula_reference(table, a, a_star, j, strict=False):
    """The mediational g-formula as a loop over all 4^j (m, c) histories,
    with about 3j conditionals per history, each summed from the whole
    table."""
    total = 0.0
    for bits in itertools.product((0, 1), repeat=2 * j):
        m, c = bits[:j], bits[j:]

        def hist(n_med, n_cov):
            h = {f"M{i}": m[i] for i in range(n_med)}
            h.update({f"C{i}": c[i] for i in range(n_cov)})
            return h

        term = 1.0
        for i in range(1, j + 1):
            given = {"A": a, **hist(i, i)}
            if i >= 2:
                given[f"S{i - 1}"] = 1
            p = table.conditional({f"S{i}": 1}, given, strict=strict)
            if p is None:
                term = None
                break
            term *= p
        if term is None:
            continue
        for i in range(j):
            given_m = {"A": a_star, **hist(i, i)}
            given_c = {"A": a, **hist(i + 1, i)}
            if i >= 1:
                given_m[f"S{i}"] = 1
                given_c[f"S{i}"] = 1
            pm = table.conditional({f"M{i}": m[i]}, given_m, strict=strict)
            pc = table.conditional({f"C{i}": c[i]}, given_c, strict=strict)
            if pm is None or pc is None:
                term = None
                break
            term *= pm * pc
        if term is not None:
            total += term
    return total


REGIMES = [(a, a_star) for a in (0, 1) for a_star in (0, 1)]


@pytest.mark.parametrize("violation", (None,) + VIOLATIONS)
@pytest.mark.parametrize("k_max", [1, 2, 3, 4])
def test_g_formula_matches_history_loop(k_max, violation):
    obs = random_observational_scm(k_max, seed=[k_max, 83], violation=violation)
    table = joint(obs)
    for a, a_star in REGIMES:
        for j in range(1, k_max + 1):
            assert mediational_g_formula(obs, a, a_star, j) == pytest.approx(
                _g_formula_reference(table, a, a_star, j), abs=1e-12)


def _with_cpt(scm, name, cpt):
    return dataclasses.replace(scm, variables=tuple(
        dataclasses.replace(v, cpt=cpt) if v.name == name else v
        for v in scm.variables))


def _zero_strata_models():
    """Models with zero-probability conditioning events: an unobserved arm,
    a mediator value never taken at time 1 and a covariate value never
    taken at time 0."""
    obs = random_observational_scm(2, seed=84)
    one_arm = _with_cpt(obs, "A", np.array([0.0, 1.0]))
    m1 = obs.var("M1").cpt.copy()
    m1[..., 1] = 0.0
    m1 /= m1.sum(axis=-1, keepdims=True)
    c0 = np.zeros_like(obs.var("C0").cpt)
    c0[..., 0] = 1.0
    return [one_arm, _with_cpt(obs, "M1", m1), _with_cpt(obs, "C0", c0)]


@pytest.mark.parametrize("model", range(3))
def test_g_formula_strict_mode_raises_where_history_loop_raises(model):
    obs = _zero_strata_models()[model]
    table = joint(obs)
    raised = set()
    for a, a_star in REGIMES:
        for j in (1, 2):
            assert mediational_g_formula(obs, a, a_star, j) == pytest.approx(
                _g_formula_reference(table, a, a_star, j), abs=1e-12)
            try:
                expected = _g_formula_reference(table, a, a_star, j, strict=True)
            except UndefinedConditionalError:
                raised.add((a, a_star, j))
                with pytest.raises(UndefinedConditionalError):
                    mediational_g_formula(obs, a, a_star, j, strict=True)
                continue
            assert mediational_g_formula(obs, a, a_star, j, strict=True) == \
                pytest.approx(expected, abs=1e-12)
    assert raised


@pytest.mark.parametrize("j", [1, 2, 3])
def test_g_formula_builds_each_factor_once(j, monkeypatch):
    obs = random_observational_scm(3, seed=85)
    calls = []
    for method in ("conditional", "marginal"):
        original = getattr(JointTable, method)

        def counted(self, *args, _original=original, **kwargs):
            calls.append(1)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(JointTable, method, counted)
    mediational_g_formula(obs, 1, 0, j)
    assert len(calls) <= 3 * j


# -- exact conditional independence ---------------------------------------------


def test_ci_product_table():
    t = joint(DiscreteScm((_coin("A", 0.3), _coin("B", 0.8))))
    holds, skipped = conditionally_independent(t, ["A"], ["B"], [])
    assert holds and skipped == 0


def test_ci_detects_dependence():
    t = joint(_tiny_obs_scm())
    holds, _ = conditionally_independent(t, ["A"], ["M0"], [])
    assert not holds
    with pytest.raises(QueryError):
        conditionally_independent(t, ["A"], ["C0"], ["A"])


def test_ci_conditioning_on_separator():
    chain = DiscreteScm((
        _coin("A", 0.4),
        Variable("B", (0, 1), ("A",), np.array([[0.7, 0.3], [0.1, 0.9]])),
        Variable("D", (0, 1), ("B",), np.array([[0.6, 0.4], [0.2, 0.8]])),
    ))
    t = joint(chain)
    holds, _ = conditionally_independent(t, ["A"], ["D"], [])
    assert not holds
    holds, _ = conditionally_independent(t, ["A"], ["D"], ["B"])
    assert holds


def test_ci_skips_zero_strata():
    t = joint(DiscreteScm((_coin("Z", 1.0), _coin("A"), _coin("B"))))
    holds, skipped = conditionally_independent(t, ["A"], ["B"], ["Z"])
    assert holds and skipped == 1


# -- exact Granger non-causality -------------------------------------------------


def test_granger_exact_markov_model(graph_plain):
    dag = unroll(graph_plain, 3)
    table = joint(random_scm_from_dag(dag, seed=2))
    assert granger_noncausal_exact(table, {"S"}, {"R"}, {"Q"}, 3)
    assert not granger_noncausal_exact(table, {"Q"}, {"R"}, set(), 3)


def test_granger_relative_context_parameterization(graph_plain):
    dag = unroll(graph_plain, 2)
    table = joint(random_scm_from_dag(dag, seed=4))
    assert granger_noncausal_relative(table, {"S"}, {"R"}, {"S", "R", "Q"}, 2)
    with pytest.raises(QueryError):
        granger_noncausal_relative(table, {"S"}, {"R"}, {"S"}, 2)


def test_granger_exact_not_implied_with_contemporaneous_path(graph_tailed):
    # the stripped-graph separation holds, yet the contemporaneous pathway
    # makes the time-slice dependence real, so the exact test must fail
    dag = unroll(graph_tailed, 2)
    table = joint(random_scm_from_dag(dag, seed=6))
    assert not granger_noncausal_exact(table, {"S"}, {"R"}, {"Q"}, 2)


def test_granger_exact_rejects_overlap(graph_plain):
    table = joint(random_scm_from_dag(unroll(graph_plain, 1), seed=0))
    with pytest.raises(QueryError):
        granger_noncausal_exact(table, {"S"}, {"S"}, set(), 1)


# -- exact assumption verification -----------------------------------------------


def test_assumptions_hold_without_violation():
    report = verify_assumptions_exact(random_separated_scm(2, seed=9))
    assert report.all_hold()


def test_each_violation_is_flagged():
    flags = {}
    for violation in ("direct_to_mediator", "mediated_to_survival",
                      "mediated_to_covariate", "latent_confounding"):
        report = verify_assumptions_exact(
            random_separated_scm(2, seed=13, violation=violation))
        flags[violation] = report
        assert not report.all_hold(), violation
    assert not flags["direct_to_mediator"].a1
    assert not flags["mediated_to_survival"].a2_discrete
    assert not flags["mediated_to_covariate"].a3
    assert not flags["latent_confounding"].a1


def test_unknown_violation_rejected():
    with pytest.raises(ConfigurationError):
        random_separated_scm(1, seed=0, violation="frobnicate")


# -- random model generators ---------------------------------------------------------


def _row_by_row_cpt(rng, parent_states, states, gated):
    """Reference sampler: one uniform draw per parent row, in C order.  A
    gated variable (last parent a survival indicator) is NA, or 0 for a
    survival indicator, in the rows where that parent is 0, and draws
    nothing there."""
    shape = tuple(len(s) for s in parent_states) + (len(states),)
    cpt = np.zeros(shape)
    live = [k for k, s in enumerate(states) if s != NA]
    absorb = states.index(NA if NA in states else 0)
    for idx in np.ndindex(shape[:-1]):
        if gated and parent_states[-1][idx[-1]] == 0:
            cpt[idx + (absorb,)] = 1.0
            continue
        p = rng.uniform(size=len(live))
        p /= p.sum()
        cpt[idx][live] = p * (1.0 - len(live) * MIN_CELL_PROB) + MIN_CELL_PROB
    return cpt


@pytest.mark.parametrize("violation", (None,) + VIOLATIONS)
def test_separated_cpts_match_the_row_by_row_sampler(violation):
    for k in range(1, 5):
        for seed in range(3):
            sep = random_separated_scm(k, seed=[seed, k], violation=violation)
            rng = np.random.default_rng([seed, k])
            for v in sep.variables:
                if v.name in (TREATMENT_DIRECT, TREATMENT_MEDIATED):
                    continue
                gated = bool(v.parents) and v.parents[-1].startswith("S")
                ref = _row_by_row_cpt(
                    rng, [sep.var(p).states for p in v.parents], v.states, gated)
                assert np.array_equal(v.cpt, ref), (k, seed, v.name)


def test_dag_cpts_match_one_draw_per_table():
    rng = np.random.default_rng(31)
    for _ in range(40):
        g = random_rolled_graph(rng, n_nodes=5, n_baseline=2,
                                tailed_acyclic=True)
        seed = int(rng.integers(1000))
        model = random_scm_from_dag(unroll(g, int(rng.integers(1, 4))), seed)
        ref = np.random.default_rng(seed)
        for v in model.variables:
            assert v.states == (0, 1)
            raw = ref.uniform(size=v.cpt.shape)
            raw /= raw.sum(axis=-1, keepdims=True)
            assert np.array_equal(
                v.cpt, raw * (1.0 - 2 * MIN_CELL_PROB) + MIN_CELL_PROB), v.name


# -- serialization -----------------------------------------------------------------


def test_scm_round_trip():
    sep = random_separated_scm(2, seed=21)
    back = scm_from_dict(scm_to_dict(sep))
    assert isinstance(back, SeparatedScm)
    assert back.names == sep.names
    assert np.allclose(joint(back).probs, joint(sep).probs)


def test_scm_round_trip_observational():
    obs = random_observational_scm(1, seed=22)
    back = scm_from_dict(scm_to_dict(obs))
    assert not isinstance(back, SeparatedScm)
    assert np.allclose(joint(back).probs, joint(obs).probs)


def test_scm_from_dict_malformed():
    with pytest.raises(ConfigurationError):
        scm_from_dict({"grid": 1, "variables": [{"name": "A"}]})


# -- the separated model's factor structure ------------------------------------------

# parents of the violation-free model on three grid points, in model order
SEPARATED_PARENTS_K3 = {
    "AD": (), "AM": (),
    "M0": ("AM",),
    "C0": ("AD", "M0"),
    "S1": ("AD", "M0", "C0"),
    "M1": ("AM", "M0", "C0", "S1"),
    "C1": ("AD", "M0", "C0", "M1", "S1"),
    "S2": ("AD", "M0", "C0", "M1", "C1", "S1"),
    "M2": ("AM", "M0", "C0", "M1", "C1", "S2"),
    "C2": ("AD", "M0", "C0", "M1", "C1", "M2", "S2"),
    "S3": ("AD", "M0", "C0", "M1", "C1", "M2", "C2", "S2"),
}
# the parents a violation adds, by the first letter of the variable; they go
# before the survival gate S_i (last), or last at grid point 0
VIOLATION_PARENTS = {
    None: {},
    "direct_to_mediator": {"M": ("AD",)},
    "mediated_to_survival": {"S": ("AM",)},
    "mediated_to_covariate": {"C": ("AM",)},
    "latent_confounding": {"M": ("U",), "S": ("U",)},
}


def _expected_parents(k, violation):
    names = list(SEPARATED_PARENTS_K3)[:2 + 3 * k]
    if violation == "latent_confounding":
        names.insert(2, "U")
    spec = {}
    for name in names:
        parents = SEPARATED_PARENTS_K3.get(name, ())
        extra = VIOLATION_PARENTS[violation].get(name[0], ())
        if name in ("AD", "AM", "U"):
            spec[name] = parents
        elif parents[-1].startswith("S"):
            spec[name] = parents[:-1] + extra + parents[-1:]
        else:
            spec[name] = parents + extra
    return spec


@pytest.mark.parametrize("violation", [None, *VIOLATIONS])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_separated_parents_match_the_written_spec(k, violation):
    model = random_separated_scm(k, seed=k, violation=violation)
    assert {v.name: v.parents for v in model.variables} \
        == _expected_parents(k, violation)
    assert model.names == tuple(_expected_parents(k, violation))


@pytest.mark.parametrize("k, seed, violation, digest", [
    (1, 0, None,
     "00c3f5db729d9d30ac5747fe41f86a3e0e7464f387e23abc9629477948c68c7a"),
    (2, 3, "direct_to_mediator",
     "b12a018e40f1fe27952200d63794898f3ada09ccc6cbcede8b7b6416d4f024ce"),
    (2, 1, "mediated_to_covariate",
     "f00caa326259c021fbe4bf8d96783c5828c472e0579aa2ead163ca984c6a9660"),
    (3, 2, "mediated_to_survival",
     "fb754df0a3789b66a7c6153781086021096a88e35b9211a0d4031b2988686c00"),
    (3, 5, "latent_confounding",
     "84609c5248e4037d781e6cebf5aea2f4e5d167f6f4b5cec1f4e950b6290eeef3"),
])
def test_separated_model_stream_is_pinned(k, seed, violation, digest):
    # the serialized model, states, parents and every CPT bit
    text = json.dumps(scm_to_dict(random_separated_scm(k, seed, violation)),
                      sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("separated", [
    {"direct": "AM", "mediated": "AD"}, {"direct": "AD"},
    {"direct": "AD", "mediated": "AM", "latent": "U"}, {}, ["AD", "AM"],
])
def test_scm_from_dict_takes_only_the_fixed_components(separated):
    d = scm_to_dict(random_separated_scm(1, seed=4))
    assert d["separated"] == {"direct": "AD", "mediated": "AM"}
    d["separated"] = separated
    with pytest.raises(ConfigurationError, match="separated must be"):
        scm_from_dict(d)


# -- a separated model's grid against its variables ------------------------------------


def test_separated_grid_two_reads_the_violation_at_point_1():
    report = verify_assumptions_exact(scm_from_dict(scm_dict_a1_broken_at_point_1()))
    assert not report.a1 and report.a2_discrete and report.a3


@pytest.mark.parametrize("grid, message", [
    (1, "does not cover the variable S2"), (0, "does not cover the variable S1"),
    (3, r"needs the variables \['M2', 'C2', 'S3'\]"),
    (1.7, "grid must be an integer"), (True, "grid must be an integer"),
    ("2", "grid must be an integer"), (2.0, "grid must be an integer"),
    (-1, "grid must be an integer"),
])
def test_separated_grid_must_match_the_variables(grid, message):
    d = scm_dict_a1_broken_at_point_1()
    d["grid"] = grid
    with pytest.raises(ConfigurationError, match=message):
        scm_from_dict(d)


@pytest.mark.parametrize("k_max", [1.5, True, "2", 0, None])
def test_random_separated_scm_takes_an_integer_grid(k_max):
    with pytest.raises(ConfigurationError, match="k_max must be an integer"):
        random_separated_scm(k_max, 0)
