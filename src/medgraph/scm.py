"""Exact discrete structural causal models on a short time grid.

Variables live in a fixed temporal order (treatment, then alternating
mediator / covariate / survival-indicator blocks); each carries a conditional
probability table over its parents.  All inference is by exhaustive
summation on the full joint table, so models must stay small; each model
builds its joint table once, on first use, and keeps it.  The module
provides do-interventions, the mediational g-formula and g-computation (one
conditional table per factor, each marginalized from the joint once, then
their product summed over the 0/1 mediator and covariate histories), and
exact conditional-independence testing (Granger non-causality on lagged
variables, and the three mediation assumptions).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (ConfigurationError, QueryError, SizeError,
                     UndefinedConditionalError, check_count)
from .graphs import UnrolledDag, _split_lagged, lagged_name, topological_order

NA = "NA"
CELL_BUDGET = 1 << 22
MIN_CELL_PROB = 1e-3
CPT_ROW_TOL = 1e-12
CI_TOL = 1e-12

TREATMENT = "A"
TREATMENT_DIRECT = "AD"
TREATMENT_MEDIATED = "AM"
# the one ``separated`` field a model file may hold
_SEPARATED = {"direct": TREATMENT_DIRECT, "mediated": TREATMENT_MEDIATED}
_OTHER_COMPONENT = {TREATMENT_DIRECT: TREATMENT_MEDIATED,
                   TREATMENT_MEDIATED: TREATMENT_DIRECT}

VIOLATIONS = ("direct_to_mediator", "mediated_to_survival",
              "mediated_to_covariate", "latent_confounding")
# the factor kind a violation also hands the other treatment component
_CROSSED_KIND = {"direct_to_mediator": "M", "mediated_to_survival": "S",
                "mediated_to_covariate": "C"}


def mediator_name(i):
    return f"M{i}"


def covariate_name(i):
    return f"C{i}"


def survival_name(i):
    return f"S{i}"


def _factors(t_index):
    """Each factor of the separated model up to grid point ``t_index``, in
    temporal order, as (i, variable, kind, component, history).  At grid
    point i the mediator M_i (kind "M") listens to the mediated treatment
    component, the covariate C_i ("C") and the survival indicator S_{i+1}
    ("S") to the direct one; each also listens to its history, the
    mediators and covariates before it in the order M_0, C_0, M_1, C_1, ..."""
    history = ()
    for i in range(t_index):
        m, c = mediator_name(i), covariate_name(i)
        yield i, m, "M", TREATMENT_MEDIATED, history
        yield i, c, "C", TREATMENT_DIRECT, history + (m,)
        history += (m, c)
        yield i, survival_name(i + 1), "S", TREATMENT_DIRECT, history


@dataclass(frozen=True, eq=False)
class Variable:
    """One model variable: finite state space, parents, CPT.

    The CPT has one axis per parent (in parent order) plus a final axis over
    the variable's own states; every row sums to 1.
    """

    name: str
    states: tuple
    parents: tuple[str, ...]
    cpt: np.ndarray

    def __post_init__(self):
        cpt = np.asarray(self.cpt, dtype=float)
        object.__setattr__(self, "cpt", cpt)
        if cpt.shape[-1] != len(self.states):
            raise ConfigurationError(
                f"{self.name}: CPT last axis {cpt.shape[-1]} != {len(self.states)} states")
        if cpt.ndim != len(self.parents) + 1:
            raise ConfigurationError(
                f"{self.name}: CPT has {cpt.ndim} axes for {len(self.parents)} parents")
        if not np.all(np.isfinite(cpt)):
            raise ConfigurationError(f"{self.name}: non-finite CPT entries")
        if np.any(cpt < 0):
            raise ConfigurationError(f"{self.name}: negative CPT entries")
        rows = cpt.sum(axis=-1)
        if np.any(np.abs(rows - 1.0) > CPT_ROW_TOL):
            raise ConfigurationError(f"{self.name}: CPT rows do not sum to 1")

    def state_index(self, value):
        try:
            return self.states.index(value)
        except ValueError:
            raise ConfigurationError(
                f"value {value!r} not in state space of {self.name}: {self.states}") from None


@dataclass(frozen=True, eq=False)
class DiscreteScm:
    """Structural causal model over finitely many discrete variables.

    ``grid`` is the number of time-grid points (0 for purely atemporal toy
    models).  Variables are listed in temporal order and may only have
    earlier variables as parents.
    """

    variables: tuple[Variable, ...]
    grid: int = 0

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        check_count(self.grid, "grid", 0)
        seen = {}
        for pos, v in enumerate(self.variables):
            if v.name in seen:
                raise ConfigurationError(f"duplicate variable name {v.name!r}")
            for p, size in zip(v.parents, v.cpt.shape[:-1]):
                if p not in seen:
                    raise ConfigurationError(
                        f"{v.name}: parent {p!r} missing or out of temporal order")
                if size != len(seen[p].states):
                    raise ConfigurationError(
                        f"{v.name}: CPT axis for parent {p!r} has size {size}, "
                        f"expected {len(seen[p].states)}")
            seen[v.name] = v

    @property
    def names(self):
        return tuple(v.name for v in self.variables)

    def var(self, name) -> Variable:
        for v in self.variables:
            if v.name == name:
                return v
        raise ConfigurationError(f"no variable named {name!r}")

    @property
    def n_cells(self):
        size = 1
        for v in self.variables:
            size *= len(v.states)
        return size

    @cached_property
    def _joint(self):
        return JointTable(self.names, tuple(v.states for v in self.variables),
                          _cpt_product(self))


@dataclass(frozen=True, eq=False)
class SeparatedScm(DiscreteScm):
    """Model with the treatment split into two independent root components:
    ``AD`` driving survival and covariates, ``AM`` driving mediators.  Its
    ``grid`` is the number of grid points its variables cover: every
    factor of :func:`_factors` up to it exists, and no later survival
    indicator does, so the exact checks read every factor."""

    def __post_init__(self):
        super().__post_init__()
        for name in (TREATMENT_DIRECT, TREATMENT_MEDIATED):
            if self.var(name).parents:
                raise ConfigurationError(f"treatment component {name!r} must be a root")
        names = set(self.names)
        missing = [name for _, name, *_ in _factors(self.grid) if name not in names]
        if missing:
            raise ConfigurationError(
                f"grid {self.grid} needs the variables {missing}")
        if survival_name(self.grid + 1) in names:
            raise ConfigurationError(f"grid {self.grid} does not cover the "
                                     f"variable {survival_name(self.grid + 1)}")

    @cached_property
    def _treatment_free(self):
        """Product of every CPT but the two treatment components'."""
        return _cpt_product(self, (TREATMENT_DIRECT, TREATMENT_MEDIATED))


# -- joint tables -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class JointTable:
    """Full joint probability table; one axis per variable."""

    names: tuple[str, ...]
    states: tuple[tuple, ...]
    probs: np.ndarray

    def axis(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise QueryError(f"no variable named {name!r} in table") from None

    def _indexer(self, assignments):
        idx = [slice(None)] * len(self.names)
        for name, value in assignments.items():
            ax = self.axis(name)
            try:
                idx[ax] = self.states[ax].index(value)
            except ValueError:
                raise QueryError(
                    f"value {value!r} not in state space of {name!r}") from None
        return tuple(idx)

    def prob(self, assignments) -> float:
        """P(assignments), marginalizing all unmentioned variables."""
        return float(self.probs[self._indexer(assignments)].sum())

    def marginal(self, names) -> "JointTable":
        """Marginal table over ``names`` in the requested axis order."""
        keep = [self.axis(n) for n in names]
        drop = tuple(i for i in range(len(self.names)) if i not in keep)
        arr = self.probs.sum(axis=drop)
        order = [sorted(keep).index(i) for i in keep]
        arr = arr.transpose(order)
        return JointTable(tuple(names), tuple(self.states[i] for i in keep), arr)

    def condition(self, assignments) -> "JointTable":
        """Sub-table with ``assignments`` fixed (axes removed, mass NOT
        renormalized; suitable for scale-invariant independence tests)."""
        idx = self._indexer(assignments)
        keep = [i for i in range(len(self.names)) if isinstance(idx[i], slice)]
        return JointTable(
            tuple(self.names[i] for i in keep),
            tuple(self.states[i] for i in keep),
            self.probs[idx],
        )

    def conditional(self, event, given, strict=False):
        """P(event | given); None when P(given) = 0 (or an error in strict
        mode)."""
        p_given = self.prob(given)
        if p_given <= 0.0:
            if strict:
                raise UndefinedConditionalError(
                    f"conditioning event has probability zero: {given}")
            return None
        return self.prob({**event, **given}) / p_given

    def total(self) -> float:
        return float(self.probs.sum())


def _expand(cpt, axes, rank):
    """Reshape a CPT so its axes land at positions ``axes`` of a rank-``rank``
    broadcastable array (all other axes are singletons)."""
    order = np.argsort(axes)
    arr = np.transpose(cpt, order)
    shape = [1] * rank
    for ax, size in zip(sorted(axes), arr.shape):
        shape[ax] = size
    return arr.reshape(shape)


def _check_cells(scm):
    if scm.n_cells > CELL_BUDGET:
        raise SizeError(
            f"joint table would need {scm.n_cells} cells (budget {CELL_BUDGET})")


def _cpt_product(scm, skip=()):
    """Product of the CPTs of every variable of ``scm`` not named in
    ``skip``, multiplied in model order, as a read-only array with one axis
    per variable (an axis no factor spans is broadcast)."""
    names = scm.names
    pos = {n: i for i, n in enumerate(names)}
    rank = len(names)
    probs = np.ones([1] * rank)
    for v in scm.variables:
        if v.name not in skip:
            axes = [pos[p] for p in v.parents] + [pos[v.name]]
            probs = probs * _expand(v.cpt, axes, rank)
    return np.broadcast_to(probs, tuple(len(v.states) for v in scm.variables))


def joint(scm: DiscreteScm) -> JointTable:
    """Exact joint distribution as the product of all CPTs, built on the
    model's first call and shared by every later one (its ``probs`` are
    read-only)."""
    _check_cells(scm)
    return scm._joint


# -- interventions ----------------------------------------------------------


def intervene(scm: DiscreteScm, assignments: dict) -> DiscreteScm:
    """Replace the CPTs of the assigned variables by point masses."""
    new_vars = []
    pending = dict(assignments)
    for v in scm.variables:
        if v.name in pending:
            idx = v.state_index(pending.pop(v.name))
            cpt = np.zeros_like(v.cpt)
            cpt[..., idx] = 1.0
            v = dataclasses.replace(v, cpt=cpt)
        new_vars.append(v)
    if pending:
        raise ConfigurationError(f"cannot intervene on unknown variables: {sorted(pending)}")
    return dataclasses.replace(scm, variables=tuple(new_vars))


def interventional_survival(sep_scm: SeparatedScm, a, a_star, t_index) -> float:
    """Exact P(alive at grid point t_index | do(direct=a, mediated=a_star)).

    By the truncated factorization, the intervened joint is the model's
    cached treatment-free product times a point mass at ``a`` on the direct
    component's axis and one at ``a_star`` on the mediated one's: the table
    ``joint(intervene(...))`` builds, bit for bit, without multiplying the
    other CPTs again.  Its zeros are summed too, not sliced away, so numpy
    adds the cells in the same order and the result keeps its last bit.
    """
    _check_t_index(sep_scm, t_index)
    fixed = {TREATMENT_DIRECT: a, TREATMENT_MEDIATED: a_star}
    points = {v.name: np.eye(len(v.states))[v.state_index(fixed[v.name])]
              for v in sep_scm.variables if v.name in fixed}
    _check_cells(sep_scm)
    probs = sep_scm._treatment_free
    for name, point in points.items():
        probs = probs * _expand(point, [sep_scm.names.index(name)], probs.ndim)
    table = JointTable(sep_scm.names,
                       tuple(v.states for v in sep_scm.variables), probs)
    return table.prob({survival_name(t_index): 1})


def _check_t_index(scm, t_index):
    if not 1 <= t_index <= scm.grid:
        raise QueryError(f"t_index must be in 1..{scm.grid}, got {t_index}")


# -- mediational g-formula ---------------------------------------------------


def _pick(table: JointTable, name, values):
    """Positions of ``values`` on the axis of ``name``."""
    return [table._indexer({name: v})[table.axis(name)] for v in values]


def _factor(table: JointTable, given, history, target, values, strict):
    """P(target = values | given, history) over the 0/1 states of each
    history axis, with the target's ``values`` last.  The conditional is
    normalized over all target states (NA included).  Entries whose
    conditioning event has probability zero are 0, or raise in strict mode.
    """
    m = table.condition(given).marginal([*history, target])
    probs = m.probs[np.ix_(*[_pick(m, n, (0, 1)) for n in history],
                           range(len(m.states[-1])))]
    denom = probs.sum(axis=-1, keepdims=True)
    if strict and np.any(denom <= 0.0):
        raise UndefinedConditionalError(
            f"conditioning event has probability zero: {given} with a 0/1 "
            f"history of {history}")
    cond = np.divide(probs, denom, out=np.zeros_like(probs), where=denom > 0.0)
    return cond[..., _pick(m, target, values)]


def mediational_g_formula(obs_scm: DiscreteScm, a, a_star, t_index,
                          strict=False) -> float:
    """Mixed-regime survival functional computed from the observational
    joint: survival and covariate factors are conditioned on treatment ``a``,
    mediator factors on ``a_star``.

    Each of the 3j factors of :func:`_factors` is one array over its 0/1
    history on the axis order M0, C0, M1, C1, ...; the formula sums their
    product over all 0/1 histories.  Histories whose conditioning event has
    probability zero contribute 0; in strict mode they raise instead.
    """
    _check_t_index(obs_scm, t_index)
    table = joint(obs_scm)
    # one spare trailing axis takes the last survival factor's target axis
    rank = 2 * t_index + 1
    product = np.ones(())
    for i, name, kind, component, history in _factors(t_index):
        arm = a_star if component == TREATMENT_MEDIATED else a
        given = {TREATMENT: arm, survival_name(i): 1} if i else {TREATMENT: arm}
        f = _factor(table, given, history, name,
                    (1,) if kind == "S" else (0, 1), strict)
        product = product * f.reshape(f.shape + (1,) * (rank - f.ndim))
    return float(product.sum())


def g_computation(obs_scm: DiscreteScm, a, t_index) -> float:
    """Single-regime g-computation: the mixed-regime formula with both
    treatment arguments equal."""
    return mediational_g_formula(obs_scm, a, a, t_index)


# -- exact conditional independence ------------------------------------------


def conditionally_independent(table: JointTable, x, y, z, tol=CI_TOL):
    """Exact test of X independent of Y given Z on the table.

    Returns (holds, skipped) where ``skipped`` counts conditioning strata of
    probability zero (they are vacuous and excluded from the test).  The test
    is invariant to an overall scaling of the table, so unnormalized
    sub-tables from :meth:`JointTable.condition` are acceptable.
    """
    x, y, z = list(x), list(y), list(z)
    if len(set(x) | set(y) | set(z)) != len(x) + len(y) + len(z):
        raise QueryError("variable sets must be pairwise disjoint")
    if not x or not y:
        return True, 0
    m = table.marginal(x + y + z)
    sizes = [len(s) for s in m.states]
    nx = int(np.prod(sizes[:len(x)]))
    ny = int(np.prod(sizes[len(x):len(x) + len(y)]))
    nz = int(np.prod(sizes[len(x) + len(y):])) if z else 1
    p = m.probs.reshape(nx, ny, nz)
    pz = p.sum(axis=(0, 1))
    mask = pz > 0
    skipped = int(np.count_nonzero(~mask))
    lhs = p * pz[None, None, :]
    rhs = p.sum(axis=1)[:, None, :] * p.sum(axis=0)[None, :, :]
    holds = bool(np.all(np.abs(lhs[:, :, mask] - rhs[:, :, mask]) <= tol))
    return holds, skipped


# -- Granger non-causality on lagged tables ----------------------------------


def _lag_index(table: JointTable):
    lags: dict[str, set[int]] = {}
    for name in table.names:
        base, lag = _split_lagged(name)
        lags.setdefault(base, set()).add(lag)
    return lags


def granger_noncausal_exact(table: JointTable, a, b, c, t_prime,
                            tol=CI_TOL) -> bool:
    """Exact Granger non-causality of the target coordinates ``b`` from ``a``
    given ``c``, tested up to time ``t_prime``: at every t the full past of
    ``a`` is independent of the time-t slice of ``b`` given the past of
    ``b`` and ``c``.

    This is the relative parameterization with context a+b+c, whose
    conditioning past is exactly that of b and c.
    """
    a, b, c = set(a), set(b), set(c)
    if a & b or a & c or b & c:
        raise QueryError("coordinate sets must be pairwise disjoint")
    return granger_noncausal_relative(table, a, b, a | b | c, t_prime, tol)


def _granger_queries(lags, a, b, past, t_prime):
    """Query triples (x, y, z) for t = 1..t_prime: past of ``a`` vs the
    time-t slice of ``b`` given the past of ``b`` and ``past``."""
    a, b = set(a), set(b)
    unknown = (a | b | past) - set(lags)
    if unknown:
        raise QueryError(f"unknown coordinate names: {sorted(unknown)}")
    if a & b or a & past:
        raise QueryError("the source coordinates may not appear in the target "
                         "or conditioning sets")
    for t in range(1, t_prime + 1):
        y = [lagged_name(p, t) for p in sorted(b) if t in lags[p]]
        if not y:
            raise QueryError(f"no target variables at time {t}")
        x = [lagged_name(p, s) for p in sorted(a)
             for s in sorted(lags[p]) if s <= t - 1]
        z = [lagged_name(p, s) for p in sorted(b | past)
             for s in sorted(lags[p]) if s <= t - 1]
        yield x, y, z


def granger_noncausal_relative(table: JointTable, a, b, context, t_prime,
                               tol=CI_TOL) -> bool:
    """Alternative parameterization: non-causality of ``b`` from ``a``
    relative to the coordinate context ``context`` (a superset of a and b);
    the conditioning past is context minus a."""
    a, b, context = set(a), set(b), set(context)
    if not (a | b) <= context:
        raise QueryError("context must contain both coordinate sets")
    lags = _lag_index(table)
    for x, y, z in _granger_queries(lags, a, b, context - a - b, t_prime):
        holds, _ = conditionally_independent(table, x, y, z, tol)
        if not holds:
            return False
    return True


# -- mediation assumptions, exact --------------------------------------------


@dataclass(frozen=True)
class ExactAssumptionReport:
    a1: bool
    a2_discrete: bool
    a3: bool
    strata_skipped: int

    def all_hold(self):
        return self.a1 and self.a2_discrete and self.a3


def verify_assumptions_exact(sep_scm: SeparatedScm) -> ExactAssumptionReport:
    """Brute-force conditional-independence tests of the three mediation
    assumptions on the separated joint (both treatment components randomized
    as independent roots).  Each factor of :func:`_factors` is one test: its
    variable is independent of the other component given its own component
    and its history, and alive at the time (S_i = 1).  The mediators' tests
    make A1, the covariates' A3 and the survival indicators' A2.  Latent
    variables are marginalized, never conditioned on.  Zero-probability
    conditioning strata are skipped and counted in the report.
    """
    table = joint(sep_scm)
    holds = dict.fromkeys("MCS", True)
    skipped = 0
    for i, name, kind, component, history in _factors(sep_scm.grid):
        t = table.condition({survival_name(i): 1}) if i else table
        ok, s = conditionally_independent(
            t, [name], [_OTHER_COMPONENT[component]], [component, *history])
        holds[kind] &= ok
        skipped += s
    return ExactAssumptionReport(holds["M"], holds["S"], holds["C"], skipped)


# -- random model generators --------------------------------------------------


def _random_cpt(rng, shape, live, gate):
    """Random CPT of ``shape`` (one axis per parent, then the variable's
    states).  Each row is a random distribution over the state indices
    ``live``, floored at MIN_CELL_PROB so every conditioning stratum stays
    non-degenerate.  With ``gate = (axis, absorb)``, the rows whose parent on
    ``axis`` is in its first state (a survival indicator's 0) are a point
    mass at state index ``absorb`` and draw nothing.  The other rows are
    drawn in one call, in C order: the stream of one draw per row."""
    n = len(live)
    if gate is None:  # ungated tables have no NA state: every state is live
        p = rng.uniform(size=shape)
    else:
        rows = np.ones(shape[:-1], dtype=bool)
        rows[(slice(None),) * gate[0] + (0,)] = False
        p = rng.uniform(size=(np.count_nonzero(rows), n))
    p /= p.sum(axis=-1, keepdims=True)
    p = p * (1.0 - n * MIN_CELL_PROB) + MIN_CELL_PROB
    if gate is None:
        return p
    cpt = np.zeros(shape)
    cpt[~rows, gate[1]] = 1.0
    block = np.zeros((len(p), shape[-1]))
    block[:, live] = p
    cpt[rows] = block
    return cpt


def random_separated_scm(k_max, seed, violation=None) -> SeparatedScm:
    """Random separated model on ``k_max`` grid points.

    Without a violation, mediators depend only on the mediated treatment
    component and survival/covariates only on the direct one, so all three
    assumptions hold by construction.  ``violation`` adds one structural
    defect: 'direct_to_mediator' (breaks A1), 'mediated_to_survival' (A2),
    'mediated_to_covariate' (A3), or 'latent_confounding' (a hidden root
    feeding both mediators and survival).
    """
    check_count(k_max, "k_max", 1)
    if violation is not None and violation not in VIOLATIONS:
        raise ConfigurationError(f"unknown violation {violation!r}; options: {VIOLATIONS}")
    rng = np.random.default_rng(seed)
    variables: list[Variable] = []
    by_name: dict[str, Variable] = {}

    def add(name, states, parents, cpt):
        v = Variable(name, tuple(states), tuple(parents), cpt)
        variables.append(v)
        by_name[name] = v

    def add_random(name, states, parents, gate=None, absorb=None):
        shape = tuple(len(by_name[p].states) for p in parents) + (len(states),)
        live = [k for k, s in enumerate(states) if s != NA]
        if gate is not None:
            gate = (parents.index(gate), states.index(absorb))
        add(name, states, parents, _random_cpt(rng, shape, live, gate))

    add(TREATMENT_DIRECT, (0, 1), (), np.array([0.5, 0.5]))
    add(TREATMENT_MEDIATED, (0, 1), (), np.array([0.5, 0.5]))
    latent = violation == "latent_confounding"
    if latent:
        add_random("U", (0, 1), ())
    for i, name, kind, component, history in _factors(k_max):
        parents = [component, *history]
        if _CROSSED_KIND.get(violation) == kind:
            parents.append(_OTHER_COMPONENT[component])
        if latent and kind != "C":
            parents.append("U")
        if not i:
            add_random(name, (0, 1), parents)
            continue
        gate = survival_name(i)
        parents.append(gate)
        if kind == "S":  # death is absorbing
            add_random(name, (0, 1), parents, gate=gate, absorb=0)
        else:  # not measured after death
            add_random(name, (0, 1, NA), parents, gate=gate, absorb=NA)
    return SeparatedScm(tuple(variables), grid=k_max)


def to_observational(sep_scm: SeparatedScm) -> DiscreteScm:
    """Merge the two treatment components into a single randomized treatment
    (the event where both components agree)."""
    ad, am = TREATMENT_DIRECT, TREATMENT_MEDIATED
    if sep_scm.var(ad).states != sep_scm.var(am).states:
        raise ConfigurationError("treatment components have different state spaces")
    new_vars = []
    for v in sep_scm.variables:
        if v.name == ad:
            new_vars.append(dataclasses.replace(v, name=TREATMENT))
            continue
        if v.name == am:
            continue
        parents = list(v.parents)
        cpt = v.cpt
        if am in parents and ad in parents:
            i, j = parents.index(ad), parents.index(am)
            i, j = min(i, j), max(i, j)
            cpt = np.stack([np.take(np.take(cpt, k, axis=j), k, axis=i)
                            for k in range(cpt.shape[i])], axis=i)
            del parents[j]
            parents[i] = TREATMENT
        else:
            parents = [TREATMENT if p in (ad, am) else p for p in parents]
        new_vars.append(dataclasses.replace(v, parents=tuple(parents), cpt=cpt))
    return DiscreteScm(tuple(new_vars), grid=sep_scm.grid)


def random_observational_scm(k_max, seed, violation=None) -> DiscreteScm:
    return to_observational(random_separated_scm(k_max, seed, violation))


def random_scm_from_dag(dag: UnrolledDag, seed) -> DiscreteScm:
    """Random binary model Markov to the lagged DAG: variables are
    'name@lag', each with a random CPT over its DAG parents (min cell
    probability applied)."""
    rng = np.random.default_rng(seed)
    parents_of = dag.adjacency[1]
    variables = []
    for node in topological_order(dag.nodes, dag.edges,
                                  key=lambda nd: (nd[1], nd[0])):
        parents = sorted(parents_of.get(node, ()), key=lambda nd: (nd[1], nd[0]))
        cpt = _random_cpt(rng, (2,) * (len(parents) + 1), (0, 1), None)
        variables.append(Variable(
            lagged_name(*node), (0, 1),
            tuple(lagged_name(*p) for p in parents), cpt))
    return DiscreteScm(tuple(variables), grid=dag.lag_count)


# -- serialization -------------------------------------------------------------


def scm_to_dict(scm: DiscreteScm) -> dict:
    d = {
        "grid": scm.grid,
        "variables": [{"name": v.name, "states": list(v.states)}
                      for v in scm.variables],
        "parents": {v.name: list(v.parents) for v in scm.variables},
        "cpt": {v.name: v.cpt.tolist() for v in scm.variables},
    }
    if isinstance(scm, SeparatedScm):
        d["separated"] = dict(_SEPARATED)
    return d


def scm_from_dict(d: dict) -> DiscreteScm:
    try:
        variables = tuple(
            Variable(
                spec["name"],
                tuple(tuple(s) if isinstance(s, list) else s
                      for s in spec["states"]),
                tuple(d["parents"][spec["name"]]),
                np.asarray(d["cpt"][spec["name"]], dtype=float),
            )
            for spec in d["variables"]
        )
        grid = d["grid"]
        sep = d.get("separated")
        if sep is not None:
            if sep != _SEPARATED:
                raise ConfigurationError(
                    f"separated must be {_SEPARATED}, got {sep!r}")
            return SeparatedScm(variables, grid=grid)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed model specification: {exc}") from exc
    return DiscreteScm(variables, grid=grid)
