"""Linear multivariate Hawkes processes with exponential kernels.

The model is the continuous-time mediation example: observable processes
A (exposure), M (mediator), D (outcome), L (proxy) plus a latent process U
feeding L and D.  The module provides simulation by the cluster
representation, drawing a whole generation of every cluster in one
vectorized step, exact and empirical integrated covariance, and the
moment-based identification of the direct (G_DA) and mediated (G_DM * G_MA)
effects from the observable covariance alone.

The empirical covariance forms every lagged sum of products of the
uncentered bin counts, sum_t c_t c_{t+l}^T, in one pass over blocks of bins
that stay in cache while each lag's product is taken; the sorted events are
binned a block at a time, so memory is O(events + block), and only the
processes whose covariance is asked for are binned (identification: the
observed ones, never the latent U).
The counts are small integers, so these sums are exact; each lag is then
centred in closed form with the count totals.

Conventions: G[i, j] is the expected number of direct i-events caused by one
j-event (the integral of the kernel g_ij); kernels are g_ij(t) =
G_ij * beta_ij * exp(-beta_ij t).
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, DataError, EstimationError,
                     IdentificationError, SizeError)

RADIUS_TOL = 1e-10
SOLVE_RESIDUAL_TOL = 1e-10
EVENT_BUDGET = 10_000_000
# multiply-adds of the empirical covariance's lag sums:
# bins * (lags + 1) * k**2 for the k processes binned
LAG_SUM_BUDGET = 10_000_000_000
LAG_BLOCK = 16384               # bins per cached block in _lag_sums

FIG7_NAMES = ("A", "M", "D", "L", "U")
# the mediation topology's edges by role, as (cause, effect): A -> M -> D with
# A -> D, a proxy L feeding M and D, and a latent U feeding L and D
FIG7_EDGES = (("A", "M"), ("A", "D"), ("M", "D"), ("L", "M"), ("L", "D"),
              ("U", "L"), ("U", "D"))


# -- model ---------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HawkesModel:
    mu: np.ndarray
    branching: np.ndarray           # G[i, j] = integral of g_ij
    decay: np.ndarray               # beta[i, j] > 0
    names: tuple[str, ...] = ()
    observed: tuple[int, ...] = ()  # indices of observable processes
    topology: str | None = None     # 'fig7' enables structure checks

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        g = np.asarray(self.branching, dtype=float)
        beta = np.asarray(self.decay, dtype=float)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "branching", g)
        object.__setattr__(self, "decay", beta)
        if mu.ndim != 1:
            raise ConfigurationError(
                f"mu must be a vector of background rates, got shape {mu.shape}")
        n = len(mu)
        if g.shape != (n, n) or beta.shape != (n, n):
            raise ConfigurationError("mu, branching and decay dimensions differ")
        if not all(np.all(np.isfinite(x)) for x in (mu, g, beta)):
            raise ConfigurationError("mu, branching and decay must be finite")
        if not self.names:
            object.__setattr__(self, "names", tuple(f"p{i}" for i in range(n)))
        if len(self.names) != n:
            raise ConfigurationError("names length does not match dimension")
        seen = set()
        for name in self.names:
            # events.csv writes each name bare, in UTF-8, as the second
            # field of a line; a lone surrogate has no UTF-8 encoding
            if not isinstance(name, str) or any(
                    c in ',"\r\n' or "\ud800" <= c <= "\udfff" for c in name):
                raise ConfigurationError(
                    f"process name {name!r} is not a string free of commas, "
                    f"quotes, CR, LF and lone surrogates")
            if name in seen:
                raise ConfigurationError(f"process name {name!r} is repeated")
            seen.add(name)
        if not self.observed:
            object.__setattr__(self, "observed", tuple(range(n)))
        obs = self.observed
        if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool)
                   and 0 <= i < n for i in obs) or len(set(obs)) != len(obs):
            raise ConfigurationError(
                f"observed must be distinct process indices in 0..{n - 1}, "
                f"got {list(obs)}")

    @property
    def dimension(self):
        return len(self.mu)

    def index(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise ConfigurationError(f"no process named {name!r}") from None


@dataclass(frozen=True)
class HawkesDiagnostics:
    spectral_radius: float
    diagonal_zero: bool
    nonnegative: bool
    subcritical: bool


def spectral_radius_power(g):
    """Spectral radius by norm growth under repeated matrix squaring
    (||G^m||^(1/m) -> radius as m = 2^k grows).  Unlike plain power
    iteration this handles nilpotent matrices (G^m hits zero exactly) and
    imprimitive ones (no oscillating norm ratios)."""
    m = np.asarray(g, dtype=float)
    log_scale = 0.0
    power = 1
    prev = None
    est = 0.0
    for _ in range(64):
        norm = float(np.linalg.norm(m, 2))
        if norm == 0.0:
            return 0.0
        est = float(np.exp((np.log(norm) + log_scale) / power))
        if prev is not None and abs(est - prev) <= RADIUS_TOL:
            return est
        prev = est
        m = (m / norm) @ (m / norm)
        log_scale = 2.0 * (log_scale + np.log(norm))
        power *= 2
    return est


def validate(model: HawkesModel) -> HawkesDiagnostics:
    """Check subcriticality (spectral radius < 1), zero diagonal and
    nonnegativity; raise listing every violated invariant."""
    g = model.branching
    radius = spectral_radius_power(g)
    diag = HawkesDiagnostics(
        spectral_radius=radius,
        diagonal_zero=bool(np.all(np.diag(g) == 0)),
        nonnegative=bool(np.all(g >= 0) and np.all(model.mu >= 0)),
        subcritical=radius < 1.0,
    )
    problems = []
    if not diag.nonnegative:
        problems.append("negative immigrant rate or branching entry")
    if not diag.diagonal_zero:
        problems.append("branching matrix diagonal is not zero "
                        "(apply normalize_branching first)")
    if np.any(model.decay <= 0):
        problems.append("kernel decay rates must be positive")
    if not diag.subcritical:
        problems.append(f"spectral radius {radius:.6g} >= 1")
    if problems:
        raise ConfigurationError("invalid model: " + "; ".join(problems))
    return diag


def normalize_branching(g):
    """Fold self-excitation into the off-diagonal entries: each j-event and
    its geometric chain of direct self-events jointly produce
    G_ij / (1 - G_jj) direct i-events.  Derived convenience, validated by
    cluster simulation."""
    g = np.asarray(g, dtype=float)
    selfex = np.diag(g)
    if np.any(selfex >= 1):
        raise ConfigurationError("self-excitation entries must be < 1")
    out = g / (1.0 - selfex[None, :])
    np.fill_diagonal(out, 0.0)
    return out


def expected_cluster_matrix(model: HawkesModel) -> np.ndarray:
    """R = (I - G)^{-1}: R[i, j] is the expected total number of i-events in
    a cluster rooted at one j-event.  The solve is accepted when its
    residual max|(I - G) R - I| is at most 1e-10 max(1, max|R|)."""
    validate(model)
    n = model.dimension
    lhs = np.eye(n) - model.branching
    r = np.linalg.solve(lhs, np.eye(n))
    residual = float(np.max(np.abs(lhs @ r - np.eye(n))))
    if residual > SOLVE_RESIDUAL_TOL * max(1.0, float(np.max(np.abs(r)))):
        raise EstimationError(
            f"cluster-matrix solve residual {residual:.3e} exceeds "
            f"{SOLVE_RESIDUAL_TOL:g} relative to max|R|")
    return r


def mean_intensities(model: HawkesModel) -> np.ndarray:
    """Stationary mean intensity vector (I - G)^{-1} mu."""
    return expected_cluster_matrix(model) @ model.mu


def decompose_effects(model: HawkesModel, source="A", mediator="M") -> dict:
    """Direct, mediated and total expected events of the outcome process D
    per source event."""
    i_s, i_m, i_o = (model.index(x) for x in (source, mediator, "D"))
    if len({i_s, i_m, i_o}) != 3:
        raise ConfigurationError("source, mediator and outcome must differ")
    r = expected_cluster_matrix(model)
    g = model.branching
    return {
        "direct": float(g[i_o, i_s]),
        "mediated": float(g[i_o, i_m] * g[i_m, i_s]),
        "total": float(r[i_o, i_s]),
    }


# -- model builders -------------------------------------------------------------


def fig7_model(g_ma, g_da, g_dm, g_ml, g_dl, g_lu, g_du, mu, beta=1.0) -> HawkesModel:
    """The weights of ``FIG7_EDGES``, in order; A, M, D, L are observed."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (5,):
        raise ConfigurationError("mu must have 5 entries (A, M, D, L, U)")
    g = np.zeros((5, 5))
    for (cause, effect), w in zip(FIG7_EDGES,
                                  (g_ma, g_da, g_dm, g_ml, g_dl, g_lu, g_du)):
        g[FIG7_NAMES.index(effect), FIG7_NAMES.index(cause)] = w
    beta = np.asarray(beta, dtype=float)
    if beta.ndim == 0:
        beta = np.full((5, 5), float(beta))
    return HawkesModel(mu, g, beta, names=FIG7_NAMES, observed=(0, 1, 2, 3),
                       topology="fig7")


def random_fig7_model(seed) -> HawkesModel:
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 0.45, size=7)
    mu = rng.uniform(0.2, 1.0, size=5)
    beta = rng.uniform(0.8, 2.0)
    return fig7_model(*w, mu=mu, beta=beta)


# -- simulation -------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EventStream:
    times: np.ndarray
    procs: np.ndarray
    horizon: float
    n_processes: int
    roots: np.ndarray | None = None       # cluster root id per event
    generations: np.ndarray | None = None

    def __post_init__(self):
        if self.times.size and (self.times.min() < 0 or self.times.max() > self.horizon):
            raise DataError("event times outside [0, horizon]")
        if np.any(np.diff(self.times) < 0):
            raise DataError("event times not sorted")
        if self.procs.size and not (0 <= self.procs.min()
                                    and self.procs.max() < self.n_processes):
            raise DataError(f"process indices outside 0..{self.n_processes - 1}")

    def __len__(self):
        return len(self.times)


def _sample_clusters(model, times, procs, horizon, rng):
    """Grow the clusters of the given roots up to ``horizon``, a generation
    per step.  Along each edge j -> i, a type-j event at time t has
    Poisson(G_ij (1 - e^{-beta_ij (h - t)})) type-i children at truncated-
    exponential offsets (inverse CDF).  Returns times, processes, root
    indices and generations, ordered by generation; each is joined from
    its generations and those freed before the next is joined."""
    g, beta = model.branching, model.decay
    edges = np.argwhere(g > 0)
    fields = ([times], [procs], [np.arange(len(times))])
    sizes = [len(times)]
    while sizes[-1] and edges.size:
        gen_t, gen_p, gen_r = (f[-1] for f in fields)
        kids = []
        for i, j in edges:
            sel = np.flatnonzero(gen_p == j)
            trunc = -np.expm1(-beta[i, j] * (horizon - gen_t[sel]))
            k = rng.poisson(g[i, j] * trunc)
            u = rng.uniform(size=k.sum()) * np.repeat(trunc, k)
            ct = np.repeat(gen_t[sel], k) - np.log1p(-u) / beta[i, j]
            kids.append((np.minimum(ct, horizon), np.full(ct.size, i),
                         np.repeat(gen_r[sel], k)))
        for f, c in zip(fields, zip(*kids)):
            f.append(np.concatenate(c))
        sizes.append(len(fields[0][-1]))
        if sum(sizes) > EVENT_BUDGET:
            raise SizeError("event budget exceeded during simulation")
    joined = []
    for f in fields:
        joined.append(np.concatenate(f))
        f.clear()
    gens = np.repeat(np.arange(len(sizes)), sizes)
    return (*joined, gens)


def _check_event_budget(expected):
    if expected > EVENT_BUDGET:
        raise SizeError(f"expected {expected:.3g} events exceeds the "
                        f"{EVENT_BUDGET} budget")


def simulate(model: HawkesModel, t_end, seed) -> EventStream:
    """Cluster-representation sampler: immigrants are homogeneous Poisson
    per process, and their clusters are drawn a whole generation at a time.
    Root ids number the immigrants by process, then by time: ``np.repeat``
    groups them by process, and each process's times are sorted in place.
    The stream's time order is applied one array at a time."""
    if not 0.0 < t_end < np.inf:
        raise ConfigurationError("t_end must be positive and finite")
    _check_event_budget(float(mean_intensities(model).sum() * t_end))
    rng = np.random.default_rng(seed)
    per_proc = rng.poisson(model.mu * t_end)
    procs = np.repeat(np.arange(model.dimension), per_proc)
    times = rng.uniform(0.0, t_end, size=procs.size)
    bounds = np.cumsum(per_proc)
    for lo, hi in zip(bounds - per_proc, bounds):
        times[lo:hi].sort()
    fields = list(_sample_clusters(model, times, procs, float(t_end), rng))
    del times, procs
    order = np.argsort(fields[0], kind="stable")
    for k in range(len(fields)):
        fields[k] = fields[k][order]
    return EventStream(fields[0], fields[1], float(t_end), model.dimension,
                       fields[2], fields[3])


def simulate_clusters(model: HawkesModel, root_type, n_clusters, horizon,
                      seed) -> np.ndarray:
    """Event counts by process over ``n_clusters`` independent clusters each
    rooted at one time-0 event of ``root_type``, a process name or index
    (an injected event; its cluster is distributed like an intrinsic one)."""
    n = model.dimension
    if isinstance(root_type, str):
        j0 = model.index(root_type)
    elif (isinstance(root_type, numbers.Integral)
          and not isinstance(root_type, bool)):
        j0 = int(root_type)
    else:
        raise ConfigurationError(f"root_type must be a process name or an "
                                 f"integer index, got {root_type!r}")
    if (not 0 <= j0 < n or isinstance(n_clusters, bool)
            or not isinstance(n_clusters, (int, np.integer)) or n_clusters < 0
            or not 0.0 < horizon < np.inf):
        raise ConfigurationError("need a root process of the model, integer "
                                 "n_clusters >= 0 and a finite horizon > 0")
    _check_event_budget(
        n_clusters * float(expected_cluster_matrix(model)[:, j0].sum()))
    _, procs, roots, _ = _sample_clusters(
        model, np.zeros(n_clusters), np.full(n_clusters, j0), float(horizon),
        np.random.default_rng(seed))
    return np.bincount(roots * n + procs,
                       minlength=n_clusters * n).reshape(n_clusters, n)


# -- integrated covariance ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CovMatrix:
    matrix: np.ndarray
    names: tuple[str, ...] = ()

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DataError("covariance matrix must be square")
        if not np.all(np.isfinite(m)):
            raise DataError("covariance matrix has non-finite entries")
        if float(np.max(np.abs(m - m.T))) > 1e-10 * max(1.0, float(np.max(np.abs(m)))):
            raise DataError("covariance matrix is not symmetric")
        if np.any(np.diag(m) <= 0):
            raise DataError("covariance diagonal must be positive")
        if not self.names:
            object.__setattr__(self, "names",
                               tuple(f"p{i}" for i in range(m.shape[0])))

    def entry(self, a, b):
        for name in (a, b):
            if name not in self.names:
                raise ConfigurationError(f"no process named {name!r}")
        return float(self.matrix[self.names.index(a), self.names.index(b)])


def integrated_cov_exact(model: HawkesModel) -> CovMatrix:
    """Exact integrated covariance of the observed processes:
    the full-process matrix R diag(Lambda) R^T restricted to the observed
    block.  Only the observed processes need a positive mean intensity, so
    a silent latent process is accepted.  A model of the mediation topology
    is checked to have only its edges (``check_fig7``)."""
    r = expected_cluster_matrix(model)
    lam = r @ model.mu
    obs = list(model.observed)
    if np.any(lam[obs] <= 0):
        raise ConfigurationError(
            "mean intensities of the observed processes must be positive")
    c_full = r @ np.diag(lam) @ r.T
    c_obs = c_full[np.ix_(obs, obs)]
    if model.topology == "fig7":
        check_fig7(model)
    return CovMatrix(0.5 * (c_obs + c_obs.T),
                     tuple(model.names[i] for i in obs))


def _check_bin_width(bin_width):
    if not 0.0 < bin_width < np.inf:
        raise ConfigurationError("bin_width must be positive and finite")


def default_max_lag(model: HawkesModel, bin_width, tail=1e-3):
    """Lag horizon so that every kernel's tail mass beyond it is < tail."""
    _check_bin_width(bin_width)
    used = model.decay[model.branching > 0]
    beta_min = float(used.min()) if used.size else 1.0
    span = -np.log(tail) / beta_min
    # compared before dividing, which overflows for a tiny bin width
    if not span <= EVENT_BUDGET * bin_width:
        raise SizeError(f"bin width {bin_width:.3g} needs more than "
                        f"{EVENT_BUDGET} lags")
    return int(np.ceil(span / bin_width))


class _BinnedCounts:
    """The (n_bins, k) float count matrix of a stream's kept processes,
    binned on demand.  ``cols[p]`` is process p's column in 0..k-1, or -1
    for a process left out, whose events are dropped as each slice is
    binned.  The row slice ``[lo:hi]`` bincounts only the events in bins
    lo..hi-1, found by ``searchsorted`` on the events' bin indices ``idx``,
    which never decrease because the stream is sorted by time.  The counts
    are binned process-major, so the slice is the transpose of a contiguous
    (k, hi - lo) array."""

    def __init__(self, idx, procs, cols, n_bins):
        k = int(cols.max()) + 1
        # a dropped process's events land in an extra last row, cut off
        self.idx, self.procs, self.shape = idx, procs, (n_bins, k)
        self.rows = np.where(cols < 0, k, cols)

    def __getitem__(self, rows):
        lo, hi, _ = rows.indices(self.shape[0])
        width, k = hi - lo, self.shape[1]
        first, last = np.searchsorted(self.idx, [lo, hi])
        cells = self.rows[self.procs[first:last]] * width + (
            self.idx[first:last] - lo)
        # weighted by ones, the counts come out as floats with no int copy
        counts = np.bincount(cells, np.ones(len(cells)), minlength=k * width)
        return counts[:k * width].reshape(k, width).T


def _lag_sums(counts, max_lag):
    """S[l] = counts[:N-l].T @ counts[l:] for l = 0..max_lag, shape
    (max_lag + 1, n, n), from an (N, n) array or a ``_BinnedCounts``.  The
    bins are read in blocks of ``LAG_BLOCK``, each once, as a window that
    runs ``max_lag`` bins past the block, held process-major as an (n,
    LAG_BLOCK + max_lag) array; the window stays in cache while every lag's
    product ``block @ window[:, l:l + m].T`` is formed from it, each a sum
    over bins along contiguous rows.  On integer counts every partial sum
    is an integer, so the result is exact in any order while the sums stay
    below 2**53 (at most EVENT_BUDGET**2 = 1e14 for a simulated stream)."""
    n_bins, n = counts.shape
    s = np.zeros((max_lag + 1, n, n))
    for lo in range(0, n_bins, LAG_BLOCK):
        window = np.ascontiguousarray(counts[lo:lo + LAG_BLOCK + max_lag].T)
        for lag in range(min(max_lag + 1, n_bins - lo)):
            m = min(LAG_BLOCK, n_bins - lo - lag)
            s[lag] += window[:, :m] @ window[:, lag:lag + m].T
    return s


def _check_processes(processes, n):
    procs = list(processes) if np.iterable(processes) else []
    if not procs or len(set(procs)) != len(procs) or not all(
            isinstance(i, (int, np.integer)) and not isinstance(i, bool)
            and 0 <= i < n for i in procs):
        raise ConfigurationError(
            f"processes must be distinct process indices in 0..{n - 1}, "
            f"at least one, got {processes!r}")
    return procs


def integrated_cov_empirical(stream: EventStream, bin_width=0.2,
                             max_lag=50, processes=None) -> CovMatrix:
    """Binned estimator: sample cross-covariances of bin counts summed over
    lags -max_lag..max_lag, scaled by 1/bin_width.  The lag-l covariance
    divides by the N - l bin pairs at that lag.  It is computed from the
    exact integer lag sums S_l of the uncentered counts, centred in closed
    form: S_l - a_l mu^T - mu b_l^T + (N - l) mu mu^T, where a_l and b_l
    are the count totals of the first and the last N - l bins.  The counts
    are binned a block at a time, so no bins x processes array is held.

    ``processes`` lists the stream process indices whose covariance block
    is returned, in that order (default: all of them); the others' events
    are never binned, so their lag sums cost nothing and a process with no
    events outside the block is no error.  Every entry is the one the full
    matrix holds, bit for bit: the lag sums are exact and the rest is
    elementwise.  The result's names are ``CovMatrix``'s positional
    defaults, p0.. in the order of ``processes``."""
    _check_bin_width(bin_width)
    if max_lag < 0:
        raise ConfigurationError("max_lag must be >= 0")
    n = stream.n_processes
    procs = (list(range(n)) if processes is None
             else _check_processes(processes, n))
    k = len(procs)
    if not stream.horizon * k <= EVENT_BUDGET * bin_width:
        raise SizeError(f"bin width {bin_width:.3g} needs more than "
                        f"{EVENT_BUDGET} bin counts")
    n_bins = int(stream.horizon / bin_width)
    if n_bins < 100:
        raise DataError(f"only {n_bins} bins; need at least 100")
    if max_lag >= n_bins:
        raise DataError(f"max_lag {max_lag} needs more than the {n_bins} bins")
    if n_bins * (max_lag + 1) * k * k > LAG_SUM_BUDGET:
        raise SizeError(f"{n_bins} bins at {max_lag + 1} lags of {k} binned "
                        f"processes exceed the {LAG_SUM_BUDGET} lag-sum "
                        f"budget")
    idx = (stream.times / bin_width).astype(int)
    np.minimum(idx, n_bins - 1, out=idx)
    cols = np.full(n, -1)
    cols[procs] = np.arange(k)
    counts = _BinnedCounts(idx, stream.procs, cols, n_bins)
    s = _lag_sums(counts, max_lag)
    total = np.bincount(stream.procs, minlength=n)[procs].astype(float)
    mu = total / n_bins
    zero = np.zeros((1, k))
    a = total - np.concatenate(
        [zero, np.cumsum(counts[n_bins - max_lag:][::-1], axis=0)])
    b = total - np.concatenate([zero, np.cumsum(counts[:max_lag], axis=0)])
    pairs = (n_bins - np.arange(max_lag + 1))[:, None, None]
    cl = (s - a[:, :, None] * mu - mu[:, None] * b[:, None, :]
          + pairs * np.outer(mu, mu)) / pairs
    c = cl[0].copy()
    for lag in range(1, max_lag + 1):
        c += cl[lag] + cl[lag].T
    c /= bin_width
    return CovMatrix(0.5 * (c + c.T))


# -- identification ------------------------------------------------------------------


@dataclass(frozen=True)
class IdentificationResult:
    g_ma: float
    g_da: float
    g_dm: float
    r_ma: float
    r_da: float
    r_dm: float
    r_ml: float
    theta_aa: float
    theta_ll: float
    theta_mm: float
    direct: float
    mediated: float

    def as_dict(self):
        return dataclasses.asdict(self)


def check_fig7(model: HawkesModel):
    """Refuse a model whose local independence graph, the support j -> i of
    G[i, j] > 0 (Didelez 2008), has an edge outside ``FIG7_EDGES``, which
    ``identify`` assumes.  The observed processes play A, M, D, L in order
    and every other one U; the diagonal is ``validate``'s to refuse."""
    if len(model.observed) != 4:
        raise IdentificationError("need 4 observed processes: A, M, D, L")
    role = dict(zip(model.observed, FIG7_NAMES))
    extra = [f"{model.names[j]} -> {model.names[i]}"
             for i, j in np.argwhere(model.branching > 0) if i != j
             and (role.get(j, "U"), role.get(i, "U")) not in FIG7_EDGES]
    if extra:
        raise IdentificationError("edges outside the mediation topology: "
                                  + ", ".join(extra))


def identify(c_obs: CovMatrix, structure_rtol=1e-6) -> IdentificationResult:
    """Moment-based identification from the observable integrated covariance
    (processes ordered A, M, D, L).

    Sequential solve: the A-variance gives the exposure innovation; the
    M-A and D-A covariances give the cluster responses R_MA, R_DA; the
    L-block gives the proxy innovation and R_ML; the M-variance gives the
    mediator innovation; and the D-M covariance, after substituting the D-L
    covariance to absorb the latent confounding, gives R_DM.  Inverting the
    unit-triangular response over (A, M, D) yields the branching entries.
    """
    c = c_obs.matrix
    if c.shape != (4, 4):
        raise DataError("need the 4x4 observable covariance (A, M, D, L)")
    a, m, d, l = 0, 1, 2, 3
    scale_al = np.sqrt(c[a, a] * c[l, l])
    if abs(c[a, l]) > structure_rtol * scale_al:
        raise IdentificationError(
            "C_AL is nonzero beyond tolerance: the exposure and the proxy "
            "must be uncorrelated under this topology")
    theta_aa = c[a, a]
    theta_ll = c[l, l]     # positive: CovMatrix refuses any other diagonal
    r_ma = c[m, a] / theta_aa
    r_da = c[d, a] / theta_aa
    r_ml = c[l, m] / theta_ll
    theta_mm = c[m, m] - r_ma ** 2 * theta_aa - r_ml ** 2 * theta_ll
    if theta_mm <= 0:
        raise IdentificationError(
            f"solved mediator innovation variance {theta_mm:.3g} <= 0")
    # the D-L covariance equals R_DL*theta_LL + theta_DL, exactly the latent
    # contribution entering C_DM through the R_ML channel
    r_dm = (c[d, m] - r_da * theta_aa * r_ma - r_ml * c[d, l]) / theta_mm
    # invert the unit-lower-triangular response over (A, M, D)
    g_ma = r_ma
    g_dm = r_dm
    g_da = r_da - r_dm * r_ma
    return IdentificationResult(
        g_ma=float(g_ma), g_da=float(g_da), g_dm=float(g_dm),
        r_ma=float(r_ma), r_da=float(r_da), r_dm=float(r_dm),
        r_ml=float(r_ml), theta_aa=float(theta_aa), theta_ll=float(theta_ll),
        theta_mm=float(theta_mm),
        direct=float(g_da), mediated=float(g_dm * g_ma))


def identify_stream(model: HawkesModel, stream: EventStream,
                    bin_width) -> IdentificationResult:
    """``identify`` on the observed block of the stream's covariance over
    the model's lag horizon, C_AL checked loosely for sampling noise.  Only
    the observed processes are binned: the latent U's events are skipped,
    so a silent U is accepted, and the block is bitwise the one cut from
    the full matrix."""
    check_fig7(model)
    obs = model.observed
    cov = integrated_cov_empirical(stream, bin_width,
                                   default_max_lag(model, bin_width),
                                   processes=obs)
    return identify(CovMatrix(cov.matrix, tuple(model.names[i] for i in obs)),
                    structure_rtol=0.5)


# -- serialization ---------------------------------------------------------------------


def model_to_dict(model: HawkesModel) -> dict:
    return {
        "mu": model.mu.tolist(),
        "branching": model.branching.tolist(),
        "decay": model.decay.tolist(),
        "names": list(model.names),
        "observed": list(model.observed),
        "topology": model.topology,
    }


def model_from_dict(d: dict) -> HawkesModel:
    try:
        return HawkesModel(
            np.asarray(d["mu"], dtype=float),
            np.asarray(d["branching"], dtype=float),
            np.asarray(d["decay"], dtype=float),
            names=tuple(d.get("names", ())),
            observed=tuple(d.get("observed", ())),
            topology=d.get("topology"),
        )
    except KeyError as exc:
        raise ConfigurationError(f"model file missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"model file field is not a numeric array "
                                 f"of the right shape: {exc}") from exc
