"""Survival estimation stack for the additive-treatment hazard model
lambda(t) = rho_t * a + psi(t) * exp(gamma . z_t).

Data live in counting-process format: one row per (subject, interval), with
covariates held constant within an interval.  The stack provides
Kaplan-Meier and Nelson-Aalen estimators, time-dependent-covariate Cox
fitting with Breslow ties, the Breslow baseline, the cumulative treatment
hazard estimator R(t), the direct/indirect relative survival curves, and a
subject-level bootstrap.  A piecewise-constant simulation generator acts as
the oracle for estimator tests.

Every row carries a case weight (``SurvivalDataset.weights``, default 1):
a subject of weight w counts as w identical subjects in every estimator and
count.  All estimators share one risk-set kernel, which maps a dataset's
rows onto its event times once; the mapping is cached on the dataset, so
the fit, the baseline and Kaplan-Meier of one group share it.

A bootstrap replicate is a weight view (:class:`_Replicate`): the parent's
rows with multinomial case weights, zero for subjects not drawn.  The
estimators read it by cutting the parent's cached kernel down to the drawn
rows and to the grid times where the replicate has an event, which is the
kernel its copy would build, so a view and its copy give the same results.
Nothing else is copied or mapped per replicate.  Any other attribute a
statistic reads is served by the copy that :func:`resample_subjects`
returns, made on first use.
"""

from __future__ import annotations

import codecs
import csv
import math
import warnings
from dataclasses import dataclass, field, replace
from itertools import chain, islice, repeat
from operator import itemgetter

import numpy as np

from .errors import (ConfigurationError, DataError, EstimationError, SizeError,
                     check_count)

GRAD_TOL = 1e-8
STEP_FLOOR = 1e-10
MAX_ITER = 60
# a fit is flagged as not converged when the information of some covariate
# fell below this share of its value at gamma = 0 (see fit_cox_td)
SEPARATION_INFO_RATIO = 1e-3
# bootstrap replicates * (data rows + grid points): each replicate reads
# every row and keeps one value per grid point, in one n_boot x grid
# matrix, until the bands are taken
BOOT_BUDGET = 1 << 28


# -- step functions -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Right-continuous step function: value ``initial`` before the first
    jump time, ``values[i]`` on [times[i], times[i+1])."""

    times: np.ndarray
    values: np.ndarray
    initial: float = 0.0

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.shape != values.shape or times.ndim != 1:
            raise ConfigurationError("times and values must be 1-d arrays of equal length")
        if times.size and np.any(np.diff(times) <= 0):
            raise ConfigurationError("jump times must be strictly increasing")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ConfigurationError("step function must be finite")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.times.size == 0:
            out = np.full_like(t, self.initial)
        else:
            idx = np.searchsorted(self.times, t, side="right")
            out = np.where(idx == 0, self.initial,
                           self.values[np.maximum(idx - 1, 0)])
        return float(out) if out.ndim == 0 else out


# -- datasets ------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SurvivalDataset:
    """Counting-process dataset.  Rows are grouped by subject and sorted by
    interval start within each subject.  ``weights`` holds each row's case
    weight (positive, the same on every row of a subject); it defaults to 1.
    """

    subject: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    event: np.ndarray
    treatment: np.ndarray
    covariates: np.ndarray
    covariate_names: tuple[str, ...]
    weights: np.ndarray | None = None
    # per-dataset results computed once: the first-row mask and the
    # estimators' risk-set kernel (see _risk_sets)
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.weights is None:
            object.__setattr__(self, "weights",
                               np.ones(len(self.subject), dtype=int))
        elif (np.shape(self.weights) != np.shape(self.subject) or not
              np.all(np.isfinite(self.weights) & (self.weights > 0))):
            raise DataError("case weights must be positive and finite, "
                            "one per row")

    @classmethod
    def build(cls, subject, start, stop, event, treatment, covariates,
              covariate_names):
        subject = np.asarray(subject, dtype=object)
        start = np.asarray(start, dtype=float)
        stop = np.asarray(stop, dtype=float)
        event = np.asarray(event, dtype=int)
        treatment = np.asarray(treatment, dtype=int)
        covariates = np.asarray(covariates, dtype=float)
        if covariates.ndim == 1:
            covariates = covariates[:, None]
        n = len(subject)
        if not (len(start) == len(stop) == len(event) == len(treatment)
                == len(covariates) == n):
            raise DataError("column lengths differ")
        if n == 0:
            raise DataError("empty dataset")
        if covariates.shape[1] != len(covariate_names):
            raise DataError("covariate name count does not match columns")
        finite = np.isfinite(start) & np.isfinite(stop) \
            & np.isfinite(covariates).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise DataError(f"non-finite interval bound or covariate for "
                            f"subject {subject[bad]!r}")
        if np.any(start >= stop):
            bad = int(np.argmax(start >= stop))
            raise DataError(f"interval_start >= interval_stop for subject "
                            f"{subject[bad]!r}")
        if not set(np.unique(event)) <= {0, 1}:
            raise DataError("event must be 0 or 1")
        if not set(np.unique(treatment)) <= {0, 1}:
            raise DataError("treatment must be 0 or 1")

        # stable sort: subjects keep first-appearance order, intervals by
        # start; a row's key is the first run of adjacent rows of its subject
        run = np.ones(n, dtype=bool)
        run[1:] = subject[1:] != subject[:-1]
        key = np.cumsum(run) - 1
        heads = subject[run]
        if len(set(heads)) < len(heads):  # a subject's rows are not adjacent
            first = dict(zip(heads[::-1], range(len(heads) - 1, -1, -1)))
            key = np.fromiter(map(first.__getitem__, heads), dtype=np.intp,
                              count=len(heads))[key]
        if np.any((key[1:] < key[:-1])
                  | ((key[1:] == key[:-1]) & (start[1:] < start[:-1]))):
            order = np.lexsort((start, key))
            subject, start, stop = subject[order], start[order], stop[order]
            event, treatment = event[order], treatment[order]
            covariates, key = covariates[order], key[order]

        same = key[1:] == key[:-1]
        checks = (("overlapping intervals for subject",
                   same & (start[1:] < stop[:-1])),
                  ("event interval is not last for subject",
                   same & (event[:-1] == 1)),
                  ("treatment changes within subject",
                   same & (treatment[1:] != treatment[:-1])))
        bad = np.flatnonzero(checks[0][1] | checks[1][1] | checks[2][1])
        if bad.size:
            i = int(bad[0])
            message = next(m for m, mask in checks if mask[i])
            raise DataError(f"{message} {subject[i + 1]!r}")
        return cls(subject, start, stop, event, treatment, covariates,
                   tuple(covariate_names))

    def __len__(self):
        return len(self.subject)

    def _first_rows(self):
        """Mask of each subject's first row (rows are grouped by subject),
        computed once per dataset."""
        first = self._cache.get("first_rows")
        if first is None:
            first = np.ones(len(self), dtype=bool)
            first[1:] = self.subject[1:] != self.subject[:-1]
            first.flags.writeable = False
            self._cache["first_rows"] = first
        return first

    @property
    def n_subjects(self):
        return self.weights[self._first_rows()].sum().item()

    @property
    def n_events(self):
        return (self.weights * self.event).sum().item()

    def restrict(self, mask) -> "SurvivalDataset":
        mask = np.asarray(mask, dtype=bool)
        if not mask.any():
            raise DataError("restriction selects no rows")
        return SurvivalDataset(self.subject[mask], self.start[mask],
                               self.stop[mask], self.event[mask],
                               self.treatment[mask], self.covariates[mask],
                               self.covariate_names, self.weights[mask])

    def group(self, a) -> "SurvivalDataset":
        return self.restrict(self.treatment == a)

    def column(self, name):
        try:
            j = self.covariate_names.index(name)
        except ValueError:
            raise ConfigurationError(f"no covariate column named {name!r}") from None
        return self.covariates[:, j]

    def summary(self) -> dict:
        """Case-weighted subject and event counts, overall and by arm, plus
        the number of rows."""
        first = self._first_rows()
        subjects = self.weights[first]
        events = self.weights * self.event
        return {
            "subjects": subjects.sum().item(),
            "events": events.sum().item(),
            "subjects_by_treatment": {
                a: subjects[self.treatment[first] == a].sum().item()
                for a in (0, 1)},
            "events_by_treatment": {
                a: events[self.treatment == a].sum().item() for a in (0, 1)},
            "rows": len(self),
        }


CSV_CHUNK_ROWS = 1 << 13


def ingest_csv(path, columns) -> SurvivalDataset:
    """Load a counting-process CSV.

    ``columns`` maps the roles {'id', 'start', 'stop', 'event', 'treatment'}
    to header names and 'covariates' to a list of numeric columns.  The
    header is read as one ``csv`` record, the rest ``CSV_CHUNK_ROWS`` lines
    at a time.  A plain chunk (see :func:`_plain_cells`) is split into its
    cells with one ``str.split``; from the first chunk that is not plain
    on, the ``csv`` module reads the rest of the file, so quoted fields,
    CRLF line ends and blank lines are read as ``csv`` reads them.  Each
    needed column of a chunk becomes an array in one numpy call, which
    parses a cell as Python's ``float`` or ``int`` does.  Blank lines are
    skipped and not counted; a repeated header name means its last column.
    A cell that does not parse, a non-finite number, or a row too short to
    hold a needed cell is reported with the 1-based data row number of the
    first such row; text that does not decode, or that ``csv`` rejects (a
    field over ``csv.field_size_limit()``, say), with its 1-based line
    number in the file.
    """
    required = ("id", "start", "stop", "event", "treatment")
    missing = [k for k in required if k not in columns]
    if missing:
        raise ConfigurationError(f"column map missing roles: {missing}")
    cov_cols = list(columns.get("covariates", []))
    needed = [columns[k] for k in required] + cov_cols
    with open(path, newline="") as fh:
        try:
            chunks = _read_chunks(fh, needed)
        except UnicodeDecodeError as exc:
            line = _undecodable_line(path, fh.encoding)
            raise DataError(f"line {line}: text that does not decode as "
                            f"{fh.encoding} ({exc.reason})") from None
    if not chunks:
        raise DataError("empty dataset: no data rows")
    cols = [np.concatenate(c) for c in zip(*chunks)]
    del chunks
    return SurvivalDataset.build(*cols, tuple(cov_cols))


def _read_chunks(fh, needed):
    """The column chunks (see :func:`_chunk_columns`) of an open CSV file
    whose header holds every name in ``needed``."""
    reader, before = csv.reader(fh), 0  # file lines read ahead of reader
    try:
        header = next(reader, None)
        if header is None:
            raise DataError("empty file: no header row")
        where = {name: j for j, name in enumerate(header)}
        absent = [c for c in needed if c not in where]
        if absent:
            raise DataError(f"missing columns: {absent}")
        index = [where[c] for c in needed]
        width, chunks, done = len(header), [], 0
        for lines in iter(lambda: list(islice(fh, CSV_CHUNK_ROWS)), []):
            cells = _plain_cells(lines, width)
            if cells is None:
                break
            chunks.append(_chunk_columns(
                lambda j: cells[j::width], len(lines), index, needed, done,
                lambda: [cells[k:k + width]
                         for k in range(0, len(cells), width)]))
            done += len(lines)
            del lines, cells  # freed before the next chunk is read
        else:
            return chunks
        # plain lines are whole records, none blank
        before = reader.line_num + done
        reader = csv.reader(chain(lines, fh))
        for records in iter(lambda: list(islice(reader, CSV_CHUNK_ROWS)), []):
            rows = list(filter(None, records))
            if rows:
                chunks.append(_chunk_columns(
                    lambda j: map(itemgetter(j), rows), len(rows), index,
                    needed, done, lambda: rows))
                done += len(rows)
            del records, rows
    except csv.Error as exc:
        raise DataError(f"line {before + reader.line_num}: {exc}") from None
    return chunks


def _plain_cells(lines, width):
    """The cells of a chunk of ``lines``, row after row, when ``csv`` would
    read each line as the same ``width`` fields that splitting at its
    commas gives, else None.  That holds when the chunk has no quote,
    carriage return or NUL, every line has ``width - 1`` commas (so no
    line is blank, as ``width`` is at least 2) and none is longer than
    ``csv.field_size_limit()``; each line but the file's last then ends
    in a newline."""
    text = "".join(lines)
    if (width < 2 or '"' in text or "\r" in text or "\0" in text
            or set(map(str.count, lines, repeat(","))) != {width - 1}
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    cells = text.replace("\n", ",").split(",")
    if text.endswith("\n"):
        cells.pop()  # the empty cell after the last newline
    return cells


def _undecodable_line(path, encoding):
    """The 1-based number of the first line of the file at ``path`` that
    does not decode as ``encoding``."""
    decoder = codecs.getincrementaldecoder(encoding)()
    number = 0
    with open(path, "rb") as fh:
        for number, raw in enumerate(fh, start=1):
            try:
                decoder.decode(raw)
            except UnicodeDecodeError:
                return number
    return number  # the file ends inside a character


def _chunk_columns(column, n, index, names, done, rows):
    """The id, start, stop, event and treatment columns and the covariate
    matrix of one chunk of ``n`` CSV rows; ``column(j)`` iterates over the
    cells of column ``j``, ``rows()`` lists the rows' cells, and ``done``
    data rows precede the chunk."""
    def convert(j, kind):
        return np.fromiter(column(j), dtype=kind, count=n)

    try:
        cols = [convert(j, kind) for j, kind in
                zip(index, (object, float, float, int, int))]
        covs = np.empty((n, len(index) - 5))
        for k, j in enumerate(index[5:]):
            covs[:, k] = convert(j, float)
    except (IndexError, TypeError, ValueError, OverflowError):
        _raise_first_bad_row(rows(), index, names, done)
    if not (np.isfinite(cols[1]).all() and np.isfinite(cols[2]).all()
            and np.isfinite(covs).all()):
        _raise_first_bad_row(rows(), index, names, done)
    return cols + [covs]


def _raise_first_bad_row(rows, index, names, done):
    """Raise the DataError for the first row of a chunk that has a cell
    that does not parse, a non-finite number, or too few cells.  Only a
    chunk that failed its column-wise conversion is scanned row by row."""
    def whole(cell):  # an int64, as the column-wise conversion makes it
        return np.int64(int(cell))

    parse = [float, float, whole, whole] + [float] * (len(index) - 5)
    for rownum, row in enumerate(rows, start=done + 1):
        cells = [row[j] if j < len(row) else None for j in index]
        try:
            values = [f(c) for f, c in zip(parse, cells[1:])]
        except (TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"row {rownum}: non-numeric cell ({exc})") from exc
        if cells[0] is None:
            raise DataError(f"row {rownum}: no cell in column {names[0]!r}")
        for name, cell, v in zip(names[1:], cells[1:], values):
            if not math.isfinite(v):
                raise DataError(f"row {rownum}: non-finite cell {cell!r} in "
                                f"column {name!r}")
    raise DataError(f"rows {done + 1}-{done + len(rows)}: unreadable cells")


# -- mediator summaries --------------------------------------------------------


def prothrombin_transform(values):
    """Clinical transform: values at or above 70 become 0, lower values are
    shifted by -70 (so the covariate measures the shortfall)."""
    values = np.asarray(values, dtype=float)
    return np.where(values >= 70.0, 0.0, values - 70.0)


def mediator_summary(dataset: SurvivalDataset, mediator_col, scheme,
                     decay=None, split=None) -> SurvivalDataset:
    """Append derived mediator-history covariates, recomputed at each
    interval start.

    Schemes: 'last' (current value), 'mean_all' (running mean),
    'weighted' (exponentially decaying weights, most recent first; needs
    ``decay`` in (0, 1]), 'two_part' (means before/after ``split``; an empty
    part borrows the other part's mean).  Every mean is a ratio of two
    running sums from :func:`_decayed_sums`.
    """
    raw = dataset.column(mediator_col)
    if scheme == "weighted":
        if decay is None or not 0 < decay <= 1:
            raise ConfigurationError("'weighted' needs a decay factor in (0, 1]")
    if scheme == "two_part" and (split is None or not math.isfinite(split)):
        raise ConfigurationError(f"'two_part' needs a finite split time, got {split!r}")

    if scheme == "last":
        derived = raw[:, None]
    elif scheme in ("mean_all", "weighted"):
        sums = _decayed_sums(dataset,
                             np.column_stack([raw, np.ones(len(dataset))]),
                             decay if scheme == "weighted" else 1.0)
        derived = sums[:, :1] / sums[:, 1:]
    elif scheme == "two_part":
        early = dataset.start < split
        sums = _decayed_sums(dataset, np.column_stack(
            [np.where(early, raw, 0.0), early, np.where(early, 0.0, raw),
             ~early]), 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            e, l = sums[:, 0] / sums[:, 1], sums[:, 2] / sums[:, 3]
        e = np.where(sums[:, 1] > 0, e, l)
        derived = np.column_stack([e, np.where(sums[:, 3] > 0, l, e)])
    else:
        raise ConfigurationError(f"unknown summary scheme {scheme!r}")

    names = {1: (f"{mediator_col}_{scheme}",),
             2: (f"{mediator_col}_{scheme}_early", f"{mediator_col}_{scheme}_late")}
    return replace(dataset,
                   covariates=np.hstack([dataset.covariates, derived]),
                   covariate_names=dataset.covariate_names
                   + names[derived.shape[1]])


def _decayed_sums(dataset: SurvivalDataset, values, decay):
    """Running sums S_k = decay * S_{k-1} + x_k of each column of
    ``values`` along every subject's rows, restarting at each subject's
    first row.

    The loop steps over the position within a subject, each step
    vectorized across the subjects that have a row there, so it runs as
    many times as the longest subject has rows.  Every sum stays local to
    its subject, so its rounding error scales with that subject's values,
    not with a running total over the file.
    """
    sums = np.array(values, dtype=float)
    heads = np.flatnonzero(dataset._first_rows())
    lengths = np.diff(np.append(heads, len(dataset)))
    longest_first = heads[np.argsort(-lengths, kind="stable")]
    longer = len(heads) - np.cumsum(np.bincount(lengths))
    for k in range(1, lengths.max()):
        rows = longest_first[:longer[k]] + k
        sums[rows] = decay * sums[rows - 1] + sums[rows]
    return sums


# -- risk-set kernel -------------------------------------------------------------


class _RiskSets:
    """Interval rows mapped onto a sorted time grid.

    Row i is at risk at grid time u_k (start_i < u_k <= stop_i) when
    lo_i <= k < hi_i, so the at-risk sum of x at u_k is
    sum_{hi > k} x - sum_{lo > k} x: two bincounts and a suffix cumsum.
    A row that has not yet entered at u_k (lo > k) still passes through
    both, so the rounding error at u_k is relative to the sum of |x| over
    the rows with hi > k, entered or not, not to the at-risk total: under
    3e-15 of that sum on 4 000 rows.  Where the rows that enter later are
    R times heavier than those at risk, the at-risk sum is off by up to
    about R * 1e-15 relative (1.9e-12, 2.7e-7 and 1.6e-3 measured at
    R = 1e4, 1e8 and 1e12, on 2 000 subjects with a light row and then a
    heavy one).

    ``at_risk`` and ``at_stop`` take one row vector or a (columns, rows)
    block.  A block costs one bincount per row vector, each summed in row
    order, and one cumsum along the grid, so its result equals the stacked
    results of the vectors bit for bit.
    """

    def __init__(self, grid, lo, hi):
        self.grid, self.lo, self.hi = grid, lo, hi

    @classmethod
    def map(cls, grid, start, stop):
        return cls(grid, *np.searchsorted(grid, (start, stop), side="right"))

    def cut(self, rows, times):
        """The kernel of the rows with indices ``rows`` on the grid times
        selected by the mask ``times``.  A bin index becomes the number of
        kept times below it, which is the index :meth:`map` would give on
        the kept grid, so the cut kernel equals the one :meth:`map` builds
        for those rows and times."""
        below = np.concatenate(([0], np.cumsum(times)))
        return _RiskSets(self.grid[times], below.take(self.lo.take(rows)),
                         below.take(self.hi.take(rows)))

    def _bins(self, index, x):
        """Sums of ``x``, one vector or a (columns, rows) block, into the
        len(grid) + 1 bins that ``index`` gives each row, one bincount per
        vector."""
        m = len(self.grid) + 1
        if np.ndim(x) == 1:
            return np.bincount(index, x, m)
        return np.array([np.bincount(index, v, m) for v in x])

    def at_risk(self, x):
        """Sum of ``x`` over the rows at risk at each grid time."""
        diff = self._bins(self.hi, x) - self._bins(self.lo, x)
        return np.cumsum(diff[..., ::-1], axis=-1)[..., :-1][..., ::-1]

    def at_stop(self, x):
        """Sum of ``x`` over the rows stopping at each grid time; ``x`` must
        be zero on rows that stop off the grid."""
        return self._bins(self.hi, x)[..., 1:]


@dataclass(frozen=True, eq=False)
class _Rows:
    """What the estimators read of a dataset: its rows' covariates, events,
    treatment and case weights, the kernel on its event times, and the
    case-weighted event count ``d`` at each of them (positive at every
    grid time)."""

    covariates: np.ndarray
    event: np.ndarray
    treatment: np.ndarray
    weights: np.ndarray
    risk: _RiskSets
    d: np.ndarray


def _risk_sets(dataset) -> _Rows:
    """The rows and kernel the estimators read.  For a dataset they are
    built once and cached on it; for a bootstrap replicate they are the
    parent's, cut down to the drawn rows and the replicate's event times."""
    if isinstance(dataset, _Replicate):
        return dataset._cut(_risk_sets(dataset._parent))
    rows = dataset._cache.get("rows")
    if rows is None:
        grid = np.unique(dataset.stop[dataset.event == 1])
        rs = _RiskSets.map(grid, dataset.start, dataset.stop)
        rows = dataset._cache["rows"] = _Rows(
            dataset.covariates, dataset.event, dataset.treatment,
            dataset.weights, rs, rs.at_stop(dataset.weights * dataset.event))
    return rows


def _risk_prefix(grid, start, stop, weights):
    """Sum of ``weights`` over rows at risk at each grid time."""
    return _RiskSets.map(grid, start, stop).at_risk(weights)


def _risk_score(r: _Rows, coef):
    """Each row's case weight times exp(coef . z), its weight in the Cox
    model's risk-set sums, formed in place.  The linear predictor is a
    plain einsum, not a BLAS product: no sum over rows or grid times in
    this module goes through BLAS, so no result depends on the BLAS thread
    count."""
    score = np.einsum("ij,j->i", r.covariates, coef)
    np.exp(score, out=score)
    return np.multiply(score, r.weights, out=score)


# -- nonparametric estimators ----------------------------------------------------


def _breslow(dataset: SurvivalDataset, coef=None) -> StepFunction:
    """Cumulative hazard with jumps d / sum(Y w exp(coef z)) at the event
    times: the Breslow baseline, or Nelson-Aalen without ``coef``."""
    r = _risk_sets(dataset)
    s0 = r.risk.at_risk(r.weights if coef is None else _risk_score(r, coef))
    if np.any(s0 <= 0):
        raise DataError("empty risk set at an event time")
    values = np.cumsum(r.d / s0)
    if not np.all(np.isfinite(values)):
        raise EstimationError("non-finite cumulative hazard (a diverged "
                              "Cox fit?)")
    return StepFunction(r.risk.grid, values, 0.0)


def nelson_aalen(dataset: SurvivalDataset) -> StepFunction:
    """Cumulative-hazard estimator: jumps d/Y at event times."""
    return _breslow(dataset)


def kaplan_meier(dataset: SurvivalDataset) -> StepFunction:
    """Product-limit survival estimator; starts at 1."""
    r = _risk_sets(dataset)
    y = r.risk.at_risk(r.weights)
    return StepFunction(r.risk.grid, np.cumprod(1.0 - r.d / y), 1.0)


# -- Cox model with time-dependent covariates -------------------------------------


@dataclass(frozen=True, eq=False)
class CoxFit:
    coef: np.ndarray
    loglik: float
    iterations: int
    grad_norm: float
    information: np.ndarray
    converged: bool = True


def _cox_stats(r: _Rows, gamma):
    z, d = r.covariates, r.d
    n, p = z.shape
    z_events_sum = np.einsum("i,ij->j", r.weights * r.event, z)
    # one kernel call sums w, w z_j and w z_j z_k over every risk set, with
    # w the risk score; the block is filled in place
    block = np.empty((1 + p + p * p, n))
    block[0] = _risk_score(r, gamma)
    zt = block[1:1 + p]
    zt[:] = z.T
    np.multiply(zt[:, None], zt[None], out=block[1 + p:].reshape(p, p, n))
    block[1:] *= block[0]
    sums = r.risk.at_risk(block)
    s0, s1, s2 = sums[0], sums[1:1 + p], sums[1 + p:].reshape(p, p, -1)
    if np.any(s0 <= 0):
        raise DataError("empty risk set at an event time")
    mean = s1 / s0
    loglik = float(np.einsum("j,j->", z_events_sum, gamma)
                   - np.sum(d * np.log(s0)))
    grad = z_events_sum - np.einsum("t,jt->j", d, mean)
    info = np.einsum("t,jkt->jk", d, s2 / s0) \
        - np.einsum("t,jt,kt->jk", d, mean, mean)
    return loglik, grad, info


def log_partial_likelihood(dataset: SurvivalDataset, gamma) -> float:
    """Breslow-ties log partial likelihood at ``gamma`` (used for
    finite-difference checks of the analytic score)."""
    gamma = np.asarray(gamma, dtype=float)
    return _cox_stats(_risk_sets(dataset), gamma)[0]


def fit_cox_td(dataset: SurvivalDataset) -> CoxFit:
    """Damped-Newton fit of the time-dependent-covariate Cox model.

    Under separation the partial likelihood rises without bound as |gamma|
    grows (a monotone likelihood, Heinze & Schemper 2001), and the Newton
    steps stop where its slope falls under tolerance, far out and with the
    information all but gone.  Such a fit is returned with ``converged``
    False: some diagonal entry of its information is below
    ``SEPARATION_INFO_RATIO`` times the same entry at gamma = 0.
    """
    if dataset.n_events == 0:
        raise EstimationError("no events: the partial likelihood is empty")
    r = _risk_sets(dataset)
    gamma = np.zeros(r.covariates.shape[1])
    loglik, grad, info = _cox_stats(r, gamma)
    floor = SEPARATION_INFO_RATIO * np.diag(info)
    for it in range(1, MAX_ITER + 1):
        gnorm = float(np.max(np.abs(grad)))
        if gnorm <= GRAD_TOL:
            return CoxFit(gamma, loglik, it - 1, gnorm, info,
                          bool(np.all(np.diag(info) >= floor)))
        try:
            step = np.linalg.solve(info, grad)
        except np.linalg.LinAlgError:
            raise EstimationError(
                "singular information matrix (collinear design?)") from None
        t = 1.0
        # monotonicity slack at float64 resolution; without it the line
        # search rejects the final full Newton step near the optimum and the
        # gradient stalls above tolerance
        slack = 1e-12 * (1.0 + abs(loglik))
        while True:
            cand = gamma + t * step
            cand_ll, cand_grad, cand_info = _cox_stats(r, cand)
            if cand_ll >= loglik - slack:
                gamma, loglik, grad, info = cand, cand_ll, cand_grad, cand_info
                break
            t *= 0.5
            if t < STEP_FLOOR:
                raise EstimationError(
                    f"step halving floor reached at iteration {it} "
                    f"(gradient norm {gnorm:.3e}; monotone likelihood?)")
    raise EstimationError(
        f"Newton iteration did not converge in {MAX_ITER} steps "
        f"(gradient norm {float(np.max(np.abs(grad))):.3e})")


def breslow_baseline(fit: CoxFit, dataset: SurvivalDataset) -> StepFunction:
    """Cumulative baseline hazard: jumps d / sum(Y exp(gamma z)) at event
    times of the supplied (treatment a=0) data."""
    return _breslow(dataset, fit.coef)


# -- treatment hazard estimator ----------------------------------------------------


def estimate_rho(dataset: SurvivalDataset, fit: CoxFit) -> StepFunction:
    """Cumulative additive treatment hazard R(t).

    R(t) is the Nelson-Aalen estimate of group a=1 minus an integral over
    group a=0 event times whose integrand is the group-1 risk-weighted
    exp(gamma z) sum divided by the product of the group-1 risk count and
    the group-0 risk-weighted exp(gamma z) sum.  The estimate truncates with
    a warning when a needed risk set is empty, and warns if the final value
    is negative (labeling mismatch or noise).
    """
    r = _risk_sets(dataset)
    if not np.any(r.treatment == 1):
        raise EstimationError("group a=1 is empty")
    if not np.any(r.treatment == 0):
        raise EstimationError("group a=0 is empty")
    # one kernel serves both groups: a group's sums weight the other's rows
    # 0, and one call of each kind sums every row vector needed
    rs = r.risk
    arms = np.stack([r.treatment == 1, r.treatment == 0])
    d1, d0 = rs.at_stop(arms * (r.weights * r.event))
    block = np.empty((3, len(r.weights)))
    np.multiply(arms[0], r.weights, out=block[0])
    np.multiply(arms, _risk_score(r, fit.coef), out=block[1:])
    y1, e1, e0 = rs.at_risk(block)

    # every grid time is an event time; the increment there needs group 1
    # at risk and, when group 0 has an event, a positive group-0 sum
    bad = np.flatnonzero((y1 <= 0) | ((d0 > 0) & (e0 <= 0)))
    cut = int(bad[0]) if bad.size else len(rs.grid)
    if bad.size:
        warnings.warn(f"empty risk set at t={rs.grid[cut]:g}; "
                      "truncating the cumulative treatment hazard there")
    grid = rs.grid[:cut]
    if grid.size == 0:
        return StepFunction(np.array([]), np.array([]), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        inc = np.where(d1[:cut] > 0, d1[:cut] / y1[:cut], 0.0)
        inc -= np.where(d0[:cut] > 0,
                        d0[:cut] * e1[:cut] / (y1[:cut] * e0[:cut]), 0.0)
    values = np.cumsum(inc)
    if not np.all(np.isfinite(values)):
        raise EstimationError("non-finite cumulative treatment hazard (a "
                              "diverged Cox fit?)")
    if values[-1] < 0:
        warnings.warn("cumulative treatment hazard is negative at the last "
                      "event time; check the group labeling (a=0 should be "
                      "the lower-hazard group) or treat as noise")
    return StepFunction(grid, values, 0.0)


# -- effect curves -------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EffectCurves:
    """Relative-survival direct/indirect effect curves on a common grid."""

    times: np.ndarray
    sde: np.ndarray
    sie: np.ndarray
    total: np.ndarray

    def __post_init__(self):
        # a diverged fit gives SDE = inf and total = 0, whose product NaN
        # would pass the identity check below
        curves = {"SDE": self.sde, "SIE": self.sie, "total": self.total}
        bad = [name for name, c in curves.items() if not np.all(np.isfinite(c))]
        if bad:
            raise EstimationError(f"non-finite {', '.join(bad)} on the output "
                                  "grid (a diverged Cox fit?)")
        if np.any(np.abs(self.sde * self.sie - self.total) > 1e-10):
            raise EstimationError("SDE * SIE != total on the output grid")


def effect_curves(rho_hat: StepFunction, km_1: StepFunction,
                  km_0: StepFunction) -> EffectCurves:
    """Effects of a = 1 against a* = 0: SDE(t) = exp(-R(t)); total(t) =
    KM_1(t)/KM_0(t); SIE = total / SDE.  The grid is the union of all input
    jump times, truncated where the reference (a = 0) survival hits zero."""
    grid = np.unique(np.concatenate([rho_hat.times, km_1.times, km_0.times]))
    if grid.size == 0:
        raise EstimationError("no jump times: nothing to evaluate")
    s_ref = km_0(grid)
    zero = np.nonzero(s_ref <= 0)[0]
    if zero.size:
        grid = grid[:int(zero[0])]
        s_ref = s_ref[:int(zero[0])]
        if grid.size == 0:
            raise EstimationError("reference survival is zero from the start")
    with np.errstate(over="ignore"):  # EffectCurves rejects an inf SDE
        sde = np.exp(-rho_hat(grid))
    total = km_1(grid) / s_ref
    sie = total / sde
    return EffectCurves(grid, sde, sie, total)


# -- bootstrap ------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BootstrapBands:
    grid: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    n_boot: int
    n_dropped: int
    replicates: np.ndarray | None = None
    drops: dict = field(default_factory=dict)  # exception class name -> count


class _Replicate:
    """A subject resample of ``parent`` as a weight view: the parent's rows
    with case weights ``weights``, zero on the rows of subjects not drawn.

    The estimators read it through :func:`_risk_sets`, and ``group`` and
    ``n_events`` read the weights; none of them copies a row.  Any other
    attribute is read from the copy :func:`resample_subjects` returns, made
    on first use, so an opaque statistic sees what it saw on the copy.
    ``arms`` holds the parent's treatment arms, split off once and shared by
    the replicates of one bootstrap.
    """

    def __init__(self, parent: SurvivalDataset, weights, arms):
        self._parent, self._weights, self._arms = parent, weights, arms
        self._copy = None

    @property
    def n_events(self):
        return (self._weights * self._parent.event).sum().item()

    def group(self, a) -> "_Replicate":
        if a not in self._arms:
            mask = self._parent.treatment == a
            self._arms[a] = self._parent.restrict(mask), np.flatnonzero(mask)
        arm, rows = self._arms[a]
        weights = self._weights.take(rows)
        if not weights.any():
            raise DataError("restriction selects no rows")
        return _Replicate(arm, weights, {})

    def _cut(self, rows: _Rows) -> _Rows:
        """The parent's rows and kernel cut down to the drawn rows and to
        the grid times where the replicate has an event."""
        w = self._weights
        d = rows.risk.at_stop(w * rows.event)
        drawn, times = np.flatnonzero(w), d > 0
        return _Rows(rows.covariates.take(drawn, axis=0),
                     rows.event.take(drawn), rows.treatment.take(drawn),
                     w.take(drawn), rows.risk.cut(drawn, times), d[times])

    def _materialize(self) -> SurvivalDataset:
        if self._copy is None:
            drawn = self._weights > 0
            self._copy = replace(self._parent.restrict(drawn),
                                 weights=self._weights[drawn])
        return self._copy

    def __len__(self):
        return len(self._materialize())

    def __getattr__(self, name):
        if name.startswith("__"):
            raise AttributeError(name)
        return getattr(self._materialize(), name)


def _draw(dataset: SurvivalDataset, index, rng):
    """Case weights of one subject resample: each row's weight times the
    number of times its subject is drawn; ``index`` maps rows to subjects."""
    n = int(index[-1]) + 1
    picks = rng.integers(0, n, size=n)
    return dataset.weights * np.bincount(picks, minlength=n).take(index)


def _subject_index(dataset: SurvivalDataset):
    return np.cumsum(dataset._first_rows()) - 1


def resample_subjects(dataset: SurvivalDataset, rng) -> SurvivalDataset:
    """Draw subjects with replacement.  A subject drawn k times keeps its
    rows with k times its case weight; subjects never drawn are dropped."""
    weights = _draw(dataset, _subject_index(dataset), rng)
    return _Replicate(dataset, weights, {})._materialize()


def bootstrap(dataset: SurvivalDataset, statistic, n_boot, seed, grid=None,
              keep_replicates=False) -> BootstrapBands:
    """Pointwise 2.5/97.5 percentile bands for ``statistic`` (a callable
    dataset -> StepFunction) under subject resampling.

    A replicate is a weight view of ``dataset`` (see :class:`_Replicate`)
    that gives every estimator here the result it gives on the copy
    :func:`resample_subjects` draws from the same stream, and serves any
    other attribute from that copy.  It is not a ``SurvivalDataset``, so a
    statistic must read it through attributes, not ``isinstance`` or
    ``dataclasses.replace``.

    Each replicate uses an independent stream derived from (seed, replicate)
    so results do not depend on execution order.  Failing replicates are
    dropped and counted by exception class in ``drops``; more than 20% drops
    is an error.  ``n_boot`` * (rows + grid points) above BOOT_BUDGET is a
    ``SizeError``, raised before the first replicate.

    The replicate values are held once, in one ``n_boot`` x grid matrix,
    and both bands come from one selection made in place over its kept
    rows; ``keep_replicates`` returns a copy of those rows taken first.
    """
    check_count(n_boot, "the number of bootstrap replicates", 2)
    check_count(seed, "the bootstrap seed", 0)
    if grid is None:
        grid = np.unique(dataset.stop[dataset.event == 1])
    grid = np.asarray(grid, dtype=float)
    n_rows = len(dataset.stop)
    if n_boot * (n_rows + len(grid)) > BOOT_BUDGET:
        raise SizeError(f"{n_boot} bootstrap replicates of {n_rows} rows and "
                        f"{len(grid)} grid points exceed the {BOOT_BUDGET} "
                        f"bootstrap budget")
    index, arms = _subject_index(dataset), {}
    # kept replicates fill the first rows in order; the rows past the last
    # kept one are never read
    sample = np.empty((n_boot, len(grid)))
    kept, drops, first = 0, {}, {}
    for rep in range(n_boot):
        rng = np.random.default_rng([int(seed), rep])
        replicate = _Replicate(dataset, _draw(dataset, index, rng), arms)
        try:
            sample[kept] = statistic(replicate)(grid)
        except (EstimationError, DataError) as exc:
            reason = type(exc).__name__
            drops[reason] = drops.get(reason, 0) + 1
            first.setdefault(reason, str(exc))
        else:
            kept += 1
    dropped = n_boot - kept
    if dropped > 0.2 * n_boot:
        reasons = "; ".join(f"{k} x{v}, first: {first[k]}"
                            for k, v in drops.items())
        raise EstimationError(
            f"{dropped}/{n_boot} bootstrap replicates failed ({reasons})")
    sample = sample[:kept]
    replicates = sample.copy() if keep_replicates else None
    # one selection for both bands; it reorders ``sample`` in place, so the
    # returned replicates are copied before it
    lower, upper = np.percentile(sample, (2.5, 97.5), axis=0,
                                 overwrite_input=True)
    return BootstrapBands(grid, lower, upper, n_boot, dropped, replicates,
                          drops)


# -- simulation oracle ------------------------------------------------------------------


@dataclass(frozen=True)
class SimulationConfig:
    """Generator for lambda(t) = rho*a + psi(t) exp(gamma * m_t) with a
    piecewise-constant baseline and a mediator re-measured at visit times."""

    n_subjects: int
    rho: float
    gamma: float
    psi_times: tuple[float, ...] = (0.0,)
    psi_values: tuple[float, ...] = (0.5,)
    visit_times: tuple[float, ...] = ()
    horizon: float = 5.0
    mediator_base: float = 0.0
    mediator_treatment_shift: float = 0.0
    mediator_sd: float = 1.0
    treated_fraction: float = 0.5

    def __post_init__(self):
        if (not self.psi_times or len(self.psi_times) != len(self.psi_values)
                or self.psi_times[0] != 0.0):
            raise ConfigurationError("psi breakpoints must start at 0 and "
                                     "match the value list")
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        check_count(self.n_subjects, "n_subjects", 0)
        if not self.mediator_sd >= 0:
            raise ConfigurationError("mediator_sd must not be negative")
        if not 0 <= self.treated_fraction <= 1:
            raise ConfigurationError("treated_fraction must lie in [0, 1]")


def simulate_dataset(config: SimulationConfig, seed) -> SurvivalDataset:
    """Draw event times by inversion of the piecewise-constant hazard;
    intervals split at baseline breakpoints and mediator visits."""
    rng = np.random.default_rng(seed)
    psi = StepFunction(np.asarray(config.psi_times),
                       np.asarray(config.psi_values),
                       config.psi_values[0])
    visits = sorted(v for v in config.visit_times if 0 < v < config.horizon)
    knots = sorted({0.0, config.horizon}
                   | {t for t in config.psi_times if 0 < t < config.horizon}
                   | set(visits))
    n_treated = int(round(config.n_subjects * config.treated_fraction))

    cols = {"subject": [], "start": [], "stop": [], "event": [],
            "treatment": [], "m": []}
    for i in range(config.n_subjects):
        a = 1 if i < n_treated else 0
        m = config.mediator_base + config.mediator_treatment_shift * a \
            + config.mediator_sd * rng.standard_normal()
        target = rng.exponential()
        acc = 0.0
        for lo, hi in zip(knots[:-1], knots[1:]):
            if lo in visits:
                m = config.mediator_base + config.mediator_treatment_shift * a \
                    + config.mediator_sd * rng.standard_normal()
            lam = config.rho * a + psi(lo) * np.exp(config.gamma * m)
            if lam < 0:
                raise ConfigurationError(
                    f"negative hazard {lam:g} at t={lo:g}; adjust parameters")
            seg = lam * (hi - lo)
            death = acc + seg >= target and lam > 0
            stop = lo + (target - acc) / lam if death else hi
            cols["subject"].append(f"s{i}")
            cols["start"].append(lo)
            cols["stop"].append(stop)
            cols["event"].append(1 if death else 0)
            cols["treatment"].append(a)
            cols["m"].append(m)
            if death:
                break
            acc += seg
    return SurvivalDataset.build(cols["subject"], cols["start"], cols["stop"],
                                 cols["event"], cols["treatment"],
                                 np.array(cols["m"]), ("m",))


# -- full pipeline -----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EstimationResult:
    fit: CoxFit
    rho_hat: StepFunction
    curves: EffectCurves


def estimate_effects(dataset: SurvivalDataset) -> EstimationResult:
    """Fit the Cox model on the reference group a* = 0, estimate the
    cumulative treatment hazard, and assemble the effect curves of a = 1
    against a* = 0."""
    ref = dataset.group(0)
    fit = fit_cox_td(ref)
    rho_hat = estimate_rho(dataset, fit)
    curves = effect_curves(rho_hat, kaplan_meier(dataset.group(1)),
                           kaplan_meier(ref))
    return EstimationResult(fit, rho_hat, curves)
