"""Aggregation of redundant crowd labels into compositional reference labels.

Submissions from many labelers, each selecting one or more of the 7
component categories or "?", are merged by a collapsed Gibbs sampler that
jointly estimates a per-component label distribution and a per-labeler
confusion matrix.  Labeler reliability is expressed through Dirichlet
pseudo-count priors, so experts can be trusted more than unknown labelers.

Each vote carries a latent true category.  One epoch resamples every vote
from its full conditional

    P(z_v = k) proportional to
        (alpha_k + n[i, k]) * (B[l, k, r] + m[l, k, r]) / sum_r'(B[l, k, r'] + m[l, k, r'])

where n counts (weighted) votes per component and category, m counts votes
per labeler, category, and response, and both counts exclude the vote
being resampled.  After a burn-in period, the per-epoch normalized
(alpha + n) rows and (B + m) matrices are averaged to produce the final
labels and confusion estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bundles import KeyedTable, read_csv_rows
from .categories import (
    N_CATEGORIES,
    N_RESPONSES,
    RESPONSE_INDEX,
    RESPONSES,
)
from .errors import ConfigError, DataError

MIN_COMPONENTS_PER_LABELER = 10
DEFAULT_BURN_IN = 200
DEFAULT_SAMPLING_EPOCHS = 800

#: Empirical class frequencies divided by 100, used as Dirichlet priors
#: over component labels for the two labeled corpora.
TRAINING_CLASS_PRIOR = (0.002973, 0.001766, 0.00079, 0.00015, 0.000573, 0.00073, 0.003022)
TEST_CLASS_PRIOR = (0.002263, 0.001537, 0.001753, 0.000155, 0.00063, 0.001839, 0.001822)

VOTES_CSV_HEADER = (
    "labeler_id",
    "component_id",
    "brain",
    "muscle",
    "eye",
    "heart",
    "line_noise",
    "channel_noise",
    "other",
    "question_mark",
    "is_expert",
)


class _VoteFields(NamedTuple):
    labeler_id: str
    component_id: str
    response: str  # one of the 7 categories or "?"
    weight: float = 1.0


class Vote(_VoteFields):
    """One (possibly fractional) response by one labeler on one component.

    Votes and submissions are named tuples because a vote log makes tens
    of thousands of them, and a tuple is built in one step where a frozen
    dataclass sets each field through ``object.__setattr__``.  Each is
    immutable, and equal to and hashed as the tuple of its fields.
    """

    __slots__ = ()

    def __new__(cls, labeler_id: str, component_id: str, response: str, weight: float = 1.0):
        if response not in RESPONSE_INDEX:
            raise DataError(f"unknown response {response!r}")
        if not 0.0 < weight <= 1.0:
            raise DataError(f"vote weight must be in (0, 1], got {weight}")
        return tuple.__new__(cls, (labeler_id, component_id, response, weight))


class Submission(NamedTuple):
    """A raw form submission: one labeler ticking one or more responses."""

    labeler_id: str
    component_id: str
    responses: tuple


@dataclass
class LabelerPrior:
    """Dirichlet pseudo-counts for one labeler's 7x8 confusion matrix."""

    confusion_prior: np.ndarray

    def __post_init__(self):
        self.confusion_prior = np.asarray(self.confusion_prior, dtype=np.float64)
        if self.confusion_prior.shape != (N_CATEGORIES, N_RESPONSES):
            raise ConfigError(
                f"confusion prior must be {N_CATEGORIES}x{N_RESPONSES}, "
                f"got {self.confusion_prior.shape}"
            )
        if not np.all(self.confusion_prior > 0):
            raise ConfigError("confusion prior entries must all be positive")


@dataclass
class ClassPrior:
    """Dirichlet pseudo-counts over the 7 component categories."""

    alpha: np.ndarray

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        if self.alpha.shape != (N_CATEGORIES,):
            raise ConfigError(f"alpha must have {N_CATEGORIES} entries, got {self.alpha.shape}")
        if not np.all(self.alpha > 0):
            raise ConfigError("alpha entries must all be positive")


@dataclass
class CrowdResult:
    """Aggregated labels and labeler skill estimates."""

    labels: KeyedTable  # sorted component ids -> (7,) label vectors, one array
    labeler_confusions: KeyedTable  # sorted labeler ids -> (7, 8) row-stochastic matrices
    seed: int
    diagnostics: dict = field(default_factory=dict)
    #: collapsed log joint of votes and latent categories, priors included,
    #: after each sampling epoch
    log_joint: list = field(default_factory=list)


def default_priors(mode: str) -> LabelerPrior:
    """Stock confusion priors: ``training-experts``, ``training-unknown``,
    or ``test-experts``.

    Each is diagonally dominant over the 7 category responses with a flat
    floor elsewhere (including the "?" column); the modes differ in how
    strongly they presume the labeler is accurate.
    """
    settings = {
        "training-experts": (50.01, 0.01),
        "training-unknown": (1.25, 0.25),
        "test-experts": (5.0, 0.01),
    }
    if mode not in settings:
        raise ConfigError(f"unknown prior mode {mode!r}; expected one of {sorted(settings)}")
    diagonal, off = settings[mode]
    prior = np.full((N_CATEGORIES, N_RESPONSES), off)
    prior[np.arange(N_CATEGORIES), np.arange(N_CATEGORIES)] = diagonal
    return LabelerPrior(prior)


def expand_submissions(submissions) -> list:
    """Turn raw multi-selection submissions into weighted single-response votes.

    A submission ticking k distinct responses becomes k votes of weight
    1/k, so every submission contributes total weight 1 regardless of how
    many boxes were ticked.
    """
    votes = []
    for sub in submissions:
        distinct = []
        for resp in sub.responses:
            if resp not in RESPONSE_INDEX:
                raise DataError(f"unknown response {resp!r} from labeler {sub.labeler_id!r}")
            if resp not in distinct:
                distinct.append(resp)
        if not distinct:
            raise DataError(
                f"labeler {sub.labeler_id!r} submitted an empty selection "
                f"for component {sub.component_id!r}"
            )
        weight = 1.0 / len(distinct)
        for resp in distinct:
            votes.append(Vote(sub.labeler_id, sub.component_id, resp, weight))
    return votes


def _draw(cumulative: np.ndarray, u: float) -> int:
    """Inverse-CDF draw from unnormalized cumulative weights, u in [0, total)."""
    k = int(np.searchsorted(cumulative, u, side="right"))
    return min(k, cumulative.shape[0] - 1)


def filter_labelers(votes, min_votes: int = MIN_COMPONENTS_PER_LABELER) -> list:
    """Drop all votes from labelers who labeled fewer than min_votes components."""
    seen: dict = {}
    for vote in votes:
        seen.setdefault(vote.labeler_id, set()).add(vote.component_id)
    keep = {lab for lab, comps in seen.items() if len(comps) >= min_votes}
    return [v for v in votes if v.labeler_id in keep]


def validate_schedule(burn_in: int, sampling_epochs: int) -> None:
    """Reject a negative burn-in or fewer than one sampling epoch."""
    if burn_in < 0 or sampling_epochs < 1:
        raise ConfigError("burn_in must be >= 0 and sampling_epochs >= 1")


def _log_gamma_sum(values) -> float:
    """The sum of ``math.lgamma`` over the entries, one call per distinct value.

    Counts repeat across components and labelers (a 4000-component log
    holds about 120 distinct values among 28 000 component counts), so each
    distinct value's log-gamma is weighted by how often it occurs.
    """
    distinct, counts = np.unique(values, return_counts=True)
    return float(np.array([math.lgamma(v) for v in distinct.tolist()]) @ counts)


def cllda_fit(
    votes,
    labeler_priors: dict,
    class_prior: ClassPrior,
    burn_in: int = DEFAULT_BURN_IN,
    sampling_epochs: int = DEFAULT_SAMPLING_EPOCHS,
    seed: int = 0,
) -> CrowdResult:
    """Estimate component labels and labeler confusions by collapsed Gibbs sampling.

    Parameters
    ----------
    votes : iterable of Vote (typically the output of ``expand_submissions``
        then ``filter_labelers``).
    labeler_priors : mapping from labeler_id to LabelerPrior; every labeler
        appearing in ``votes`` must be present.
    class_prior : Dirichlet prior over the 7 categories.
    burn_in, sampling_epochs : epochs to discard, then to average over.
    seed : seeds both the initial assignment and every sweep order.

    Returns
    -------
    CrowdResult with one label vector per component (sums to 1), one
    row-stochastic 7x8 confusion matrix per labeler, and the collapsed log
    joint after each sampling epoch.

    The sweep keeps the counts as nested lists of Python floats and
    unrolls the 7 conditional weights, which cost far less per vote than
    array operations and round identically.  Each epoch draws its visiting
    order with one ``rng.permutation`` and then all its uniforms with one
    ``rng.random(n_votes)``, the same stream as one scalar draw per vote.
    The lists become arrays only once per sampling epoch, for the running
    averages and the log joint.
    """
    votes = list(votes)
    if not votes:
        raise DataError("no votes to aggregate")
    validate_schedule(burn_in, sampling_epochs)

    component_ids = sorted({v.component_id for v in votes})
    labeler_ids = sorted({v.labeler_id for v in votes})
    comp_index = {c: i for i, c in enumerate(component_ids)}
    lab_index = {l: i for i, l in enumerate(labeler_ids)}

    missing = [l for l in labeler_ids if l not in labeler_priors]
    if missing:
        raise ConfigError(f"labelers without a prior: {missing}")
    prior_b = np.stack([labeler_priors[l].confusion_prior for l in labeler_ids])
    prior_b_rowsum = prior_b.sum(axis=2)
    alpha = class_prior.alpha

    n_votes = len(votes)
    comp_of = np.array([comp_index[v.component_id] for v in votes])
    lab_of = np.array([lab_index[v.labeler_id] for v in votes])
    resp_of = np.array([RESPONSE_INDEX[v.response] for v in votes])
    weight_of = np.array([v.weight for v in votes])

    rng = np.random.default_rng(seed)
    n_comp, n_lab = len(component_ids), len(labeler_ids)

    # Start each latent category at the observed response (the modal
    # assumption for a competent labeler); "?" responses draw from the
    # class prior.  Starting in the data-anchored mode avoids the
    # label-swapped local modes a random start can fall into.
    z = resp_of.copy()
    alpha_cumulative = np.cumsum(alpha)
    for v in np.flatnonzero(resp_of >= N_CATEGORIES):
        z[v] = _draw(alpha_cumulative, rng.random() * alpha_cumulative[-1])

    # Counts carry the priors from the start, so the conditional is just
    # count products.  The labeler counts are kept response-major
    # ((labeler, response, category)), so each vote touches three rows of
    # 7 categories.
    comp_counts = np.tile(alpha, (n_comp, 1))
    lab_counts = np.ascontiguousarray(np.swapaxes(prior_b, 1, 2)).copy()
    lab_rowsum = prior_b_rowsum.copy()
    np.add.at(comp_counts, (comp_of, z), weight_of)
    np.add.at(lab_counts, (lab_of, resp_of, z), weight_of)
    np.add.at(lab_rowsum, (lab_of, z), weight_of)
    comp_counts, lab_counts, lab_rowsum = (
        comp_counts.tolist(), lab_counts.tolist(), lab_rowsum.tolist())

    label_sum = np.zeros((n_comp, N_CATEGORIES))
    confusion_sum = np.zeros((n_lab, N_CATEGORIES, N_RESPONSES))
    log_joint = []
    # the Dirichlet normalizers of the priors, constant over the chain
    prior_log_norm = (
        n_comp * (_log_gamma_sum(alpha.sum()) - _log_gamma_sum(alpha))
        + _log_gamma_sum(prior_b_rowsum) - _log_gamma_sum(prior_b)
    )

    # Each vote's three count rows, resolved once (the lists are mutated in
    # place, so the references stay current), and its weight as one float
    # object per distinct value.  Every update touches the weight's
    # reference count, and one object per vote grew the working set so much
    # that two chains run side by side on a 2-vCPU host took twice as long.
    weights = {}
    vote_rows = [
        (comp_counts[c], lab_counts[l][r], lab_rowsum[l], weights.setdefault(w, w))
        for c, l, r, w in zip(comp_of.tolist(), lab_of.tolist(), resp_of.tolist(),
                              weight_of.tolist())
    ]
    z_list = z.tolist()
    for epoch in range(burn_in + sampling_epochs):
        order = rng.permutation(n_votes).tolist()
        uniforms = rng.random(n_votes).tolist()
        for v, u in zip(order, uniforms):
            comp_row, lab_row, rowsum, w = vote_rows[v]
            k = z_list[v]
            comp_row[k] -= w
            lab_row[k] -= w
            rowsum[k] -= w

            # running sums of comp_row[j] * lab_row[j] / rowsum[j] in
            # category order; the last is the normalizer, and the draw is the
            # first sum above u times it
            a0, a1, a2, a3, a4, a5, a6 = comp_row
            b0, b1, b2, b3, b4, b5, b6 = lab_row
            s0, s1, s2, s3, s4, s5, s6 = rowsum
            c0 = a0 * b0 / s0
            c1 = c0 + a1 * b1 / s1
            c2 = c1 + a2 * b2 / s2
            c3 = c2 + a3 * b3 / s3
            c4 = c3 + a4 * b4 / s4
            c5 = c4 + a5 * b5 / s5
            c6 = c5 + a6 * b6 / s6
            u *= c6
            k = (0 if u < c0 else 1 if u < c1 else 2 if u < c2 else 3 if u < c3
                 else 4 if u < c4 else 5 if u < c5 else 6)

            z_list[v] = k
            comp_row[k] += w
            lab_row[k] += w
            rowsum[k] += w

        if epoch >= burn_in:
            comp_array = np.array(comp_counts)
            lab_array = np.array(lab_counts)
            rowsum_array = np.array(lab_rowsum)
            comp_totals = comp_array.sum(axis=1, keepdims=True)
            label_sum += comp_array / comp_totals
            confusion_sum += np.swapaxes(lab_array / rowsum_array[:, None, :], 1, 2)
            log_joint.append(prior_log_norm + (
                _log_gamma_sum(comp_array) - _log_gamma_sum(comp_totals)
                + _log_gamma_sum(lab_array) - _log_gamma_sum(rowsum_array)
            ))

    return CrowdResult(
        labels=KeyedTable(tuple(component_ids), label_sum / sampling_epochs),
        labeler_confusions=KeyedTable(tuple(labeler_ids), confusion_sum / sampling_epochs),
        seed=seed,
        diagnostics={"n_votes": n_votes, "n_components": n_comp, "n_labelers": n_lab},
        log_joint=log_joint,
    )


def gelman_rubin(traces):
    """Potential scale reduction R-hat (Gelman & Rubin, 1992) of equal-length traces.

    ``traces`` holds one trace per chain.  R-hat near 1 says the chains
    agree; it is ``None`` when undefined (fewer than 2 chains or 2 draws,
    or no variation within the chains).
    """
    x = np.asarray(traces, dtype=np.float64)
    m, n = x.shape
    if m < 2 or n < 2:
        return None
    within = x.var(axis=1, ddof=1).mean()
    if within == 0:
        return None
    between = n * x.mean(axis=1).var(ddof=1)
    return float(np.sqrt(((n - 1) / n * within + between / n) / within))


def read_votes_csv(path):
    """Parse a vote log CSV into submissions plus per-labeler expert flags.

    The required header is ``labeler_id,component_id,brain,muscle,eye,
    heart,line_noise,channel_noise,other,question_mark,is_expert``; each
    response column holds 0 or 1.  A labeler marked expert on any row is
    treated as an expert throughout.  Blank rows are skipped; the first bad
    row is a ``DataError`` naming its line and the first check it fails.

    Returns
    -------
    (submissions, experts) : list of Submission and dict labeler_id -> bool.
    """
    rows = read_csv_rows(path)
    header = next(rows, None)
    if header is None:
        raise DataError(f"{path}: empty votes file")
    if tuple(h.strip() for h in header) != VOTES_CSV_HEADER:
        raise DataError(
            f"{path}: bad header; expected {','.join(VOTES_CSV_HEADER)}"
        )
    submissions = []
    experts: dict = {}
    picks_of: dict = {}  # each valid flag tuple seen -> the responses it picks
    for line_no, row in enumerate(rows, start=2):
        cells = list(map(str.strip, row))
        if not any(cells):
            continue
        if len(cells) != len(VOTES_CSV_HEADER):
            raise DataError(f"{path}:{line_no}: expected {len(VOTES_CSV_HEADER)} fields, "
                            f"got {len(cells)}")
        labeler, component, expert = cells[0], cells[1], cells[10]
        if not labeler or not component:
            raise DataError(f"{path}:{line_no}: empty labeler or component id")
        flags = tuple(cells[2:10])
        picks = picks_of.get(flags)
        if picks is None:
            if not {*flags} <= {"0", "1"}:
                raise DataError(f"{path}:{line_no}: response flags must be 0 or 1")
            picks = tuple(response for response, flag in zip(RESPONSES, flags) if flag == "1")
            if not picks:
                raise DataError(f"{path}:{line_no}: submission selects no responses")
            picks_of[flags] = picks
        if expert == "1":
            experts[labeler] = True
        elif expert == "0":
            experts.setdefault(labeler, False)
        else:
            raise DataError(f"{path}:{line_no}: is_expert must be 0 or 1")
        submissions.append(Submission(labeler, component, picks))
    if not submissions:
        raise DataError(f"{path}: no submissions found")
    return submissions, experts
