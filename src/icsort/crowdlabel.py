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

from dataclasses import dataclass, field

import numpy as np

from .bundles import read_csv_rows
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


@dataclass(frozen=True)
class Vote:
    """One (possibly fractional) response by one labeler on one component."""

    labeler_id: str
    component_id: str
    response: str  # one of the 7 categories or "?"
    weight: float = 1.0

    def __post_init__(self):
        if self.response not in RESPONSE_INDEX:
            raise DataError(f"unknown response {self.response!r}")
        if not 0.0 < self.weight <= 1.0:
            raise DataError(f"vote weight must be in (0, 1], got {self.weight}")


@dataclass(frozen=True)
class Submission:
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

    labels: dict  # component_id -> (7,) label vector
    labeler_confusions: dict  # labeler_id -> (7, 8) row-stochastic matrix
    epochs: int
    burn_in: int
    seed: int
    diagnostics: dict = field(default_factory=dict)


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


def cllda_fit(
    votes,
    labeler_priors: dict,
    class_prior: ClassPrior,
    burn_in: int = DEFAULT_BURN_IN,
    sampling_epochs: int = DEFAULT_SAMPLING_EPOCHS,
    seed: int = 0,
    components=None,
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
    components : optional roster of component ids to include in the output
        even if they received no votes; their label is the normalized
        class prior.

    Returns
    -------
    CrowdResult with one label vector per component (sums to 1) and one
    row-stochastic 7x8 confusion matrix per labeler.
    """
    votes = list(votes)
    if not votes:
        raise DataError("no votes to aggregate")
    if burn_in < 0 or sampling_epochs < 1:
        raise ConfigError("burn_in must be >= 0 and sampling_epochs >= 1")

    component_ids = sorted({v.component_id for v in votes} | set(components or ()))
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
    # ((labeler, response, category)) for contiguous category rows.
    comp_counts = np.tile(alpha, (n_comp, 1))
    lab_counts = np.ascontiguousarray(np.swapaxes(prior_b, 1, 2)).copy()
    lab_rowsum = prior_b_rowsum.copy()
    np.add.at(comp_counts, (comp_of, z), weight_of)
    np.add.at(lab_counts, (lab_of, resp_of, z), weight_of)
    np.add.at(lab_rowsum, (lab_of, z), weight_of)

    label_sum = np.zeros((n_comp, N_CATEGORIES))
    confusion_sum = np.zeros((n_lab, N_CATEGORIES, N_RESPONSES))

    comp_list = comp_of.tolist()
    lab_list = lab_of.tolist()
    resp_list = resp_of.tolist()
    weight_list = weight_of.tolist()
    z_list = z.tolist()
    rand = rng.random
    for epoch in range(burn_in + sampling_epochs):
        for v in rng.permutation(n_votes).tolist():
            c, l, r, w = comp_list[v], lab_list[v], resp_list[v], weight_list[v]
            k = z_list[v]
            comp_row = comp_counts[c]
            lab_row = lab_counts[l, r]
            rowsum = lab_rowsum[l]
            comp_row[k] -= w
            lab_row[k] -= w
            rowsum[k] -= w

            p = (comp_row * lab_row / rowsum).tolist()
            u = rand() * (p[0] + p[1] + p[2] + p[3] + p[4] + p[5] + p[6])
            acc = 0.0
            k = N_CATEGORIES - 1
            for j, pj in enumerate(p):
                acc += pj
                if u < acc:
                    k = j
                    break

            z_list[v] = k
            comp_row[k] += w
            lab_row[k] += w
            rowsum[k] += w

        if epoch >= burn_in:
            label_sum += comp_counts / comp_counts.sum(axis=1, keepdims=True)
            confusion_sum += np.swapaxes(
                lab_counts / lab_rowsum[:, None, :], 1, 2
            )

    labels = label_sum / sampling_epochs
    confusions = confusion_sum / sampling_epochs
    return CrowdResult(
        labels={c: labels[i] for c, i in comp_index.items()},
        labeler_confusions={l: confusions[i] for l, i in lab_index.items()},
        epochs=sampling_epochs,
        burn_in=burn_in,
        seed=seed,
        diagnostics={"n_votes": n_votes, "n_components": n_comp, "n_labelers": n_lab},
    )


def read_votes_csv(path):
    """Parse a vote log CSV into submissions plus per-labeler expert flags.

    The required header is ``labeler_id,component_id,brain,muscle,eye,
    heart,line_noise,channel_noise,other,question_mark,is_expert``; each
    response column holds 0 or 1.  A labeler marked expert on any row is
    treated as an expert throughout.

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
    for line_no, row in enumerate(rows, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(VOTES_CSV_HEADER):
            raise DataError(f"{path}:{line_no}: expected {len(VOTES_CSV_HEADER)} fields")
        labeler, component = row[0].strip(), row[1].strip()
        if not labeler or not component:
            raise DataError(f"{path}:{line_no}: empty labeler or component id")
        picks = []
        for offset, cell in enumerate(row[2:10]):
            flag = cell.strip()
            if flag not in ("0", "1"):
                raise DataError(f"{path}:{line_no}: response flags must be 0 or 1")
            if flag == "1":
                picks.append(RESPONSES[offset])
        if not picks:
            raise DataError(f"{path}:{line_no}: submission selects no responses")
        expert_flag = row[10].strip()
        if expert_flag not in ("0", "1"):
            raise DataError(f"{path}:{line_no}: is_expert must be 0 or 1")
        experts[labeler] = experts.get(labeler, False) or expert_flag == "1"
        submissions.append(Submission(labeler, component, tuple(picks)))
    if not submissions:
        raise DataError(f"{path}: no submissions found")
    return submissions, experts
