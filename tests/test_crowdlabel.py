"""Crowd-label aggregation: vote handling, priors, and the Gibbs sampler."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from icsort import crowdlabel
from icsort.bundles import read_csv_rows
from icsort.categories import N_CATEGORIES, N_RESPONSES, RESPONSES
from icsort.crowdlabel import (
    TRAINING_CLASS_PRIOR,
    VOTES_CSV_HEADER,
    ClassPrior,
    LabelerPrior,
    Submission,
    Vote,
    cllda_fit,
    default_priors,
    expand_submissions,
    filter_labelers,
    gelman_rubin,
    read_votes_csv,
)
from icsort.errors import ConfigError, DataError

UNIFORM = ClassPrior(np.ones(N_CATEGORIES))


# ------------------------------------------------------------- data model


def test_vote_rejects_unknown_responses_and_bad_weights():
    Vote("lab", "comp", "Brain")
    Vote("lab", "comp", "?", weight=0.5)
    with pytest.raises(DataError):
        Vote("lab", "comp", "brain")
    with pytest.raises(DataError):
        Vote("lab", "comp", "Brain", weight=0.0)
    with pytest.raises(DataError):
        Vote("lab", "comp", "Brain", weight=1.5)


def test_votes_and_submissions_are_immutable_records_equal_by_their_fields():
    vote = Vote(labeler_id="lab", component_id="comp", response="Eye", weight=0.5)
    assert vote == Vote("lab", "comp", "Eye", 0.5) != Vote("lab", "comp", "Eye")
    assert hash(vote) == hash(("lab", "comp", "Eye", 0.5))
    assert Vote("lab", "comp", "Eye").weight == 1.0
    submission = Submission("lab", "comp", ("Eye", "?"))
    assert submission == Submission("lab", "comp", ("Eye", "?"))
    assert len({submission, Submission("lab", "comp", ("Eye", "?"))}) == 1
    for record, field in ((vote, "weight"), (submission, "responses")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_labeler_prior_validation():
    LabelerPrior(np.ones((N_CATEGORIES, N_RESPONSES)))
    with pytest.raises(ConfigError):
        LabelerPrior(np.ones((N_CATEGORIES, N_CATEGORIES)))
    bad = np.ones((N_CATEGORIES, N_RESPONSES))
    bad[3, 4] = 0.0
    with pytest.raises(ConfigError):
        LabelerPrior(bad)


def test_class_prior_validation():
    ClassPrior(np.full(N_CATEGORIES, 0.5))
    with pytest.raises(ConfigError):
        ClassPrior(np.ones(N_RESPONSES))
    with pytest.raises(ConfigError):
        ClassPrior(np.array([1, 1, 1, 1, 1, 1, -1.0]))


def test_default_priors_match_the_published_matrices():
    for mode, diagonal, off in (
        ("training-experts", 50.01, 0.01),
        ("training-unknown", 1.25, 0.25),
        ("test-experts", 5.0, 0.01),
    ):
        prior = default_priors(mode).confusion_prior
        assert prior.shape == (N_CATEGORIES, N_RESPONSES)
        eye = np.eye(N_CATEGORIES, N_RESPONSES, dtype=bool)
        assert np.all(prior[eye] == diagonal)
        assert np.all(prior[~eye] == off)

    assert default_priors("training-experts").confusion_prior[0, 0] == 50.01
    assert default_priors("training-unknown").confusion_prior[0, 2] == 0.25
    assert default_priors("test-experts").confusion_prior[1, 1] == 5.0
    with pytest.raises(ConfigError):
        default_priors("experts")


# ------------------------------------------------- submissions and filters


def test_expand_submissions_splits_weight_across_ticked_boxes():
    votes = expand_submissions(
        [
            Submission("a", "c1", ("Brain",)),
            Submission("a", "c2", ("Muscle", "Eye")),
            Submission("b", "c1", ("Heart", "Heart", "?")),
        ]
    )
    assert [(v.labeler_id, v.component_id, v.response) for v in votes] == [
        ("a", "c1", "Brain"),
        ("a", "c2", "Muscle"),
        ("a", "c2", "Eye"),
        ("b", "c1", "Heart"),
        ("b", "c1", "?"),
    ]
    assert [v.weight for v in votes] == [1.0, 0.5, 0.5, 0.5, 0.5]

    with pytest.raises(DataError):
        expand_submissions([Submission("a", "c1", ("Cortex",))])
    with pytest.raises(DataError):
        expand_submissions([Submission("a", "c1", ())])


def test_filter_labelers_counts_distinct_components_with_inclusive_floor():
    votes = []
    votes += [Vote("ten", f"c{i}", "Brain") for i in range(10)]
    votes += [Vote("nine", f"c{i}", "Brain") for i in range(9)]
    # repeat votes on one component do not add to the distinct count
    votes += [Vote("dup", "c0", "Brain"), Vote("dup", "c0", "Eye")]
    votes += [Vote("dup", f"c{i}", "Brain") for i in range(1, 9)]

    kept = filter_labelers(votes)
    assert {v.labeler_id for v in kept} == {"ten"}
    assert len(kept) == 10
    assert filter_labelers([]) == []
    assert {v.labeler_id for v in filter_labelers(votes, min_votes=9)} == {
        "ten",
        "nine",
        "dup",
    }


# ---------------------------------------------------------------- CSV log


def _write_votes(path, rows):
    lines = [",".join(VOTES_CSV_HEADER)]
    lines += rows
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_read_votes_csv_round_trip(tmp_path):
    path = tmp_path / "votes.csv"
    _write_votes(
        path,
        [
            "ann,c1,1,0,0,0,0,0,0,0,0",
            "ann,c2,0,1,1,0,0,0,0,0,1",
            "",
            "bob,c1,0,0,0,0,0,0,0,1,0",
        ],
    )
    submissions, experts = read_votes_csv(path)
    assert submissions == [
        Submission("ann", "c1", ("Brain",)),
        Submission("ann", "c2", ("Muscle", "Eye")),
        Submission("bob", "c1", ("?",)),
    ]
    # a labeler flagged expert on any row is an expert throughout
    assert experts == {"ann": True, "bob": False}


@pytest.mark.parametrize(
    "rows",
    [
        ["ann,c1,1,0,0,0,0,0,0,0,2"],  # bad expert flag
        ["ann,c1,2,0,0,0,0,0,0,0,0"],  # bad response flag
        ["ann,c1,0,0,0,0,0,0,0,0,0"],  # nothing selected
        ["ann,c1,1,0,0,0,0,0,0,0"],  # short row
        [",c1,1,0,0,0,0,0,0,0,0"],  # empty labeler id
    ],
)
def test_read_votes_csv_rejects_malformed_rows(tmp_path, rows):
    path = tmp_path / "votes.csv"
    _write_votes(path, rows)
    with pytest.raises(DataError):
        read_votes_csv(path)


def test_read_votes_csv_rejects_bad_or_missing_header(tmp_path):
    path = tmp_path / "votes.csv"
    path.write_text("labeler,component\nann,c1\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_votes_csv(path)
    path.write_text("", encoding="utf-8")
    with pytest.raises(DataError):
        read_votes_csv(path)
    path.write_bytes(",".join(VOTES_CSV_HEADER).encode() + b"\nann,c\xff1,1,0,0,0,0,0,0,0,0\n")
    with pytest.raises(DataError, match="CSV"):  # not UTF-8
        read_votes_csv(path)


def test_read_votes_csv_says_how_many_fields_a_row_has(tmp_path):
    path = tmp_path / "votes.csv"
    _write_votes(path, ["ann,c1,1,0,0,0,0,0,0,0,0", "ann,c2,1,0,0,0,0,0,0,0", "bob,c1"])
    with pytest.raises(DataError, match=r"votes\.csv:3: expected 11 fields, got 10$"):
        read_votes_csv(path)


def _votes_row_by_row(path):
    """The vote log reader as it was, each cell stripped and checked on its
    own: the reference for ``read_votes_csv``, with today's field-count message."""
    rows = read_csv_rows(path)
    header = next(rows, None)
    if header is None:
        raise DataError(f"{path}: empty votes file")
    if tuple(h.strip() for h in header) != VOTES_CSV_HEADER:
        raise DataError(f"{path}: bad header; expected {','.join(VOTES_CSV_HEADER)}")
    submissions, experts = [], {}
    for line_no, row in enumerate(rows, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(VOTES_CSV_HEADER):
            raise DataError(f"{path}:{line_no}: expected {len(VOTES_CSV_HEADER)} fields, "
                            f"got {len(row)}")
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


#: The faults a vote row can have, each failing one check of the reader.
_VOTE_FAULTS = ("no labeler", "no component", "bad flag", "no pick", "bad expert", "short",
                "long")


@st.composite
def _vote_rows(draw):
    """A vote row's text: valid, or with one or two faults from ``_VOTE_FAULTS``."""
    labeler = draw(st.sampled_from(["ann", " bob ", "cy"]))
    component = draw(st.sampled_from(["c1", "c2 ", '"c,3"']))
    flags = draw(st.lists(st.sampled_from(["0", "1", " 1", "0 "]), min_size=8, max_size=8))
    if "1" not in {flag.strip() for flag in flags}:
        flags[draw(st.integers(0, 7))] = "1"
    expert = draw(st.sampled_from(["0", "1", " 1 "]))
    faults = draw(st.lists(st.sampled_from(_VOTE_FAULTS), max_size=2, unique=True))
    for fault in sorted(faults, key=_VOTE_FAULTS.index):  # the field count last
        if fault == "no labeler":
            labeler = draw(st.sampled_from(["", "  "]))
        elif fault == "no component":
            component = ""
        elif fault == "bad flag":
            flags[draw(st.integers(0, 7))] = draw(st.sampled_from(["2", "", "yes", "01"]))
        elif fault == "no pick":
            flags = [" 0"] * 8
        elif fault == "bad expert":
            expert = draw(st.sampled_from(["2", "", "true"]))
        elif fault == "short":
            flags = flags[:draw(st.integers(0, 7))]
        else:
            expert += ",0"
    return ",".join([labeler, component] + flags + [expert])


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.one_of(_vote_rows(), st.sampled_from(["", " , ", "  "])), max_size=6),
       ending=st.sampled_from(["\n", "\r\n"]))
def test_read_votes_csv_reads_as_cell_by_cell_checks_did(tmp_path_factory, rows, ending):
    path = tmp_path_factory.mktemp("votes") / "votes.csv"
    path.write_bytes(ending.join([",".join(VOTES_CSV_HEADER)] + rows).encode() + ending.encode())

    def outcome(reader):
        try:
            submissions, experts = reader(path)
        except DataError as exc:
            return str(exc)
        return submissions, list(experts.items())

    assert outcome(read_votes_csv) == outcome(_votes_row_by_row)


# ----------------------------------------------------------------- sampler


def _unknown_priors(*labelers):
    return {lab: default_priors("training-unknown") for lab in labelers}


def test_fit_validates_votes_epochs_and_priors():
    votes = [Vote("u1", "c1", "Brain")]
    with pytest.raises(DataError):
        cllda_fit([], _unknown_priors("u1"), UNIFORM)
    with pytest.raises(ConfigError):
        cllda_fit(votes, _unknown_priors("u1"), UNIFORM, burn_in=-1)
    with pytest.raises(ConfigError):
        cllda_fit(votes, _unknown_priors("u1"), UNIFORM, sampling_epochs=0)
    with pytest.raises(ConfigError):
        cllda_fit(votes, {}, UNIFORM)


def test_results_are_probability_vectors():
    votes = [
        Vote("u1", "c1", "Line Noise"),
        Vote("u1", "c1", "Line Noise"),
        Vote("u2", "c2", "Brain", weight=0.5),
        Vote("u2", "c2", "?", weight=0.5),
    ]
    result = cllda_fit(
        votes, _unknown_priors("u1", "u2"), UNIFORM, burn_in=20, sampling_epochs=50, seed=1
    )
    for label in result.labels.values():
        assert np.all(label >= 0)
        assert label.sum() == pytest.approx(1.0, abs=1e-9)
    for confusion in result.labeler_confusions.values():
        assert confusion.shape == (N_CATEGORIES, N_RESPONSES)
        assert np.all(confusion >= 0)
        np.testing.assert_allclose(confusion.sum(axis=1), 1.0, atol=1e-9)
    assert result.diagnostics == {"n_votes": 4, "n_components": 2, "n_labelers": 2}


def test_fit_is_deterministic_per_seed():
    votes = [
        Vote("u1", "c1", "Brain"),
        Vote("u2", "c1", "Brain"),
        Vote("u3", "c1", "Muscle"),
    ]
    priors = _unknown_priors("u1", "u2", "u3")
    runs = [
        cllda_fit(votes, priors, UNIFORM, burn_in=30, sampling_epochs=60, seed=4)
        for _ in range(2)
    ]
    other = cllda_fit(votes, priors, UNIFORM, burn_in=30, sampling_epochs=60, seed=5)
    assert np.array_equal(runs[0].labels["c1"], runs[1].labels["c1"])
    for lab in priors:
        assert np.array_equal(
            runs[0].labeler_confusions[lab], runs[1].labeler_confusions[lab]
        )
    assert not np.array_equal(runs[0].labels["c1"], other.labels["c1"])


def _pinned_instance():
    # 60 components, 2 experts and 4 unknown labelers, with "?" responses
    # and two-box submissions (weight 1/2)
    rng = np.random.default_rng(2024)
    submissions = []
    for comp, truth in enumerate(rng.integers(0, 7, size=60)):
        for labeler in range(6):
            picks = [RESPONSES[truth] if rng.random() < 0.7 else RESPONSES[rng.integers(0, 8)]]
            if rng.random() < 0.25:
                picks.append(RESPONSES[rng.integers(0, 8)])
            submissions.append(Submission(f"l{labeler}", f"c{comp:02d}", tuple(picks)))
    priors = {f"l{labeler}": default_priors("training-experts" if labeler < 2
                                            else "training-unknown") for labeler in range(6)}
    return expand_submissions(submissions), priors


def test_sampler_output_bits_are_pinned():
    # the digest was taken from the array-based sweep this list-based one
    # replaced; any change in the chain's arithmetic or random stream moves it
    votes, priors = _pinned_instance()
    assert len(votes) == 442
    assert sum(v.response == "?" for v in votes) == 30
    result = cllda_fit(votes, priors, ClassPrior(TRAINING_CLASS_PRIOR), burn_in=5,
                       sampling_epochs=10, seed=3)
    digest = hashlib.sha256()
    for component in sorted(result.labels):
        digest.update(result.labels[component].tobytes())
    for labeler in sorted(result.labeler_confusions):
        digest.update(result.labeler_confusions[labeler].tobytes())
    assert digest.hexdigest() == (
        "3477c056da9bd6cf010524423655073bc750bff2a3b8c2b44458cd627227e144")


def test_log_joint_is_the_collapsed_joint_of_the_current_state():
    # one vote: the state is its latent category k, and the collapsed joint
    # is p(z = k) p(r | z = k) = alpha_k / sum(alpha) * B[k, r] / sum_r' B[k, r']
    alpha = np.array(TRAINING_CLASS_PRIOR)
    prior = default_priors("training-unknown").confusion_prior
    response = 2
    result = cllda_fit([Vote("u1", "c1", RESPONSES[response])], _unknown_priors("u1"),
                       ClassPrior(alpha), burn_in=3, sampling_epochs=40, seed=6)
    assert len(result.log_joint) == 40
    states = [math.log(alpha[k] / alpha.sum() * prior[k, response] / prior[k].sum())
              for k in range(N_CATEGORIES)]
    for value in result.log_joint:
        assert min(abs(value - state) for state in states) < 1e-9
    assert len(set(result.log_joint)) > 1  # the chain moves between states


def test_log_joint_agrees_with_scipy_gammaln(monkeypatch):
    # math.lgamma and gammaln differ by a few units in the last place of
    # max(1, |value|) (under 2e-15 of it over 4e5 arguments in (0.01, 1e5));
    # the log joint's terms sum in magnitude to about ten times the log joint
    # here, so their difference stays near 1e-14 relative and 1e-12 leaves room
    gammaln = pytest.importorskip("scipy.special").gammaln
    votes, priors = _pinned_instance()

    def fit():
        return cllda_fit(votes, priors, ClassPrior(TRAINING_CLASS_PRIOR), burn_in=5,
                         sampling_epochs=10, seed=3)

    result = fit()
    monkeypatch.setattr(crowdlabel, "_log_gamma_sum",
                        lambda values: float(gammaln(values).sum()))
    reference = fit()
    np.testing.assert_allclose(result.log_joint, reference.log_joint, rtol=1e-12, atol=0)
    for component in result.labels:
        assert np.array_equal(result.labels[component], reference.labels[component])


def test_gelman_rubin_separates_agreeing_from_disagreeing_chains():
    rng = np.random.default_rng(0)
    agreeing = rng.normal(size=(3, 500))
    assert gelman_rubin(agreeing) == pytest.approx(1.0, abs=0.01)
    assert gelman_rubin(agreeing + np.array([[0.0], [5.0], [10.0]])) > 3.0
    # the textbook form: sqrt(((n - 1) / n * W + B / n) / W)
    x = np.array([[1.0, 2.0, 4.0], [2.0, 5.0, 5.0]])
    within = np.mean([np.var(row, ddof=1) for row in x])
    between = 3 * np.var(x.mean(axis=1), ddof=1)
    assert gelman_rubin(x) == pytest.approx(math.sqrt((2 / 3 * within + between / 3) / within))
    assert gelman_rubin([[1.0, 2.0, 3.0]]) is None  # one chain
    assert gelman_rubin([[1.0], [2.0]]) is None  # one draw
    assert gelman_rubin([[1.0, 1.0], [2.0, 2.0]]) is None  # no within-chain variation


# Exact posterior means for tiny single-component instances, computed by
# full enumeration over latent assignments with a uniform unit class prior
# (the sampler mixes freely there; heavily skewed priors make these tiny
# posteriors bimodal and are exercised separately on larger instances).
# Each entry: (votes as (labeler, prior mode, response), expected label).
ENUMERATION_FIXTURES = {
    "unanimous3": (
        [("u1", "training-unknown", "Brain"), ("u2", "training-unknown", "Brain"),
         ("u3", "training-unknown", "Brain")],
        [0.2788990826, 0.1201834862, 0.1201834862, 0.1201834862,
         0.1201834862, 0.1201834862, 0.1201834862],
    ),
    "conflict2": (
        [("e1", "training-experts", "Brain"), ("e2", "training-experts", "Muscle")],
        [0.2221112886, 0.2221112886, 0.1111554846, 0.1111554846,
         0.1111554846, 0.1111554846, 0.1111554846],
    ),
    "single_q": (
        [("u1", "training-unknown", "?")],
        [1.0 / 7.0] * 7,
    ),
    "expert_vs_unknown": (
        [("e1", "training-experts", "Brain"), ("u1", "training-unknown", "Eye")],
        [0.2405878785, 0.1203937928, 0.1574431574, 0.1203937928,
         0.1203937928, 0.1203937928, 0.1203937928],
    ),
    "mixed3": (
        [("x1", "test-experts", "Heart"), ("u1", "training-unknown", "Heart"),
         ("u2", "training-unknown", "?")],
        [0.1182551481, 0.1182551481, 0.1182551481, 0.2904691113,
         0.1182551481, 0.1182551481, 0.1182551481],
    ),
    "single_brain": (
        [("e1", "training-experts", "Brain")],
        [0.2498502097, 0.1250249650, 0.1250249650, 0.1250249650,
         0.1250249650, 0.1250249650, 0.1250249650],
    ),
    "repeat_labeler2": (
        [("u1", "training-unknown", "Line Noise"), ("u1", "training-unknown", "Line Noise")],
        [0.1303155007, 0.1303155007, 0.1303155007, 0.1303155007,
         0.2181069959, 0.1303155007, 0.1303155007],
    ),
}


def _fixture_instance(name):
    spec, expected = ENUMERATION_FIXTURES[name]
    votes = [Vote(lab, "c", resp) for lab, _, resp in spec]
    priors = {lab: default_priors(mode) for lab, mode, _ in spec}
    return votes, priors, np.asarray(expected)


@pytest.mark.parametrize("name", sorted(ENUMERATION_FIXTURES))
def test_estimates_match_exact_enumeration(name):
    from icsort.categories import RESPONSE_INDEX

    votes, priors, expected = _fixture_instance(name)
    enumerated = oracles.enum_crowd_posterior(
        [(v.labeler_id, RESPONSE_INDEX[v.response]) for v in votes],
        priors,
        np.ones(N_CATEGORIES),
    )
    np.testing.assert_allclose(enumerated, expected, atol=1e-9)

    result = cllda_fit(votes, priors, UNIFORM, seed=0)
    np.testing.assert_allclose(result.labels["c"], expected, atol=0.02)


def test_relabeling_categories_permutes_the_estimates():
    # default priors are symmetric across categories, so renaming the
    # responses must permute the label estimate (up to Monte Carlo noise)
    perm = np.array([3, 0, 5, 1, 6, 2, 4])
    from icsort.categories import CATEGORIES

    base = [("u1", "Brain"), ("u2", "Brain"), ("u3", "Eye")]
    votes = [Vote(lab, "c", resp) for lab, resp in base]
    renamed = [
        Vote(lab, "c", CATEGORIES[perm[CATEGORIES.index(resp)]]) for lab, resp in base
    ]
    priors = _unknown_priors("u1", "u2", "u3")

    original = cllda_fit(votes, priors, UNIFORM, seed=0).labels["c"]
    permuted = cllda_fit(renamed, priors, UNIFORM, seed=0).labels["c"]
    np.testing.assert_allclose(permuted[perm], original, atol=0.02)


def test_extra_unanimous_votes_never_lower_the_category_posterior():
    # closed-form check on instances small enough to enumerate exactly
    alpha = np.array(TRAINING_CLASS_PRIOR)
    prior = default_priors("training-unknown")
    posteriors = []
    for n in (1, 2, 3):
        label = oracles.enum_crowd_posterior(
            [(f"u{i}", 0) for i in range(n)],
            {f"u{i}": prior for i in range(n)},
            alpha,
        )
        posteriors.append(label[0])
    np.testing.assert_allclose(posteriors, [0.675110, 0.909141, 0.978133], atol=1e-6)
    assert posteriors[0] < posteriors[1] < posteriors[2]


def test_question_marks_only_land_in_the_question_mark_column():
    # labeler "q" answers "?" everywhere, labeler "b" never does; response
    # columns a labeler never used keep the exact prior column ratios, and
    # the "?" share can only grow for "q" and only shrink for "b"
    votes = []
    for i in range(12):
        votes += [Vote("q", f"c{i}", "?"), Vote("b", f"c{i}", "Brain")]
    prior = default_priors("training-unknown").confusion_prior
    result = cllda_fit(
        votes, _unknown_priors("q", "b"), UNIFORM, burn_in=100, sampling_epochs=300, seed=2
    )

    conf_q = result.labeler_confusions["q"]
    conf_b = result.labeler_confusions["b"]
    prior_share = prior / prior.sum(axis=1, keepdims=True)

    # "q" never used the 7 category responses: their ratios stay the prior's
    np.testing.assert_allclose(
        conf_q[:, :7] / conf_q[:, :1], prior[:, :7] / prior[:, :1], rtol=1e-9
    )
    assert conf_q[:, 7].sum() > prior_share[:, 7].sum()

    # "b" only used "Brain": columns 1..7 keep the prior's ratios and the
    # "?" column never gains mass
    np.testing.assert_allclose(
        conf_b[:, 1:] / conf_b[:, 1:2], prior[:, 1:] / prior[:, 1:2], rtol=1e-9
    )
    assert conf_b[:, 7].sum() < prior_share[:, 7].sum()
    assert np.all(conf_b[:, 7] <= prior_share[:, 7] + 1e-12)
