"""Feature extraction: referencing, topography, spectra, autocorrelation."""

import dataclasses

import numpy as np
import pytest
from scipy.interpolate import RBFInterpolator

import builders
import icsort.features as features
import oracles
from icsort import cli
from icsort.bundles import write_recording_bundle
from icsort.errors import DataError
from icsort.features import (
    FEATURE_SCALE,
    GRID_MASK,
    FeatureStack,
    Recording,
    TOPOGRAPHY_ORBIT,
    autocorrelation,
    common_average_reference,
    extract_component_features,
    extract_recording,
    median_welch_psd,
    normalize_features,
    orbit_element,
    project_to_plane,
    scalp_topography,
)


# ------------------------------------------------------------------ grid


def test_grid_mask_is_the_inscribed_disk():
    assert GRID_MASK.shape == (32, 32)
    assert int(GRID_MASK.sum()) == 740
    # symmetric under left-right and top-bottom flips
    assert np.array_equal(GRID_MASK, GRID_MASK[:, ::-1])
    assert np.array_equal(GRID_MASK, GRID_MASK[::-1, :])
    # corners are outside, center is inside
    assert not GRID_MASK[0, 0]
    assert GRID_MASK[16, 16]


# ------------------------------------------------------------ projection


def test_projection_maps_vertex_to_origin_and_equator_to_rim():
    positions = np.array([
        [0.0, 0.0, 1.0],   # vertex
        [1.0, 0.0, 0.0],   # equator, front
        [0.0, 1.0, 0.0],   # equator, left
        [np.sin(np.pi / 4), 0.0, np.cos(np.pi / 4)],  # halfway down
    ])
    planar = project_to_plane(positions)
    assert np.allclose(planar[0], [0.0, 0.0], atol=1e-12)
    assert np.allclose(planar[1], [1.0, 0.0], atol=1e-12)
    assert np.allclose(planar[2], [0.0, 1.0], atol=1e-12)
    assert np.allclose(planar[3], [0.5, 0.0], atol=1e-12)


def test_projection_is_radius_invariant():
    cap = builders.electrode_cap(12)
    assert np.allclose(project_to_plane(cap), project_to_plane(cap * 1.13), atol=1e-12)


# ------------------------------------------------------------ topography


def test_topography_reproduces_constants_exactly_inside_the_disk():
    cap = builders.electrode_cap(20)
    topo = scalp_topography(np.full(20, 3.25), cap)
    assert topo.shape == (32, 32)
    assert np.allclose(topo[GRID_MASK], 3.25, atol=1e-8)
    assert np.all(topo[~GRID_MASK] == 0.0)


def test_topography_reproduces_linear_fields():
    # thin-plate splines with a linear polynomial tail are exact on
    # affine functions of the planar coordinates
    cap = builders.electrode_cap(24)
    planar = project_to_plane(cap)
    values = 0.7 * planar[:, 0] - 1.3 * planar[:, 1] + 0.2
    topo = scalp_topography(values, cap)
    gx = np.linspace(-1.0, 1.0, 32)
    gy = np.linspace(1.0, -1.0, 32)
    expect = 0.7 * gx[None, :] - 1.3 * gy[:, None] + 0.2
    assert np.allclose(topo[GRID_MASK], expect[GRID_MASK], atol=1e-7)


def test_topography_rejects_collinear_montages():
    positions = np.column_stack([
        np.linspace(0.1, 0.9, 6),
        np.zeros(6),
        np.sqrt(1.0 - np.linspace(0.1, 0.9, 6) ** 2),
    ])
    with pytest.raises(DataError):
        scalp_topography(np.ones(6), positions)


def test_topography_needs_three_usable_electrodes():
    cap = builders.electrode_cap(4)
    values = np.array([1.0, 2.0, np.nan, np.nan])
    with pytest.raises(DataError):
        scalp_topography(values, cap)


def test_topography_ignores_nonfinite_electrodes():
    cap = builders.electrode_cap(21)
    values = np.ones(21)
    values[5] = np.nan
    topo = scalp_topography(values, cap)
    assert np.allclose(topo[GRID_MASK], 1.0, atol=1e-8)


def _per_component_fit(values, positions):
    """The masked pixels of one thin-plate-spline fit to one projection."""
    planar = project_to_plane(positions)
    xx, yy = np.meshgrid(np.linspace(-1.0, 1.0, 32), np.linspace(1.0, -1.0, 32))
    pts = np.column_stack([xx[GRID_MASK], yy[GRID_MASK]])
    return RBFInterpolator(planar, values, kernel="thin_plate_spline", degree=1)(pts)


@pytest.mark.parametrize("n_channels", [16, 64, 128])
def test_topography_agrees_with_a_fit_per_component(n_channels):
    cap = builders.electrode_cap(n_channels)
    projections = np.random.default_rng(n_channels).standard_normal((n_channels, 5))
    images = scalp_topography(projections, cap)
    for j in range(5):
        reference = _per_component_fit(projections[:, j], cap)
        assert np.max(np.abs(images[j][GRID_MASK] - reference)) <= 1e-11 * np.max(np.abs(reference))


def test_matrix_topography_equals_the_vector_calls_bit_for_bit():
    cap = builders.electrode_cap(24)
    cap[7] = np.nan  # dropped from the matrix call and from every vector call
    projections = np.random.default_rng(21).standard_normal((24, 6))
    images = scalp_topography(projections, cap)
    assert images.shape == (6, 32, 32)
    for j in range(6):
        assert np.array_equal(images[j], scalp_topography(projections[:, j], cap))
    assert scalp_topography(projections[:, :0], cap).shape == (0, 32, 32)


def test_matrix_topography_must_be_finite():
    cap = builders.electrode_cap(20)
    projections = np.ones((20, 3))
    projections[4, 1] = np.nan  # a vector call would drop the electrode; a matrix call refuses
    with pytest.raises(DataError, match="finite"):
        scalp_topography(projections, cap)
    with pytest.raises(DataError, match="one row per electrode"):
        scalp_topography(np.ones((19, 3)), cap)


def test_topography_rejects_duplicate_electrodes():
    cap = builders.electrode_cap(12)
    cap[5] = cap[2]
    with pytest.raises(DataError, match="rank-deficient"):
        scalp_topography(np.ones((12, 2)), cap)


def test_topography_mirror_and_negate_are_involutions():
    cap = builders.electrode_cap(20)
    rng = np.random.default_rng(3)
    pixels = scalp_topography(rng.standard_normal(20), cap)
    for mirror, negate in TOPOGRAPHY_ORBIT:
        once = orbit_element(pixels, mirror, negate)
        assert np.array_equal(orbit_element(once, mirror, negate), pixels)


# ------------------------------------------------------------ referencing


def test_common_average_reference_zeroes_each_sample_mean():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((8, 50))
    referenced = common_average_reference(data)
    assert np.allclose(referenced.mean(axis=0), 0.0, atol=1e-12)
    # idempotent
    assert np.allclose(common_average_reference(referenced), referenced, atol=1e-12)


def test_common_average_reference_needs_two_channels():
    with pytest.raises(DataError):
        common_average_reference(np.ones((1, 10)))


# ------------------------------------------------------------------ psd


def test_median_welch_matches_direct_dft_oracle():
    rng = np.random.default_rng(1)
    fs = 16.0
    x = np.sin(2 * np.pi * 5.0 * np.arange(96) / fs) + 0.3 * rng.standard_normal(96)
    assert np.allclose(median_welch_psd(x, fs), oracles.dft_median_welch(x, fs), atol=1e-9)


def test_median_welch_peaks_at_the_oscillation_frequency():
    fs = 256.0
    t = np.arange(int(fs * 4)) / fs
    x = np.sin(2 * np.pi * 10.0 * t) + 0.01 * np.random.default_rng(2).standard_normal(t.size)
    psd = median_welch_psd(x, fs)
    assert psd.shape == (100,)
    assert int(np.argmax(psd)) == 9  # index of the 10 Hz bin


def test_median_welch_repeats_the_last_bin_above_nyquist():
    rng = np.random.default_rng(3)
    psd = median_welch_psd(rng.standard_normal(500), 50.0)
    # 25 Hz is the last valid frequency for fs = 50
    assert np.all(psd[25:] == psd[24])
    assert not np.all(psd[:25] == psd[0])


# at 101.6 Hz the bin nearest 51 Hz is the 50.8 Hz Nyquist bin, yet 51 Hz
# lies above Nyquist and must repeat the 50 Hz bin
@pytest.mark.parametrize("fs", [100.0, 101.6, 128.0, 200.5, 250.0, 256.0, 500.0, 512.0, 1000.0])
def test_psd_bin_map_follows_the_nearest_frequency_rule(fs):
    nperseg = int(round(fs))
    freqs = np.fft.rfftfreq(nperseg, 1.0 / fs)
    expect, last = [], None
    for f in range(1, 101):  # nearest bin up to Nyquist, then the last one repeated
        if f <= fs / 2.0 + 1e-9:
            last = int(np.argmin(np.abs(freqs - f)))
        expect.append(last)
    bins = features._psd_bins(nperseg, fs)
    assert bins.tolist() == expect


def test_median_welch_rejects_unusable_inputs():
    with pytest.raises(DataError):
        median_welch_psd(np.ones(100), 0.0)
    with pytest.raises(DataError):
        median_welch_psd(np.ones(100), 1.5)  # no bins at 1 Hz or above
    with pytest.raises(DataError):
        median_welch_psd(np.ones(10), 64.0)  # shorter than one window


@pytest.mark.parametrize("n_windows", [1, 2, 5, 6, 599, 600])
def test_median_welch_takes_the_bits_of_numpy_median(n_windows):
    # the median by selection must equal np.median for odd and even window counts
    fs = 64.0
    x = np.random.default_rng(n_windows).standard_normal(64 + 32 * (n_windows - 1))
    spectra = features._segment_periodograms(x, 64, fs)
    assert len(spectra) == n_windows
    expected = (10.0 * np.log10(np.median(spectra, axis=0) + 1e-12))[features._psd_bins(64, fs)]
    assert median_welch_psd(x, fs).tobytes() == expected.tobytes()


def test_median_welch_rejects_activity_with_a_non_finite_spectrum():
    x = np.random.default_rng(8).standard_normal(640)
    for bad in (np.nan, np.inf, 1e300):
        x[300] = bad
        with pytest.raises(DataError, match="non-finite or overflowing samples"):
            median_welch_psd(x, 64.0)


def test_median_welch_shrugs_off_one_huge_window():
    fs = 128.0
    t = np.arange(int(fs * 120)) / fs
    rng = np.random.default_rng(7)
    clean = np.sin(2 * np.pi * 10.0 * t) + 0.05 * rng.standard_normal(t.size)
    spiked = clean.copy()
    start = 40 * 64
    spiked[start : start + 128] *= 1000.0
    nonpeak = np.array([i for i in range(100) if abs(i - 9) > 2])
    deviation = np.abs(median_welch_psd(spiked, fs) - median_welch_psd(clean, fs))
    assert deviation[nonpeak].max() < 1.0


# ---------------------------------------------------------- autocorrelation


def test_fast_fft_length_is_scipys_for_every_target_to_2e5():
    next_fast_len = pytest.importorskip("scipy.fft").next_fast_len
    targets = range(1, 200_001)
    assert [features._next_fast_len(t) for t in targets] == [next_fast_len(t) for t in targets]


def test_autocorrelation_matches_time_domain_oracle():
    rng = np.random.default_rng(4)
    fs = 37.5  # non-integer rate exercises the lag resampling
    x = np.sin(2 * np.pi * 3.0 * np.arange(150) / fs) + 0.2 * rng.standard_normal(150)
    assert np.allclose(
        autocorrelation(x, fs), oracles.time_domain_autocorr(x, fs), atol=1e-9
    )


def test_autocorrelation_is_amplitude_invariant():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(400)
    assert np.allclose(autocorrelation(x, 100.0), autocorrelation(42.0 * x, 100.0), atol=1e-12)


@pytest.mark.parametrize("amplitude", [2.0**500, 2.0**-500])
def test_autocorrelation_keeps_its_bits_at_extreme_power_of_two_amplitudes(amplitude):
    x = np.random.default_rng(7).standard_normal(400).cumsum()
    assert autocorrelation(amplitude * x, 100.0).tobytes() == autocorrelation(x, 100.0).tobytes()
    with pytest.raises(DataError, match="undefined for a constant signal"):
        autocorrelation(np.full(300, amplitude), 100.0)


def test_autocorrelation_of_white_noise_decays_to_noise_floor():
    rng = np.random.default_rng(6)
    acf = autocorrelation(rng.standard_normal(50000), 100.0)
    assert acf.shape == (100,)
    assert np.max(np.abs(acf)) < 0.05  # lag-0 is dropped; the rest is near zero


def test_autocorrelation_rejects_unusable_inputs():
    with pytest.raises(DataError):
        autocorrelation(np.ones(300), 100.0)  # constant signal
    with pytest.raises(DataError):
        autocorrelation(np.random.default_rng(0).standard_normal(150), 100.0)  # < 2 s


# ------------------------------------------------------------- normalize


def test_normalize_scales_topo_and_psd_peaks_to_099():
    cap = builders.electrode_cap(20)
    rng = np.random.default_rng(8)
    topo = scalp_topography(rng.standard_normal(20) * 7.0, cap)
    psd = rng.standard_normal(100) * 30.0
    for values in (topo, psd):
        normalized = normalize_features(values)
        assert normalized.shape == values.shape
        assert np.max(np.abs(normalized)) == pytest.approx(FEATURE_SCALE, abs=1e-12)
        assert np.array_equal(normalized, values * (FEATURE_SCALE / np.max(np.abs(values))))


def test_normalize_passes_all_zero_features_through():
    for values in (np.zeros((32, 32)), np.zeros(100)):
        assert np.all(normalize_features(values) == 0.0)


# ----------------------------------------------------------------- orbit


def test_topography_orbit_lists_the_four_symmetry_variants():
    cap = builders.electrode_cap(20)
    rng = np.random.default_rng(9)
    base = scalp_topography(rng.standard_normal(20), cap)
    variants = [orbit_element(base, mirror, negate) for mirror, negate in TOPOGRAPHY_ORBIT]
    assert len(variants) == 4
    assert np.array_equal(variants[0], base)
    assert np.array_equal(variants[1], base[:, ::-1])  # left-right mirror
    assert np.array_equal(variants[2], -base)
    assert np.array_equal(variants[3], -base[:, ::-1])


# ------------------------------------------------------------ extraction


def _component_rows(recording, index):
    referenced = common_average_reference(recording.mixing_matrix)
    return extract_component_features(referenced[:, index], recording.electrode_positions,
                                      recording.component_activity[index],
                                      recording.sample_rate)


def test_extract_component_features_is_normalized_and_masked():
    recording = builders.make_recording(seed=10)
    topo, psd, autocorr = _component_rows(recording, 1)
    assert topo.shape == (32, 32) and psd.shape == (100,) and autocorr.shape == (100,)
    assert np.max(np.abs(topo)) == pytest.approx(FEATURE_SCALE, abs=1e-9)
    assert np.max(np.abs(psd)) == pytest.approx(FEATURE_SCALE, abs=1e-9)
    assert np.all(topo[~GRID_MASK] == 0.0)
    assert np.all(np.isfinite(psd))
    assert np.all(np.isfinite(autocorr))
    assert abs(autocorr).max() <= FEATURE_SCALE + 1e-9


def test_extraction_is_invariant_to_a_common_mixing_offset():
    # the common average reference removes any constant added to every
    # channel of a component's scalp projection
    base = builders.make_recording(seed=11)
    shifted = Recording(
        sample_rate=base.sample_rate,
        electrode_positions=base.electrode_positions,
        mixing_matrix=base.mixing_matrix + 5.0,
        component_activity=base.component_activity,
    )
    a, _ = extract_recording(base)
    b, _ = extract_recording(shifted)
    assert np.allclose(a.topo, b.topo, atol=1e-9)


def test_extract_recording_references_once_and_stacks_every_component(monkeypatch):
    recording = builders.make_recording(n_channels=20, n_components=6, seed=13)
    calls = []
    real = features.common_average_reference
    monkeypatch.setattr(features, "common_average_reference",
                        lambda data: calls.append(data.shape) or real(data))
    stack, failures = extract_recording(recording)
    assert calls == [(20, 6)] and failures == {}
    assert len(stack) == 6
    for i in range(6):  # bit for bit the per-component rows, in component order
        topo, psd, autocorr = _component_rows(recording, i)
        assert np.array_equal(stack.topo[i], topo)
        assert np.array_equal(stack.psd[i], psd)
        assert np.array_equal(stack.autocorr[i], autocorr)
    assert not np.any(stack.topo[:, ~GRID_MASK])  # every image lies on the one disk


def test_extracted_rows_do_not_depend_on_the_other_components():
    recording = builders.make_recording(n_channels=20, n_components=7, seed=17)
    subset = [5, 0, 3, 6]
    part = Recording(
        sample_rate=recording.sample_rate,
        electrode_positions=recording.electrode_positions,
        mixing_matrix=recording.mixing_matrix[:, subset],
        component_activity=recording.component_activity[subset],
    )
    whole, _ = extract_recording(recording)
    shared, failures = extract_recording(part)
    assert failures == {}
    for name in ("topo", "psd", "autocorr"):
        assert np.array_equal(getattr(shared, name), getattr(whole, name)[subset])


def test_extraction_drops_a_nan_electrode_for_every_component():
    base = builders.make_recording(n_channels=18, n_components=4, seed=18)
    positions = base.electrode_positions.copy()
    positions[3] = np.nan
    recording = Recording(
        sample_rate=base.sample_rate,
        electrode_positions=positions,
        mixing_matrix=base.mixing_matrix,
        component_activity=base.component_activity,
    )
    stack, failures = extract_recording(recording)
    assert failures == {}
    keep = np.arange(18) != 3
    referenced = common_average_reference(base.mixing_matrix)
    for j in range(4):
        expect = scalp_topography(referenced[keep, j], base.electrode_positions[keep])
        assert np.array_equal(stack.topo[j], normalize_features(expect))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_column_overflowing_the_reference_fails_alone():
    base = builders.make_recording(n_channels=16, n_components=3, seed=20)
    mixing = base.mixing_matrix.copy()
    mixing[:, 1] = 1.5e308  # finite, but the channel sum is not
    recording = Recording(
        sample_rate=base.sample_rate,
        electrode_positions=base.electrode_positions,
        mixing_matrix=mixing,
        component_activity=base.component_activity,
    )
    stack, failures = extract_recording(recording)
    assert list(failures) == [1] and "overflows the common average reference" in str(failures[1])
    clean, _ = extract_recording(base)
    assert np.array_equal(stack.topo, clean.topo[[0, 2]])


def test_a_collinear_montage_fails_every_component(tmp_path, capsys):
    angle = np.linspace(-1.2, 1.2, 8)  # one arc through the vertex
    base = builders.make_recording(n_channels=8, n_components=3, seed=19)
    recording = Recording(
        sample_rate=base.sample_rate,
        electrode_positions=np.column_stack([np.sin(angle), np.zeros(8), np.cos(angle)]),
        mixing_matrix=base.mixing_matrix,
        component_activity=base.component_activity,
    )
    stack, failures = extract_recording(recording)
    assert stack is None and sorted(failures) == [0, 1, 2]
    for exc in failures.values():
        assert isinstance(exc, DataError)
        assert str(exc) == ("electrodes are collinear after projection; "
                            "interpolation is rank-deficient")
    write_recording_bundle(tmp_path / "rec", recording, recording_id="rec")
    assert cli.main(["extract", "--recording", str(tmp_path / "rec"),
                     "--out", str(tmp_path / "features")]) == 2
    assert "3 component(s) failed extraction: ic000, ic001, ic002" in capsys.readouterr().err


# ---------------------------------------------------------- feature stack


def test_feature_stack_round_trips_components():
    recording = builders.make_recording(seed=13)
    rows = [_component_rows(recording, i) for i in range(recording.n_components)]
    stack = FeatureStack.from_features(rows)
    assert len(stack) == recording.n_components
    for i, (topo, psd, autocorr) in enumerate(rows):
        assert np.array_equal(stack.topo[i], topo)
        assert not np.any(stack.topo[i][~GRID_MASK])
        assert np.array_equal(stack.psd[i], psd)
        assert np.array_equal(stack.autocorr[i], autocorr)
    with pytest.raises(DataError, match="empty"):
        FeatureStack.from_features([])


def test_feature_stack_mirror_negate_and_subset():
    stack = builders.random_stack(5, seed=14)
    psd, autocorr = stack.psd.copy(), stack.autocorr.copy()
    orbit = [orbit_element(stack.topo, mirror, negate) for mirror, negate in TOPOGRAPHY_ORBIT]
    assert sum(len(element) for element in orbit) == 20
    for q, topo in enumerate([stack.topo, stack.topo[:, :, ::-1],
                              -stack.topo, -stack.topo[:, :, ::-1]]):
        assert np.array_equal(orbit[q], topo)
        # only the topography moves along the orbit
        assert np.array_equal(stack.psd, psd)
        assert np.array_equal(stack.autocorr, autocorr)
    sub = stack.subset([3, 0])
    assert len(sub) == 2
    for name in ("topo", "psd", "autocorr"):
        assert np.array_equal(getattr(sub, name), getattr(stack, name)[[3, 0]])


def test_grid_mask_is_the_only_mask():
    # the mask is a constant, so no stack carries one, and the orbit's
    # mirror keeps it: a mirrored image stays on the disk
    assert [f.name for f in dataclasses.fields(FeatureStack)] == ["topo", "psd", "autocorr"]
    assert np.array_equal(GRID_MASK[:, ::-1], GRID_MASK)
    stack = builders.random_stack(2, seed=15)
    ignored = FeatureStack(stack.topo, stack.psd, stack.autocorr, mask=np.zeros((2, 32, 32)))
    for mirror, negate in TOPOGRAPHY_ORBIT:
        assert np.array_equal(orbit_element(ignored.topo, mirror, negate),
                              orbit_element(stack.topo, mirror, negate))


# ------------------------------------------------------------- recording


def test_recording_validation_rejects_malformed_inputs():
    good = builders.make_recording(seed=15)
    fields = dict(
        sample_rate=good.sample_rate,
        electrode_positions=good.electrode_positions,
        mixing_matrix=good.mixing_matrix,
        component_activity=good.component_activity,
    )
    for bad in (
        dict(sample_rate=0.0),
        dict(sample_rate=float("inf")),
        dict(electrode_positions=good.electrode_positions * 3.0),  # norms far from 1
        dict(electrode_positions=good.electrode_positions[:-1]),  # count mismatch
        dict(mixing_matrix=good.mixing_matrix[:1]),  # one channel
        dict(mixing_matrix=good.mixing_matrix[:, :0]),  # no components
        dict(component_activity=good.component_activity[:-1]),  # row count mismatch
        dict(component_activity=good.component_activity[:, :0]),  # no samples
        dict(component_activity=good.component_activity[0]),  # not 2-D
    ):
        with pytest.raises(DataError):
            Recording(**{**fields, **bad})


def test_recording_accepts_and_discards_channel_data():
    good = builders.make_recording(seed=16)
    recording = Recording(
        channel_data=np.ones((3, 3)),  # never checked: extraction does not read it
        sample_rate=good.sample_rate,
        electrode_positions=good.electrode_positions,
        mixing_matrix=good.mixing_matrix,
        component_activity=good.component_activity,
    )
    assert "channel_data" not in vars(recording)
