"""Feature extraction: referencing, topography, spectra, autocorrelation."""

import numpy as np
import pytest

import builders
import oracles
from icsort.errors import DataError
from icsort.features import (
    FEATURE_SCALE,
    GRID_MASK,
    FeatureStack,
    IcFeatures,
    Recording,
    TOPOGRAPHY_ORBIT,
    ScalpTopography,
    autocorrelation,
    common_average_reference,
    extract_component_features,
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
    assert np.allclose(topo.pixels[topo.mask], 3.25, atol=1e-8)
    assert np.all(topo.pixels[~topo.mask] == 0.0)


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
    assert np.allclose(topo.pixels[topo.mask], expect[topo.mask], atol=1e-7)


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
    assert np.allclose(topo.pixels[topo.mask], 1.0, atol=1e-8)


def test_topography_mirror_and_negate_are_involutions():
    cap = builders.electrode_cap(20)
    rng = np.random.default_rng(3)
    pixels = scalp_topography(rng.standard_normal(20), cap).pixels
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


def test_median_welch_rejects_unusable_inputs():
    with pytest.raises(DataError):
        median_welch_psd(np.ones(100), 0.0)
    with pytest.raises(DataError):
        median_welch_psd(np.ones(100), 1.5)  # no bins at 1 Hz or above
    with pytest.raises(DataError):
        median_welch_psd(np.ones(10), 64.0)  # shorter than one window


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
    feats = IcFeatures(
        topo=scalp_topography(rng.standard_normal(20) * 7.0, cap),
        psd=rng.standard_normal(100) * 30.0,
        autocorr=rng.uniform(-0.9, 0.9, 100),
    )
    normalized = normalize_features(feats)
    assert np.max(np.abs(normalized.topo.pixels)) == pytest.approx(FEATURE_SCALE, abs=1e-12)
    assert np.max(np.abs(normalized.psd)) == pytest.approx(FEATURE_SCALE, abs=1e-12)
    assert np.array_equal(normalized.autocorr, feats.autocorr)


def test_normalize_passes_all_zero_features_through():
    feats = IcFeatures(
        topo=ScalpTopography(np.zeros((32, 32)), GRID_MASK.copy()),
        psd=np.zeros(100),
        autocorr=np.zeros(100),
    )
    normalized = normalize_features(feats)
    assert np.all(normalized.topo.pixels == 0.0)
    assert np.all(normalized.psd == 0.0)


# ----------------------------------------------------------------- orbit


def test_topography_orbit_lists_the_four_symmetry_variants():
    cap = builders.electrode_cap(20)
    rng = np.random.default_rng(9)
    base = scalp_topography(rng.standard_normal(20), cap).pixels
    variants = [orbit_element(base, mirror, negate) for mirror, negate in TOPOGRAPHY_ORBIT]
    assert len(variants) == 4
    assert np.array_equal(variants[0], base)
    assert np.array_equal(variants[1], base[:, ::-1])  # left-right mirror
    assert np.array_equal(variants[2], -base)
    assert np.array_equal(variants[3], -base[:, ::-1])


# ------------------------------------------------------------ extraction


def test_extract_component_features_is_normalized_and_masked():
    recording = builders.make_recording(seed=10)
    feats = extract_component_features(recording, 1)
    assert np.max(np.abs(feats.topo.pixels)) == pytest.approx(FEATURE_SCALE, abs=1e-9)
    assert np.max(np.abs(feats.psd)) == pytest.approx(FEATURE_SCALE, abs=1e-9)
    assert np.all(feats.topo.pixels[~feats.topo.mask] == 0.0)
    assert np.all(np.isfinite(feats.psd))
    assert np.all(np.isfinite(feats.autocorr))
    assert abs(feats.autocorr).max() <= FEATURE_SCALE + 1e-9


def test_extraction_is_invariant_to_a_common_mixing_offset():
    # the common average reference removes any constant added to every
    # channel of a component's scalp projection
    base = builders.make_recording(seed=11)
    shifted = Recording(
        channel_data=base.channel_data,
        sample_rate=base.sample_rate,
        electrode_positions=base.electrode_positions,
        mixing_matrix=base.mixing_matrix + 5.0,
        component_activity=base.component_activity,
    )
    for index in range(base.n_components):
        a = extract_component_features(base, index)
        b = extract_component_features(shifted, index)
        assert np.allclose(a.topo.pixels, b.topo.pixels, atol=1e-9)


def test_extraction_index_out_of_range():
    recording = builders.make_recording(seed=12)
    with pytest.raises(DataError):
        extract_component_features(recording, recording.n_components)


# ---------------------------------------------------------- feature stack


def test_feature_stack_round_trips_components():
    recording = builders.make_recording(seed=13)
    feats = [extract_component_features(recording, i) for i in range(recording.n_components)]
    stack = FeatureStack.from_features(feats)
    assert len(stack) == recording.n_components
    for i, original in enumerate(feats):
        assert np.array_equal(stack.topo[i], original.topo.pixels)
        assert np.array_equal(stack.mask[i], original.topo.mask)
        assert np.array_equal(stack.psd[i], original.psd)
        assert np.array_equal(stack.autocorr[i], original.autocorr)


def test_feature_stack_mirror_negate_and_subset():
    stack = builders.random_stack(5, seed=14)
    stack.mask = stack.mask.copy()
    stack.mask[:, :, :3] = 0  # lopsided, so a mirrored mask differs
    orbit = stack.orbit()
    assert len(orbit) == 20
    rows = lambda q: slice(5 * q, 5 * q + 5)  # orbit element q
    for q, (topo, mask) in enumerate([
        (stack.topo, stack.mask),
        (stack.topo[:, :, ::-1], stack.mask[:, :, ::-1]),
        (-stack.topo, stack.mask),
        (-stack.topo[:, :, ::-1], stack.mask[:, :, ::-1]),
    ]):
        assert np.array_equal(orbit.topo[rows(q)], topo)
        assert np.array_equal(orbit.mask[rows(q)], mask)
        assert np.array_equal(orbit.psd[rows(q)], stack.psd)
        assert np.array_equal(orbit.autocorr[rows(q)], stack.autocorr)
    sub = stack.subset([3, 0])
    assert len(sub) == 2
    assert np.array_equal(sub.topo[0], stack.topo[3])
    assert np.array_equal(sub.topo[1], stack.topo[0])


# ------------------------------------------------------------- recording


def test_recording_validation_rejects_malformed_inputs():
    good = builders.make_recording(seed=15)
    with pytest.raises(DataError):
        Recording(
            channel_data=good.channel_data,
            sample_rate=0.0,
            electrode_positions=good.electrode_positions,
            mixing_matrix=good.mixing_matrix,
            component_activity=good.component_activity,
        )
    with pytest.raises(DataError):
        Recording(
            channel_data=good.channel_data,
            sample_rate=good.sample_rate,
            electrode_positions=good.electrode_positions * 3.0,  # norms far from 1
            mixing_matrix=good.mixing_matrix,
            component_activity=good.component_activity,
        )
    with pytest.raises(DataError):
        Recording(
            channel_data=good.channel_data,
            sample_rate=good.sample_rate,
            electrode_positions=good.electrode_positions[:-1],  # count mismatch
            mixing_matrix=good.mixing_matrix,
            component_activity=good.component_activity,
        )
