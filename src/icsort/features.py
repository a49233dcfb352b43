"""Per-component feature extraction for ICA-decomposed EEG.

Each independent component is summarized by three feature sets consumed by
the classifier:

* a 32x32 interpolated scalp topography of its channel projection,
* a 100-bin log power spectrum (1..100 Hz) from a median-variant of
  Welch's method, and
* a 100-lag autocorrelation function spanning (0, 1 s].

All operations are pure functions of their inputs; distinct components may
be processed concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy.interpolate import RBFInterpolator

from .errors import DataError

TOPO_SIZE = 32
N_PSD_BINS = 100
N_AUTOCORR_LAGS = 100

#: Peak absolute value that normalized feature sets are scaled to.
FEATURE_SCALE = 0.99

# Pixel-center coordinates of the topography grid over [-1, 1]^2.
# Row 0 is the top of the image (anterior, +y); column 0 is the subject's
# left (-x), so +x points to the subject's right.
_GRID_X = np.linspace(-1.0, 1.0, TOPO_SIZE)
_GRID_Y = np.linspace(1.0, -1.0, TOPO_SIZE)
GRID_MASK = (_GRID_X[None, :] ** 2 + _GRID_Y[:, None] ** 2) <= 1.0


@dataclass
class ScalpTopography:
    """Interpolated scalp image plus the in-head disk mask."""

    pixels: np.ndarray  # (32, 32) float64, zero outside the mask
    mask: np.ndarray  # (32, 32) bool

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.pixels.shape != (TOPO_SIZE, TOPO_SIZE):
            raise DataError(f"topography must be {TOPO_SIZE}x{TOPO_SIZE}, got {self.pixels.shape}")
        if self.mask.shape != (TOPO_SIZE, TOPO_SIZE):
            raise DataError(f"topography mask must be {TOPO_SIZE}x{TOPO_SIZE}, got {self.mask.shape}")


@dataclass
class IcFeatures:
    """The three feature sets describing one independent component."""

    topo: ScalpTopography
    psd: np.ndarray  # (100,) float64, log power at 1..100 Hz
    autocorr: np.ndarray  # (100,) float64, lags in (0, 1 s]

    def __post_init__(self):
        self.psd = np.asarray(self.psd, dtype=np.float64)
        self.autocorr = np.asarray(self.autocorr, dtype=np.float64)
        if self.psd.shape != (N_PSD_BINS,):
            raise DataError(f"psd must have {N_PSD_BINS} bins, got {self.psd.shape}")
        if self.autocorr.shape != (N_AUTOCORR_LAGS,):
            raise DataError(
                f"autocorrelation must have {N_AUTOCORR_LAGS} lags, got {self.autocorr.shape}"
            )


@dataclass
class Recording:
    """An ICA-decomposed multichannel EEG recording.

    Attributes
    ----------
    channel_data : (n_channels, n_samples) array, microvolts.
    sample_rate : sampling rate in Hz.
    electrode_positions : (n_channels, 3) head-centered coordinates on the
        unit sphere (+x right, +y anterior, +z up); norms may deviate from 1
        by up to 20% to allow for digitization noise.
    mixing_matrix : (n_channels, n_components) ICA scalp projections.
    component_activity : (n_components, n_samples) component time courses.
    """

    channel_data: np.ndarray
    sample_rate: float
    electrode_positions: np.ndarray
    mixing_matrix: np.ndarray
    component_activity: np.ndarray

    def __post_init__(self):
        self.channel_data = np.asarray(self.channel_data, dtype=np.float64)
        self.electrode_positions = np.asarray(self.electrode_positions, dtype=np.float64)
        self.mixing_matrix = np.asarray(self.mixing_matrix, dtype=np.float64)
        self.component_activity = np.asarray(self.component_activity, dtype=np.float64)
        if self.channel_data.ndim != 2:
            raise DataError("channel_data must be 2-D (channels x samples)")
        n_ch, n_samp = self.channel_data.shape
        if n_ch < 2:
            raise DataError("recording needs at least 2 channels")
        if n_samp < 1:
            raise DataError("recording needs at least 1 sample")
        if not self.sample_rate > 0:
            raise DataError(f"sample rate must be positive, got {self.sample_rate}")
        if self.electrode_positions.shape != (n_ch, 3):
            raise DataError(
                f"electrode_positions must be ({n_ch}, 3), got {self.electrode_positions.shape}"
            )
        norms = np.linalg.norm(self.electrode_positions, axis=1)
        if np.any(norms < 0.8) or np.any(norms > 1.2):
            raise DataError("electrode positions must lie within 20% of the unit sphere")
        if self.mixing_matrix.ndim != 2 or self.mixing_matrix.shape[0] != n_ch:
            raise DataError(f"mixing_matrix must have {n_ch} rows")
        n_comp = self.mixing_matrix.shape[1]
        if n_comp < 1:
            raise DataError("recording needs at least 1 component")
        if self.component_activity.shape != (n_comp, n_samp):
            raise DataError(
                f"component_activity must be ({n_comp}, {n_samp}), "
                f"got {self.component_activity.shape}"
            )

    @property
    def n_components(self) -> int:
        return self.mixing_matrix.shape[1]


def common_average_reference(data: np.ndarray) -> np.ndarray:
    """Subtract the instantaneous mean across channels from every channel.

    Parameters
    ----------
    data : (n_channels, n_samples) array.

    Returns
    -------
    Re-referenced array of the same shape; every column of the result sums
    to zero.  Idempotent and linear.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 2:
        raise DataError("common average reference needs at least 2 channels")
    return data - data.mean(axis=0, keepdims=True)


def project_to_plane(positions: np.ndarray) -> np.ndarray:
    """Azimuthal-equidistant projection of head-centered 3-D positions.

    The planar radius is the polar angle from the vertex scaled so the
    equator maps to radius 1 (the rim of the image disk); electrodes below
    the equator land outside the disk but still constrain the interpolant.
    """
    pos = np.asarray(positions, dtype=np.float64)
    norms = np.linalg.norm(pos, axis=1)
    with np.errstate(invalid="ignore"):
        polar = np.arccos(np.clip(pos[:, 2] / norms, -1.0, 1.0))
    azimuth = np.arctan2(pos[:, 1], pos[:, 0])
    radius = polar / (np.pi / 2.0)
    return np.column_stack([radius * np.cos(azimuth), radius * np.sin(azimuth)])


def scalp_topography(projection: np.ndarray, positions: np.ndarray) -> ScalpTopography:
    """Interpolate a channel projection vector into a 32x32 scalp image.

    Electrode positions are flattened with an azimuthal-equidistant
    projection and the values are interpolated with a thin-plate-spline
    radial basis function (exact at the electrodes).  Pixels outside the
    unit disk are set to 0 and masked out.

    Raises
    ------
    DataError
        If fewer than 3 usable electrodes remain or all electrodes are
        collinear in the projected plane.
    """
    values = np.asarray(projection, dtype=np.float64)
    pos = np.asarray(positions, dtype=np.float64)
    if values.ndim != 1 or pos.shape != (values.shape[0], 3):
        raise DataError("projection must be a vector with one entry per electrode position")

    usable = np.isfinite(values) & np.all(np.isfinite(pos), axis=1)
    values = values[usable]
    planar = project_to_plane(pos[usable])
    if planar.shape[0] < 3:
        raise DataError("scalp interpolation needs at least 3 usable electrodes")
    centered = planar - planar.mean(axis=0)
    singular = np.linalg.svd(centered, compute_uv=False)
    if singular[1] <= 1e-9 * max(1.0, singular[0]):
        raise DataError("electrodes are collinear after projection; interpolation is rank-deficient")

    try:
        interp = RBFInterpolator(planar, values, kernel="thin_plate_spline", degree=1)
    except np.linalg.LinAlgError as exc:  # duplicate positions
        raise DataError(f"scalp interpolation is rank-deficient: {exc}") from exc

    xx, yy = np.meshgrid(_GRID_X, _GRID_Y)
    pts = np.column_stack([xx[GRID_MASK], yy[GRID_MASK]])
    pixels = np.zeros((TOPO_SIZE, TOPO_SIZE))
    pixels[GRID_MASK] = interp(pts)
    return ScalpTopography(pixels, GRID_MASK.copy())


def _segment_periodograms(x: np.ndarray, nperseg: int, sample_rate: float) -> np.ndarray:
    """One-sided, density-scaled periodograms of 50%-overlapping Hamming windows."""
    hop = nperseg - nperseg // 2
    n_segments = 1 + (x.shape[0] - nperseg) // hop
    window = np.hamming(nperseg)
    scale = 1.0 / (sample_rate * float(np.sum(window**2)))
    starts = np.arange(n_segments) * hop
    segments = np.stack([x[s : s + nperseg] for s in starts]) * window
    spectra = np.abs(np.fft.rfft(segments, axis=1)) ** 2 * scale
    spectra[:, 1:] *= 2.0
    if nperseg % 2 == 0:  # undo the doubling at the Nyquist bin
        spectra[:, -1] /= 2.0
    return spectra


def median_welch_psd(activity: np.ndarray, sample_rate: float) -> np.ndarray:
    """Median-across-windows Welch log power at integer frequencies 1..100 Hz.

    Periodograms are computed over 1-second Hamming windows with 50%
    overlap; the per-frequency median across windows replaces the usual
    mean, making the estimate robust to brief large-amplitude artifacts.
    Powers are converted to decibels (10*log10 with an additive 1e-12
    floor) and sampled at 1..100 Hz; bins above the Nyquist frequency
    repeat the highest valid bin.
    """
    x = np.asarray(activity, dtype=np.float64).ravel()
    if not sample_rate > 0:
        raise DataError(f"sample rate must be positive, got {sample_rate}")
    if sample_rate < 2:
        raise DataError("sample rate too low: no spectral bins at or above 1 Hz")
    nperseg = int(round(sample_rate))
    if x.shape[0] < nperseg:
        raise DataError(
            f"need at least one full 1-second window ({nperseg} samples), got {x.shape[0]}"
        )
    spectra = _segment_periodograms(x, nperseg, sample_rate)
    median_power = np.median(spectra, axis=0)
    db = 10.0 * np.log10(median_power + 1e-12)

    freqs = np.fft.rfftfreq(nperseg, 1.0 / sample_rate)
    nyquist = sample_rate / 2.0
    out = np.empty(N_PSD_BINS)
    last_valid = db[0]
    for f in range(1, N_PSD_BINS + 1):
        if f <= nyquist + 1e-9:
            last_valid = db[int(np.argmin(np.abs(freqs - f)))]
        out[f - 1] = last_valid
    return out


def autocorrelation(activity: np.ndarray, sample_rate: float) -> np.ndarray:
    """Autocorrelation at 100 evenly spaced lags over (0, 1 s].

    The biased sample autocorrelation of the demeaned signal is computed
    for lags up to 1 s, linearly resampled onto 101 lags spanning [0, 1 s],
    scaled so the zero-lag value is 0.99, and returned with the zero-lag
    entry dropped.  The result is invariant to amplitude scaling and to the
    sample rate of the input.
    """
    x = np.asarray(activity, dtype=np.float64).ravel()
    if not sample_rate > 0:
        raise DataError(f"sample rate must be positive, got {sample_rate}")
    n = x.shape[0]
    if n < 2 * sample_rate:
        raise DataError("need at least 2 seconds of samples to estimate lags up to 1 s")
    x = x - x.mean()
    variance = float(np.dot(x, x)) / n
    if variance <= 1e-300:
        raise DataError("autocorrelation is undefined for a constant signal")

    max_lag = int(np.ceil(sample_rate))
    nfft = scipy.fft.next_fast_len(n + max_lag + 1)
    spectrum = np.abs(np.fft.rfft(x, nfft)) ** 2
    acov = np.fft.irfft(spectrum, nfft)[: max_lag + 1] / n

    lag_samples = np.linspace(0.0, 1.0, N_AUTOCORR_LAGS + 1) * sample_rate
    resampled = np.interp(lag_samples, np.arange(max_lag + 1, dtype=np.float64), acov)
    resampled *= FEATURE_SCALE / resampled[0]
    return resampled[1:]


def normalize_features(features: IcFeatures) -> IcFeatures:
    """Scale topography and PSD so each peaks at 0.99 in absolute value.

    Identically-zero feature sets pass through unchanged; the
    autocorrelation is already normalized by construction.
    """
    pixels = features.topo.pixels
    peak = float(np.max(np.abs(pixels)))
    if peak > 0:
        pixels = pixels * (FEATURE_SCALE / peak)
    psd = features.psd
    peak = float(np.max(np.abs(psd)))
    if peak > 0:
        psd = psd * (FEATURE_SCALE / peak)
    return IcFeatures(
        topo=ScalpTopography(pixels.copy(), features.topo.mask.copy()),
        psd=psd.copy(),
        autocorr=features.autocorr.copy(),
    )


#: The symmetry orbit of a scalp topography, identity first, as (mirror, negate)
#: pairs: mirroring reflects the image left-right (about the sagittal plane).
#: ``classify`` averages its output over this orbit and training augments
#: with it; PSD, autocorrelation and labels are the same for every element.
TOPOGRAPHY_ORBIT = ((False, False), (True, False), (False, True), (True, True))


def orbit_element(images: np.ndarray, mirror: bool, negate: bool) -> np.ndarray:
    """One ``TOPOGRAPHY_ORBIT`` element of (..., 32, 32) images; a view unless negated."""
    if mirror:
        images = images[..., ::-1]
    return -images if negate else images


@dataclass
class FeatureStack:
    """Batched feature arrays for a list of components (row per component)."""

    topo: np.ndarray  # (n, 32, 32)
    mask: np.ndarray  # (n, 32, 32) bool
    psd: np.ndarray  # (n, 100)
    autocorr: np.ndarray  # (n, 100)

    def __len__(self) -> int:
        return self.topo.shape[0]

    @classmethod
    def from_features(cls, features) -> "FeatureStack":
        feats = list(features)
        if not feats:
            raise DataError("cannot stack an empty feature list")
        return cls(
            topo=np.stack([f.topo.pixels for f in feats]),
            mask=np.stack([f.topo.mask for f in feats]),
            psd=np.stack([f.psd for f in feats]),
            autocorr=np.stack([f.autocorr for f in feats]),
        )

    def orbit(self) -> "FeatureStack":
        """The stack repeated once per ``TOPOGRAPHY_ORBIT`` element, in orbit order (4n rows).

        Masks are mirrored with their images; negation keeps them.
        """
        k = len(TOPOGRAPHY_ORBIT)
        return FeatureStack(
            topo=np.concatenate([orbit_element(self.topo, mirror, negate)
                                 for mirror, negate in TOPOGRAPHY_ORBIT]),
            mask=np.concatenate([orbit_element(self.mask, mirror, False)
                                 for mirror, _ in TOPOGRAPHY_ORBIT]),
            psd=np.concatenate([self.psd] * k),
            autocorr=np.concatenate([self.autocorr] * k),
        )

    def subset(self, indices) -> "FeatureStack":
        idx = np.asarray(indices)
        return FeatureStack(self.topo[idx], self.mask[idx], self.psd[idx], self.autocorr[idx])


def extract_component_features(recording: Recording, index: int) -> IcFeatures:
    """Compute normalized topography, PSD, and autocorrelation for one component.

    The mixing matrix is converted to a common average reference before
    interpolating the scalp topography.

    Raises
    ------
    DataError
        If the component's mixing-matrix column or activity holds a
        non-finite value, naming the array.
    """
    if not 0 <= index < recording.n_components:
        raise DataError(f"component index {index} out of range")
    if not np.all(np.isfinite(recording.mixing_matrix[:, index])):
        raise DataError(f"mixing_matrix column {index} has non-finite values")
    if not np.all(np.isfinite(recording.component_activity[index])):
        raise DataError(f"component_activity row {index} has non-finite samples")
    referenced = common_average_reference(recording.mixing_matrix)
    topo = scalp_topography(referenced[:, index], recording.electrode_positions)
    activity = recording.component_activity[index]
    raw = IcFeatures(
        topo=topo,
        psd=median_welch_psd(activity, recording.sample_rate),
        autocorr=autocorrelation(activity, recording.sample_rate),
    )
    return normalize_features(raw)
