"""Per-component feature extraction for ICA-decomposed EEG.

Each independent component is summarized by three feature sets consumed by
the classifier:

* a 32x32 interpolated scalp topography of its channel projection,
* a 100-bin log power spectrum (1..100 Hz) from a median-variant of
  Welch's method, and
* a 100-lag autocorrelation function spanning (0, 1 s], from overlapped
  power-of-two blocks (``_autocovariance``), not one whole-length transform.

All operations are pure functions of their inputs.  ``extract_recording``
references the mixing matrix once per recording and interpolates every
component's topography with one thin-plate-spline operator for the montage
(the spline is linear in the electrode values), applied to each component
on its own.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import DataError, IcsortError

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
class Recording:
    """An ICA-decomposed multichannel EEG recording.

    Attributes
    ----------
    sample_rate : sampling rate in Hz, at least 2 (the lowest rate with a
        spectral bin at 1 Hz).
    electrode_positions : (n_channels, 3) head-centered coordinates on the
        unit sphere (+x right, +y anterior, +z up); norms may deviate from 1
        by up to 20% to allow for digitization noise.
    mixing_matrix : (n_channels, n_components) ICA scalp projections.
    component_activity : (n_components, n_samples) component time courses.

    Features come from the mixing matrix and the activity alone, so a
    ``channel_data`` argument (the raw recording) is accepted and discarded.
    """

    sample_rate: float
    electrode_positions: np.ndarray
    mixing_matrix: np.ndarray
    component_activity: np.ndarray
    channel_data: InitVar[np.ndarray | None] = None

    def __post_init__(self, channel_data):
        self.electrode_positions = np.asarray(self.electrode_positions, dtype=np.float64)
        self.mixing_matrix = np.asarray(self.mixing_matrix, dtype=np.float64)
        self.component_activity = np.asarray(self.component_activity, dtype=np.float64)
        if self.mixing_matrix.ndim != 2:
            raise DataError("mixing_matrix must be 2-D (channels x components)")
        n_ch, n_comp = self.mixing_matrix.shape
        if n_ch < 2:
            raise DataError("recording needs at least 2 channels")
        if n_comp < 1:
            raise DataError("recording needs at least 1 component")
        if self.component_activity.ndim != 2 or self.component_activity.shape[0] != n_comp:
            raise DataError(
                f"component_activity must have {n_comp} rows (components x samples), "
                f"got {self.component_activity.shape}"
            )
        if self.component_activity.shape[1] < 1:
            raise DataError("recording needs at least 1 sample")
        if not (np.isfinite(self.sample_rate) and self.sample_rate >= 2):
            raise DataError(f"sample_rate must be at least 2 Hz, got {self.sample_rate}")
        if self.electrode_positions.shape != (n_ch, 3):
            raise DataError(
                f"electrode_positions must be ({n_ch}, 3), got {self.electrode_positions.shape}"
            )
        norms = np.linalg.norm(self.electrode_positions, axis=1)
        if np.any(norms < 0.8) or np.any(norms > 1.2):
            raise DataError("electrode positions must lie within 20% of the unit sphere")

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
    to zero.  Idempotent and linear.  Each column's mean is taken along a
    contiguous row of the transpose, so a column's bits do not depend on the
    other columns (a reduction along axis 0 rounds differently by width).
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 2:
        raise DataError("common average reference needs at least 2 channels")
    return data - np.ascontiguousarray(data.T).mean(axis=1)


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


def _pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance from each row of ``a`` to each row of ``b``."""
    return np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)


def _thin_plate(r: np.ndarray) -> np.ndarray:
    """The thin-plate-spline kernel r² log r, with its limit 0 at r = 0."""
    return r**2 * np.log(r, out=np.zeros_like(r), where=r > 0)


def _interpolation_operator(planar: np.ndarray) -> np.ndarray:
    """The (740, n_electrodes) matrix taking electrode values to the masked grid pixels.

    A thin-plate spline with a linear tail is linear in the values it fits,
    so interpolating the identity gives, column by column, the spline of each
    unit vector; a projection's pixels are then ``operator @ values``.  The
    spline is the one SciPy's ``RBFInterpolator(kernel="thin_plate_spline",
    degree=1)`` fits: kernel weights w and tail coefficients c solve
    ``[[K, P], [Pᵀ, 0]] [w; c] = [I; 0]``, where ``K`` holds the kernel of
    the electrode distances and ``P`` the tail ``[1, x, y]`` over coordinates
    centred and scaled to [-1, 1] per axis.
    """
    n = planar.shape[0]
    if n < 3:
        raise DataError("scalp interpolation needs at least 3 usable electrodes")
    centered = planar - planar.mean(axis=0)
    singular = np.linalg.svd(centered, compute_uv=False)
    if singular[1] <= 1e-9 * max(1.0, singular[0]):
        raise DataError("electrodes are collinear after projection; interpolation is rank-deficient")
    distances = _pairwise_distances(planar, planar)
    # the spline system of two coincident electrodes is singular, yet its LU
    # solve need not raise: it returns images of ~1e17
    if np.min(distances[np.triu_indices(n, 1)]) <= 1e-9:
        raise DataError("scalp interpolation is rank-deficient: two electrodes share a position")
    low, high = planar.min(axis=0), planar.max(axis=0)
    shift, scale = (high + low) / 2, (high - low) / 2
    scale[scale == 0.0] = 1.0

    def tail(points):
        return np.column_stack([np.ones(len(points)), (points - shift) / scale])

    system = np.zeros((n + 3, n + 3))
    system[:n, :n] = _thin_plate(distances)
    system[:n, n:] = tail(planar)
    system[n:, :n] = system[:n, n:].T
    try:
        coefficients = np.linalg.solve(system, np.eye(n + 3, n))
    except np.linalg.LinAlgError as exc:
        raise DataError(f"scalp interpolation is rank-deficient: {exc}") from exc
    xx, yy = np.meshgrid(_GRID_X, _GRID_Y)
    pixels = np.column_stack([xx[GRID_MASK], yy[GRID_MASK]])
    return np.hstack([_thin_plate(_pairwise_distances(pixels, planar)), tail(pixels)]) @ coefficients


def scalp_topography(projection: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Interpolate channel projections into 32x32 scalp images.

    Electrode positions are flattened with an azimuthal-equidistant
    projection and the values are interpolated with a thin-plate-spline
    radial basis function (exact at the electrodes).  Pixels outside
    ``GRID_MASK`` (the unit disk) are 0.

    ``projection`` is one vector (n_channels,), giving one (32, 32) image,
    or a matrix (n_channels, k) of k projections on the same montage, giving
    (k, 32, 32) images.  The interpolation operator is built once per call
    and applied to each projection on its own, so an image does not depend
    on which other projections share the call.  Electrodes with a non-finite
    position are dropped; so are those with a non-finite value in a vector,
    while a matrix must be finite.

    Raises
    ------
    DataError
        If fewer than 3 usable electrodes remain, all electrodes are
        collinear in the projected plane, or two share a position.
    """
    values = np.asarray(projection, dtype=np.float64)
    pos = np.asarray(positions, dtype=np.float64)
    if values.ndim not in (1, 2) or pos.shape != (values.shape[0], 3):
        raise DataError("projection must have one row per electrode position")
    usable = np.all(np.isfinite(pos), axis=1)
    if values.ndim == 1:
        usable &= np.isfinite(values)
    elif not np.all(np.isfinite(values)):
        raise DataError("a projection matrix must be finite; pass a column with gaps on its own")
    operator = _interpolation_operator(project_to_plane(pos[usable]))

    # one contiguous row per projection, so each image is the same matrix-vector product
    rows = np.ascontiguousarray(np.atleast_2d(values[usable].T))
    pixels = np.zeros((rows.shape[0], TOPO_SIZE, TOPO_SIZE))
    for image, row in zip(pixels, rows):
        image[GRID_MASK] = operator @ row
    return pixels if values.ndim == 2 else pixels[0]


def _segment_periodograms(x: np.ndarray, nperseg: int, sample_rate: float) -> np.ndarray:
    """One-sided, density-scaled periodograms of 50%-overlapping Hamming windows."""
    hop = nperseg - nperseg // 2
    window = np.hamming(nperseg)
    scale = 1.0 / (sample_rate * float(np.sum(window**2)))
    segments = np.lib.stride_tricks.sliding_window_view(x, nperseg)[::hop] * window
    spectra = np.abs(np.fft.rfft(segments, axis=1)) ** 2 * scale
    spectra[:, 1:] *= 2.0
    if nperseg % 2 == 0:  # undo the doubling at the Nyquist bin
        spectra[:, -1] /= 2.0
    return spectra


def _psd_bins(nperseg: int, sample_rate: float) -> np.ndarray:
    """Periodogram bin of each output frequency 1..100 Hz.

    Each frequency at or below the Nyquist frequency takes its nearest bin
    (the lower one on a tie); the frequencies above it repeat the highest
    of those.
    """
    freqs = np.fft.rfftfreq(nperseg, 1.0 / sample_rate)
    targets = np.arange(1, N_PSD_BINS + 1)
    nearest = np.argmin(np.abs(freqs[None, :] - targets[:, None]), axis=1)
    n_valid = int(np.sum(targets <= sample_rate / 2.0 + 1e-9))
    nearest[n_valid:] = nearest[n_valid - 1]
    return nearest


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
    with np.errstate(over="ignore", invalid="ignore"):  # such spectra are rejected below
        spectra = _segment_periodograms(x, nperseg, sample_rate)
    if not np.isfinite(spectra).all():
        raise DataError("power spectrum is not finite: the activity has non-finite or "
                        "overflowing samples")
    # np.median's bits by selection (no NaN sentinel), over columns up to the highest output bin
    bins = _psd_bins(nperseg, sample_rate)
    powers = spectra[:, : bins[-1] + 1]
    middles = sorted({(len(powers) - 1) // 2, len(powers) // 2})
    median_power = np.mean(np.partition(powers, middles, axis=0)[middles], axis=0)
    return (10.0 * np.log10(median_power + 1e-12))[bins]


def _autocovariance(x: np.ndarray, max_lag: int) -> np.ndarray:
    """The biased autocovariance ``sum(x[t] * x[t + k]) / n`` of ``x`` at lags 0..max_lag.

    Blocks of B samples, B the least power of two >= 2 * max_lag (>= max_lag
    suffices; twice ran fastest), are zero-padded to 2B.  A lag k <= B from
    block b reaches only blocks b and b + 1, and a shift by B in a 2B-point
    transform is a factor (-1)^k, so the lag sums are the inverse transform
    of ``sum_b |X_b|^2 + (-1)^k sum_b conj(X_b) X_{b+1}``.  Plain sums, no
    BLAS call, keep the bits independent of the thread count.
    """
    n = x.shape[0]
    block = 1 << (2 * max_lag - 1).bit_length()
    n_blocks = -(-n // block)
    padded = np.zeros(n_blocks * block)
    padded[:n] = x
    spectra = np.fft.rfft(padded.reshape(n_blocks, block), 2 * block, axis=1)
    cross = np.sum(spectra[:-1].conj() * spectra[1:], axis=0)
    cross[1::2] *= -1
    lag_sums = np.fft.irfft(np.sum(spectra.real**2 + spectra.imag**2, axis=0) + cross, 2 * block)
    return lag_sums[: max_lag + 1] / n


def autocorrelation(activity: np.ndarray, sample_rate: float) -> np.ndarray:
    """Autocorrelation at 100 evenly spaced lags over (0, 1 s].

    The biased sample autocorrelation of the demeaned signal at lags up to
    1 s, from blocks of the least power of two >= 2 * ceil(sample_rate)
    (``_autocovariance``), is linearly resampled onto 101 lags spanning
    [0, 1 s], scaled so the zero-lag value is 0.99, and returned with the
    zero-lag entry dropped.  The result is invariant to amplitude scaling and
    to the sample rate of the input: the signal is first scaled by the power
    of two that brings its peak into [0.5, 1), which is exact, so every
    amplitude gives the bits of that one and none overflows or underflows.
    """
    x = np.asarray(activity, dtype=np.float64).ravel()
    if not sample_rate > 0:
        raise DataError(f"sample rate must be positive, got {sample_rate}")
    if x.shape[0] < 2 * sample_rate:
        raise DataError("need at least 2 seconds of samples to estimate lags up to 1 s")
    _, exponent = math.frexp(max(x.max(), -x.min()))
    x = np.ldexp(x, -exponent)
    x -= x.mean()
    if not x.any():  # a non-constant signal keeps a nonzero residual
        raise DataError("autocorrelation is undefined for a constant signal")

    max_lag = int(np.ceil(sample_rate))
    lag_samples = np.linspace(0.0, 1.0, N_AUTOCORR_LAGS + 1) * sample_rate
    resampled = np.interp(lag_samples, np.arange(max_lag + 1.0), _autocovariance(x, max_lag))
    resampled *= FEATURE_SCALE / resampled[0]
    return resampled[1:]


def normalize_features(values: np.ndarray) -> np.ndarray:
    """Scale a feature set (topography or PSD) so it peaks at 0.99 in absolute value.

    The values are first scaled by the power of two that brings the peak
    into [0.5, 1), which is exact: a normal peak gives the bits of
    ``values * (0.99 / peak)``, and a subnormal one no infinite factor.  An
    identically-zero feature set passes through unchanged; the
    autocorrelation is already normalized by construction.
    """
    peak = float(np.max(np.abs(values)))
    if not peak > 0:
        return values
    mantissa, exponent = math.frexp(peak)
    return np.ldexp(values, -exponent) * (FEATURE_SCALE / mantissa)


#: The symmetry orbit of a scalp topography, identity first, as (mirror, negate)
#: pairs: mirroring reflects the image left-right (about the sagittal plane).
#: ``classify`` averages its output over this orbit and training draws its
#: batches from it; PSD, autocorrelation and labels are the same for every element.
TOPOGRAPHY_ORBIT = ((False, False), (True, False), (False, True), (True, True))


def orbit_element(images: np.ndarray, mirror: bool, negate: bool) -> np.ndarray:
    """One ``TOPOGRAPHY_ORBIT`` element of (..., 32, 32) images; a view unless negated."""
    if mirror:
        images = images[..., ::-1]
    return -images if negate else images


@dataclass
class FeatureStack:
    """Batched feature arrays for a list of components (row per component).

    Every topography lies on the same disk, so its mask is the constant
    ``GRID_MASK``, not per-component data; a ``mask`` argument is accepted
    and discarded.
    """

    topo: np.ndarray  # (n, 32, 32)
    psd: np.ndarray  # (n, 100)
    autocorr: np.ndarray  # (n, 100)
    mask: InitVar[np.ndarray | None] = None

    def __len__(self) -> int:
        return self.topo.shape[0]

    @classmethod
    def from_features(cls, rows) -> "FeatureStack":
        """Stack (topo, psd, autocorr) rows, one per component."""
        rows = list(rows)
        if not rows:
            raise DataError("cannot stack an empty feature list")
        topo, psd, autocorr = (np.stack(column) for column in zip(*rows))
        return cls(topo=topo, psd=psd, autocorr=autocorr)

    def subset(self, indices) -> "FeatureStack":
        idx = np.asarray(indices)
        return FeatureStack(self.topo[idx], self.psd[idx], self.autocorr[idx])


# An InitVar's default is left behind as a class attribute; without it,
# reading a dropped argument raises AttributeError instead of giving None.
del Recording.channel_data, FeatureStack.mask


def extract_component_features(projection: np.ndarray, positions: np.ndarray,
                               activity: np.ndarray, sample_rate: float) -> tuple:
    """One component's normalized (topo, psd, autocorr) rows.

    ``projection`` is the component's mixing-matrix column under the common
    average reference; ``activity`` is its time course.
    """
    return _component_rows(scalp_topography(projection, positions), activity, sample_rate)


def _component_rows(image: np.ndarray, activity: np.ndarray, sample_rate: float) -> tuple:
    """Normalized (topo, psd, autocorr) rows from a component's image and time course."""
    psd = normalize_features(median_welch_psd(activity, sample_rate))
    return normalize_features(image), psd, autocorrelation(activity, sample_rate)


def extract_recording(recording: Recording) -> tuple:
    """Features of every component of a recording.

    The mixing matrix is converted to the common average reference once,
    and one ``scalp_topography`` call interpolates every finite column with
    one operator for the montage.

    Returns ``(stack, failures)``: the ``FeatureStack`` of the components
    that succeeded, in component order (``None`` if none did), and a dict
    from the index of each failed component to its error.  A component
    whose mixing-matrix column or activity holds a non-finite value, whose
    mixing-matrix column is constant, or whose activity gives no PSD or
    autocorrelation, fails with a ``DataError`` naming the array; a montage
    the topography rejects fails every component, naming
    ``electrode_positions``.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # such columns are rejected below
        referenced = common_average_reference(recording.mixing_matrix)
    finite = np.all(np.isfinite(referenced), axis=0)
    # a constant column references to zero or to residue within n_channels ulps of its peak
    flat = np.abs(referenced).max(axis=0) <= (
        len(referenced) * np.finfo(np.float64).eps * np.abs(recording.mixing_matrix).max(axis=0))
    column = np.cumsum(finite) - 1  # component index -> its image among the finite columns
    try:
        images = scalp_topography(referenced[:, finite], recording.electrode_positions)
        montage_error = None
    except DataError as exc:
        images, montage_error = None, str(exc)

    def one(index):
        """The component's rows, or the error that stopped them."""
        activity = recording.component_activity[index]
        try:
            if not np.all(np.isfinite(recording.mixing_matrix[:, index])):
                raise DataError(f"mixing_matrix column {index} has non-finite values")
            if not finite[index]:
                raise DataError(f"mixing_matrix column {index} overflows the common average "
                                "reference")
            if flat[index]:
                raise DataError(f"mixing_matrix column {index} is constant across channels, "
                                "so it has no scalp pattern")
            if not np.all(np.isfinite(activity)):
                raise DataError(f"component_activity row {index} has non-finite samples")
            if montage_error is not None:
                raise DataError(f"electrode_positions: {montage_error}")
        except IcsortError as exc:
            return exc
        try:  # past the checks above, only the time course's features can fail
            return _component_rows(images[column[index]], activity, recording.sample_rate)
        except DataError as exc:
            return DataError(f"component_activity row {index}: {exc}")

    results = [one(index) for index in range(recording.n_components)]
    failures = {i: r for i, r in enumerate(results) if isinstance(r, IcsortError)}
    rows = [r for r in results if not isinstance(r, IcsortError)]
    return (FeatureStack.from_features(rows) if rows else None), failures
