"""Ground-truth generation: clutter covariances, steering, snapshot draws.

The interference covariance under each hypothesis is built as::

    M = A R A^H + sigma_n^2 I

where R is a sum of exponentially correlated clutter sources,

    R(h, k) = sum_l CNR_l * rho_l^{|h-k|} * exp(j 2 pi (h-k) f_l),

CNR_l converted from dB to linear power against unit thermal noise
(sigma_n^2 = 1 by convention here). The channel-error factor A and the
Doppler pattern select the hypothesis:

    H1: A = I + sigma_d W, W complex standard normal; Dopplers as configured
    H2: A = I + sigma_d W, W real standard normal;    Dopplers forced to 0
    H3: A = I;                                        Dopplers as configured
    H4: A = I;                                        Dopplers forced to 0

Zero Doppler makes R real (symmetric Toeplitz), so H2 truths are real
symmetric and H4 truths real centrosymmetric; a Hermitian Toeplitz R makes
H3 truths centrohermitian. The built covariance is projected onto the exact
structure of its hypothesis so the structure checks pass bit-for-bit; for H2
the computation stays in real arithmetic throughout.

The cell under test carries amplitude ``alpha = sqrt(10^(SNR_dB/10)) e^{j phi}``
with a uniform random phase, on the symmetric phase-ramp steering vector
(odd N only).

A campaign chunk is drawn as one stack (:func:`draw_stack`): each trial's
generator draws, in order, its channel errors (H1/H2), the CUT phase, the
CUT noise and the secondary noise into preallocated buffers, and the
truths, their Cholesky factors, ``cut = alpha v + L g`` and ``Z = L G`` are
then formed for the whole stack. :func:`truth_instance` and
:func:`sample_dataset` are the same formulas on one generator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .estimators import Dataset, DatasetStack
from .linalg import cholesky_pd, cholesky_stack, hermitian_part
from .structures import Hypothesis, project

__all__ = [
    "SourceParams",
    "ScenarioConfig",
    "TruthInstance",
    "CHANNEL_ERROR_TRUTHS",
    "OddSizeRequiredError",
    "case1_sources",
    "case2_sources",
    "table_case",
    "db_to_linear",
    "clutter_covariance",
    "steering_vector",
    "truth_instance",
    "sample_dataset",
    "draw_stack",
    "complex_normal",
]


class OddSizeRequiredError(ValueError):
    """The symmetric steering vector is defined for odd channel counts only."""


@dataclass(frozen=True)
class SourceParams:
    """One clutter source: power (dB over unit noise), one-lag correlation, Doppler."""

    cnr_db: float
    rho: float
    doppler: float

    def __post_init__(self):
        _require_finite(self, "cnr_db")
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"one-lag correlation must be in (0, 1), got {self.rho}")
        if not abs(self.doppler) < 0.5:
            raise ValueError(f"normalized Doppler must satisfy |f| < 0.5, got {self.doppler}")


def _require_finite(params, *names: str) -> None:
    for name in names:
        value = getattr(params, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def case1_sources() -> tuple[SourceParams, ...]:
    """Single clutter source: CNR 30 dB, rho 0.85, Doppler 0.285."""
    return (SourceParams(cnr_db=30.0, rho=0.85, doppler=0.285),)


def case2_sources() -> tuple[SourceParams, ...]:
    """Two clutter sources: (20 dB, 0.85, 0.285) and (30 dB, 0.93, 0.05)."""
    return (
        SourceParams(cnr_db=20.0, rho=0.85, doppler=0.285),
        SourceParams(cnr_db=30.0, rho=0.93, doppler=0.05),
    )


@dataclass(frozen=True)
class ScenarioConfig:
    """Physical scenario parameters. Defaults reproduce study case 1."""

    n: int = 13
    sources: tuple[SourceParams, ...] = field(default_factory=case1_sources)
    sigma_d: float = 0.15
    sigma_n2: float = 1.0
    snr_db: float = 10.0
    f_v: float = 0.01
    freeze_channel_errors: bool = False
    case_id: int | None = 1

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 channels, got {self.n}")
        if not self.sources:
            raise ValueError("need at least one clutter source")
        _require_finite(self, "sigma_d", "sigma_n2", "snr_db", "f_v")
        if self.sigma_d < 0:
            raise ValueError(f"channel-error std must be >= 0, got {self.sigma_d}")
        if self.sigma_n2 <= 0:
            raise ValueError(f"thermal noise power must be > 0, got {self.sigma_n2}")
        object.__setattr__(self, "sources", tuple(self.sources))


def table_case(case_id: int, **overrides) -> ScenarioConfig:
    """Scenario for study case 1 or 2; keyword overrides pass through."""
    if case_id == 1:
        return ScenarioConfig(sources=case1_sources(), case_id=1, **overrides)
    if case_id == 2:
        return ScenarioConfig(sources=case2_sources(), case_id=2, **overrides)
    raise ValueError(f"case_id must be 1 or 2, got {case_id}")


# Truths whose channel-error matrix is drawn; the others draw nothing.
CHANNEL_ERROR_TRUTHS = frozenset({Hypothesis.H1, Hypothesis.H2})


@dataclass(frozen=True)
class TruthInstance:
    """One realized ground truth: covariance plus its factors."""

    hypothesis: Hypothesis
    m_true: np.ndarray
    a_factor: np.ndarray
    r_clutter: np.ndarray

    @functools.cached_property
    def low(self) -> np.ndarray:
        """Lower Cholesky factor of ``m_true``, formed on first use and kept."""
        return cholesky_pd(self.m_true)


def db_to_linear(value_db: float) -> float:
    """Power ratio from decibels: 10^(dB/10)."""
    return float(10.0 ** (value_db / 10.0))


def clutter_covariance(
    sources, n: int, zero_doppler: bool = False
) -> np.ndarray:
    """Sum of exponentially correlated source covariances, size n.

    Returns a real array when every (possibly overridden) Doppler is zero,
    complex Hermitian Toeplitz otherwise. ``zero_doppler`` forces f_l = 0 for
    the H2/H4 truth variants.
    """
    lags = np.subtract.outer(np.arange(n), np.arange(n))  # h - k
    r = np.zeros((n, n), dtype=complex)
    for src in sources:
        f = 0.0 if zero_doppler else src.doppler
        power = db_to_linear(src.cnr_db)
        r += power * src.rho ** np.abs(lags) * np.exp(2j * np.pi * f * lags)
    if zero_doppler or all(src.doppler == 0.0 for src in sources):
        assert np.all(r.imag == 0.0)
        return r.real.copy()
    return r


def steering_vector(n: int, f_v: float) -> np.ndarray:
    """Unit-norm symmetric phase ramp e^{j 2 pi f_v k}/sqrt(n), k centered at 0.

    Conjugate-flip symmetric (J conj(v) = v). The amplitude estimator does
    not depend on this: it is the ML amplitude for any unit steering vector.
    Odd n only.
    """
    if n % 2 == 0:
        raise OddSizeRequiredError(
            f"steering vector is defined for odd sizes only, got n={n}"
        )
    half = (n - 1) // 2
    taps = np.arange(-half, half + 1)
    return np.exp(2j * np.pi * f_v * taps) / np.sqrt(n)


def truth_instance(
    hypothesis: Hypothesis,
    config: ScenarioConfig,
    rng: np.random.Generator | None = None,
) -> TruthInstance:
    """Draw one ground-truth covariance for a hypothesis.

    H1/H2 consume the generator for the channel-error matrix W; H3/H4 are
    deterministic given the config and need no generator. The result is
    projected onto the exact structure of the hypothesis, which never moves
    the matrix by more than floating-point noise but makes the structure
    checks exact. ``r_clutter`` is shared by every instance of one scenario
    and is read-only. The formulas are those of :func:`draw_stack`.
    """
    h = Hypothesis(hypothesis)
    if h not in CHANNEL_ERROR_TRUTHS:
        a = np.eye(config.n)
    elif rng is None:
        raise ValueError(f"an {h.name} truth draws channel errors and needs a generator")
    else:
        a = _channel_factors(h, config, (rng,))[0]
    return TruthInstance(
        hypothesis=h,
        m_true=_truth_covariance(h, config, a),
        a_factor=a,
        r_clutter=_cached_clutter(config.sources, config.n, h.is_real),
    )


def _channel_factors(h: Hypothesis, config: ScenarioConfig, rngs) -> np.ndarray:
    """(T, N, N) channel-error factors ``A = I + sigma_d W`` of an H1 or H2
    truth, W drawn from each generator in turn: complex normal for H1 (real
    parts, then imaginary parts), real normal for H2."""
    n = config.n
    raw = np.empty((len(rngs), 2 if h is Hypothesis.H1 else 1, n, n))
    for t, rng in enumerate(rngs):
        rng.standard_normal(out=raw[t])
    w = _complex(raw[:, 0], raw[:, 1]) if h is Hypothesis.H1 else raw[:, 0]
    return np.eye(n) + config.sigma_d * w


def _truth_covariance(h: Hypothesis, config: ScenarioConfig, a: np.ndarray) -> np.ndarray:
    """``project(hermitian_part(A R A^H + sigma_n^2 I))`` for one factor A or
    a stack of them."""
    r = _cached_clutter(config.sources, config.n, h.is_real)
    m_raw = a @ r @ a.conj().swapaxes(-1, -2) + config.sigma_n2 * np.eye(config.n)
    return project(h, hermitian_part(m_raw))


@functools.lru_cache(maxsize=32)
def _cached_clutter(sources, n: int, zero_doppler: bool) -> np.ndarray:
    """:func:`clutter_covariance`, formed once per scenario and read-only."""
    r = clutter_covariance(sources, n, zero_doppler=zero_doppler)
    r.flags.writeable = False
    return r


@functools.lru_cache(maxsize=32)
def _cached_steering(n: int, f_v: float) -> np.ndarray:
    """:func:`steering_vector`, formed once per scenario and read-only."""
    v = steering_vector(n, f_v)
    v.flags.writeable = False
    return v


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard circular complex normal: unit variance split across re/im."""
    return _complex(rng.standard_normal(shape), rng.standard_normal(shape))


_ROOT_HALF = 1.0 / np.sqrt(2.0)


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Circular complex normals ``(re + j im) / sqrt(2)`` from standard normal
    real and imaginary parts. numpy divides a complex number by a real one
    as a product with its reciprocal, so scaling each part in place gives
    the bits of that division without its complex temporaries."""
    out = np.empty(np.shape(re), dtype=complex)
    np.multiply(re, _ROOT_HALF, out=out.real)
    np.multiply(im, _ROOT_HALF, out=out.imag)
    return out


def sample_dataset(
    truth: TruthInstance,
    config: ScenarioConfig,
    k: int,
    rng: np.random.Generator,
) -> Dataset:
    """Draw one classification dataset under a realized truth.

    Fixed draw order (phase, CUT noise, secondary block) so a given stream
    yields a bit-identical dataset. Snapshots are ``L g`` with L the lower
    Cholesky factor of the truth (``truth.low``) and g standard complex
    normal. The formulas are those of :func:`draw_stack`.
    """
    cut, secondary = _coloured(truth.low, config, *_noise(config.n, k, (rng,)))
    v = _cached_steering(config.n, config.f_v)
    return Dataset(secondary=secondary[0], cut=cut[0], steering=v)


def draw_stack(
    hypothesis: Hypothesis,
    config: ScenarioConfig,
    k: int,
    rngs,
    truth: TruthInstance | None = None,
) -> DatasetStack:
    """One dataset per generator, as one stack: a campaign chunk.

    Generator t is trial t's stream and draws what :func:`truth_instance`
    and :func:`sample_dataset` would, in their order: the channel-error
    matrix (H1/H2, unless ``truth`` is one truth shared by every trial),
    then the CUT phase and noise and the secondary noise. The truths, their
    factors and the datasets are then formed for the whole stack,
    bit-identical to the one-trial functions. A truth that is not positive
    definite raises its first trial's NotPositiveDefiniteError.
    """
    h = Hypothesis(hypothesis)
    if truth is None and h not in CHANNEL_ERROR_TRUTHS:
        truth = truth_instance(h, config)
    if truth is not None:
        low = truth.low
    else:
        a = _channel_factors(h, config, rngs)
        low, errors, _ = cholesky_stack(_truth_covariance(h, config, a))
        if errors:
            raise next(iter(errors.values()))
    cut, secondary = _coloured(low, config, *_noise(config.n, k, rngs))
    v = _cached_steering(config.n, config.f_v)
    return DatasetStack(secondary, cut, np.broadcast_to(v, cut.shape).copy())


def _noise(n: int, k: int, rngs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each generator's CUT phase, then the real and imaginary parts of its
    CUT noise, then those of its secondary noise: (T,), (T, 2, N) and
    (T, 2, N, K) standard normal draws."""
    size = len(rngs)
    phase, cut_raw, raw = np.empty(size), np.empty((size, 2, n)), np.empty((size, 2, n, k))
    for t, rng in enumerate(rngs):
        phase[t] = rng.uniform(0.0, 2.0 * np.pi)
        rng.standard_normal(out=cut_raw[t])
        rng.standard_normal(out=raw[t])
    return phase, cut_raw, raw


def _coloured(low, config: ScenarioConfig, phase, cut_raw, raw) -> tuple[np.ndarray, np.ndarray]:
    """(T, N) CUTs ``alpha v + L g`` and (T, N, K) snapshots ``Z = L G`` from
    :func:`_noise`'s draws, with ``alpha = sqrt(SNR) e^{j phase}`` and L one
    lower Cholesky factor or a stack of them."""
    g = _complex(cut_raw[:, 0], cut_raw[:, 1])
    alpha = np.sqrt(db_to_linear(config.snr_db)) * np.exp(1j * phase)
    cut = alpha[:, None] * _cached_steering(config.n, config.f_v) + (low @ g[..., None])[..., 0]
    return cut, low @ _complex(raw[:, 0], raw[:, 1])
