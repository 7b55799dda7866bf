"""Model-order-selection rules and the argmin classifier over the hypotheses.

Every rule scores hypothesis ``H_i`` as ``fit + penalty`` where the fit term
is ``-2 s(p_hat_i)``, the joint (approach A) or secondary-only (approach B)
log-likelihood at the plug-in estimates. The rules differ only in the
penalty::

    AIC             2 n_i
    GIC             (1 + rho) n_i           rho >= 1; rho = 1 reduces to AIC
    TIC             2 Tr[ J_hat Inv(I_hat) ]
    AICc            2 n_i D / (D - n_i - 1) with D the complex sample count
    BIC             log det I_hat
    AsymptoticBIC   m_i log K

``n_i`` counts all real parameters entering the likelihood (theta plus the
two amplitude components under approach A), ``m_i`` the covariance parameters
alone. The BIC penalty carries the units of the parameters: scaling the data
power by p moves it by -(2 m_i + 2) log p under approach A and -2 m_i log p
under B, while the other penalties do not move, so BIC's choice depends on
the unit the data is expressed in. AsymptoticBIC is the unit-free form.

TIC and BIC take ``J_hat`` (sample) and ``I_hat`` (observed information) at
the plug-in estimates through :func:`covstruct.likelihood.information_terms`,
which works in N x N matrix space and never forms either matrix. Under
approach B both penalties are closed forms. Under approach A the theta part
is exact too, and the amplitude block enters through a 2 x 2 Schur
complement S: ``Tr(J I^-1)`` adds ``Tr(S^-1 Y Y^T)`` and ``log det I`` adds
``log det S``. The one TIC ridge retry and the BIC positive-definiteness
check act on S.
The classifier picks the smallest total; a hypothesis whose numerics
break (singular information matrix, degenerate AICc denominator, failed
factorization) is excluded and the failure recorded, and the argmin runs over
the survivors.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .estimators import (
    Approach,
    Dataset,
    DegenerateSteeringError,
    EstimateSet,
    estimate_alpha,
    estimate_covariance,
)
from .likelihood import InfoTerms, information_terms
from .linalg import (
    NotPositiveDefiniteError,
    hermitian_part,
    inverse_and_logdet,
    logdet_pd,
)
from .structures import Hypothesis, param_count

__all__ = [
    "CriterionKind",
    "Criterion",
    "FimSingularError",
    "AiccDegenerateError",
    "HypothesisScore",
    "Scorecard",
    "parse_criterion",
    "DEFAULT_CRITERIA",
    "penalty",
    "prepare_estimates",
    "classify",
    "classify_batch",
]

_LOG_PI = float(np.log(math.pi))

# Ridge scale for the one TIC retry on a singular amplitude Schur complement.
_TIC_RIDGE = 1e-8


class FimSingularError(ValueError):
    """Observed information matrix unusable (singular or not PD where needed)."""


class AiccDegenerateError(ValueError):
    """AICc denominator is non-positive: parameters meet or exceed the data."""


class CriterionKind(enum.Enum):
    AIC = "aic"
    GIC = "gic"
    TIC = "tic"
    AICC = "aicc"
    BIC = "bic"
    ASYMPTOTIC_BIC = "asymptotic-bic"


@dataclass(frozen=True)
class Criterion:
    """A selection rule; GIC carries its weight rho (rho >= 1)."""

    kind: CriterionKind
    rho: float | None = None

    def __post_init__(self):
        if self.kind is CriterionKind.GIC:
            if self.rho is None:
                raise ValueError("gic needs a rho value, e.g. 'gic:2'")
            if not self.rho >= 1.0:
                raise ValueError(f"gic rho must be >= 1, got {self.rho}")
        elif self.rho is not None:
            raise ValueError(f"{self.kind.value} does not take a rho value")

    @property
    def key(self) -> str:
        """Stable identifier used in configs, CSV, and report cells."""
        if self.kind is CriterionKind.GIC:
            rho = self.rho
            text = f"{rho:g}" if rho != int(rho) else f"{int(rho)}"
            return f"gic:{text}"
        return self.kind.value

    @property
    def needs_fim(self) -> bool:
        return self.kind in (CriterionKind.TIC, CriterionKind.BIC)

    def __str__(self) -> str:
        return self.key


def parse_criterion(text: str) -> Criterion:
    """Parse 'aic', 'gic:2', 'tic', 'aicc', 'bic', 'asymptotic-bic'."""
    raw = str(text).strip().lower()
    if raw.startswith("gic"):
        rest = raw[3:].lstrip(":")
        if not rest:
            raise ValueError("gic needs a rho value, e.g. 'gic:2'")
        try:
            rho = float(rest)
        except ValueError:
            raise ValueError(f"bad gic rho {rest!r} in {text!r}") from None
        return Criterion(CriterionKind.GIC, rho)
    for kind in CriterionKind:
        if raw == kind.value:
            if kind is CriterionKind.GIC:
                break
            return Criterion(kind)
    raise ValueError(
        f"unknown criterion {text!r}; expected one of "
        "aic, gic:<rho>, tic, aicc, bic, asymptotic-bic"
    )


DEFAULT_CRITERIA: tuple[Criterion, ...] = (
    Criterion(CriterionKind.AIC),
    Criterion(CriterionKind.GIC, 2.0),
    Criterion(CriterionKind.GIC, 4.0),
    Criterion(CriterionKind.TIC),
    Criterion(CriterionKind.AICC),
    Criterion(CriterionKind.BIC),
    Criterion(CriterionKind.ASYMPTOTIC_BIC),
)


def penalty(
    criterion: Criterion,
    *,
    n_params: int,
    m_params: int,
    k: int,
    n: int,
    approach: Approach,
    info: InfoTerms | None = None,
) -> float:
    """Penalty term of one rule for one hypothesis.

    ``n_params`` is the full likelihood parameter count (m_params + 2 under
    approach A), ``k``/``n`` the snapshot count and vector size. TIC and BIC
    require ``info`` (see :func:`covstruct.likelihood.information_terms`);
    the others ignore it. The 2 x 2 Schur pair, present under approach A,
    adds its trace and log-determinant to the theta terms.
    """
    kind = criterion.kind
    if kind is CriterionKind.AIC:
        return 2.0 * n_params
    if kind is CriterionKind.GIC:
        return (1.0 + criterion.rho) * n_params
    if kind is CriterionKind.AICC:
        data_count = (k + 1) * n if approach is Approach.A else k * n
        denom = data_count - n_params - 1
        if denom <= 0:
            raise AiccDegenerateError(
                f"AICc denominator {denom} <= 0 at n_params={n_params}, "
                f"data count {data_count}"
            )
        return 2.0 * n_params * data_count / denom
    if kind is CriterionKind.ASYMPTOTIC_BIC:
        return m_params * math.log(k)
    if info is None:
        raise ValueError(f"{criterion.key} needs the information-matrix terms")
    if kind is CriterionKind.TIC:
        extra = 0.0 if info.schur is None else _tic_trace(*info.schur)
        return 2.0 * (info.theta_trace + extra)
    if kind is CriterionKind.BIC:
        extra = 0.0 if info.schur is None else _bic_logdet(info.schur[0])
        return info.theta_logdet + extra
    raise ValueError(f"unhandled criterion kind {kind!r}")


def _tic_trace(observed: np.ndarray, sample: np.ndarray) -> float:
    """Tr[sample inv(observed)], with one ridge retry on factorization failure.

    On the production path these are the amplitude Schur pair ``(S, Y Y^T)``.
    """
    n = observed.shape[0]
    try:
        solved = np.linalg.solve(observed, sample)
        if not np.all(np.isfinite(solved)):
            raise np.linalg.LinAlgError("non-finite solve result")
    except np.linalg.LinAlgError:
        ridge = _TIC_RIDGE * float(np.trace(observed)) / n
        try:
            solved = np.linalg.solve(observed + ridge * np.eye(n), sample)
        except np.linalg.LinAlgError as exc:
            raise FimSingularError(f"observed FIM singular even after ridge: {exc}") from None
        if not np.all(np.isfinite(solved)):
            raise FimSingularError("observed FIM singular even after ridge")
    return float(np.trace(solved))


def _bic_logdet(observed: np.ndarray) -> float:
    """log det of an observed information block; non-PD marks the hypothesis
    unusable. On the production path this is the amplitude Schur complement S.

    Theta holds the entries of M and alpha scales as the data amplitude, so
    scaling the data power by p adds -(2 m + 2) log p (approach A) or
    -2 m log p (approach B) to the whole BIC penalty. Use ``asymptotic-bic``
    for a penalty that does not depend on the unit of the data.
    """
    try:
        return logdet_pd(hermitian_part(observed))
    except NotPositiveDefiniteError as exc:
        raise FimSingularError(f"observed FIM not positive definite: {exc}") from None


@dataclass(frozen=True)
class HypothesisScore:
    """Fit/penalty/total for one hypothesis, or the failure that excluded it."""

    fit: float | None
    penalty: float | None
    total: float | None
    failure: str | None = None

    @property
    def failed(self) -> bool:
        return self.failure is not None


@dataclass(frozen=True)
class Scorecard:
    """Outcome of one (dataset, approach, criterion) classification."""

    criterion: Criterion
    approach: Approach
    scores: dict[Hypothesis, HypothesisScore] = field(repr=False)
    chosen: Hypothesis | None = None

    @property
    def all_failed(self) -> bool:
        return self.chosen is None


# Exceptions that disqualify one hypothesis without aborting classification.
_HYPOTHESIS_FAILURES = (
    NotPositiveDefiniteError,
    FimSingularError,
    AiccDegenerateError,
    DegenerateSteeringError,
)


def _fit_term(estimate: EstimateSet, dataset: Dataset, approach: Approach) -> float:
    """-2 times the governing log-likelihood at the plug-in estimates."""
    n, k = dataset.n, dataset.k
    # Tr(X_hat S) = N K: each class is closed under inversion and M_hat is the
    # projection of S/K onto it (Szatrowski 1980, Ann. Statist. 8(4)).
    if approach is Approach.B:
        return 2.0 * (k * (n * _LOG_PI + estimate.logdet) + n * k)
    cut, steering = dataset.require_cut()
    resid = cut - estimate.alpha_hat * steering
    quad = float(np.real(resid.conj() @ estimate.x_hat @ resid))
    return 2.0 * ((k + 1) * (n * _LOG_PI + estimate.logdet) + n * k + quad)


def _argmin_hypothesis(
    totals: dict[Hypothesis, float], counts: dict[Hypothesis, int]
) -> Hypothesis | None:
    """Smallest total; ties go to the smaller parameter count, then index."""
    if not totals:
        return None
    return min(totals, key=lambda h: (totals[h], counts[h], int(h)))


def prepare_estimates(
    dataset: Dataset, approach: Approach
) -> dict[Hypothesis, "EstimateSet | str"]:
    """Per-hypothesis estimate sets, with failures kept as message strings."""
    approach = Approach.parse(approach)
    out: dict[Hypothesis, EstimateSet | str] = {}
    for h in Hypothesis:
        try:
            out[h] = estimate_all_single(dataset, approach, h)
        except _HYPOTHESIS_FAILURES as exc:
            out[h] = f"{type(exc).__name__}: {exc}"
    return out


def classify(
    dataset: Dataset,
    approach: Approach,
    criterion: Criterion,
) -> Scorecard:
    """Classify one dataset with one rule. See :func:`classify_batch`."""
    approach = Approach.parse(approach)
    return classify_batch(dataset, (approach,), (criterion,))[approach][criterion]


def classify_batch(
    dataset: Dataset, approaches, criteria
) -> dict[Approach, dict[Criterion, Scorecard]]:
    """Classify one dataset under every approach and rule, sharing the work.

    The four plug-in estimate sets are prepared once, under approach A when
    A is asked for: estimates that carry alpha also serve approach B, the
    reverse does not hold. Per approach the fit terms and parameter counts
    are computed once, and the information terms once if any rule needs
    them. Results are identical to per-call :func:`classify`.
    """
    approaches = tuple(Approach.parse(a) for a in approaches)
    criteria = tuple(criteria)
    prep = Approach.A if Approach.A in approaches else approaches[0]
    prepared = prepare_estimates(dataset, prep)
    return {a: _evaluate(dataset, a, criteria, prepared) for a in approaches}


def _evaluate(
    dataset: Dataset,
    approach: Approach,
    criteria: tuple[Criterion, ...],
    prepared: dict[Hypothesis, "EstimateSet | str"],
) -> dict[Criterion, Scorecard]:
    n, k = dataset.n, dataset.k
    need_fim = any(c.needs_fim for c in criteria)
    counts = {h: param_count(h, n) for h in Hypothesis}
    alpha_params = 2 if approach is Approach.A else 0

    fits: dict[Hypothesis, float] = {}
    infos: dict[Hypothesis, InfoTerms] = {}
    broken: dict[Hypothesis, str] = {}
    fim_broken: dict[Hypothesis, str] = {}

    for h, est in prepared.items():
        if isinstance(est, str):
            broken[h] = est
            continue
        if approach is Approach.A and est.alpha_failure is not None:
            broken[h] = est.alpha_failure
            continue
        try:
            fits[h] = _fit_term(est, dataset, approach)
        except _HYPOTHESIS_FAILURES as exc:
            broken[h] = f"{type(exc).__name__}: {exc}"
            continue
        if need_fim:
            try:
                infos[h] = information_terms(est, dataset, approach)
            except _HYPOTHESIS_FAILURES as exc:
                fim_broken[h] = f"{type(exc).__name__}: {exc}"

    out: dict[Criterion, Scorecard] = {}
    for criterion in criteria:
        scores: dict[Hypothesis, HypothesisScore] = {}
        totals: dict[Hypothesis, float] = {}
        for h in Hypothesis:
            if h not in fits:
                scores[h] = HypothesisScore(
                    None, None, None, broken.get(h, "no estimate available")
                )
                continue
            if criterion.needs_fim and h in fim_broken:
                scores[h] = HypothesisScore(fits[h], None, None, fim_broken[h])
                continue
            try:
                pen = penalty(
                    criterion,
                    n_params=counts[h] + alpha_params,
                    m_params=counts[h],
                    k=k,
                    n=n,
                    approach=approach,
                    info=infos.get(h),
                )
            except _HYPOTHESIS_FAILURES as exc:
                scores[h] = HypothesisScore(
                    fits[h], None, None, f"{type(exc).__name__}: {exc}"
                )
                continue
            total = fits[h] + pen
            scores[h] = HypothesisScore(fits[h], pen, total)
            totals[h] = total
        out[criterion] = Scorecard(
            criterion=criterion,
            approach=approach,
            scores=scores,
            chosen=_argmin_hypothesis(totals, counts),
        )
    return out


def estimate_all_single(
    dataset: Dataset, approach: Approach, hypothesis: Hypothesis
) -> EstimateSet:
    """Plug-in estimates for one hypothesis; one Cholesky gives X and log det.

    That Cholesky is the one positive-definiteness check: a rank-deficient
    scatter matrix raises NotPositiveDefiniteError here. Under approach A a
    degenerate steering energy is kept in ``alpha_failure``.
    """
    m_hat = estimate_covariance(hypothesis, dataset)
    x_hat, logdet = inverse_and_logdet(m_hat)
    alpha = None
    alpha_failure = None
    if approach is Approach.A:
        cut, steering = dataset.require_cut()
        try:
            alpha = estimate_alpha(hypothesis, x_hat, cut, steering)
        except DegenerateSteeringError as exc:
            # The covariance estimates stay valid for the secondary-only
            # likelihood; only the joint-likelihood rules lose this hypothesis.
            alpha_failure = f"{type(exc).__name__}: {exc}"
    return EstimateSet(
        hypothesis=hypothesis,
        m_hat=m_hat,
        x_hat=x_hat,
        logdet=logdet,
        alpha_hat=alpha,
        alpha_failure=alpha_failure,
    )
