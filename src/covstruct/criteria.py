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
which gives one class's terms for a whole stack of trials from group means
of vector inner products and never forms either matrix. Under approach B
both penalties are closed forms. Under approach A the theta part is exact
too, and the amplitude block enters through (T, 2, 2) stacks of Schur
complements S: ``Tr(J I^-1)`` adds ``Tr(S^-1 Y Y^T)`` (one stacked solve)
and ``log det I`` adds ``log det S`` (one stacked Cholesky, the BIC
positive-definiteness check). A trial whose S is singular to the solve is
retried alone with a ridge, and the retries are counted.
The classifier picks the smallest total, ties going to the smaller
parameter count and then the lower index; a hypothesis whose numerics break
(singular information matrix, degenerate AICc denominator, failed
factorization, a total that is not finite) is excluded and the failure
recorded, and the argmin runs over the survivors.

One engine, :func:`classify_stack`, classifies a :class:`DatasetStack` of T
datasets at once: the estimates come from stacked projections, one stacked
Cholesky and one stacked inverse per class, the fits and totals are (4, T)
arrays, the closed-form penalties are one value per hypothesis, and the
argmin runs over the whole batch. TIC and BIC take one call of the
information terms per class and approach. A trial that fails a check is
excluded on its own, with the message a stack of one would give, and every
stacked operation treats each trial alone, so a trial's outcome does not
depend on the stack it sits in. :func:`classify` is the engine on a stack
of one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .estimators import (
    Approach,
    Dataset,
    DatasetStack,
    EstimateStack,
    estimate_alpha_stack,
    estimate_covariance,
)
from .likelihood import InfoTerms, information_terms
from .linalg import (
    cholesky_stack,
    hermitian_part,
    inverse_and_logdet_stack,
    logdet_from_cholesky,
)
from .structures import Hypothesis, param_count

__all__ = [
    "CriterionKind",
    "Criterion",
    "FimSingularError",
    "AiccDegenerateError",
    "NonFiniteScoreError",
    "HypothesisScore",
    "Scorecard",
    "TrialScores",
    "NONE_CHOSEN",
    "parse_criterion",
    "DEFAULT_CRITERIA",
    "penalty",
    "prepare_estimates",
    "classify",
    "classify_stack",
]

_LOG_PI = float(np.log(math.pi))

# Ridge scale for the one TIC retry on a singular amplitude Schur complement.
_TIC_RIDGE = 1e-8


class FimSingularError(ValueError):
    """Observed information matrix unusable (singular or not PD where needed)."""


class AiccDegenerateError(ValueError):
    """AICc denominator is non-positive: parameters meet or exceed the data."""


class NonFiniteScoreError(ValueError):
    """A hypothesis's total score is not finite, so no argmin may pick it."""


class CriterionKind(enum.Enum):
    AIC = "aic"
    GIC = "gic"
    TIC = "tic"
    AICC = "aicc"
    BIC = "bic"
    ASYMPTOTIC_BIC = "asymptotic-bic"


@dataclass(frozen=True)
class Criterion:
    """A selection rule; GIC carries its weight rho (finite, rho >= 1)."""

    kind: CriterionKind
    rho: float | None = None

    def __post_init__(self):
        if self.kind is CriterionKind.GIC:
            if self.rho is None:
                raise ValueError("gic needs a rho value, e.g. 'gic:2'")
            if not 1.0 <= self.rho < math.inf:
                raise ValueError(f"gic rho must be >= 1 and finite, got {self.rho}")
        elif self.rho is not None:
            raise ValueError(f"{self.kind.value} does not take a rho value")

    @property
    def key(self) -> str:
        """Stable identifier used in configs, CSV, and report cells; GIC's
        rho is written as its shortest round-trip ``repr``, without a
        trailing ``.0``, so the key parses back to the same rule."""
        if self.kind is CriterionKind.GIC:
            text = repr(float(self.rho))
            return f"gic:{text.removesuffix('.0')}"
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
) -> float:
    """Penalty term of one closed-form rule for one hypothesis.

    ``n_params`` is the full likelihood parameter count (m_params + 2 under
    approach A), ``k``/``n`` the snapshot count and vector size. TIC and BIC
    take the information terms instead (:func:`_information_penalty`).
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
    raise ValueError(f"{criterion.key} needs the information-matrix terms")


def _information_penalty(
    criterion: Criterion, info: InfoTerms
) -> tuple[np.ndarray, dict[int, FimSingularError], tuple[int, int]]:
    """TIC or BIC penalties of a stack of information terms (see
    :func:`covstruct.likelihood.information_terms`). The 2 x 2 Schur pair,
    present under approach A, adds its trace and log-determinant to the theta
    terms.

    Returns the (T,) penalties, the failure of each trial whose Schur block
    is unusable (its penalty is a placeholder), and the counts of TIC ridge
    retries and of matrix-by-matrix fallbacks of the stacked Cholesky.
    """
    if criterion.kind is CriterionKind.TIC:
        if info.schur is None:
            return 2.0 * info.theta_trace, {}, (0, 0)
        extra, errors, retries = _tic_trace(*info.schur)
        return 2.0 * (info.theta_trace + extra), errors, (retries, 0)
    if criterion.kind is not CriterionKind.BIC:
        raise ValueError(f"{criterion.key} takes no information-matrix terms")
    if info.schur is None:
        return info.theta_logdet, {}, (0, 0)
    extra, errors, fell_back = _bic_logdet(info.schur[0])
    return info.theta_logdet + extra, errors, (0, int(fell_back))


def _tic_trace(
    observed: np.ndarray, sample: np.ndarray
) -> tuple[np.ndarray, dict[int, FimSingularError], int]:
    """Tr[sample inv(observed)] over (T, d, d) stacks, with one ridge retry
    for each trial whose solve fails or is not finite.

    On the production path these are the amplitude Schur pairs ``(S, Y Y^T)``.
    Returns the traces, the failure of each trial the ridge did not rescue,
    and the number of ridge retries.
    """
    d = observed.shape[-1]
    solved, bad = _solve_each(observed, sample)
    errors: dict[int, FimSingularError] = {}
    if bad:
        retry = list(bad)
        ridge = _TIC_RIDGE * np.trace(observed[retry], axis1=-2, axis2=-1) / d
        shifted = observed[retry] + ridge[:, None, None] * np.eye(d)
        retried, still = _solve_each(shifted, sample[retry])
        solved[retry] = retried
        for j, reason in still.items():
            errors[retry[j]] = FimSingularError(
                f"observed FIM singular even after ridge: {reason}"
            )
    return np.trace(solved, axis1=-2, axis2=-1), errors, len(bad)


def _solve_each(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, dict[int, str]]:
    """Stacked ``solve(a, b)`` and, per trial whose solve raises or is not
    finite, the reason. numpy refuses the whole stack when one matrix is
    singular; the trials are then solved one by one."""
    bad: dict[int, str] = {}
    try:
        solved = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        solved = np.zeros(b.shape)
        for t in range(len(a)):
            try:
                solved[t] = np.linalg.solve(a[t], b[t])
            except np.linalg.LinAlgError as exc:
                bad[t] = str(exc)
    for t in np.flatnonzero(~np.isfinite(solved).all(axis=(-2, -1))):
        bad.setdefault(int(t), "non-finite solve result")
    return solved, dict(sorted(bad.items()))


def _bic_logdet(
    observed: np.ndarray,
) -> tuple[np.ndarray, dict[int, FimSingularError], bool]:
    """log det of a (T, d, d) stack of observed information blocks, one
    stacked Cholesky; a non-PD block marks its trial's hypothesis unusable.
    On the production path these are the amplitude Schur complements S.

    Theta holds the entries of M and alpha scales as the data amplitude, so
    scaling the data power by p adds -(2 m + 2) log p (approach A) or
    -2 m log p (approach B) to the whole BIC penalty. Use ``asymptotic-bic``
    for a penalty that does not depend on the unit of the data.
    """
    low, errors, fell_back = cholesky_stack(hermitian_part(observed))
    failures = {
        t: FimSingularError(f"observed FIM not positive definite: {exc}")
        for t, exc in errors.items()
    }
    return logdet_from_cholesky(low), failures, fell_back


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


# Column of the "every hypothesis failed" bucket in ``TrialScores.chosen``.
NONE_CHOSEN = len(Hypothesis)


def _failure_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class TrialScores:
    """One (approach, criterion) outcome over a stack of T trials.

    ``fit``, ``penalty`` and ``total`` are (4, T) arrays, row i for
    hypothesis H(i+1). A failed entry's penalty and total are NaN, and so
    is its fit when its estimate or amplitude failed. ``failures`` maps
    (hypothesis number, trial) to the failure text that excluded that
    hypothesis. ``chosen`` holds, per trial, the row of the
    chosen hypothesis, or ``NONE_CHOSEN`` when every hypothesis failed.
    ``ridge_retries`` counts the trials and hypotheses whose TIC solve was
    retried with a ridge; ``stack_fallbacks`` counts the stacked
    factorizations behind this outcome (estimates, and for TIC and BIC the
    information terms) that fell back to matrix by matrix.
    """

    criterion: Criterion
    approach: Approach
    fit: np.ndarray
    penalty: np.ndarray
    total: np.ndarray
    failures: dict[tuple[int, int], str]
    chosen: np.ndarray
    ridge_retries: int = 0
    stack_fallbacks: int = 0

    def scorecard(self, trial: int) -> Scorecard:
        """The scorecard of one trial."""
        scores: dict[Hypothesis, HypothesisScore] = {}
        for i, h in enumerate(Hypothesis):
            fit = float(self.fit[i, trial])
            failure = self.failures.get((int(h), trial))
            if failure is None:
                scores[h] = HypothesisScore(
                    fit, float(self.penalty[i, trial]), float(self.total[i, trial])
                )
            else:
                scores[h] = HypothesisScore(
                    None if math.isnan(fit) else fit, None, None, failure
                )
        row = int(self.chosen[trial])
        return Scorecard(
            criterion=self.criterion,
            approach=self.approach,
            scores=scores,
            chosen=None if row == NONE_CHOSEN else Hypothesis(row + 1),
        )


def _fit_terms(
    estimate: EstimateStack, stack: DatasetStack, approach: Approach
) -> np.ndarray:
    """-2 times the governing log-likelihood at the plug-in estimates, per trial."""
    n, k = stack.n, stack.k
    # Tr(X_hat S) = N K: each class is closed under inversion and M_hat is the
    # projection of S/K onto it (Szatrowski 1980, Ann. Statist. 8(4)).
    if approach is Approach.B:
        return 2.0 * (k * (n * _LOG_PI + estimate.logdet) + n * k)
    cut, steering = stack.require_cut()
    resid = cut - estimate.alpha_hat[:, None] * steering
    quad = (resid.conj()[:, None, :] @ estimate.x_hat @ resid[:, :, None])[:, 0, 0].real
    return 2.0 * ((k + 1) * (n * _LOG_PI + estimate.logdet) + n * k + quad)


def _argmin_batch(
    totals: np.ndarray, failed: np.ndarray, counts: list[int]
) -> np.ndarray:
    """Per column of (4, T) totals, the row with the smallest total among the
    rows not ``failed``; ties go to the smaller parameter count, then the
    lower index. ``NONE_CHOSEN`` where every row failed."""
    masked = np.where(failed, np.inf, totals)
    tied = (masked == masked.min(axis=0)) & ~failed
    order = sorted(range(len(counts)), key=lambda i: (counts[i], i))
    chosen = np.asarray(order)[np.argmax(tied[order], axis=0)]
    return np.where(failed.all(axis=0), NONE_CHOSEN, chosen)


def prepare_estimates(stack: DatasetStack, approach: Approach) -> dict:
    """Per-hypothesis :class:`EstimateStack` of a stack; one stacked Cholesky
    per class gives X and log det and is the one positive-definiteness check.

    A trial whose estimate is not positive definite keeps its error, and
    its rows of M and X are the identity. Under approach A a degenerate
    steering energy is kept as the alpha failure: the covariance estimates
    stay valid for the secondary-only likelihood, and only the
    joint-likelihood rules lose that hypothesis.
    """
    approach = Approach.parse(approach)
    out: dict[Hypothesis, EstimateStack] = {}
    for h in Hypothesis:
        m_hat = estimate_covariance(h, stack)
        x_hat, logdet, errors, fell_back = inverse_and_logdet_stack(m_hat)
        if errors:
            m_hat[list(errors)] = np.eye(stack.n)
        alpha, alpha_errors = None, {}
        if approach is Approach.A:
            alpha, alpha_errors = estimate_alpha_stack(x_hat, *stack.require_cut())
        out[h] = EstimateStack(
            hypothesis=h,
            m_hat=m_hat,
            x_hat=x_hat,
            logdet=logdet,
            alpha_hat=alpha,
            failures=errors,
            alpha_failures={t: exc for t, exc in alpha_errors.items() if t not in errors},
            fallbacks=int(fell_back),
        )
    return out


def classify(
    dataset: Dataset,
    approach: Approach,
    criterion: Criterion,
) -> Scorecard:
    """Classify one dataset with one rule: the engine (:func:`classify_stack`)
    on a stack of one."""
    approach = Approach.parse(approach)
    scores = classify_stack(DatasetStack.of((dataset,)), (approach,), (criterion,))
    return scores[approach][criterion].scorecard(0)


def classify_stack(
    stack: DatasetStack, approaches, criteria
) -> dict[Approach, dict[Criterion, TrialScores]]:
    """Classify a stack of T datasets under every approach and rule at once.

    The four plug-in estimate stacks are prepared once, under approach A when
    A is asked for: estimates that carry alpha also serve approach B, the
    reverse does not hold. Per approach the fit terms are (4, T) arrays, the
    closed-form penalties one value per hypothesis, and the information
    terms are formed per trial and hypothesis once if any rule needs them.
    Each trial's outcome is bit-identical whatever stack it sits in. Finite
    data can overflow; numpy's warnings are silenced, as every non-finite
    value ends as a typed failure of its trial and hypothesis.
    """
    approaches = tuple(Approach.parse(a) for a in approaches)
    criteria = tuple(criteria)
    prep = Approach.A if Approach.A in approaches else approaches[0]
    with np.errstate(all="ignore"):
        prepared = prepare_estimates(stack, prep)
        return {a: _evaluate(stack, a, criteria, prepared) for a in approaches}


def _evaluate(
    stack: DatasetStack,
    approach: Approach,
    criteria: tuple[Criterion, ...],
    prepared: dict[Hypothesis, EstimateStack],
) -> dict[Criterion, TrialScores]:
    n, k, trials = stack.n, stack.k, len(stack)
    counts = [param_count(h, n) for h in Hypothesis]
    alpha_params = 2 if approach is Approach.A else 0

    fit = np.empty((len(counts), trials))
    lost: dict[tuple[int, int], Exception] = {}
    for i, (h, est) in enumerate(prepared.items()):
        fit[i] = _fit_terms(est, stack, approach)
        dead = est.failures
        if approach is Approach.A:
            dead = {**dead, **est.alpha_failures}
        for t, exc in dead.items():
            lost[(int(h), t)] = exc
            fit[i, t] = np.nan

    infos: dict[Hypothesis, InfoTerms] = {}
    if any(c.needs_fim for c in criteria):
        infos = {h: information_terms(est, stack, approach) for h, est in prepared.items()}
    estimate_fallbacks = sum(est.fallbacks for est in prepared.values())

    out: dict[Criterion, TrialScores] = {}
    for criterion in criteria:
        pen = np.empty_like(fit)
        failures = dict(lost)
        retries, fallbacks = 0, estimate_fallbacks
        for i, h in enumerate(Hypothesis):
            if criterion.needs_fim:
                info = infos[h]
                pen[i], errors, (retried, fell_back) = _information_penalty(criterion, info)
                retries += retried
                fallbacks += info.fallbacks + fell_back
                for t, exc in {**errors, **info.failures}.items():
                    failures.setdefault((int(h), t), exc)
                continue
            try:
                pen[i] = penalty(
                    criterion,
                    n_params=counts[i] + alpha_params,
                    m_params=counts[i],
                    k=k,
                    n=n,
                    approach=approach,
                )
            except AiccDegenerateError as exc:
                for t in range(trials):
                    failures.setdefault((int(h), t), exc)
        failed = np.zeros(fit.shape, dtype=bool)
        for h, t in failures:
            failed[h - 1, t] = True
        pen[failed] = np.nan
        total = fit + pen
        for i, t in np.argwhere(~np.isfinite(total) & ~failed):
            failures[(int(i) + 1, int(t))] = NonFiniteScoreError(
                f"total {float(total[i, t])!r} is not finite "
                f"(fit {float(fit[i, t])!r}, penalty {float(pen[i, t])!r})"
            )
            failed[i, t], pen[i, t], total[i, t] = True, np.nan, np.nan
        out[criterion] = TrialScores(
            criterion=criterion,
            approach=approach,
            fit=fit,
            penalty=pen,
            total=total,
            failures={key: _failure_text(exc) for key, exc in failures.items()},
            chosen=_argmin_batch(total, failed, counts),
            ridge_retries=retries,
            stack_fallbacks=fallbacks,
        )
    return out
