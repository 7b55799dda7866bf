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
complements S, completed in closed form from S's two Cholesky pivots:
``Tr(J I^-1)`` adds ``Tr(S^-1 Y Y^T)`` and ``log det I`` adds ``log det S``,
whose pivots are the BIC positive-definiteness check. A trial whose trace
is not finite is retried alone with a ridge, and the retries are counted.
The classifier picks the smallest total, ties going to the smaller
parameter count and then the lower index; a hypothesis whose numerics break
(singular information matrix, degenerate AICc denominator, failed
factorization, a total that is not finite) is excluded and the failure
recorded, and the argmin runs over the survivors.

One engine, :func:`classify_stack`, classifies a :class:`DatasetStack` of T
datasets at once: the estimates come from stacked projections and one
stacked Cholesky per class, bordered under approach A by ``[v z]`` so that
it also gives the amplitudes and CUT fits, and for TIC and BIC only one
stacked LU gives the inverse estimates; the fits are
(4, T) arrays, the closed-form penalties are one value per hypothesis, and
one argmin runs over every rule's (4, T) totals at once. TIC and BIC take
one pass of the information terms per class, for every approach. A trial
that fails a check is excluded on its own, with the message a stack of one
would give, and every stacked operation treats each trial alone, so a
trial's outcome does not depend on the stack it sits in. :func:`classify` is
the engine on a stack of one.
"""

from __future__ import annotations

import enum
import functools
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
from .linalg import _PIVOT_RTOL, _pivot_error, cholesky_stack, hermitian_part
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
) -> tuple[np.ndarray, dict[int, FimSingularError], int]:
    """TIC or BIC penalties of a stack of information terms (see
    :func:`covstruct.likelihood.information_terms`), the failure of each
    trial whose Schur block is unusable, and the number of TIC ridge retries.

    Under approach A the symmetric 2 x 2 Schur pair ``(S, Y Y^T)`` adds its
    trace and log-determinant in closed form, from S's Cholesky pivots
    ``a = S00`` and ``c - b^2/a``. BIC refuses a trial whose smaller pivot is
    not above ``_PIVOT_RTOL`` times S's larger diagonal entry, NaN included:
    the rule of :func:`covstruct.linalg.cholesky_stack`. A TIC trace that is
    not finite is retried once with a ridge on S's diagonal.
    """
    tic = criterion.kind is CriterionKind.TIC
    if not tic and criterion.kind is not CriterionKind.BIC:
        raise ValueError(f"{criterion.key} takes no information-matrix terms")
    if info.schur is None:
        return (2.0 * info.theta_trace if tic else info.theta_logdet), {}, 0
    s, yy = info.schur
    with np.errstate(all="ignore"):  # a non-finite value fails its own trial
        if tic:
            extra = _schur_trace(s, yy)
            retry = np.flatnonzero(~np.isfinite(extra))
            if retry.size:
                ridge = _TIC_RIDGE * (s[retry, 0, 0] + s[retry, 1, 1]) / 2
                extra[retry] = _schur_trace(s[retry], yy[retry], ridge)
            errors = {int(t): FimSingularError(
                f"observed FIM singular even after ridge: trace {float(extra[t])!r}"
            ) for t in retry if not np.isfinite(extra[t])}
            return 2.0 * (info.theta_trace + extra), errors, len(retry)
        a, b, c = s[:, 0, 0], s[:, 0, 1], s[:, 1, 1]
        pivot = c - b * b / a
        smaller, diag_max = np.minimum(a, pivot), np.maximum(a, c)
        logdet = info.theta_logdet + (np.log(a) + np.log(pivot))
    errors = {int(t): FimSingularError(
        f"observed FIM not positive definite: {_pivot_error(smaller[t], diag_max[t])}"
    ) for t in np.flatnonzero(~(smaller > _PIVOT_RTOL * diag_max))}
    return logdet, errors, 0


def _schur_trace(s: np.ndarray, yy: np.ndarray, ridge=0.0) -> np.ndarray:
    """Tr[(S + ridge I)^-1 Y Y^T] over (T, 2, 2) symmetric stacks."""
    a, b, c = s[:, 0, 0] + ridge, s[:, 0, 1], s[:, 1, 1] + ridge
    return (c * yy[:, 0, 0] - 2.0 * b * yy[:, 0, 1] + a * yy[:, 1, 1]) / (a * (c - b * b / a))


def _inverse_each(m: np.ndarray) -> tuple[np.ndarray, bool]:
    """Stacked ``inv(m)``, and whether the stack fell back. numpy refuses the
    whole stack when one matrix is singular; the matrices are then inverted
    one by one, and one whose LU breaks down is left NaN."""
    try:
        return np.linalg.inv(m), False
    except np.linalg.LinAlgError:
        inverse = np.full_like(m, np.nan)
        for t, matrix in enumerate(m):
            try:
                inverse[t] = np.linalg.inv(matrix)
            except np.linalg.LinAlgError:
                pass
        return inverse, True


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
    ``ridge_retries`` counts the trials and hypotheses whose TIC Schur
    trace was retried with a ridge; ``stack_fallbacks`` counts the stacked
    Cholesky factorizations and LUs of the estimates behind this outcome
    (the information terms factor nothing) that fell back matrix by matrix.
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
    return 2.0 * ((k + 1) * (n * _LOG_PI + estimate.logdet) + n * k + estimate.quad)


def _argmin_batch(
    totals: np.ndarray, failed: np.ndarray, counts: list[int]
) -> np.ndarray:
    """Per column of (..., 4, T) totals, the row with the smallest total among
    the rows not ``failed``; ties go to the smaller parameter count, then the
    lower index. ``NONE_CHOSEN`` where every row failed."""
    masked = np.where(failed, np.inf, totals)
    tied = (masked == masked.min(axis=-2, keepdims=True)) & ~failed
    order = sorted(range(len(counts)), key=lambda i: (counts[i], i))
    chosen = np.asarray(order)[np.argmax(tied[..., order, :], axis=-2)]
    return np.where(failed.all(axis=-2), NONE_CHOSEN, chosen)


def prepare_estimates(
    stack: DatasetStack, approach: Approach, criteria, hypothesis: Hypothesis
) -> EstimateStack:
    """The :class:`EstimateStack` of class ``hypothesis`` over a stack, for
    the rules ``criteria``. One stacked Cholesky, whatever the rules, is the
    one positive-definiteness check and gives log det M. Under H4 it factors
    ``P^T M P``, ``P = [E O]`` the J-even and J-odd basis, in which M is block
    diagonal (Cantoni and Butler 1976, Linear Algebra Appl. 13), so the
    log-pivots' J-even and J-odd partial sums are the blocks' log-dets.

    Under approach A it is bordered by ``[v z]`` (real classes by its (Re,
    Im) columns, H4 by ``P^T [v z]``; :func:`covstruct.linalg.cholesky_stack`),
    and the factor's border rows ``a = L^-1 v``, ``b = L^-1 z`` give the
    amplitudes and CUT fits (:func:`estimate_alpha_stack`). L never reads
    the border, but its rounding may follow the matrix size, so under B a
    stack with a CUT is bordered by as many zero rows: the log-dets do not
    depend on the approaches scored.

    A trial whose estimate is not positive definite keeps its error, and
    its rows of M are the identity. A degenerate steering energy, or a
    border row that is not finite, is kept as the alpha failure: the
    covariance estimates stay valid for the secondary-only likelihood, and
    only the joint-likelihood rules lose that hypothesis. Where a TIC or BIC
    rule needs X, one stacked LU inverts M; X is NaN where it breaks down.
    """
    approach, n, real, border = Approach.parse(approach), stack.n, hypothesis.is_real, None
    if approach is Approach.A:
        border = stack.real_border if real else stack.border
    elif stack.cut is not None and stack.steering is not None:
        border = np.zeros((1, 4, n)) if real else np.zeros((1, 2, n), complex)
    m_hat = factored = estimate_covariance(hypothesis, stack)
    blocks = (slice(None),)
    if hypothesis is Hypothesis.H4:  # block diagonal in its J-parity basis
        basis, split = _parity_basis(n), (n + 1) // 2
        factored = basis.T @ m_hat @ basis
        border = None if border is None else border @ basis
        blocks = slice(split), slice(split, None)
    low, errors, fell_back = cholesky_stack(factored, border)
    logs = np.log(low.diagonal(0, -2, -1)[:, :n].real)  # 2 sum(logs) is log det, by block
    block_logdets = tuple(2.0 * logs[:, block].sum(-1) for block in blocks)
    if errors:
        m_hat[list(errors)] = np.eye(n)
    alpha, quad, alpha_errors, x_hat = None, None, {}, None
    if approach is Approach.A:
        rows = low[:, n:, :n]  # (L^-1 [v z])^H, or its (Re, Im) rows
        ab = rows[:, 0::2] + 1j * rows[:, 1::2] if real else rows.conj()
        alpha, quad, alpha_errors = estimate_alpha_stack(ab[:, 0], ab[:, 1])
        for t in np.flatnonzero(~np.isfinite(rows).all(axis=(-2, -1))):
            alpha_errors[int(t)] = np.linalg.LinAlgError(
                "steering or CUT through the ICM estimate's Cholesky factor is not finite"
            )
    if any(c.needs_fim for c in criteria):
        inverse, inverse_fell_back = _inverse_each(m_hat)
        x_hat, fell_back = hermitian_part(inverse), fell_back + inverse_fell_back
    return EstimateStack(
        hypothesis=hypothesis, m_hat=m_hat, logdet=sum(block_logdets),
        block_logdets=block_logdets, alpha_hat=alpha, quad=quad, failures=errors,
        alpha_failures={t: exc for t, exc in alpha_errors.items() if t not in errors},
        fallbacks=int(fell_back), x_hat=x_hat,
    )


@functools.lru_cache(maxsize=32)
def _parity_basis(n: int) -> np.ndarray:
    """The orthonormal real basis ``[E O]`` of the J-even, then the J-odd
    N-vectors, formed once per N and read-only."""
    half, eye = n // 2, np.eye(n)
    low, high = eye[:, :half], eye[:, ::-1][:, :half]
    centre = eye[:, half : n - half]  # J-even; a column only when N is odd
    basis = np.hstack([math.sqrt(0.5) * (low + high), centre, math.sqrt(0.5) * (low - high)])
    basis.flags.writeable = False
    return basis


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

    The classes run one at a time, so one class's M and X are held at once:
    its estimates, prepared under approach A when A is asked for
    (estimates that carry alpha also serve approach B, not the reverse), and
    if any rule needs them its information terms, one pass for every
    approach, leave only its fit rows, failures and terms. Per approach the
    argmin then runs once over every rule's (4, T) totals.
    Each trial's outcome is bit-identical whatever stack it sits in. Finite
    data can overflow; numpy's warnings are silenced, as every non-finite
    value ends as a typed failure of its trial and hypothesis.
    """
    approaches = tuple(Approach.parse(a) for a in approaches)
    criteria = tuple(criteria)
    prep = Approach.A if Approach.A in approaches else approaches[0]
    fim = any(c.needs_fim for c in criteria)
    fits = {a: (np.empty((len(Hypothesis), len(stack))), {}) for a in approaches}
    infos, fallbacks = {}, 0
    with np.errstate(all="ignore"):
        for i, h in enumerate(Hypothesis):
            est = prepare_estimates(stack, prep, criteria, h)
            fallbacks += est.fallbacks
            if fim:
                infos[h] = information_terms(est, stack, approaches)
            for a, (fit, lost) in fits.items():
                fit[i] = _fit_terms(est, stack, a)
                dead = {**est.failures, **est.alpha_failures} if a is Approach.A else est.failures
                for t, exc in dead.items():
                    lost[(int(h), t)], fit[i, t] = exc, np.nan
        return {a: _evaluate(stack, a, criteria, *fits[a], fallbacks, infos) for a in approaches}


def _evaluate(
    stack: DatasetStack,
    approach: Approach,
    criteria: tuple[Criterion, ...],
    fit: np.ndarray,
    lost: dict[tuple[int, int], Exception],
    fallbacks: int,
    infos: dict[Hypothesis, dict[Approach, InfoTerms]],
) -> dict[Criterion, TrialScores]:
    n, k, trials = stack.n, stack.k, len(stack)
    counts = [param_count(h, n) for h in Hypothesis]
    alpha_params = 2 if approach is Approach.A else 0

    # Every rule's penalties, then one pass over the (rules, 4, T) totals.
    pen, rules = np.empty((len(criteria), *fit.shape)), []
    failed = np.zeros(pen.shape, dtype=bool)
    for c, criterion in enumerate(criteria):
        failures, retries = dict(lost), 0
        for i, h in enumerate(Hypothesis):
            if criterion.needs_fim:
                info = infos[h][approach]
                pen[c, i], errors, retried = _information_penalty(criterion, info)
                retries += retried
                for t, exc in {**errors, **info.failures}.items():
                    failures.setdefault((int(h), t), exc)
                continue
            try:
                pen[c, i] = penalty(criterion, n_params=counts[i] + alpha_params,
                                    m_params=counts[i], k=k, n=n, approach=approach)
            except AiccDegenerateError as exc:
                for t in range(trials):
                    failures.setdefault((int(h), t), exc)
        rules.append((failures, retries))
        for h, t in failures:
            failed[c, h - 1, t] = True
    pen[failed] = np.nan
    total = fit + pen
    for c, i, t in np.argwhere(~np.isfinite(total) & ~failed):
        rules[c][0][(int(i) + 1, int(t))] = NonFiniteScoreError(
            f"total {float(total[c, i, t])!r} is not finite "
            f"(fit {float(fit[i, t])!r}, penalty {float(pen[c, i, t])!r})"
        )
        failed[c, i, t], pen[c, i, t], total[c, i, t] = True, np.nan, np.nan
    chosen = _argmin_batch(total, failed, counts)
    out: dict[Criterion, TrialScores] = {}
    for c, (criterion, (failures, retries)) in enumerate(zip(criteria, rules)):
        out[criterion] = TrialScores(
            criterion=criterion,
            approach=approach,
            fit=fit,
            penalty=pen[c],
            total=total[c],
            failures={key: _failure_text(exc) for key, exc in failures.items()},
            chosen=chosen[c],
            ridge_retries=retries,
            stack_fallbacks=fallbacks,
        )
    return out
