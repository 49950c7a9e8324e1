"""``fit_logit`` against the fit it folded in.

The reference below is the earlier ``fit_logit``, ``_fit`` and ``_as_model``,
kept verbatim but for one line: the module's ``_log_likelihood`` is looked up
at call time, so a test can watch every likelihood both fits evaluate, and
the reference counts the steps it halves.  It tried the full Newton step
before a ``while`` loop and halved it inside, with the trial statements
written twice; ``fit_logit`` now states them once in one bounded loop.  Both
must give an equal ``FitResult``, or raise the same error with the same
message, on every table.
"""

import random
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sourcescope import model
from sourcescope.errors import (
    ConvergenceError,
    SeparationError,
    SingularDesignError,
    SourceScopeError,
)
from sourcescope.model import (
    _SEPARATION_BOUND,
    FEATURE_NAMES,
    FitOptions,
    FitResult,
    LabeledDataset,
    LogitModel,
    cell_design,
    dot,
    fit_logit,
    gram,
    invert,
    scatter,
    sigmoid,
)

HALVED = []     # one entry per step the reference halved


def reference_fit_logit(data: LabeledDataset, features: Sequence[str],
                        opts: Optional[FitOptions] = None) -> FitResult:
    features = tuple(features)
    if not features:
        raise ValueError("need at least one feature; see null_log_likelihood for the null fit")
    return _fit(data, features, opts or FitOptions())


def _fit(data: LabeledDataset, features: tuple[str, ...], opts: FitOptions) -> FitResult:
    _log_likelihood = model._log_likelihood
    cells = cell_design(data, features)
    if invert(scatter(cells)) is None:
        raise SingularDesignError(
            f"design matrix is rank deficient over features {features}")

    beta = [0.0] * (1 + len(features))
    lnl = _log_likelihood(cells, beta)
    for iteration in range(opts.max_iterations):
        p = [sigmoid(dot(x, beta)) for x, _, _ in cells]
        residuals = [n * (y - pi) for (_, y, n), pi in zip(cells, p)]
        score = [dot(column, residuals) for column in zip(*(x for x, _, _ in cells))]
        if max(map(abs, score)) < opts.tolerance:
            return FitResult(_as_model(beta, features), lnl, iteration)

        inverse = invert(gram(cells, [n * pi * (1.0 - pi) for (_, _, n), pi in zip(cells, p)]))
        if inverse is None:
            raise SingularDesignError("weighted normal equations are singular (degenerate fit)")
        step = [dot(row, score) for row in inverse]

        # step-halving keeps the likelihood monotone on awkward data; a fall
        # within rounding of lnL is no fall, or a converged fit would stall
        new_beta = [b + s for b, s in zip(beta, step)]
        new_lnl = _log_likelihood(cells, new_beta)
        halvings = 0
        while new_lnl < lnl - 1e-12 * abs(lnl) and halvings < 20:
            step = [0.5 * s for s in step]
            new_beta = [b + s for b, s in zip(beta, step)]
            new_lnl = _log_likelihood(cells, new_beta)
            halvings += 1
        HALVED.extend([None] * halvings)
        beta, lnl = new_beta, new_lnl

        if max(map(abs, beta)) > _SEPARATION_BOUND:
            raise SeparationError(
                f"separation detected: |coefficient| exceeded {_SEPARATION_BOUND}")

    raise ConvergenceError(f"no convergence after {opts.max_iterations} iterations")


def _as_model(beta: Sequence[float], features: tuple[str, ...]) -> LogitModel:
    return LogitModel(intercept=beta[0], coefficients=dict(zip(features, beta[1:])))


# --------------------------------------------------------------------------

def outcome(fit, counts, features, opts=None):
    """What a fit gives, in full: the result, or the error's type and message."""
    try:
        return fit(LabeledDataset.from_counts(counts), features, opts)
    except (ValueError, SourceScopeError) as exc:
        return type(exc), str(exc)


def assert_same(counts, features, opts=None):
    expected = outcome(reference_fit_logit, counts, features, opts)
    assert outcome(fit_logit, counts, features, opts) == expected
    return expected


# cell counts from empty to a few thousand: a few rows beside thousands in
# other cells is what makes a full Newton step overshoot and get halved
COUNT = st.one_of(st.just(0), st.integers(1, 3), st.integers(1, 2000))
FEATURES = st.lists(st.sampled_from(FEATURE_NAMES), min_size=1, max_size=5, unique=True)


@settings(max_examples=300, deadline=None)
@given(counts=st.lists(COUNT, min_size=64, max_size=64).filter(any), features=FEATURES)
def test_generated_tables(counts, features):
    assert_same(counts, features)


def test_seeded_tables_include_halved_steps():
    rng = random.Random(1)
    del HALVED[:]
    kinds = set()
    for _ in range(400):
        counts = [rng.choice([0, 0, 0, 1, rng.randint(1, 3), rng.randint(1, 2000)])
                  for _ in range(64)]
        expected = assert_same(counts, rng.sample(FEATURE_NAMES, rng.randint(1, 5)))
        kinds.add(expected[0] if isinstance(expected, tuple) else FitResult)
    assert len(HALVED) >= 1
    assert FitResult in kinds and SeparationError in kinds


def _table(*cells):
    """64 counts from ``(label, padlock, contact, count)`` cells."""
    counts = [0] * 64
    for label, padlock, contact, count in cells:
        counts[32 * label + 16 * padlock + 8 * contact] += count
    return counts


@pytest.mark.parametrize("counts,features,opts,error", [
    (_table((1, 1, 1, 20), (0, 1, 0, 20)), ("padlock", "contact"), None, SingularDesignError),
    (_table((1, 1, 1, 20), (0, 0, 0, 20), (1, 0, 0, 3)), ("padlock", "contact"), None,
     SingularDesignError),
    (_table((1, 1, 0, 40), (0, 0, 0, 40)), ("padlock",), None, SeparationError),
    (_table((1, 1, 0, 30), (0, 1, 0, 10), (1, 0, 0, 10), (0, 0, 0, 30)), ("padlock",),
     FitOptions(max_iterations=2), ConvergenceError),
    (_table((1, 1, 0, 3), (0, 0, 1, 3)), (), None, ValueError),
], ids=["constant-column", "duplicated-column", "separated", "iteration-budget", "no-feature"])
def test_refusals(counts, features, opts, error):
    assert assert_same(counts, features, opts)[0] is error


def test_a_nan_likelihood_stops_the_halving_at_once(monkeypatch):
    # only the start is finite: each trial step is taken as it is, so both
    # fits evaluate one likelihood per iteration and run out of iterations
    calls = []

    def nan_past_the_start(cells, beta):
        calls.append(None)
        return float("nan") if any(beta) else -10.0

    monkeypatch.setattr(model, "_log_likelihood", nan_past_the_start)
    counts = _table((1, 1, 0, 30), (0, 1, 0, 10), (1, 0, 0, 10), (0, 0, 0, 30))
    opts = FitOptions(max_iterations=4)
    assert assert_same(counts, ("padlock",), opts) == (
        ConvergenceError, "no convergence after 4 iterations")
    assert len(calls) == 2 * (1 + 4)
