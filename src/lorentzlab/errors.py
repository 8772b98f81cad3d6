"""Typed errors for lorentz-lab.

Every failure mode that callers are expected to catch gets its own class;
plain ValueError/TypeError are reserved for programming mistakes (bad shapes,
unknown enum tags) rather than mathematical degeneracies.
"""


class LorentzLabError(Exception):
    """Base class for all domain errors raised by this package."""


class InvertedInterval(LorentzLabError):
    """An interval (a, b] was requested with a > b."""


class NonIntegrableNearZero(LorentzLabError):
    """A cumulative-from-zero query hit a weight that is not locally
    integrable at the origin (e.g. t^alpha with alpha <= -1)."""


class NonRearrangeable(LorentzLabError):
    """The function has unbounded support and is not already nonincreasing,
    so its decreasing rearrangement cannot be laid out on (0, |supp f|]."""


class DegenerateU(LorentzLabError):
    """The cumulative U vanishes (or is infinite) where the computation needs
    it positive and finite."""


class DegenerateSigma(LorentzLabError):
    """sigma is identically zero or infinite on the grid."""


class BranchMismatch(LorentzLabError):
    """A constant formula was requested for the wrong exponent branch
    (A(1) needs q >= 1, A(2) needs 0 < q < 1)."""


class NotQuasiconcave(LorentzLabError):
    """A fit target failed the quasiconcavity precondition."""


class FitFailed(LorentzLabError):
    """The representation-measure fitter could not reach the requested
    sup-log-ratio bound; ``achieved`` is the interior sup-log-ratio it did
    reach (inf when no iterate gave a positive fit)."""

    def __init__(self, message: str, achieved: float = float("inf")):
        super().__init__(message)
        self.achieved = achieved


class HypothesisViolated(LorentzLabError):
    """Monotonicity hypotheses on phi (nonincreasing, phi(t) t^{1/p}
    nondecreasing) failed on the grid."""


class DegenerateProblem(LorentzLabError):
    """A verifier received a problem whose two sides are identically zero or
    infinite, so no constant is estimable."""


class DegenerateInput(LorentzLabError):
    """Every candidate in a maximization had zero norm, so no quotient is
    defined."""


class ConfigError(LorentzLabError):
    """Malformed JSON config, unknown schema version, or bad CLI literal."""
