"""Exception hierarchy for the repro (SLinGen reproduction) package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch a single exception type at the API boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class ConfigurationError(ReproError):
    """Raised when user-facing options fail validation."""


class ServiceError(ReproError):
    """Raised by the kernel-generation service layer."""


class StoreError(ServiceError):
    """Raised on unrecoverable kernel-store failures (e.g. unusable root)."""


class LAError(ReproError):
    """Errors related to the LA input language."""


class LASyntaxError(LAError):
    """Raised by the lexer/parser on malformed LA source.

    Attributes
    ----------
    line, column:
        1-based source position of the offending token (0 when unknown).
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, col {column}: {message}"
        super().__init__(message)


class LASemanticError(LAError):
    """Raised by semantic analysis on a well-formed but invalid program."""


class DimensionError(ReproError):
    """Raised when operand dimensions are incompatible in an expression."""


class SynthesisError(ReproError):
    """Raised when Cl1ck-style algorithm synthesis fails for an HLAC."""


class UnsupportedHLACError(SynthesisError):
    """Raised when an HLAC does not match any known operation pattern."""


class LoweringError(ReproError):
    """Raised when an sBLAC cannot be lowered to C-IR."""


class CIRError(ReproError):
    """Raised on malformed C-IR or failed C-IR passes."""


class InterpreterError(ReproError):
    """Raised when the C-IR interpreter encounters an invalid program."""


class BackendError(ReproError):
    """Raised by the C backends (unparsing or compilation failures)."""


class AutotuningError(ReproError):
    """Raised when autotuning cannot find any working candidate."""


class MeasurementError(AutotuningError):
    """Raised when an empirical measurement backend cannot score a kernel
    (no compiler, failed timing run, unknown backend name)."""


class TuningDBError(AutotuningError):
    """Raised on unrecoverable tuning-database failures (unusable root)."""


class FuzzError(ReproError):
    """Raised by the differential fuzzer on malformed cases or corpora."""


class CegisError(ReproError):
    """Raised by the verified-optimization tier (unknown rewrite ids,
    mismatched verification targets, unusable fix-bank roots)."""


class PerfError(ReproError):
    """Raised by the continuous-performance subsystem (malformed
    manifests, unusable trajectory files, structurally invalid runs)."""


class AnalysisError(ReproError):
    """Raised when the static verifier rejects a pipeline artifact.

    Only strict-mode gating raises (``Options.analysis == "strict"``);
    warn mode records diagnostics without interrupting generation.  The
    message carries the error diagnostics of the failing
    :class:`repro.analysis.AnalysisReport`.
    """
