"""User-facing configuration of the SLinGen generator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


@dataclass
class Options:
    """Configuration of a :class:`~repro.slingen.generator.SLinGen` run.

    Parameters
    ----------
    vectorize:
        Emit AVX-style vector code (nu = ``vector_width``); when false the
        generated C is scalar.
    vector_width:
        Number of doubles per vector register (4 for AVX double precision,
        2 for SSE2).
    block_size:
        Blocking factor used by Stage 1 when expanding HLACs.  ``None``
        defaults to the vector width, as in the paper.
    autotune:
        Explore algorithmic variants (Stage 1) and code-generation variants
        (Stage 2/3) and keep the fastest according to the machine model.
    load_store_analysis / scalar_replacement / unroll:
        Individual Stage-3 optimizations (exposed for the ablation study).
    rewrite_rules:
        Apply the R0/R1 scalar-packing rules of Table 2 during Stage 2.
    max_variants:
        Upper bound on the number of candidate implementations evaluated by
        the autotuner.
    stage1_variants:
        Pin the Stage-1 algorithmic choices: maps HLAC statement indices
        (in the unrolled input program) to Cl1ck variant names, exactly the
        ``variant_choices`` of a :class:`~repro.slingen.stage1.Stage1Result`.
        ``None`` (the default) lets the autotuner choose; the empirical
        tuner uses this to replay a tuned algorithm deterministically.
    verified_rewrites:
        Ids of CEGIS-verified rewrites (:mod:`repro.cegis.rewrites`) to
        apply to the basic program after the sound R0/R1 rules, in
        catalog order.  These transformations are *unsound in general*;
        callers must only enable ids a verification run accepted for
        this concrete program (normally via a
        :class:`~repro.cegis.fixbank.FixRecord`).
    analysis:
        Static-verification gate mode (:mod:`repro.analysis`): ``"off"``
        skips verification, ``"warn"`` verifies every freshly built
        phase artifact and records diagnostics in the analysis stats,
        ``"strict"`` additionally raises
        :class:`~repro.errors.AnalysisError` on any error diagnostic
        *before* the artifact is cached.  A gate axis: it never changes
        what any phase computes, so it feeds no cache key.
    """

    vectorize: bool = True
    vector_width: int = 4
    block_size: Optional[int] = None
    autotune: bool = True
    load_store_analysis: bool = True
    scalar_replacement: bool = True
    unroll: bool = True
    unroll_trip_count: int = 8
    unroll_body_limit: int = 64
    rewrite_rules: bool = True
    use_shuffle_transpose: bool = True
    max_variants: int = 12
    stage1_variants: Optional[Dict[int, str]] = None
    annotate_code: bool = True
    function_name: Optional[str] = None
    verified_rewrites: Tuple[str, ...] = ()
    analysis: str = "off"

    def validate(self) -> "Options":
        """Check option consistency; raises
        :class:`~repro.errors.ConfigurationError` on invalid settings.

        Called at the top of :meth:`SLinGen.generate`, and by the kernel
        service before a request is hashed into a cache key (an invalid
        configuration must never be cached).  Returns ``self`` for chaining.
        """
        from ..errors import ConfigurationError

        if self.vector_width not in (1, 2, 4):
            # the C backend maps width 2 to 128-bit SSE2/AVX and width 4
            # to 256-bit AVX; other widths have no intrinsic type and
            # must be refused before any code is generated (and cached)
            raise ConfigurationError(
                f"vector_width must be 1 (scalar), 2 (SSE2) or 4 (AVX), "
                f"got {self.vector_width}")
        if self.block_size is not None and self.block_size < 1:
            raise ConfigurationError(
                f"block_size must be positive when set, got {self.block_size}")
        if self.max_variants < 1:
            raise ConfigurationError(
                f"max_variants must be >= 1, got {self.max_variants}")
        if self.unroll_trip_count < 1:
            raise ConfigurationError(
                f"unroll_trip_count must be >= 1, got {self.unroll_trip_count}")
        if self.unroll_body_limit < 1:
            raise ConfigurationError(
                f"unroll_body_limit must be >= 1, got {self.unroll_body_limit}")
        if self.stage1_variants is not None:
            for index, variant in self.stage1_variants.items():
                if not isinstance(index, int) or index < 0 \
                        or not isinstance(variant, str) or not variant:
                    raise ConfigurationError(
                        f"stage1_variants must map HLAC indices (int >= 0) "
                        f"to variant names, got {index!r}: {variant!r}")
        if self.function_name is not None \
                and not self.function_name.isidentifier():
            raise ConfigurationError(
                f"function_name must be a valid C identifier, "
                f"got {self.function_name!r}")
        if self.analysis not in ("off", "warn", "strict"):
            raise ConfigurationError(
                f"analysis must be 'off', 'warn' or 'strict', "
                f"got {self.analysis!r}")
        if self.verified_rewrites:
            # normalize to a tuple so JSON round-trips (which produce
            # lists) hash identically in the service cache keys
            self.verified_rewrites = tuple(self.verified_rewrites)
            from ..cegis.rewrites import known_ids
            known = set(known_ids())
            for rewrite_id in self.verified_rewrites:
                if rewrite_id not in known:
                    raise ConfigurationError(
                        f"unknown verified rewrite {rewrite_id!r}; "
                        f"known: {', '.join(sorted(known))}")
        return self

    @property
    def effective_vector_width(self) -> int:
        return self.vector_width if self.vectorize else 1

    @property
    def effective_block_size(self) -> int:
        if self.block_size is not None:
            return self.block_size
        return max(self.effective_vector_width, 2)
