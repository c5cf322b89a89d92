"""The CEGIS driver: propose, verify, accumulate counterexamples.

``optimize_program`` walks the rewrite catalog in order and, for each
candidate id, verifies the *composition* ``accepted + [candidate]``
against the unmodified baseline with
:func:`repro.cegis.verifier.find_counterexample`.  A candidate whose
transform does not fire on the current basic program is recorded as
inapplicable (and not banked -- an id that never changed the program
carries no information).  A refuted candidate contributes its refuting
input seed to a replay list that every *later* candidate is checked
against first, so one counterexample prunes the whole family of rewrites
it breaks at the cost of a single extra execution each.

Verifying the composition (rather than each rewrite in isolation)
matters: two individually-sound rewrites can interact -- the accepted
set that comes out of the loop is exactly the ``verified_rewrites``
tuple the service will generate with, so what was verified is what
ships.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..backend import resolve_backends
from ..errors import CegisError, ReproError
from ..ir.program import Program
from ..machine.microarch import MicroArchitecture
from ..slingen.generator import SLinGen
from ..slingen.options import Options
from .fixbank import FixBank, FixRecord, fixbank_key
from .rewrites import apply_sequence, catalog
from .verifier import (DEFAULT_BUDGET, DEFAULT_REF_TOL, DEFAULT_TOL,
                       Counterexample, find_counterexample)


@dataclass
class CegisOutcome:
    """What one CEGIS run concluded about one program."""

    program_name: str
    label: str                     # registry-style label when known
    key: str                       # fix-bank key of the target
    accepted: List[str]            # ids, in application (catalog) order
    refuted: List[Dict[str, object]] = field(default_factory=list)
    inapplicable: List[str] = field(default_factory=list)
    backends: List[str] = field(default_factory=list)
    seed: int = 0
    budget: int = DEFAULT_BUDGET
    tol: float = DEFAULT_TOL
    ref_tol: float = DEFAULT_REF_TOL

    def to_record(self) -> FixRecord:
        return FixRecord(
            key=self.key, program_name=self.program_name, label=self.label,
            seed=self.seed, budget=self.budget, backends=list(self.backends),
            tol=self.tol, ref_tol=self.ref_tol,
            accepted=list(self.accepted), refuted=list(self.refuted),
            inapplicable=list(self.inapplicable))

    def summary(self) -> Dict[str, object]:
        return {
            "program": self.program_name,
            "label": self.label,
            "key": self.key,
            "accepted": list(self.accepted),
            "refuted": [entry["id"] for entry in self.refuted],
            "inapplicable": list(self.inapplicable),
            "backends": list(self.backends),
            "seed": self.seed,
            "budget": self.budget,
        }


def optimize_program(program: Program,
                     options: Optional[Options] = None, *,
                     machine: Optional[MicroArchitecture] = None,
                     budget: int = DEFAULT_BUDGET,
                     seed: int = 0,
                     tol: float = DEFAULT_TOL,
                     ref_tol: float = DEFAULT_REF_TOL,
                     backends: str = "auto",
                     bank: Optional[FixBank] = None,
                     label: str = "") -> CegisOutcome:
    """Run the CEGIS loop on one program and (optionally) bank the result.

    ``options`` is the generation baseline; any ``verified_rewrites`` it
    carries are stripped first -- the loop decides that field.  When
    ``bank`` is given the resulting :class:`FixRecord` is persisted
    under :func:`fixbank_key`, *including* all-refuted outcomes: a
    record with an empty ``accepted`` list remembers the
    counterexamples, so a later run replays them instead of
    rediscovering them.
    """
    base = dataclasses.replace(options or Options(), verified_rewrites=())
    base.validate()

    try:
        baseline = SLinGen(base).generate_result(program)
    except ReproError as exc:
        raise CegisError(
            f"cannot optimize {program.name!r}: baseline generation "
            f"failed: {exc}") from exc
    basic = baseline.basic_program
    if basic is None:
        raise CegisError(
            f"cannot optimize {program.name!r}: generator recorded no "
            f"basic program to rewrite")

    accepted: List[str] = []
    refuted: List[Dict[str, object]] = []
    inapplicable: List[str] = []
    replay: List[int] = []

    for rewrite in catalog():
        # Applicability against the *current* composition: mirrors what
        # build_candidate will do with accepted + [this id].
        current = apply_sequence(accepted, basic)
        if rewrite.transform(current) is None:
            inapplicable.append(rewrite.id)
            continue
        trial = dataclasses.replace(
            base, verified_rewrites=tuple(accepted) + (rewrite.id,))
        counterexample = find_counterexample(
            program, program, base, options_b=trial,
            seeds=replay, budget=budget, seed=seed,
            tol=tol, ref_tol=ref_tol, backends=backends)
        if counterexample is None:
            accepted.append(rewrite.id)
        else:
            entry: Dict[str, object] = {"id": rewrite.id}
            entry.update(counterexample.to_json())
            refuted.append(entry)
            if counterexample.seed >= 0 \
                    and counterexample.seed not in replay:
                replay.append(counterexample.seed)

    outcome = CegisOutcome(
        program_name=program.name, label=label or program.name,
        key=fixbank_key(program, machine=machine,
                        vectorize=base.vectorize),
        accepted=accepted, refuted=refuted, inapplicable=inapplicable,
        backends=resolve_backends(backends), seed=seed, budget=budget,
        tol=tol, ref_tol=ref_tol)
    if bank is not None:
        bank.put(outcome.key, outcome.to_record())
    return outcome
