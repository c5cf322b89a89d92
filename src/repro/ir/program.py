"""LA programs and their statements at the mathematical level.

A :class:`Program` is the in-memory form of an LA source file: an ordered
set of operand declarations followed by a sequence of statements.  The same
class also represents *basic linear algebra programs*, the output of
Stage 1, in which every statement is an sBLAC or an auxiliary scalar
computation (no HLACs left).

Statement taxonomy (paper Fig. 1 / Sec. 3):

* :class:`Assign` -- ``lhs_view = rhs_expr``.  If the right-hand side uses
  only +, -, *, ^T this is an *sBLAC* (or a scalar auxiliary computation if
  everything is 1x1); if it contains an :class:`~repro.ir.expr.Inverse`
  it is an HLAC.
* :class:`Equation` -- ``lhs_expr = rhs_expr`` with a non-trivial left-hand
  side (e.g. ``U^T * U = S``); always an HLAC.  The unknowns are the
  referenced operands declared as outputs.
* :class:`ForLoop` -- a fixed-trip-count loop over statements (LA grammar);
  unrolled during semantic analysis because all sizes are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from ..errors import LASemanticError
from .expr import Expr, Ref
from .operands import IOType, Operand, View


class Statement:
    """Base class of LA/basic-program statements."""

    def is_hlac(self) -> bool:
        raise NotImplementedError

    def is_sblac(self) -> bool:
        return not self.is_hlac()

    def reads(self) -> List[View]:
        raise NotImplementedError

    def writes(self) -> List[View]:
        raise NotImplementedError

    def operands(self) -> List[Operand]:
        seen: List[Operand] = []
        for view in self.reads() + self.writes():
            if view.operand not in seen:
                seen.append(view.operand)
        return seen


@dataclass
class Assign(Statement):
    """``lhs = rhs`` where the left-hand side is a single operand view."""

    lhs: View
    rhs: Expr

    def __post_init__(self) -> None:
        if self.lhs.shape != self.rhs.shape:
            raise LASemanticError(
                f"shape mismatch in assignment to {self.lhs!r}: "
                f"lhs is {self.lhs.shape}, rhs is {self.rhs.shape}")

    def is_hlac(self) -> bool:
        return self.rhs.contains_inverse()

    @property
    def is_scalar_op(self) -> bool:
        """True for auxiliary scalar computations (everything 1x1)."""
        return self.lhs.is_scalar and all(v.is_scalar for v in self.rhs.views())

    def reads(self) -> List[View]:
        return self.rhs.views()

    def writes(self) -> List[View]:
        return [self.lhs]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.lhs!r} = {self.rhs!r};"


@dataclass
class Equation(Statement):
    """``lhs_expr = rhs_expr`` HLAC statement (implicit equation).

    Example: ``Transpose(U) * U = S`` declares that the output operand U
    must satisfy the equation (a Cholesky factorization).
    """

    lhs: Expr
    rhs: Expr

    def __post_init__(self) -> None:
        if self.lhs.shape != self.rhs.shape:
            raise LASemanticError(
                f"shape mismatch in equation: lhs is {self.lhs.shape}, "
                f"rhs is {self.rhs.shape}")

    def is_hlac(self) -> bool:
        return True

    def unknowns(self) -> List[Operand]:
        """Output operands appearing in the equation (the unknowns)."""
        outs = [op for op in self.lhs.operands() + self.rhs.operands()
                if op.is_output]
        unique: List[Operand] = []
        for op in outs:
            if op not in unique:
                unique.append(op)
        return unique

    def reads(self) -> List[View]:
        return [v for v in self.lhs.views() + self.rhs.views()
                if not v.operand.is_output]

    def writes(self) -> List[View]:
        return [v for v in self.lhs.views() + self.rhs.views()
                if v.operand.is_output]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.lhs!r} = {self.rhs!r};   (HLAC)"


@dataclass
class ForLoop(Statement):
    """Fixed-trip-count loop at the LA level.

    Because all operand sizes are fixed, loops are unrolled by semantic
    analysis before Stage 1 runs; the class is kept so that the frontend can
    represent the source faithfully.
    """

    var: str
    start: int
    stop: int
    step: int
    body: List[Statement] = field(default_factory=list)

    def is_hlac(self) -> bool:
        return any(s.is_hlac() for s in self.body)

    def iterations(self) -> range:
        return range(self.start, self.stop, self.step)

    def reads(self) -> List[View]:
        return [v for s in self.body for v in s.reads()]

    def writes(self) -> List[View]:
        return [v for s in self.body for v in s.writes()]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"for ({self.var} = {self.start}:{self.step}:{self.stop}) "
                f"{{ {len(self.body)} stmts }}")


@dataclass
class Program:
    """An LA program (or a Stage-1 basic linear algebra program)."""

    name: str
    operands: Dict[str, Operand] = field(default_factory=dict)
    statements: List[Statement] = field(default_factory=list)
    constants: Dict[str, int] = field(default_factory=dict)

    # -- construction -------------------------------------------------------

    def declare(self, operand: Operand) -> Operand:
        """Add an operand declaration; returns the operand for chaining."""
        if operand.name in self.operands:
            raise LASemanticError(f"operand {operand.name!r} declared twice")
        if operand.overwrites is not None:
            if operand.overwrites not in self.operands:
                raise LASemanticError(
                    f"operand {operand.name!r} overwrites undeclared "
                    f"operand {operand.overwrites!r}")
            target = self.operands[operand.overwrites]
            if target.shape != operand.shape:
                raise LASemanticError(
                    f"operand {operand.name!r} ({operand.rows}x{operand.cols})"
                    f" cannot overwrite {target.name!r} "
                    f"({target.rows}x{target.cols}): shapes differ")
        self.operands[operand.name] = operand
        return operand

    def add(self, statement: Statement) -> Statement:
        """Append a statement; returns it for chaining."""
        for op in statement.operands():
            if op.name not in self.operands or self.operands[op.name] is not op:
                raise LASemanticError(
                    f"statement uses operand {op.name!r} that is not declared "
                    f"in program {self.name!r}")
        self.statements.append(statement)
        return statement

    # -- queries ------------------------------------------------------------

    def operand(self, name: str) -> Operand:
        return self.operands[name]

    def inputs(self) -> List[Operand]:
        return [op for op in self.operands.values() if op.is_input]

    def outputs(self) -> List[Operand]:
        return [op for op in self.operands.values() if op.is_output]

    def temporaries(self) -> List[Operand]:
        """Output operands that only exist to hold intermediate values."""
        return [op for op in self.operands.values()
                if op.io is IOType.OUT and op.overwrites is None]

    def hlacs(self) -> List[Statement]:
        return [s for s in self.flat_statements() if s.is_hlac()]

    def is_basic(self) -> bool:
        """True when no HLAC statements remain (Stage-1 output form)."""
        return not self.hlacs()

    def flat_statements(self) -> Iterator[Statement]:
        """Iterate statements with for-loops left intact (not unrolled)."""
        def visit(stmts: Sequence[Statement]) -> Iterator[Statement]:
            for s in stmts:
                if isinstance(s, ForLoop):
                    yield from visit(s.body)
                else:
                    yield s
        return visit(self.statements)

    def unrolled_statements(self) -> List[Statement]:
        """Statements with LA-level for-loops fully unrolled.

        LA loops have fixed bounds; unrolling them is how SLinGen obtains a
        straight-line sequence of sBLACs/HLACs to process.
        """
        result: List[Statement] = []

        def visit(stmts: Sequence[Statement]) -> None:
            for s in stmts:
                if isinstance(s, ForLoop):
                    for _ in s.iterations():
                        visit(s.body)
                else:
                    result.append(s)

        visit(self.statements)
        return result

    # -- storage groups -----------------------------------------------------

    def storage_groups(self) -> Dict[str, str]:
        """Map each operand name to the name of its storage group leader.

        Operands related by ``ow(...)`` chains share one buffer; the leader
        is the root of the chain (the operand that does not overwrite any
        other).
        """
        leader: Dict[str, str] = {}
        for name, op in self.operands.items():
            root = name
            seen = set()
            while self.operands[root].overwrites is not None:
                if root in seen:
                    raise LASemanticError(
                        f"cyclic ow(...) chain involving {name!r}")
                seen.add(root)
                root = self.operands[root].overwrites
            leader[name] = root
        return leader

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Check well-formedness; raises :class:`LASemanticError` on error."""
        written = set()
        for stmt in self.unrolled_statements():
            for view in stmt.reads():
                op = view.operand
                if op.io is IOType.OUT and op.name not in written:
                    # Outputs may be read only after they have been written
                    # (or if they overwrite an input operand).
                    root = self.storage_groups().get(op.name, op.name)
                    if root == op.name or not self.operands[root].is_input:
                        raise LASemanticError(
                            f"output operand {op.name!r} is read before "
                            f"being written")
            for view in stmt.writes():
                if not view.operand.is_output:
                    raise LASemanticError(
                        f"input operand {view.operand.name!r} is written; "
                        f"declare it Out or InOut")
                written.add(view.operand.name)
        for op in self.outputs():
            if op.io is IOType.INOUT:
                continue
        # all checks passed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lines = [f"Program {self.name!r}:"]
        for op in self.operands.values():
            lines.append(f"  {op!r}")
        for stmt in self.statements:
            lines.append(f"  {stmt!r}")
        return "\n".join(lines)
