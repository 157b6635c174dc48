"""Typed compiler errors carrying structured diagnostics.

``CParseError``, ``RecognizerError`` and ``SemanticError`` are thin
wrappers over a :class:`Diagnostic` so
every failure has a stable code and, where the frontend knows one, a
real source location. ``str(exc)`` keeps the old "line N: message"
shape for compatibility with existing callers and tests.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.compiler.diagnostics import Diagnostic, Severity, SourceLoc


class CompilerError(Exception):
    """Base for typed compiler failures."""

    default_code = "MEA013"

    def __init__(self, message: str, *, loc: Optional[SourceLoc] = None,
                 code: Optional[str] = None,
                 buffers: Sequence[str] = ()) -> None:
        self.diagnostic = Diagnostic(
            code=code or self.default_code, severity=Severity.ERROR,
            message=message, loc=loc, buffers=tuple(buffers))
        prefix = f"{loc}: " if loc is not None else ""
        super().__init__(f"{prefix}{message}")

    @property
    def loc(self) -> Optional[SourceLoc]:
        return self.diagnostic.loc

    @property
    def code(self) -> str:
        return self.diagnostic.code

    @property
    def message(self) -> str:
        return self.diagnostic.message


class InterpError(Exception):
    """Raised on runtime problems in either interpreter."""


class AnalysisRejected(CompilerError):
    """The safety checker proved the program unsafe to run at all."""

    default_code = "MEA001"
