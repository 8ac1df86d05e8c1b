"""Exception hierarchy for the mutation engine, and the certificate type.

Every machine-checked claim (a module is valid, a splitting is right, two
constructions are isomorphic, mutation commutes with duality) is stated as a
:class:`Report`; ``Report.require`` turns a failed one into a
:class:`CertificateError`.
"""

from dataclasses import dataclass, field


class QpmutError(Exception):
    """Base class for all engine errors."""


class CompositionError(QpmutError):
    """Paths with mismatched endpoints cannot be concatenated."""


class ContextError(QpmutError):
    """Operands live over different quivers, truncation orders or fields."""


class NotCyclicError(QpmutError):
    """A term that is not a cycle was fed to a potential operation."""


class NotInvertibleError(QpmutError):
    """The linear part of a substitution (or a matrix) is singular."""


class MutationNotDefined(QpmutError):
    """Mutation was requested at a vertex lying on a 2-cycle."""


class TruncationTooSmall(QpmutError):
    """The jet order N is too small for the requested operation."""


class CertificateError(QpmutError):
    """A machine-checked certificate failed verification."""


@dataclass
class Report:
    """A certificate: named checks in the order they ran, plus witness data.

    ``checks`` holds ``(name, passed)`` pairs; a check is named after what it
    asserts.  ``witness`` holds objects that back the claim, such as the
    comparison map of a duality certificate.  ``ok`` and ``failures`` are
    read off the checks, so a report cannot contradict itself.
    """

    name: str
    checks: list[tuple[str, bool]] = field(default_factory=list)
    witness: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)

    @property
    def failures(self) -> list[str]:
        return [name for name, passed in self.checks if not passed]

    def note(self, name: str, passed: bool) -> bool:
        """Record a check; return whether it passed."""
        self.checks.append((name, bool(passed)))
        return passed

    def require(self) -> "Report":
        """Return the report, or raise CertificateError naming the failed
        checks."""
        if not self.ok:
            raise CertificateError(f"{self.name} certificate failed: {self.failures}")
        return self


class ShapeError(QpmutError):
    """Matrix dimensions do not match."""


class SchemaError(QpmutError):
    """A document does not conform to the serialization schema."""


class InvariantError(QpmutError):
    """A parsed or constructed object violates a structural invariant."""
