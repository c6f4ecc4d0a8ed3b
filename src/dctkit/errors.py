"""Exception types shared across the package."""


class DctError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(DctError, ValueError):
    """Operands have incompatible shapes or live over different fields or algebras."""


class NotAdmissible(DctError, ValueError):
    """The relation ideal does not contain all paths of the claimed length.

    Carries a witness path (as a tuple of arrow names) when one exists.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class InvalidModule(DctError, ValueError):
    """Arrow matrices violate a relation or have wrong shapes."""


class InvalidMorphism(DctError, ValueError):
    """Vertex components fail to intertwine the arrows, or the modules lie over two algebras."""


class InvalidSubmodule(DctError, ValueError):
    """A subspace is not closed under the required action."""


class CapExceeded(DctError, RuntimeError):
    """A computation would exceed its configured budget."""

    @classmethod
    def over(cls, operation: str, dims, needed: str, allowed, knob: str = "--cap"):
        """A refusal naming what ran, on what, what it needed, the cap and what raises it."""
        on = "" if dims is None else " on dimension vector (" + ",".join(map(str, dims)) + ")"
        return cls(f"{operation}{on} needs {needed}, over the cap {allowed}; raise {knob}")


class VerificationFailed(DctError, RuntimeError):
    """A mandatory post-hoc check on a constructed object failed.

    Raised instead of returning an unproven result; the message carries
    the finding.
    """


class WorkspaceError(DctError, ValueError):
    """A workspace file failed validation."""
