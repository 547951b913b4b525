class GuardError(RuntimeError):
    """Raised when a desk-scale guard refuses the requested problem size."""


class EngineError(RuntimeError):
    """Raised when a negotiation engine runs past its proven offer bound."""
