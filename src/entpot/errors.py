"""Exception types shared across the package."""


class EntpotError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(EntpotError, ValueError):
    """Amplitude vector length does not match 2**n_qubits."""


class DegenerateStateError(EntpotError, ValueError):
    """All-zero amplitude vector; no direction to normalize."""


class NormalizationError(EntpotError, ValueError):
    """Norm too far from 1 under the strict policy."""


class CatalogMissError(EntpotError, LookupError):
    """Unknown (name, variant) pair requested from the state catalog."""


class NonUnitaryError(EntpotError, ValueError):
    """Matrix failed the unitarity check."""


class SubsetError(EntpotError, ValueError):
    """Invalid qubit subset (empty, out of range, or not a proper subset)."""


class ArityError(EntpotError, ValueError):
    """Operation called with an unsupported qubit count."""


class FormatError(EntpotError, ValueError):
    """Malformed serialized state (JSON file or .ket file)."""


class ConfigError(EntpotError, ValueError):
    """Invalid optimizer configuration."""


class KetError(EntpotError):
    """Base for errors in ket expressions; carries a (start, end) source span."""

    def __init__(self, message: str, span: tuple[int, int]):
        super().__init__(f"{message} (at {span[0]}..{span[1]})")
        self.span = span


class KetSyntaxError(KetError, ValueError):
    """Lexing or parsing failure in a ket expression."""


class KetWidthError(KetSyntaxError):
    """Ket literals of different bit widths in one expression, or wider than MAX_QUBITS."""


class KetTypeError(KetError, TypeError):
    """Scalar/state mismatch while evaluating a ket expression."""


class KetEvalError(KetError, ValueError):
    """Arithmetic failure (e.g. division by zero) while evaluating."""
