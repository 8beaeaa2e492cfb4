"""Exception hierarchy.

Two top-level families map onto the CLI exit codes: ConfigRejection (exit 2)
for anything a configuration or parameter check refuses, ProtocolFailure
(exit 3) for errors raised while a protocol or computation is running.
"""


class ThaggError(Exception):
    pass


class ConfigRejection(ThaggError):
    """Configuration or parameter set rejected before any protocol work."""


class ProtocolFailure(ThaggError):
    """A runtime failure inside ring/scheme/protocol operations."""


class ParamsMismatchError(ProtocolFailure):
    """Operands built over different ring parameters."""


class DomainMismatchError(ProtocolFailure):
    """Operands in different evaluation domains (coefficient vs transform)."""


class BoundViolationError(ConfigRejection):
    """A correctness inequality fails; message says which one and by how much."""


class NoPrimesFoundError(ConfigRejection):
    """Prime selection could not satisfy the request."""


class PlaintextRangeError(ProtocolFailure):
    """Plaintext value outside the scheme's message space."""


class CapacityError(ProtocolFailure):
    """Homomorphic addition budget exhausted."""


class EncodingOverflowError(ConfigRejection):
    """Fixed-point encoding would wrap around the plaintext modulus."""


class ShareSetError(ProtocolFailure):
    """A party's contribution missing, duplicated or outside 1..L."""


class SmudgeBoundError(ConfigRejection):
    """Smudging bound too large for the modulus; planner/config mismatch."""


class UnknownRingDegreeError(ConfigRejection):
    """No security table entry for this ring degree."""


class ConfigError(ConfigRejection):
    """Malformed or inconsistent configuration input."""


class WireFormatError(ProtocolFailure):
    """Malformed serialized message, or an element no message can carry."""


class KeystreamError(ProtocolFailure):
    """ChaCha20 unavailable or failing in libcrypto, or a stream read or
    sought past its end."""


class LengthMismatchError(ProtocolFailure):
    """An update, submission, sum or ring batch of the wrong length."""
