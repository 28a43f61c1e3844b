"""Exception types that callers (and the CLI exit-code map) rely on."""


class SearchExhaustedError(RuntimeError):
    """A randomized search hit its attempt bound without a hit."""


class KeyFileError(ValueError):
    """A key file is malformed, incomplete, or has the wrong role."""


class CiphertextFormatError(ValueError):
    """A ciphertext file or block stream is corrupt or inconsistent."""


class FingerprintMismatchError(ValueError):
    """The ciphertext was produced under a different public key."""


class CapacityError(ValueError):
    """The coset box is too small for the byte codec."""


class AssociatePrimesError(ValueError):
    """alpha and beta lie over one rational prime (associates, or equal norms); keygen draws again."""
