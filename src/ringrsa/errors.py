"""Exception types that callers rely on; cli._EXIT_CODES maps four of them
(and their subclasses) to exit codes 3-6, and the rest, ValueErrors, exit 2."""


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
