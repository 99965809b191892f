"""Entropically secure encryption with affine key expansion over GF(2^n).

An n-bit plaintext with at least t bits of min-entropy can be hidden, to
statistical distance epsilon, under a key much shorter than n. The pad
is key || lsb(u * key) xor v over a binary field of degree
max(ell, pad_len - ell), roughly half the size a full-multiplication
pad would need, which halves the AND-gate cost of expansion.

The package bundles the scheme (``cipher``), the expansion map and its
full-width baseline (``keyexpand``), binary-field arithmetic with exact
gate-count models (``gf2``),
exact classical verification (``statlab``), a density-matrix lab for the
quantum claims (``qlab``), the ``entroseal verify`` suites built on them
(``verify``), cost benchmarks (``bench``), and a CLI (``cli``).
"""

from .cipher import (Ciphertext, SchemeParams, decrypt, derive_key_length,
                     deserialize, encrypt, gen, indistinguishability_key_length,
                     quantum_keytag, serialize)
from .errors import (BudgetError, ConfigurationError, DominationError,
                     EntropyError, EntrosealError, FormatError, LengthError,
                     ParameterError, PreconditionError, WireErrorCode)
from .gf2 import Backend, BitPoly, FieldSpec, OpCount, find_irreducible
from .keyexpand import ExpansionParams, Mode, expand_affine
from .rng import RandomSource

__version__ = "0.1.0"

__all__ = [
    "Backend",
    "BitPoly",
    "BudgetError",
    "Ciphertext",
    "ConfigurationError",
    "DominationError",
    "EntropyError",
    "EntrosealError",
    "ExpansionParams",
    "FieldSpec",
    "FormatError",
    "LengthError",
    "Mode",
    "OpCount",
    "ParameterError",
    "PreconditionError",
    "RandomSource",
    "SchemeParams",
    "WireErrorCode",
    "decrypt",
    "derive_key_length",
    "deserialize",
    "encrypt",
    "expand_affine",
    "find_irreducible",
    "gen",
    "indistinguishability_key_length",
    "quantum_keytag",
    "serialize",
    "__version__",
]
