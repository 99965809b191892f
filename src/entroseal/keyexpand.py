"""Key expansion: short key to full-length pad.

The main map concatenates the key with the low-order bits of an affine
function of it over GF(2^lambda):

    pad(k) = k || lsb(u * k) xor v

where u, v are public uniform strings. A full-multiplication baseline
(pad = k * r over the full-width field) is included for cost comparison;
it needs a field twice as large for the same pad length, which is where
the affine map's factor-two advantage comes from.
"""

from __future__ import annotations

import enum

from ._record import Record
from .errors import LengthError, ParameterError
from .gf2 import BitPoly, _bitpoly, find_irreducible, gf_mul
from .rng import RandomSource

__all__ = [
    "Mode",
    "ExpansionParams",
    "expand_affine",
    "expand_fullmul",
    "sample_public_randomness",
]


class Mode(enum.Enum):
    CLASSICAL = "classical"
    QUANTUM = "quantum"

    @classmethod
    def parse(cls, mode: "Mode | str") -> "Mode":
        """The mode itself, or the mode whose string value is given."""
        if isinstance(mode, cls):  # every construction parses: keep it cheap
            return mode
        try:
            return cls(mode)
        except ValueError:
            raise ParameterError(f"unknown mode {mode!r}") from None


# The width of each role's bit string, named by an ExpansionParams size.
_WIDTH_OF = {"key": "ell", "u": "lam", "v": "tail_len", "payload": "out_len",
             "r": "out_len", "plaintext": "n"}


class ExpansionParams(Record):
    """Sizes for one expansion instance.

    Classical mode pads an n-bit message, so out_len = n. Quantum mode
    produces a 2n-bit Pauli key string for n qubits, so out_len = 2n. In
    both modes tail_len = out_len - ell is the part of the pad beyond the
    copied key, and the field has degree lam = max(ell, tail_len). n and
    ell are ints; mode accepts the enum or its string value and is stored
    as the enum. The derived sizes out_len, tail_len and lam are computed
    once, at construction, and read as plain attributes; they take no part
    in equality, hash or repr. ``cipher.SchemeParams`` and
    ``cipher.Ciphertext`` extend this record, so either is accepted
    wherever it is.
    """

    _fields = ("n", "ell", "mode")
    __slots__ = _fields + ("out_len", "tail_len", "lam")

    def __init__(self, n: int, ell: int, mode: Mode | str) -> None:
        if isinstance(n, bool) or not isinstance(n, int):
            raise ParameterError(f"n must be an int, got {n!r}")
        if isinstance(ell, bool) or not isinstance(ell, int):
            raise ParameterError(f"ell must be an int, got {ell!r}")
        mode = Mode.parse(mode)
        if n < 1:
            raise ParameterError("n must be >= 1")
        out_len = n if mode is Mode.CLASSICAL else 2 * n
        if not 1 <= ell <= out_len:
            raise ParameterError(
                f"ell must be in [1, {out_len}] for {mode.value} "
                f"mode, got {ell}"
            )
        _set_sizes(self, n, ell, mode, out_len)

    @property
    def expansion(self) -> "ExpansionParams":
        """The sizes alone, as a plain ExpansionParams."""
        return ExpansionParams(self.n, self.ell, self.mode)

    def check_widths(self, **fields: BitPoly) -> None:
        """Raise LengthError unless each bit string, named by its role,
        has that role's width; roles are checked in the order given. This
        is the one width check: what passes it is not checked again."""
        for role, p in fields.items():
            want = getattr(self, _WIDTH_OF[role])
            if p.nbits != want:
                raise LengthError(
                    f"{role} must have {want} bits, got {p.nbits}")

    @staticmethod
    def classical(n: int, ell: int) -> "ExpansionParams":
        return ExpansionParams(n, ell, Mode.CLASSICAL)

    @staticmethod
    def quantum(n: int, ell: int) -> "ExpansionParams":
        return ExpansionParams(n, ell, Mode.QUANTUM)


# Sizes are set on every round trip, so the slots are written through the
# slot descriptors' own setters, as gf2 writes a BitPoly's.
_set_n, _set_ell, _set_mode, _set_out_len, _set_tail_len, _set_lam = (
    getattr(ExpansionParams, name).__set__
    for name in ExpansionParams.__slots__)


def _set_sizes(p: ExpansionParams, n: int, ell: int, mode: Mode,
               out_len: int) -> None:
    """Store checked sizes, and the sizes derived from them, in p."""
    tail_len = out_len - ell
    _set_n(p, n)
    _set_ell(p, ell)
    _set_mode(p, mode)
    _set_out_len(p, out_len)
    _set_tail_len(p, tail_len)
    _set_lam(p, max(ell, tail_len))


def expand_affine(key: BitPoly, u: BitPoly, v: BitPoly,
                  params: ExpansionParams) -> BitPoly:
    """pad = key || (lsb_truncate(u * key, tail_len) xor v).

    The multiplication is in GF(2^lambda) with the key zero-extended to
    lambda bits; the product's tail_len low-order bits are kept. Since
    truncation is linear, adding v after truncating equals embedding v
    low and adding before: lsb(u*k + v) = lsb(u*k) xor v. Past the width
    check, the pad is computed on the coefficient masks and built once.
    """
    params.check_widths(key=key, u=u, v=v)
    tail_len = params.tail_len
    if tail_len == 0:
        return key
    low = gf_mul(u, key, find_irreducible(params.lam)).value
    low &= (1 << tail_len) - 1
    return _bitpoly(key.value | (low ^ v.value) << params.ell, params.out_len)


def expand_fullmul(key: BitPoly, r: BitPoly,
                   params: ExpansionParams) -> BitPoly:
    """Baseline pad = key * r over the full field GF(2^out_len).

    That is GF(2^n) for a classical n-bit message and GF(2^{2n}) for the
    Pauli key string of n qubits.
    """
    params.check_widths(key=key, r=r)
    spec = find_irreducible(params.out_len)
    return gf_mul(key.resize(params.out_len), r, spec)


def sample_public_randomness(params: ExpansionParams,
                             rng: RandomSource) -> tuple[BitPoly, BitPoly]:
    """Fresh uniform (u, v) of lengths lambda and tail_len."""
    return rng.bits(params.lam), rng.bits(params.tail_len)
