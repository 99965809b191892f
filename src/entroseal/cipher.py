"""The encryption scheme: parameter derivation, Gen/Enc/Dec, wire format.

Security is entropic: the scheme hides an n-bit plaintext from any
adversary provided the plaintext has at least t bits of min-entropy from
the adversary's point of view. Under that hypothesis an ell-bit key with

    ell = ceil(n - t + 2*log2(1/eps) - 5)      (classical)
    ell = ceil(n - t + 2*log2(1/eps) + 3)      (quantum pad keys)

gives statistical distance at most eps from uniform (trace distance in
the quantum case) for any eps in (0, 1], 2^-k up to k = 1074. The
classical hypothesis t >= 2*log2(1/eps) - 5 is exactly ell <= n, the pad
length; a quantum pad has 2n bits. The scheme itself is a one-time pad
with the pad produced by :func:`entroseal.keyexpand.expand_affine`;
(u, v) travel in the clear inside the ciphertext.
"""

from __future__ import annotations

import math

from ._record import Record
from .errors import (FormatError, LengthError, ParameterError,
                     PreconditionError, WireErrorCode)
from .gf2 import BitPoly
from .keyexpand import (ExpansionParams, Mode, expand_affine,
                        sample_public_randomness)
from .rng import RandomSource

__all__ = [
    "SchemeParams",
    "Ciphertext",
    "derive_key_length",
    "indistinguishability_key_length",
    "gen",
    "encrypt",
    "encrypt_with",
    "decrypt",
    "quantum_keytag",
    "quantum_keytag_with",
    "serialize",
    "deserialize",
    "MAGIC",
    "VERSION",
]

MAGIC = b"ESE1"
VERSION = 0x01

_MODE_BYTE = {Mode.CLASSICAL: 0x00, Mode.QUANTUM: 0x01}
_BYTE_MODE = {v: k for k, v in _MODE_BYTE.items()}

# Key-length formulas are evaluated in floats; results that are within
# this distance of an integer are taken as that integer before the
# ceiling so that exact dyadic inputs never round up spuriously.
_SNAP = 1e-9


def _ceil_snapped(x: float) -> int:
    nearest = round(x)
    if abs(x - nearest) < _SNAP:
        return int(nearest)
    return math.ceil(x)


def _key_length(n: int, t: float, epsilon: float, mode: Mode,
                slack: float) -> int:
    """ceil(n - t + 2*log2(1/eps) + slack), checked to fit the pad."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if not math.isfinite(t):
        raise ParameterError(f"t must be finite, got {t}")
    if not (0.0 < epsilon <= 1.0):
        raise ParameterError(f"epsilon must be in (0, 1], got {epsilon}")
    if mode is Mode.QUANTUM and not -n <= t <= n:
        raise ParameterError(
            f"quantum mode requires -n <= t <= n, got t = {t:.6g}")
    two_log = -2.0 * math.log2(epsilon)
    ell = _ceil_snapped(n - t + two_log + slack)
    if ell < 1:
        raise ParameterError(
            f"derived key length {ell} < 1; the requested (t, epsilon) "
            f"already holds with a trivial key"
        )
    if mode is Mode.CLASSICAL and ell > n:
        raise ParameterError(
            f"classical mode requires t >= 2*log2(1/eps) - 5 = "
            f"{two_log + slack:.6g}, got t = {t:.6g}"
        )
    if ell > 2 * n:
        raise ParameterError(
            f"derived key length {ell} exceeds the pad length {2 * n}; "
            f"no key shorter than the pad achieves this (t, epsilon)"
        )
    return ell


def derive_key_length(n: int, t: float, epsilon: float,
                      mode: Mode | str) -> int:
    """Shortest admissible key length for the target security level.

    The result must land in [1, n] (classical) or [1, 2n] (quantum);
    anything else names the violated bound. mode accepts the enum or its
    string value.
    """
    mode = Mode.parse(mode)
    return _key_length(n, t, epsilon, mode,
                       -5.0 if mode is Mode.CLASSICAL else 3.0)


def indistinguishability_key_length(n: int, t: float, epsilon: float) -> int:
    """Advisory quantum sizing without the +3 slack.

    ceil(n - t + 2*log2(1/eps)) suffices for entropic
    indistinguishability (distinguishing two plaintext states) rather
    than the stronger semantic form; exposed for information only and
    not used by the scheme.
    """
    return _key_length(n, t, epsilon, Mode.QUANTUM, 0.0)


class SchemeParams(Record):
    """Validated scheme parameters; the key length and sizes are derived.

    mode accepts the enum or its string value and is stored as the enum.
    ``expansion``, the sizes for (n, ell, mode) with ell from
    :func:`derive_key_length`, is derived at construction, so bad
    parameters fail there; it takes no part in equality, hash or repr.
    """

    _fields = ("n", "t", "epsilon", "mode")
    __slots__ = _fields + ("expansion",)

    def __init__(self, n: int, t: float, epsilon: float,
                 mode: Mode | str) -> None:
        mode = Mode.parse(mode)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "mode", mode)
        ell = derive_key_length(n, t, epsilon, mode)
        object.__setattr__(self, "expansion", ExpansionParams(n, ell, mode))

    @property
    def ell(self) -> int:
        return self.expansion.ell

    @classmethod
    def derive(cls, n: int, t: float, epsilon: float,
               mode: Mode | str = Mode.CLASSICAL) -> "SchemeParams":
        return cls(n=n, t=t, epsilon=epsilon, mode=mode)


def _expansion_of(params) -> ExpansionParams:
    if isinstance(params, ExpansionParams):
        return params
    return params.expansion


class Ciphertext(Record):
    """(u, v, payload) plus the sizes needed to reconstruct the pad rule.

    Classical payload is the masked message (n bits); quantum payload is
    the 2n-bit Pauli key string for the simulator to apply. ``expansion``
    is derived from (n, ell, mode) once, at construction; equality, hash
    and repr cover the six stored fields only.
    """

    _fields = ("n", "ell", "mode", "u", "v", "payload")
    __slots__ = _fields + ("expansion",)

    def __init__(self, n: int, ell: int, mode: Mode | str, u: BitPoly,
                 v: BitPoly, payload: BitPoly) -> None:
        exp = ExpansionParams(n, ell, mode)
        if u.nbits != exp.lam:
            raise LengthError(f"u must have {exp.lam} bits, got {u.nbits}")
        if v.nbits != exp.tail_len:
            raise LengthError(
                f"v must have {exp.tail_len} bits, got {v.nbits}")
        if payload.nbits != exp.out_len:
            raise LengthError(
                f"payload must have {exp.out_len} bits, got {payload.nbits}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "mode", exp.mode)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "expansion", exp)


def gen(params, rng: RandomSource) -> BitPoly:
    """Fresh uniform ell-bit key."""
    return rng.bits(_expansion_of(params).ell)


def encrypt_with(key: BitPoly, x: BitPoly, params, u: BitPoly,
                 v: BitPoly) -> Ciphertext:
    """Encrypt under caller-chosen public randomness (deterministic)."""
    exp = _expansion_of(params)
    if exp.mode is not Mode.CLASSICAL:
        raise PreconditionError("encrypt applies to classical mode only")
    if x.nbits != exp.n:
        raise LengthError(f"plaintext must have {exp.n} bits, got {x.nbits}")
    pad = expand_affine(key, u, v, exp)
    return Ciphertext(n=exp.n, ell=exp.ell, mode=exp.mode,
                      u=u, v=v, payload=x ^ pad)


def encrypt(key: BitPoly, x: BitPoly, params, rng: RandomSource) -> Ciphertext:
    """Draw fresh (u, v) and mask the plaintext with the expanded pad."""
    exp = _expansion_of(params)
    u, v = sample_public_randomness(exp, rng)
    return encrypt_with(key, x, exp, u, v)


def decrypt(key: BitPoly, c: Ciphertext) -> BitPoly:
    """Strip the pad. A wrong key silently yields a wrong plaintext.

    The scheme carries no integrity tag, so wrong-key use is undetectable
    by design; only structural problems raise.
    """
    if c.mode is not Mode.CLASSICAL:
        raise PreconditionError(
            "quantum key tags are consumed by the simulator, not decrypt")
    exp = c.expansion
    if key.nbits != exp.ell:
        raise LengthError(f"key must have {exp.ell} bits, got {key.nbits}")
    pad = expand_affine(key, c.u, c.v, exp)
    return c.payload ^ pad


def quantum_keytag_with(key: BitPoly, params, u: BitPoly,
                        v: BitPoly) -> Ciphertext:
    """Quantum-mode tag under caller-chosen public randomness."""
    exp = _expansion_of(params)
    if exp.mode is not Mode.QUANTUM:
        raise PreconditionError("key tags require quantum mode")
    beta = expand_affine(key, u, v, exp)
    return Ciphertext(n=exp.n, ell=exp.ell, mode=exp.mode,
                      u=u, v=v, payload=beta)


def quantum_keytag(key: BitPoly, params, rng: RandomSource) -> Ciphertext:
    """(u, v, beta): the 2n-bit Pauli key string plus its public inputs."""
    exp = _expansion_of(params)
    u, v = sample_public_randomness(exp, rng)
    return quantum_keytag_with(key, exp, u, v)


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------
#
# magic "ESE1" | version 0x01 | mode byte | n (8 LE) | ell (8 LE)
#   | u | v | payload
#
# Each field is packed little-endian: bit i of byte j holds the
# coefficient of x^{8j+i}. Trailing pad bits in the last byte of each
# field are zero. lambda, tail_len, and the field modulus are derived
# from (n, ell, mode), never transmitted.

_HEADER_LEN = 4 + 1 + 1 + 8 + 8


def serialize(c: Ciphertext) -> bytes:
    out = bytearray()
    out += MAGIC
    out.append(VERSION)
    out.append(_MODE_BYTE[c.mode])
    out += c.n.to_bytes(8, "little")
    out += c.ell.to_bytes(8, "little")
    out += c.u.to_bytes()
    out += c.v.to_bytes()
    out += c.payload.to_bytes()
    return bytes(out)


def deserialize(data: bytes) -> Ciphertext:
    """Parse and validate; every malformed input maps to a FormatError."""
    if len(data) < 4:
        raise FormatError(WireErrorCode.TRUNCATED,
                          f"{len(data)} bytes is shorter than the magic")
    if data[:4] != MAGIC:
        raise FormatError(WireErrorCode.BAD_MAGIC,
                          f"magic {data[:4]!r} != {MAGIC!r}")
    if len(data) < 5:
        raise FormatError(WireErrorCode.TRUNCATED, "missing version byte")
    if data[4] != VERSION:
        raise FormatError(WireErrorCode.BAD_VERSION,
                          f"version {data[4]:#04x}, expected {VERSION:#04x}")
    if len(data) < 6:
        raise FormatError(WireErrorCode.TRUNCATED, "missing mode byte")
    if data[5] not in _BYTE_MODE:
        raise FormatError(WireErrorCode.BAD_MODE,
                          f"mode byte {data[5]:#04x} is not defined")
    mode = _BYTE_MODE[data[5]]
    if len(data) < _HEADER_LEN:
        raise FormatError(WireErrorCode.TRUNCATED,
                          f"{len(data)} bytes is shorter than the "
                          f"{_HEADER_LEN}-byte header")
    n = int.from_bytes(data[6:14], "little")
    ell = int.from_bytes(data[14:22], "little")
    try:
        exp = ExpansionParams(n, ell, mode)
    except ParameterError as exc:
        raise FormatError(WireErrorCode.BAD_PARAMS,
                          f"(n={n}, ell={ell}): {exc}") from exc
    widths = (("u", exp.lam), ("v", exp.tail_len), ("payload", exp.out_len))
    expected = _HEADER_LEN + sum((nbits + 7) // 8 for _, nbits in widths)
    if len(data) < expected:
        raise FormatError(WireErrorCode.TRUNCATED,
                          f"need {expected} bytes for (n={n}, ell={ell}), "
                          f"got {len(data)}")
    if len(data) > expected:
        raise FormatError(WireErrorCode.LENGTH_MISMATCH,
                          f"need exactly {expected} bytes for "
                          f"(n={n}, ell={ell}), got {len(data)}")
    pos = _HEADER_LEN
    fields = []
    for name, nbits in widths:
        nbytes = (nbits + 7) // 8
        raw = data[pos:pos + nbytes]
        pos += nbytes
        try:
            fields.append(BitPoly.from_bytes(raw, nbits))
        except LengthError as exc:
            raise FormatError(
                WireErrorCode.NONZERO_PADDING,
                f"pad bits of field {name} are not zero") from exc
    u, v, payload = fields
    return Ciphertext(n=n, ell=ell, mode=mode, u=u, v=v, payload=payload)
