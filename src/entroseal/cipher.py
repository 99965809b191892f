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

from .errors import (FormatError, LengthError, ParameterError,
                     PreconditionError, WireErrorCode)
from .gf2 import BitPoly, _bitpoly
from .keyexpand import (ExpansionParams, Mode, _set_sizes, expand_affine,
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
    if isinstance(n, bool) or not isinstance(n, int):
        raise ParameterError(f"n must be an int, got {n!r}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    try:
        if not math.isfinite(t):
            raise ParameterError(f"t must be finite, got {t}")
        if not (0.0 < epsilon <= 1.0):
            raise ParameterError(f"epsilon must be in (0, 1], got {epsilon}")
        if mode is Mode.QUANTUM and not -n <= t <= n:
            raise ParameterError(
                f"quantum mode requires -n <= t <= n, got t = {t:.6g}")
        two_log = -2.0 * math.log2(epsilon)
        ell = _ceil_snapped(n - t + two_log + slack)
    except OverflowError:  # the formula is evaluated in floats
        raise ParameterError("n, t and n - t + 2*log2(1/eps) must lie "
                             "within float range") from None
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


class SchemeParams(ExpansionParams):
    """Validated scheme parameters: the sizes of (n, ell, mode), ell derived.

    ell comes from :func:`derive_key_length` at construction, so bad
    parameters fail there. t and epsilon are stored beside the inherited
    sizes; equality, hash and repr cover (n, t, epsilon, mode). mode
    accepts the enum or its string value and is stored as the enum.
    """

    _fields = ("n", "t", "epsilon", "mode")
    __slots__ = ("t", "epsilon")

    def __init__(self, n: int, t: float, epsilon: float,
                 mode: Mode | str) -> None:
        mode = Mode.parse(mode)
        super().__init__(n, derive_key_length(n, t, epsilon, mode), mode)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "epsilon", epsilon)

    @classmethod
    def derive(cls, n: int, t: float, epsilon: float,
               mode: Mode | str = Mode.CLASSICAL) -> "SchemeParams":
        return cls(n=n, t=t, epsilon=epsilon, mode=mode)


class Ciphertext(ExpansionParams):
    """(u, v, payload) with the sizes (n, ell, mode) that fix their widths.

    Classical payload is the masked message (n bits); quantum payload is
    the 2n-bit Pauli key string for the simulator to apply. The inherited
    sizes give the pad rule; equality, hash and repr cover the six stored
    fields.
    """

    _fields = ("n", "ell", "mode", "u", "v", "payload")
    __slots__ = ("u", "v", "payload")

    def __init__(self, n: int, ell: int, mode: Mode | str, u: BitPoly,
                 v: BitPoly, payload: BitPoly) -> None:
        super().__init__(n, ell, mode)
        self.check_widths(u=u, v=v, payload=payload)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "payload", payload)

    @classmethod
    def _of_sized(cls, sizes: ExpansionParams, u: BitPoly, v: BitPoly,
                  payload: BitPoly) -> "Ciphertext":
        """The ciphertext of checked sizes and of fields that already have
        their widths, as :func:`deserialize` cuts them and
        :func:`encrypt_with` and :func:`quantum_keytag_with` compute them:
        nothing is checked again."""
        c = object.__new__(cls)
        _set_sizes(c, sizes.n, sizes.ell, sizes.mode, sizes.out_len)
        object.__setattr__(c, "u", u)
        object.__setattr__(c, "v", v)
        object.__setattr__(c, "payload", payload)
        return c


def gen(params: ExpansionParams, rng: RandomSource) -> BitPoly:
    """Fresh uniform ell-bit key."""
    return rng.bits(params.ell)


def encrypt_with(key: BitPoly, x: BitPoly, params: ExpansionParams,
                 u: BitPoly, v: BitPoly) -> Ciphertext:
    """Encrypt under caller-chosen public randomness (deterministic)."""
    if params.mode is not Mode.CLASSICAL:
        raise PreconditionError("encrypt applies to classical mode only")
    params.check_widths(plaintext=x)
    pad = expand_affine(key, u, v, params)
    return Ciphertext._of_sized(params, u, v,
                                _bitpoly(x.value ^ pad.value, params.n))


def encrypt(key: BitPoly, x: BitPoly, params: ExpansionParams,
            rng: RandomSource) -> Ciphertext:
    """Draw fresh (u, v) and mask the plaintext with the expanded pad."""
    u, v = sample_public_randomness(params, rng)
    return encrypt_with(key, x, params, u, v)


def decrypt(key: BitPoly, c: Ciphertext) -> BitPoly:
    """Strip the pad. A wrong key silently yields a wrong plaintext.

    The scheme carries no integrity tag, so wrong-key use is undetectable
    by design; only structural problems raise.
    """
    if c.mode is not Mode.CLASSICAL:
        raise PreconditionError(
            "quantum key tags are consumed by the simulator, not decrypt")
    pad = expand_affine(key, c.u, c.v, c)
    return _bitpoly(c.payload.value ^ pad.value, c.n)


def quantum_keytag_with(key: BitPoly, params: ExpansionParams, u: BitPoly,
                        v: BitPoly) -> Ciphertext:
    """Quantum-mode tag under caller-chosen public randomness."""
    if params.mode is not Mode.QUANTUM:
        raise PreconditionError("key tags require quantum mode")
    beta = expand_affine(key, u, v, params)
    return Ciphertext._of_sized(params, u, v, beta)


def quantum_keytag(key: BitPoly, params: ExpansionParams,
                   rng: RandomSource) -> Ciphertext:
    """(u, v, beta): the 2n-bit Pauli key string plus its public inputs."""
    u, v = sample_public_randomness(params, rng)
    return quantum_keytag_with(key, params, u, v)


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
    return b"".join((MAGIC, bytes((VERSION, _MODE_BYTE[c.mode])),
                     c.n.to_bytes(8, "little"), c.ell.to_bytes(8, "little"),
                     c.u.to_bytes(), c.v.to_bytes(), c.payload.to_bytes()))


def deserialize(data: bytes) -> Ciphertext:
    """Parse and validate; every malformed input maps to a FormatError.

    (n, ell, mode) is validated once, by the sizes that cut the fields,
    and those sizes become the ciphertext's own.
    """
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
    return Ciphertext._of_sized(exp, *fields)
