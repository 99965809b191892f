"""Scheme-level tests: key-length derivation, Gen/Enc/Dec behaviour, and
the quantum key-tag path."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroseal.bench import Method, count_expansion
from entroseal.cipher import (
    Ciphertext,
    SchemeParams,
    decrypt,
    derive_key_length,
    deserialize,
    encrypt,
    encrypt_with,
    gen,
    indistinguishability_key_length,
    quantum_keytag,
    quantum_keytag_with,
    serialize,
)
from entroseal.errors import LengthError, ParameterError, PreconditionError
from entroseal.gf2 import Backend, BitPoly
from entroseal.keyexpand import (ExpansionParams, Mode, expand_affine,
                                 expand_fullmul)
from entroseal.rng import RandomSource


class TestDeriveKeyLength:
    def test_classical_reference_instance(self):
        # n - t + 2 log2(1/eps) - 5 = 128 - 64 + 64 - 5
        assert derive_key_length(128, 64, 2.0 ** -32, Mode.CLASSICAL) == 123

    def test_quantum_reference_instance(self):
        # n - t + 2 log2(1/eps) + 3 = 128 - 0 + 20 + 3
        assert derive_key_length(128, 0, 2.0 ** -10, Mode.QUANTUM) == 151

    def test_advisory_reference_instance(self):
        assert indistinguishability_key_length(128, 0, 2.0 ** -10) == 148

    def test_dyadic_epsilon_never_rounds_up(self):
        # the formula lands exactly on an integer; float noise must not
        # push the ceiling one higher
        assert derive_key_length(8, 3, 0.25, Mode.CLASSICAL) == 4
        for k in range(3, 28):  # t = 50 >= 2k - 5 keeps the hypothesis valid
            ell = derive_key_length(100, 50, 2.0 ** -k, Mode.CLASSICAL)
            assert ell == 100 - 50 + 2 * k - 5

    @pytest.mark.parametrize("mode, want", [(Mode.CLASSICAL, 2124),
                                            (Mode.QUANTUM, 2132)])
    def test_a_thousandth_above_an_integer_rounds_up(self, mode, want):
        # 4096 - 2047.9995 + 2*40 - 5 = 2123.0005, and + 3 = 2131.0005 in
        # quantum mode: the ceiling goes up to the next integer, however
        # close the value lies above the one below
        assert derive_key_length(4096, 2047.9995, 2 ** -40, mode) == want

    def test_non_dyadic_epsilon_ceils(self):
        # 2 log2(10) = 6.6438...; 16 - 8 + 6.6438 - 5 = 9.6438 -> 10
        assert derive_key_length(16, 8, 0.1, Mode.CLASSICAL) == 10

    def test_classical_hypothesis_floor_on_t(self):
        with pytest.raises(ParameterError, match="2\\*log2"):
            derive_key_length(64, 10, 2.0 ** -10, Mode.CLASSICAL)
        # boundary t = 2 log2(1/eps) - 5 itself is admissible
        assert derive_key_length(64, 15, 2.0 ** -10, Mode.CLASSICAL) == 64

    def test_classical_floor_refuses_a_key_one_bit_longer_than_n(self):
        # 100 - 14 + 2*10 - 5 = 101 = n + 1: the classical key may not
        # exceed the message, not even by one bit
        with pytest.raises(ParameterError, match="2\\*log2"):
            derive_key_length(100, 14, 2.0 ** -10, "classical")
        assert derive_key_length(100, 15, 2.0 ** -10, "classical") == 100

    def test_key_longer_than_pad_is_an_error(self):
        # classical mode cannot reach this branch: t >= 2 log2(1/eps) - 5
        # already forces ell <= n, so only quantum sizing can overflow
        with pytest.raises(ParameterError, match="exceeds the pad"):
            derive_key_length(8, -8, 1.0, Mode.QUANTUM)
        with pytest.raises(ParameterError, match="exceeds the pad"):
            derive_key_length(16, 0, 2.0 ** -8, Mode.QUANTUM)

    def test_trivial_key_is_an_error(self):
        with pytest.raises(ParameterError, match="trivial"):
            derive_key_length(8, 8, 0.25, Mode.CLASSICAL)

    def test_quantum_t_range(self):
        with pytest.raises(ParameterError, match="-n <= t <= n"):
            derive_key_length(8, 9, 0.5, Mode.QUANTUM)
        assert derive_key_length(8, -3, 1.0, Mode.QUANTUM) == 14

    def test_epsilon_validation(self):
        for eps in (0.0, -0.5, 1.5):
            with pytest.raises(ParameterError, match="epsilon"):
                derive_key_length(8, 4, eps, Mode.CLASSICAL)
        with pytest.raises(ParameterError, match="n must be"):
            derive_key_length(0, 0, 0.5, Mode.CLASSICAL)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("mode", list(Mode))
    def test_non_finite_t_is_a_parameter_error(self, t, mode):
        with pytest.raises(ParameterError, match="t must be finite"):
            derive_key_length(64, t, 2.0 ** -5, mode)
        with pytest.raises(ParameterError, match="t must be finite"):
            SchemeParams.derive(64, t, 2.0 ** -5, mode)
        if mode is Mode.QUANTUM:
            with pytest.raises(ParameterError, match="t must be finite"):
                indistinguishability_key_length(64, t, 2.0 ** -5)

    def test_monotone_in_t_and_epsilon(self):
        prev = None
        for t in range(15, 60):
            ell = derive_key_length(64, t, 2.0 ** -10, Mode.CLASSICAL)
            if prev is not None:
                assert ell <= prev
            prev = ell
        prev = None
        for k in range(3, 20):
            ell = derive_key_length(64, 40, 2.0 ** -k, Mode.CLASSICAL)
            if prev is not None:
                assert ell >= prev
            prev = ell

    def test_epsilon_below_2_to_the_minus_1024(self):
        # 1/eps overflows a float below 2^-1024; -log2(eps) stays finite
        assert derive_key_length(2000, 1000, 2.0 ** -1074, "quantum") == 3151
        assert indistinguishability_key_length(2000, 1000, 2.0 ** -1074) == 3148
        assert SchemeParams.derive(2000, 1000, 2.0 ** -1074, "quantum").ell == 3151
        # 2 log2(1e320) - 5 = 2121.3..., so t = 4000 clears the floor
        assert derive_key_length(5000, 4000, 1e-320, "classical") == 3122
        with pytest.raises(ParameterError, match="= 2143, got t = 1000"):
            derive_key_length(5000, 1000, 2.0 ** -1074, "classical")

    @pytest.mark.parametrize("n", [64.5, 64.0, True])
    def test_n_must_be_an_int(self, n):
        for sizing in (lambda: derive_key_length(n, 1.0, 0.5, "quantum"),
                       lambda: indistinguishability_key_length(n, 1.0, 0.5),
                       lambda: SchemeParams(n, 1.0, 0.5, "quantum")):
            with pytest.raises(ParameterError, match="n must be an int"):
                sizing()

    @pytest.mark.parametrize("n,t", [(10 ** 400, 1.0), (64, 10 ** 400),
                                     (64, -10 ** 400), (10 ** 308, -1.7e308)],
                             ids=["n", "t", "minus-t", "n-t"])
    def test_sizes_past_float_range_are_parameter_errors(self, n, t):
        # each used to escape as a bare OverflowError
        with pytest.raises(ParameterError, match="within float range"):
            derive_key_length(n, t, 0.5, "classical")
        with pytest.raises(ParameterError):
            indistinguishability_key_length(n, t, 0.5)

    def test_quantum_exceeds_advisory_by_three(self):
        for n, t, k in [(64, 0, 5), (64, 32, 8), (128, -16, 4), (32, 10, 3)]:
            strict = derive_key_length(n, t, 2.0 ** -k, Mode.QUANTUM)
            advisory = indistinguishability_key_length(n, t, 2.0 ** -k)
            assert strict == advisory + 3


@given(n=st.integers(1, 10 ** 6), t=st.floats(), epsilon=st.floats(),
       mode=st.sampled_from(list(Mode)))
@settings(max_examples=300, deadline=None)
def test_sizing_is_total(n, t, epsilon, mode):
    """Any float t and epsilon give a key length in [1, pad] or a
    ParameterError, never another exception."""
    out_len = n if mode is Mode.CLASSICAL else 2 * n
    sizings = [(lambda: derive_key_length(n, t, epsilon, mode), out_len),
               (lambda: SchemeParams(n, t, epsilon, mode).ell, out_len),
               (lambda: indistinguishability_key_length(n, t, epsilon), 2 * n)]
    for sizing, pad in sizings:
        try:
            ell = sizing()
        except ParameterError:
            continue
        assert type(ell) is int and 1 <= ell <= pad


class TestSchemeParams:
    def test_derive_roundtrip(self):
        p = SchemeParams.derive(128, 64, 2.0 ** -32)
        assert p.ell == 123
        assert p.mode is Mode.CLASSICAL
        assert p.expansion == ExpansionParams.classical(128, 123)
        q = SchemeParams.derive(16, 0, 2.0 ** -5, Mode.QUANTUM)
        assert q.ell == 29
        assert q.expansion == ExpansionParams.quantum(16, 29)

    def test_mode_accepts_its_string_value(self):
        p = SchemeParams.derive(128, 64, 2.0 ** -32, mode="classical")
        assert p.mode is Mode.CLASSICAL
        q = SchemeParams.derive(16, 0, 2.0 ** -5, mode="quantum")
        assert q.mode is Mode.QUANTUM
        with pytest.raises(ParameterError, match="unknown mode"):
            SchemeParams.derive(16, 0, 2.0 ** -5, mode="sideways")
        with pytest.raises(ParameterError, match="unknown mode"):
            derive_key_length(16, 0, 2.0 ** -5, "sideways")

    def test_sizes_are_derived_from_four_fields(self):
        for n, t, k, mode in [(128, 64, 32, Mode.CLASSICAL),
                              (16, 0, 5, Mode.QUANTUM)]:
            p = SchemeParams(n, t, 2.0 ** -k, mode)
            assert p == SchemeParams.derive(n, t, 2.0 ** -k, mode)
            ell = derive_key_length(n, t, 2.0 ** -k, mode)
            assert p.ell == ell
            assert p.expansion == ExpansionParams(n, ell, mode)
        with pytest.raises(ParameterError, match="finite"):
            SchemeParams(n=128, t=math.nan, epsilon=2.0 ** -32,
                         mode=Mode.CLASSICAL)

    def test_constructor_parses_a_string_mode(self):
        p = SchemeParams(16, 8, 2.0 ** -5, "classical")
        assert p == SchemeParams(16, 8, 2.0 ** -5, Mode.CLASSICAL)
        assert p == SchemeParams.derive(16, 8, 2.0 ** -5, "classical")
        assert p.mode is Mode.CLASSICAL
        assert p.ell == 13
        assert (p.expansion.out_len, p.expansion.lam) == (16, 13)
        with pytest.raises(ParameterError, match="unknown mode"):
            SchemeParams(16, 8, 2.0 ** -5, "bogus")


def test_gen_draws_ell_bits():
    exp = ExpansionParams.classical(16, 9)
    key = gen(exp, RandomSource(3))
    assert key.nbits == 9
    assert gen(exp, RandomSource(3)) == key


class TestEncryptDecrypt:
    @pytest.mark.parametrize("n,ell", [(1, 1), (4, 1), (4, 4), (8, 3),
                                       (8, 8), (16, 9), (64, 23)])
    def test_roundtrip(self, n, ell):
        exp = ExpansionParams.classical(n, ell)
        rng = RandomSource(n * 100 + ell)
        for _ in range(5):
            key = gen(exp, rng)
            x = rng.bits(n)
            c = encrypt(key, x, exp, rng)
            assert decrypt(key, c) == x

    def test_encrypt_with_is_deterministic(self):
        exp = ExpansionParams.classical(12, 5)
        key = BitPoly(0b10110, 5)
        x = BitPoly(0xABC, 12)
        u = BitPoly(0x41, 7)
        v = BitPoly(0x55, 7)
        c1 = encrypt_with(key, x, exp, u, v)
        c2 = encrypt_with(key, x, exp, u, v)
        assert c1 == c2
        assert (c1.u, c1.v) == (u, v)
        assert decrypt(key, c1) == x

    def test_payload_is_plaintext_xor_pad(self):
        exp = ExpansionParams.classical(16, 9)
        key, u, v = BitPoly(0x147, 9), BitPoly(0xC, 9), BitPoly(0x5E, 7)
        x = BitPoly(0x1C80, 16)
        c = encrypt_with(key, x, exp, u, v)
        pad = expand_affine(key, u, v, exp)
        assert c.payload == x ^ pad

    def test_wrong_key_always_misdecrypts(self):
        # the pad echoes the key in its low bits, so two distinct keys can
        # never produce the same pad; decryption is silent but wrong
        exp = ExpansionParams.classical(8, 4)
        rng = RandomSource(11)
        key = gen(exp, rng)
        x = rng.bits(8)
        c = encrypt(key, x, exp, rng)
        for other in range(16):
            kp = BitPoly(other, 4)
            if kp == key:
                continue
            assert decrypt(kp, c) != x

    def test_bit_flip_malleability(self):
        # no integrity tag: flipping payload bit i flips plaintext bit i
        exp = ExpansionParams.classical(8, 3)
        rng = RandomSource(13)
        key = gen(exp, rng)
        x = rng.bits(8)
        c = encrypt(key, x, exp, rng)
        for i in range(8):
            tampered = Ciphertext(
                n=c.n, ell=c.ell, mode=c.mode, u=c.u, v=c.v,
                payload=c.payload ^ BitPoly(1 << i, 8))
            assert decrypt(key, tampered) == x ^ BitPoly(1 << i, 8)

    def test_scheme_params_accepted_in_place_of_expansion(self):
        p = SchemeParams.derive(16, 8, 2.0 ** -4)
        rng = RandomSource(17)
        key = gen(p, rng)
        assert key.nbits == p.ell
        x = rng.bits(16)
        c = encrypt(key, x, p, rng)
        assert decrypt(key, c) == x

    def test_scheme_params_and_ciphertexts_are_expansion_params(self):
        p = SchemeParams.derive(16, 8, 2.0 ** -4)
        rng = RandomSource(31)
        key = gen(p, rng)
        c = encrypt(key, rng.bits(16), p, rng)
        exp = ExpansionParams.classical(16, p.ell)
        assert (p.expansion, c.expansion) == (exp, exp)
        assert expand_affine(key, c.u, c.v, c) == expand_affine(
            key, c.u, c.v, exp)
        r = rng.bits(16)
        assert expand_fullmul(key, r, p) == expand_fullmul(key, r, exp)
        for sizes in (p, c):
            for method in (Method.AFFINE, Method.FULLMUL_CLASSICAL):
                assert count_expansion(method, sizes, Backend.KARATSUBA) == \
                    count_expansion(method, exp, Backend.KARATSUBA)

    def test_plaintext_length_checked(self):
        exp = ExpansionParams.classical(8, 4)
        with pytest.raises(LengthError):
            encrypt(BitPoly(0, 4), BitPoly(0, 7), exp, RandomSource(1))

    def test_key_length_checked_on_decrypt(self):
        exp = ExpansionParams.classical(8, 4)
        rng = RandomSource(19)
        c = encrypt(gen(exp, rng), rng.bits(8), exp, rng)
        with pytest.raises(LengthError):
            decrypt(BitPoly(0, 5), c)

    def test_quantum_sizes_rejected(self):
        qexp = ExpansionParams.quantum(4, 3)
        rng = RandomSource(23)
        with pytest.raises(PreconditionError):
            encrypt(BitPoly(0, 3), BitPoly(0, 4), qexp, rng)
        tag = quantum_keytag(gen(qexp, rng), qexp, rng)
        with pytest.raises(PreconditionError):
            decrypt(BitPoly(0, 3), tag)


class TestQuantumKeytag:
    def test_payload_is_the_expanded_key(self):
        exp = ExpansionParams.quantum(4, 3)
        rng = RandomSource(29)
        key = gen(exp, rng)
        tag = quantum_keytag(key, exp, rng)
        assert tag.mode is Mode.QUANTUM
        assert tag.payload.nbits == 8
        assert tag.payload == expand_affine(key, tag.u, tag.v, exp)

    def test_keytag_with_is_deterministic(self):
        exp = ExpansionParams.quantum(3, 2)
        key = BitPoly(0b10, 2)
        u = BitPoly(0b1011, 4)
        v = BitPoly(0b0110, 4)
        assert quantum_keytag_with(key, exp, u, v) == quantum_keytag_with(
            key, exp, u, v)

    def test_classical_sizes_rejected(self):
        cexp = ExpansionParams.classical(8, 4)
        with pytest.raises(PreconditionError):
            quantum_keytag(BitPoly(0, 4), cexp, RandomSource(1))


class TestCiphertextValidation:
    def test_field_widths_enforced(self):
        good = dict(n=16, ell=9, mode=Mode.CLASSICAL, u=BitPoly(0, 9),
                    v=BitPoly(0, 7), payload=BitPoly(0, 16))
        Ciphertext(**good)
        with pytest.raises(LengthError):
            Ciphertext(**{**good, "u": BitPoly(0, 8)})
        with pytest.raises(LengthError):
            Ciphertext(**{**good, "v": BitPoly(0, 6)})
        with pytest.raises(LengthError):
            Ciphertext(**{**good, "payload": BitPoly(0, 15)})

    def test_expansion_property(self):
        c = Ciphertext(n=16, ell=9, mode=Mode.CLASSICAL, u=BitPoly(0, 9),
                       v=BitPoly(0, 7), payload=BitPoly(0, 16))
        assert c.expansion == ExpansionParams.classical(16, 9)

    def test_string_mode_is_parsed_at_construction(self):
        fields = dict(n=16, ell=9, u=BitPoly(0, 9), v=BitPoly(0, 7),
                      payload=BitPoly(0, 16))
        c = Ciphertext(mode="classical", **fields)
        assert c == Ciphertext(mode=Mode.CLASSICAL, **fields)
        assert deserialize(serialize(c)) == c
        with pytest.raises(ParameterError, match="unknown mode"):
            Ciphertext(mode="bogus", **fields)


# classical(16, 10): key 10 bits, u lam = 10, v tail_len = 6, payload and
# r out_len = 16, plaintext n = 16; each case is one bit short or long.
_EXP = ExpansionParams.classical(16, 10)
_KEY, _U, _V, _X = (BitPoly(0, 10), BitPoly(0, 10), BitPoly(0, 6),
                    BitPoly(0, 16))


def _ciphertext_with(**fields):
    good = dict(n=16, ell=10, mode=Mode.CLASSICAL, u=_U, v=_V, payload=_X)
    return Ciphertext(**{**good, **fields})


@pytest.mark.parametrize("call,text", [
    (lambda: expand_affine(BitPoly(0, 9), _U, _V, _EXP),
     "key must have 10 bits, got 9"),
    (lambda: expand_affine(_KEY, BitPoly(0, 11), _V, _EXP),
     "u must have 10 bits, got 11"),
    (lambda: expand_affine(_KEY, _U, BitPoly(0, 5), _EXP),
     "v must have 6 bits, got 5"),
    (lambda: expand_fullmul(BitPoly(0, 11), _X, _EXP),
     "key must have 10 bits, got 11"),
    (lambda: expand_fullmul(_KEY, BitPoly(0, 15), _EXP),
     "r must have 16 bits, got 15"),
    (lambda: _ciphertext_with(u=BitPoly(0, 9)), "u must have 10 bits, got 9"),
    (lambda: _ciphertext_with(v=BitPoly(0, 7)), "v must have 6 bits, got 7"),
    (lambda: _ciphertext_with(payload=BitPoly(0, 15)),
     "payload must have 16 bits, got 15"),
    (lambda: encrypt_with(_KEY, BitPoly(0, 17), _EXP, _U, _V),
     "plaintext must have 16 bits, got 17"),
    (lambda: decrypt(BitPoly(0, 9), _ciphertext_with()),
     "key must have 10 bits, got 9"),
], ids=["affine-key", "affine-u", "affine-v", "fullmul-key", "fullmul-r",
        "ciphertext-u", "ciphertext-v", "ciphertext-payload",
        "encrypt-plaintext", "decrypt-key"])
def test_every_field_width_is_checked_with_one_message(call, text):
    with pytest.raises(LengthError) as info:
        call()
    assert str(info.value) == text
