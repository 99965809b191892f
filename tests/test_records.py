"""Value semantics of the frozen records: immutability, equality and hash
over the stored fields, keyword construction, and the exact repr."""

import pickle
from fractions import Fraction

import pytest

from entroseal._record import Check
from entroseal.cipher import Ciphertext, SchemeParams
from entroseal.gf2 import BitPoly, FieldSpec, OpCount, find_irreducible
from entroseal.keyexpand import ExpansionParams, Mode


def _ciphertext():
    return Ciphertext(n=8, ell=3, mode=Mode.CLASSICAL, u=BitPoly(1, 5),
                      v=BitPoly(2, 5), payload=BitPoly(3, 8))


# (build twice, an attribute to assign, exact repr)
RECORDS = {
    "BitPoly": (lambda: BitPoly(value=5, nbits=4), "value",
                "BitPoly(0x5, nbits=4)"),
    "OpCount": (lambda: OpCount(ands=1, xors=3), "ands",
                "OpCount(ands=1, xors=3)"),
    "FieldSpec": (lambda: FieldSpec(lam=8, modulus=BitPoly(0x11b, 9),
                                    reduction_exponents=(4, 3, 1, 0)),
                  "lam",
                  "FieldSpec(lam=8, modulus=BitPoly(0x11b, nbits=9), "
                  "reduction_exponents=(4, 3, 1, 0))"),
    "ExpansionParams": (lambda: ExpansionParams(n=4096, ell=2123,
                                                mode=Mode.CLASSICAL),
                        "ell",
                        "ExpansionParams(n=4096, ell=2123, "
                        "mode=<Mode.CLASSICAL: 'classical'>)"),
    "SchemeParams": (lambda: SchemeParams(n=4096, t=2048, epsilon=0.25,
                                          mode="classical"),
                     "epsilon",
                     "SchemeParams(n=4096, t=2048, epsilon=0.25, "
                     "mode=<Mode.CLASSICAL: 'classical'>)"),
    "Ciphertext": (_ciphertext, "payload",
                   "Ciphertext(n=8, ell=3, mode=<Mode.CLASSICAL: "
                   "'classical'>, u=BitPoly(0x1, nbits=5), "
                   "v=BitPoly(0x2, nbits=5), payload=BitPoly(0x3, nbits=8))"),
    "Check": (lambda: Check(name="a", context={"n": 3, "family": "b"},
                            passed=True, value=Fraction(1, 128),
                            bound=Fraction(3, 128)),
              "passed",
              "Check(name='a', context=(('n', 3), ('family', 'b')), "
              "passed=True, value=Fraction(1, 128), bound=Fraction(3, 128))"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_frozen(name):
    build, attr, _ = RECORDS[name]
    rec = build()
    before = getattr(rec, attr)
    with pytest.raises(AttributeError):
        setattr(rec, attr, before)
    with pytest.raises(AttributeError):
        rec.not_a_field = 1
    with pytest.raises(AttributeError):
        delattr(rec, attr)
    assert getattr(rec, attr) == before


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_values_compare_and_hash_equal(name):
    build, _, _ = RECORDS[name]
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_exact_repr(name):
    build, _, text = RECORDS[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_pickle_round_trip(name):
    build, _, _ = RECORDS[name]
    rec = build()
    back = pickle.loads(pickle.dumps(rec))
    assert back == rec and repr(back) == repr(rec)


def test_records_of_different_types_never_compare_equal():
    assert BitPoly(1, 3) != OpCount(1, 3)
    assert not BitPoly(1, 3) == OpCount(1, 3)
    assert BitPoly(1, 3) != (1, 3)


def test_unequal_fields_compare_unequal():
    assert BitPoly(1, 3) != BitPoly(1, 4)
    assert OpCount(1, 3) != OpCount(3, 1)
    assert ExpansionParams(8, 3, Mode.CLASSICAL) != ExpansionParams(
        8, 3, Mode.QUANTUM)
    assert SchemeParams(64, 32, 0.25, Mode.CLASSICAL) != SchemeParams(
        64, 32, 0.5, Mode.CLASSICAL)


def test_keyword_and_positional_construction_agree():
    assert BitPoly(value=5, nbits=4) == BitPoly(5, 4)
    assert OpCount(ands=1, xors=3) == OpCount(1, 3)
    assert OpCount(xors=3) == OpCount(0, 3)
    assert ExpansionParams(n=8, ell=3, mode=Mode.CLASSICAL) == \
        ExpansionParams(8, 3, Mode.CLASSICAL)
    assert SchemeParams(n=64, t=32, epsilon=0.25, mode=Mode.CLASSICAL) == \
        SchemeParams(64, 32, 0.25, Mode.CLASSICAL)
    spec = find_irreducible(8)
    assert FieldSpec(spec.lam, spec.modulus, spec.reduction_exponents) == spec
    assert Check("a", {"k": "b"}, False) == Check(
        name="a", context=(("k", "b"),), passed=False, value=None, bound=None)


def test_opcount_defaults():
    assert OpCount() == OpCount(0, 0)
    assert (OpCount().ands, OpCount().xors, OpCount().total) == (0, 0, 0)
    assert OpCount(ands=2) == OpCount(2, 0)
    assert repr(OpCount()) == "OpCount(ands=0, xors=0)"


def test_derived_sizes_stay_out_of_equality_and_repr():
    p = SchemeParams(4096, 2048, 2.0 ** -40, Mode.CLASSICAL)
    assert p.expansion == ExpansionParams(4096, 2123, Mode.CLASSICAL)
    assert "expansion" not in repr(p)
    assert hash(p) == hash(SchemeParams.derive(4096, 2048, 2.0 ** -40))
    c = _ciphertext()
    assert c.expansion == ExpansionParams(8, 3, Mode.CLASSICAL)
    assert "expansion" not in repr(c)


def test_check_line_and_dict_share_one_layout():
    exact = Check("collision-bound", {"n": 3, "family": "uniform"}, True,
                  Fraction(1, 128), Fraction(3, 128))
    assert exact.line() == ("PASS collision-bound n=3 family=uniform: "
                            "value=7.812500e-03 <= bound=2.343750e-02")
    assert exact.to_dict() == {"check": "collision-bound", "n": 3,
                               "family": "uniform", "value": "1/128",
                               "bound": "3/128", "passed": True}
    approx = Check("full-randomization", {"n": 1}, False, 0.5, 1e-10)
    assert approx.line() == ("FAIL full-randomization n=1: "
                             "value=5.000000e-01 <= bound=1.000000e-10")
    assert approx.to_dict()["value"] == 0.5
    plain = Check("reduce-vs-longdiv", {"lam": "8,127"}, True)
    assert plain.line() == "PASS reduce-vs-longdiv lam=8,127"
    assert plain.to_dict() == {"check": "reduce-vs-longdiv", "lam": "8,127",
                               "value": None, "bound": None, "passed": True}
