"""RandomSource: exact widths from the seeded and the system source, and a
typed error for a bad width apart from one for a failing source."""

import random

import pytest

from entroseal import cli
from entroseal.errors import EntropyError, PreconditionError
from entroseal.rng import RandomSource


@pytest.mark.parametrize("seed", [None, 7])
def test_draws_have_exact_widths(seed):
    rng = RandomSource(seed)
    for nbits in (0, 1, 7, 64, 2123):
        p = rng.bits(nbits)
        assert p.nbits == nbits
        assert p.value >> nbits == 0


@pytest.mark.parametrize("nbits", [2.0, True, "8", None])
def test_a_width_that_is_not_an_int_is_a_precondition_error(nbits):
    with pytest.raises(PreconditionError, match="bit count must be an int"):
        RandomSource(1).bits(nbits)
    with pytest.raises(PreconditionError, match="bit count must be an int"):
        RandomSource().bits(nbits)


def test_a_negative_width_is_a_precondition_error():
    with pytest.raises(PreconditionError, match="nonnegative"):
        RandomSource().bits(-1)


def _fail_with(exc):
    def getrandbits(self, nbits):
        raise exc("no entropy for the test")
    return getrandbits


@pytest.mark.parametrize("exc", [OSError, NotImplementedError])
def test_a_failing_system_source_is_an_entropy_error(monkeypatch, exc):
    monkeypatch.setattr(random.SystemRandom, "getrandbits", _fail_with(exc))
    with pytest.raises(EntropyError,
                       match="entropy source failed: no entropy for the test"):
        RandomSource().bits(8)
    assert RandomSource(3).bits(8).nbits == 8


def test_encrypt_exits_5_when_the_system_source_fails(monkeypatch, capsys,
                                                     tmp_path):
    monkeypatch.setattr(random.SystemRandom, "getrandbits",
                        _fail_with(OSError))
    (tmp_path / "msg").write_bytes(b"m" * 64)
    (tmp_path / "key").write_bytes(bytes(range(256)))
    rc = cli.main(["encrypt", str(tmp_path / "msg"),
                   "--key", str(tmp_path / "key"), "--t", "400",
                   "--epsilon", "2^-8", "--out", str(tmp_path / "ct")])
    err = capsys.readouterr().err
    assert rc == 5
    assert err == "error: entropy source failed: no entropy for the test\n"
    assert not (tmp_path / "ct").exists()
