"""End-to-end command-line tests driven through main(argv)."""

import builtins
import functools
import hashlib
import json
import os
import subprocess
import sys
import threading
from fractions import Fraction

import pytest

import entroseal
from entroseal import cli, gf2, modulus, statlab, verify
from entroseal.cipher import deserialize
from entroseal.cli import _parse_epsilon, main
from entroseal.errors import (ConfigurationError, DominationError,
                              EntropyError, EntrosealError)
from entroseal.keyexpand import ExpansionParams

KEY_BYTES = bytes(range(1, 255)) * 2  # 508 bytes = 4064 bits of key material


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture(scope="module")
def gf2_suite_cache():
    """`verify.gf2` run once per seed in this module: it takes seconds,
    and its results are frozen Check records, safe to share."""
    return functools.lru_cache(verify.gf2)


@pytest.fixture
def gf2_suite_once(monkeypatch, gf2_suite_cache):
    """The shared `verify gf2` run, for this test only: a test that plants
    a fault runs the suite afresh."""
    monkeypatch.setattr(verify, "gf2", gf2_suite_cache)


class TestParams:
    def test_classical_json(self, capsys):
        rc, out, _ = run(capsys, [
            "params", "--n-bits", "128", "--t", "64",
            "--epsilon", "2^-32", "--format", "json"])
        assert rc == 0
        got = json.loads(out)
        assert got["ell"] == 123
        assert got["lambda"] == 123
        assert got["tail_len"] == 5
        assert got["out_len"] == 128
        assert got["mode"] == "classical"
        assert got["t"] == 64

    def test_quantum_reports_advisory_length(self, capsys):
        rc, out, _ = run(capsys, [
            "params", "--n-bits", "128", "--t", "64", "--epsilon", "2^-32",
            "--mode", "quantum", "--format", "json"])
        assert rc == 0
        got = json.loads(out)
        assert got["ell"] == 131
        assert got["indistinguishability_ell"] == 128
        assert got["out_len"] == 256

    def test_epsilon_below_2_to_the_minus_1024(self, capsys):
        # 1/eps overflowed a float here and escaped as an OverflowError
        rc, out, _ = run(capsys, [
            "params", "--n-bits", "2000", "--t", "1000", "--epsilon",
            "2^-1074", "--mode", "quantum", "--format", "json"])
        assert rc == 0
        got = json.loads(out)
        assert (got["ell"], got["indistinguishability_ell"]) == (3151, 3148)
        rc, out, _ = run(capsys, [
            "params", "--n-bits", "5000", "--t", "4000", "--epsilon",
            "1e-320", "--format", "json"])
        assert rc == 0
        assert json.loads(out)["ell"] == 3122

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_advisory_below_one_bit_is_reported_as_none(self, capsys, fmt):
        # strict ell = 4 - 4 + 0 + 3 = 3; the advisory would be 0
        rc, out, err = run(capsys, [
            "params", "--n-bits", "4", "--t", "4", "--epsilon", "1",
            "--mode", "quantum", "--format", fmt])
        assert rc == 0, err
        if fmt == "json":
            got = json.loads(out)
            assert (got["ell"], got["indistinguishability_ell"]) == (3, None)
        else:
            assert "ell = 3" in out
            assert "indistinguishability_ell = None" in out

    def test_text_format(self, capsys):
        rc, out, _ = run(capsys, [
            "params", "--n-bits", "16", "--t", "8", "--epsilon", "0.25"])
        assert rc == 0
        assert "ell = 7" in out
        assert "lambda = 9" in out

    # the whole stdout, byte for byte: key order, spacing, float spelling
    # and the JSON indent are part of the output
    PINNED_16 = {
        "classical": (
            ("n = 16\n"
             "t = 8.0\n"
             "epsilon = 0.25\n"
             "mode = classical\n"
             "ell = 7\n"
             "lambda = 9\n"
             "tail_len = 9\n"
             "out_len = 16\n"),
            ("{\n"
             '  "n": 16,\n'
             '  "t": 8.0,\n'
             '  "epsilon": 0.25,\n'
             '  "mode": "classical",\n'
             '  "ell": 7,\n'
             '  "lambda": 9,\n'
             '  "tail_len": 9,\n'
             '  "out_len": 16\n'
             "}\n")),
        "quantum": (
            ("n = 16\n"
             "t = 8.0\n"
             "epsilon = 0.25\n"
             "mode = quantum\n"
             "ell = 15\n"
             "lambda = 17\n"
             "tail_len = 17\n"
             "out_len = 32\n"
             "indistinguishability_ell = 12\n"),
            ("{\n"
             '  "n": 16,\n'
             '  "t": 8.0,\n'
             '  "epsilon": 0.25,\n'
             '  "mode": "quantum",\n'
             '  "ell": 15,\n'
             '  "lambda": 17,\n'
             '  "tail_len": 17,\n'
             '  "out_len": 32,\n'
             '  "indistinguishability_ell": 12\n'
             "}\n")),
    }

    @pytest.mark.parametrize("mode", ["classical", "quantum"])
    def test_full_output_is_pinned(self, capsys, mode):
        argv = ["params", "--n-bits", "16", "--t", "8", "--epsilon", "0.25",
                "--mode", mode]
        text, as_json = self.PINNED_16[mode]
        assert run(capsys, argv) == (0, text, "")
        assert run(capsys, [*argv, "--format", "json"]) == (0, as_json, "")

    def test_epsilon_spellings_agree(self):
        assert _parse_epsilon("2^-40") == 2.0 ** -40
        assert _parse_epsilon("2**-40") == 2.0 ** -40
        assert _parse_epsilon("0.125") == 0.125
        with pytest.raises(Exception):
            _parse_epsilon("two")

    @pytest.mark.parametrize("value", ["2^-1075", "2**-1075", "1e-400",
                                       "+2e-324"])
    def test_underflowing_epsilon_is_a_usage_error(self, capsys, value):
        # these parse to 0.0, which the library would report as
        # "epsilon ... got 0.0", not what was typed
        with pytest.raises(SystemExit) as exc:
            main(["params", "--n-bits", "64", "--t", "32",
                  "--epsilon", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --epsilon" in err
        assert "underflows" in err
        assert _parse_epsilon("2^-1074") == 2.0 ** -1074
        rc, _, err = run(capsys, [
            "params", "--n-bits", "64", "--t", "32", "--epsilon", "0e-400"])
        assert rc == 2
        assert "epsilon must be in (0, 1], got 0.0" in err

    def test_bad_epsilon_exits_via_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["params", "--n-bits", "8", "--t", "0", "--epsilon", "huh"])
        capsys.readouterr()

    def test_invalid_sizing_is_exit_2(self, capsys):
        rc, _, err = run(capsys, [
            "params", "--n-bits", "8", "--t", "0", "--epsilon", "2^-10"])
        assert rc == 2
        assert "error:" in err


    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("mode", ["classical", "quantum"])
    def test_non_finite_t_is_exit_2(self, capsys, t, mode):
        # "--t=-inf": argparse would read a separate "-inf" as an option
        rc, _, err = run(capsys, [
            "params", "--n-bits", "64", f"--t={t}", "--epsilon", "2^-5",
            "--mode", mode])
        assert rc == 2
        assert "t must be finite" in err


class TestEncryptDecrypt:
    def _write_inputs(self, tmp_path, size=512):
        plain = tmp_path / "plain.bin"
        plain.write_bytes(bytes((7 * i + 3) % 256 for i in range(size)))
        key = tmp_path / "key.bin"
        key.write_bytes(KEY_BYTES)
        return plain, key

    def test_round_trip_512_bytes(self, tmp_path, capsys):
        plain, key = self._write_inputs(tmp_path)
        ct = tmp_path / "out.ese"
        rc, _, err = run(capsys, [
            "encrypt", str(plain), "--key", str(key), "--t", "2048",
            "--epsilon", "2^-40", "--out", str(ct), "--seed", "1"])
        assert rc == 0
        assert "ell=2123" in err
        back = tmp_path / "back.bin"
        rc, _, err = run(capsys, [
            "decrypt", str(ct), "--key", str(key), "--out", str(back)])
        assert rc == 0
        assert back.read_bytes() == plain.read_bytes()

    def test_seed_makes_encryption_reproducible(self, tmp_path, capsys):
        plain, key = self._write_inputs(tmp_path, size=32)
        blobs = []
        for name in ("a.ese", "b.ese"):
            ct = tmp_path / name
            rc, _, _ = run(capsys, [
                "encrypt", str(plain), "--key", str(key), "--t", "128",
                "--epsilon", "2^-20", "--out", str(ct), "--seed", "9"])
            assert rc == 0
            blobs.append(ct.read_bytes())
        assert blobs[0] == blobs[1]

    def test_wrong_key_changes_the_plaintext(self, tmp_path, capsys):
        plain, key = self._write_inputs(tmp_path, size=32)
        ct = tmp_path / "out.ese"
        run(capsys, ["encrypt", str(plain), "--key", str(key), "--t", "128",
                     "--epsilon", "2^-20", "--out", str(ct), "--seed", "3"])
        other = tmp_path / "other.bin"
        other.write_bytes(bytes(b ^ 0x01 for b in KEY_BYTES))
        back = tmp_path / "back.bin"
        rc, _, _ = run(capsys, [
            "decrypt", str(ct), "--key", str(other), "--out", str(back)])
        assert rc == 0
        assert back.read_bytes() != plain.read_bytes()

    def test_short_key_is_exit_3(self, tmp_path, capsys):
        plain, _ = self._write_inputs(tmp_path, size=64)
        stub = tmp_path / "tiny.key"
        stub.write_bytes(b"\x01\x02")
        rc, _, err = run(capsys, [
            "encrypt", str(plain), "--key", str(stub), "--t", "256",
            "--epsilon", "2^-20", "--out", str(tmp_path / "x.ese")])
        assert rc == 3
        assert "16 bits" in err

    def test_garbage_ciphertext_is_exit_4(self, tmp_path, capsys):
        bad = tmp_path / "bad.ese"
        bad.write_bytes(b"not a ciphertext at all")
        key = tmp_path / "key.bin"
        key.write_bytes(KEY_BYTES)
        rc, _, err = run(capsys, [
            "decrypt", str(bad), "--key", str(key),
            "--out", str(tmp_path / "y.bin")])
        assert rc == 4
        assert "malformed" in err

    def test_empty_plaintext_is_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        key = tmp_path / "key.bin"
        key.write_bytes(KEY_BYTES)
        rc, _, err = run(capsys, [
            "encrypt", str(empty), "--key", str(key), "--t", "0",
            "--epsilon", "0.5", "--out", str(tmp_path / "z.ese")])
        assert rc == 2
        assert "empty" in err

    def test_missing_input_is_exit_5(self, tmp_path, capsys):
        rc, _, err = run(capsys, [
            "decrypt", str(tmp_path / "nope.ese"),
            "--key", str(tmp_path / "nope.key"),
            "--out", str(tmp_path / "o.bin")])
        assert rc == 5
        assert "error:" in err


    def test_encrypt_and_decrypt_never_import_numpy(self, tmp_path):
        # A fresh interpreter: the README size (a table modulus) and an
        # off-table size whose modulus is scanned (64 B at t=256: lam=331).
        # Nor do they load the labs, the benchmark module or the stdlib
        # modules only those (and dataclasses) need; the exit message
        # names any that were loaded. The modulus search loads only for
        # the scanned size.
        script = """
import sys
from pathlib import Path
from entroseal.cli import main
d = Path(sys.argv[1])
(d / "key.bin").write_bytes(bytes(range(1, 255)) * 2)
for size, t, lam in ((512, "2048", 2123), (64, "256", 331)):
    plain = bytes((7 * i + 3) % 256 for i in range(size))
    (d / "plain.bin").write_bytes(plain)
    key = str(d / "key.bin")
    assert main(["encrypt", str(d / "plain.bin"), "--key", key, "--t", t,
                 "--epsilon", "2^-40", "--out", str(d / "c.ese")]) == 0
    assert main(["decrypt", str(d / "c.ese"), "--key", key,
                 "--out", str(d / "back.bin")]) == 0
    assert (d / "back.bin").read_bytes() == plain
    searched = "entroseal.modulus" in sys.modules
    if searched != (lam == 331):
        sys.exit(f"entroseal.modulus loaded: {searched} after lambda={lam}")
unused = ("numpy", "dataclasses", "inspect", "statistics", "json",
          "entroseal.bench", "entroseal.statlab", "entroseal.qlab",
          "entroseal.gf2ref", "entroseal.verify")
loaded = [m for m in unused if m in sys.modules]
sys.exit(f"loaded {loaded}" if loaded else 0)
"""
        src = os.path.dirname(os.path.dirname(entroseal.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "lambda=2123" in proc.stderr
        assert "lambda=331" in proc.stderr

    # `--out` is written in place: a longer old file is cut to the new
    # length, a link is written through, and a pipe or FIFO just receives
    # the bytes.
    README_ARGS = ["--t", "2048", "--epsilon", "2^-40", "--seed", "1"]
    README_CT_BYTES = 22 + 266 + 247 + 512  # header, u, v, payload

    def _encrypt(self, capsys, plain, key, out):
        rc, _, err = run(capsys, ["encrypt", str(plain), "--key", str(key),
                                  "--out", str(out), *self.README_ARGS])
        assert rc == 0, err

    def _decrypt(self, capsys, ct, key, out):
        rc, _, err = run(capsys, ["decrypt", str(ct), "--key", str(key),
                                  "--out", str(out)])
        assert rc == 0, err
        return err

    def test_encrypt_over_a_longer_file_leaves_only_the_ciphertext(
            self, tmp_path, capsys):
        plain, key = self._write_inputs(tmp_path)
        ct = tmp_path / "c.ese"
        ct.write_bytes(os.urandom(5000))
        self._encrypt(capsys, plain, key, ct)
        assert len(ct.read_bytes()) == self.README_CT_BYTES
        back = tmp_path / "back.bin"
        self._decrypt(capsys, ct, key, back)
        assert back.read_bytes() == plain.read_bytes()

    def test_decrypt_over_a_longer_file_leaves_only_the_plaintext(
            self, tmp_path, capsys):
        plain, key = self._write_inputs(tmp_path)
        ct = tmp_path / "c.ese"
        self._encrypt(capsys, plain, key, ct)
        back = tmp_path / "back.bin"
        back.write_bytes(os.urandom(5000))
        err = self._decrypt(capsys, ct, key, back)
        assert back.read_bytes() == plain.read_bytes()
        assert err == "decrypted to 512 bytes (n=4096)\n"

    def test_an_overwrite_cut_short_of_its_truncate_is_malformed(
            self, tmp_path, capsys):
        # What an interrupted write leaves over a longer ciphertext: the
        # new bytes, then the old tail. Its length disagrees with the
        # header, so decrypt refuses it instead of returning garbage.
        plain, key = self._write_inputs(tmp_path)
        longer = tmp_path / "longer.bin"
        longer.write_bytes(bytes(600))
        ct = tmp_path / "c.ese"
        rc, _, err = run(capsys, ["encrypt", str(longer), "--key", str(key),
                                  "--t", "2400", "--epsilon", "2^-40",
                                  "--out", str(ct)])
        assert rc == 0, err
        fresh = tmp_path / "fresh.ese"
        self._encrypt(capsys, plain, key, fresh)
        with open(ct, "r+b") as fh:
            fh.write(fresh.read_bytes())
        rc, _, err = run(capsys, ["decrypt", str(ct), "--key", str(key),
                                  "--out", str(tmp_path / "back.bin")])
        assert rc == 4
        assert "need exactly 1047 bytes" in err

    def test_a_symlink_is_written_through(self, tmp_path, capsys):
        plain, key = self._write_inputs(tmp_path)
        target = tmp_path / "target.ese"
        target.write_bytes(os.urandom(5000))
        target.chmod(0o640)
        link = tmp_path / "link.ese"
        link.symlink_to(target)
        self._encrypt(capsys, plain, key, link)
        assert link.is_symlink()
        assert os.readlink(link) == str(target)
        assert target.stat().st_mode & 0o777 == 0o640
        expected = tmp_path / "plain.ese"
        self._encrypt(capsys, plain, key, expected)
        assert target.read_bytes() == expected.read_bytes()

    def test_stdout_pipe(self, tmp_path):
        # A pipe has no length to cut: truncating it would fail with
        # ESPIPE (exit 5).
        plain, key = self._write_inputs(tmp_path)
        src = os.path.dirname(os.path.dirname(entroseal.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "entroseal", "encrypt", str(plain),
             "--key", str(key), "--out", "/dev/stdout", *self.README_ARGS],
            env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert deserialize(proc.stdout).n == 4096
        assert len(proc.stdout) == self.README_CT_BYTES

    def test_fifo(self, tmp_path, capsys):
        plain, key = self._write_inputs(tmp_path)
        fifo = tmp_path / "c.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        try:
            rc, _, err = run(capsys, [
                "encrypt", str(plain), "--key", str(key), "--out", str(fifo),
                *self.README_ARGS])
        finally:
            # Release a reader still waiting for a writer if encrypt never
            # opened the FIFO; with no reader waiting this open fails.
            try:
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:
                pass
            reader.join(timeout=30)
        assert not reader.is_alive()
        assert rc == 0, err
        assert deserialize(got[0]).n == 4096
        assert len(got[0]) == self.README_CT_BYTES

    def test_no_output_is_opened_with_truncation(self, tmp_path, capsys,
                                                 monkeypatch):
        # On ext4, truncating a file written moments ago waits for its
        # write-back (tens of ms a call). Tier-1 cannot time that, so it
        # checks the open flags of every output path instead.
        plain, key = self._write_inputs(tmp_path)
        ct, back = tmp_path / "c.ese", tmp_path / "back.bin"
        ct.write_bytes(b"old")
        back.write_bytes(b"old")
        outputs = {str(ct), str(back)}
        opened = []
        real_os_open, real_open = os.open, builtins.open

        def os_open(path, flags, *args, **kwargs):
            if os.fspath(path) in outputs:
                opened.append((os.fspath(path), bool(flags & os.O_TRUNC)))
            return real_os_open(path, flags, *args, **kwargs)

        def open_(file, mode="r", *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and \
                    os.fspath(file) in outputs:
                opened.append((os.fspath(file), "w" in mode))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(os, "open", os_open)
        monkeypatch.setattr(builtins, "open", open_)
        self._encrypt(capsys, plain, key, ct)
        self._decrypt(capsys, ct, key, back)
        monkeypatch.undo()
        assert back.read_bytes() == plain.read_bytes()
        assert {path for path, _ in opened} == outputs
        assert not [path for path, truncating in opened if truncating]


class TestErrorExitCodes:
    @pytest.mark.parametrize("exc,code", [
        (ConfigurationError, 2), (DominationError, 2), (EntropyError, 5),
        (EntrosealError, 6)])
    def test_every_library_error_has_an_exit_code(self, capsys, monkeypatch,
                                                  exc, code):
        def fail(args):
            raise exc("raised for the test")
        monkeypatch.setattr(cli, "cmd_params", fail)
        rc, _, err = run(capsys, [
            "params", "--n-bits", "16", "--t", "8", "--epsilon", "0.25"])
        assert rc == code
        assert err.startswith("error:")
        assert "raised for the test" in err
        assert "Traceback" not in err


class TestVerify:
    def test_classical_suite_passes(self, capsys):
        rc, out, err = run(capsys, ["verify", "classical"])
        assert rc == 0
        assert "108/108 checks passed" in err
        assert out.splitlines()[0].startswith("PASS")
        assert not any(line.startswith("FAIL") for line in out.splitlines())

    def test_quantum_suite_passes_json(self, capsys):
        rc, out, err = run(capsys, ["verify", "quantum", "--format", "json"])
        assert rc == 0
        reports = json.loads(out)
        assert len(reports) == 72
        assert all(r["passed"] for r in reports)
        assert "72/72 checks passed" in err

    def test_budget_too_small_is_exit_2(self, capsys):
        rc, _, err = run(capsys, ["verify", "classical", "--budget", "4"])
        assert rc == 2
        assert "error:" in err

    def test_budget_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("ENTROSEAL_BUDGET", "4")
        rc, _, _ = run(capsys, ["verify", "classical"])
        assert rc == 2
        monkeypatch.setenv("ENTROSEAL_BUDGET", "not-a-number")
        rc, _, err = run(capsys, ["verify", "classical"])
        assert rc == 2
        assert "ENTROSEAL_BUDGET" in err

    def test_negative_budget_env_var_is_refused(self, capsys, monkeypatch):
        # refused up front, naming the variable, as --budget -5 is
        monkeypatch.setenv("ENTROSEAL_BUDGET", "-5")
        rc, out, err = run(capsys, ["verify", "classical"])
        assert rc == 2
        assert "ENTROSEAL_BUDGET must be >= 0, got -5" in err
        assert out == ""

    def test_budget_flag_zero_refuses_every_enumeration(self, capsys,
                                                        monkeypatch):
        # 0 is a budget, not a missing flag: it beats the variable and
        # the default
        monkeypatch.setenv("ENTROSEAL_BUDGET", str(1 << 30))
        rc, out, err = run(capsys, ["verify", "classical", "--budget", "0"])
        assert rc == 2
        assert "configured budget is 0" in err
        assert out == ""

    @pytest.mark.parametrize("suite", ["gf2", "quantum"])
    def test_only_the_classical_suite_reads_the_budget(self, capsys,
                                                       monkeypatch, suite):
        monkeypatch.setenv("ENTROSEAL_BUDGET", "bogus")
        if suite == "gf2":
            # the gf2 suite takes seconds; the budget is read (or not)
            # before any suite runs
            monkeypatch.setattr(verify, "gf2", lambda seed: [])
        rc, _, err = run(capsys, ["verify", suite])
        assert rc == 0, err
        rc, _, err = run(capsys, ["verify", "classical"])
        assert rc == 2
        assert "ENTROSEAL_BUDGET" in err

    def test_negative_seed_is_a_usage_error(self, capsys):
        # numpy's default_rng rejects a negative seed with a ValueError,
        # which used to escape as a traceback with exit 1
        with pytest.raises(SystemExit) as exc:
            main(["verify", "quantum", "--seed", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "argument --seed" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,flag", [
        (["encrypt", "in", "--key", "k", "--t", "8", "--epsilon", "2^-4",
          "--out", "out", "--seed", "-5"], "--seed"),
        (["bench", "--sizes", "16", "--seed", "-5"], "--seed"),
        (["verify", "classical", "--budget", "-5"], "--budget"),
    ])
    def test_negative_integer_flag_is_a_usage_error(self, capsys, argv,
                                                    flag):
        # RandomSource(-5) draws the same bits as RandomSource(5), so a
        # negative seed silently aliased a positive one; a negative budget
        # ran on to "configured budget is -5"
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert f"argument {flag}" in err
        assert "Traceback" not in err

    def test_explicit_budget_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ENTROSEAL_BUDGET", "4")
        rc, _, err = run(capsys, [
            "verify", "classical", "--budget", str(1 << 30)])
        assert rc == 0
        assert "108/108" in err


class TestVerifyPinned:
    # SHA-256 of each suite's stdout at seed 0: the gf2 and classical text
    # in full, and each quantum line cut at its first ":", because the
    # float residuals after it depend on the BLAS.
    DIGESTS = {
        "gf2": "f8e2f9b19965ec2cee25714d2c6a9359"
               "41fde8cd321db09946742d0813f54e74",
        "classical": "554354fd237b5a1525c35421828b1ff4"
                     "dc2c6fb0b7c4c0046113ff4390dcda00",
        "quantum": "fc3a890c748598bc132c65509e7de1aa"
                   "5f87aa3703e1753b8f35b4fe80a1c015",
    }

    @pytest.mark.parametrize("suite", ["gf2", "classical", "quantum"])
    def test_seed_zero_output_is_pinned(self, capsys, gf2_suite_once,
                                        suite):
        rc, out, _ = run(capsys, ["verify", suite])
        assert rc == 0
        if suite == "quantum":
            out = "".join(line.split(":")[0] + "\n"
                          for line in out.splitlines())
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[suite]


class TestVerifyJson:
    def test_every_suite_emits_one_layout(self, capsys, gf2_suite_once):
        counts = {}
        for suite in ("gf2", "classical", "quantum"):
            rc, out, _ = run(capsys, ["verify", suite, "--format", "json"])
            assert rc == 0
            checks = json.loads(out)
            counts[suite] = len(checks)
            for c in checks:
                assert isinstance(c["check"], str)
                assert c["passed"] is True
                assert list(c)[0] == "check"
                assert list(c)[-3:] == ["value", "bound", "passed"]
                if suite == "gf2":
                    assert c["value"] is None and c["bound"] is None
                    continue
                if suite == "quantum":
                    assert isinstance(c["value"], float)
                    assert isinstance(c["bound"], float)
                    continue
                # exact rationals come back as the values compared
                value, bound = Fraction(c["value"]), Fraction(c["bound"])
                assert value <= bound
                params = ExpansionParams.classical(c["n"], c["ell"])
                if c["check"] == "collision-bound":
                    dx = _classical_family(c["n"], c["family"])
                    want = statlab.check_collision_bound(params, dx)
                elif c["check"] == "indistinguishability":
                    dx = _classical_family(c["n"], c["family"])
                    want = statlab.check_indistinguishability(params, dx)
                else:
                    want = statlab.check_derived_sizing(
                        c["n"], c["t"], c["epsilon"])
                assert (value, bound) == (want.value, want.bound)
        assert counts == {"gf2": 9, "classical": 108, "quantum": 72}


def _classical_family(n, label):
    if label.startswith("flat-2^"):
        return statlab.flat_subset(n, int(label[len("flat-2^"):]))
    return {"uniform": statlab.uniform, "point-mass": statlab.point_mass,
            "geometric": statlab.geometric}[label](n)


class TestVerifyGf2:
    @pytest.fixture(scope="class")
    def fresh_runs(self):
        """Fresh interpreters that run `verify gf2`, 1-4 s each. All
        start at the first test that asks, so their runs overlap. Each
        keeps only the table rows up to degree 4096: the Berlekamp counts
        of the two widest rows take about half of the suite's time, and
        the shared in-process run and the seed-0 pin judge all six."""
        trim = """
from entroseal import gf2
gf2._MODULUS_TABLE = {lam: rest for lam, rest in gf2._MODULUS_TABLE.items()
                      if lam <= 4096}
"""
        scripts = {
            # the real suites, then the modules they loaded
            "lazy-imports": """
import sys
from entroseal.cli import main
for suite in ("gf2", "classical"):
    assert main(["verify", suite]) == 0
loaded = [m for m in ("numpy", "entroseal.qlab") if m in sys.modules]
sys.exit(f"loaded {loaded}" if loaded else 0)
""",
            "wrong-kernel": """
import sys
from entroseal import cli, gf2, verify
verify.clmul = lambda a, b: gf2.BitPoly(
    gf2._comb_int(a.value, b.value) << 1, a.nbits + b.nbits)
sys.exit(cli.main(["verify", "gf2"]))
""",
            # a parity test whose every verdict is flipped, which drops
            # the irreducible pentanomials the scan looks for
            "broken-parity": """
import sys
from entroseal import cli, modulus
judge = modulus._stickelberger_reducible
modulus._stickelberger_reducible = lambda *args: (
    None if judge(*args) is None else not judge(*args))
sys.exit(cli.main(["verify", "gf2"]))
""",
        }
        src = os.path.dirname(os.path.dirname(entroseal.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        procs = {name: subprocess.Popen(
                     [sys.executable, "-c", trim + script], env=env,
                     text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                 for name, script in scripts.items()}
        yield procs
        for proc in procs.values():
            proc.kill()
            proc.communicate()

    def test_only_the_quantum_suite_loads_numpy(self, fresh_runs):
        proc = fresh_runs["lazy-imports"]
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert "9/9 checks passed" in err
        assert "108/108 checks passed" in err

    def test_gf2_suite_passes(self, capsys, gf2_suite_once):
        rc, out, err = run(capsys, ["verify", "gf2"])
        assert rc == 0
        assert "9/9 checks passed" in err
        names = [line.split()[1] for line in out.splitlines()]
        assert "modulus-scan-vs-oracle" in names
        assert "modulus-table-vs-berlekamp" in names
        assert "trinomial-parity-vs-division" in names
        assert "pentanomial-parity-vs-berlekamp" in names
        assert "early-abort-vs-division" in names

    def test_reducible_table_entry_fails(self, capsys, monkeypatch):
        # x^40 + x^2 + 1 = (x^20 + x + 1)^2, at a degree no other check
        # looks up, so only the Berlekamp check sees it and no modulus
        # lookup caches it. It is the table's only row: the real rows are
        # checked by the shared run and the seed-0 pin, and their
        # Berlekamp counts take most of the suite's time.
        monkeypatch.setattr(gf2, "_MODULUS_TABLE", {40: (2, 0)})
        rc, out, err = run(capsys, ["verify", "gf2"])
        assert rc == 1, err
        verdicts = {name: verdict for verdict, name, *_ in
                    map(str.split, out.splitlines())}
        assert verdicts.pop("modulus-table-vs-berlekamp") == "FAIL"
        assert set(verdicts.values()) == {"PASS"}

    def test_wrong_kernel_fails_instead_of_hanging(self, fresh_runs):
        # A kernel whose products come out one degree too high: fed to the
        # Frobenius walk, such a product would fold forever. In a fresh
        # interpreter with a time limit, so that a hang fails the test.
        proc = fresh_runs["wrong-kernel"]
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 1, err
        verdicts = {name: verdict for verdict, name, *_ in
                    map(str.split, out.splitlines())}
        assert verdicts["early-abort-vs-division"] == "FAIL"
        assert verdicts["backend-equivalence"] == "FAIL"
        assert verdicts["trinomial-parity-vs-division"] == "PASS"
        assert verdicts["pentanomial-parity-vs-berlekamp"] == "PASS"

    def test_broken_swan_rule_fails_without_a_lookup(self, capsys,
                                                     monkeypatch):
        # Swan's rule with every verdict flipped drops irreducible
        # trinomials. In process: a lookup raises here instead of scanning.
        def lookup(lam):
            raise AssertionError(f"looked up degree {lam}")
        swan = modulus._swan_reducible
        monkeypatch.setattr(modulus, "_swan_reducible",
                            lambda n, k: not swan(n, k))
        monkeypatch.setattr(verify, "find_irreducible", lookup)
        monkeypatch.setattr(gf2, "_MODULUS_TABLE", {2123: (14, 11, 3, 0)})
        rc, out, err = run(capsys, ["verify", "gf2"])
        assert rc == 1, err
        failed = [line.split()[1] for line in out.splitlines()
                  if line.startswith("FAIL")]
        assert failed == ["field-axioms-exhaustive",
                          "inverses-exist-exhaustive", "reduce-vs-longdiv",
                          "modulus-scan-vs-oracle",
                          "trinomial-parity-vs-division",
                          "early-abort-vs-division"]
        assert out.count("skipped=parity-check-failed") == 5

    def test_broken_parity_test_fails_instead_of_scanning(self, fresh_runs):
        # A scan that trusts a wrong parity test may run for minutes or
        # find no modulus, so every check that looks one up is reported
        # FAIL without running; the checks that look none up still run.
        proc = fresh_runs["broken-parity"]
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 1, err
        verdicts = {name: (verdict, "skipped=parity-check-failed" in rest)
                    for verdict, name, *rest in map(str.split,
                                                    out.splitlines())}
        # every check, in its usual order
        assert list(verdicts.items()) == [
            ("field-axioms-exhaustive", ("FAIL", True)),
            ("inverses-exist-exhaustive", ("FAIL", True)),
            ("backend-equivalence", ("PASS", False)),
            ("reduce-vs-longdiv", ("FAIL", True)),
            ("modulus-scan-vs-oracle", ("FAIL", True)),
            ("modulus-table-vs-berlekamp", ("PASS", False)),
            ("trinomial-parity-vs-division", ("PASS", False)),
            ("pentanomial-parity-vs-berlekamp", ("FAIL", False)),
            ("early-abort-vs-division", ("FAIL", True)),
        ]


class TestBench:
    def test_counts_only_json(self, capsys):
        rc, out, _ = run(capsys, [
            "bench", "--sizes", "16", "--format", "json"])
        assert rc == 0
        rows = json.loads(out)
        assert len(rows) == 4  # 2 backends x (affine, fullmul-quantum)
        affine = [r for r in rows if r["method"] == "affine"]
        assert all(r["and_ratio"] == 1.0 for r in affine)
        assert all(r["wall_ns_median"] is None for r in rows)
        full = [r for r in rows if r["method"] == "fullmul-quantum"]
        assert all(r["and_ratio"] > 1.0 for r in full)

    def test_text_table(self, capsys):
        rc, out, _ = run(capsys, [
            "bench", "--sizes", "16", "--backends", "schoolbook",
            "--methods", "affine"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("method")
        assert len(lines) == 3

    def test_timed_run(self, capsys):
        rc, out, _ = run(capsys, [
            "bench", "--sizes", "16", "--backends", "karatsuba",
            "--reps", "31", "--format", "json"])
        assert rc == 0
        rows = json.loads(out)
        assert all(r["wall_ns_median"] > 0 for r in rows)
        assert all(r["reps"] == 31 for r in rows)

    def test_classical_mode_picks_its_baseline(self, capsys):
        rc, out, _ = run(capsys, [
            "bench", "--sizes", "64", "--t", "32", "--epsilon", "2^-10",
            "--mode", "classical", "--backends", "schoolbook",
            "--format", "json"])
        assert rc == 0
        methods = {r["method"] for r in json.loads(out)}
        assert methods == {"affine", "fullmul-classical"}

    @pytest.mark.parametrize("mode", ["classical", "quantum"])
    def test_lam_is_the_multiply_width_counted_or_timed(self, capsys, mode):
        argv = ["bench", "--sizes", "64", "--t", "32", "--epsilon", "2^-10",
                "--mode", mode, "--format", "json"]
        lams = []
        for extra in ([], ["--reps", "31"]):
            rc, out, _ = run(capsys, argv + extra)
            assert rc == 0
            lams.append([(r["method"], r["backend"], r["lam"])
                         for r in json.loads(out)])
        assert lams[0] == lams[1]
        # the baseline multiplies at the full output width: 64 classical,
        # 128 quantum (n = 64 qubits)
        full = {lam for method, _, lam in lams[0] if method != "affine"}
        assert full == {64 if mode == "classical" else 128}

    def test_each_method_is_timed_once_per_size(self, capsys, monkeypatch):
        # the kernel timed is the same under every count model, so the
        # backends' rows of a method share one measurement
        from entroseal import bench
        real = bench.time_expansion
        calls = []

        def counted(method, params, *args, **kw):
            calls.append((params.n, method))
            return real(method, params, *args, **kw)
        monkeypatch.setattr(bench, "time_expansion", counted)
        rc, out, _ = run(capsys, ["bench", "--backends",
                                  "schoolbook,karatsuba", "--reps", "31",
                                  "--format", "json"])
        assert rc == 0
        assert len(calls) == len(set(calls)) == 6  # 3 sizes x 2 methods
        rows = json.loads(out)
        assert len(rows) == 12
        timed = {}
        for r in rows:
            key = (r["n"], r["method"])
            timing = {k: r[k] for k in ("wall_ns_median", "wall_ns_iqr",
                                        "reps", "env", "warn_timer",
                                        "time_ratio")}
            assert timed.setdefault(key, timing) == timing
        assert len(timed) == 6

    @pytest.mark.parametrize("reps", [[], ["--reps", "31"]])
    def test_baseline_for_the_other_mode_is_exit_2(self, capsys, reps):
        rc, _, err = run(capsys, ["bench", "--sizes", "16", "--mode",
                                  "quantum", "--methods",
                                  "fullmul-classical"] + reps)
        assert rc == 2
        assert "fullmul-classical" in err

    def test_bad_reps_is_exit_2(self, capsys):
        rc, _, err = run(capsys, [
            "bench", "--sizes", "16", "--reps", "5"])
        assert rc == 2
        assert "31" in err

    @pytest.mark.parametrize("flag,value", [
        ("--sizes", "x"), ("--methods", "bogus"), ("--backends", "bogus")])
    def test_bad_list_flag_is_a_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--sizes", "16", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert f"argument {flag}" in err

    @pytest.mark.parametrize("flag", ["--sizes", "--methods", "--backends"])
    @pytest.mark.parametrize("value", ["", " , "])
    def test_empty_list_flag_is_a_usage_error(self, capsys, flag, value):
        # an empty --sizes or --backends used to print a header-only table
        # and exit 0
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--sizes", "16", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert f"argument {flag}" in err

    def test_methods_resolve_when_parsed(self):
        # --methods names the benchmark module's Method, which the parser
        # looks up only when the flag is given: run where it is not loaded
        src = os.path.dirname(os.path.dirname(entroseal.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        argv = [sys.executable, "-m", "entroseal", "bench", "--sizes", "16",
                "--backends", "schoolbook", "--format", "json", "--methods"]
        ok = subprocess.run(argv + ["affine"], env=env, capture_output=True,
                            text=True, timeout=120)
        assert ok.returncode == 0, ok.stderr
        assert [r["method"] for r in json.loads(ok.stdout)] == ["affine"]
        bad = subprocess.run(argv + ["bogus"], env=env, capture_output=True,
                             text=True, timeout=120)
        assert bad.returncode == 2
        assert "usage:" in bad.stderr
        assert "argument --methods" in bad.stderr
        assert "Traceback" not in bad.stderr

    def test_epsilon_below_2_to_the_minus_1024_exceeds_the_pad(self,
                                                               capsys):
        rc, _, err = run(capsys, ["bench", "--sizes", "64",
                                  "--epsilon", "2^-1074"])
        assert rc == 2
        assert "exceeds the pad length" in err

    @pytest.mark.parametrize("value", ["2^100000", "2**100000"])
    def test_overflowing_epsilon_is_a_usage_error(self, capsys, value):
        # 2.0 ** 100000 raises OverflowError, which used to escape as a
        # traceback with exit 1
        with pytest.raises(SystemExit) as exc:
            main(["params", "--n-bits", "64", "--t", "32",
                  "--epsilon", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "argument --epsilon" in err
        assert "Traceback" not in err
