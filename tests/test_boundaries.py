"""The layer boundaries the benchmark traces: each must still be crossed,
through the name its tracer replaces, on every round trip, or its
per-layer metric would go missing."""

import functools
import importlib
import importlib.util
import pathlib
from collections import Counter

import entroseal.cli
from entroseal import cipher
from entroseal.gf2 import BitPoly
from entroseal.rng import RandomSource

_SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("spans", _SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def _owner(path):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def _counted(calls, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_each_boundary_fires_on_a_classical_round_trip(monkeypatch):
    calls = Counter()
    for name, path, attr in spans.BOUNDARIES:
        owner = _owner(path)
        raw = vars(owner)[attr]  # a KeyError here: the boundary is gone
        if isinstance(raw, classmethod):
            wrapped = classmethod(_counted(calls, name, raw.__func__))
        else:
            wrapped = _counted(calls, name, raw)
        monkeypatch.setattr(owner, attr, wrapped)
    # the README example, called through the module as the benchmark does
    params = cipher.SchemeParams.derive(4096, 2048, 2.0 ** -40)
    key = BitPoly((1 << params.ell) - 1, params.ell)
    x = BitPoly(int.from_bytes(bytes(range(256)) * 2, "little"), 4096)
    blob = cipher.serialize(cipher.encrypt(key, x, params, RandomSource(7)))
    assert cipher.decrypt(key, cipher.deserialize(blob)) == x
    assert {name: calls[name] for name, _, _ in spans.BOUNDARIES} == {
        "cipher.derive": 1,
        "cipher.encrypt": 1,
        "cipher.decrypt": 1,
        "cipher.serialize": 1,
        "cipher.deserialize": 1,
        "keyexpand.expand_affine": 2,
        "gf2.find_irreducible": 2,
        "gf2.gf_mul": 2,
        "gf2.clmul": 2,
        "gf2.reduce_mod": 2,
        "rng.bits": 2,
    }


def test_the_cli_calls_the_cipher_through_the_names_it_imported():
    for _name, path, attr in spans.CLI_BOUNDARIES:
        assert _owner(path) is entroseal.cli
        assert vars(entroseal.cli)[attr] is vars(cipher)[attr]
