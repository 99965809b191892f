"""Checks that the README states the kernel's widths and the modulus
table as the code has them."""

import re
from pathlib import Path

from entroseal import gf2

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_comb_widths_match_the_kernel():
    # every "k-bit windows up to N bits" and every comb switch the Cost
    # model names ("Up to N bits of `b`", "Above N bits") is a kernel width
    windows = re.findall(r"(\d+)-bit windows up to (\d+) bits", README)
    switches = re.findall(r"(?:Up to|Above) (\d+) bits", README)
    want = {"4": gf2._NIBBLE_WINDOW_BITS, "8": gf2._WIDE_COMB_BITS}
    assert {k for k, _ in windows} == set(want)
    for k, bits in windows:
        assert int(bits) == want[k], (k, bits)
    assert switches
    assert {int(bits) for bits in switches} == {gf2._WIDE_COMB_BITS}


def test_readme_modulus_table_rows_match_the_table():
    lines = README.splitlines()
    start = lines.index("| degree | where it is reached | cold scan |")
    degrees = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        degrees.append(int(line.split("|")[1]))
    assert degrees == sorted(gf2._MODULUS_TABLE)
