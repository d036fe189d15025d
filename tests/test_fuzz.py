"""Mutated input files through the CLI: every run exits 0, 2 or 3.

Each example applies 1 to 3 edits to one valid input file (the source
CSV, its schema, a config file or an estimate file) and runs in-process
``cli.main`` on it.  An edit puts a delimiter, a quote, a non-finite or
out-of-range number, arbitrary bytes or a word of the same file in place
of a few bytes or of one word.  An exception that escapes ``main`` fails
the test, as does any exit code other than 0, 2 or 3.

T, k and the seed list come from command-line flags, which override the
config file, so no mutation can make a run costly.  The paths come from
flags too, so no mutation can send an output elsewhere.
"""

import random
import re
import shutil
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from compfeat.cli import main
from compfeat.data import save_schema, write_csv
from compfeat.oracle import make_bank_like

TOKENS = [b"", b",", b'"', b"\n", b"\r", b"=", b"|", b"#", b" ", b"-", b".", b"nan", b"inf",
          b"1e309", b"1e-320", b"-1", b"0", b"1", b"2", b"0.5", b"18446744073709551616",
          b"-9223372036854775809", b"true", b"null", b"[", b"]", b"{", b"}", b"[]", b"{}",
          b"\xff", b"\x00"]

CONFIG = b"""T = 5
k = 8
gamma = 0.25
alpha = 0.9
fraction = 0.5
max_n = 0
l2 = 0.0001
estimate_only = job,marital
mode = soft
"""

FIXED = ["--seed", "0", "--T", "3", "--k", "5"]

# Data rows per load_csv block here: the 40-row CSV spans 7 blocks, so a
# mutation can put problems in different blocks.
CSV_BLOCK = 6

# Per mutated file, the commands that read it.
TARGETS = {
    "data.csv": (["prepare"], ["estimate"], ["predict", "--mode", "ord"]),
    "data.schema": (["prepare"], ["estimate"], ["predict", "--mode", "ord"]),
    "run.cfg": (["estimate", "--method", "comp"], ["predict", "--mode", "ord"]),
    "out/estimate_proposed_seed0.npz": (["evaluate"], ["predict", "--mode", "soft"],
                                        ["predict", "--mode", "hard"]),
}


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """A directory holding a 40-row bank-like CSV, its schema, a config
    file and the proposed method's estimate file for seed 0."""
    root = tmp_path_factory.mktemp("valid")
    ds, _ = make_bank_like(40, seed=0)
    write_csv(ds, root / "data.csv")
    save_schema(ds.schema, root / "data.schema")
    (root / "run.cfg").write_bytes(CONFIG)
    assert main(["estimate", *FIXED, *flags(root)]) == 0
    return root


def flags(root):
    return ["--data", str(root / "data.csv"), "--schema", str(root / "data.schema"),
            "--out", str(root / "out")]


WORD = re.compile(rb"[^\s,=|\"\[\]{}:]+")


@st.composite
def mutations(draw, text: bytes) -> bytes:
    """1 to 3 edits of ``text``.  A splice replaces up to 8 bytes at a
    position; a swap replaces one word (a cell, a key, a value, a
    number) with a token or with another word of the file."""
    # Positions come from a seeded Random: drawn by hypothesis, they would
    # cluster at the start of the file, in the header.
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    out = bytes(text)
    for _ in range(draw(st.integers(1, 3))):
        words = list(WORD.finditer(out))
        if draw(st.booleans()) or not words:
            at = rnd.randrange(len(out) + 1)
            start, end = at, at + rnd.randrange(9)
        else:
            start, end = rnd.choice(words).span()
        new = draw(st.one_of(st.sampled_from(TOKENS), st.binary(max_size=4),
                             st.just(rnd.choice(words).group() if words else b"")))
        out = out[:start] + new + out[end:]
    return out


@pytest.mark.parametrize("target", list(TARGETS))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_input_exits_typed(valid_inputs, tmp_path_factory, target, data):
    root = tmp_path_factory.mktemp("mutated")
    shutil.copytree(valid_inputs, root, dirs_exist_ok=True)
    path = root / target
    path.write_bytes(data.draw(mutations(path.read_bytes()), label="mutated"))
    for command in TARGETS[target]:
        args = [*command, *FIXED, "--config", str(root / "run.cfg"), *flags(root)]
        with mock.patch("compfeat.data._CSV_BLOCK", CSV_BLOCK):
            assert main(args) in (0, 2, 3), args
