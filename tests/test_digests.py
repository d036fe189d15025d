"""Pinned SHA-256 digests of the outputs that no BLAS call computes.

On the committed 300-row bank-like table in ``tests/data`` (written by
``write_csv`` and ``save_schema`` from ``make_bank_like(300, seed=0)``),
the table below pins, for seeds 0 and 1, with and without
``--max-n 120``:

* the bytes of each file ``prepare`` writes;
* the bytes of the ``confidences`` and ``hard_estimates`` arrays of each
  ``estimate --method comp`` archive;
* the int64 bytes of the ``split_train_test`` indices, train then test,
  of each seed's dataset at the default fraction;
* the sorted-key JSON of each CF's ``acc`` and ``macro_f1`` entries in
  ``evaluate``'s comp scores.

Two kinds of output are left unpinned.  ``ce`` and ``se`` go through
``np.log``, whose last bit can differ between the SIMD paths numpy
picks for a CPU, and so can everything a graph method or the predictor
computes through BLAS.  The reports' ``content_hash`` covers the config
echo, which holds the run's own data, schema and output paths.

To regenerate the table after a deliberate change of output, run this
file as a script from the repository root with ``src`` on the path and
paste what it prints over ``DIGESTS``::

    PYTHONPATH=src python tests/test_digests.py
"""

import contextlib
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from compfeat import cli
from compfeat.data import split_train_test
from compfeat.propagation import EstimationResult

DATA = Path(__file__).parent / "data"
SEEDS = (0, 1)

DIGESTS = {
    "max_n=0/evaluate comp acc, macro_f1":
        "86e0d35d7f243e2db86c03ab90b3058b776be00a3a6dc66302354b020fdc4896",
    "max_n=0/seed0/comp confidences":
        "2b5d93007a138eec7c454eb42f248c176ff8bfe1dddfbfb0fa50068bfcfe12d3",
    "max_n=0/seed0/comp hard_estimates":
        "64e77882cf91a749ee3719290af3138f4b436676f8bd4c569ba28fc5555c500d",
    "max_n=0/seed0/prepared_seed0.csv":
        "a0a85b61d39b8e5eaa3558ffe5b26f5b99ea718f6a54614e91dd93b3204f6579",
    "max_n=0/seed0/split_train_test":
        "dffd675945dc3e1ccb807ef36d8e6905a0b282fa4fc683e5ea9939142ee6169d",
    "max_n=0/seed1/comp confidences":
        "0cdd6c3484a5dd9623b7cc0787b523cf163467318b9334f950b1aa3e5cfc2c6d",
    "max_n=0/seed1/comp hard_estimates":
        "9192de5f154b0f68416f57f79fa2638fbdac595a9bf436c33153594182b6262f",
    "max_n=0/seed1/prepared_seed1.csv":
        "1f5e5c4483bac9feb7398ffa8049f17539d921bc4a57e1cff2f3d535551c97ac",
    "max_n=0/seed1/split_train_test":
        "7e282f29d0d1df8d726098133d99779e5523b8076e0312a8cb07e7d51337f489",
    "max_n=120/evaluate comp acc, macro_f1":
        "b6a2e835a9cd05afcc389fe99a1f5b0218f10c93de7c0d7173fd803cf0f6310e",
    "max_n=120/seed0/comp confidences":
        "dc2d0b2ea506f8f9f42ffcda53a759e658c3c149961c26e3c8d5f751d97daca7",
    "max_n=120/seed0/comp hard_estimates":
        "f970e82685f80531ee4e138b22f030bed7df27635f766a511aaaf3fee7ed9639",
    "max_n=120/seed0/prepared_seed0.csv":
        "8ab93d046b114cfc9147d3a116b960cfcbc37841db1cfaf4b7e9601212893824",
    "max_n=120/seed0/split_train_test":
        "b9f4ce78e523733643e09753157eff8edb8e9a7fd6527dd381e38eeeec4a3196",
    "max_n=120/seed1/comp confidences":
        "1943def78c39e785898b1167293f8b9ecdeae37cb8e1f0591655abf167a9600b",
    "max_n=120/seed1/comp hard_estimates":
        "f64a40332ba7b917bab22cc14d0a4bdfe24c32d9c01ab742b8b719998164be8d",
    "max_n=120/seed1/prepared_seed1.csv":
        "b996bbd2fa6380bc63f582c2b0eb08c5d2d42d14acd40c731d03d5597fb1748e",
    "max_n=120/seed1/split_train_test":
        "1ae1d4953a04f079cdd60d24332513133cba9a4da758e9395f416a6a90000f55",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def compute_digests(work: str) -> dict[str, str]:
    """The digests of the table above, from runs that write into ``work``."""
    digests = {}
    for max_n in (0, 120):
        out = os.path.join(work, f"max_n-{max_n}")
        flags = ["--data", str(DATA / "bank300.csv"), "--schema", str(DATA / "bank300.schema"),
                 "--seed", ",".join(map(str, SEEDS)), "--max-n", str(max_n), "--out", out]
        for command in (["prepare"], ["estimate", "--method", "comp"], ["evaluate"]):
            if cli.main([*command, *flags]) != 0:
                raise RuntimeError(f"compfeat {' '.join(command)} failed")
        cfg = cli.load_config(None, {"data": flags[1], "schema": flags[3],
                                     "max_n": str(max_n), "out": out})
        source, _ = cli.load_source(cfg)
        for seed in SEEDS:
            key = f"max_n={max_n}/seed{seed}"
            digests[f"{key}/prepared_seed{seed}.csv"] = sha256(
                Path(out, f"prepared_seed{seed}.csv").read_bytes())
            result = EstimationResult.load(cli.result_path(cfg, "comp", seed))
            digests[f"{key}/comp confidences"] = sha256(result.confidences.tobytes())
            digests[f"{key}/comp hard_estimates"] = sha256(result.hard_estimates.tobytes())
            train, test = split_train_test(cli.experiment_dataset(cfg, source, seed),
                                           cfg.fraction, seed)
            digests[f"{key}/split_train_test"] = sha256(
                np.concatenate([train, test]).astype("<i8").tobytes())
        with open(os.path.join(out, "evaluation.json"), encoding="utf-8") as fh:
            scores = json.load(fh)["scores"]["comp"]
        pinned = [{"name": row["name"], "acc": row["acc"], "macro_f1": row["macro_f1"]}
                  for row in scores]
        digests[f"max_n={max_n}/evaluate comp acc, macro_f1"] = sha256(
            json.dumps(pinned, sort_keys=True).encode())
    return digests


def test_outputs_match_pinned_digests(tmp_path):
    assert compute_digests(str(tmp_path)) == DIGESTS


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(sys.stderr):
        table = compute_digests(work)
    sys.stdout.write("DIGESTS = {\n")
    for name, digest in sorted(table.items()):
        sys.stdout.write(f'    "{name}":\n        "{digest}",\n')
    sys.stdout.write("}\n")
