import numpy as np
import pytest

from compfeat.data import Column, Dataset, FeatureSchema


@pytest.fixture
def tiny_schema():
    """One quantitative OF, one categorical OF, one CF (u=3), binary label."""
    return FeatureSchema((
        Column("age", "quantitative", "OF"),
        Column("color", "categorical", "OF", ("blue", "green", "red", "teal")),
        Column("status", "categorical", "CF", ("a", "b", "c")),
        Column("y", "binary", "label", ("no", "yes")),
    ))


def build_dataset(schema, n, seed=0, cf_truth=None):
    rng = np.random.default_rng(seed)
    of_values = []
    for col in schema.of_columns:
        if col.kind == "quantitative":
            of_values.append(rng.uniform(0.0, 10.0, size=n))
        else:
            of_values.append(rng.integers(1, col.size + 1, size=n))
    cf_cols = schema.cf_columns
    if cf_truth is None and cf_cols:
        cf_truth = np.column_stack(
            [rng.integers(1, c.size + 1, size=n) for c in cf_cols]
        )
    labels = rng.integers(1, 3, size=n)
    return Dataset(schema=schema, of_values=tuple(of_values), labels=labels,
                   cf_truth=cf_truth)


@pytest.fixture
def tiny_dataset(tiny_schema):
    return build_dataset(tiny_schema, 40, seed=1)


@pytest.fixture(scope="session")
def bank_like_rounds():
    """Both estimation rounds on ``make_bank_like(300)`` at k=20, T=20.

    Returns the dataset, the round-1 and round-2 encodings, the graph of
    each round and the stacked confidences after the last step of each
    round, as ``run_proposed`` reports them through its hook.
    """
    from compfeat.encoding import encode_of, encode_with_confidence
    from compfeat.oracle import make_bank_like
    from compfeat.propagation import run_proposed

    ds, _ = make_bank_like(300, seed=0)
    enc1 = encode_of(ds)
    graphs, last = {}, {}

    def hook(kind, round_idx, *payload):
        if kind == "graph":
            graphs[round_idx] = payload[0]
        elif payload[0] == 20:
            last[round_idx] = payload[1]

    run_proposed(ds, enc1, T=20, k=20, gamma=0.25, hook=hook)
    enc2 = encode_with_confidence(enc1, last[1], ds.schema.cf_columns, 0.25)
    return ds, enc1, enc2, graphs, last
