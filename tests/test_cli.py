import os

from compfeat.cli import main
from compfeat.data import save_schema, write_csv
from compfeat.oracle import make_bank_like


def test_predict_creates_output_directory(tmp_path):
    ds, _ = make_bank_like(80, seed=0)
    data, schema = tmp_path / "data.csv", tmp_path / "data.schema"
    write_csv(ds, data)
    save_schema(ds.schema, schema)
    out = tmp_path / "fresh" / "out"
    code = main(["predict", "--mode", "ord", "--data", str(data), "--schema", str(schema),
                 "--seed", "0", "--out", str(out)])
    assert code == 0
    assert os.path.exists(out / "prediction_ord.json")
