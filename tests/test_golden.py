"""Golden sha256 hashes of every CLI output file at fixed seeds.

The hashes pin the on-disk bytes (shortest round-trip float text, label
quoting, comment stamp, row order), not just the values, so a change to
the CSV layer or the model format that alters a single byte fails here.
They change only with a deliberate output change (for example a
``__version__`` bump, which is stamped into every file); regenerate them
then with ``python tests/test_golden.py``.
"""

import hashlib
import tempfile
from importlib import resources
from pathlib import Path

from causaluplift import cli

GOLDEN = {
    "bif/data.csv": "231d589f77c07be90ccd29ea43869ad2bc66c2427fb7f62c0b96df5a3ed3a820",
    "bif/ground_truth.csv": "94f71a0580591718de43ae6713eee4b5af0ab6edf7e6cf6b498bd25a249281d3",
    "bif/net.json": "8c96599b3e5e59e7fc95fbcddac2658044043ff07a276ccf63669227d5bc81bb",
    "bif/schema.json": "967b7bb6c567e23ea57bb2f2e7a4b25aab221bf94f28988012291bff5e7d120a",
    "bif/test.csv": "15bd14399cb3d75b77b50034ecb7b767ff6ad851e9f4d8a73ca1f39a205df324",
    "bif/test_truth.csv": "d8b5ed167c358110e206b4386cd7159fbda3d8f62c2a864eab84f6b50d6b05c2",
    "bif/train.csv": "d177d5b59d1c805302595d8528cdf46632a97a16cc8847b0ca6839d95ee1ef38",
    "bif/train_truth.csv": "cb6c5b7b54bdf9186634f3627aa36716aa851000838a01ed7ec0180a0bb9759d",
    "bif_logistic.json": "f57d1edf62b4f741b11954b493bd4dab93ee0d143fb71e25eafad6a2aaaba2b6",
    "bif_logistic_preds.csv": "f4ee92cbc1a01b3406c3838a87f206a180416c094c752bbdd89f64fdb0d53e11",
    "bif_plain/data.csv": "ba5ddc5500419534e5d70c805e76576e07ab32e853e33657f70eaa97bef78c53",
    "bif_plain/net.json": "8c96599b3e5e59e7fc95fbcddac2658044043ff07a276ccf63669227d5bc81bb",
    "bif_plain/schema.json": "72936fdc5f4c11c9678a8834f0aa3e8907070cc64c680e03168dd5abc78cec72",
    "forest.json": "4d5f11bbd72af9d1d41436f0adbf9ee1f94a651a5c32df892d5737636a0607d4",
    "forest_curve.csv": "497385a136cc72001b9f94c6b4dff4fa73666a8cdb76214ab5651008d72ae7d4",
    "forest_eval.json": "ff4e0e64e68d0cbd84ee023354177341f3abd7c9bce4c0b6fc79eb4338e8dccb",
    "forest_preds.csv": "94e78f74330d1ec52ce063e59277c3606c520adf9f4603426dd333ec7be30a3e",
    "forest_wide.json": "c2b180448c3dc3ae21c39de9351fa625767e895652b610f56f09b8a2ac325604",
    "forest_wide_preds.csv": "97b1f693b544cfbe50dfc93256851a67a33d122f7f0aa4b8352e4158e2b20a7c",
    "gen/data.csv": "9812a9bd1b45cdd4c83ec3adb6f4045a50fc8d5445924d2205bfed9ce3e8abdc",
    "gen/ground_truth.csv": "93fedfb2a727e89e435aee001a2e660ebf2604199255e395bb00d748d51ab0d5",
    "gen/net.json": "9d0cc2a9856611dfebb08faca003832532c7200cc59dcb6656a4aa5e8dad1955",
    "gen/schema.json": "b172ea5812e7032f1c5096e64157b041594bd2b32272d1114b1232b59eed6a82",
    "gen/test.csv": "793571e25bff8014d895d8d3be04fe3a07301b0b1a13cdf5d1e10949a15783f9",
    "gen/test_truth.csv": "96fac1ba1a6ba0ea75b7c3251cc765f005234bb45e907fd270a8dfbf5f68a11e",
    "gen/train.csv": "6c53725ab4f16b8ef6ea2d30d6782c70ec6bd230d9241ca660841157adbf825b",
    "gen/train_truth.csv": "f290495ab73f1707d78fe143e69b0e7e233facc347b6157e211991be61f11b3f",
    "gen2/data.csv": "fee0b2b4eb82dcf3442737a065021965bde69eb1d8b08d3657e3d98983c900b9",
    "gen2/ground_truth.csv": "afdbdee358f8757984fdcd827929f76f1c08cdeed819b6a7cb6f20413906d9e6",
    "gen2/net.json": "3832e86e6dbf4f7428fa9997012e4f5555cfb6fc711de1693ed2ce21b86254c8",
    "gen2/schema.json": "0bf66d6b4858d0d6ffa8c7260e29a5b0907b06b778bc1e8dd620106b6b35488f",
    "gen2/test.csv": "b536ea32127bef5fc8b340139f93c5b958cecc0c601e891163a83dfa81d586be",
    "gen2/test_truth.csv": "887a66677b1f42a6f51c060791534ddeb5ca021c4d46899927e5a422b375bfa4",
    "gen2/train.csv": "d737f1749d2cec29cab56d32e12f9ff92bcf939048862dbe6e5e3d34fd70b86f",
    "gen2/train_truth.csv": "547876e0c6c9407e22b68514f407efdf900252563d177e3e620a1a41bec9f3cd",
    "logistic.json": "47877bc473558712a295a7fcef519e21d22aee5016ab678fe8b25617babb1f0f",
    "logistic_curve.csv": "359c8476938cbc17c3caa79f62d9da3dac90fc0477c6b7f8202cf301a17c9dc4",
    "logistic_eval.json": "c54b65ef748c199d0e3197f40b3006f8f7624c9d2a8a0c06cbaffe0f2f9959a7",
    "logistic_preds.csv": "59a7c5abe4c67f0226c8eda99756bf5fbf065df8699f8a00f746c03806c6a8f7",
    "parents.json": "02fee444ac72bc9d6a18553eb4b732d81137019fd6d45886bdab7cde6dafde7e",
    "parents_explain.json": "9e2df456eb9659230d79b9f55a0b32046119642a3ea664ebbadfb5d5c342f125",
    "qini/folds.csv": "3567ff84eaeb7470ac097a04311e12926a99dcfdce71ed3e78db7a64e7c18454",
    "qini/mean_curve.csv": "beee9c1f6322af7def0f30cd3c507ba82384174000742e7ffe065ca40f5d65cb",
    "qini/metrics.json": "f99d4c41e2848070d03ffe7918ed4d760799cfaa9e9a6c78c6bff85ec79f25a0",
}


def _run(*argv):
    assert cli.main([str(a) for a in argv]) == 0, argv


def pipeline_hashes(root):
    """Run generate (both bundled groups, and BIF with and without ground
    truth), discover (with and without the test trace), train (on group 1,
    and on BIF data with categorical covariates), predict, eval and qini
    under ``root``; return {relative path: sha256 hex}."""
    root = Path(root)
    gen, bif_gen = root / "gen", root / "bif"
    _run(
        "generate", "--group", "group1", "--samples", 400, "--noise-vars", 6,
        "--seed", 11, "--split", 0.5, "--out", gen,
    )
    bif = root / "clinic20.bif"
    bif.write_text(
        resources.files("causaluplift").joinpath("fixtures/clinic20.bif").read_text()
    )
    _run(
        "generate", "--bif", bif, "--treatment", "ChestPain", "--outcome", "Referral",
        "--samples", 300, "--seed", 4, "--split", 0.3, "--out", bif_gen,
    )
    _run(
        "generate", "--group", "group2", "--samples", 300, "--noise-vars", 4,
        "--seed", 7, "--split", 0.4, "--out", root / "gen2",
    )
    _run("generate", "--bif", bif, "--samples", 200, "--seed", 5, "--out", root / "bif_plain")
    train, test, schema = gen / "train.csv", gen / "test.csv", gen / "schema.json"
    _run("discover", "--data", train, "--target", "Y", "--out", root / "parents.json")
    # the trace pins every statistic and p-value bit, continuous columns included
    _run(
        "discover", "--data", root / "gen2" / "test.csv", "--target", "Y", "--alpha", 0.5,
        "--explain", "--out", root / "parents_explain.json",
    )
    _run(
        "train", "--data", train, "--treatment", "T", "--outcome", "Y",
        "--out", root / "logistic.json",
    )
    _run(
        "train", "--data", train, "--treatment", "T", "--outcome", "Y",
        "--classifier", "forest", "--seed", 3, "--n-trees", 5, "--max-depth", 6,
        "--out", root / "forest.json",
    )
    # six covariates, three of them continuous, so each node draws from
    # many candidate splits and the hashes pin the per-node feature draw
    _run(
        "train", "--data", train, "--treatment", "T", "--outcome", "Y",
        "--classifier", "forest", "--seed", 3, "--n-trees", 5, "--max-depth", 6,
        "--parents", "X1,X2,N1,N2,N3,N4", "--out", root / "forest_wide.json",
    )
    # Age and Diet are categorical, so the model pins an encoder category
    # list and the predictions pin the one-hot path
    _run(
        "train", "--data", bif_gen / "train.csv", "--treatment", "ChestPain",
        "--outcome", "Referral", "--parents", "Age,Diet,ECGAbnormal",
        "--out", root / "bif_logistic.json",
    )
    _run(
        "predict", "--model", root / "bif_logistic.json", "--data", bif_gen / "test.csv",
        "--out", root / "bif_logistic_preds.csv",
    )
    for kind in ("logistic", "forest", "forest_wide"):
        _run(
            "predict", "--model", root / f"{kind}.json", "--data", test,
            "--theta", 0.01, "--out", root / f"{kind}_preds.csv",
        )
    for kind in ("logistic", "forest"):
        _run(
            "eval", "--predictions", root / f"{kind}_preds.csv",
            "--ground-truth", gen / "test_truth.csv", "--data", test, "--schema", schema,
            "--curve-out", root / f"{kind}_curve.csv", "--out", root / f"{kind}_eval.json",
        )
    _run(
        "qini", "--data", gen / "data.csv", "--treatment", "T", "--outcome", "Y",
        "--folds", 3, "--points", 5, "--seed", 2, "--out-dir", root / "qini",
    )
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path != bif
    }


def test_cli_outputs_match_goldens(tmp_path):
    got = pipeline_hashes(tmp_path)
    assert sorted(got) == sorted(GOLDEN)
    changed = sorted(name for name in GOLDEN if got[name] != GOLDEN[name])
    assert not changed, f"output bytes changed: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in pipeline_hashes(tmp).items():
            print(f'    "{name}": "{digest}",')
