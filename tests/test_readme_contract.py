"""The README contract: its `run.cfg` pipeline, synth to sweep, gives known
bytes and the paper's headline.

The config is read from README.md's `# run.cfg` block and run in-process,
with `train.report` set so that the training report is written too. The
artifact digests and the `eval.json` and `train_report.json` field values
hold for one numpy/BLAS/scipy build, named in `PINNED_BUILD`; on any other
build only they are skipped. The headline holds on every build.
"""

import hashlib
import json
import os
import re

import numpy as np
import pytest
import scipy

from assocrank import cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
COMMANDS = ("synth", "pairs", "train", "rerank", "eval", "sweep")

# numpy, its BLAS and scipy (`erf` in training, `ndtri` in synthesis)
PINNED_BUILD = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31", "scipy": "1.17.1"}

# sha256 of each artifact's bytes
ARTIFACTS = {
    "out/passages.aare": "24d68443e00d1ed614f78fce35317307492cc227d065e3d316f043da3bd59977",
    "out/queries.aare": "ce0146492a63e2bd569eba279d7c1f6e41fca312c86504a374de75f59660e2a6",
    "out/records.jsonl": "6ca6d935ae8c405da2b553c46a37e60928313ca353966b113b482f395ad398b6",
    "out/texts.jsonl": "df39b0897396a5848da33095a8f8b67caad60deaf0d5460411e82e7cffe6dce7",
    "out/pairs.tsv": "40482f97e35fe26192472163a0e5054ef36d9025490dbea019732027180aff8a",
    "out/model.aarm": "982dbc6961a65bca18352a9f37e42b6bafc12ab68f593c30ac4422bcaad57b0b",
    "out/rerank.jsonl": "8d5b7f04a3bc5adab123f603b7cfe0d1f68d5c082de46daeabdcaed47795613b",
    "out/lambda.csv": "0e6db975e4aff1560da7c6c8a035aec34eee04f7c134c2abf782dc4339aa8f38",
    "out/depth.csv": "e9ae0cdba9c204f700ae5c8c284d07584bd91c5cdba0f6cf35313a72d0bcafd2",
}
# sha256 of `json.dumps(value, sort_keys=True)` for each pinned field; other
# fields, such as `timing` or one added later, are not pinned
EVAL_FIELDS = {
    "config": "5d074fdd992b388ccf883f5b9f433337314c669c7df76b537d4ad0c906f88545",
    "deltas": "da694639536a6c25d09259c61e5d69ee32c86cf9173c9e6b1562775ca88201e8",
    "easy": "888f36c5685356b6fa54253720b1ef51c35e5a4802c08adaa69cb275c71e1e65",
    "hard": "dbbf75293e7d4aeebeda8476195979979034d32fb434400d332638ae10b91c54",
    "movement": "25f07aaf73fc924ecd71ff677747977f5fb56b4d26dafb73a213d35354f9d293",
    "systems": "a898a42f19f183b53e4bc716b6944dedb2a9d1c5b852893c3502615cbf16480e",
}
TRAIN_REPORT_FIELDS = {
    "epoch_losses": "792b5dc5e3bf9cead4249cfc5d01462cf75101dccb755de194ebd3f84f63399e",
    "epochs_run": "983bd614bb5afece5ab3b6023f71147cd7b6bc2314f9d27af7422541c6558389",
    "final_train_accuracy": "d0ff5974b6aa52cf562bea5921840c032a860a91a3512f7fe8f768f6bbe005f6",
}

# the paper's result on this config: R@5 of each system, and the paired
# delta with its 95% bootstrap CI
HEADLINE = {"dense_r5": 0.595, "rerank_r5": 0.923, "delta": 0.328, "ci_low": 0.307, "ci_high": 0.348}


def this_build() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}", "scipy": scipy.__version__}


def on_pinned_build() -> bool:
    build = this_build()
    return all(build[name] == want or build[name].startswith(want + ".") for name, want in PINNED_BUILD.items())


def readme_config() -> str:
    with open(README, encoding="utf-8") as fh:
        found = re.search(r"```\n(# run\.cfg\n.*?)```", fh.read(), re.DOTALL)
    assert found, "README.md has no `# run.cfg` block"
    return found[1]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def field_digests(path, pinned: dict[str, str]) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return {name: digest(json.dumps(payload.get(name), sort_keys=True).encode()) for name in pinned}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """The directory the README pipeline ran in."""
    root = tmp_path_factory.mktemp("readme")
    (root / "run.cfg").write_text(readme_config(), encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for command in COMMANDS:
            argv = [command, "--config", "run.cfg", "--set", "train.report=out/train_report.json"]
            assert cli.main(argv) == 0, command
    finally:
        os.chdir(cwd)
    return root


def test_headline(pipeline):
    with open(pipeline / "out/eval.json", encoding="utf-8") as fh:
        report = json.load(fh)
    r5 = report["deltas"]["5"]
    got = {
        "dense_r5": report["systems"]["dense"]["recall_at"]["5"],
        "rerank_r5": report["systems"]["rerank"]["recall_at"]["5"],
        "delta": r5["delta"],
        "ci_low": r5["ci_low"],
        "ci_high": r5["ci_high"],
    }
    assert got == pytest.approx(HEADLINE, abs=5e-4)


def test_pinned_bytes(pipeline):
    if not on_pinned_build():
        pytest.skip(f"bytes pinned for {PINNED_BUILD}, this build is {this_build()}")
    got = {name: digest((pipeline / name).read_bytes()) for name in ARTIFACTS}
    assert got == ARTIFACTS
    assert field_digests(pipeline / "out/eval.json", EVAL_FIELDS) == EVAL_FIELDS
    assert field_digests(pipeline / "out/train_report.json", TRAIN_REPORT_FIELDS) == TRAIN_REPORT_FIELDS
