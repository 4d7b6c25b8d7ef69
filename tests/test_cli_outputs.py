"""Byte guard for the command-line modes the benchmark never runs.

Each run writes its output files for one of two models: tiny4, and a model
with a skipped ``type pool`` block, a ``groups 2`` layer and one layer whose
input and weight samples are seeded float32 files.  Every output file's
SHA-256, with the run directory replaced by a placeholder, must equal the
digest recorded here, so a refactor that changes any byte of any mode fails.
"""

import hashlib
import os

import numpy as np
import pytest

from bfpsearch.cli import EXIT_OK, main

from conftest import TINY4_TEXT

MIXED_TEXT = """format_version 1
model mixed

layer 1
  c_in 3
  c_out 8
  input 12 12
  kernel 3 3
  pad 1 1
  input_sample act.f32
  weight_sample w.f32

layer 2
  type pool

layer 3
  c_in 8
  c_out 8
  input 12 12
  kernel 3 3
  stride 2 2
  pad 1 1
  groups 2

layer 4
  c_in 8
  c_out 16
  input 6 6
  kernel 1 1
"""

SMALL_GRID = ["--se", "2,3,4", "--bs", "2,8"]

RUNS = {
    "default": [],
    "pareto-csv": ["--mode", "pareto", "--csv"],
    "no_qat": ["--mode", "no_qat"],
    "no_dm": ["--mode", "no_dm"],
    "layer-scope": ["--scope", "layer"],
    "qb16": ["--qb", "16", "--bs", "1,3,8"],
    "no-first-load": ["--no-first-load", "--mc", "4096", *SMALL_GRID],
    "table-model": ["--loss-source", "table", "--acc-table", "{run}/model.table", *SMALL_GRID],
    "table-layer": ["--loss-source", "table", "--acc-table", "{run}/layer.table", "--scope", "layer", *SMALL_GRID],
    "sweep": ["--sweep", *SMALL_GRID],
}

# Recorded before the dm module described each operand once.
DIGESTS = {
    "mixed/default": {
        "plan.json": "fe0a8ec701ec488734ac56dbd23bb569feec3bb0443052ad1e6a59112d8f3213",
        "report.json": "0803dcf2caf977a54416e160d874d015a143b090aa6a23dc6e65ef264b9d2236",
        "summary.txt": "5bd28a4262805464e37a49673bb712a2dd17d23a0877877b9e266e5798c4d69d",
    },
    "mixed/layer-scope": {
        "plan.json": "b225352bf5a54cb8b85dbc2e456aa826bf0ef07e744609a492a9bd0b854ba9b5",
        "report.json": "daaa54eb30a7a96661be602ea94e1fadddfae43ecf04c835b6e31d293ced2f4a",
        "summary.txt": "a006af6c5a36e52f6f5a0b642a5a7b2bb77896894cb4860195e78462f958b1e2",
    },
    "mixed/no-first-load": {
        "plan.json": "b0e703dcd071518c64a6b16293239d506897e8f5cee1a7db66c219b976a4ed87",
        "report.json": "2808d14a0a4844e686486d193480dd4c53bc6331d11e27dca42cefcd0d0bf324",
        "summary.txt": "f54b6884df0c30be261ec10c3bbd6e28575489cc806d26ad8c307c2692fa605a",
    },
    "mixed/no_dm": {
        "plan.json": "b15c5112229b7c28f55bcfc9936da746e5a5ed8495825fb49bfe0b60571b5cce",
        "report.json": "e339d3399f92aafb8032efbcc80176e3e25b444af18c7bda7ddfed799cc8b562",
        "summary.txt": "4fcf32f2ccf01cc99d505a7d1b66771c05d889a7e76e498054d9b85e2d65516f",
    },
    "mixed/no_qat": {
        "plan.json": "42013fdc9de1c4a67bf255625005910af17b011bbe84e6805e468b669e1d9297",
        "report.json": "0ceb61a7f62d1f923208008c796836f907dea5d4df57ad286bd8c4ac032e65f1",
        "summary.txt": "89368878fd18f26cfe5830388f3780669762dbc11ac50392e54686e857abee55",
    },
    "mixed/pareto-csv": {
        "candidates.csv": "7ec2b0e5b246030d0d0e3bbe91ef733e27e9d071f28545a275e9352cf85ae2d9",
        "plan.json": "a11dad670dbcee4c52b3094034fd2817044c72702790d21c7451fbc6eb7a96c7",
        "report.json": "790c2be808cf6fd909a0563104543ae0e6fc054470e594100e37a35bdec66454",
        "summary.txt": "440026602d10d420d5b621bff8a7304d35409959c444a654de8d181228f02de9",
    },
    "mixed/qb16": {
        "plan.json": "b96bf2b6d0c2d1cb41bcb2d8a9b2b4994c8fe6daac8d736ae4b658a80c46dbbd",
        "report.json": "05c60ca362ea708563bcc59c308b7c8104a7e59ed56f4536928648fa85eec030",
        "summary.txt": "61ce210786aa682d4722111140eab6c4cd44334483497c79a6daff5983366ae5",
    },
    "mixed/sweep": {
        "sweep.csv": "9acbc18b5c52394dc8d81b5d83b886fe33b2edc762d5f536b665a5a8f426e2d5",
        "sweep.json": "0e45601168961574eb1ae1d2940ae37769d5aaf4d06c7398aeee0d4506f62422",
    },
    "mixed/table-layer": {
        "plan.json": "4982c3dd498a3aa84a0c9898b435df89f6b29dbabe7dcc1ebb2bc6e2a1bba856",
        "report.json": "e031dceae076cfdca5081471f649226e7a6c3b9da1dd54fb27e7faecd6a90b66",
        "summary.txt": "882c4ad5f50706e2e6c18ed3232dcd89772b1d443edfb3c65d758f89655dd343",
    },
    "mixed/table-model": {
        "plan.json": "00183b487145e0b388b9e222e01c31db58b10c9f9d01fc93dc4bce7e42868561",
        "report.json": "aba9a79d971c576fa500318755950ecbcf940b0b1efdcc21ed4290785fcaa995",
        "summary.txt": "aa4d7bc930ff0887c93d319fe20e07e904fc99aaa41d4e9349bf850579a41d16",
    },
    "tiny4/default": {
        "plan.json": "360fabb66f69ca5689625d4a37e90c55c2c129dbdb3b47ef0535a7ec61e645a4",
        "report.json": "02064a802eea9cbb82ac242092fae1754d28ba44365dc5230f0556e9e75f5b2d",
        "summary.txt": "d79a247e12e1e598430bda55a0dd407114a8e1ba9afc23f02f4d7f6d25d34b44",
    },
    "tiny4/layer-scope": {
        "plan.json": "30a0a22158b7cb6f356a2f03f1576856883132dff19d8cc9365832a16509e18a",
        "report.json": "68e022d519997411a8eaaafeacc7d7f9982354e48f51a0cfe527d9e928efdb96",
        "summary.txt": "e65eeaa5a32b14e9773efe2e3e7d3286c5aa0f3e9dab9ca7a85db1caf6c449d0",
    },
    "tiny4/no-first-load": {
        "plan.json": "9436974a9ca5618c87d501b085f6b284fe7ad52d2b17d929f9f5dcde7f6b1947",
        "report.json": "87bae52bb8e39d091fc56be6b25d4f5cabcc5df0e6a97dba58b44755f58e8736",
        "summary.txt": "2809ea371fdf5d5e22f5f415d341cbd273a5d6b66559e2e99e559028abb65381",
    },
    "tiny4/no_dm": {
        "plan.json": "0eb7108e62816a916a8d55e8b1379fbcf54dabaa09159278c07a2768f60d9ea7",
        "report.json": "de176b13d35ad94a7d2e4aa6e2abf291c0e395870561d9fec3d2bc54ef43b87c",
        "summary.txt": "7420dc03bde0503ac2fcb93e835b60d05458d4a51cea94612fed179852219e31",
    },
    "tiny4/no_qat": {
        "plan.json": "2282909b7c0a09560785e352b9fdddbae25daf97ecb142d1be52cccbae0688b1",
        "report.json": "aa0856d421dfc3fb4e4646083674c19e9b8a2327ecc4c7ea245e0e47019cb822",
        "summary.txt": "afb55bff4c33d0c0cfa5bd8d11a3626ec5ed4223ae8e3f727d5b256b9a6c48b6",
    },
    "tiny4/pareto-csv": {
        "candidates.csv": "b826220d79207b04e6bb55aa5ccf735ac4aed592273bf13233110b9711c3b58e",
        "plan.json": "80094be988f2b786bd0804e2db4ca33b1fbe1204827f0901b7faa56f831c19c2",
        "report.json": "6790bef3184c92f50d4e3ee415ba5f287e8112ae2ca89f4f94812a894bddb46d",
        "summary.txt": "4c9f5b2b592c6d7de39d2d4c1d30bd600e9128e957a649cb0fe8e294fdfef78e",
    },
    "tiny4/qb16": {
        "plan.json": "c5349364e6f555e8131e48322b6cd22603db44633e6335b204112120aeb40f25",
        "report.json": "f5b80203e25ab3a8d4ea6b49e59c85f5082b65c0c8e355c2c94cd4b1659861b5",
        "summary.txt": "0cd7fc172a4fd02423b25bc6c966d4b8ac5e7b677ca1fc54bab5930005356c47",
    },
    "tiny4/sweep": {
        "sweep.csv": "723956431d5e7e2c86929555fc527e5415dfb80b77b906531477814e91a31ccd",
        "sweep.json": "244200edc1c6b4e4b11200bc6a852ac849a244f9c5ca688a652888c0160ef376",
    },
    "tiny4/table-layer": {
        "plan.json": "4456b55f8232ce07bf8e472d9814a277d0fbd7f4c1eace3d609f7840f6ab7669",
        "report.json": "766b4f271550a24f1bfc97ce7b37edae7eaf536da8dee03cf23e8ea8d9ab2cb2",
        "summary.txt": "40467ef332370f937eb95087d3b53b9341904647ca1c22ab5109448b430c5408",
    },
    "tiny4/table-model": {
        "plan.json": "d3ed1aa8dccf9902e3853c4410a343393c6d005656014e2ed1f8b7591ce22e14",
        "report.json": "756aa374b2ccf363513d8ddc31c8674b4a8954966c3d762682d2afa98b12af9a",
        "summary.txt": "bf87ea76a4335566d381e54b0a880535bc3c88044ffbdf102ae664ec73b60686",
    },
}


def write_inputs(run_dir, model):
    """The model file and both accuracy tables; returns the model's path."""
    os.makedirs(run_dir)
    rng = np.random.default_rng(18)
    if model == "mixed":
        text = MIXED_TEXT
        with open(os.path.join(run_dir, "act.f32"), "wb") as fh:
            fh.write(rng.standard_normal(3 * 12 * 12).astype("<f4").tobytes())
        with open(os.path.join(run_dir, "w.f32"), "wb") as fh:
            fh.write((0.1 * rng.standard_normal(8 * 3 * 3 * 3)).astype("<f4").tobytes())
        source_indices = (1, 3, 4)
    else:
        text = TINY4_TEXT
        source_indices = (1, 2, 3, 4)
    configs = [(se, bs) for se in (2, 3, 4) for bs in (2, 8)]
    model_rows = [f"model {se} {bs} 8 {0.05 / se + 0.002 * bs:.6f}" for se, bs in configs]
    layer_rows = [f"layer:{i} {se} {bs} 8 {0.01 * i / se + 0.001 * bs:.6f}"
                  for i in source_indices for se, bs in configs]
    for name, rows in (("model.table", model_rows), ("layer.table", layer_rows)):
        with open(os.path.join(run_dir, name), "w", encoding="utf-8") as fh:
            fh.write("\n".join(["format_version 1", *rows]) + "\n")
    path = os.path.join(run_dir, f"{model}.model")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def run_digests(run_dir, model, extra) -> dict:
    """{output file name: SHA-256 of its bytes, run directory as ``<run>``}."""
    path = write_inputs(run_dir, model)
    out = os.path.join(run_dir, "out")
    argv = ["--model", path, "--out", out, "--jobs", "1"] + [a.format(run=run_dir) for a in extra]
    assert main(argv) == EXIT_OK
    digests = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            data = fh.read().replace(run_dir.encode(), b"<run>")
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.mark.parametrize("model", ["tiny4", "mixed"])
@pytest.mark.parametrize("run", sorted(RUNS))
def test_cli_mode_outputs_match_recorded_digests(tmp_path, run, model):
    got = run_digests(str(tmp_path / "run"), model, RUNS[run])
    assert got == DIGESTS[f"{model}/{run}"]
