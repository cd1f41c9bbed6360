"""Two small ``repro campaign`` command lines against recorded digests.

Byte-identity is otherwise checked run against run (workers 1 vs 4,
observe on vs off, killed vs uninterrupted), which a change that shifts
every run the same way passes.  These digests pin the serial path and
a sharded chaos run with traces, so such a change fails here.  A change
that means to alter measured bytes updates the constants below and says
why.  Digests are BLAKE2b-128 of the whole file, as
``perfbench/gate.py`` computes them.
"""

import hashlib

import pytest

from repro.cli import main

SERIAL_ARGS = ["--scale", "0.005", "--workers", "1", "--atlas-probes", "2"]
SERIAL_DATASET = "97177db3721b498122912bec11e90d34"

CHAOS_ARGS = [
    "--scale", "0.005", "--shards", "2", "--fault-preset", "chaos",
    "--observe", "--atlas-probes", "1",
]
CHAOS_DATASET = "3fae0124e85ef89799128e3413632e08"
CHAOS_TRACES = "44f7c5a029b720a63089da158da9e144"


def file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.blake2b(handle.read(), digest_size=16).hexdigest()


def run_campaign(directory, args):
    out = str(directory / "dataset.json")
    assert main(["campaign"] + args + ["--out", out]) == 0
    return out


@pytest.mark.parametrize(
    "args,pinned",
    [
        (SERIAL_ARGS, {"": SERIAL_DATASET}),
        (CHAOS_ARGS, {"": CHAOS_DATASET, ".traces": CHAOS_TRACES}),
    ],
    ids=["serial", "sharded-chaos-observed"],
)
def test_campaign_bytes_match_the_pins(tmp_path, args, pinned):
    out = run_campaign(tmp_path, args)
    base = out[:-len(".json")]
    digests = {
        suffix: file_digest(base + suffix + ".json") for suffix in pinned
    }
    assert digests == pinned
