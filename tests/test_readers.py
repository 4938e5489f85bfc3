"""Every file reader fails typed.

Any byte flip, truncation or insertion of a saved checkpoint, an IDX pair
or a CSV file either loads or raises the reader's own error
(tests/test_cli.py checks that `oodkit eval` turns a checkpoint that does
not load into exit 1 with one line on stderr). Every file here is small,
and the readers compare what a header claims with the file size before
they allocate it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodkit import heads
from oodkit.data import (
    Dataset,
    IdxParseError,
    gaussian_blobs,
    load_csv,
    load_idx,
    write_csv,
    write_idx,
)
from oodkit.experiment import CheckpointError, load_checkpoint, save_checkpoint
from oodkit.model import SgdConfig, make_train_state, sgd_step
from oodkit.numerics import ContractViolation

# (operation, position, byte); the position wraps around the file.
MUTATIONS = st.tuples(st.sampled_from(["flip", "truncate", "insert"]),
                      st.integers(0, 2**16), st.integers(1, 255))
SWEEP = settings(derandomize=True, database=None, max_examples=200, deadline=None)


def mutate(blob: bytes, mutation) -> bytes:
    """blob with one byte xor-ed with a nonzero byte, cut short, or with
    one byte inserted."""
    operation, position, byte = mutation
    if operation == "flip":
        position %= len(blob)
        return blob[:position] + bytes([blob[position] ^ byte]) + blob[position + 1:]
    if operation == "truncate":
        return blob[:position % len(blob)]
    position %= len(blob) + 1
    return blob[:position] + bytes([byte]) + blob[position:]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The bytes of one saved checkpoint per head kind (after one step, so
    velocities are stored too), of an IDX pair and of a CSV file; and a
    directory to write mutated copies into."""
    root = tmp_path_factory.mktemp("readers")
    ds = gaussian_blobs(3, 4, 2.0, 0.5, 2, seed=0)
    blobs = {}
    for kind in heads.HEAD_KINDS:
        state = make_train_state([4, 3, 3], kind, 3, seed=0)
        sgd_step(state, ds.inputs, ds.targets, SgdConfig())
        save_checkpoint(state, root / "ckpt.bin")
        blobs[kind] = (root / "ckpt.bin").read_bytes()
    unit = ds.inputs - ds.inputs.min()
    write_idx(Dataset(unit / unit.max(), ds.targets), root / "images.idx", root / "labels.idx")
    blobs["images"] = (root / "images.idx").read_bytes()
    blobs["labels"] = (root / "labels.idx").read_bytes()
    write_csv(ds, root / "data.csv")
    blobs["csv"] = (root / "data.csv").read_bytes()
    return blobs, root


@SWEEP
@given(st.sampled_from(heads.HEAD_KINDS), MUTATIONS)
def test_mutated_checkpoint_loads_or_is_a_checkpoint_error(files, kind, mutation):
    blobs, root = files
    path = root / "mutated.bin"
    path.write_bytes(mutate(blobs[kind], mutation))
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass


@SWEEP
@given(st.sampled_from(["images", "labels"]), MUTATIONS)
def test_mutated_idx_pair_loads_or_is_a_typed_error(files, which, mutation):
    blobs, root = files
    paths = {name: root / f"mutated_{name}.idx" for name in ("images", "labels")}
    for name, path in paths.items():
        blob = blobs[name]
        path.write_bytes(mutate(blob, mutation) if name == which else blob)
    try:
        load_idx(paths["images"], paths["labels"])
    except (IdxParseError, ContractViolation):
        pass


@SWEEP
@given(MUTATIONS)
def test_mutated_csv_loads_or_is_a_contract_violation(files, mutation):
    blobs, root = files
    path = root / "mutated.csv"
    path.write_bytes(mutate(blobs["csv"], mutation))
    try:
        load_csv(path)
    except ContractViolation:
        pass
