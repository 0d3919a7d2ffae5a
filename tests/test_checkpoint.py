"""Binary checkpoint format: round-trips, validation, model restore."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from streamrl.checkpoint import (
    MAGIC,
    CheckpointError,
    load_checkpoint,
    load_model,
    restore_into,
    save_checkpoint,
    save_model,
)
from streamrl.nn import Mlp
from streamrl.plugins import EwcPlugin


def test_file_starts_with_magic(tmp_path):
    path = tmp_path / "c.bin"
    save_checkpoint(path, {"sizes": [2, 2]}, {"params": np.zeros(3)})
    assert path.read_bytes()[:8] == MAGIC


def test_checkpoint_round_trip_bit_exact(tmp_path):
    path = tmp_path / "c.bin"
    arch = {"sizes": [3, 4], "note": "anything JSON-serializable"}
    sections = {
        "params": np.array([np.pi, -0.0, 1e-300, 7.234512345123451e17]),
        "ewc/anchor_0": np.arange(6.0).reshape(2, 3),
        "single": np.array([2.5]),
    }
    save_checkpoint(path, arch, sections)
    got_arch, got_sections = load_checkpoint(path)
    assert got_arch == arch
    assert set(got_sections) == set(sections)
    for name, want in sections.items():
        got = got_sections[name]
        assert got.dtype == np.float64
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        # bit-exact, not merely close
        assert got.tobytes() == want.tobytes()


def test_scalar_sections_stored_one_dimensional(tmp_path):
    path = tmp_path / "c.bin"
    save_checkpoint(path, {}, {"scalar": np.asarray(2.5)})
    _, sections = load_checkpoint(path)
    assert sections["scalar"].shape == (1,)
    assert sections["scalar"][0] == 2.5


def tobytes_reference(arch, sections):
    """The file save_checkpoint wrote when it kept a tobytes() copy of every
    section until the last write."""
    entries, blobs = [], []
    for name, array in sections.items():
        arr = np.ascontiguousarray(np.asarray(array, dtype=np.float64))
        entries.append({"name": name, "shape": list(arr.shape)})
        blobs.append(arr.tobytes())
    header = json.dumps({"version": 1, "arch": arch, "sections": entries}).encode("utf-8")
    return MAGIC + struct.pack("<Q", len(header)) + header + b"".join(blobs)


def test_file_bytes_equal_the_tobytes_reference(tmp_path):
    base = np.arange(24.0).reshape(4, 6) * 0.1 - 1.0
    sections = {
        "c-contiguous": base,
        "strided": base[::2, ::3],
        "fortran": np.asfortranarray(base),
        "transposed": base.T,
        "ints": np.arange(-3, 4),
        "bools": np.array([True, False, True]),
        "float32": np.linspace(0, 1, 5, dtype=np.float32),
        "big-endian": np.arange(3.0).astype(">f8"),
        "specials": np.array([np.nan, -np.inf, -0.0, 5e-324]),
        "empty": np.zeros((0, 3)),
        "empty-1d": np.array([]),
        "0-d": np.array(2.5),
        "scalar": np.float64(-7.0),
        "list": [1.5, 2, True],
    }
    path = tmp_path / "c.bin"
    save_checkpoint(path, {"sizes": [2]}, sections)
    assert path.read_bytes() == tobytes_reference({"sizes": [2]}, sections)


def test_save_copies_no_float64_section(tmp_path):
    """A C-contiguous float64 section is written from its own buffer: saving
    4 MB of sections allocates far less than 4 MB."""
    sections = {"params": np.ones(250_000), "replay/obs": np.ones((2_000, 125))}
    tracemalloc.start()
    try:
        save_checkpoint(tmp_path / "c.bin", {}, sections)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_save_model_load_model(tmp_path):
    path = tmp_path / "m.bin"
    model = Mlp([4, 8, 2], heads={"q_values": 2}, seed=3)
    extras = {"replay/meta": np.array([10.0, 0.5, 0.0])}
    save_model(path, model, extra_sections=extras)
    loaded, got_extras = load_model(path)
    assert np.array_equal(loaded.flatten(), model.flatten())
    assert loaded.arch() == model.arch()
    assert set(got_extras) == {"replay/meta"}
    assert np.array_equal(got_extras["replay/meta"], extras["replay/meta"])
    # loaded model behaves identically
    x = np.random.default_rng(0).normal(size=(5, 4))
    assert np.array_equal(loaded.forward(x)["q_values"], model.forward(x)["q_values"])


def test_restore_into_existing_model(tmp_path):
    path = tmp_path / "m.bin"
    source = Mlp([4, 8, 2], heads={"q_values": 2}, seed=3)
    save_model(path, source)
    target = Mlp([4, 8, 2], heads={"q_values": 2}, seed=99)
    assert not np.array_equal(target.flatten(), source.flatten())
    extras = restore_into(target, path)
    assert extras == {}
    assert np.array_equal(target.flatten(), source.flatten())


def test_restore_into_rejects_arch_mismatch(tmp_path):
    path = tmp_path / "m.bin"
    save_model(path, Mlp([4, 8, 2], heads={"q_values": 2}))
    other = Mlp([4, 4, 2], heads={"q_values": 2})
    with pytest.raises(CheckpointError):
        restore_into(other, path)


def test_load_model_rejects_wrong_param_count(tmp_path):
    path = tmp_path / "m.bin"
    model = Mlp([4, 2])
    save_checkpoint(path, model.arch(), {"params": np.zeros(3)})
    with pytest.raises(CheckpointError):
        load_model(path)


@pytest.mark.parametrize("sections", [{"other": np.zeros(3)}, {"params": np.zeros(3)}],
                         ids=["no-params", "short-params"])
@pytest.mark.parametrize("load", [load_model, lambda path: restore_into(Mlp([4, 2]), path)],
                         ids=["load_model", "restore_into"])
def test_loaders_reject_a_missing_or_short_params_section(tmp_path, load, sections):
    path = tmp_path / "m.bin"
    save_checkpoint(path, Mlp([4, 2]).arch(), sections)
    with pytest.raises(CheckpointError, match="params|parameters"):
        load(path)


GOOD_ARCH = Mlp([2, 3, 2]).arch()


@pytest.mark.parametrize("arch, match", [
    ([2, 2], "arch must be an object"),
    ({"sizes": [2, 2]}, "arch has no 'activations'"),
    ({k: v for k, v in GOOD_ARCH.items() if k != "sizes"}, "arch has no 'sizes'"),
    ({k: v for k, v in GOOD_ARCH.items() if k != "heads"}, "arch has no 'heads'"),
    ({**GOOD_ARCH, "heads": [["out", 1]]}, "must sum to final layer size"),
    ({**GOOD_ARCH, "activations": ["relu", "swish"]}, "unknown activation"),
    ({**GOOD_ARCH, "activations": ["relu"]}, "need 2 activations"),
    ({**GOOD_ARCH, "sizes": [2]}, "at least input and output"),
    ({**GOOD_ARCH, "sizes": [2, "x", 2]}, "not a valid Mlp"),
    ({**GOOD_ARCH, "heads": [["out"]]}, "not a valid Mlp"),
    ({**GOOD_ARCH, "heads": 2}, "not a valid Mlp"),
], ids=["not-a-mapping", "sizes-only", "no-sizes", "no-heads", "heads-do-not-sum",
        "unknown-activation", "activation-count", "one-size", "size-not-a-number",
        "head-not-a-pair", "heads-not-a-list"])
def test_load_model_rejects_an_arch_that_is_no_mlp(tmp_path, arch, match):
    path = tmp_path / "m.bin"
    save_checkpoint(path, arch, {"params": np.zeros(Mlp([2, 3, 2]).param_count)})
    with pytest.raises(CheckpointError, match=match):
        load_model(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_truncated_section_rejected(tmp_path):
    path = tmp_path / "c.bin"
    save_checkpoint(path, {}, {"params": np.zeros(16)})
    data = path.read_bytes()
    path.write_bytes(data[:-8])  # drop the last float
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "c.bin"
    header = json.dumps({"version": 2, "arch": {}, "sections": []}).encode()
    path.write_bytes(MAGIC + struct.pack("<Q", len(header)) + header)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_plugin_sections_survive_file_round_trip(tmp_path):
    path = tmp_path / "m.bin"
    model = Mlp([4, 2], heads={"q_values": 2}, seed=1)
    plugin = EwcPlugin(lam=3.0, fisher_sample_count=2)
    plugin.state.anchors.append(model.flatten())
    plugin.state.fishers.append(np.full(model.param_count, 0.25))
    save_model(path, model, extra_sections=plugin.state_sections())

    _, extras = load_model(path)
    fresh = EwcPlugin()
    fresh.load_state_sections(extras)
    assert fresh.state.lam == 3.0
    assert fresh.state.n_anchors == 1
    assert np.array_equal(fresh.state.anchors[0], plugin.state.anchors[0])
    assert np.array_equal(fresh.state.fishers[0], plugin.state.fishers[0])


def write_raw(path, header_bytes: bytes) -> None:
    path.write_bytes(MAGIC + struct.pack("<Q", len(header_bytes)) + header_bytes)


def test_truncated_length_field_rejected(tmp_path):
    path = tmp_path / "c.bin"
    path.write_bytes(MAGIC + b"\x10\x00\x00")  # cut inside the 8-byte length
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_bad_json_header_rejected(tmp_path):
    path = tmp_path / "c.bin"
    write_raw(path, b'{"version": 1, "arch": ')
    with pytest.raises(CheckpointError, match="JSON"):
        load_checkpoint(path)


def test_non_object_header_rejected(tmp_path):
    path = tmp_path / "c.bin"
    write_raw(path, json.dumps([1, "arch", []]).encode())
    with pytest.raises(CheckpointError, match="object"):
        load_checkpoint(path)


@pytest.mark.parametrize("entry", [
    {"shape": [2]}, {"name": "params"}, {"name": "p", "shape": "2"},
    {"name": "p", "shape": [True, 3]}, {"name": "p", "shape": [2.0]}, {"name": ["p"], "shape": [2]},
])
def test_section_entry_without_name_or_shape_rejected(tmp_path, entry):
    path = tmp_path / "c.bin"
    write_raw(path, json.dumps({"version": 1, "arch": {}, "sections": [entry]}).encode())
    with pytest.raises(CheckpointError, match="name and a shape"):
        load_checkpoint(path)


@pytest.mark.parametrize("shape, match", [
    ([2**32, 2**32], "truncated"),  # 2**64 floats: numpy's int64 product would wrap to 0
    ([0, 2**63], "numpy cannot build"),  # 0 floats, but past numpy's largest dimension
], ids=["product-wraps", "dimension-too-large"])
def test_section_shape_numpy_cannot_take_rejected(tmp_path, shape, match):
    path = tmp_path / "c.bin"
    entry = {"name": "params", "shape": shape}
    write_raw(path, json.dumps({"version": 1, "arch": {}, "sections": [entry]}).encode())
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


def test_repeated_section_name_rejected(tmp_path):
    path = tmp_path / "c.bin"
    entries = [{"name": "params", "shape": [1]}, {"name": "params", "shape": [1]}]
    header = json.dumps({"version": 1, "arch": {}, "sections": entries}).encode()
    path.write_bytes(MAGIC + struct.pack("<Q", len(header)) + header + struct.pack("<2d", 1.0, 2.0))
    with pytest.raises(CheckpointError, match="'params' appears twice"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("section", ["params", "ewc/fisher_0"])
def test_a_non_finite_section_rejected(tmp_path, section, bad):
    path = tmp_path / "c.bin"
    values = np.arange(6.0)
    values[4] = bad
    save_checkpoint(path, {}, {"params": np.ones(3), section: values})
    with pytest.raises(CheckpointError, match=f"section '{section}' holds a non-finite value"):
        load_checkpoint(path)
