"""Checkpoint binary format: round trips and corruption rejection."""

import json
import struct

import numpy as np
import pytest

from dialdistill import checkpoint, model as model_module
from dialdistill.checkpoint import (
    MAGIC,
    checkpoint_digest,
    load_checkpoint,
    load_model,
    save_checkpoint,
    save_model,
)
from dialdistill.errors import CheckpointFormatError, NumericError
from dialdistill.model import SIZE_FIELDS, ModelConfig, ParameterSet, TransformerModel


def small_config(variant="scenario-based"):
    return ModelConfig(
        vocab_size=16,
        model_dim=8,
        num_blocks=1,
        num_heads=2,
        ffn_dim=16,
        dropout_rate=0.1,
        max_sequence_length=32,
        variant=variant,
    )


@pytest.fixture()
def saved(tmp_path):
    model = TransformerModel.build(small_config(), seed=3)
    model.params.freeze(["encoder_embedding"])
    path = tmp_path / "model.ckpt"
    save_model(model, path, extra_configs={"training": {"seed": 3}})
    return model, path


class TestRoundTrip:
    def test_parameters_bitwise_identical(self, saved):
        model, path = saved
        params, configs = load_checkpoint(path)
        assert params.names() == model.params.names()
        for name, tensor in model.params.items():
            assert np.array_equal(params[name].data, tensor.data), name
            assert params.is_trainable(name) == model.params.is_trainable(name)
        assert params.frozen == {"encoder_embedding"}
        assert configs["model"] == model.config.to_dict()
        assert configs["training"] == {"seed": 3}

    def test_frozen_tensors_load_needing_no_gradient(self, saved):
        params, _ = load_checkpoint(saved[1])
        assert not params["encoder_embedding"].requires_grad
        targets = [n for n, _ in params.update_targets()]
        assert "encoder_embedding" not in targets and "decoder_embedding" in targets
        assert all(params[n].requires_grad for n in targets)

    def test_payload_is_read_into_the_flat_values(self, saved):
        model, path = saved
        params, _ = load_checkpoint(path)
        raw = path.read_bytes()
        assert params.values.tobytes() == raw[len(raw) - params.values.nbytes :]
        for _, tensor in params.items():
            assert np.shares_memory(tensor.data, params.values)

    def test_load_draws_no_parameters(self, saved, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("load_model must not initialise a model")

        monkeypatch.setattr(model_module, "init_params", refuse)
        monkeypatch.setattr(checkpoint, "init_params", refuse, raising=False)
        model, path = saved
        loaded, _ = load_model(path)
        for name, tensor in model.params.items():
            assert np.array_equal(loaded.params[name].data, tensor.data), name

    def test_loaded_model_forwards_identically(self, saved):
        model, path = saved
        loaded, _ = load_model(path)
        assert loaded.config == model.config
        history = np.array([[4, 5, 6, 0]])
        future = np.array([[7, 8, 0, 0]])
        response = np.array([[2, 9, 10]])
        a = model.forward(history, response, future=future)
        b = loaded.forward(history, response, future=future)
        assert np.array_equal(a.probabilities.data, b.probabilities.data)

    def test_resave_is_byte_identical(self, saved, tmp_path):
        model, path = saved
        loaded, configs = load_model(path)
        clone = tmp_path / "clone.ckpt"
        save_checkpoint(loaded.params, configs, clone)
        assert path.read_bytes() == clone.read_bytes()

    def test_variant_drives_assembly(self, tmp_path):
        model = TransformerModel.build(small_config("language-model"), seed=1)
        path = tmp_path / "lm.ckpt"
        save_model(model, path)
        loaded, _ = load_model(path)
        assert loaded.config.variant == "language-model"
        assert "enc.0.attn.wq" not in loaded.params


class TestCorruption:
    def test_bad_magic_rejected(self, saved):
        _, path = saved
        raw = bytearray(path.read_bytes())
        raw[:5] = b"NOPE1"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, saved):
        _, path = saved
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 17])
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_trailing_garbage_rejected(self, saved):
        _, path = saved
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_tiny_file_rejected(self, tmp_path):
        path = tmp_path / "stub.ckpt"
        path.write_bytes(b"SDK")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_header_length_beyond_file_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(MAGIC + struct.pack("<I", 10_000) + b"{}")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_non_json_header_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        body = b"this is not json"
        path.write_bytes(MAGIC + struct.pack("<I", len(body)) + body)
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_manifest_shape_mismatch_rejected(self, tmp_path):
        header = json.dumps(
            {
                "configs": {},
                "manifest": [{"name": "w", "shape": [2, 2], "trainable": True}],
                "frozen": [],
            }
        ).encode()
        payload = np.zeros(3, dtype="<f4").tobytes()  # promises 4 floats
        path = tmp_path / "bad.ckpt"
        path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header + payload)
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_missing_manifest_key_rejected(self, tmp_path):
        header = json.dumps({"configs": {}}).encode()
        path = tmp_path / "bad.ckpt"
        path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header)
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    @staticmethod
    def _load_header(tmp_path, header, payload=b"", match="manifest"):
        raw = json.dumps(header).encode()
        path = tmp_path / "bad.ckpt"
        path.write_bytes(MAGIC + struct.pack("<I", len(raw)) + raw + payload)
        with pytest.raises(CheckpointFormatError, match=match):
            load_checkpoint(path)

    def test_manifest_not_a_list_rejected(self, tmp_path):
        self._load_header(tmp_path, {"configs": {}, "manifest": {"w": {"shape": [2]}}})

    def test_manifest_entry_without_shape_rejected(self, tmp_path):
        self._load_header(tmp_path, {"configs": {}, "manifest": [{"name": "w", "trainable": True}]})

    def test_manifest_negative_dimension_rejected(self, tmp_path):
        # (-2) * (-2) would promise the 16 payload bytes that are there
        entry = {"name": "w", "shape": [-2, -2], "trainable": True}
        self._load_header(tmp_path, {"configs": {}, "manifest": [entry]}, np.zeros(4, "<f4").tobytes())

    def test_manifest_naming_a_tensor_twice_rejected(self, tmp_path):
        entry = {"name": "w", "shape": [2], "trainable": True}
        self._load_header(tmp_path, {"configs": {}, "manifest": [entry, entry]},
                          np.zeros(4, "<f4").tobytes(),
                          match=r"bad\.ckpt: manifest lists \['w'\] more than once")

    @pytest.mark.parametrize("frozen", [3, ["no.such.tensor"], [["encoder_embedding"]]])
    def test_bad_frozen_list_rejected(self, tmp_path, frozen):
        entry = {"name": "w", "shape": [2], "trainable": True}
        self._load_header(tmp_path, {"configs": {}, "manifest": [entry], "frozen": frozen},
                          np.zeros(2, "<f4").tobytes(), match="frozen")

    @pytest.mark.parametrize("model_config", [[1], {"vocab_size": 16, "colour": "red"}, {"vocab_size": "16"}])
    def test_unreadable_model_config_rejected(self, saved, tmp_path, model_config):
        _, path = saved
        params, _ = load_checkpoint(path)
        forged = tmp_path / "forged.ckpt"
        save_checkpoint(params, {"model": model_config}, forged)
        with pytest.raises(CheckpointFormatError, match="model config"):
            load_model(forged)

    @pytest.mark.parametrize("field", SIZE_FIELDS)
    def test_non_integer_model_size_rejected(self, saved, tmp_path, field):
        # a float size would load and become a float buffer size
        _, path = saved
        params, configs = load_checkpoint(path)
        configs["model"][field] = float(configs["model"][field])
        forged = tmp_path / "forged.ckpt"
        save_checkpoint(params, configs, forged)
        with pytest.raises(CheckpointFormatError, match="unreadable model config"):
            load_model(forged)

    def test_zero_heads_rejected(self, saved, tmp_path):
        # checked before model_dim's divisibility by it, which would divide by zero
        _, path = saved
        params, configs = load_checkpoint(path)
        configs["model"]["num_heads"] = 0
        forged = tmp_path / "forged.ckpt"
        save_checkpoint(params, configs, forged)
        with pytest.raises(CheckpointFormatError, match="num_heads must be positive"):
            load_model(forged)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_payload_rejected(self, saved, bad):
        _, path = saved
        raw = bytearray(path.read_bytes())
        raw[-4:] = np.array([bad], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(NumericError, match="non-finite"):
            load_model(path)

    def test_mismatch_lists_missing_surplus_and_resized_tensors(self, saved, tmp_path):
        _, path = saved
        params, configs = load_checkpoint(path)
        kept = ParameterSet(
            [(name, (3,) if name == "out_proj.b" else tensor.data.shape, True)
             for name, tensor in params.items() if name != "dec.0.ffn.w1"]
            + [("extra", (2,), True)]
        )
        for name, tensor in params.items():
            if name in kept and name != "out_proj.b":
                kept[name].data[...] = tensor.data
        forged = tmp_path / "forged.ckpt"
        save_checkpoint(kept, configs, forged)
        with pytest.raises(CheckpointFormatError) as info:
            load_model(forged)
        assert str(info.value) == (
            f"{forged}: parameters do not fit the stored configuration "
            "(missing=['dec.0.ffn.w1'], surplus=['extra'], shape-mismatch=['out_proj.b'])"
        )

    def test_wrong_parameter_names_for_config_rejected(self, saved, tmp_path):
        model, path = saved
        params, configs = load_checkpoint(path)
        configs["model"]["variant"] = "conventional"  # merge tensors now surplus
        forged = tmp_path / "forged.ckpt"
        save_checkpoint(params, configs, forged)
        with pytest.raises(CheckpointFormatError):
            load_model(forged)


    @staticmethod
    def _with_flag(path, tmp_path, name, flag):
        """A copy of the checkpoint at ``path`` whose manifest gives tensor
        ``name`` the trainable flag ``flag``."""
        raw = path.read_bytes()
        start = len(MAGIC) + 4
        (length,) = struct.unpack("<I", raw[len(MAGIC):start])
        header = json.loads(raw[start:start + length])
        for entry in header["manifest"]:
            if entry["name"] == name:
                entry["trainable"] = flag
        forged = tmp_path / "forged.ckpt"
        text = json.dumps(header).encode()
        forged.write_bytes(MAGIC + struct.pack("<I", len(text)) + text + raw[start + length:])
        return forged

    @pytest.mark.parametrize("flag", ["no", 0, None])
    def test_non_boolean_trainable_flag_rejected(self, saved, tmp_path, flag):
        _, path = saved
        forged = self._with_flag(path, tmp_path, "positional_encoding", flag)
        with pytest.raises(CheckpointFormatError, match=r"forged\.ckpt: malformed manifest entry"):
            load_checkpoint(forged)

    @pytest.mark.parametrize("name, flag", [("out_proj.b", False), ("positional_encoding", True)])
    def test_trainable_flag_against_the_layout_rejected(self, saved, tmp_path, name, flag):
        # a frozen-looking out_proj.b would drop out of Adam's targets, and a
        # trainable positional table would be trained
        _, path = saved
        forged = self._with_flag(path, tmp_path, name, flag)
        assert load_checkpoint(forged)[0].is_trainable(name) is flag  # a well-formed manifest
        with pytest.raises(CheckpointFormatError) as info:
            load_model(forged)
        assert str(info.value) == f"{forged}: trainable flags disagree with the parameter layout for {[name]}"


class TestDigest:
    def test_digest_stable_and_sensitive(self, saved, tmp_path):
        _, path = saved
        first = checkpoint_digest(path)
        assert checkpoint_digest(path) == first
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        other = tmp_path / "tweaked.ckpt"
        other.write_bytes(bytes(raw))
        assert checkpoint_digest(other) != first
