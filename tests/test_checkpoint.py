"""Binary checkpoint format: bit-exact round trips and corruption handling."""

import math
import os
import struct
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from transgcn import checkpoint
from transgcn.checkpoint import (
    MAGIC,
    from_bytes,
    load_checkpoint,
    save_checkpoint,
    to_bytes,
)
from transgcn.encoder import encode_arrays
from transgcn.errors import CheckpointError
from transgcn.evaluator import evaluate
from transgcn.kg import build_graph, build_index
from transgcn.kinship import generate_kinship
from transgcn.trainer import TrainConfig, train


GOLDEN_V1 = Path(__file__).parent / "data" / "golden_v1.ckpt"
CONFIG_START = len(MAGIC) + 4  # the config block follows the magic and the u32 version


def edit_config_block(data: bytes, edit) -> bytes:
    """``data`` with its config block text replaced by ``edit(text)``."""
    (length,) = struct.unpack_from("<Q", data, CONFIG_START)
    start = CONFIG_START + 8
    text = edit(data[start : start + length].decode("utf-8")).encode("utf-8")
    return data[:CONFIG_START] + struct.pack("<Q", len(text)) + text + data[start + length :]


@pytest.fixture(scope="module")
def kinship():
    return generate_kinship(seed=0, founder_couples=3, valid_size=20, test_size=20)


@pytest.fixture(scope="module")
def trained(kinship):
    cfg = TrainConfig(
        assumption="rotation",
        dim=8,
        layers=1,
        epochs=3,
        batch=64,
        lr=0.003,
        gamma=7.25,
        eval_every=2,
        seed=13,
    )
    return train(kinship, cfg)


class TestRoundTrip:
    def test_fields_survive(self, trained):
        loaded = from_bytes(to_bytes(trained))
        assert loaded.version == trained.version
        assert loaded.config == trained.config
        assert loaded.entity_names == trained.entity_names
        assert loaded.relation_names == trained.relation_names
        assert loaded.epoch == trained.epoch
        assert loaded.adam_step == trained.adam_step
        assert loaded.best_valid_mrr == trained.best_valid_mrr

    def test_float_config_values_exact(self, trained):
        loaded = from_bytes(to_bytes(trained))
        assert loaded.config.lr == 0.003
        assert loaded.config.gamma == 7.25

    def test_arrays_bit_exact(self, trained):
        loaded = from_bytes(to_bytes(trained))
        for (name, got), want in zip(
            loaded.state.parameters().items(), trained.state.parameters().values()
        ):
            assert np.array_equal(got.values, want.values), name
        for name in trained.adam_m:
            assert np.array_equal(loaded.adam_m[name], trained.adam_m[name])
            assert np.array_equal(loaded.adam_v[name], trained.adam_v[name])

    def test_save_load_save_identical_bytes(self, trained, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained, path)
        reloaded = load_checkpoint(path)
        assert to_bytes(reloaded) == path.read_bytes()

    def test_warm_started_checkpoint_round_trips(self, kinship, trained):
        resumed = train(kinship, trained.config.replace(epochs=1), init_state=trained.state)
        data = to_bytes(resumed)
        assert to_bytes(from_bytes(data)) == data

    def test_reload_reproduces_evaluation(self, trained, kinship):
        index = build_index(kinship)
        e_a, r_a = encode_arrays(trained.state, index)
        loaded = from_bytes(to_bytes(trained))
        e_b, r_b = encode_arrays(loaded.state, index)
        assert np.array_equal(e_a, e_b)
        assert np.array_equal(r_a, r_b)
        cfg = trained.config
        mrr_a = evaluate(kinship, "test", e_a, r_a, cfg.assumption, cfg.norm).mrr
        mrr_b = evaluate(kinship, "test", e_b, r_b, cfg.assumption, cfg.norm).mrr
        assert mrr_a == mrr_b

    def test_nan_valid_mrr_survives(self):
        kg = build_graph([("a", "r", "b"), ("b", "r", "a")], [], [])
        ck = train(kg, TrainConfig(dim=4, layers=0, epochs=1, seed=1))
        assert math.isnan(ck.best_valid_mrr)
        assert math.isnan(from_bytes(to_bytes(ck)).best_valid_mrr)


class TestGoldenFile:
    """A format-1 checkpoint kept as bytes, written by the first release.

    It holds a rotation model (one layer, dim 4) trained for three epochs on
    a five-entity graph with a non-ASCII entity name.
    """

    def test_loads_and_reserializes_identically(self):
        data = GOLDEN_V1.read_bytes()
        loaded = from_bytes(data)
        assert loaded.version == 1
        assert loaded.config == TrainConfig(
            assumption="rotation", layers=1, dim=4, gamma=5.5, alpha=0.5, negatives=2,
            lr=0.01, epochs=3, batch=2, eval_every=2, seed=7, norm="l2",
            pretrain_epochs=1, clip=2.5,
        )
        assert loaded.entity_names == ["a", "b", "c", "d", "\u00e9"]
        assert loaded.relation_names == ["r", "s"]
        params = loaded.state.parameters()
        assert list(params) == ["entity_embed", "relation_params", "w0_0", "w1_0"]
        assert all(t.name == name and t.requires_grad for name, t in params.items())
        assert to_bytes(loaded) == data

    def test_file_loads_and_saves_identically(self, tmp_path):
        copy = tmp_path / "golden.ckpt"
        save_checkpoint(load_checkpoint(GOLDEN_V1), copy)
        assert copy.read_bytes() == GOLDEN_V1.read_bytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_loads_from_a_pipe(self, tmp_path):
        pipe = tmp_path / "golden.pipe"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_bytes, args=(GOLDEN_V1.read_bytes(),),
                                  daemon=True)
        writer.start()
        try:
            loaded = load_checkpoint(pipe)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert to_bytes(loaded) == GOLDEN_V1.read_bytes()


def test_load_holds_little_more_than_the_arrays_it_returns(tmp_path):
    # a 2,000 x 64 model: the file is read straight into the returned arrays
    # (values and Adam moments); reading the whole file first and copying
    # each array out of it took about 2x
    kg = build_graph([(f"e{i}", f"r{i % 10}", f"e{(i + 1) % 2000}") for i in range(2000)],
                     [], [])
    path = tmp_path / "model.ckpt"
    save_checkpoint(train(kg, TrainConfig(dim=64, layers=1, epochs=0)), path)
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(t.grad is None for t in loaded.state.parameters().values())
    arrays = sum(t.values.nbytes for t in loaded.state.parameters().values())
    arrays += sum(m.nbytes for m in (*loaded.adam_m.values(), *loaded.adam_v.values()))
    assert peak < 1.1 * arrays, peak / arrays


class TestCorruption:
    def test_bad_magic(self, trained):
        data = b"NOTCKPT!" + to_bytes(trained)[8:]
        with pytest.raises(CheckpointError, match="bad checkpoint header"):
            from_bytes(data)

    def test_unsupported_version(self, trained):
        data = bytearray(to_bytes(trained))
        data[8:12] = struct.pack("<I", 99)
        with pytest.raises(CheckpointError, match="version"):
            from_bytes(bytes(data))

    def test_truncated(self, trained):
        data = to_bytes(trained)
        with pytest.raises(CheckpointError, match="truncated"):
            from_bytes(data[: len(data) // 2])

    def test_trailing_garbage(self, trained):
        with pytest.raises(CheckpointError, match="trailing"):
            from_bytes(to_bytes(trained) + b"x")

    def test_file_cut_inside_an_adam_moment_array(self, trained, tmp_path):
        data = to_bytes(trained)
        last = trained.adam_v["w1_0"].nbytes  # the file ends with this moment array
        path = tmp_path / "cut.ckpt"
        path.write_bytes(data[: -last // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut", ["config block", "last array"])
    def test_file_that_shrinks_while_it_is_read(self, trained, tmp_path, monkeypatch, cut):
        # as when train rewrites model.ckpt while eval loads it: the size was
        # taken at open, so only the byte counts the reads return show the cut
        data = to_bytes(trained)
        path = tmp_path / "shrinking.ckpt"
        path.write_bytes(data)
        keep = CONFIG_START + 12 if cut == "config block" else len(data) - 4
        opened = checkpoint._Reader.__init__

        def open_then_cut(reader, fh):
            opened(reader, fh)
            os.truncate(path, keep)

        monkeypatch.setattr(checkpoint._Reader, "__init__", open_then_cut)
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_file_with_trailing_bytes(self, trained, tmp_path):
        path = tmp_path / "long.ckpt"
        path.write_bytes(to_bytes(trained) + b"x")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_length_past_the_end_refused_before_reading(self, trained, tmp_path):
        data = bytearray(to_bytes(trained))
        struct.pack_into("<Q", data, CONFIG_START, 2**62)  # the config block's length
        path = tmp_path / "long-text.ckpt"
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_vocab_size_mismatch(self, trained):
        import dataclasses

        broken = dataclasses.replace(
            trained, entity_names=trained.entity_names[:-1]
        )
        with pytest.raises(CheckpointError, match="entity_embed array"):
            from_bytes(to_bytes(broken))

    def test_moment_shape_mismatch(self, trained):
        import dataclasses

        bad_m = dict(trained.adam_m)
        bad_m["entity_embed"] = np.zeros((1, 1))
        broken = dataclasses.replace(trained, adam_m=bad_m)
        with pytest.raises(CheckpointError, match="moments"):
            from_bytes(to_bytes(broken))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda text: text + "bogus=1\n", r"config block:16: unknown config key 'bogus'"),
            (lambda text: text.replace("clip=10.0\n", ""), r"missing fields: \['clip'\]"),
            (lambda text: text.replace("dim=8", "dim=eight"), r"config block:3: .*bad value"),
            (lambda text: text.replace("lr=0.003", "lr=0.0"), "lr must be finite"),
            (lambda text: text.replace("seed=13", "seed 13"), r"config block:11: expected key"),
            (lambda text: text + "dim=64\n", r"config block:16: config key 'dim' repeats line 3"),
        ],
        ids=["unknown-key", "missing-field", "unparseable-value", "invalid-value",
             "no-equals", "duplicate-key"],
    )
    def test_bad_config_block(self, trained, edit, message):
        data = edit_config_block(to_bytes(trained), edit)
        with pytest.raises(CheckpointError, match=message):
            from_bytes(data)

    def test_config_block_uses_config_file_grammar(self, trained):
        data = to_bytes(trained)
        commented = edit_config_block(
            data, lambda text: "# resolved config\n" + text.replace("=", " = ")
        )
        assert to_bytes(from_bytes(commented)) == data

    def test_text_not_utf8(self, tmp_path):
        data = bytearray(GOLDEN_V1.read_bytes())
        at = data.index("\u00e9".encode("utf-8"))
        data[at] = 0xFF  # the first byte of the entity name "é"
        copy = tmp_path / "corrupt.ckpt"
        copy.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="not UTF-8"):
            load_checkpoint(copy)

    def test_not_a_file_payload(self):
        with pytest.raises(CheckpointError):
            from_bytes(b"short")
