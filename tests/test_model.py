"""Structural and behavioral checks on the transformer variants."""

import numpy as np
import pytest

from dialdistill import tensor as T
from dialdistill.errors import ContractError
from dialdistill.model import (
    DecodeState,
    ModelConfig,
    TransformerModel,
    _attend,
    _project_kv,
    causal_mask,
    desk_config,
    dual_context_attention,
    init_params,
    key_padding_mask,
    paper_config,
)

PAD = 0


def tiny(variant="conventional", **kw):
    base = dict(
        vocab_size=12,
        model_dim=8,
        num_blocks=1,
        num_heads=2,
        ffn_dim=16,
        dropout_rate=0.0,
        max_sequence_length=64,
        variant=variant,
    )
    base.update(kw)
    return ModelConfig(**base)


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ContractError):
            tiny(model_dim=10, num_heads=4)

    def test_unknown_variant(self):
        with pytest.raises(ContractError):
            tiny(variant="bidirectional")

    def test_presets(self):
        d = desk_config(100)
        assert (d.num_blocks, d.num_heads, d.model_dim, d.ffn_dim) == (2, 2, 64, 128)
        p = paper_config(100)
        assert (p.num_blocks, p.num_heads, p.model_dim, p.ffn_dim) == (2, 4, 256, 1024)

    def test_roundtrip_dict(self):
        c = tiny(variant="scenario-based")
        assert ModelConfig.from_dict(c.to_dict()) == c


class TestInit:
    def test_weight_std(self):
        ps = init_params(desk_config(600), seed=3)
        sample = ps["encoder_embedding"].data.reshape(-1)[:10_000]
        assert 0.009 <= sample.std() <= 0.011
        assert abs(sample.mean()) < 0.001

    def test_same_seed_bitwise(self):
        a = init_params(tiny(), seed=7)
        b = init_params(tiny(), seed=7)
        assert a.names() == b.names()
        for n in a.names():
            assert np.array_equal(a[n].data, b[n].data), n

    def test_different_seeds_differ(self):
        a = init_params(tiny(), seed=1)
        b = init_params(tiny(), seed=2)
        assert not np.array_equal(a["out_proj.w"].data, b["out_proj.w"].data)

    def test_embeddings_are_distinct_tensors(self):
        ps = init_params(tiny(), seed=1)
        assert ps["encoder_embedding"] is not ps["decoder_embedding"]
        assert not np.array_equal(ps["encoder_embedding"].data, ps["decoder_embedding"].data)

    def test_biases_zero_gains_one(self):
        ps = init_params(tiny(), seed=5)
        assert np.all(ps["enc.0.attn.bq"].data == 0.0)
        assert np.all(ps["dec.0.ln_self.gain"].data == 1.0)
        assert np.all(ps["dec.0.ln_self.bias"].data == 0.0)

    def test_parameter_correspondence(self):
        # scenario-based differs from conventional by exactly the merge
        # projection tensors; everything else corresponds one-to-one
        c = init_params(tiny("conventional"), seed=0)
        s = init_params(tiny("scenario-based"), seed=0)
        extra = set(s.names()) - set(c.names())
        assert extra == {"dec.0.cross_attn.merge_w", "dec.0.cross_attn.merge_b"}
        assert set(c.names()) - set(s.names()) == set()
        d = 8
        def size(params):
            return sum(t.data.size for n, t in params.items() if params.is_trainable(n))

        assert size(s) - size(c) == 2 * d * d + d
        for n in c.names():
            assert s[n].data.shape == c[n].data.shape, n

    def test_lm_variant_has_no_encoder_or_cross(self):
        ps = init_params(tiny("language-model"), seed=0)
        assert "encoder_embedding" not in ps
        assert not any("cross_attn" in n or n.startswith("enc.") for n in ps.names())

    def test_positional_encoding_not_trainable(self):
        ps = init_params(tiny(), seed=0)
        assert not ps.is_trainable("positional_encoding")
        assert "positional_encoding" not in dict(ps.update_targets())


class TestEncoder:
    def test_output_shape(self):
        m = TransformerModel.build(tiny(), seed=0)
        out = m.encode(np.array([[4, 5, 6, 7, 8]]))
        assert out.data.shape == (1, 5, 8)

    def test_determinism(self):
        m = TransformerModel.build(tiny(), seed=0)
        ids = np.array([[4, 5, 6]])
        assert np.array_equal(m.encode(ids).data, m.encode(ids).data)

    def test_pad_rows_never_influence_real_rows(self):
        m = TransformerModel.build(tiny(), seed=1)
        ids = np.array([[4, 5, 6, PAD, PAD]])
        before = m.encode(ids).data[:, :3].copy()
        m.params["encoder_embedding"].data[PAD] += 3.0
        after = m.encode(ids).data[:, :3]
        assert np.array_equal(before, after)

    def test_batch_rows_independent(self):
        m = TransformerModel.build(tiny(), seed=2)
        a = np.array([[4, 5, 6], [7, 8, 9]])
        single = m.encode(np.array([[4, 5, 6]])).data
        assert np.allclose(m.encode(a).data[0], single[0], atol=1e-6)

    def test_lm_variant_rejects_encode(self):
        m = TransformerModel.build(tiny("language-model"), seed=0)
        with pytest.raises(ContractError):
            m.encode(np.array([[4, 5]]))


def per_head_attention(ps, prefix, query_in, memory_in, mask, num_heads):
    """Reference multi-head attention: one head at a time over column
    slices of the projections, contexts joined along features."""
    p = {n: ps[f"{prefix}.{n}"].data for n in ("wq", "bq", "wk", "bk", "wv", "bv")}
    q = query_in @ p["wq"] + p["bq"]
    k = memory_in @ p["wk"] + p["bk"]
    v = memory_in @ p["wv"] + p["bv"]
    dh = q.shape[-1] // num_heads
    heads = []
    for h in range(num_heads):
        cols = slice(h * dh, (h + 1) * dh)
        scores = q[..., cols] @ np.swapaxes(k[..., cols], -1, -2) / np.sqrt(dh)
        if mask is not None:
            scores = scores + mask
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        heads.append(e / e.sum(axis=-1, keepdims=True) @ v[..., cols])
    return np.concatenate(heads, axis=-1)


def graph_size(*outputs):
    seen, stack = set(), list(outputs)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


class TestBatchedHeads:
    """All heads in one product, against the per-head loop it replaced."""

    @pytest.mark.parametrize("num_heads", [1, 2, 4])
    def test_matches_per_head_loop_for_every_mask_shape(self, num_heads):
        rng = np.random.default_rng(num_heads)
        b, t, s = 3, 4, 6
        ids = rng.integers(4, 12, size=(b, s))
        ids[0, 4:] = PAD
        ids[2, 5:] = PAD
        masks = {
            "padding (B, 1, S)": key_padding_mask(ids, PAD),
            "offset causal (T, S)": causal_mask(s)[s - t:],
            "causal plus padding (B, T, S)": causal_mask(s)[s - t:][None] + key_padding_mask(ids, PAD),
        }
        with T.precision("double"):
            ps = init_params(tiny(num_heads=num_heads), seed=11)
            q_in = rng.standard_normal((b, t, 8))
            mem = rng.standard_normal((b, s, 8))
            for name, mask in masks.items():
                expected = per_head_attention(ps, "dec.0.cross_attn", q_in, mem, mask, num_heads)
                got = _attend(ps, "dec.0.cross_attn", T.Tensor(q_in), T.Tensor(mem), mask, num_heads)
                assert got.data.shape == (b, t, 8)
                assert np.max(np.abs(got.data - expected)) <= 1e-12, name
                kv = _project_kv(ps, "dec.0.cross_attn", T.Tensor(mem), num_heads)
                assert kv[0].data.shape == (b, num_heads, s, 8 // num_heads)
                cached = _attend(ps, "dec.0.cross_attn", T.Tensor(q_in), None, mask, num_heads, kv)
                assert np.array_equal(cached.data, got.data), name

    def test_graph_size_does_not_grow_with_heads(self):
        hist = np.array([[4, 5, 6, 7], [8, 9, PAD, PAD]])
        resp_in = np.array([[2, 8, 9], [2, 10, 11]])
        sizes = []
        for num_heads in (1, 2, 4):
            m = TransformerModel.build(tiny(num_blocks=2, num_heads=num_heads), seed=3)
            out = m.forward(hist, resp_in)
            sizes.append(graph_size(out.probabilities, *out.hidden_states))
        assert sizes[0] == sizes[1] == sizes[2]


class TestDualContextAttention:
    def test_single_key_context_is_value_vector(self):
        # softmax over one key is 1, so the pre-merge context equals that
        # position's value vector
        with T.precision("double"):
            ps = init_params(tiny("scenario-based"), seed=3)
            mem = T.Tensor(np.random.default_rng(0).standard_normal((1, 1, 8)))
            q_in = T.Tensor(np.random.default_rng(1).standard_normal((1, 2, 8)))
            ctx = _attend(ps, "dec.0.cross_attn", q_in, mem, None, num_heads=2)
            v = T.affine(mem, ps["dec.0.cross_attn.wv"], ps["dec.0.cross_attn.bv"])
            assert np.allclose(ctx.data, np.broadcast_to(v.data, ctx.data.shape), atol=1e-12)

    def test_merged_width(self):
        with T.precision("double"):
            ps = init_params(tiny("scenario-based"), seed=3)
            rng = np.random.default_rng(2)
            q_in = T.Tensor(rng.standard_normal((1, 3, 8)))
            mem_h = T.Tensor(rng.standard_normal((1, 4, 8)))
            mem_f = T.Tensor(rng.standard_normal((1, 5, 8)))
            out = dual_context_attention(
                ps, "dec.0.cross_attn", q_in, mem_h, mem_f, None, None, 2
            )
            assert out.data.shape == (1, 3, 8)

    def test_identical_contexts_from_identical_memories(self):
        # shared projections: same memory on both sides gives c_h = c_f,
        # hence the merged output equals merge([c, c])
        with T.precision("double"):
            ps = init_params(tiny("scenario-based"), seed=4)
            rng = np.random.default_rng(3)
            q_in = T.Tensor(rng.standard_normal((1, 3, 8)))
            mem = T.Tensor(rng.standard_normal((1, 4, 8)))
            c = _attend(ps, "dec.0.cross_attn", q_in, mem, None, 2)
            merged = dual_context_attention(ps, "dec.0.cross_attn", q_in, mem, mem, None, None, 2)
            manual = T.affine(
                T.concat([c, c], axis=-1),
                ps["dec.0.cross_attn.merge_w"],
                ps["dec.0.cross_attn.merge_b"],
            )
            assert np.array_equal(merged.data, manual.data)

    def test_shared_encoder_bitwise(self):
        m = TransformerModel.build(tiny("scenario-based"), seed=5)
        ids = np.array([[4, 5, 6, 7]])
        assert np.array_equal(m.encode(ids).data, m.encode(ids).data)


class TestDecoder:
    def setup_method(self):
        self.m = TransformerModel.build(tiny(), seed=6)
        self.hist = np.array([[4, 5, 6, 7]])
        self.resp_in = np.array([[2, 8, 9, 10]])  # bos first

    def test_distributions_sum_to_one(self):
        out = self.m.forward(self.hist, self.resp_in)
        sums = out.probabilities.data.sum(axis=-1)
        assert np.allclose(sums, 1.0, atol=1e-5)

    def test_hidden_state_shapes(self):
        out = self.m.forward(self.hist, self.resp_in)
        assert len(out.hidden_states) == self.m.config.num_blocks
        for h in out.hidden_states:
            assert h.data.shape == (1, 4, 8)

    def test_causality_exact(self):
        base = self.m.forward(self.hist, self.resp_in).probabilities.data.copy()
        for j in range(1, 4):
            changed = self.resp_in.copy()
            changed[0, j] = 11
            probs = self.m.forward(self.hist, changed).probabilities.data
            assert np.array_equal(probs[:, :j], base[:, :j]), f"position {j} leaked backward"
            assert not np.array_equal(probs[:, j:], base[:, j:])

    def test_memory_argument_contracts(self):
        mem = self.m.encode(self.hist)
        with pytest.raises(ContractError):
            self.m.decode(self.resp_in, history_memory=mem, future_memory=mem)
        with pytest.raises(ContractError):
            self.m.decode(self.resp_in)
        with pytest.raises(ContractError):
            self.m.forward(self.hist, self.resp_in, future=np.array([[4, 5]]))

    def test_scenario_requires_future(self):
        m = TransformerModel.build(tiny("scenario-based"), seed=7)
        with pytest.raises(ContractError):
            m.forward(self.hist, self.resp_in)
        out = m.forward(self.hist, self.resp_in, future=np.array([[9, 10, 11]]))
        assert out.probabilities.data.shape == (1, 4, 12)

    def test_train_mode_deterministic_given_rng_seed(self):
        m = TransformerModel.build(tiny(dropout_rate=0.2), seed=8)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            runs.append(m.forward(self.hist, self.resp_in, train=True, rng=rng).probabilities.data)
        assert np.array_equal(runs[0], runs[1])

    def test_train_mode_requires_rng(self):
        m = TransformerModel.build(tiny(dropout_rate=0.2), seed=8)
        with pytest.raises(ContractError):
            m.forward(self.hist, self.resp_in, train=True)


class TestDecodeState:
    """Incremental decode calls against the full-prefix pass they replace."""

    @pytest.fixture(autouse=True)
    def model(self):
        with T.precision("double"):
            self.m = TransformerModel.build(tiny(num_blocks=2, max_sequence_length=8), seed=6)
            self.hist = np.array([[4, 5, 6, 7, PAD]])
            self.mem = self.m.encode(self.hist, PAD)
            self.mask = key_padding_mask(self.hist, PAD)
            yield

    def _decode(self, rows, state=None):
        return self.m.decode(rows, history_memory=self.mem, history_mask=self.mask, state=state)

    def test_chunked_calls_match_full_prefix(self):
        resp_in = np.array([[2, 8, 9, 10, 4, 11, 5]])
        full = self._decode(resp_in)
        state = DecodeState()
        parts = [self._decode(resp_in[:, a:b], state) for a, b in ((0, 1), (1, 3), (3, 4), (4, 7))]
        assert state.length == 7
        # head-split: (rows, heads, length, d / heads)
        assert [kv[0].data.shape for kv in state.self_kv.values()] == [(1, 2, 7, 4)] * 2
        assert [kv[1].data.shape for kv in state.cross_kv] == [(1, 2, 5, 4)] * 2
        probs = np.concatenate([o.probabilities.data for o in parts], axis=1)
        assert np.max(np.abs(probs - full.probabilities.data)) < 1e-12
        for block in range(2):
            hidden = np.concatenate([o.hidden_states[block].data for o in parts], axis=1)
            assert np.max(np.abs(hidden - full.hidden_states[block].data)) < 1e-12

    def test_select_rows_reorders_cache(self):
        prefixes = np.array([[2, 4, 5], [2, 6, 7], [2, 8, 9]])
        state = DecodeState()
        self._decode(prefixes, state)
        rows = [2, 0, 0]
        state.select_rows(rows)
        new = np.array([[10], [11], [4]])
        step = self._decode(new, state).probabilities.data[:, -1]
        full = self._decode(np.concatenate([prefixes[rows], new], axis=1)).probabilities.data[:, -1]
        assert np.max(np.abs(step - full)) < 1e-12

    def test_length_cap_counts_cached_positions(self):
        state = DecodeState()
        self._decode(np.array([[2, 4, 5, 6, 7, 8]]), state)
        with pytest.raises(ContractError):
            self._decode(np.array([[9, 10, 11]]), state)
        assert state.length == 6
        self._decode(np.array([[9, 10]]), state)
        assert state.length == 8

    def test_state_only_for_conventional_inference(self):
        with pytest.raises(ContractError):
            self.m.decode(np.array([[2]]), history_memory=self.mem, history_mask=self.mask,
                          train=True, rng=np.random.default_rng(0), state=DecodeState())
        teacher = TransformerModel.build(tiny("scenario-based"), seed=7)
        mem = teacher.encode(self.hist, PAD)
        with pytest.raises(ContractError):
            teacher.decode(np.array([[2]]), history_memory=mem, future_memory=mem,
                           history_mask=self.mask, future_mask=self.mask, state=DecodeState())
        lm = TransformerModel.build(tiny("language-model"), seed=8)
        with pytest.raises(ContractError):
            lm.decode(np.array([[2]]), state=DecodeState())


class TestLanguageModelVariant:
    def test_aligned_output_shapes(self):
        m = TransformerModel.build(tiny("language-model"), seed=9)
        hist = np.array([[4, 5, 6, PAD]])
        resp_in = np.array([[2, 7, 8]])
        out = m.forward(hist, resp_in)
        assert out.probabilities.data.shape == (1, 3, 12)
        assert all(h.data.shape == (1, 3, 8) for h in out.hidden_states)

    def test_history_pads_are_invisible(self):
        m = TransformerModel.build(tiny("language-model"), seed=10)
        hist = np.array([[4, 5, PAD, PAD]])
        resp_in = np.array([[2, 7]])
        before = m.forward(hist, resp_in).probabilities.data.copy()
        m.params["decoder_embedding"].data[PAD] += 2.0
        after = m.forward(hist, resp_in).probabilities.data
        assert np.array_equal(before, after)

    def test_rejects_future(self):
        m = TransformerModel.build(tiny("language-model"), seed=9)
        with pytest.raises(ContractError):
            m.forward(np.array([[4]]), np.array([[2]]), future=np.array([[5]]))


class TestFullModelGradients:
    """Spot finite-difference checks through entire forward passes."""

    def _loss(self, m, rng):
        hist = np.array([[4, 5, 6], [7, 8, PAD]])
        fut = np.array([[9, 10], [11, 4]])
        resp_in = np.array([[2, 5, 9], [2, 6, PAD]])
        weights = T.Tensor(rng.standard_normal((2, 3, 12)))
        kwargs = {}
        if m.config.variant == "scenario-based":
            kwargs["future"] = fut
        out = m.forward(hist, resp_in, **kwargs)
        loss = T.tsum(T.mul(out.probabilities, weights))
        for h in out.hidden_states:
            loss = T.add(loss, T.tsum(T.mean_square(h, T.Tensor(np.zeros(h.data.shape)))))
        return loss

    @pytest.mark.parametrize("variant", ["conventional", "scenario-based", "language-model"])
    def test_parameter_gradients_match_fd(self, variant):
        rng = np.random.default_rng(11)
        with T.precision("double"):
            m = TransformerModel.build(tiny(variant), seed=12)
            loss = self._loss(m, rng)
            T.backward(loss)
            picks = {
                "conventional": ["encoder_embedding", "dec.0.cross_attn.wo", "out_proj.w",
                                 "enc.0.ln_ffn.gain"],
                "scenario-based": ["dec.0.cross_attn.merge_w", "enc.0.attn.wq",
                                   "decoder_embedding"],
                "language-model": ["decoder_embedding", "dec.0.self_attn.wv", "out_proj.b"],
            }[variant]
            step = 1e-5
            for name in picks:
                t = m.params[name]
                assert t.grad is not None, name
                flat = t.data.reshape(-1)
                gflat = t.grad.reshape(-1)
                idx = np.random.default_rng(13).choice(flat.size, size=min(4, flat.size), replace=False)
                for i in idx:
                    keep = flat[i]
                    flat[i] = keep + step
                    hi = self._loss(m, np.random.default_rng(11)).data.item()
                    flat[i] = keep - step
                    lo = self._loss(m, np.random.default_rng(11)).data.item()
                    flat[i] = keep
                    fd = (hi - lo) / (2 * step)
                    denom = max(abs(fd), abs(gflat[i]), 1e-4)
                    assert abs(fd - gflat[i]) / denom < 1e-4, f"{name}[{i}]"
