"""Structural and behavioral checks on the transformer variants."""

import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dialdistill import tensor as T
from dialdistill.corpus import EncodedExample, make_batch
from dialdistill.errors import ContractError, ShapeError, VocabularyError
from dialdistill.losses import nll_sum
from dialdistill.model import (
    MEMORIES,
    SIZE_FIELDS,
    DecodeOutput,
    DecodeState,
    ModelConfig,
    ParameterSet,
    TransformerModel,
    _project_kv,
    attention_sublayer,
    causal_mask,
    desk_config,
    init_params,
    parameter_layout,
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

    @pytest.mark.parametrize("value", [8.0, True, "8", None])
    def test_sizes_must_be_integers(self, value):
        for field in SIZE_FIELDS:
            with pytest.raises(ContractError, match=f"{field} must be an integer"):
                tiny(**{field: value})

    def test_presets(self):
        d = desk_config(100)
        assert (d.num_blocks, d.num_heads, d.model_dim, d.ffn_dim) == (2, 2, 64, 128)
        p = paper_config(100)
        assert (p.num_blocks, p.num_heads, p.model_dim, p.ffn_dim) == (2, 4, 256, 1024)

    def test_roundtrip_dict(self):
        c = tiny(variant="scenario-based")
        assert ModelConfig(**c.to_dict()) == c


class TestInit:
    def test_weight_std(self):
        ps = init_params(desk_config(600), seed=3)
        sample = ps["encoder_embedding"].data.reshape(-1)[:10_000]
        assert 0.009 <= sample.std() <= 0.011
        assert abs(sample.mean()) < 0.001

    def test_tensors_view_one_flat_array_in_layout_order(self):
        ps = init_params(tiny("scenario-based"), seed=7)
        assert ps.values.dtype == T.active_dtype()
        assert np.array_equal(ps.values, np.concatenate([t.data.ravel() for _, t in ps.items()]))
        for name, t in ps.items():
            assert np.shares_memory(t.data, ps.values[ps.span(name)]), name
        with pytest.raises(ContractError, match="duplicate"):
            ParameterSet([("w", (2,), True), ("w", (3,), True)])

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

    @pytest.mark.parametrize("variant", ["conventional", "scenario-based", "language-model"])
    def test_parameters_follow_the_layout(self, variant):
        ps = init_params(tiny(variant), seed=0)
        layout = parameter_layout(tiny(variant))
        assert [(n, t.data.shape) for n, t in ps.items()] == [(n, shape) for n, shape, _ in layout]
        for name, _, init in layout:
            if init in ("zeros", "ones"):
                assert np.all(ps[name].data == (init == "ones")), name


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
    """Reference multi-head attention sublayer: one head at a time over
    column slices of the projections, contexts joined along features, then
    the output projection."""
    p = {n: ps[f"{prefix}.{n}"].data for n in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")}
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
    return np.concatenate(heads, axis=-1) @ p["wo"] + p["bo"]


def graph_size(*outputs):
    seen, stack = set(), list(outputs)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def chain_attention(q, k, v, mask, num_heads, g_out):
    """The 14-node chain ``T.attention`` replaced, in plain numpy: the q, k
    and v head splits (reshape, transpose), the transpose of k, the scores
    product, the scale ``mul``, the mask ``add``, softmax, the context
    product and the head join (transpose, reshape). Returns the output and
    the q, k and v gradients for the incoming gradient ``g_out``, each node's
    backward run in turn and its result kept as ``T.backward`` keeps an inner
    node's gradient."""

    def kept(g):  # a strided view is copied C-ordered
        return g.copy() if g.base is not None and not g.flags.c_contiguous else g

    def unbroadcast(g, shape):
        if g.ndim > len(shape):
            g = g.sum(axis=tuple(range(g.ndim - len(shape))))
        axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
        return (g.sum(axis=axes, keepdims=True) if axes else g).reshape(shape)

    b, t, d = q.shape
    b_kv, s, _ = k.shape
    dh = d // num_heads
    split = (0, 2, 1, 3)
    qh = np.transpose(q.reshape(b, t, num_heads, dh), split)
    kh = np.transpose(k.reshape(b_kv, s, num_heads, dh), split)
    vh = np.transpose(v.reshape(b_kv, s, num_heads, dh), split)
    kt = np.transpose(kh, (0, 1, 3, 2))
    s0 = qh @ kt
    scale = np.asarray(1.0 / np.sqrt(dh), dtype=q.dtype)
    s1 = s0 * scale
    s2 = s1 if mask is None else s1 + np.asarray(mask[..., None, :, :], dtype=q.dtype)
    shifted = s2 - s2.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    c0 = y @ vh
    c1 = np.transpose(c0, split)
    out = c1.reshape(b, t, d)

    g_c1 = kept(g_out.reshape(c1.shape))
    g_c0 = kept(np.transpose(g_c1, np.argsort(split)))
    g_y = kept(unbroadcast(g_c0 @ np.swapaxes(vh, -1, -2), y.shape))
    g_vh = kept(unbroadcast(np.swapaxes(y, -1, -2) @ g_c0, vh.shape))
    g_s2 = (g_y - (g_y * y).sum(axis=-1, keepdims=True)) * y
    g_s1 = g_s2 if mask is None else kept(unbroadcast(g_s2, s1.shape))
    g_s0 = kept(unbroadcast(g_s1 * scale, s0.shape))
    g_qh = kept(unbroadcast(g_s0 @ np.swapaxes(kt, -1, -2), qh.shape))
    g_kt = kept(unbroadcast(np.swapaxes(qh, -1, -2) @ g_s0, kt.shape))
    g_kh = kept(np.transpose(g_kt, np.argsort((0, 1, 3, 2))))
    g_q = kept(np.transpose(g_qh, np.argsort(split))).reshape(q.shape)
    g_k = kept(np.transpose(g_kh, np.argsort(split))).reshape(k.shape)
    g_v = kept(np.transpose(g_vh, np.argsort(split))).reshape(v.shape)
    return out, g_q, g_k, g_v


def padding_and_causal_masks(rng, b, t, s):
    """The three mask shapes ``attention_sublayer`` is given, keyed by name."""
    ids = rng.integers(4, 12, size=(b, s))
    ids[0, s // 2:] = PAD
    padding = key_padding_mask(ids)
    causal = causal_mask(s)[s - t:]
    return {"padding": padding, "causal": causal, "causal-plus-padding": causal[None] + padding}


class TestAttentionEqualsTheChain:
    """``T.attention`` against the chain of primitives it replaced: outputs,
    gradients and gradient layouts bitwise equal, in single precision."""

    @staticmethod
    def assert_same_as_chain(q, k, v, mask, num_heads, g_out):
        node = T.attention(T.Tensor(q, requires_grad=True), T.Tensor(k, requires_grad=True),
                           T.Tensor(v, requires_grad=True), mask, num_heads)
        want = chain_attention(q, k, v, mask, num_heads, g_out)
        got = (node.data,) + tuple(node._backward(g_out))
        for name, a, b in zip(("output", "q", "k", "v"), want, got):
            assert a.dtype == b.dtype == np.float32, name
            assert a.shape == b.shape and a.strides == b.strides, name
            assert np.array_equal(a, b), name

    # desk width over a desk batch, and paper width over a paper batch
    @pytest.mark.parametrize("d, num_heads, b, t, s", [
        (64, 1, 16, 8, 12), (64, 2, 16, 8, 12), (64, 4, 16, 8, 12), (256, 4, 32, 15, 60)],
        ids=["desk-H1", "desk-H2", "desk-H4", "paper-H4"])
    @pytest.mark.parametrize("mask", ["none", "padding", "causal", "causal-plus-padding"])
    def test_bitwise_equal_to_the_chain(self, mask, d, num_heads, b, t, s):
        rng = np.random.default_rng(d + num_heads)
        q, k, v, g = (rng.standard_normal(shape).astype(np.float32)
                      for shape in ((b, t, d), (b, s, d), (b, s, d), (b, t, d)))
        masks = padding_and_causal_masks(rng, b, t, s)
        self.assert_same_as_chain(q, k, v, masks.get(mask), num_heads, g)

    def test_one_memory_serves_four_beam_rows(self):
        # cross-attention keys and values cached as (1, S, d) serve a beam's
        # rows: the same as repeating them per row, and equal to the chain
        rng = np.random.default_rng(5)
        q, g = (rng.standard_normal((4, 1, 64)).astype(np.float32) for _ in range(2))
        k, v = (rng.standard_normal((1, 12, 64)).astype(np.float32) for _ in range(2))
        mask = padding_and_causal_masks(rng, 1, 1, 12)["padding"]
        self.assert_same_as_chain(q, k, v, mask, 2, g)
        shared = T.attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), mask, 2).data
        repeated = T.attention(T.Tensor(q), T.Tensor(np.repeat(k, 4, axis=0)),
                               T.Tensor(np.repeat(v, 4, axis=0)), np.repeat(mask, 4, axis=0), 2).data
        assert np.array_equal(shared, repeated)

    def test_desk_student_forward_records_one_node_per_attention(self):
        model = TransformerModel.build(desk_config(30), seed=0)
        rng = np.random.default_rng(0)
        out = model.forward(rng.integers(4, 30, (16, 20)), rng.integers(4, 30, (16, 8)),
                            train=True, rng=rng)
        ops = [n._op for n in T._topological_order(out.log_probs, grad_only=False) if n._parents]
        # two encoder self-attentions, two decoder self- and two cross-attentions
        assert ops.count("attention") == 6
        assert len(ops) == 51


def kept_arrays(root):
    """(op, name, array) of every array that ``root``'s recorded graph keeps:
    each interior node's output, and each array its backward closure holds."""
    for node in T._topological_order(root, grad_only=False):
        if node._parents:
            yield node._op, "data", node.data
            cells = zip(node._backward.__code__.co_freevars, node._backward.__closure__ or ())
            yield from ((node._op, name, c.cell_contents) for name, c in cells
                        if isinstance(c.cell_contents, np.ndarray))


def buffer_bytes(arrays) -> int:
    """The bytes of the buffers under ``arrays``, each buffer counted once."""
    buffers = {}
    for a in arrays:
        while isinstance(a.base, np.ndarray):
            a = a.base
        buffers[id(a)] = a.nbytes
    return sum(buffers.values())


class TestGraphMemory:
    def test_a_desk_teacher_step_keeps_only_what_backward_reads(self):
        # the keep masks at one byte an entry, and no gathered rows, position
        # sum, dropout output, residual sum or pre-relu activation
        model = TransformerModel.build(desk_config(30, "scenario-based"), seed=0)
        rng = np.random.default_rng(0)
        history, response, future = (rng.integers(4, 30, (16, n)) for n in (12, 7, 12))
        out = model.forward(history, response[:, :-1], future=future, train=True, rng=rng)
        loss = nll_sum(out.log_probs, response[:, 1:], np.ones((16, 6)))
        kept = list(kept_arrays(loss))
        masks = [a for op, name, a in kept if name == "keep"]
        # the three embeddings' dropouts and the fourteen residuals'
        assert len(masks) == 17 and all(m.dtype == np.bool_ for m in masks)
        assert sum(1 for n in T._topological_order(loss, grad_only=False) if n._parents) == 82
        assert buffer_bytes(a for _, _, a in kept) == 4217664


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
            "padding (B, 1, S)": key_padding_mask(ids),
            "offset causal (T, S)": causal_mask(s)[s - t:],
            "causal plus padding (B, T, S)": causal_mask(s)[s - t:][None] + key_padding_mask(ids),
        }
        with T.precision("double"):
            ps = init_params(tiny(num_heads=num_heads), seed=11)
            q_in = rng.standard_normal((b, t, 8))
            mem = rng.standard_normal((b, s, 8))
            for name, mask in masks.items():
                expected = per_head_attention(ps, "dec.0.cross_attn", q_in, mem, mask, num_heads)
                kv = _project_kv(ps, "dec.0.cross_attn", T.Tensor(mem))
                assert kv[0].data.shape == (b, s, 8)
                got = attention_sublayer(ps, "dec.0.cross_attn", T.Tensor(q_in), [kv], [mask], num_heads)
                assert got.data.shape == (b, t, 8)
                assert np.max(np.abs(got.data - expected)) <= 1e-12, name
                # keys and values cached off the graph, as a DecodeState holds them
                cached = tuple(T.as_tensor(t.data.copy()) for t in kv)
                again = attention_sublayer(ps, "dec.0.cross_attn", T.Tensor(q_in), [cached], [mask],
                                           num_heads)
                assert np.array_equal(again.data, got.data), name

    def test_graph_size_does_not_grow_with_heads(self):
        hist = np.array([[4, 5, 6, 7], [8, 9, PAD, PAD]])
        resp_in = np.array([[2, 8, 9], [2, 10, 11]])
        sizes = []
        for num_heads in (1, 2, 4):
            m = TransformerModel.build(tiny(num_blocks=2, num_heads=num_heads), seed=3)
            out = m.forward(hist, resp_in)
            sizes.append(graph_size(out.probabilities, *out.hidden_states))
        assert sizes[0] == sizes[1] == sizes[2]


def sublayer(ps, q_in, *memories, prefix="dec.0.cross_attn"):
    """``attention_sublayer`` over freshly projected unmasked memories."""
    kvs = [_project_kv(ps, prefix, m) for m in memories]
    return attention_sublayer(ps, prefix, q_in, kvs, [None] * len(kvs), num_heads=2)


class TestDualContextAttention:
    def test_single_key_context_is_value_vector(self):
        # softmax over one key is 1, so the context equals that position's
        # value vector and the sublayer's output is its output projection
        with T.precision("double"):
            ps = init_params(tiny("scenario-based"), seed=3)
            mem = T.Tensor(np.random.default_rng(0).standard_normal((1, 1, 8)))
            q_in = T.Tensor(np.random.default_rng(1).standard_normal((1, 2, 8)))
            v = T.affine(mem, ps["dec.0.cross_attn.wv"], ps["dec.0.cross_attn.bv"])
            out = T.affine(v, ps["dec.0.cross_attn.wo"], ps["dec.0.cross_attn.bo"])
            got = sublayer(ps, q_in, mem)
            assert np.allclose(got.data, np.broadcast_to(out.data, got.data.shape), atol=1e-12)

    def test_merged_width(self):
        with T.precision("double"):
            ps = init_params(tiny("scenario-based"), seed=3)
            rng = np.random.default_rng(2)
            q_in = T.Tensor(rng.standard_normal((1, 3, 8)))
            mem_h = T.Tensor(rng.standard_normal((1, 4, 8)))
            mem_f = T.Tensor(rng.standard_normal((1, 5, 8)))
            assert sublayer(ps, q_in, mem_h, mem_f).data.shape == (1, 3, 8)

    def test_identical_contexts_from_identical_memories(self):
        # shared projections: same memory on both sides gives c_h = c_f,
        # hence the merged output equals merge([c, c])
        with T.precision("double"):
            ps = init_params(tiny("scenario-based"), seed=4)
            rng = np.random.default_rng(3)
            q_in = T.Tensor(rng.standard_normal((1, 3, 8)))
            mem = T.Tensor(rng.standard_normal((1, 4, 8)))
            q = T.affine(q_in, ps["dec.0.cross_attn.wq"], ps["dec.0.cross_attn.bq"])
            c = T.attention(q, *_project_kv(ps, "dec.0.cross_attn", mem), None, 2)
            merged = T.affine(
                T.concat([c, c], axis=-1),
                ps["dec.0.cross_attn.merge_w"],
                ps["dec.0.cross_attn.merge_b"],
            )
            manual = T.affine(merged, ps["dec.0.cross_attn.wo"], ps["dec.0.cross_attn.bo"])
            assert np.array_equal(sublayer(ps, q_in, mem, mem).data, manual.data)

    def test_queries_projected_once_per_block(self):
        model = TransformerModel.build(desk_config(30, "scenario-based"), seed=0)
        rng = np.random.default_rng(0)
        out = model.forward(rng.integers(4, 30, (2, 9)), rng.integers(4, 30, (2, 5)),
                            future=rng.integers(4, 30, (2, 7)))
        nodes = T._topological_order(out.log_probs, grad_only=False)
        for i in range(model.config.num_blocks):
            wq = model.params[f"dec.{i}.cross_attn.wq"]
            assert sum(n._op == "affine" and n._parents[1] is wq for n in nodes) == 1, i

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

    @pytest.mark.parametrize("variant", ["conventional", "scenario-based", "language-model"])
    def test_ids_that_are_not_integers_rejected(self, variant):
        m = TransformerModel.build(tiny(variant), seed=7)
        floats = np.array([[4.0, 5.0]])
        inputs = {"conventional": (floats, self.resp_in, None),
                  "scenario-based": (floats, self.resp_in, np.array([[9, 10]])),
                  "language-model": (np.zeros((1, 0), np.int64), floats, None)}[variant]
        with pytest.raises(VocabularyError, match="must be integers"):
            m.forward(*inputs)

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
        with pytest.raises(ContractError, match="train=True requires an rng for dropout"):
            m.forward(self.hist, self.resp_in, train=True)
        # a residual draws its mask inside its layer_norm, and asks for an rng too
        x = T.Tensor(np.ones((1, 3, 8)))
        with pytest.raises(ContractError, match="train=True requires an rng for dropout"):
            m._residual(x, x, "dec.0.ln_self", True, None)

    @pytest.mark.parametrize("forked", [False, True])
    def test_teacher_draws_the_masks_of_its_passes_in_turn(self, monkeypatch, forked):
        # the future's dropout draws from a copy of the generator advanced
        # past the history's draws, on the helper or here: every mask, and
        # the generator after the pass, are those of the passes in turn
        m = TransformerModel.build(tiny("scenario-based", dropout_rate=0.2), seed=8)
        hist, resp_in = np.repeat(self.hist, 2, axis=0), np.repeat(self.resp_in, 2, axis=0)
        future = np.array([[9, 10, 11], [4, 9, PAD]])
        in_turn = np.random.default_rng(42)
        memories = [m.encode(x, True, in_turn) for x in (hist, future)]
        want = m.decode(resp_in, *memories, key_padding_mask(hist), key_padding_mask(future),
                        train=True, rng=in_turn)
        monkeypatch.setattr(T, "_FORK_GEMM", 0 if forked else 10**18)
        rng = np.random.default_rng(42)
        with ThreadPoolExecutor(max_workers=1) as pool, T.helper(pool):
            got = m.forward(hist, resp_in, future=future, train=True, rng=rng)
        for a, b in zip(want.hidden_states + [want.log_probs], got.hidden_states + [got.log_probs]):
            assert np.array_equal(a.data, b.data)
        assert rng.random() == in_turn.random()


GIVEN = [(False, False), (True, False), (False, True), (True, True)]


def given_id(given):
    return "+".join(name for name, on in zip(("history", "future"), given) if on) or "neither"


class TestMemoryTable:
    """``MEMORIES`` is the one place that says which memories, (history,
    future), each variant reads: decode and forward take exactly those."""

    def test_table(self):
        assert MEMORIES == {"conventional": (True, False), "scenario-based": (True, True),
                            "language-model": (False, False)}

    @pytest.mark.parametrize("variant", sorted(MEMORIES))
    def test_layout_follows_the_table(self, variant):
        names = [name for name, _, _ in parameter_layout(tiny(variant))]
        reads_history, reads_future = MEMORIES[variant]
        assert ("encoder_embedding" in names) == ("dec.0.cross_attn.wq" in names) == reads_history
        assert ("dec.0.cross_attn.merge_w" in names) == reads_future

    @pytest.mark.parametrize("given", GIVEN, ids=given_id)
    @pytest.mark.parametrize("variant", sorted(MEMORIES))
    def test_decode_takes_the_memories_its_variant_reads(self, variant, given):
        m = TransformerModel.build(tiny(variant), seed=7)
        history = np.array([[4, 5, 6, PAD]])
        memory = TransformerModel.build(tiny(), seed=8).encode(history)
        memories = {}
        if given[0]:
            memories.update(history_memory=memory, history_mask=key_padding_mask(history))
        if given[1]:
            memories.update(future_memory=memory, future_mask=key_padding_mask(history))
        response_in = np.array([[2, 8, 9]])
        if given == MEMORIES[variant]:
            assert m.decode(response_in, **memories).probabilities.data.shape == (1, 3, 12)
        else:
            with pytest.raises(ContractError):
                m.decode(response_in, **memories)

    @pytest.mark.parametrize("given", GIVEN, ids=given_id)
    @pytest.mark.parametrize("variant", sorted(MEMORIES))
    def test_forward_takes_the_inputs_its_variant_reads(self, variant, given):
        m = TransformerModel.build(tiny(variant), seed=7)
        history = np.array([[4, 5, 6, PAD]]) if given[0] else no_history(1)
        future = np.array([[9, 10, 11]]) if given[1] else None
        response_in = np.array([[2, 8, 9]])
        if given == MEMORIES[variant]:
            assert m.forward(history, response_in, future=future).probabilities.data.shape == (1, 3, 12)
        else:
            with pytest.raises(ContractError):
                m.forward(history, response_in, future=future)

    def test_teacher_rejects_a_future_memory_of_another_width(self):
        m = TransformerModel.build(tiny("scenario-based"), seed=7)
        history = np.array([[4, 5, 6]])
        narrow = T.Tensor(np.zeros((1, 3, 6), dtype=np.float32))
        with pytest.raises(ShapeError):
            m.decode(np.array([[2, 8]]), history_memory=m.encode(history), future_memory=narrow,
                     history_mask=key_padding_mask(history), future_mask=key_padding_mask(history))


class TestDecodeState:
    """Incremental decode calls against the full-prefix pass they replace."""

    @pytest.fixture(autouse=True)
    def model(self):
        with T.precision("double"):
            self.m = TransformerModel.build(tiny(num_blocks=2, max_sequence_length=8), seed=6)
            self.hist = np.array([[4, 5, 6, 7, PAD]])
            self.mem = self.m.encode(self.hist)
            self.mask = key_padding_mask(self.hist)
            yield

    def _decode(self, rows, state=None):
        return self.m.decode(rows, history_memory=self.mem, history_mask=self.mask, state=state)

    def test_chunked_calls_match_full_prefix(self):
        resp_in = np.array([[2, 8, 9, 10, 4, 11, 5]])
        full = self._decode(resp_in)
        state = DecodeState()
        parts = [self._decode(resp_in[:, a:b], state) for a, b in ((0, 1), (1, 3), (3, 4), (4, 7))]
        assert state.length == 7
        # keys and values are cached as (rows, length, d)
        assert [[t.data.shape for t in kv] for kv in state.self_kv.values()] == [[(1, 7, 8)] * 2] * 2
        assert [[t.data.shape for t in kv] for kv in state.cross_kv] == [[(1, 5, 8)] * 2] * 2
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
        # the rows' own keys and values grew by one position; the history
        # memory's keep one row, which serves all three
        assert [[t.data.shape for t in kv] for kv in state.self_kv.values()] == [[(3, 4, 8)] * 2] * 2
        assert [[t.data.shape for t in kv] for kv in state.cross_kv] == [[(1, 5, 8)] * 2] * 2
        full = self._decode(np.concatenate([prefixes[rows], new], axis=1)).probabilities.data[:, -1]
        assert np.max(np.abs(step - full)) < 1e-12

    def test_select_rows_carries_a_multi_row_memory(self):
        # three padded histories; each row keeps reading its own history
        hist = np.array([[4, 5, 6, 7, PAD], [8, 9, PAD, PAD, PAD], [10, 11, 4, PAD, PAD]])
        mem, mask = self.m.encode(hist), key_padding_mask(hist)
        prefixes = np.array([[2, 4, 5], [2, 6, 7], [2, 8, 9]])
        state = DecodeState()
        self.m.decode(prefixes, history_memory=mem, history_mask=mask, state=state)
        rows = [2, 0, 0]
        state.select_rows(rows)
        assert [[t.data.shape for t in kv] for kv in state.cross_kv] == [[(3, 5, 8)] * 2] * 2
        assert np.array_equal(state.cross_mask, mask[rows])
        new = np.array([[10], [11], [4]])
        step = self.m.decode(new, history_memory=mem, history_mask=mask, state=state).probabilities.data[:, -1]
        full = self.m.decode(np.concatenate([prefixes[rows], new], axis=1), history_memory=T.Tensor(mem.data[rows]),
                             history_mask=mask[rows]).probabilities.data[:, -1]
        assert np.max(np.abs(step - full)) < 1e-12

    def test_select_rows_gathers_the_memory_only_when_a_row_changes_history(self):
        hist = np.array([[4, 5, 6, 7, PAD], [8, 9, PAD, PAD, PAD]])
        mem, mask = self.m.encode(hist), key_padding_mask(hist)
        state = DecodeState()

        def step(ids):
            return self.m.decode(np.array(ids)[:, None], history_memory=mem, history_mask=mask,
                                 state=state).probabilities.data[:, -1]

        def full(prefixes, memory_rows):
            return self.m.decode(np.array(prefixes), history_memory=T.Tensor(mem.data[memory_rows]),
                                 history_mask=mask[memory_rows]).probabilities.data[:, -1]

        step([2, 2])
        state.select_rows([0, 0, 1, 1])  # two hypotheses per history: the memory is gathered
        assert np.array_equal(state.memory_rows, [0, 0, 1, 1])
        step([5, 6, 9, 10])
        cached = [t for kv in state.cross_kv for t in kv] + [state.cross_mask]
        state.select_rows([1, 0, 3, 3])  # a steady step: every row keeps its history
        assert all(a is b for a, b in zip(cached, [t for kv in state.cross_kv for t in kv] + [state.cross_mask]))
        steady = step([7, 4, 11, 8])
        expected = full([[2, 6, 7], [2, 5, 4], [2, 10, 11], [2, 10, 8]], [0, 0, 1, 1])
        assert np.max(np.abs(steady - expected)) < 1e-12
        state.select_rows([0, 1, 1, 2])  # the third row moves to the first history
        assert np.array_equal(state.memory_rows, [0, 0, 0, 1])
        assert np.array_equal(state.cross_mask, mask[[0, 0, 0, 1]])
        moved = step([4, 5, 6, 7])
        expected = full([[2, 6, 7, 4], [2, 5, 4, 5], [2, 5, 4, 6], [2, 10, 11, 7]], [0, 0, 0, 1])
        assert np.max(np.abs(moved - expected)) < 1e-12

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
        mem = teacher.encode(self.hist)
        with pytest.raises(ContractError):
            teacher.decode(np.array([[2]]), history_memory=mem, future_memory=mem,
                           history_mask=self.mask, future_mask=self.mask, state=DecodeState())
        lm = TransformerModel.build(tiny("language-model"), seed=8)
        with pytest.raises(ContractError):
            lm.decode(np.array([[2]]), state=DecodeState())


def _traced(fn):
    """``fn()``, with the bytes ``tracemalloc`` saw held at its end and at its peak."""
    tracemalloc.start()
    try:
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak


class TestGraphFreeInference:
    """Under ``params.inference()`` a primitive keeps no inputs, so an
    intermediate is freed once its consumers have run."""

    def inputs(self, vocab):
        rng = np.random.default_rng(0)
        return rng.integers(4, vocab, (8, 30)), rng.integers(4, vocab, (8, 10)), rng.integers(4, vocab, (8, 30))

    def test_inference_forward_peaks_below_half_its_graph(self):
        model = TransformerModel.build(desk_config(2000, "scenario-based"), seed=0)
        history, response_in, future = self.inputs(2000)
        recorded = model.forward(history, response_in, future=future)
        nodes = T._topological_order(recorded.log_probs, grad_only=False)
        graph = sum(n.data.nbytes for n in nodes if n._parents)
        with model.params.inference():
            out, held, peak = _traced(lambda: model.forward(history, response_in, future=future))
        assert np.array_equal(out.log_probs.data, recorded.log_probs.data)
        assert out.log_probs._parents == () and all(h._parents == () for h in out.hidden_states)
        assert peak < graph / 2, (peak, graph)
        kept = out.log_probs.data.nbytes + sum(h.data.nbytes for h in out.hidden_states)
        assert held < 1.1 * kept, (held, kept)

    def test_inference_in_one_thread_leaves_another_recording(self):
        # graph_free is a switch of its own thread: while a worker is inside
        # inference(), a forward here records its graph, and no parameter's
        # requires_grad is touched
        model = TransformerModel.build(desk_config(50), seed=0)
        history, response_in, _ = self.inputs(50)
        before = {n: t.requires_grad for n, t in model.params.items()}
        inside, leave = threading.Barrier(2, timeout=60), threading.Barrier(2, timeout=60)
        worker_out = []

        def infer():
            with model.params.inference():
                inside.wait()
                worker_out.append(model.forward(history, response_in).log_probs)
                leave.wait()

        worker = threading.Thread(target=infer)
        worker.start()
        try:
            inside.wait()
            out = model.forward(history, response_in)
            during = {n: t.requires_grad for n, t in model.params.items()}
        finally:
            leave.wait()
            worker.join(timeout=60)
        assert not worker.is_alive()
        assert out.log_probs.requires_grad and out.log_probs._parents
        assert during == before and {n: t.requires_grad for n, t in model.params.items()} == before
        assert not worker_out[0].requires_grad and worker_out[0]._parents == ()

    @pytest.mark.parametrize("reorder", [False, True])  # greedy steps, or beam steps that reorder rows
    def test_decode_state_holds_its_caches_alone(self, reorder):
        model = TransformerModel.build(desk_config(2000), seed=0)
        history, _, _ = self.inputs(2000)

        def steps():
            for _ in range(24):
                out = model.decode(np.full((8, 1), 5), memory, history_mask=mask, state=state)
                if reorder:
                    state.select_rows(np.arange(8)[::-1])
            return out

        with model.params.inference():
            memory, mask, state = model.encode(history), key_padding_mask(history), DecodeState()
            out, held, _ = _traced(steps)
        cached = [t for kv in [*state.self_kv.values(), *state.cross_kv] for t in kv]
        assert all(t._parents == () for t in cached)
        kept = sum(t.data.nbytes for t in cached + [out.log_probs, *out.hidden_states])
        # an earlier step's concat chain would hold every shorter cache as well
        assert held < 1.2 * kept, (held, kept)


def lm_block_loop(m, response_in, train=False, rng=None):
    """The language model's forward as it ran before it read the response
    alone, with the empty history the pipeline always passed it: decoder
    blocks over the response under the causal mask plus a key mask on pads."""
    p = m.params
    mask = causal_mask(response_in.shape[-1])[None, :, :] + key_padding_mask(response_in)
    x = m._embed("decoder_embedding", response_in, train, rng)
    hidden = []
    for i in range(m.config.num_blocks):
        prefix = f"dec.{i}.self_attn"
        a = attention_sublayer(p, prefix, x, [_project_kv(p, prefix, x)], [mask], m.config.num_heads)
        x = m._residual(x, a, f"dec.{i}.ln_self", train, rng)
        f = m._ffn(x, f"dec.{i}.ffn")
        x = m._residual(x, f, f"dec.{i}.ln_ffn", train, rng)
        hidden.append(x)
    return DecodeOutput(log_probs=T.head(x, p["out_proj.w"], p["out_proj.b"]), hidden_states=hidden)


def no_history(rows):
    return np.zeros((rows, 0), dtype=np.int64)


class TestDecodeStepRows:
    """Criterion 12 compares beam widths 1 and 4 at desk width, which holds
    only if a decode row rounds the same beside a few other rows as alone."""

    def test_four_rows_equal_each_row_stepped_alone(self):
        model = TransformerModel.build(desk_config(30), seed=0)
        rng = np.random.default_rng(12)
        history = rng.integers(4, 30, (1, 10))
        memory, mask = model.encode(history), key_padding_mask(history)
        prefixes = np.concatenate([np.full((4, 1), 2), rng.integers(4, 30, (4, 2))], axis=1)

        def steps(rows):
            state = DecodeState()
            return [model.decode(rows[:, [i]], history_memory=memory, history_mask=mask,
                                 state=state).probabilities.data for i in range(rows.shape[1])]

        together = steps(prefixes)
        for r in range(4):
            for i, alone in enumerate(steps(prefixes[[r]])):
                assert np.array_equal(alone[0], together[i][r]), (r, i)


class TestLanguageModelVariant:
    def test_aligned_output_shapes(self):
        m = TransformerModel.build(tiny("language-model"), seed=9)
        resp_in = np.array([[2, 7, 8]])
        out = m.forward(no_history(1), resp_in)
        assert out.probabilities.data.shape == (1, 3, 12)
        assert all(h.data.shape == (1, 3, 8) for h in out.hidden_states)

    @pytest.mark.parametrize("width", ["desk", "paper"])
    @pytest.mark.parametrize("history_length", [0])  # the only history the LM takes
    def test_bitwise_equal_to_its_own_block_loop(self, width, history_length):
        # right-padded responses of different lengths: every unmasked
        # position, the NLL and every gradient match the old pad-masked pass
        make = desk_config if width == "desk" else paper_config
        m = TransformerModel.build(make(40, "language-model", dropout_rate=0.1), seed=3)
        rng = np.random.default_rng(4)
        examples = [EncodedExample(history=[5], response=list(rng.integers(4, 40, size=n)), future=[])
                    for n in (14, 3, 9, 1)]
        batch = make_batch(examples, include_future=False)
        keep = batch.target_mask > 0
        runs = []
        history = np.zeros((len(examples), history_length), dtype=np.int64)
        for forward in (lambda r, **kw: m.forward(history, r, **kw), lambda r, **kw: lm_block_loop(m, r, **kw)):
            m.params.zero_grads()
            out = forward(batch.response_in, train=True, rng=np.random.default_rng(5))
            nll = nll_sum(out.log_probs, batch.response_target, batch.target_mask)
            T.backward(nll)
            runs.append([nll.data, out.log_probs.data[keep]] + [h.data[keep] for h in out.hidden_states]
                        + [t.grad for _, t in m.params.items() if t.grad is not None])
        assert not keep.all()
        assert len(runs[0]) == len(runs[1]) > 3
        assert all(np.array_equal(a, b) for a, b in zip(*runs))

    def test_rejects_history(self):
        m = TransformerModel.build(tiny("language-model"), seed=9)
        with pytest.raises(ContractError):
            m.forward(np.array([[4, 5]]), np.array([[2, 7]]))

    def test_rejects_future(self):
        m = TransformerModel.build(tiny("language-model"), seed=9)
        with pytest.raises(ContractError):
            m.forward(no_history(1), np.array([[2]]), future=np.array([[5]]))


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
        if m.config.variant == "language-model":
            hist = no_history(2)
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
