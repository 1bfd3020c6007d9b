"""Encoder-decoder transformer with three variants.

* ``conventional`` — response generator conditioned on dialogue history only.
* ``scenario-based`` — the teacher: a second pass of the *same* encoder
  reads the future conversation, and each decoder block attends to both
  memories with shared projections, concatenates the two contexts, and
  merges them back to width d with a learned projection. The merge
  projection is the only tensor the conventional variant lacks.
* ``language-model`` — decoder-only blocks over the concatenation of
  history and response; no encoder, no cross-attention.

All variants expose per-block decoder hidden states so a student can be
trained to imitate them layer by layer.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError

VARIANTS = ("conventional", "scenario-based", "language-model")

# Additive attention mask value for forbidden positions. exp(-1e9 + x)
# underflows to exactly 0.0 in both float32 and float64 for any score x
# that can realistically appear, which is what makes the causality and
# pad-invariance guarantees exact rather than approximate.
MASKED = -1e9


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    model_dim: int = 64
    num_blocks: int = 2
    num_heads: int = 2
    ffn_dim: int = 128
    dropout_rate: float = 0.1
    max_sequence_length: int = 256
    variant: str = "conventional"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ContractError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.model_dim % self.num_heads != 0:
            raise ContractError(
                f"model_dim {self.model_dim} not divisible by num_heads {self.num_heads}"
            )
        if self.vocab_size < 5:
            raise ContractError("vocab_size must cover the four reserved ids plus content")
        for name in ("model_dim", "num_blocks", "num_heads", "ffn_dim", "max_sequence_length"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be positive")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ContractError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


def desk_config(vocab_size: int, variant: str = "conventional", **overrides) -> ModelConfig:
    """Small preset that trains in seconds on a laptop CPU."""
    base = dict(
        vocab_size=vocab_size,
        model_dim=64,
        num_blocks=2,
        num_heads=2,
        ffn_dim=128,
        variant=variant,
    )
    base.update(overrides)
    return ModelConfig(**base)


def paper_config(vocab_size: int, variant: str = "conventional", **overrides) -> ModelConfig:
    """Full-scale preset: 2 blocks, 4 heads, width 256, FFN 1024."""
    base = dict(
        vocab_size=vocab_size,
        model_dim=256,
        num_blocks=2,
        num_heads=4,
        ffn_dim=1024,
        max_sequence_length=512,
        variant=variant,
    )
    base.update(overrides)
    return ModelConfig(**base)


class ParameterSet:
    """Named tensors in a fixed insertion order.

    Order matters twice: parameter initialization draws from one RNG
    stream in this order, and checkpoints serialize tensors in this
    order. ``frozen`` names are excluded from optimizer updates (used by
    hard transfer) but still saved.
    """

    def __init__(self):
        self._tensors: dict[str, T.Tensor] = {}
        self._trainable: dict[str, bool] = {}
        self.frozen: set[str] = set()

    def add(self, name: str, array: np.ndarray, trainable: bool = True) -> None:
        if name in self._tensors:
            raise ContractError(f"duplicate parameter name {name!r}")
        self._tensors[name] = T.Tensor(array, requires_grad=trainable)
        self._trainable[name] = trainable

    def __getitem__(self, name: str) -> T.Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def names(self) -> list:
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def is_trainable(self, name: str) -> bool:
        return self._trainable[name]

    def update_targets(self):
        """(name, tensor) pairs the optimizer may modify."""
        return [
            (n, t)
            for n, t in self._tensors.items()
            if self._trainable[n] and n not in self.frozen
        ]

    def zero_grads(self) -> None:
        for t in self._tensors.values():
            t.grad = None

    def freeze(self, names) -> None:
        for n in names:
            if n not in self._tensors:
                raise ContractError(f"cannot freeze unknown parameter {n!r}")
            self.frozen.add(n)

    @contextmanager
    def inference(self):
        """Temporarily mark every tensor non-differentiable so forward
        passes skip gradient bookkeeping (teacher passes, evaluation)."""
        saved = {n: t.requires_grad for n, t in self._tensors.items()}
        for t in self._tensors.values():
            t.requires_grad = False
        try:
            yield
        finally:
            for n, t in self._tensors.items():
                t.requires_grad = saved[n]

    def state(self) -> dict:
        return {n: t.data for n, t in self._tensors.items()}

    def load_state(self, arrays: dict) -> None:
        for n, t in self._tensors.items():
            if n not in arrays:
                raise ContractError(f"missing tensor {n!r} in state")
            src = np.asarray(arrays[n])
            if src.shape != t.data.shape:
                raise ShapeError(f"tensor {n!r}: expected {t.data.shape}, got {src.shape}")
            t.data = src.astype(t.data.dtype)


def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    pos = np.arange(length, dtype=np.float64)[:, None]
    idx = np.arange(dim, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, (2.0 * np.floor(idx / 2.0)) / dim)
    table = np.where(idx % 2 == 0, np.sin(angles), np.cos(angles))
    return table


_ATTN_TENSORS = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")


def init_params(config: ModelConfig, seed: int) -> ParameterSet:
    """Draw every weight matrix i.i.d. from N(0, std 0.01); biases start at
    zero and layer-norm gains at one. Deterministic given the seed."""
    rng = np.random.default_rng(seed)
    dt = T.active_dtype()
    d, v, f = config.model_dim, config.vocab_size, config.ffn_dim
    ps = ParameterSet()

    def weight(name, *shape):
        ps.add(name, rng.normal(0.0, 0.01, size=shape).astype(dt))

    def zeros(name, *shape):
        ps.add(name, np.zeros(shape, dtype=dt))

    def attention_block(prefix):
        for proj in ("q", "k", "v", "o"):
            weight(f"{prefix}.w{proj}", d, d)
            zeros(f"{prefix}.b{proj}", d)

    def norm(prefix):
        ps.add(f"{prefix}.gain", np.ones(d, dtype=dt))
        zeros(f"{prefix}.bias", d)

    def ffn(prefix):
        weight(f"{prefix}.w1", d, f)
        zeros(f"{prefix}.b1", f)
        weight(f"{prefix}.w2", f, d)
        zeros(f"{prefix}.b2", d)

    has_encoder = config.variant != "language-model"
    if has_encoder:
        weight("encoder_embedding", v, d)
    weight("decoder_embedding", v, d)
    ps.add(
        "positional_encoding",
        sinusoidal_positions(config.max_sequence_length, d).astype(dt),
        trainable=False,
    )

    if has_encoder:
        for i in range(config.num_blocks):
            attention_block(f"enc.{i}.attn")
            norm(f"enc.{i}.ln_attn")
            ffn(f"enc.{i}.ffn")
            norm(f"enc.{i}.ln_ffn")

    for i in range(config.num_blocks):
        attention_block(f"dec.{i}.self_attn")
        norm(f"dec.{i}.ln_self")
        if has_encoder:
            attention_block(f"dec.{i}.cross_attn")
            if config.variant == "scenario-based":
                weight(f"dec.{i}.cross_attn.merge_w", 2 * d, d)
                zeros(f"dec.{i}.cross_attn.merge_b", d)
            norm(f"dec.{i}.ln_cross")
        ffn(f"dec.{i}.ffn")
        norm(f"dec.{i}.ln_ffn")

    weight("out_proj.w", d, v)
    zeros("out_proj.b", v)
    return ps


@dataclass
class DecodeOutput:
    """Teacher-forced decoder products: a probability distribution per
    target position and the hidden states after each decoder block."""

    probabilities: T.Tensor  # (B, T', |V|)
    hidden_states: list      # num_blocks tensors of shape (B, T', d)


@dataclass
class DecodeState:
    """What an incremental :meth:`TransformerModel.decode` carries between
    calls: the number of response positions processed and, per decoder
    block, their head-split self-attention keys and values
    (rows, heads, length, d/heads) and the history memory's cross-attention
    keys and values (1, heads, history length, d/heads)."""

    length: int = 0
    self_kv: dict = field(default_factory=dict)
    cross_kv: list = field(default_factory=list)

    def extend(self, block: int, kv) -> tuple:
        """Append new positions' keys and values to ``block``'s; returns all."""
        if block in self.self_kv:
            kv = tuple(T.concat(pair, axis=2) for pair in zip(self.self_kv[block], kv))
        self.self_kv[block] = kv
        return kv

    def select_rows(self, rows) -> None:
        """Keep the self-attention rows ``rows``, in order: a beam step's parents."""
        self.self_kv = {b: tuple(T.Tensor(t.data[rows]) for t in kv) for b, kv in self.self_kv.items()}


def key_padding_mask(token_ids: np.ndarray, pad_id: int) -> np.ndarray:
    """Additive mask (B, 1, T) that removes pad positions as attention keys."""
    mask = np.where(token_ids == pad_id, MASKED, 0.0).astype(T.active_dtype())
    return mask[:, None, :]


def causal_mask(length: int) -> np.ndarray:
    """Additive (T, T) mask allowing position i to see keys j <= i."""
    m = np.full((length, length), MASKED, dtype=T.active_dtype())
    return np.triu(m, k=1)


def _split_heads(x, num_heads: int):
    """(B, T, d) -> (B, H, T, d/H): head h holds features [h*d/H, (h+1)*d/H)."""
    b, t, d = x.data.shape
    return T.transpose(T.reshape(x, (b, t, num_heads, d // num_heads)), (0, 2, 1, 3))


def _project_kv(params: ParameterSet, prefix: str, memory_in, num_heads: int):
    """Attention keys and values of ``memory_in``, split into heads (B, H, S, dh)."""
    k = T.affine(memory_in, params[f"{prefix}.wk"], params[f"{prefix}.bk"])
    v = T.affine(memory_in, params[f"{prefix}.wv"], params[f"{prefix}.bv"])
    return _split_heads(k, num_heads), _split_heads(v, num_heads)


def _attend(params: ParameterSet, prefix: str, query_in, memory_in, additive_mask, num_heads: int, kv=None):
    """Multi-head scaled dot-product attention WITHOUT the output
    projection: all heads run as one (B, H, T, dh) product and are joined
    back to width d. Callers apply ``wo`` (and, for dual-context, the merge
    projection first). ``kv``, when given, is the already-projected
    head-split (keys, values) pair and ``memory_in`` is not read. The
    additive mask, (B, 1, S), (T, S) or (B, T, S), is shared by all heads."""
    q = _split_heads(T.affine(query_in, params[f"{prefix}.wq"], params[f"{prefix}.bq"]), num_heads)
    k, v = kv if kv is not None else _project_kv(params, prefix, memory_in, num_heads)
    b, h, t, dh = q.data.shape
    scores = T.mul(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
    if additive_mask is not None:
        scores = T.add(scores, T.Tensor(additive_mask[..., None, :, :]))
    ctx = T.matmul(T.softmax(scores, axis=-1), v)
    return T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (b, t, h * dh))


def dual_context_attention(
    params: ParameterSet,
    prefix: str,
    query_in,
    history_memory,
    future_memory,
    history_mask,
    future_mask,
    num_heads: int,
):
    """Attend over both memories with the same projections, concatenate the
    two contexts along features (width 2d), and merge back to d."""
    if history_memory.data.shape[-1] != future_memory.data.shape[-1]:
        raise ShapeError(
            f"memory width mismatch: {history_memory.data.shape} vs {future_memory.data.shape}"
        )
    c_h = _attend(params, prefix, query_in, history_memory, history_mask, num_heads)
    c_f = _attend(params, prefix, query_in, future_memory, future_mask, num_heads)
    both = T.concat([c_h, c_f], axis=-1)
    return T.affine(both, params[f"{prefix}.merge_w"], params[f"{prefix}.merge_b"])


class TransformerModel:
    """A ModelConfig plus its ParameterSet, with the forward passes.

    Forward passes build an autodiff graph; call sites run ``backward``
    on a scalar loss of the outputs. ``train=True`` enables dropout and
    requires an ``rng``.
    """

    def __init__(self, config: ModelConfig, params: ParameterSet):
        self.config = config
        self.params = params

    @classmethod
    def build(cls, config: ModelConfig, seed: int) -> "TransformerModel":
        return cls(config, init_params(config, seed))

    # ---- shared pieces -------------------------------------------------

    def _maybe_dropout(self, x, train, rng):
        if train and self.config.dropout_rate > 0.0:
            if rng is None:
                raise ContractError("train=True requires an rng for dropout")
            return T.dropout(x, self.config.dropout_rate, rng)
        return x

    def _embed(self, table_name: str, token_ids: np.ndarray, train, rng, position_offset: int = 0):
        cfg = self.config
        t = token_ids.shape[-1]
        if position_offset + t > cfg.max_sequence_length:
            raise ContractError(
                f"sequence length {position_offset + t} exceeds max_sequence_length "
                f"{cfg.max_sequence_length}"
            )
        x = T.embedding(self.params[table_name], token_ids)
        pe = self.params["positional_encoding"].data[position_offset : position_offset + t]
        x = T.add(x, T.Tensor(pe))
        return self._maybe_dropout(x, train, rng)

    def _residual(self, x, sublayer_out, ln_prefix: str, train, rng):
        s = self._maybe_dropout(sublayer_out, train, rng)
        return T.layer_norm(
            T.add(x, s), self.params[f"{ln_prefix}.gain"], self.params[f"{ln_prefix}.bias"]
        )

    def _ffn(self, x, prefix: str):
        p = self.params
        h = T.relu(T.affine(x, p[f"{prefix}.w1"], p[f"{prefix}.b1"]))
        return T.affine(h, p[f"{prefix}.w2"], p[f"{prefix}.b2"])

    def _project_out(self, x, additive_mask, prefix: str, num_heads: int, kv=None):
        ctx = _attend(self.params, prefix, x, x, additive_mask, num_heads, kv)
        return T.affine(ctx, self.params[f"{prefix}.wo"], self.params[f"{prefix}.bo"])

    # ---- encoder -------------------------------------------------------

    def encode(self, token_ids: np.ndarray, pad_id: int = 0, train: bool = False, rng=None):
        """(B, T) token ids -> (B, T, d) memory. Pad positions are masked as
        attention keys, so they never influence unpadded outputs."""
        cfg = self.config
        if cfg.variant == "language-model":
            raise ContractError("the language-model variant has no encoder")
        token_ids = np.atleast_2d(np.asarray(token_ids))
        mask = key_padding_mask(token_ids, pad_id)
        x = self._embed("encoder_embedding", token_ids, train, rng)
        for i in range(cfg.num_blocks):
            a = self._project_out(x, mask, f"enc.{i}.attn", cfg.num_heads)
            x = self._residual(x, a, f"enc.{i}.ln_attn", train, rng)
            f = self._ffn(x, f"enc.{i}.ffn")
            x = self._residual(x, f, f"enc.{i}.ln_ffn", train, rng)
        return x

    # ---- decoder -------------------------------------------------------

    def decode(
        self,
        response_in: np.ndarray,
        history_memory=None,
        future_memory=None,
        history_mask=None,
        future_mask=None,
        train: bool = False,
        rng=None,
        state: DecodeState = None,
    ) -> DecodeOutput:
        """Teacher-forced decode over a right-shifted target prefix.

        ``response_in`` is (B, T') beginning with the begin-of-sequence id.
        Memory arguments must match the variant: the conventional model
        takes only the history memory, the scenario-based model both, and
        the language-model none.

        With a ``state`` (conventional variant, inference only) the call is
        incremental: ``response_in`` and the outputs hold only the positions
        from ``state.length`` on, which attend to the cached keys and values
        and extend them. The memory's projections are cached on the first call.
        """
        cfg = self.config
        p = self.params
        response_in = np.atleast_2d(np.asarray(response_in))
        if cfg.variant == "conventional":
            if future_memory is not None:
                raise ContractError("conventional variant accepts no future memory")
            if history_memory is None:
                raise ContractError("conventional variant requires a history memory")
        elif cfg.variant == "scenario-based":
            if history_memory is None or future_memory is None:
                raise ContractError("scenario-based variant requires both memories")
        else:
            if history_memory is not None or future_memory is not None:
                raise ContractError("language-model variant accepts no memories")
        if state is not None and (train or cfg.variant != "conventional"):
            raise ContractError("a decode state serves inference with the conventional variant only")

        offset = 0 if state is None else state.length
        t = response_in.shape[-1]
        self_mask = causal_mask(offset + t)[offset:]
        x = self._embed("decoder_embedding", response_in, train, rng, position_offset=offset)
        if state is not None and not state.cross_kv:
            state.cross_kv = [_project_kv(p, f"dec.{i}.cross_attn", history_memory, cfg.num_heads)
                              for i in range(cfg.num_blocks)]
        hidden = []
        for i in range(cfg.num_blocks):
            prefix = f"dec.{i}.self_attn"
            kv = None if state is None else state.extend(i, _project_kv(p, prefix, x, cfg.num_heads))
            a = self._project_out(x, self_mask, prefix, cfg.num_heads, kv)
            x = self._residual(x, a, f"dec.{i}.ln_self", train, rng)
            if cfg.variant != "language-model":
                prefix = f"dec.{i}.cross_attn"
                if cfg.variant == "scenario-based":
                    ctx = dual_context_attention(
                        p, prefix, x, history_memory, future_memory,
                        history_mask, future_mask, cfg.num_heads,
                    )
                else:
                    kv = None if state is None else state.cross_kv[i]
                    ctx = _attend(p, prefix, x, history_memory, history_mask, cfg.num_heads, kv)
                c = T.affine(ctx, p[f"{prefix}.wo"], p[f"{prefix}.bo"])
                x = self._residual(x, c, f"dec.{i}.ln_cross", train, rng)
            f = self._ffn(x, f"dec.{i}.ffn")
            x = self._residual(x, f, f"dec.{i}.ln_ffn", train, rng)
            hidden.append(x)
        if state is not None:
            state.length += t
        logits = T.affine(x, p["out_proj.w"], p["out_proj.b"])
        return DecodeOutput(probabilities=T.softmax(logits, axis=-1), hidden_states=hidden)

    # ---- full passes ---------------------------------------------------

    def forward(
        self,
        history: np.ndarray,
        response_in: np.ndarray,
        future: np.ndarray = None,
        pad_id: int = 0,
        train: bool = False,
        rng=None,
    ) -> DecodeOutput:
        """End-to-end teacher-forced pass appropriate to the variant."""
        cfg = self.config
        history = np.atleast_2d(np.asarray(history))
        response_in = np.atleast_2d(np.asarray(response_in))
        if cfg.variant == "language-model":
            if future is not None:
                raise ContractError("language-model variant takes no future input")
            return self._lm_forward(history, response_in, pad_id, train, rng)
        if cfg.variant == "scenario-based":
            if future is None:
                raise ContractError("scenario-based variant requires the future input")
            future = np.atleast_2d(np.asarray(future))
            h_mem = self.encode(history, pad_id, train, rng)
            f_mem = self.encode(future, pad_id, train, rng)
            return self.decode(
                response_in,
                history_memory=h_mem,
                future_memory=f_mem,
                history_mask=key_padding_mask(history, pad_id),
                future_mask=key_padding_mask(future, pad_id),
                train=train,
                rng=rng,
            )
        if future is not None:
            raise ContractError("conventional variant takes no future input")
        h_mem = self.encode(history, pad_id, train, rng)
        return self.decode(
            response_in,
            history_memory=h_mem,
            history_mask=key_padding_mask(history, pad_id),
            train=train,
            rng=rng,
        )

    def _lm_forward(self, history, response_in, pad_id, train, rng) -> DecodeOutput:
        """Decoder-only pass over [history ; response_in]. Outputs are
        sliced to the response positions so they align one-to-one with the
        encoder-decoder variants' outputs."""
        cfg = self.config
        p = self.params
        full = np.concatenate([history, response_in], axis=-1)
        b, t = full.shape
        th = history.shape[-1]
        # causal visibility, minus pad keys (pads can sit inside the
        # concatenated sequence when histories have unequal lengths)
        mask = causal_mask(t)[None, :, :] + key_padding_mask(full, pad_id)
        x = self._embed("decoder_embedding", full, train, rng)
        hidden = []
        for i in range(cfg.num_blocks):
            a = self._project_out(x, mask, f"dec.{i}.self_attn", cfg.num_heads)
            x = self._residual(x, a, f"dec.{i}.ln_self", train, rng)
            f = self._ffn(x, f"dec.{i}.ffn")
            x = self._residual(x, f, f"dec.{i}.ln_ffn", train, rng)
            hidden.append(T.narrow(x, 1, th, t - th))
        logits = T.affine(T.narrow(x, 1, th, t - th), p["out_proj.w"], p["out_proj.b"])
        return DecodeOutput(probabilities=T.softmax(logits, axis=-1), hidden_states=hidden)
