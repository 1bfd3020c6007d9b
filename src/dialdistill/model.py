"""Encoder-decoder transformer with three variants.

* ``conventional`` — response generator conditioned on dialogue history only.
* ``scenario-based`` — the teacher: a second pass of the *same* encoder
  reads the future conversation, and each decoder block attends to both
  memories with shared projections, concatenates the two contexts, and
  merges them back to width d with a learned projection. The merge
  projection is the only tensor the conventional variant lacks.
* ``language-model`` — decoder-only blocks over the response alone; no
  history, no encoder, no cross-attention.

All variants expose per-block decoder hidden states so a student can be
trained to imitate them layer by layer.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .corpus import PAD_ID
from .errors import ContractError

# The memories each variant's decoder reads: (history, future). A variant
# that reads the history has the encoder; one that reads both merges them.
MEMORIES = {
    "conventional": (True, False),
    "scenario-based": (True, True),
    "language-model": (False, False),
}

# Additive attention mask value for forbidden positions. exp(-1e9 + x)
# underflows to exactly 0.0 in both float32 and float64 for any score x
# that can realistically appear, which is what makes the causality and
# pad-invariance guarantees exact rather than approximate.
MASKED = -1e9
SIZE_FIELDS = ("vocab_size", "model_dim", "num_blocks", "num_heads", "ffn_dim", "max_sequence_length")


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
        for name in SIZE_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ContractError(f"{name} must be an integer, got {value!r}")
        if self.variant not in MEMORIES:
            raise ContractError(f"unknown variant {self.variant!r}; expected one of {tuple(MEMORIES)}")
        if self.vocab_size < 5:
            raise ContractError("vocab_size must cover the four reserved ids plus content")
        for name in SIZE_FIELDS[1:]:
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be positive")
        if self.model_dim % self.num_heads != 0:
            raise ContractError(
                f"model_dim {self.model_dim} not divisible by num_heads {self.num_heads}"
            )
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ContractError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

    def to_dict(self) -> dict:
        return asdict(self)


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
    """Named tensors over one flat array, ``values``, in manifest order.

    Built from a ``(name, shape, trainable)`` layout, zero-filled. Every
    tensor's ``data`` is a view of ``values``, so every parameter write
    (Adam, checkpoint loads, hard transfer, snapshots, perturbation)
    goes into ``values`` in place. Order matters twice: parameter
    initialization draws from one RNG stream in this order, and
    checkpoints serialize ``values`` as it is. A tensor's ``requires_grad``
    says whether the optimizer updates it: the layout's trainable flag,
    cleared by ``freeze`` (hard transfer), so ``backward`` computes no
    gradient for a frozen tensor; frozen tensors are still saved.
    """

    def __init__(self, layout):
        layout = [(name, tuple(shape), trainable) for name, shape, trainable in layout]
        self._spans: dict[str, slice] = {}
        start = 0
        for name, shape, _ in layout:
            if name in self._spans:
                raise ContractError(f"duplicate parameter name {name!r}")
            size = int(np.prod(shape, dtype=np.int64))
            self._spans[name] = slice(start, start + size)
            start += size
        self.values = np.zeros(start, dtype=T.active_dtype())
        self._tensors: dict[str, T.Tensor] = {
            name: T.Tensor(self.values[self._spans[name]].reshape(shape), requires_grad=trainable, check=False)
            for name, shape, trainable in layout
        }
        self._trainable: dict[str, bool] = {name: trainable for name, _, trainable in layout}

    def span(self, name: str) -> slice:
        """``name``'s slice of ``values`` (and of any array laid out like it)."""
        return self._spans[name]

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

    @property
    def frozen(self) -> set:
        """Names of the trainable tensors that ``freeze`` excluded from updates."""
        return {n for n, t in self._tensors.items() if self._trainable[n] and not t.requires_grad}

    def update_targets(self):
        """(name, tensor) pairs the optimizer may modify."""
        return [(n, t) for n, t in self._tensors.items() if t.requires_grad]

    def zero_grads(self) -> None:
        for t in self._tensors.values():
            t.grad = None

    def freeze(self, names) -> None:
        for n in names:
            if n not in self._tensors:
                raise ContractError(f"cannot freeze unknown parameter {n!r}")
            self._tensors[n].requires_grad = False

    def inference(self):
        """``tensor.graph_free()``: forward passes in this thread record no
        graph. The package's inference calls enter it through
        ``tensor.names_failures``; no tensor of the set is touched."""
        return T.graph_free()


def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    pos = np.arange(length, dtype=np.float64)[:, None]
    idx = np.arange(dim, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, (2.0 * np.floor(idx / 2.0)) / dim)
    table = np.where(idx % 2 == 0, np.sin(angles), np.cos(angles))
    return table


def parameter_layout(config: ModelConfig) -> list:
    """(name, shape, init) of every parameter in manifest order; ``init`` is
    "normal", "zeros", "ones" or "positions" (the frozen sinusoidal table)."""
    d, v, f = config.model_dim, config.vocab_size, config.ffn_dim
    layout = []

    def weight(name, *shape):
        layout.append((name, shape, "normal"))

    def zeros(name, *shape):
        layout.append((name, shape, "zeros"))

    def attention_block(prefix):
        for proj in ("q", "k", "v", "o"):
            weight(f"{prefix}.w{proj}", d, d)
            zeros(f"{prefix}.b{proj}", d)

    def norm(prefix):
        layout.append((f"{prefix}.gain", (d,), "ones"))
        zeros(f"{prefix}.bias", d)

    def ffn(prefix):
        weight(f"{prefix}.w1", d, f)
        zeros(f"{prefix}.b1", f)
        weight(f"{prefix}.w2", f, d)
        zeros(f"{prefix}.b2", d)

    has_encoder, has_future = MEMORIES[config.variant]
    if has_encoder:
        weight("encoder_embedding", v, d)
    weight("decoder_embedding", v, d)
    layout.append(("positional_encoding", (config.max_sequence_length, d), "positions"))

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
            if has_future:
                weight(f"dec.{i}.cross_attn.merge_w", 2 * d, d)
                zeros(f"dec.{i}.cross_attn.merge_b", d)
            norm(f"dec.{i}.ln_cross")
        ffn(f"dec.{i}.ffn")
        norm(f"dec.{i}.ln_ffn")

    weight("out_proj.w", d, v)
    zeros("out_proj.b", v)
    return layout


def init_params(config: ModelConfig, seed: int) -> ParameterSet:
    """Draw every "normal" parameter i.i.d. from N(0, std 0.01) in layout
    order; biases start at zero and layer-norm gains at one. Deterministic
    given the seed."""
    rng = np.random.default_rng(seed)
    layout = parameter_layout(config)
    ps = ParameterSet([(name, shape, init != "positions") for name, shape, init in layout])
    for name, shape, init in layout:
        if init == "normal":
            ps[name].data[...] = rng.normal(0.0, 0.01, size=shape)
        elif init == "positions":
            ps[name].data[...] = sinusoidal_positions(*shape)
        elif init == "ones":
            ps[name].data[...] = 1.0
    return ps


@dataclass
class DecodeOutput:
    """Teacher-forced decoder products: log-probabilities per target
    position and the hidden states after each decoder block."""

    log_probs: T.Tensor  # (B, T', |V|)
    hidden_states: list  # num_blocks tensors of shape (B, T', d)

    @property
    def probabilities(self) -> T.Tensor:  # T.log of it is log_probs itself
        return T.exp(self.log_probs)


@dataclass
class DecodeState:
    """What an incremental :meth:`TransformerModel.decode` carries between
    calls: the number of response positions processed; per decoder block,
    their self-attention keys and values (rows, length, d); and, taken on
    the first call, the history memory's cross-attention keys and values
    (rows, history length, d) and its padding mask (rows, 1, history
    length). A memory of one row serves every row; for a larger one,
    ``memory_rows`` gives the memory row that each row reads once rows
    have been selected."""

    length: int = 0
    self_kv: dict = field(default_factory=dict)
    cross_kv: list = field(default_factory=list)
    cross_mask: np.ndarray = None
    memory_rows: np.ndarray = None

    def extend(self, block: int, kv) -> tuple:
        """Append new positions' keys and values to ``block``'s; returns all."""
        if block in self.self_kv:
            kv = tuple(T.concat(pair, axis=1) for pair in zip(self.self_kv[block], kv))
        self.self_kv[block] = kv
        return kv

    def select_rows(self, rows) -> None:
        """Keep the rows ``rows``, in order (a beam step's parents), with
        the memory rows they read. The memory's cached keys, values and
        mask are gathered only when some row reads another memory row than
        the row it replaces, so a steady beam step copies none of them."""
        def take(kv):
            return tuple(T.as_tensor(t.data[rows]) for t in kv)

        self.self_kv = {b: take(kv) for b, kv in self.self_kv.items()}
        if self.cross_kv and len(self.cross_kv[0][0].data) > 1:
            held = np.arange(len(self.cross_kv[0][0].data)) if self.memory_rows is None else self.memory_rows
            self.memory_rows = held[rows]
            if not np.array_equal(self.memory_rows, held):
                self.cross_kv = [take(kv) for kv in self.cross_kv]
                if self.cross_mask is not None and len(self.cross_mask) > 1:
                    self.cross_mask = self.cross_mask[rows]


def key_padding_mask(token_ids: np.ndarray) -> np.ndarray:
    """Additive mask (B, 1, T) that removes pad positions as attention keys."""
    mask = np.where(token_ids == PAD_ID, MASKED, 0.0).astype(T.active_dtype())
    return mask[:, None, :]


def causal_mask(length: int) -> np.ndarray:
    """Additive (T, T) mask allowing position i to see keys j <= i."""
    m = np.full((length, length), MASKED, dtype=T.active_dtype())
    return np.triu(m, k=1)


def _project_kv(params: ParameterSet, prefix: str, memory_in):
    """Attention keys and values of ``memory_in``, each (B, S, d)."""
    k = T.affine(memory_in, params[f"{prefix}.wk"], params[f"{prefix}.bk"])
    v = T.affine(memory_in, params[f"{prefix}.wv"], params[f"{prefix}.bv"])
    return k, v


def attention_sublayer(params: ParameterSet, prefix: str, query_in, kvs, masks, num_heads: int):
    """Multi-head attention sublayer (Vaswani et al. 2017): one query
    projection, one ``T.attention`` per memory over its already-projected
    (keys, values), each (B or 1, S, d), under its additive mask, (B, 1,
    S), (T, S) or (B, T, S), shared by all heads; two contexts (the
    teacher's history and future) are concatenated to width 2d and merged
    back to d; then the output projection ``wo``."""
    q = T.affine(query_in, params[f"{prefix}.wq"], params[f"{prefix}.bq"])
    contexts = [T.attention(q, k, v, mask, num_heads) for (k, v), mask in zip(kvs, masks)]
    ctx = contexts[0]
    if len(contexts) > 1:
        ctx = T.affine(T.concat(contexts, axis=-1), params[f"{prefix}.merge_w"], params[f"{prefix}.merge_b"])
    return T.affine(ctx, params[f"{prefix}.wo"], params[f"{prefix}.bo"])


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

    def _dropout_rate(self, train, rng) -> float:
        if train and self.config.dropout_rate > 0.0:
            if rng is None:
                raise ContractError("train=True requires an rng for dropout")
            return self.config.dropout_rate
        return 0.0

    def _embed(self, table_name: str, token_ids: np.ndarray, train, rng, position_offset: int = 0):
        cfg = self.config
        t = token_ids.shape[-1]
        if position_offset + t > cfg.max_sequence_length:
            raise ContractError(
                f"sequence length {position_offset + t} exceeds max_sequence_length "
                f"{cfg.max_sequence_length}"
            )
        positions = self.params["positional_encoding"].data[position_offset : position_offset + t]
        return T.embedding(self.params[table_name], token_ids, positions, self._dropout_rate(train, rng), rng)

    def _residual(self, x, sublayer_out, ln_prefix: str, train, rng):
        p = self.params
        return T.layer_norm(x, p[f"{ln_prefix}.gain"], p[f"{ln_prefix}.bias"], sublayer_out,
                            self._dropout_rate(train, rng), rng)

    def _ffn(self, x, prefix: str):
        p = self.params
        h = T.affine(x, p[f"{prefix}.w1"], p[f"{prefix}.b1"], relu=True)
        return T.affine(h, p[f"{prefix}.w2"], p[f"{prefix}.b2"])

    def _output_head(self, x, hidden) -> DecodeOutput:
        # the one finiteness check of a forward pass: a NaN/Inf anywhere
        # upstream reaches the logits, and the head keeps finite logits finite
        log_probs = T.check_finite(T.head(x, self.params["out_proj.w"], self.params["out_proj.b"]))
        return DecodeOutput(log_probs=log_probs, hidden_states=hidden)

    # ---- encoder -------------------------------------------------------

    def encode(self, token_ids: np.ndarray, train: bool = False, rng=None):
        """(B, T) token ids -> (B, T, d) memory. Pad positions are masked as
        attention keys, so they never influence unpadded outputs."""
        cfg = self.config
        p = self.params
        if not MEMORIES[cfg.variant][0]:
            raise ContractError(f"the {cfg.variant} variant has no encoder")
        token_ids = np.atleast_2d(np.asarray(token_ids))
        mask = key_padding_mask(token_ids)
        x = self._embed("encoder_embedding", token_ids, train, rng)
        for i in range(cfg.num_blocks):
            prefix = f"enc.{i}.attn"
            a = attention_sublayer(p, prefix, x, [_project_kv(p, prefix, x)], [mask], cfg.num_heads)
            x = self._residual(x, a, f"enc.{i}.ln_attn", train, rng)
            f = self._ffn(x, f"enc.{i}.ffn")
            x = self._residual(x, f, f"enc.{i}.ln_ffn", train, rng)
        return x

    def _encode_both(self, history: np.ndarray, future: np.ndarray, train: bool, rng):
        """The history's and the future's memories, encoded at once by
        ``tensor.fork`` when a graph is recorded and the thread has a helper.
        The future's dropout draws from a copy of ``rng`` advanced past the
        history's draws, and ``rng`` then moves past both, so every mask is
        the one that encoding the two in turn draws from ``rng``."""
        cfg = self.config
        future_rng = rng
        # uniforms per token: the embedding's dropout, then two in each block
        draws = (1 + 2 * cfg.num_blocks) * cfg.model_dim if train and cfg.dropout_rate > 0.0 else 0
        if draws and rng is not None:
            future_rng = copy.deepcopy(rng)
            future_rng.bit_generator.advance(draws * history.size)
        memories = T.fork(lambda: self.encode(history, train, rng), lambda: self.encode(future, train, future_rng))
        if draws:
            rng.bit_generator.advance(draws * future.size)
        return memories

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
        The memory arguments given must be those the variant reads
        (``MEMORIES``).

        With a ``state`` (conventional variant, inference only) the call is
        incremental: ``response_in`` and the outputs hold only the positions
        from ``state.length`` on, which attend to the cached keys and values
        and extend them. The memory's projections and mask are cached on the
        first call; ``state.select_rows`` reorders rows between calls.
        """
        cfg = self.config
        p = self.params
        response_in = np.atleast_2d(np.asarray(response_in))
        reads = MEMORIES[cfg.variant]
        given = (history_memory is not None, future_memory is not None)
        if given != reads:
            raise ContractError(f"{cfg.variant} variant reads (history, future) memories {reads}, "
                                f"got {given}")
        if state is not None and (train or reads != (True, False)):
            raise ContractError("a decode state serves inference over the history memory alone")
        read = [(m, mask) for m, mask in ((history_memory, history_mask), (future_memory, future_mask))
                if m is not None]

        offset = 0 if state is None else state.length
        t = response_in.shape[-1]
        self_mask = causal_mask(offset + t)[offset:]
        x = self._embed("decoder_embedding", response_in, train, rng, position_offset=offset)
        if state is not None and not state.cross_kv:
            state.cross_kv = [_project_kv(p, f"dec.{i}.cross_attn", history_memory)
                              for i in range(cfg.num_blocks)]
            state.cross_mask = history_mask
        hidden = []
        for i in range(cfg.num_blocks):
            prefix = f"dec.{i}.self_attn"
            kv = _project_kv(p, prefix, x)
            if state is not None:
                kv = state.extend(i, kv)
            a = attention_sublayer(p, prefix, x, [kv], [self_mask], cfg.num_heads)
            x = self._residual(x, a, f"dec.{i}.ln_self", train, rng)
            if read:
                prefix = f"dec.{i}.cross_attn"
                if state is None:
                    kvs, masks = [_project_kv(p, prefix, m) for m, _ in read], [mask for _, mask in read]
                else:
                    kvs, masks = [state.cross_kv[i]], [state.cross_mask]
                c = attention_sublayer(p, prefix, x, kvs, masks, cfg.num_heads)
                del kvs  # else an inference pass holds the last block's memory projections through the head
                x = self._residual(x, c, f"dec.{i}.ln_cross", train, rng)
            f = self._ffn(x, f"dec.{i}.ffn")
            x = self._residual(x, f, f"dec.{i}.ln_ffn", train, rng)
            hidden.append(x)
        if state is not None:
            state.length += t
        return self._output_head(hidden[-1], hidden)

    # ---- full passes ---------------------------------------------------

    def forward(
        self,
        history: np.ndarray,
        response_in: np.ndarray,
        future: np.ndarray = None,
        train: bool = False,
        rng=None,
    ) -> DecodeOutput:
        """End-to-end teacher-forced pass over the inputs the variant reads
        (``MEMORIES``). The language model reads the response alone: its
        ``history`` must be empty. Dropout's ``rng`` is a numpy Generator
        whose bit generator can ``advance`` (``default_rng``'s PCG64)."""
        cfg = self.config
        history = np.atleast_2d(np.asarray(history))
        given = (history.size > 0, future is not None)
        if given != MEMORIES[cfg.variant]:
            raise ContractError(f"{cfg.variant} variant reads (history, future) inputs "
                                f"{MEMORIES[cfg.variant]}, got {given}")
        memories = {}
        if given[1]:
            future = np.atleast_2d(np.asarray(future))
            memories["history_memory"], memories["future_memory"] = self._encode_both(history, future, train, rng)
            memories["future_mask"] = key_padding_mask(future)
        elif given[0]:
            memories["history_memory"] = self.encode(history, train, rng)
        if given[0]:
            memories["history_mask"] = key_padding_mask(history)
        return self.decode(response_in, train=train, rng=rng, **memories)
