"""Greedy and beam search behavior.

Hand-traceable cases run against a scripted stand-in model whose
next-token distributions are fixed lookup tables, so every expected
sequence and score is verifiable by enumeration. Identity and hygiene
properties run against a real randomly initialized transformer.
"""

import numpy as np
import pytest

import dialdistill.tensor as T
from dialdistill.corpus import BOS_ID, EOS_ID, PAD_ID, UNK_ID, Vocabulary
from dialdistill.decoding import (
    CHUNK,
    DecodeConfig,
    STRATEGIES,
    DecodeResult,
    beam_decode,
    decode,
    decode_many,
    greedy_decode,
    top_k,
)
from dialdistill.errors import ContractError
from dialdistill.model import (
    DecodeOutput,
    DecodeState,
    ModelConfig,
    ParameterSet,
    TransformerModel,
    desk_config,
    key_padding_mask,
)

A_ID, B_ID = 4, 5  # content tokens of the scripted vocabulary


@pytest.fixture(autouse=True)
def double_precision():
    """Closed-form score checks need float64 throughout."""
    with T.precision("double"):
        yield


class _ScriptedConfig:
    variant = "conventional"


class ScriptedModel:
    """Duck-typed model whose step distribution depends only on the
    generated prefix so far and, through ``by_history``, on the first
    token of the row's history. Unlisted prefixes fall back to uniform.

    Decoding is incremental, so each call sees only every row's newest
    token. The rows' whole prefixes ride in the decode state as its one
    self-attention pair, laid out (rows, length, 1) like a real model's
    cached keys and values, and the histories' first tokens as its
    cross-attention memory, so beam search's row reordering applies to
    them exactly as it does to a real model's."""

    def __init__(self, table, vocab_size=6, by_history=None):
        def tables(t):
            return {tuple(k): np.asarray(v, dtype=np.float64) for k, v in t.items()}

        self.table = tables(table)
        self.by_history = {h: tables(t) for h, t in (by_history or {}).items()}
        self.vocab_size = vocab_size
        self.config = _ScriptedConfig()
        self.params = ParameterSet([])

    def encode(self, history):
        return np.asarray(history)

    def decode(self, response_in, history_memory=None, history_mask=None, state=None):
        if not state.cross_kv:
            first = T.Tensor(history_memory[:, :1, None])
            state.cross_kv = [(first, first)]
        new = T.Tensor(response_in[:, :, None])
        prefixes = state.extend(0, (new, new))[0].data[:, :, 0].astype(np.int64)
        state.length += response_in.shape[1]
        rows, length = response_in.shape
        owners = np.broadcast_to(state.cross_kv[0][0].data[:, 0, 0], (rows,)).astype(np.int64)
        probs = np.full((rows, length, self.vocab_size), 1.0 / self.vocab_size)
        for r in range(rows):
            table = self.by_history.get(int(owners[r]), self.table)
            prefix = tuple(int(t) for t in prefixes[r, 1:])  # strip bos
            if prefix in table:
                probs[r, -1, :] = table[prefix]
        with np.errstate(divide="ignore"):  # a scripted zero is a log-probability of -inf
            return DecodeOutput(log_probs=T.as_tensor(np.log(probs)), hidden_states=[])


def dist(**mass):
    """Distribution over the 6-token scripted vocabulary; leftover
    probability lands on unk so rows always sum to one."""
    p = np.zeros(6)
    names = {"eos": EOS_ID, "a": A_ID, "b": B_ID}
    for k, v in mass.items():
        p[names[k]] = v
    p[UNK_ID] = 1.0 - p.sum()
    assert p[UNK_ID] >= -1e-12
    return np.clip(p, 0.0, 1.0)


@pytest.fixture(scope="module")
def real_model():
    config = ModelConfig(
        vocab_size=12,
        model_dim=8,
        num_blocks=1,
        num_heads=2,
        ffn_dim=16,
        dropout_rate=0.0,
        max_sequence_length=32,
        variant="conventional",
    )
    return TransformerModel.build(config, seed=77)


class TestForcedSequences:
    def setup_method(self):
        self.model = ScriptedModel(
            {
                (): dist(a=0.9),
                (A_ID,): dist(b=0.9),
                (A_ID, B_ID): dist(eos=0.9),
            }
        )

    def test_greedy_emits_scripted_tokens(self):
        result = greedy_decode(self.model, [[A_ID, B_ID]])
        assert result.token_ids == [A_ID, B_ID, EOS_ID]
        assert not result.truncated
        assert abs(result.score - 3 * np.log(0.9)) < 1e-9

    def test_beam_width_one_matches_greedy_exactly(self):
        greedy = greedy_decode(self.model, [[A_ID]])
        beam = beam_decode(self.model, [[A_ID]], DecodeConfig(strategy="beam", beam_width=1))
        assert beam.token_ids == greedy.token_ids
        assert abs(beam.score - greedy.score) < 1e-12
        assert beam.truncated == greedy.truncated

    def test_max_length_one_yields_single_token(self):
        result = greedy_decode(self.model, [[A_ID]], DecodeConfig(max_length=1))
        assert result.token_ids == [A_ID]
        assert result.truncated
        assert abs(result.score - np.log(0.9)) < 1e-9

    def test_vocab_decode_strips_terminal_eos(self):
        result = greedy_decode(self.model, [[A_ID]])
        assert result.token_ids[-1] == EOS_ID
        assert Vocabulary(["a", "b"]).decode(result.token_ids) == ["a", "b"]


class TestTruncation:
    def test_never_ending_script_sets_flag(self):
        model = ScriptedModel({})  # uniform everywhere
        looping = ScriptedModel({(A_ID,) * n: dist(a=1.0) for n in range(8)})
        result = greedy_decode(looping, [[A_ID]], DecodeConfig(max_length=4))
        assert result.token_ids == [A_ID] * 4
        assert result.truncated
        beam = beam_decode(looping, [[A_ID]], DecodeConfig(strategy="beam", beam_width=2, max_length=4))
        assert beam.truncated
        assert len(beam.token_ids) == 4
        del model

    def test_eos_exactly_at_cap_is_not_truncated(self):
        scripted = ScriptedModel({(): dist(a=0.9), (A_ID,): dist(eos=0.9)})
        result = greedy_decode(scripted, [[A_ID]], DecodeConfig(max_length=2))
        assert result.token_ids == [A_ID, EOS_ID]
        assert not result.truncated


class TestDelayedReward:
    """A path that looks worse for one step but ends better: width one
    commits to the early winner, width two recovers the better total."""

    def setup_method(self):
        self.model = ScriptedModel(
            {
                (): dist(a=0.6, b=0.4),
                (A_ID,): dist(eos=0.5, a=0.5),
                (B_ID,): dist(eos=0.95, a=0.05),
            }
        )

    def test_width_one_takes_early_winner(self):
        narrow = beam_decode(self.model, [[A_ID]], DecodeConfig(strategy="beam", beam_width=1))
        assert narrow.token_ids == [A_ID, EOS_ID]
        assert abs(narrow.score - np.log(0.6 * 0.5)) < 1e-9

    def test_width_two_finds_better_sequence(self):
        wide = beam_decode(self.model, [[A_ID]], DecodeConfig(strategy="beam", beam_width=2))
        assert wide.token_ids == [B_ID, EOS_ID]
        assert abs(wide.score - np.log(0.4 * 0.95)) < 1e-9

    def test_score_never_drops_as_width_grows(self):
        scores = [
            beam_decode(self.model, [[A_ID]], DecodeConfig(strategy="beam", beam_width=w)).score
            for w in (1, 2, 3, 4)
        ]
        for lo, hi in zip(scores, scores[1:]):
            assert hi >= lo - 1e-12


class TestLengthPenalty:
    """The penalty reweighs only the final choice among completed
    hypotheses; the search itself prunes on raw scores either way."""

    def setup_method(self):
        self.model = ScriptedModel(
            {
                (): dist(b=0.7, a=0.3),
                (A_ID,): dist(eos=1.0),
                (B_ID,): dist(b=1.0),
                (B_ID, B_ID): dist(b=1.0),
                (B_ID, B_ID, B_ID): dist(eos=0.35, b=0.65),
                (B_ID, B_ID, B_ID, B_ID): dist(eos=0.1, b=0.9),
            }
        )
        self.config = dict(strategy="beam", beam_width=2, max_length=5)

    def test_no_penalty_picks_highest_raw_score(self):
        result = beam_decode(self.model, [[A_ID]], DecodeConfig(**self.config))
        assert result.token_ids == [A_ID, EOS_ID]
        assert abs(result.score - np.log(0.3)) < 1e-9
        assert result.normalized_score == result.score
        assert not result.truncated

    def test_penalty_flips_choice_to_longer_completion(self):
        result = beam_decode(
            self.model, [[A_ID]], DecodeConfig(**self.config, length_penalty=1.0)
        )
        assert result.token_ids == [B_ID, B_ID, B_ID, EOS_ID]
        assert abs(result.score - np.log(0.7 * 0.35)) < 1e-9
        assert abs(result.normalized_score - result.score / 4.0) < 1e-12


class TestBeamRowGather:
    """The cached rows must follow their hypotheses: the scripted model
    reads each row's prefix from the decode state, so a row gathered from
    the wrong parent looks up the wrong distribution."""

    def test_hypotheses_swap_rows(self):
        # step 2 keeps (b b) from row 1 ahead of (a b) from row 0
        model = ScriptedModel(
            {
                (): dist(a=0.6, b=0.4),
                (A_ID,): dist(b=0.5, a=0.3, eos=0.2),
                (B_ID,): dist(b=0.9, eos=0.1),
                (B_ID, B_ID): dist(eos=0.5, a=0.5),
                (A_ID, B_ID): dist(eos=0.9, a=0.1),
            }
        )
        result = beam_decode(model, [[A_ID]], DecodeConfig(strategy="beam", beam_width=2))
        assert result.token_ids == [A_ID, B_ID, EOS_ID]
        assert abs(result.score - np.log(0.6 * 0.5 * 0.9)) < 1e-9

    def test_completion_drops_a_row(self):
        # step 2 completes (b eos) and keeps only (a b), the second row
        model = ScriptedModel(
            {
                (): dist(b=0.6, a=0.4),
                (B_ID,): dist(eos=0.55, a=0.45),
                (A_ID,): dist(b=0.9),
                (A_ID, B_ID): dist(eos=0.95),
            }
        )
        result = beam_decode(model, [[A_ID]], DecodeConfig(strategy="beam", beam_width=2))
        assert result.token_ids == [A_ID, B_ID, EOS_ID]
        assert abs(result.score - np.log(0.4 * 0.9 * 0.95)) < 1e-9


def _full_prefix_logp(model, history, prefixes, memory=None):
    """Uncached oracle: every prefix row through the whole decoder, last
    position kept, pad and bos excluded as in decoding."""
    with model.params.inference():
        out = model.decode(
            np.array(prefixes), history_memory=model.encode(history) if memory is None else memory,
            history_mask=key_padding_mask(history),
        )
    logp = out.log_probs.data[:, -1, :].copy()
    logp[:, [PAD_ID, BOS_ID]] = -np.inf
    return logp


def reference_greedy(model, history, max_length):
    prefix = [BOS_ID]
    while len(prefix) <= max_length and prefix[-1] != EOS_ID:
        prefix.append(int(np.argmax(_full_prefix_logp(model, history, [prefix])[0])))
    return prefix[1:]


def reference_beam(model, history, width, max_length):
    active, completed = [((), 0.0)], []
    for _ in range(max_length):
        logp = _full_prefix_logp(model, history, [(BOS_ID,) + ids for ids, _ in active])
        flat = (np.array([s for _, s in active])[:, None] + logp).reshape(-1)
        kept = []
        for f in np.argsort(-flat, kind="stable")[:width]:
            a, k = divmod(int(f), logp.shape[1])
            if np.isfinite(flat[f]):
                (completed if k == EOS_ID else kept).append((active[a][0] + (k,), float(flat[f])))
        active = kept
        if not active or (completed and max(s for _, s in completed) >= max(s for _, s in active)):
            break
    return list(min(completed or active, key=lambda h: (-h[1], len(h[0]), h[0]))[0])


def peaked_model():
    """A float64 model whose weights are scaled up so its distributions are
    peaked, and whose responses end at several lengths."""
    config = ModelConfig(
        vocab_size=16, model_dim=8, num_blocks=2, num_heads=2, ffn_dim=16,
        dropout_rate=0.0, max_sequence_length=32, variant="conventional",
    )
    with T.precision("double"):
        model = TransformerModel.build(config, seed=31)
    for _, t in model.params.items():
        if t.requires_grad and t.data.ndim == 2:
            t.data = t.data * 20.0
    model.params["out_proj.b"].data[EOS_ID] = 1.0
    return model


class TestIncrementalAgainstFullPrefix:
    """Cached decoding against full-prefix decoding, in float64 on a
    model whose weights are scaled up so its distributions are peaked."""

    @pytest.fixture(scope="class")
    def model(self):
        return peaked_model()

    def contexts(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            yield rng.integers(4, 16, size=(1, int(rng.integers(3, 10)))), rng

    def test_step_logprobs_match_full_prefix(self, model):
        worst = 0.0
        for history, rng in self.contexts():
            prefix = [BOS_ID] + [int(t) for t in rng.integers(3, 16, size=8)]
            state = DecodeState()
            with model.params.inference():
                memory = model.encode(history)
                mask = key_padding_mask(history)
                for n in range(1, len(prefix) + 1):
                    out = model.decode(np.array([prefix[n - 1 : n]]), history_memory=memory,
                                       history_mask=mask, state=state)
                    cached = out.log_probs.data[0, -1]
                    full = _full_prefix_logp(model, history, [prefix[:n]], memory)[0]
                    gap = np.delete(cached - full, [PAD_ID, BOS_ID])
                    worst = max(worst, float(np.max(np.abs(gap))))
        assert worst <= 1e-10

    def test_greedy_and_beam_match_uncached_oracle(self, model):
        lengths = set()
        for history, _ in self.contexts():
            g = greedy_decode(model, history, DecodeConfig(max_length=10))
            assert g.token_ids == reference_greedy(model, history, 10)
            b = beam_decode(model, history, DecodeConfig(strategy="beam", beam_width=4, max_length=10))
            assert b.token_ids == reference_beam(model, history, 4, 10)
            lengths.update([len(g.token_ids), len(b.token_ids)])
        assert len(lengths) >= 4  # searches ended at several different steps

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_length_cap_still_enforced(self, strategy):
        config = ModelConfig(
            vocab_size=16, model_dim=8, num_blocks=1, num_heads=2, ffn_dim=16,
            dropout_rate=0.0, max_sequence_length=6, variant="conventional",
        )
        model = TransformerModel.build(config, seed=5)
        model.params["out_proj.b"].data[EOS_ID] = -30.0  # no search ends early
        width = 4 if strategy == "beam" else 1
        fits = decode(model, [[4, 5, 6]], DecodeConfig(strategy, width, max_length=6))
        assert len(fits.token_ids) == 6
        with pytest.raises(ContractError):
            decode(model, [[4, 5, 6]], DecodeConfig(strategy, width, max_length=7))


class TestBatchedScripted:
    """Several histories in one call, each with its own script: every row's
    result is the one it gets alone, whenever the other rows finish."""

    FORCED = {(): dist(a=0.9), (A_ID,): dist(b=0.9), (A_ID, B_ID): dist(eos=0.9)}

    def test_greedy_rows_finish_independently(self):
        # history b finishes at step 1, history a at step 3, unk never
        model = ScriptedModel({}, by_history={A_ID: self.FORCED, B_ID: {(): dist(eos=0.8)}})
        histories = [[[A_ID]], [[B_ID, A_ID]], [[UNK_ID]], [[A_ID, A_ID, B_ID]]]
        results = decode_many(model, histories, DecodeConfig(max_length=5))
        assert [r.token_ids for r in results] == [
            [A_ID, B_ID, EOS_ID], [EOS_ID], [UNK_ID] * 5, [A_ID, B_ID, EOS_ID]]
        assert abs(results[0].score - 3 * np.log(0.9)) < 1e-12
        assert abs(results[1].score - np.log(0.8)) < 1e-12
        assert [r.truncated for r in results] == [False, False, True, False]
        assert results == [greedy_decode(model, h, DecodeConfig(max_length=5)) for h in histories]

    def test_beam_histories_keep_their_own_pools(self):
        # a: the delayed-reward script, stops after step 2; b: the row-swap
        # script, stops after step 3; unk: a completion drops one of its rows
        model = ScriptedModel({}, by_history={
            A_ID: {(): dist(a=0.6, b=0.4), (A_ID,): dist(eos=0.5, a=0.5), (B_ID,): dist(eos=0.95, a=0.05)},
            B_ID: {(): dist(a=0.6, b=0.4), (A_ID,): dist(b=0.5, a=0.3, eos=0.2), (B_ID,): dist(b=0.9, eos=0.1),
                   (B_ID, B_ID): dist(eos=0.5, a=0.5), (A_ID, B_ID): dist(eos=0.9, a=0.1)},
            UNK_ID: {(): dist(b=0.6, a=0.4), (B_ID,): dist(eos=0.55, a=0.45), (A_ID,): dist(b=0.9),
                     (A_ID, B_ID): dist(eos=0.95)},
        })
        histories = [[[B_ID]], [[A_ID]], [[UNK_ID]], [[B_ID]]]
        cfg = DecodeConfig(strategy="beam", beam_width=2)
        results = decode_many(model, histories, cfg)
        assert [r.token_ids for r in results] == [
            [A_ID, B_ID, EOS_ID], [B_ID, EOS_ID], [A_ID, B_ID, EOS_ID], [A_ID, B_ID, EOS_ID]]
        assert abs(results[0].score - np.log(0.6 * 0.5 * 0.9)) < 1e-12
        assert abs(results[1].score - np.log(0.4 * 0.95)) < 1e-12
        assert abs(results[2].score - np.log(0.4 * 0.9 * 0.95)) < 1e-12
        assert results == [beam_decode(model, h, cfg) for h in histories]


class TestBatchedAgainstPerHistory:
    """One call over many histories against one call per history."""

    @staticmethod
    def histories(rng, vocab_size, longest):
        lengths = list(range(1, longest + 1)) + [int(n) for n in rng.integers(1, longest + 1, size=40 - longest)]
        return [[int(t) for t in rng.integers(4, vocab_size, size=n)] for n in lengths]

    @pytest.mark.parametrize("strategy, width", [("greedy", 1), ("beam", 1), ("beam", 3)])
    def test_float64_same_ids_and_scores(self, strategy, width):
        model = peaked_model()
        histories = self.histories(np.random.default_rng(7), 16, 24)  # lengths 1 to 24
        assert len(histories) > CHUNK  # crosses a chunk boundary
        cfg = DecodeConfig(strategy, width, max_length=10)
        batched = decode_many(model, histories, cfg)
        assert len(batched) == len(histories)
        for i, (h, got) in enumerate(zip(histories, batched)):
            want = decode(model, h, cfg)
            assert got.token_ids == want.token_ids, i
            assert abs(got.score - want.score) <= 1e-9, i
            assert got.truncated == want.truncated, i
        assert len({len(r.token_ids) for r in batched}) > 1  # rows finished at different steps

    @pytest.mark.parametrize("strategy, width", [("greedy", 1), ("beam", 3)])
    def test_float32_same_ids_on_a_desk_model(self, strategy, width):
        with T.precision("single"):
            model = TransformerModel.build(desk_config(200, dropout_rate=0.0), seed=3)
            histories = self.histories(np.random.default_rng(8), 200, 30)
            cfg = DecodeConfig(strategy, width, max_length=8)
            batched = decode_many(model, histories, cfg)
            assert [r.token_ids for r in batched] == [decode(model, h, cfg).token_ids for h in histories]


class TestAgainstRealModel:
    def test_beam_width_one_reproduces_greedy(self, real_model):
        rng = np.random.default_rng(5)
        for _ in range(20):
            history = rng.integers(4, 12, size=(1, int(rng.integers(3, 9))))
            g = greedy_decode(real_model, history, DecodeConfig(max_length=10))
            b = beam_decode(
                real_model, history, DecodeConfig(strategy="beam", beam_width=1, max_length=10)
            )
            assert b.token_ids == g.token_ids
            assert abs(b.score - g.score) < 1e-9
            assert b.truncated == g.truncated

    def test_outputs_are_deterministic(self, real_model):
        history = [[4, 5, 6, 7]]
        first = beam_decode(real_model, history, DecodeConfig(strategy="beam", beam_width=3))
        second = beam_decode(real_model, history, DecodeConfig(strategy="beam", beam_width=3))
        assert first.token_ids == second.token_ids
        assert first.score == second.score

    def test_reserved_ids_never_emitted(self, real_model):
        rng = np.random.default_rng(9)
        for width in (1, 3):
            for _ in range(10):
                history = rng.integers(4, 12, size=(1, 5))
                cfg = DecodeConfig(
                    strategy="beam" if width > 1 else "greedy", beam_width=width, max_length=8
                )
                result = decode(real_model, history, cfg)
                assert PAD_ID not in result.token_ids
                assert BOS_ID not in result.token_ids
                assert result.token_ids.count(EOS_ID) <= 1
                if EOS_ID in result.token_ids:
                    assert result.token_ids[-1] == EOS_ID
                    assert not result.truncated
                else:
                    assert result.truncated

    def test_each_history_decodes_independently(self, real_model):
        # no cached state leaks from one history's call into the next
        histories = [[[4, 5, 6]], [[7, 8]], [[9, 10, 11, 4]]]
        for cfg in (DecodeConfig(max_length=6), DecodeConfig(strategy="beam", beam_width=3, max_length=6)):
            forward = [decode(real_model, h, cfg) for h in histories]
            backward = [decode(real_model, h, cfg) for h in reversed(histories)][::-1]
            assert all(isinstance(r, DecodeResult) for r in forward)
            assert [(r.token_ids, r.score) for r in forward] == [(r.token_ids, r.score) for r in backward]


class TestTopK:
    def test_matches_full_stable_argsort(self):
        # ties and -inf entries (pad and bos) included, k up to past the size
        rng = np.random.default_rng(5)
        for trial in range(500):
            size = int(rng.integers(1, 60))
            scores = rng.choice(rng.standard_normal(int(rng.integers(1, 8))), size=size)
            scores[rng.random(size) < 0.2] = -np.inf
            for k in (1, 2, 4, int(rng.integers(1, size + 3))):
                want = np.argsort(-scores, kind="stable")[:k]
                assert np.array_equal(top_k(scores, k), want), (trial, k)

    def test_beam_shape_with_ties(self):
        scores = np.full(4 * 5000, -3.0)
        scores[[7, 5007, 12000, 3]] = -1.0
        scores[[0, 1, 5000, 5001]] = -np.inf
        assert top_k(scores, 4).tolist() == [3, 7, 5007, 12000]
        assert top_k(scores, 6).tolist() == [3, 7, 5007, 12000, 2, 4]


class TestContracts:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ContractError):
            DecodeConfig(strategy="sampled")

    def test_nonpositive_width_and_length_rejected(self):
        with pytest.raises(ContractError):
            DecodeConfig(beam_width=0)
        with pytest.raises(ContractError):
            DecodeConfig(max_length=0)

    @pytest.mark.parametrize("penalty", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_length_penalty_rejected(self, penalty):
        with pytest.raises(ContractError, match="length_penalty"):
            DecodeConfig(length_penalty=penalty)

    def test_future_conditioned_checkpoint_rejected(self):
        config = ModelConfig(
            vocab_size=12,
            model_dim=8,
            num_blocks=1,
            num_heads=2,
            ffn_dim=16,
            dropout_rate=0.0,
            max_sequence_length=32,
            variant="scenario-based",
        )
        model = TransformerModel.build(config, seed=1)
        with pytest.raises(ContractError):
            greedy_decode(model, [[4, 5]])

    def test_empty_history_rejected(self, real_model):
        for strategy in STRATEGIES:
            for empty in ([], [[]]):
                with pytest.raises(ContractError):
                    decode(real_model, empty, DecodeConfig(strategy=strategy))

    def test_decode_many_takes_one_sequence_per_history(self, real_model):
        assert decode_many(real_model, [], DecodeConfig()) == []
        with pytest.raises(ContractError):
            decode_many(real_model, [[4, 5], [[4, 5], [6, 7]]], DecodeConfig())
        with pytest.raises(ContractError):
            decode_many(real_model, [[4, 5], []], DecodeConfig(strategy="beam", beam_width=2))

    def test_config_round_trips_through_dict(self):
        cfg = DecodeConfig(strategy="beam", beam_width=4, max_length=12, length_penalty=0.5)
        assert DecodeConfig(**cfg.to_dict()) == cfg
