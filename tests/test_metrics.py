"""Metric correctness against hand computations and independent
brute-force reimplementations."""

import json
import math
from collections import Counter

import numpy as np
import pytest

import dialdistill.tensor as T
from dialdistill.corpus import EncodedExample, make_batch
from dialdistill.embeddings import WordEmbeddings, cosine
from dialdistill.errors import ContractError, DataError
from dialdistill.metrics import (
    EmbeddingMetrics,
    MetricsReport,
    bleu,
    coherence,
    corpus_ppl,
    distinct_n,
    embedding_metrics,
    kl_metric,
    ngrams,
    sentence_perplexities,
    word_distribution_similarity,
)
from dialdistill.model import ModelConfig, TransformerModel
from dialdistill.training import forward_batch


@pytest.fixture(autouse=True)
def double_precision():
    with T.precision("double"):
        yield


def sentences(*texts):
    return [t.split() for t in texts]


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def brute_distinct(responses, n):
    grams = []
    for r in responses:
        for i in range(len(r)):
            if i + n <= len(r):
                grams.append(tuple(r[i : i + n]))
    if not grams:
        return 0.0
    unique = []
    for g in grams:
        if g not in unique:
            unique.append(g)
    return len(unique) / len(grams)


def brute_kl(refs, gens, n):
    def count(resps):
        c = {}
        for r in resps:
            for i in range(len(r) - n + 1):
                g = tuple(r[i : i + n])
                c[g] = c.get(g, 0) + 1
        return c

    rc, gc = count(refs), count(gens)
    r_total = sum(rc.values())
    g_total = sum(gc.values())
    missing = [g for g in rc if g not in gc]
    value = 0.0
    for g, k in rc.items():
        p_r = k / r_total
        if missing:
            p_m = (gc.get(g, 0) + 1.0 / len(rc)) / (g_total + 1.0)
        else:
            p_m = gc[g] / g_total
        value += p_r * math.log2(p_r / p_m)
    return value


def brute_bleu(refs, cands):
    weights_orders = []
    log_sum = 0.0
    r_len = sum(len(r) for r in refs)
    c_len = sum(len(c) for c in cands)
    for n in range(1, 5):
        num = 0
        den = 0
        for ref, cand in zip(refs, cands):
            cg = Counter(tuple(cand[i : i + n]) for i in range(len(cand) - n + 1))
            rg = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
            den += sum(cg.values())
            num += sum(min(v, rg[g]) for g, v in cg.items())
        if den > 0:
            weights_orders.append((num, den))
    if not weights_orders or c_len == 0:
        return 0.0
    for num, den in weights_orders:
        p = num / den if num > 0 else 1e-9
        log_sum += math.log(p) / len(weights_orders)
    bp = 1.0 if c_len > r_len else math.exp(1.0 - r_len / c_len)
    return 100.0 * bp * math.exp(log_sum)


# ---------------------------------------------------------------------------
# distinct-n
# ---------------------------------------------------------------------------


class TestDistinct:
    def test_hand_counts(self):
        assert distinct_n(sentences("a b a"), 1) == (2 / 3, True)
        assert distinct_n(sentences("a a a a"), 1) == (1 / 4, True)
        assert distinct_n(sentences("a b a"), 2) == (1.0, True)

    def test_no_ngrams_flags_undefined(self):
        value, defined = distinct_n(sentences("a", "b"), 2)
        assert value == 0.0 and not defined

    def test_bounded_by_one_and_unique_iff_one(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            resps = [
                [str(t) for t in rng.integers(0, 6, size=rng.integers(1, 8))]
                for _ in range(rng.integers(1, 5))
            ]
            for n in (1, 2, 3):
                value, defined = distinct_n(resps, n)
                assert value <= 1.0
                if defined:
                    grams = [g for r in resps for g in ngrams(r, n)]
                    assert (value == 1.0) == (len(set(grams)) == len(grams))

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            resps = [
                [str(t) for t in rng.integers(0, 5, size=rng.integers(1, 10))]
                for _ in range(rng.integers(1, 6))
            ]
            for n in (1, 2, 3):
                value, defined = distinct_n(resps, n)
                expected = brute_distinct(resps, n)
                assert abs(value - expected) < 1e-12

    def test_order_zero_rejected(self):
        with pytest.raises(ContractError):
            distinct_n(sentences("a b"), 0)


# ---------------------------------------------------------------------------
# n-gram KL
# ---------------------------------------------------------------------------


class TestKL:
    def test_self_distance_is_exactly_zero(self):
        s = sentences("a b c", "b c d", "a a b")
        assert kl_metric(s, s, 1) == 0.0
        assert kl_metric(s, s, 2) == 0.0

    def test_hand_example(self):
        refs = sentences("a", "b")
        gens = sentences("a", "a", "a", "b")
        value = kl_metric(refs, gens, 1)
        expected = 0.5 * math.log2(0.5 / 0.75) + 0.5 * math.log2(0.5 / 0.25)
        assert abs(value - expected) < 1e-12
        assert abs(value - 0.2075) < 1e-4

    def test_missing_reference_gram_stays_finite_positive(self):
        value = kl_metric(sentences("a b"), sentences("c d"), 1)
        assert np.isfinite(value)
        assert value > 0.0

    def test_nonnegative_without_smoothing(self):
        rng = np.random.default_rng(2)
        vocab = list("abcdef")
        for _ in range(50):
            gens = [
                [vocab[int(t)] for t in rng.integers(0, len(vocab), size=6)] for _ in range(4)
            ]
            seen = sorted({t for g in gens for t in g})
            refs = [[str(t) for t in rng.choice(seen, size=5)] for _ in range(3)]
            assert kl_metric(refs, gens, 1) >= -1e-12

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        vocab = list("abcd")
        for _ in range(30):
            refs = [
                [vocab[int(t)] for t in rng.integers(0, 4, size=rng.integers(2, 7))]
                for _ in range(3)
            ]
            gens = [
                [vocab[int(t)] for t in rng.integers(0, 4, size=rng.integers(2, 7))]
                for _ in range(3)
            ]
            for n in (1, 2):
                assert abs(kl_metric(refs, gens, n) - brute_kl(refs, gens, n)) < 1e-12

    def test_empty_reference_rejected(self):
        with pytest.raises(DataError):
            kl_metric([[]], sentences("a"), 1)


# ---------------------------------------------------------------------------
# corpus perplexity
# ---------------------------------------------------------------------------


def tiny_model(vocab_size=14, variant="conventional", seed=4):
    config = ModelConfig(
        vocab_size=vocab_size,
        model_dim=8,
        num_blocks=1,
        num_heads=2,
        ffn_dim=16,
        dropout_rate=0.0,
        max_sequence_length=48,
        variant=variant,
    )
    return TransformerModel.build(config, seed=seed)


def id_examples(rng, count, vocab_size=14, max_resp=6):
    out = []
    for _ in range(count):
        out.append(
            EncodedExample(
                history=[int(t) for t in rng.integers(4, vocab_size, size=rng.integers(2, 6))],
                response=[int(t) for t in rng.integers(4, vocab_size, size=rng.integers(1, max_resp))],
                future=[int(t) for t in rng.integers(4, vocab_size, size=rng.integers(2, 6))],
            )
        )
    return out


class TestCorpusPpl:
    def test_uniform_output_scores_vocab_size(self):
        model = tiny_model()
        model.params["out_proj.w"].data = np.zeros_like(model.params["out_proj.w"].data)
        model.params["out_proj.b"].data = np.zeros_like(model.params["out_proj.b"].data)
        examples = id_examples(np.random.default_rng(5), 6)
        report = corpus_ppl(model, examples, batch_size=4)
        assert abs(report.value - model.config.vocab_size) < 1e-9
        assert report.excluded == 0

    def test_corpus_value_is_arithmetic_mean_of_sentence_ppls(self):
        model = tiny_model()
        examples = id_examples(np.random.default_rng(6), 7)
        report = corpus_ppl(model, examples, batch_size=3)
        assert len(report.sentence_ppls) == 7
        assert len(set(np.round(report.sentence_ppls, 6))) > 1
        assert abs(report.value - float(np.mean(report.sentence_ppls))) < 1e-12

    def test_batching_matches_single_example_oracle(self):
        model = tiny_model()
        examples = id_examples(np.random.default_rng(7), 5)
        report = corpus_ppl(model, examples, batch_size=5)
        for ex, batched_value in zip(examples, report.sentence_ppls):
            batch = make_batch([ex], include_future=False)
            with model.params.inference():
                out = forward_batch(model, batch)
            p = out.probabilities.data[0]
            logs = [
                math.log(max(float(p[t, tgt]), 1e-12))
                for t, tgt in enumerate(batch.response_target[0])
                if batch.target_mask[0][t] > 0
            ]
            expected = math.exp(-sum(logs) / len(logs))
            assert abs(batched_value - expected) < 1e-9

    def test_future_conditioned_variant_consumes_futures(self):
        model = tiny_model(variant="scenario-based")
        examples = id_examples(np.random.default_rng(8), 4)
        report = corpus_ppl(model, examples, batch_size=2)
        assert report.value > 0

    def test_all_masked_row_excluded_with_counter(self):
        model = tiny_model()
        examples = id_examples(np.random.default_rng(9), 3)
        batch = make_batch(examples, include_future=False)
        batch.target_mask[1, :] = 0.0
        with model.params.inference():
            ppls, excluded = sentence_perplexities(model, batch)
        assert excluded == 1
        assert len(ppls) == 2

    def test_no_scorable_sentences_rejected(self):
        model = tiny_model()
        with pytest.raises(DataError):
            corpus_ppl(model, [], batch_size=2)


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------


class TestBleu:
    def test_perfect_match_scores_100(self):
        refs = sentences("the cat sat on the mat", "hello there friend")
        assert abs(bleu(refs, refs) - 100.0) < 1e-9

    def test_perfect_short_sentences_score_100(self):
        refs = sentences("a b", "c d")
        assert abs(bleu(refs, refs) - 100.0) < 1e-9

    def test_brevity_penalty_hand_case(self):
        value = bleu(sentences("a b c d e"), sentences("a b c d"))
        assert abs(value - 100.0 * math.exp(1.0 - 5.0 / 4.0)) < 1e-9

    def test_disjoint_corpora_score_near_zero(self):
        value = bleu(sentences("a b c d e"), sentences("v w x y z"))
        assert value < 1e-2

    def test_symmetric_under_pair_permutation(self):
        refs = sentences("a b c d", "e f g h i", "a a b b")
        cands = sentences("a b c x", "e f g h", "a b a b")
        base = bleu(refs, cands)
        perm = [2, 0, 1]
        assert bleu([refs[i] for i in perm], [cands[i] for i in perm]) == base

    def test_empty_candidate_scores_zero(self):
        assert bleu(sentences("a b c"), [[]]) == 0.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            bleu([], [])

    def test_misaligned_pairs_rejected(self):
        with pytest.raises(ContractError):
            bleu(sentences("a"), sentences("a", "b"))

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(10)
        vocab = list("abcdefg")
        for _ in range(25):
            count = int(rng.integers(1, 5))
            refs = [
                [vocab[int(t)] for t in rng.integers(0, 7, size=rng.integers(1, 9))]
                for _ in range(count)
            ]
            cands = [
                [vocab[int(t)] for t in rng.integers(0, 7, size=rng.integers(1, 9))]
                for _ in range(count)
            ]
            assert abs(bleu(refs, cands) - brute_bleu(refs, cands)) < 1e-9


# ---------------------------------------------------------------------------
# embedding metrics and coherence
# ---------------------------------------------------------------------------


def hand_table():
    return WordEmbeddings(
        {
            "r1": np.array([1.0, 0.0]),
            "r2": np.array([0.0, 1.0]),
            "c2": np.array([0.6, 0.8]),
        }
    )


class TestEmbeddingMetrics:
    def test_identical_sentences_score_one(self):
        table = hand_table()
        refs = sentences("r1 r2", "r2 c2")
        result = embedding_metrics(refs, refs, table)
        assert abs(result.average - 1.0) < 1e-12
        assert abs(result.greedy - 1.0) < 1e-12
        assert abs(result.extrema - 1.0) < 1e-12

    def test_orthogonal_means_zero_average(self):
        result = embedding_metrics(sentences("r1"), sentences("r2"), hand_table())
        assert result.average == 0.0

    def test_hand_two_by_two_case(self):
        result = embedding_metrics(sentences("r1 r2"), sentences("r1 c2"), hand_table())
        mean_ref = np.array([0.5, 0.5])
        mean_cand = np.array([0.8, 0.4])
        expected_ave = float(
            np.dot(mean_ref, mean_cand) / (np.linalg.norm(mean_ref) * np.linalg.norm(mean_cand))
        )
        assert abs(result.average - expected_ave) < 1e-12
        # greedy: ref→cand matches (1.0, 0.8); cand→ref matches (1.0, 0.8)
        assert abs(result.greedy - 0.9) < 1e-12
        ext_ref = np.array([1.0, 1.0])
        ext_cand = np.array([1.0, 0.8])
        expected_ext = float(
            np.dot(ext_ref, ext_cand) / (np.linalg.norm(ext_ref) * np.linalg.norm(ext_cand))
        )
        assert abs(result.extrema - expected_ext) < 1e-12

    def test_unknown_tokens_are_dropped(self):
        table = hand_table()
        with_unk = embedding_metrics(sentences("r1 zzz"), sentences("r1"), table)
        without = embedding_metrics(sentences("r1"), sentences("r1"), table)
        assert with_unk == without

    def test_greedy_matches_per_pair_cosine_loop(self):
        def directed(a_vecs, b_vecs):
            return float(np.mean([max(cosine(a, b) for b in b_vecs) for a in a_vecs]))

        rng = np.random.default_rng(8)
        words = [f"w{i}" for i in range(30)]
        vectors = {w: rng.standard_normal(6) for w in words}
        vectors["w0"] = np.zeros(6)  # scores 0 against every word
        table = WordEmbeddings(vectors)
        for _ in range(200):
            ref, cand = ([str(w) for w in rng.choice(words, size=int(rng.integers(1, 9)))] for _ in "rc")
            r_vecs, c_vecs = [vectors[w] for w in ref], [vectors[w] for w in cand]
            expected = 0.5 * (directed(r_vecs, c_vecs) + directed(c_vecs, r_vecs))
            assert abs(embedding_metrics([ref], [cand], table).greedy - expected) <= 1e-12

    def test_pair_with_no_known_tokens_is_skipped(self):
        table = hand_table()
        result = embedding_metrics(sentences("zzz", "r1"), sentences("qqq", "r1"), table)
        assert result.skipped_pairs == 1
        assert abs(result.average - 1.0) < 1e-12

    def test_one_sided_empty_counts_as_zero(self):
        result = embedding_metrics(sentences("zzz"), sentences("r1"), hand_table())
        assert result == EmbeddingMetrics(0.0, 0.0, 0.0, 0)

    def test_signed_extrema_keeps_negative_values(self):
        table = WordEmbeddings({"p": np.array([0.2, -3.0]), "q": np.array([1.0, 0.5])})
        result = embedding_metrics([["p", "q"]], [["p", "q"]], table)
        assert abs(result.extrema - 1.0) < 1e-12  # identical, sign preserved
        # extrema vector should be [1.0, -3.0]: cosine against itself is 1
        # against a sentence with only q it differs from unsigned maxima
        mixed = embedding_metrics([["p", "q"]], [["q"]], table)
        ext = np.array([1.0, -3.0])
        expected = float(
            np.dot(ext, np.array([1.0, 0.5]))
            / (np.linalg.norm(ext) * np.linalg.norm([1.0, 0.5]))
        )
        assert abs(mixed.extrema - expected) < 1e-12


class TestCoherence:
    def test_identical_tokens_score_one(self):
        value, skipped = coherence(sentences("r1 r2"), sentences("r1 r2"), hand_table())
        assert abs(value - 1.0) < 1e-12
        assert skipped == 0

    def test_orthogonal_score_zero(self):
        value, _ = coherence(sentences("r1"), sentences("r2"), hand_table())
        assert value == 0.0

    def test_hand_cosine(self):
        value, _ = coherence(sentences("r1"), sentences("c2"), hand_table())
        assert abs(value - 0.6) < 1e-12


# ---------------------------------------------------------------------------
# word-distribution similarity
# ---------------------------------------------------------------------------


class TestWordDistribution:
    def test_hand_cosine(self):
        gens = sentences("a b b b")
        refs = sentences("a a a b")
        assert abs(word_distribution_similarity(gens, refs, top_k=2) - 0.6) < 1e-12

    def test_identical_sets_score_one(self):
        refs = sentences("x y z x", "y y w")
        assert abs(word_distribution_similarity(refs, refs, top_k=10) - 1.0) < 1e-12

    def test_disjoint_vocabulary_scores_zero(self):
        assert word_distribution_similarity(sentences("p q"), sentences("a b"), top_k=5) == 0.0

    def test_top_k_restricts_to_frequent_reference_words(self):
        refs = sentences("a a a a a b b b c")
        gens = sentences("c c c c")
        assert word_distribution_similarity(gens, refs, top_k=2) == 0.0

    def test_frequency_ties_break_lexicographically(self):
        refs = sentences("b a b a c")
        gens = sentences("a b")  # both in top-2 either way
        high = word_distribution_similarity(gens, refs, top_k=2)
        assert high > 0.99

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        vocab = list("abcde")
        for _ in range(20):
            refs = [[vocab[int(t)] for t in rng.integers(0, 5, size=8)] for _ in range(3)]
            gens = [[vocab[int(t)] for t in rng.integers(0, 5, size=8)] for _ in range(3)]
            k = int(rng.integers(1, 6))
            rc = Counter(t for r in refs for t in r)
            top = sorted(rc, key=lambda w: (-rc[w], w))[:k]
            gc = Counter(t for g in gens for t in g)
            rv = np.array([rc[w] for w in top], dtype=float)
            gv = np.array([gc.get(w, 0) for w in top], dtype=float)
            denom = np.linalg.norm(rv) * np.linalg.norm(gv)
            expected = float(np.dot(gv, rv) / denom) if denom else 0.0
            assert abs(word_distribution_similarity(gens, refs, top_k=k) - expected) < 1e-12

    def test_bad_top_k_rejected(self):
        with pytest.raises(ContractError):
            word_distribution_similarity([], sentences("a"), top_k=0)


# ---------------------------------------------------------------------------
# improvement average and report serialization
# ---------------------------------------------------------------------------


def full_report(**overrides):
    base = dict(
        dist1=0.5,
        dist2=0.6,
        dist3=0.7,
        kl_unigram=0.4,
        kl_bigram=0.8,
        ppl=50.0,
        bleu=10.0,
        emb_average=0.5,
        emb_greedy=0.5,
        emb_extrema=0.5,
        coherence=0.5,
    )
    base.update(overrides)
    return MetricsReport(**base)


class TestReportSerialization:
    def test_json_round_trip(self):
        report = full_report()
        report.generation = {"strategy": "beam", "beam_width": 4}
        report.corpus_id = "validation"
        report.model_id = "student-s0"
        report.flags = {"dist3_no_ngrams": False}
        clone = MetricsReport(**json.loads(report.to_json()))
        assert clone == report

    def test_file_round_trip(self, tmp_path):
        report = full_report(run_config={"model.vocab_size": 30})
        path = tmp_path / "report.json"
        report.save(path)
        assert MetricsReport(**json.loads(path.read_text())) == report
