"""Skip-gram embedding trainer and the text embedding-file format."""

import inspect
import math

import numpy as np
import pytest

from dialdistill.embeddings import (
    LEARNING_RATE,
    NEGATIVES,
    WINDOW,
    WordEmbeddings,
    _sgns_update,
    _window_pairs,
    cosine,
    train_word_embeddings,
)
from dialdistill.errors import DataError


def template_corpus(seed=0, sentences=400):
    """Tokens 'x' and 'y' appear in identical slot contexts; the other
    content words pair up arbitrarily, giving a baseline of unrelated
    vectors to compare against."""
    rng = np.random.default_rng(seed)
    pre = [f"p{i}" for i in range(4)]
    post = [f"s{i}" for i in range(4)]
    other = [f"w{i}" for i in range(8)]
    corpus = []
    for k in range(sentences):
        if k % 2 == 0:
            target = "x" if (k // 2) % 2 == 0 else "y"
            corpus.append([str(rng.choice(pre)), target, str(rng.choice(post))])
        else:
            corpus.append([str(t) for t in rng.choice(other, size=3)])
    return corpus


def per_pair_reference(corpus, dim, seed, epochs=5):
    """The oracle: plain per-pair SGD, every pair updating the weights
    before the next one is scored."""
    sentences = [list(s) for s in corpus if s]
    vocab = sorted({t for s in sentences for t in s})
    index = {t: i for i, t in enumerate(vocab)}
    counts = np.zeros(len(vocab))
    for s in sentences:
        for t in s:
            counts[index[t]] += 1
    noise = counts ** 0.75
    noise /= noise.sum()
    rng = np.random.default_rng(seed)
    w_in = (rng.random((len(vocab), dim)) - 0.5) / dim
    w_out = np.zeros((len(vocab), dim))
    for _ in range(epochs):
        for sentence in ([index[t] for t in s] for s in sentences):
            for pos, center in enumerate(sentence):
                for ctx_pos in range(max(0, pos - WINDOW), min(len(sentence), pos + WINDOW + 1)):
                    if ctx_pos == pos:
                        continue
                    context = sentence[ctx_pos]
                    grad_center = np.zeros(dim)
                    targets = [(context, 1.0)]
                    for noise_id in rng.choice(len(vocab), size=NEGATIVES, p=noise):
                        if noise_id != context:
                            targets.append((int(noise_id), 0.0))
                    for target, label in targets:
                        p = 1.0 / (1.0 + math.exp(-float(np.dot(w_in[center], w_out[target]))))
                        g = LEARNING_RATE * (label - p)
                        grad_center += g * w_out[target]
                        w_out[target] += g * w_in[center]
                    w_in[center] += grad_center
    return WordEmbeddings({t: w_in[index[t]] for t in vocab})


def corpus_tokens(corpus):
    """The corpus's distinct tokens in the trainer's (sorted) table order."""
    return sorted({t for s in corpus for t in s})


def similarity(table, a, b):
    return cosine(table.vector(a), table.vector(b))


def xy_and_baseline(table, corpus):
    """The x-y similarity and the mean similarity over every other pair."""
    tokens = corpus_tokens(corpus)
    others = [
        similarity(table, a, b)
        for i, a in enumerate(tokens)
        for b in tokens[i + 1:]
        if {a, b} != {"x", "y"}
    ]
    return similarity(table, "x", "y"), float(np.mean(others))


class TestTrainer:
    def test_every_token_gets_requested_dimension(self):
        table = train_word_embeddings(template_corpus(), dim=16, seed=3, epochs=1)
        assert table.dim == 16
        for t in corpus_tokens(template_corpus()):
            assert table.vector(t).shape == (16,)

    def test_same_seed_reproduces_table_exactly(self):
        a = train_word_embeddings(template_corpus(), dim=8, seed=5, epochs=1)
        b = train_word_embeddings(template_corpus(), dim=8, seed=5, epochs=1)
        for t in corpus_tokens(template_corpus()):
            assert np.array_equal(a.vector(t), b.vector(t))

    def test_different_seeds_differ(self):
        a = train_word_embeddings(template_corpus(), dim=8, seed=1, epochs=1)
        b = train_word_embeddings(template_corpus(), dim=8, seed=2, epochs=1)
        assert any(not np.array_equal(a.vector(t), b.vector(t)) for t in corpus_tokens(template_corpus()))

    def test_interchangeable_tokens_align(self):
        table = train_word_embeddings(template_corpus(), dim=24, seed=0, epochs=8)
        xy = similarity(table, "x", "y")
        rng = np.random.default_rng(11)
        others = [t for t in corpus_tokens(template_corpus()) if t not in ("x", "y")]
        baseline = []
        for _ in range(60):
            a, b = rng.choice(others, size=2, replace=False)
            baseline.append(similarity(table, str(a), str(b)))
        assert xy > float(np.mean(baseline))

    def test_tiny_corpus_rejected(self):
        with pytest.raises(DataError):
            train_word_embeddings([["a", "b", "c"]] * 10, dim=4)

    def test_zero_epochs_rejected(self):
        with pytest.raises(DataError):
            train_word_embeddings(template_corpus(), dim=4, epochs=0)

    def test_epochs_has_a_default(self):
        default = inspect.signature(train_word_embeddings).parameters["epochs"].default
        assert isinstance(default, int) and default >= 1

    def test_unknown_token_lookup_returns_none(self):
        table = train_word_embeddings(template_corpus(), dim=4, seed=0, epochs=1)
        assert table.vector("never-seen") is None


class TestMinibatch:
    @pytest.mark.parametrize("seed", range(10))
    def test_interchangeable_tokens_align_like_the_per_pair_oracle(self, seed):
        corpus = template_corpus(seed)
        xy, baseline = xy_and_baseline(train_word_embeddings(corpus, dim=24, seed=seed, epochs=8), corpus)
        oracle_xy, _ = xy_and_baseline(per_pair_reference(corpus, dim=24, seed=seed, epochs=8), corpus)
        assert abs(xy - oracle_xy) <= 0.05
        assert xy > baseline

    def test_pairs_are_center_major_within_the_window(self):
        sentence = np.array([3, 1, 3, 0, 2])
        expected = [
            (sentence[pos], sentence[ctx])
            for pos in range(len(sentence))
            for ctx in range(max(0, pos - WINDOW), min(len(sentence), pos + WINDOW + 1))
            if ctx != pos
        ]
        centers, contexts = _window_pairs(sentence)
        assert list(zip(centers, contexts)) == expected

    def test_sentence_update_matches_a_float64_loop(self):
        rng = np.random.default_rng(4)
        vocab, dim = 5, 4
        w_in = rng.standard_normal((vocab, dim))
        w_out = rng.standard_normal((vocab, dim))
        sentence = np.array([3, 1, 3, 0, 2])  # id 3 repeats
        centers, contexts = _window_pairs(sentence)
        noise = rng.integers(0, vocab, size=(len(centers), 3))
        noise[0, 1] = contexts[0]  # a noise id equal to its own context
        noise[5, :] = contexts[5]

        want_in, want_out = w_in.copy(), w_out.copy()
        for center, context, negatives in zip(centers, contexts, noise):
            targets = [(context, 1.0)] + [(n, 0.0) for n in negatives if n != context]
            for target, label in targets:
                p = 1.0 / (1.0 + math.exp(-float(w_in[center] @ w_out[target])))
                g = LEARNING_RATE * (label - p)
                want_in[center] += g * w_out[target]
                want_out[target] += g * w_in[center]

        _sgns_update(w_in, w_out, centers, contexts, noise)
        assert np.max(np.abs(w_in - want_in)) <= 1e-12
        assert np.max(np.abs(w_out - want_out)) <= 1e-12


class TestCosine:
    def test_identical_is_one(self):
        v = np.array([1.0, 2.0, -3.0])
        assert abs(cosine(v, v) - 1.0) < 1e-12

    def test_orthogonal_is_zero(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 5.0])) == 0.0

    def test_zero_vector_is_zero_not_nan(self):
        assert cosine(np.zeros(3), np.array([1.0, 1.0, 1.0])) == 0.0


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        table = train_word_embeddings(template_corpus(), dim=6, seed=0, epochs=1)
        path = tmp_path / "vectors.txt"
        table.save(path)
        loaded = WordEmbeddings.load(path)
        assert loaded.dim == 6
        tokens = corpus_tokens(template_corpus())
        assert path.read_text().splitlines()[0] == f"{len(tokens)} 6"
        for t in tokens:
            assert np.allclose(loaded.vector(t), table.vector(t), atol=1e-6)

    def test_header_counts_rows_and_dimension(self, tmp_path):
        path = tmp_path / "v.txt"
        WordEmbeddings({"a": [1.0, 2.0], "b": [3.0, 4.0]}).save(path)
        first = path.read_text().splitlines()[0]
        assert first == "2 2"

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a header\na 1.0\n")
        with pytest.raises(DataError):
            WordEmbeddings.load(path)

    def test_row_width_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 3\na 1.0 2.0\n")
        with pytest.raises(DataError):
            WordEmbeddings.load(path)

    def test_non_numeric_value_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\na 1.0 oops\n")
        with pytest.raises(DataError):
            WordEmbeddings.load(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = tmp_path / "bad.txt"
        path.write_text(f"2 2\na 1.0 2.0\nx {value} 1\n")
        with pytest.raises(DataError, match=f"{path}: non-finite value in row 'x'"):
            WordEmbeddings.load(path)

    def test_row_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\na 1.0 2.0\nb 3.0 4.0\n")
        with pytest.raises(DataError):
            WordEmbeddings.load(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(DataError):
            WordEmbeddings.load(path)

    def test_inconsistent_shapes_rejected(self):
        with pytest.raises(DataError):
            WordEmbeddings({"a": [1.0, 2.0], "b": [1.0]})
