"""Uninformative-example detection: clustering, overlap arithmetic, and
the many-to-one flagging rule under each strategy."""

import numpy as np
import pytest

from dialdistill import informativeness
from dialdistill.corpus import DialogueExample, window_dialogue
from dialdistill.embeddings import WordEmbeddings
from dialdistill.errors import ContractError
from dialdistill.informativeness import (
    classify_uninformative,
    overlap_equivalent,
    overlap_ratio,
    sentence_embedding,
    single_pass_cluster,
    token_frequencies,
)


def example(history, response, future, idx=0):
    def turns(texts):
        return [t.split() for t in texts]

    return DialogueExample(
        history=turns(history), response=response.split(), future=turns(future), dialogue_index=idx
    )


def axis_table(**tokens):
    """Hand-built embeddings with exactly controlled geometry."""
    return WordEmbeddings({k: np.asarray(v, dtype=float) for k, v in tokens.items()})


class TestSinglePassCluster:
    def test_identical_sentences_share_one_cluster(self):
        table = axis_table(hi=[1.0, 0.0], there=[0.5, 0.5])
        labels = single_pass_cluster([["hi", "there"]] * 4, table, threshold=0.9)
        assert labels == [0, 0, 0, 0]

    def test_orthogonal_sentences_split(self):
        table = axis_table(a=[1.0, 0.0], b=[0.0, 1.0])
        labels = single_pass_cluster([["a"], ["b"]], table, threshold=0.8)
        assert labels == [0, 1]

    def test_similarity_just_below_threshold_splits(self):
        angle_cos = 0.79
        table = axis_table(
            u=[1.0, 0.0], v=[angle_cos, float(np.sqrt(1 - angle_cos**2))]
        )
        assert single_pass_cluster([["u"], ["v"]], table, threshold=0.8) == [0, 1]

    def test_similarity_at_threshold_joins(self):
        angle_cos = 0.81
        table = axis_table(
            u=[1.0, 0.0], v=[angle_cos, float(np.sqrt(1 - angle_cos**2))]
        )
        assert single_pass_cluster([["u"], ["v"]], table, threshold=0.8) == [0, 0]

    def test_centroid_is_running_mean_not_first_member(self):
        # unit vectors at 0°, 36°, 50° with threshold 0.8 (= cos 36.87°):
        # the 36° vector joins the 0° cluster, pulling its centroid to
        # 18°; the 50° vector is 32° from that centroid (cos 0.848,
        # joins) but 50° from the first member (cos 0.643, would split
        # if the representative never moved).
        def unit(deg):
            rad = np.deg2rad(deg)
            return [float(np.cos(rad)), float(np.sin(rad))]

        table = axis_table(a=unit(0), b=unit(36), m=unit(50))
        labels = single_pass_cluster([["a"], ["b"], ["m"]], table, threshold=0.8)
        assert labels == [0, 0, 0]

    def test_first_matching_cluster_wins(self):
        table = axis_table(a=[1.0, 0.0], b=[0.0, 1.0], c=[1.0, 0.0])
        labels = single_pass_cluster([["a"], ["b"], ["c"]], table, threshold=0.99)
        assert labels == [0, 1, 0]

    def test_threshold_bounds_enforced(self):
        table = axis_table(a=[1.0, 0.0])
        with pytest.raises(ContractError):
            single_pass_cluster([["a"]], table, threshold=0.0)
        with pytest.raises(ContractError):
            single_pass_cluster([["a"]], table, threshold=1.2)
        assert single_pass_cluster([["a"], ["a"]], table, threshold=1.0) == [0, 0]

    def test_weights_favor_rare_tokens(self):
        counts = token_frequencies([["common"] * 99 + ["rare"]])
        table = axis_table(common=[1.0, 0.0], rare=[0.0, 1.0])
        vec = sentence_embedding(["common", "rare"], table, counts, total=100)
        assert vec[1] > vec[0] > 0.0


class TestOverlap:
    def test_four_of_five_is_not_equivalent(self):
        a = "a b c d e".split()
        b = "a b c d f".split()
        assert overlap_ratio(a, b) == 0.8
        assert not overlap_equivalent(a, b)

    def test_five_of_six_is_equivalent(self):
        a = "a b c d e f".split()
        b = "a b c d e g".split()
        assert overlap_equivalent(a, b)

    def test_denominator_is_larger_set(self):
        a = "a b".split()
        b = "a b c d".split()
        assert overlap_ratio(a, b) == 0.5

    def test_equality_implies_overlap_equivalence(self):
        for text in ("hello", "a b c", "x y z w v u"):
            assert overlap_equivalent(text.split(), text.split())


class TestExactMatch:
    def test_shared_response_distinct_histories_flags_both(self):
        examples = [
            example(["how are you"], "i am fine", ["good to hear"]),
            example(["what a day"], "i am fine", ["indeed it is"]),
        ]
        uninformative, other = classify_uninformative(examples, "exact-match")
        assert uninformative == [0, 1]
        assert other == []

    def test_one_to_one_duplicates_stay_informative(self):
        examples = [
            example(["how are you"], "i am fine", ["nice"]),
            example(["how are you"], "i am fine", ["nice"]),
        ]
        uninformative, other = classify_uninformative(examples, "exact-match")
        assert uninformative == []
        assert other == [0, 1]

    def test_response_to_future_direction_also_flags(self):
        examples = [
            example(["h one"], "first reply", ["ok sure"]),
            example(["h two"], "second reply", ["ok sure"]),
        ]
        uninformative, _ = classify_uninformative(examples, "exact-match")
        assert uninformative == [0, 1]

    def test_fully_distinct_corpus_is_clean(self):
        examples = [
            example([f"history {i}"], f"reply {i}", [f"future {i}"]) for i in range(5)
        ]
        uninformative, other = classify_uninformative(examples, "exact-match")
        assert uninformative == []
        assert other == list(range(5))


class TestWordOverlap:
    def test_eighty_percent_responses_not_flagged(self):
        examples = [
            example(["h one"], "a b c d e", ["f one"]),
            example(["h two"], "a b c d f", ["f two"]),
        ]
        uninformative, _ = classify_uninformative(examples, "word-overlap")
        assert uninformative == []

    def test_near_identical_responses_flagged(self):
        examples = [
            example(["h one x y"], "a b c d e f", ["f one"]),
            example(["h two w z"], "a b c d e g", ["f two"]),
        ]
        uninformative, _ = classify_uninformative(examples, "word-overlap")
        assert uninformative == [0, 1]

    def test_equivalent_histories_suppress_flag(self):
        examples = [
            example(["same history here"], "a b c d e f", ["f one"]),
            example(["same history here"], "a b c d e g", ["f two"]),
        ]
        uninformative, _ = classify_uninformative(examples, "word-overlap")
        assert uninformative == []


def pairwise_uninformative(firsts_equal, seconds_equal, n) -> set:
    """The quadratic rule, kept as the reference for the prefix-filtered
    join: i is flagged when some j != i has an equivalent second element
    and a non-equivalent first element."""
    flagged = set()
    for i in range(n):
        for j in range(n):
            if i != j and seconds_equal(i, j) and not firsts_equal(i, j):
                flagged.add(i)
                break
    return flagged


def oracle_word_overlap(examples) -> list:
    # token sets built once: overlap_ratio reads only the set of each side
    histories = [frozenset(e.history_tokens) for e in examples]
    responses = [frozenset(e.response) for e in examples]
    futures = [frozenset(e.future_tokens) for e in examples]
    flagged = set()
    for firsts, seconds in ((histories, responses), (responses, futures)):
        flagged |= pairwise_uninformative(
            lambda i, j: overlap_equivalent(firsts[i], firsts[j]),
            lambda i, j: overlap_equivalent(seconds[i], seconds[j]),
            len(examples),
        )
    return sorted(flagged)


def random_corpus(rng, n) -> list:
    """Short windows over a small vocabulary: empty turns and responses,
    repeated tokens, and planted pairs at exactly 4/5 (not equivalent)
    and 5/6 (equivalent) overlap."""
    vocab = [f"t{i}" for i in range(int(rng.integers(1, 16)))]

    def tokens():
        return [str(t) for t in rng.choice(vocab, size=int(rng.integers(0, 9)))]

    def turns():
        return [tokens() for _ in range(int(rng.integers(0, 3)))]

    examples = [DialogueExample(history=turns(), response=tokens(), future=turns()) for _ in range(n)]
    for _ in range(n // 3):
        i, j = (int(k) for k in rng.integers(n, size=2))
        size = int(rng.choice([5, 6]))
        base = [f"p{k}" for k in rng.permutation(size + 1)]
        near, far = base[:size], base[1:] + base[1:2]  # far repeats a token
        field = str(rng.choice(["history", "response", "future"]))
        for k, toks in ((i, near), (j, far)):
            setattr(examples[k], field, toks if field == "response" else [toks])
    return examples


def zipf_corpus(n_dialogues, seed) -> list:
    """Windows shaped like the benchmark's classify corpus: nine-turn
    dialogues of Zipf words over 3000 types, cut into (3, 1, 3)-turn
    windows, each middle window answered from a pool of eight generic
    replies."""
    rng = np.random.default_rng(seed)
    p = 1.0 / np.arange(1, 3001) ** 1.1
    p /= p.sum()

    def words(n):
        return [f"w{i}" for i in rng.choice(3000, size=n, p=p)]

    generic = [words(12) for _ in range(8)]
    examples = []
    for d in range(n_dialogues):
        turns = [words(n) for n in (9, 20, 12, 17, 12, 11, 19, 10, 16)]
        turns[4] = generic[int(rng.integers(8))]
        examples += window_dialogue(turns, 3, 1, 3, dialogue_index=d)
    return examples


class TestWordOverlapJoin:
    """The prefix-filtered join flags exactly what the quadratic rule does."""

    def test_random_corpora_match_oracle(self):
        rng = np.random.default_rng(7)
        sizes = [0, 1, 2] + [int(n) for n in rng.integers(3, 41, size=300)]
        for n in sizes:
            examples = random_corpus(rng, n)
            uninformative, _ = classify_uninformative(examples, "word-overlap")
            assert uninformative == oracle_word_overlap(examples), n

    def test_zipf_corpus_matches_oracle(self):
        examples = zipf_corpus(334, seed=3)
        assert len(examples) == 1002
        uninformative, _ = classify_uninformative(examples, "word-overlap")
        assert uninformative  # the generic replies recur behind distinct histories
        assert uninformative == oracle_word_overlap(examples)

    def test_verified_pairs_stay_far_below_quadratic(self, monkeypatch):
        calls = []
        ratio = informativeness.overlap_ratio

        def counting_ratio(a, b):
            calls.append(None)
            return ratio(a, b)

        monkeypatch.setattr(informativeness, "overlap_ratio", counting_ratio)
        examples = zipf_corpus(667, seed=5)
        n = len(examples)
        assert n == 2001
        classify_uninformative(examples, "word-overlap")
        assert 0 < len(calls) < n * n / 20


class TestSentenceCluster:
    def table(self):
        return axis_table(
            yes=[1.0, 0.0, 0.0],
            yeah=[0.995, 0.0998, 0.0],
            blue=[0.0, 1.0, 0.0],
            red=[0.0, 0.0, 1.0],
            h1=[0.5, 0.5, 0.0],
            h2=[0.0, 0.5, 0.5],
            f1=[0.3, 0.3, 0.3],
            f2=[0.7, 0.1, 0.1],
        )

    def test_clustered_responses_with_distinct_histories_flag(self):
        examples = [
            example(["h1"], "yes", ["f1"]),
            example(["h2"], "yeah", ["f2"]),
        ]
        uninformative, _ = classify_uninformative(examples, "sentence-cluster", self.table())
        assert uninformative == [0, 1]

    def test_distant_responses_stay_informative(self):
        examples = [
            example(["h1"], "blue", ["f1"]),
            example(["h2"], "red", ["f2"]),
        ]
        uninformative, _ = classify_uninformative(examples, "sentence-cluster", self.table())
        assert uninformative == []

    def test_missing_embeddings_rejected(self):
        with pytest.raises(ContractError):
            classify_uninformative([], "sentence-cluster")


class TestPartition:
    @pytest.mark.parametrize("strategy", ["exact-match", "word-overlap"])
    def test_union_and_disjointness(self, strategy):
        rng = np.random.default_rng(3)
        vocab = [f"t{i}" for i in range(12)]
        examples = []
        for i in range(20):
            pick = lambda n: " ".join(rng.choice(vocab, size=n))
            examples.append(example([pick(4)], pick(5), [pick(4)], idx=i))
        uninformative, other = classify_uninformative(examples, strategy)
        assert sorted(uninformative + other) == list(range(20))
        assert set(uninformative).isdisjoint(other)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ContractError):
            classify_uninformative([], "nearest-neighbor")
