"""Corpus preparation: reading both formats, the fixed window shape, the
length bounds at their edges, vocabulary order and batch padding."""

import json

import numpy as np
import pytest

from dialdistill.corpus import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    RESERVED,
    UNK_ID,
    DialogueExample,
    EncodedExample,
    build_vocabulary,
    length_filter,
    make_batch,
    read_dialogues,
    split_examples,
    window_dialogue,
    window_dialogues,
)
from dialdistill.errors import DataError, VocabularyError


def tokens(n, word="w"):
    return [word] * n


def example(response=10, history=30, future=30):
    """History and future as three turns whose lengths sum to the given counts."""

    def turns(total):
        return [tokens(total - 2 * (total // 3)), tokens(total // 3), tokens(total // 3)]

    return DialogueExample(history=turns(history), response=tokens(response), future=turns(future))


class TestLengthFilter:
    @pytest.mark.parametrize("n, kept", [(4, False), (5, True), (25, True), (26, False)])
    def test_response_bounds_are_inclusive(self, n, kept):
        assert (length_filter([example(response=n)]) != []) == kept

    @pytest.mark.parametrize("n, kept", [(24, False), (25, True), (80, True), (81, False)])
    @pytest.mark.parametrize("side", ["history", "future"])
    def test_context_bounds_are_inclusive(self, side, n, kept):
        assert (length_filter([example(**{side: n})]) != []) == kept

    def test_keeps_order_of_the_survivors(self):
        exs = [example(response=n) for n in (10, 3, 12, 30, 5)]
        assert length_filter(exs) == [exs[0], exs[2], exs[4]]


class TestWindows:
    def test_three_one_three_shape_with_stride_one(self):
        turns = [[f"t{i}"] for i in range(9)]
        windows = window_dialogue(turns, dialogue_index=4)
        assert [w.window_offset for w in windows] == [0, 1, 2]
        assert all(w.dialogue_index == 4 for w in windows)
        first = windows[0]
        assert first.history == [["t0"], ["t1"], ["t2"]]
        assert first.response == ["t3"]
        assert first.future == [["t4"], ["t5"], ["t6"]]
        assert windows[2].response == ["t5"] and windows[2].future[-1] == ["t8"]

    def test_stride_two_skips_offsets(self):
        turns = [[f"t{i}"] for i in range(11)]
        windows = window_dialogue(turns, stride=2)
        assert [w.window_offset for w in windows] == [0, 2, 4]
        assert [w.response for w in windows] == [["t3"], ["t5"], ["t7"]]

    def test_short_dialogue_has_no_window(self):
        assert window_dialogue([["a"]] * 6) == []

    @pytest.mark.parametrize("stride", [0, -1])
    def test_stride_below_one_rejected(self, stride):
        with pytest.raises(DataError, match="stride"):
            window_dialogue([["a"]] * 7, stride=stride)

    def test_dialogue_index_follows_input_order(self):
        dialogues = [[[f"d0t{i}"] for i in range(8)], [["x"]] * 3, [[f"d2t{i}"] for i in range(7)]]
        windows = window_dialogues(dialogues)
        assert [(w.dialogue_index, w.window_offset) for w in windows] == [(0, 0), (0, 1), (2, 0)]


class TestReadDialogues:
    def test_format_a(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("\nhi there __eou__ hello __eou__ \nbye __eou__ __eou__ ok\n", encoding="utf-8")
        assert read_dialogues(path) == [["hi there", "hello"], ["bye", "ok"]]

    def test_format_b_detected_from_first_non_blank_line(self, tmp_path):
        path = tmp_path / "b.jsonl"
        records = [{"turns": ["hi", " there "]}, {"turns": ["", "x"]}]
        path.write_text("\n" + "\n\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
        assert read_dialogues(path) == [["hi", "there"], ["x"]]

    @pytest.mark.parametrize(
        "record, message",
        [
            ("{not json", "invalid JSON record"),
            ('{"speech": ["a"]}', "lacks a 'turns' field"),
            ('{"turns": "a b"}', "array of strings"),
            ('{"turns": ["a", 1]}', "array of strings"),
        ],
    )
    def test_format_b_errors_name_path_and_line(self, tmp_path, record, message):
        path = tmp_path / "b.jsonl"
        path.write_text('{"turns": ["a"]}\n\n' + record + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=message) as err:
            read_dialogues(path)
        assert str(err.value).startswith(f"{path}:3:")


class TestVocabulary:
    def test_ties_break_lexicographically_after_frequency(self):
        vocab = build_vocabulary([["b", "a", "zz", "zz"], ["c", "b", "a"]], max_size=len(RESERVED) + 3)
        assert vocab.content_tokens() == ["a", "b", "zz"]

    def test_reserved_ids_come_first(self):
        vocab = build_vocabulary([["z"]], max_size=10)
        assert vocab.encode(["z", "unseen"]) == [len(RESERVED), UNK_ID]


class TestMakeBatch:
    def test_padding_and_target_mask(self):
        exs = [
            EncodedExample(history=[5, 6, 7], response=[8, 9], future=[10]),
            EncodedExample(history=[5], response=[11, 12, 13], future=[10, 11, 12, 13]),
        ]
        batch = make_batch(exs)
        assert batch.history.tolist() == [[5, 6, 7], [5, PAD_ID, PAD_ID]]
        assert batch.response_in.tolist() == [[BOS_ID, 8, 9, PAD_ID], [BOS_ID, 11, 12, 13]]
        assert batch.response_target.tolist() == [[8, 9, EOS_ID, PAD_ID], [11, 12, 13, EOS_ID]]
        assert batch.target_mask.tolist() == [[1, 1, 1, 0], [1, 1, 1, 1]]
        assert batch.future.tolist() == [[10, PAD_ID, PAD_ID, PAD_ID], [10, 11, 12, 13]]
        assert batch.token_count == 7.0 and batch.size == 2

    def test_future_left_out_on_request(self):
        batch = make_batch([EncodedExample(history=[5], response=[6], future=[7])], include_future=False)
        assert batch.future is None

    def test_zero_examples_rejected(self):
        with pytest.raises(DataError):
            make_batch([])

    def test_ids_that_are_not_integers_rejected_naming_the_field(self):
        # the int64 batch would truncate 4.7 to 4 and turn True into 1
        with pytest.raises(VocabularyError, match="history token ids must be integers, got 4.7"):
            make_batch([EncodedExample(history=[4.7, 5.2, 6.9], response=[7.9, 8.1], future=[True, 9])])
        with pytest.raises(VocabularyError, match="response .* got 7.9"):
            make_batch([EncodedExample(history=[4, 5, 6], response=[7.9, 8.1], future=[True, 9])])
        with pytest.raises(VocabularyError, match="future .* got True"):
            make_batch([EncodedExample(history=[4, 5, 6], response=[7, 8], future=[True, 9])])
        batch = make_batch([EncodedExample(history=[4, 5, 6], response=list(np.array([7, 8])), future=[9])])
        assert batch.response_target.tolist() == [[7, 8, EOS_ID]]


class TestSplitExamples:
    def test_fractions_partition_the_examples(self):
        exs = [example() for _ in range(10)]
        train, val, test = split_examples(exs, 0.2, 0.3, seed=0)
        assert (len(train), len(val), len(test)) == (5, 2, 3)

    @pytest.mark.parametrize(
        "val, test",
        [(float("nan"), 0.1), (0.1, float("nan")), (float("inf"), 0.0), (-0.1, 0.1), (0.5, 0.5)],
    )
    def test_bad_fractions_rejected(self, val, test):
        with pytest.raises(DataError, match="split fractions"):
            split_examples([example() for _ in range(10)], val, test, seed=0)
