"""The post-training analysis toolbox.

Three analyses on one small trained model and its corpus:
  1. robustness: perplexity as Gaussian noise of growing sigma is
     injected into the parameters (flat minima degrade gracefully),
  2. word-frequency similarity between generated and reference text,
  3. uninformative-window detection: a response that recurs verbatim
     after different histories is context-blind (likewise a future that
     recurs after different responses), so those windows teach the
     model nothing and can be filtered out.

Run: python3 demos/05_analysis_suite.py   (~20 s)
"""

from dialdistill.analysis import perturbation_analysis
from dialdistill.corpus import DialogueExample, encode_example
from dialdistill.decoding import DecodeConfig, greedy_decode
from dialdistill.informativeness import classify_uninformative
from dialdistill.metrics import word_distribution_similarity
from dialdistill.model import desk_config
from dialdistill.synthetic import future_marker_corpus, marker_vocabulary
from dialdistill.training import TrainingConfig, train_conventional


def main():
    vocab = marker_vocabulary()
    corpus = future_marker_corpus(48, seed=7)
    train = [encode_example(e, vocab) for e in corpus[:40]]
    held = [encode_example(e, vocab) for e in corpus[40:]]

    print("training a small model ...")
    tcfg = TrainingConfig(batch_size=16, seed=7, max_steps=500, val_every=10**9)
    model = train_conventional(train, [], desk_config(len(vocab), "conventional"), tcfg).model

    print("\n1. parameter-noise robustness (5 samples per sigma):")
    for rec in perturbation_analysis(model, train, [0.0, 0.01, 0.05, 0.1],
                                     samples_per_sigma=5, seed=0):
        print(f"   sigma {rec['sigma']:<5g} ppl {rec['mean_ppl']:>9.3f} "
              f"(+/- {rec['std_ppl']:.3f})")

    refs = [vocab.decode(ex.response) for ex in held]
    gens = [
        vocab.decode(greedy_decode(model, ex.history, DecodeConfig(max_length=10)).token_ids)
        for ex in held
    ]
    sim = word_distribution_similarity(gens, refs, top_k=50)
    print(f"\n2. word-frequency cosine (generated vs reference): {sim:.4f}")

    # The same stock reply follows two different histories, so it tells
    # the model nothing about the context; the third window is unique.
    windows = [
        DialogueExample(history=[["how", "are", "you"]], response=["i", "am", "fine"],
                        future=[["great"]]),
        DialogueExample(history=[["long", "day", "today"]], response=["i", "am", "fine"],
                        future=[["glad", "to", "hear"]]),
        DialogueExample(history=[["where", "are", "we"]], response=["nearly", "home"],
                        future=[["good"]]),
    ]
    uninformative, informative = classify_uninformative(windows, "exact-match")
    print("\n3. exact-match informativeness on 3 hand-built windows:")
    print(f"   uninformative indices {sorted(uninformative)}, "
          f"informative indices {sorted(informative)}")


if __name__ == "__main__":
    main()
