"""From trained model to generated text to scores.

Overfits a small history-only model on 40 synthetic windows, decodes
their contexts with greedy search and with a width-4 beam, and scores
the generations against the references with the corpus metrics. The
model has memorized this slice, so the scores show what each metric
looks like when generation is working; on unseen contexts the same
numbers collapse toward chance.

Run: python3 demos/04_generate_and_evaluate.py   (~15 s)
"""

from dialdistill.corpus import encode_example
from dialdistill.decoding import DecodeConfig, beam_decode, greedy_decode
from dialdistill.metrics import bleu, corpus_ppl, distinct_n, kl_metric
from dialdistill.model import desk_config
from dialdistill.synthetic import future_marker_corpus, marker_vocabulary
from dialdistill.training import TrainingConfig, train_conventional


def main():
    vocab = marker_vocabulary()
    train = [encode_example(e, vocab) for e in future_marker_corpus(40, seed=7)]

    print("overfitting a small history-only model ...")
    tcfg = TrainingConfig(batch_size=16, seed=7, max_steps=500, val_every=10**9)
    model = train_conventional(train, [], desk_config(len(vocab), "conventional"), tcfg).model

    cfg_greedy = DecodeConfig(max_length=10)
    cfg_beam = DecodeConfig(strategy="beam", beam_width=4, max_length=10)
    print("\ncontext -> reference / greedy / beam(4)")
    for ex in train[:3]:
        g = greedy_decode(model, ex.history, cfg_greedy)
        b = beam_decode(model, ex.history, cfg_beam)
        print(f"  {' '.join(vocab.decode(ex.history))}")
        print(f"    reference        : {' '.join(vocab.decode(ex.response))}")
        print(f"    greedy  [{g.score:+.3f}]: {' '.join(vocab.decode(g.token_ids))}")
        print(f"    beam(4) [{b.score:+.3f}]: {' '.join(vocab.decode(b.token_ids))}")

    refs = [vocab.decode(ex.response) for ex in train]
    gens = [
        vocab.decode(greedy_decode(model, ex.history, cfg_greedy).token_ids) for ex in train
    ]
    d1, _ = distinct_n(gens, 1)
    d2, _ = distinct_n(gens, 2)
    print("\nscores on the memorized slice:")
    print(f"  bleu        {bleu(refs, gens):.2f}")
    print(f"  distinct-1  {d1:.3f}")
    print(f"  distinct-2  {d2:.3f}")
    print(f"  kl-1gram    {kl_metric(refs, gens, 1):.3f} bits")
    print(f"  perplexity  {corpus_ppl(model, train).value:.3f}")


if __name__ == "__main__":
    main()
