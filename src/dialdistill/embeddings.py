"""Word embeddings: a small skip-gram-with-negative-sampling trainer
plus the text file format shared with externally trained tables.

The trainer exists so the embedding-based metrics and clustering have a
self-contained vector source; any table in the same text format
(first line ``<count> <dim>``, then ``token v1 ... vd`` per line) can be
imported instead.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError

MIN_CORPUS_TOKENS = 100


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity, with zero vectors mapped to 0 rather than NaN."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


class WordEmbeddings:
    """Token -> vector table of a single dimension."""

    def __init__(self, vectors: dict):
        if not vectors:
            raise DataError("embedding table is empty")
        dims = {np.asarray(v).shape for v in vectors.values()}
        if len(dims) != 1 or len(next(iter(dims))) != 1:
            raise DataError(f"inconsistent embedding shapes: {sorted(dims)}")
        self._vectors = {t: np.asarray(v, dtype=np.float64) for t, v in vectors.items()}
        self.dim = next(iter(dims))[0]

    def __contains__(self, token: str) -> bool:
        return token in self._vectors

    def __len__(self) -> int:
        return len(self._vectors)

    def tokens(self):
        return list(self._vectors)

    def vector(self, token: str):
        """The token's vector, or None when the token is unknown."""
        return self._vectors.get(token)

    def similarity(self, a: str, b: str) -> float:
        va, vb = self._vectors.get(a), self._vectors.get(b)
        if va is None or vb is None:
            return 0.0
        return cosine(va, vb)

    def save(self, path) -> None:
        lines = [f"{len(self._vectors)} {self.dim}"]
        for token, vec in self._vectors.items():
            if not token or any(ch.isspace() for ch in token):
                raise DataError(f"token {token!r} cannot be written to a space-separated file")
            lines.append(token + " " + " ".join(f"{x:.8g}" for x in vec))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "WordEmbeddings":
        with open(path, "r", encoding="utf-8") as fh:
            raw = [line.rstrip("\n") for line in fh if line.strip()]
        if not raw:
            raise DataError(f"{path}: empty embedding file")
        head = raw[0].split()
        if len(head) != 2:
            raise DataError(f"{path}: header must be '<count> <dim>', got {raw[0]!r}")
        try:
            count, dim = int(head[0]), int(head[1])
        except ValueError as exc:
            raise DataError(f"{path}: non-integer header {raw[0]!r}") from exc
        if len(raw) - 1 != count:
            raise DataError(f"{path}: header promises {count} rows, file has {len(raw) - 1}")
        vectors = {}
        for line in raw[1:]:
            parts = line.split()
            if len(parts) != dim + 1:
                raise DataError(f"{path}: row {parts[0]!r} has {len(parts) - 1} values, expected {dim}")
            try:
                vectors[parts[0]] = np.array([float(x) for x in parts[1:]])
            except ValueError as exc:
                raise DataError(f"{path}: non-numeric value in row {parts[0]!r}") from exc
        return cls(vectors)


def _window_pairs(sentence: np.ndarray, window: int):
    """(center, context) id arrays of every pair at most ``window`` apart,
    center-major with contexts in sentence order."""
    n = len(sentence)
    offsets = np.concatenate([np.arange(-window, 0), np.arange(1, window + 1)])
    ctx = np.arange(n)[:, None] + offsets
    keep = (ctx >= 0) & (ctx < n)
    return np.repeat(sentence, keep.sum(axis=1)), sentence[ctx[keep]]


def _sgns_update(w_in, w_out, centers, contexts, noise, learning_rate: float) -> None:
    """One minibatch step in place. Pair ``i`` is scored against its
    context (label 1) and the ids in ``noise[i]`` (label 0), all with the
    weights as they stand; a noise id equal to its pair's context is
    skipped. Updates to a repeated id add up."""
    targets = np.concatenate([contexts[:, None], noise], axis=1)
    v_in = w_in[centers]
    v_out = w_out[targets]
    scores = np.einsum("pd,pkd->pk", v_in, v_out)
    g = -learning_rate * 0.5 * (1.0 + np.tanh(0.5 * scores))  # overflow-free logistic
    g[:, 0] += learning_rate
    g[:, 1:] *= noise != contexts[:, None]
    dim = w_in.shape[1]
    cols = np.arange(dim)
    np.add.at(w_in.reshape(-1), (centers[:, None] * dim + cols).ravel(),
              np.einsum("pk,pkd->pd", g, v_out).ravel())
    np.add.at(w_out.reshape(-1), (targets[..., None] * dim + cols).ravel(),
              (g[..., None] * v_in[:, None, :]).ravel())


def train_word_embeddings(
    corpus,
    dim: int = 32,
    seed: int = 0,
    window: int = 2,
    negatives: int = 5,
    epochs: int = 5,
    learning_rate: float = 0.025,
) -> WordEmbeddings:
    """Skip-gram with negative sampling over a tokenized corpus.

    ``corpus`` is an iterable of token lists (one per sentence/turn).
    Each sentence is one minibatch (Mikolov et al. 2013): all its pairs
    within ``window`` are scored from the same weights, each against
    ``negatives`` noise words drawn from the unigram distribution raised
    to 3/4. Deterministic for a given seed.
    """
    sentences = [list(s) for s in corpus if s]
    tokens = [t for s in sentences for t in s]
    if len(tokens) < MIN_CORPUS_TOKENS:
        raise DataError(
            f"embedding corpus has {len(tokens)} tokens; need at least {MIN_CORPUS_TOKENS}"
        )
    if dim < 1:
        raise DataError(f"embedding dimension must be positive, got {dim}")
    if window < 1 or epochs < 1 or negatives < 0:
        raise DataError(f"need window, epochs >= 1 and negatives >= 0; got {window}, {epochs}, {negatives}")

    vocab = sorted(set(tokens))
    index = {t: i for i, t in enumerate(vocab)}
    encoded = [np.array([index[t] for t in s]) for s in sentences]
    # the draw rng.choice(p=...) makes, without rebuilding its CDF per call
    cdf = np.cumsum(np.bincount(np.concatenate(encoded)) ** 0.75)
    cdf /= cdf[-1]

    rng = np.random.default_rng(seed)
    w_in = (rng.random((len(vocab), dim)) - 0.5) / dim
    w_out = np.zeros((len(vocab), dim))
    for _ in range(epochs):
        for sentence in encoded:
            centers, contexts = _window_pairs(sentence, window)
            noise = cdf.searchsorted(rng.random((len(centers), negatives)), side="right")
            _sgns_update(w_in, w_out, centers, contexts, noise, learning_rate)

    return WordEmbeddings({t: w_in[index[t]] for t in vocab})
