"""Model variants, forward passes, label prediction and tuple decoding.

The full architecture encodes the question, the answer and their
concatenation (the QA story) with three context BLSTMs, lets question and
answer attend over the story, re-encodes both augmented sequences, and
classifies every question position from its encoding joined with a single
answer polarity vector; the softmax of those logits is taken in the loss.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, asdict, field

import numpy as np

from . import layers
from . import tensor as tc
from .corpus import PAD, Vocab
from .errors import ConfigError, ContractError, ShapeError
from .labels import KIND_TARGET, KIND_FUNCWORD, LabelSpace, get_space
from .layers import BLSTMLayer, EmbeddingTable
from .metrics import spans_from_labels
from .tensor import Tensor

VARIANTS = ("dan", "dan-no-ans-attn", "qa-s-blstm", "qa-coattention")

FUNCWORD_WINDOW = 3  # max token gap when pairing function words to a target

CHECKPOINT_MAGIC = b"DANQACK1"


@dataclass
class ModelConfig:
    variant: str = "dan"
    d_e: int = 300
    blstm_dim: int = 128
    t_q: int = 82
    t_a: int = 82
    task: str = "compat"
    dropout_rate: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}"
            )
        for name, low in (("d_e", 1), ("blstm_dim", 2), ("t_q", 1), ("t_a", 1)):
            value = getattr(self, name)
            if type(value) is not int or value < low:  # bool is not int here
                raise ConfigError(f"{name} must be an integer >= {low}, got "
                                  f"{value!r}")
        if self.blstm_dim % 2 != 0:
            raise ConfigError(f"blstm_dim must be even, got {self.blstm_dim}")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError(f"dropout_rate must be in [0, 1), got "
                              f"{self.dropout_rate}")
        get_space(self.task)

    @property
    def space(self) -> LabelSpace:
        return get_space(self.task)


class Model:
    def __init__(self, cfg: ModelConfig, vocab_size: int,
                 embedding: EmbeddingTable | None = None):
        if vocab_size < 2:
            raise ConfigError(f"vocab_size must be >= 2, got {vocab_size}")
        self.cfg = cfg
        self.vocab_size = vocab_size
        b = cfg.blstm_dim
        rng = np.random.default_rng(cfg.seed)

        if embedding is not None:
            weights = embedding.table.data
            if weights.shape != (cfg.d_e, vocab_size):
                raise ShapeError(
                    f"embedding shape {weights.shape} does not match "
                    f"({cfg.d_e}, {vocab_size})"
                )
            self.embedding = EmbeddingTable(weights.copy())
            # keep the init stream aligned with the random-embedding path
            layers.glorot(rng, cfg.d_e, vocab_size)
        else:
            self.embedding = EmbeddingTable.random(cfg.d_e, vocab_size, rng)

        self.ctx1_q = BLSTMLayer(cfg.d_e, b, rng, self.embedding)
        self.ctx1_a = BLSTMLayer(cfg.d_e, b, rng, self.embedding)
        self.ctx1_qa = None
        if cfg.variant in ("dan", "dan-no-ans-attn"):
            self.ctx1_qa = BLSTMLayer(cfg.d_e, b, rng, self.embedding)

        q2_in = b if cfg.variant == "qa-s-blstm" else 2 * b
        a2_in = b if cfg.variant in ("qa-s-blstm", "dan-no-ans-attn") else 2 * b
        self.ctx2_q = BLSTMLayer(q2_in, b, rng)
        self.ctx2_a = BLSTMLayer(a2_in, b, rng)

        n_labels = len(cfg.space)
        self.dense_w = Tensor(layers.glorot(rng, n_labels, 2 * b),
                              requires_grad=True)
        self.dense_b = Tensor(np.zeros(n_labels), requires_grad=True)

    def params(self) -> dict:
        """All trainable tensors by name, iterated in sorted-name order."""
        out = {"embedding.We": self.embedding.table}
        out.update(self.ctx1_q.params("ctx1_q"))
        out.update(self.ctx1_a.params("ctx1_a"))
        if self.ctx1_qa is not None:
            out.update(self.ctx1_qa.params("ctx1_qa"))
        out.update(self.ctx2_q.params("ctx2_q"))
        out.update(self.ctx2_a.params("ctx2_a"))
        out["dense.W"] = self.dense_w
        out["dense.b"] = self.dense_b
        return dict(sorted(out.items()))

    def zero_grad(self):
        for p in self.params().values():
            p.zero_grad()

    # ------------------------------------------------------------------
    # forward pass

    def forward_batch(self, examples, training: bool = False,
                      rng=None) -> Tensor:
        """Label logits of every question position, shape (T_q·B, L).

        Row ``t * B + b`` scores position ``t`` of ``examples[b]``. Every
        sequence is time-major from the token ids to the head: the first
        BLSTMs read (T, B) ids, and from there each sequence is one (T, B, d)
        tensor, with the (B,) lengths of its real steps, counted once from
        the ids. An example whose ``x_q`` or ``x_a`` has a PAD before a real
        token raises ``ContractError``. The story holds each example's real
        question tokens, then its real answer ones, then its PAD.

        Each BLSTM runs over each column's own real steps, and attention
        gives PAD story positions zero weight and PAD source steps a zero
        context, so the rows of real question tokens depend neither on
        ``t_q`` and ``t_a`` nor on the batch peers. Those ops still read the
        finite PAD values past a column's length: the PAD embedding, then
        the states and contexts built on it.
        """
        cfg = self.cfg
        if not examples:
            raise ContractError("forward_batch needs at least one example")
        for ex in examples:
            if len(ex.x_q) != cfg.t_q or len(ex.x_a) != cfg.t_a:
                raise ContractError(
                    f"example {ex.pair.id} has lengths ({len(ex.x_q)}, "
                    f"{len(ex.x_a)}), model expects ({cfg.t_q}, {cfg.t_a})"
                )
        rate = cfg.dropout_rate
        if training and rate > 0.0 and rng is None:
            raise ContractError("training forward pass needs an rng for dropout")

        def drop(t):
            return tc.dropout(t, rate, training, rng)

        xq = np.stack([ex.x_q for ex in examples], axis=1)
        xa = np.stack([ex.x_a for ex in examples], axis=1)
        for name, ids in (("x_q", xq), ("x_a", xa)):
            gapped = np.flatnonzero(((ids[:-1] == PAD) & (ids[1:] != PAD)).any(axis=0))
            if gapped.size:
                raise ContractError(f"example {examples[gapped[0]].pair.id} has a "
                                    f"PAD before a real token in its {name}")
        q_len, a_len = (xq != PAD).sum(axis=0), (xa != PAD).sum(axis=0)
        hq1 = drop(self.ctx1_q.seq(layers.MaskedSeq(xq, q_len)))
        ha1 = drop(self.ctx1_a.seq(layers.MaskedSeq(xa, a_len)))

        cq = ca = None
        if self.ctx1_qa is not None:
            ids = np.concatenate([xq, xa])
            # each column's real question tokens, then its real answer ones, then PAD
            ids = np.take_along_axis(
                ids, np.argsort(ids == PAD, axis=0, kind="stable"), axis=0)
            story_len = q_len + a_len
            story = drop(self.ctx1_qa.seq(layers.MaskedSeq(ids, story_len)))
            cq = layers.attend_step(hq1, story, q_len, story_len)
            if cfg.variant == "dan":
                ca = layers.attend_step(ha1, story, a_len, story_len)
        elif cfg.variant == "qa-coattention":
            cq = layers.attend_step(hq1, ha1, q_len, a_len)
            ca = layers.attend_step(ha1, hq1, a_len, q_len)

        hq2 = hq1 if cq is None else tc.concat(hq1, cq, axis=2)
        ha2 = ha1 if ca is None else tc.concat(ha1, ca, axis=2)

        hq3 = self.ctx2_q.seq(layers.MaskedSeq(hq2, q_len))
        ha3 = tc.repeat(self.ctx2_a.pool(layers.MaskedSeq(ha2, a_len)), cfg.t_q, axis=0)
        joined = tc.concat(hq3, ha3, axis=2)
        flat = drop(tc.reshape(joined, (cfg.t_q * len(examples), 2 * cfg.blstm_dim)))
        return layers.dense_shared(flat, self.dense_w, self.dense_b)


def predict_labels(scores, mask) -> np.ndarray:
    """Argmax label over the last axis of ``scores``, logits or probabilities
    alike; PAD positions forced to O.

    ``mask`` has the shape of ``scores`` without its last axis, 1 for a real
    token. np.argmax resolves ties toward the lowest label index,
    deliberately biasing ties to O (index 0).
    """
    labels = np.asarray(scores).argmax(axis=-1)
    labels[np.asarray(mask) == 0] = 0
    return labels


def predict_label_batches(model: Model, examples, batch_size: int = 128):
    """Argmax labels for many examples, shape (N, T_q)."""
    out = np.zeros((len(examples), model.cfg.t_q), dtype=np.int64)
    for lo in range(0, len(examples), batch_size):
        chunk = examples[lo:lo + batch_size]
        with tc.no_grad():
            logits = model.forward_batch(chunk, training=False)
        qm = np.stack([ex.q_mask for ex in chunk], axis=1)
        out[lo:lo + len(chunk)] = predict_labels(
            logits.data.reshape(model.cfg.t_q, len(chunk), -1), qm).T
    return out


# ---------------------------------------------------------------------------
# tuple decoding


@dataclass
class ExtractionTuple:
    product_id: str
    target_text: str
    target_span: tuple | None
    function_words: list = field(default_factory=list)
    function_spans: list = field(default_factory=list)
    polarity: int = 0

    def to_json(self) -> dict:
        return {
            "product_id": self.product_id,
            "target": self.target_text,
            "target_span": list(self.target_span) if self.target_span else None,
            "function_words": self.function_words,
            "function_spans": [list(s) for s in self.function_spans],
            "polarity": self.polarity,
        }


def _span_gap(a, b):
    """Token distance between two disjoint spans; adjacent spans are 1 apart."""
    if a[1] <= b[0]:
        return b[0] - a[1] + 1
    if b[1] <= a[0]:
        return a[0] - b[1] + 1
    return 0


def decode_tuples(labels, tokens, product_id: str, space: LabelSpace):
    """Turn a label sequence over question tokens into extraction tuples.

    Targets come from maximal same-label runs of target labels. In the
    satisfiability space, each target collects every function-word span of
    the same polarity class within FUNCWORD_WINDOW tokens; function-word
    spans attached to no target become tuples with an empty target.
    """
    spans = spans_from_labels(labels[:len(tokens)], space)
    targets = [(s.start, s.end, s.polarity) for s in spans
               if s.kind == KIND_TARGET]
    funcs = [(s.start, s.end, s.polarity) for s in spans
             if s.kind == KIND_FUNCWORD]

    tuples = []
    used_funcs = set()
    for ts, te, pol in targets:
        words, spans = [], []
        for fi, (fs, fe, fpol) in enumerate(funcs):
            if fpol == pol and _span_gap((fs, fe), (ts, te)) <= FUNCWORD_WINDOW:
                words.append(" ".join(tokens[fs:fe]))
                spans.append((fs, fe))
                used_funcs.add(fi)
        tuples.append(ExtractionTuple(
            product_id=product_id,
            target_text=" ".join(tokens[ts:te]),
            target_span=(ts, te),
            function_words=words,
            function_spans=spans,
            polarity=pol,
        ))
    for fi, (fs, fe, fpol) in enumerate(funcs):
        if fi not in used_funcs:
            tuples.append(ExtractionTuple(
                product_id=product_id,
                target_text="",
                target_span=None,
                function_words=[" ".join(tokens[fs:fe])],
                function_spans=[(fs, fe)],
                polarity=fpol,
            ))
    return tuples


# ---------------------------------------------------------------------------
# checkpoint serialization (little-endian float64 blobs + JSON manifest)

MANIFEST_KEYS = {"config", "labels", "vocab_hash", "vocab_tokens", "extra",
                 "params"}


def save_checkpoint(path, model: Model, vocab: Vocab, extra: dict | None = None):
    params = model.params()
    manifest = {
        "format_version": 1,
        "config": asdict(model.cfg),
        "labels": list(model.cfg.space.labels),
        "vocab_hash": vocab.sha256(),
        "vocab_tokens": vocab.tokens,
        "extra": extra or {},
        "params": [{"name": name, "shape": list(p.shape)}
                   for name, p in params.items()],
    }
    blob = json.dumps(manifest).encode("utf-8")
    # write beside the target, then rename: readers never see a partial file
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            for p in params.values():
                fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Read a checkpoint; returns (model, vocab, manifest).

    A file that is not a whole checkpoint raises ``ConfigError`` naming
    ``path``.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ConfigError(f"{path} is not a checkpoint file")
        head = fh.read(4)
        if len(head) != 4:
            raise ConfigError(f"{path} is truncated inside its manifest length")
        (mlen,) = struct.unpack("<I", head)
        try:
            manifest = json.loads(fh.read(mlen).decode("utf-8"))
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ConfigError(f"{path} has an unreadable manifest: {exc}") from None
        if not isinstance(manifest, dict):
            raise ConfigError(f"{path} has a manifest that is not a JSON object")
        if manifest.get("format_version") != 1:
            raise ConfigError(f"{path} has unsupported checkpoint format "
                              f"{manifest.get('format_version')}")
        missing = sorted(MANIFEST_KEYS - manifest.keys())
        if missing:
            raise ConfigError(f"{path} manifest lacks {missing}")
        try:
            cfg = ModelConfig(**manifest["config"])
        except (TypeError, ConfigError) as exc:
            raise ConfigError(f"{path} has a bad model config: {exc}") from None
        if manifest["labels"] != list(cfg.space.labels):
            raise ConfigError(
                f"{path} labels {manifest['labels']} do not match the "
                f"{cfg.task} label space {list(cfg.space.labels)}")
        tokens, declared = manifest["vocab_tokens"], manifest["params"]
        if not (isinstance(tokens, list) and isinstance(manifest["extra"], dict)
                and isinstance(declared, list)
                and all(isinstance(d, dict) and isinstance(d.get("name"), str)
                        and isinstance(d.get("shape"), list) for d in declared)):
            raise ConfigError(
                f"{path} manifest needs vocab_tokens and params lists, an "
                f"extra object, and a name and shape list in each params entry")
        vocab = Vocab(tokens[2:])
        if vocab.sha256() != manifest["vocab_hash"]:
            raise ConfigError(
                f"{path} vocabulary hash does not match its tokens")
        model = Model(cfg, vocab.size)
        params = model.params()
        if [d["name"] for d in declared] != list(params.keys()):
            raise ConfigError(
                f"{path} parameter inventory does not match the model")
        for d in declared:
            p = params[d["name"]]
            if tuple(d["shape"]) != p.shape:
                raise ConfigError(
                    f"{path} shape {d['shape']} for {d['name']} does not "
                    f"match model shape {list(p.shape)}"
                )
            n = int(np.prod(d["shape"])) if d["shape"] else 1
            buf = fh.read(8 * n)
            if len(buf) != 8 * n:
                raise ConfigError(f"{path} is truncated at {d['name']}")
            p.data[...] = np.frombuffer(buf, dtype="<f8").reshape(p.shape)
        if fh.read(1):
            raise ConfigError(f"{path} has bytes after its last parameter")
    return model, vocab, manifest
