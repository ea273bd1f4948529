"""Corpus schema, vocabulary, encoding, splitting and synthetic data.

Corpus files are UTF-8 JSON lines with keys: id, product_id, question
(token array), answer (token array), labels (label array or null), task
("compat" | "satisf"). Unknown keys are ignored. Tokenization happens
upstream; this module consumes token lists as-is.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ValidationError
from .labels import get_space

logger = logging.getLogger(__name__)

PAD = 0
UNK = 1


@dataclass
class QAPair:
    id: str
    product_id: str
    question_tokens: list
    answer_tokens: list
    gold_labels: list | None
    task: str

    def validate(self):
        try:
            space = get_space(self.task)
        except ConfigError as exc:
            raise ValidationError(f"pair {self.id}: {exc}") from None
        if not _is_str_list(self.question_tokens) or not self.question_tokens:
            raise ValidationError(
                f"pair {self.id}: question must be a non-empty list of strings")
        if not _is_str_list(self.answer_tokens):
            raise ValidationError(
                f"pair {self.id}: answer must be a list of strings")
        if self.gold_labels is not None:
            if not _is_str_list(self.gold_labels):
                raise ValidationError(
                    f"pair {self.id}: labels must be null or a list of strings")
            if len(self.gold_labels) != len(self.question_tokens):
                raise ValidationError(
                    f"pair {self.id}: {len(self.gold_labels)} labels for "
                    f"{len(self.question_tokens)} question tokens"
                )
            for lab in self.gold_labels:
                if lab not in space:
                    raise ValidationError(
                        f"pair {self.id}: label {lab!r} outside {space.name} space"
                    )


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _pair_from_json(obj) -> QAPair:
    if not isinstance(obj, dict):
        raise ValidationError(f"expected a JSON object, got {json.dumps(obj)[:40]}")
    for key in ("id", "product_id", "question", "answer", "task"):
        if key not in obj:
            raise ValidationError(f"missing key {key!r}")
    pair = QAPair(
        id=str(obj["id"]),
        product_id=str(obj["product_id"]),
        question_tokens=obj["question"],
        answer_tokens=obj["answer"],
        gold_labels=obj.get("labels"),
        task=str(obj["task"]),
    )
    pair.validate()
    return pair


def load_corpus(path) -> list:
    """Parse and validate a JSONL corpus; raises with offending line numbers."""
    pairs = []
    problems = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                pairs.append(_pair_from_json(json.loads(line)))
            except json.JSONDecodeError as exc:
                problems.append(f"line {lineno}: invalid JSON ({exc.msg})")
            except ValidationError as exc:
                problems.append(f"line {lineno}: {exc}")
    if problems:
        raise ValidationError("; ".join(problems))
    return pairs


def save_corpus(pairs, path):
    with open(path, "w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write(json.dumps({
                "id": p.id,
                "product_id": p.product_id,
                "question": p.question_tokens,
                "answer": p.answer_tokens,
                "labels": p.gold_labels,
                "task": p.task,
            }) + "\n")


class Vocab:
    """Token-to-index map with reserved indices 0=PAD and 1=UNK."""

    def __init__(self, tokens):
        self.tokens = ["<pad>", "<unk>"] + list(tokens)
        self.token_to_index = {}
        for i, tok in enumerate(self.tokens):
            if i >= 2:
                self.token_to_index[tok] = i

    @property
    def size(self):
        return len(self.tokens)

    def index(self, token: str) -> int:
        return self.token_to_index.get(token, UNK)

    def sha256(self) -> str:
        h = hashlib.sha256()
        for i, tok in enumerate(self.tokens):
            h.update(f"{i}\t{tok}\n".encode("utf-8"))
        return h.hexdigest()


def build_vocab(pairs, min_count: int = 1) -> Vocab:
    """Frequency-thresholded vocabulary, ordered by (freq desc, token asc)."""
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
    counts = Counter()
    for p in pairs:
        counts.update(p.question_tokens)
        counts.update(p.answer_tokens)
    kept = [t for t, c in counts.items() if c >= min_count]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocab(kept)


@dataclass
class EncodedExample:
    """One QA pair as padded index sequences aligned with the model widths."""
    x_q: np.ndarray
    x_a: np.ndarray
    q_mask: np.ndarray
    a_mask: np.ndarray
    y: np.ndarray
    pair: QAPair = field(repr=False)


def encode(pair: QAPair, vocab: Vocab, cfg) -> EncodedExample:
    """Pad/truncate to (cfg.t_q, cfg.t_a); answers keep their first tokens.
    The model skips PAD positions, so the widths only truncate.

    Questions longer than t_q are truncated from the end; when truncation
    drops non-O gold labels the loss of data is logged with the pair id.
    """
    t_q, t_a = cfg.t_q, cfg.t_a
    space = get_space(pair.task)

    q_tokens = pair.question_tokens[:t_q]
    if pair.gold_labels is not None and len(pair.question_tokens) > t_q:
        dropped = pair.gold_labels[t_q:]
        if any(lab != "O" for lab in dropped):
            logger.warning(
                "pair %s: question truncated to %d tokens, dropping labeled tokens",
                pair.id, t_q,
            )
    a_tokens = pair.answer_tokens[:t_a]

    x_q = np.full(t_q, PAD, dtype=np.int64)
    x_q[:len(q_tokens)] = [vocab.index(t) for t in q_tokens]
    x_a = np.full(t_a, PAD, dtype=np.int64)
    x_a[:len(a_tokens)] = [vocab.index(t) for t in a_tokens]

    q_mask = np.zeros(t_q)
    q_mask[:len(q_tokens)] = 1.0
    a_mask = np.zeros(t_a)
    a_mask[:len(a_tokens)] = 1.0

    y = np.zeros(t_q, dtype=np.int64)
    if pair.gold_labels is not None:
        y[:len(q_tokens)] = [space.index(lab) for lab in pair.gold_labels[:t_q]]

    return EncodedExample(
        x_q=x_q, x_a=x_a, q_mask=q_mask, a_mask=a_mask, y=y, pair=pair,
    )


def split(pairs, seed: int):
    """Deterministic 70/10/20 partition of a shuffled copy.

    Validation takes floor(0.1 n) items and test everything past the 80%
    boundary, so rounding remainders land in the training partition.
    """
    n = len(pairs)
    if n < 10:
        raise ConfigError(f"need at least 10 pairs to split, got {n}")
    order = np.random.default_rng(seed).permutation(n)
    shuffled = [pairs[i] for i in order]
    n_valid = math.floor(0.1 * n)
    n_test = n - math.floor(0.8 * n)
    n_train = n - n_valid - n_test
    train = shuffled[:n_train]
    valid = shuffled[n_train:n_train + n_valid]
    test = shuffled[n_train + n_valid:]
    return train, valid, test


# ---------------------------------------------------------------------------
# synthetic corpus generation

PRODUCTS = ["tablet-a1", "phone-b2", "laptop-c3", "watch-d4", "camera-e5"]

ENTITIES = [
    ("iphone",), ("galaxy", "s8"), ("windows", "10"), ("xbox", "one"),
    ("macbook", "pro"), ("kindle",), ("bluetooth", "headphones"),
    ("android", "tablet"), ("gopro",), ("usb", "c", "hub"),
]

GERUNDS = [
    ("sketching",), ("gaming",), ("video", "editing"), ("reading",),
    ("streaming",),
]

# (prefix tokens, function-word offsets within prefix, suffix tokens, slot kind)
QUESTION_TEMPLATES = [
    (["does", "this", "work", "with"], [2, 3], ["?"], "entity"),
    (["can", "it", "run"], [2], ["?"], "entity"),
    (["can", "you", "use", "this", "for"], [2, 4], ["?"], "gerund"),
    (["works", "with"], [0, 1], ["?"], "entity"),
    (["will", "this", "fit"], [2], ["?"], "entity"),
    (["is", "it", "compatible", "with"], [2, 3], ["?"], "entity"),
]

# answer templates per polarity; None marks the echoed slot filler
ANSWER_TEMPLATES = {
    1: [
        ["yes", ",", "it", "does"],
        ["yes", ",", "it", "works", "great"],
        ["yes", ",", "it", "is"],
        ["it", "runs", None, "very", "well"],
        ["it", "handles", None, "smoothly"],
        ["absolutely", ",", "no", "problem", "at", "all"],
    ],
    2: [
        ["no", ",", "it", "does", "not"],
        ["no", ",", "not", "supported"],
        ["unfortunately", "it", "fails"],
        ["it", "struggles", "with", None],
        ["it", "can", "not", "handle", None],
    ],
    3: [
        ["i", "am", "not", "sure"],
        ["maybe", ",", "it", "depends"],
        ["not", "sure", "about", None],
        ["i", "can", "not", "speak", "to", "that"],
        ["it", "might", "work", "with", None, "but", "i", "have", "not", "tried"],
    ],
}


def synth_generate(n: int, task: str, seed: int, polarity_mix=(0.5, 0.3, 0.2)):
    """Templated QA pairs with gold labels known by construction."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    space = get_space(task)
    mix = [float(x) for x in polarity_mix]
    if (len(mix) != 3 or not all(w >= 0.0 for w in mix)
            or abs(sum(mix) - 1.0) > 1e-9):
        raise ConfigError(
            f"polarity_mix must be 3 non-negative weights summing to 1, got {mix}")

    # rng.choice([1, 2, 3], p=mix) draws one rng.random() and searches
    # this normalised CDF; doing that directly is ten times cheaper
    cdf = np.cumsum(mix)
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    pairs = []
    for k in range(n):
        polarity = int(cdf.searchsorted(rng.random(), side="right")) + 1
        prefix, func_offsets, suffix, slot_kind = QUESTION_TEMPLATES[
            rng.integers(len(QUESTION_TEMPLATES))]
        lexicon = GERUNDS if slot_kind == "gerund" else ENTITIES
        filler = list(lexicon[rng.integers(len(lexicon))])

        question = prefix + filler + suffix
        labels = ["O"] * len(question)
        target_label = space.target_label(polarity)
        for i in range(len(prefix), len(prefix) + len(filler)):
            labels[i] = target_label
        if task == "satisf":
            func_label = space.funcword_label(polarity)
            for off in func_offsets:
                labels[off] = func_label

        template = ANSWER_TEMPLATES[polarity][
            rng.integers(len(ANSWER_TEMPLATES[polarity]))]
        answer = []
        for tok in template:
            if tok is None:
                answer.extend(filler)
            else:
                answer.append(tok)

        pairs.append(QAPair(
            id=f"synth-{task}-{k:05d}",
            product_id=PRODUCTS[rng.integers(len(PRODUCTS))],
            question_tokens=question,
            answer_tokens=answer,
            gold_labels=labels,
            task=task,
        ))
    return pairs
