"""Shared test oracles: finite differences, the model and a scorer in numpy.

The model oracles (``reference_step`` up to ``reference_forward``) compute
the forward pass from plain arrays with textbook formulas, one example and
one step at a time, without danqa.tensor. The reference scorer
re-implements the evaluation definitions naively and independently of
danqa.metrics (explicit per-example loops, repeated max extraction instead
of a sorted sweep) so agreement is meaningful. The leaf makers ``constant``
and ``parameter``, the tape ops ``bmm``, ``add``, ``mul`` and ``tensor_sum``,
the weights reader ``attention_weights`` and ``real_steps``, which turns
lengths into the masks the oracles take, are ones only tests use.
"""

import numpy as np

from danqa import tensor as tc
from danqa.errors import ShapeError
from danqa.labels import KIND_FUNCWORD, KIND_TARGET


def fd_gradient(f, x: np.ndarray, eps: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of scalar f() w.r.t. array x (mutated in place)."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = f()
        flat[i] = orig - eps
        down = f()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * eps)
    return grad


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def reference_step(x, hc, wx, wh, b):
    """Separate affine pre-activation, then the textbook gate formulas."""
    hdim = wh.shape[1]
    h, c = hc[:, :hdim], hc[:, hdim:]
    z = x @ wx.T + h @ wh.T + b
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    i, f, o = (sig(z[:, k * hdim:(k + 1) * hdim]) for k in range(3))
    c_new = f * c + i * np.tanh(z[:, 3 * hdim:])
    return np.concatenate([o * np.tanh(c_new), c_new], axis=1)


def reference_direction(xs, wx, wh, b, reverse=False, mask=None):
    """T calls of ``reference_step`` over the (B, D) steps ``xs`` from a zero
    [h | c]; (T·B, H) like ``lstm_cell``, row block t the state after
    ``xs[t]``. A row whose (T, B) ``mask`` is 0 at a step keeps its [h | c]
    through that step; no mask means every step is real."""
    hdim = wh.shape[1]
    hc = np.zeros((xs[0].shape[0], 2 * hdim))
    out = [None] * len(xs)
    for t in (reversed(range(len(xs))) if reverse else range(len(xs))):
        real = True if mask is None else np.asarray(mask[t])[:, None] > 0
        hc = np.where(real, reference_step(xs[t], hc, wx, wh, b), hc)
        out[t] = hc[:, :hdim]
    return np.concatenate(out)


def reference_attention(src, story, mask, src_mask=None):
    """Per-row numpy softmax of ``src[b, t] . story[b]`` over the real positions
    of the (B, S) ``mask``; a row with no real position, or one that the
    (B, T) ``src_mask`` marks PAD (none if None), gets zero weights and
    context."""
    batch, t_len, _ = src.shape
    context = np.zeros(src.shape)
    weights = np.zeros((batch, t_len, story.shape[1]))
    for b in range(batch):
        real = mask[b] > 0
        for t in range(t_len):
            if not real.any() or (src_mask is not None and not src_mask[b, t] > 0):
                continue
            logits = story[b, real] @ src[b, t]
            e = np.exp(logits - logits.max())
            weights[b, t, real] = e / e.sum()
            context[b, t] = weights[b, t] @ story[b]
    return context, weights


def reference_forward(params, examples, cfg):
    """Inference-mode label distributions (B·T_q, L), one example at a time.

    ``params`` maps ``Model.params()`` names to arrays. Every BLSTM step at a
    position whose ``q_mask``/``a_mask`` is 0 (PAD) leaves the state as it
    was, in both directions. Each example's
    question and answer go through their context BLSTMs; the attending
    variants join each with its attention context over the story (question
    then answer) or, for ``qa-coattention``, over each other; the second
    BLSTMs re-encode both, the answer is pooled to [last forward h | first
    backward h], and every question step joined with it is classified.
    """
    def directions(name, x, mask):
        """Forward and backward hidden states (T, H) over the rows of x."""
        return [reference_direction(x[:, None], params[f"{name}.{d}.Wx"],
                                    params[f"{name}.{d}.Wh"],
                                    params[f"{name}.{d}.b"], reverse=d == "bw",
                                    mask=mask[:, None])
                for d in ("fw", "bw")]

    def seq(name, x, mask):
        return np.concatenate(directions(name, x, mask), axis=1)

    def context(src, story, mask):
        return reference_attention(src[None], story[None], mask[None])[0][0]

    rows = []
    for ex in examples:
        eq = params["embedding.We"][:, ex.x_q].T
        ea = params["embedding.We"][:, ex.x_a].T
        hq, ha = seq("ctx1_q", eq, ex.q_mask), seq("ctx1_a", ea, ex.a_mask)
        contexts = (None, None)
        if cfg.variant in ("dan", "dan-no-ans-attn"):
            mask = np.concatenate([ex.q_mask, ex.a_mask])
            story = seq("ctx1_qa", np.concatenate([eq, ea]), mask)
            contexts = (context(hq, story, mask),
                        context(ha, story, mask) if cfg.variant == "dan" else None)
        elif cfg.variant == "qa-coattention":
            contexts = (context(hq, ha, ex.a_mask), context(ha, hq, ex.q_mask))
        hq, ha = (h if c is None else np.concatenate([h, c], axis=1)
                  for h, c in zip((hq, ha), contexts))
        fw, bw = directions("ctx2_a", ha, ex.a_mask)
        answer = np.concatenate([fw[-1], bw[0]])
        hq = seq("ctx2_q", hq, ex.q_mask)
        joined = np.concatenate([hq, np.tile(answer, (len(hq), 1))], axis=1)
        logits = joined @ params["dense.W"].T + params["dense.b"]
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        rows.append(e / e.sum(axis=1, keepdims=True))
    return np.concatenate(rows)


def constant(data):
    return tc.Tensor(data)


def parameter(data):
    return tc.Tensor(data, requires_grad=True)


def bmm(a, b):
    """Stacked matrix product over identical leading batch dimensions."""
    if (a.data.ndim < 3 or a.data.ndim != b.data.ndim
            or a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]):
        raise ShapeError(f"bmm shapes incompatible: {a.shape} @ {b.shape}")

    def backward(g):
        return g @ np.swapaxes(b.data, -1, -2), np.swapaxes(a.data, -1, -2) @ g

    return tc._wrap(a.data @ b.data, (a, b), backward)


def add(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return tc._wrap(a.data + b.data, (a, b), lambda g: (g, g))


def mul(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    return tc._wrap(a.data * b.data, (a, b),
                    lambda g: (g * b.data, g * a.data))


def tensor_sum(x):
    return tc._wrap(np.asarray(x.data.sum()), (x,),
                    lambda g: (np.full(x.data.shape, float(g.reshape(()))),))


def attention_weights(src, story, src_len, story_len):
    """The (B, T, S) weights of ``layers.attend_step`` over the same time-major
    arguments as arrays, through the op's own masked softmax: row [t, b] of
    its context is ``weights[b, t] @ story[:, b]``."""
    src_len, story_len = np.asarray(src_len), np.asarray(story_len)
    real = ((np.arange(len(src)) < src_len[:, None])[:, :, None]
            & (np.arange(len(story)) < story_len[:, None])[:, None])
    return tc._masked_softmax(np.swapaxes(src, 0, 1) @ np.transpose(story, (1, 2, 0)),
                              real)


def real_steps(lengths, t_len):
    """The (T, B) bool mask of the steps that (B,) ``lengths`` make real."""
    return np.arange(t_len)[:, None] < np.asarray(lengths)


def _f1(tp, fp, fn):
    if tp + fp + fn == 0:
        return 1.0
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


def _greedy_pairs(preds, golds):
    """One-to-one matching by repeatedly taking the best remaining candidate."""
    remaining = []
    for pi, p in enumerate(preds):
        for gi, g in enumerate(golds):
            inter = min(p.end, g.end) - max(p.start, g.start)
            ratio = max(0, inter) / (g.end - g.start)
            if ratio >= 0.5:
                remaining.append((pi, gi, ratio))
    pairs = []
    taken_p, taken_g = set(), set()
    while remaining:
        best = None
        for cand in remaining:
            if best is None:
                best = cand
                continue
            if (cand[2] > best[2]
                    or (cand[2] == best[2]
                        and (preds[cand[0]].start, golds[cand[1]].start)
                        < (preds[best[0]].start, golds[best[1]].start))):
                best = cand
        remaining.remove(best)
        if best[0] in taken_p or best[1] in taken_g:
            continue
        taken_p.add(best[0])
        taken_g.add(best[1])
        pairs.append((best[0], best[1]))
    return pairs


def reference_score(task, preds_per_ex, golds_per_ex):
    """Naive scorer implementing the same evaluation definitions."""
    classes = (1, 2, 3)
    tp = dict.fromkeys(classes, 0)
    fp = dict.fromkeys(classes, 0)
    n_gold = dict.fromkeys(classes, 0)
    e_tp = e_fp = e_gold = 0
    scored = correct = 0

    for preds, golds in zip(preds_per_ex, golds_per_ex):
        pt = [s for s in preds if s.kind == KIND_TARGET]
        gt = [s for s in golds if s.kind == KIND_TARGET]
        for s in gt:
            n_gold[s.polarity] += 1
        e_gold += len(gt)

        if task == "satisf":
            gold_func = set()
            for s in golds:
                if s.kind == KIND_FUNCWORD:
                    gold_func |= set(range(s.start, s.end))
            pred_func = set()
            for s in preds:
                if s.kind == KIND_FUNCWORD:
                    pred_func |= set(range(s.start, s.end))
            func_ok = (len(gold_func) == 0) or bool(gold_func & pred_func)
        else:
            func_ok = True

        pairs = _greedy_pairs(pt, gt)
        matched_p = {pi for pi, _ in pairs}
        for pi, gi in pairs:
            if not func_ok:
                continue
            e_tp += 1
            scored += 1
            if pt[pi].polarity == gt[gi].polarity:
                correct += 1
                tp[gt[gi].polarity] += 1
        for pi in range(len(pt)):
            if pi not in matched_p:
                e_fp += 1
                fp[pt[pi].polarity] += 1

    f1s = []
    per_class = {}
    for c in classes:
        fn_c = n_gold[c] - tp[c]
        per_class[c] = (tp[c], fp[c], fn_c)
        if tp[c] + fp[c] + fn_c > 0:
            f1s.append(_f1(tp[c], fp[c], fn_c))
    avg = sum(f1s) / len(f1s) if f1s else 1.0
    ext = _f1(e_tp, e_fp, e_gold - e_tp)
    acc = correct / scored if scored else 1.0
    return {"avg_f1": avg, "extraction_f1": ext, "polarity_acc": acc,
            "per_class": per_class}
