"""Label spaces for the two sequence-labeling tasks.

Polarity classes are 1 (compatible / satisfiable), 2 (incompatible /
unsatisfiable) and 3 (uncertain). Labels are either O, a target label
carrying a polarity, or a function-word label carrying a polarity.
"""

from __future__ import annotations

from .errors import ConfigError, ContractError

KIND_OTHER = "O"
KIND_TARGET = "target"
KIND_FUNCWORD = "funcword"


class LabelSpace:
    def __init__(self, name: str, labels, kinds, polarities):
        self.name = name
        self.labels = tuple(labels)
        self._kinds = tuple(kinds)
        self._polarities = tuple(polarities)
        self._index = {lab: i for i, lab in enumerate(self.labels)}

    def __len__(self):
        return len(self.labels)

    def __contains__(self, label: str):
        return label in self._index

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ConfigError(f"label {label!r} not in space {self.name}") from None

    def indices(self, labels) -> list:
        """Indices of a sequence of label strings or label indices.

        A label outside the space raises ``ContractError``.
        """
        out = []
        for lab in labels:
            if isinstance(lab, str):
                idx = self._index.get(lab)
                if idx is None:
                    raise ContractError(f"label {lab!r} outside space {self.name}")
            else:
                idx = int(lab)
                if not 0 <= idx < len(self.labels):
                    raise ContractError(
                        f"label index {lab} outside space {self.name}")
            out.append(idx)
        return out

    def kind(self, idx: int) -> str:
        return self._kinds[idx]

    def polarity(self, idx: int) -> int:
        """Polarity class of a label index; 0 for O."""
        return self._polarities[idx]

    def target_label(self, polarity: int) -> str:
        for i, lab in enumerate(self.labels):
            if self._kinds[i] == KIND_TARGET and self._polarities[i] == polarity:
                return lab
        raise ConfigError(f"no target label with polarity {polarity}")

    def funcword_label(self, polarity: int) -> str:
        for i, lab in enumerate(self.labels):
            if self._kinds[i] == KIND_FUNCWORD and self._polarities[i] == polarity:
                return lab
        raise ConfigError(f"no function-word label in space {self.name}")


COMPAT = LabelSpace(
    "compat",
    labels=("O", "C", "I", "U"),
    kinds=(KIND_OTHER, KIND_TARGET, KIND_TARGET, KIND_TARGET),
    polarities=(0, 1, 2, 3),
)

SATISF = LabelSpace(
    "satisf",
    labels=("O", "S", "UN", "U", "F-S", "F-UN", "F-U"),
    kinds=(KIND_OTHER, KIND_TARGET, KIND_TARGET, KIND_TARGET,
           KIND_FUNCWORD, KIND_FUNCWORD, KIND_FUNCWORD),
    polarities=(0, 1, 2, 3, 1, 2, 3),
)

_SPACES = {"compat": COMPAT, "satisf": SATISF}
TASKS = tuple(_SPACES)


def get_space(task: str) -> LabelSpace:
    try:
        return _SPACES[task]
    except KeyError:
        raise ConfigError(f"unknown task {task!r}; expected one of {TASKS}") from None


def label_runs(label_indices):
    """Maximal same-label runs of non-O label indices: (start, end, label)."""
    runs = []
    start = None
    prev = 0
    for i, lab in enumerate(list(label_indices) + [0]):
        if lab != prev:
            if prev != 0:
                runs.append((start, i, prev))
            start = i if lab != 0 else None
            prev = lab
    return runs
